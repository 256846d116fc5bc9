//! Statistical traffic profiles and the seeded synthesizer that turns
//! them into unbounded request streams.
//!
//! A captured CMTR trace is finite — it ends when the capture run
//! ends. Long-horizon studies (fairness, starvation, slow drift) need
//! traffic far past that point. [`TrafficProfile::fit`] distills a
//! capture into a small statistical model — global arrival rate,
//! per-core traffic share, read/write/prefetch mix, criticality mix,
//! row-buffer locality, and row footprint — and [`SynthSource`]
//! regenerates traffic matching that model from a deterministic
//! seeded generator ([`critmem_common::SmallRng`]), for as many
//! requests as the study asks for. The same seed and profile always
//! produce the identical stream, so synthesized experiments are as
//! reproducible as replayed ones.
//!
//! Profiles serialize as `CMPF` artifacts (CritMem ProFile): the sealed
//! CRC-32 frame of [`critmem_common::codec`] around a codec payload,
//! shared with the checkpoint (`CMCK`) artifact and every `CMJR`
//! journal record:
//!
//! ```text
//! magic        4  b"CMPF"
//! version      4  u32, currently 1
//! payload_len  4  u32
//! payload      n  ByteWriter encoding (fingerprint blob, source,
//!                 records_fitted, mean_gap, mean_issue_lag, cores)
//! crc32        4  over the payload bytes
//! ```
//!
//! # Examples
//!
//! ```
//! use critmem_trace::{RequestSource, SynthSource, TrafficProfile};
//! # use critmem_trace::{Fingerprint, Trace, TraceRecord};
//! # use critmem_common::AccessKind;
//! # use critmem_dram::DramConfig;
//! # let cfg = DramConfig::paper_baseline();
//! # let records = (0..64u64).map(|i| TraceRecord {
//! #     enqueue_cycle: i * 4, issued_at: i * 4, id: i, addr: i * 64,
//! #     crit: i % 3, core: (i % 8) as u8, kind: AccessKind::Read,
//! # }).collect();
//! # let trace = Trace {
//! #     fingerprint: Fingerprint::of(8, 4_270, &cfg),
//! #     source: "doc".into(),
//! #     records,
//! # };
//! let profile = TrafficProfile::fit(&trace).unwrap();
//! let bytes = profile.to_bytes(); // CMPF artifact
//! assert_eq!(TrafficProfile::from_bytes(&bytes).unwrap(), profile);
//!
//! let mut synth = SynthSource::new(&profile, 42).with_limit(1_000);
//! let mut n = 0;
//! while let Some(rec) = synth.next_record().unwrap() {
//!     n += 1;
//!     let _ = rec.enqueue_cycle;
//! }
//! assert_eq!(n, 1_000);
//! ```

use crate::format::{Fingerprint, Trace, TraceError, TraceRecord};
use crate::stream::RequestSource;
use critmem_common::codec::{ByteReader, ByteWriter, CodecError};
use critmem_common::{AccessKind, SmallRng};
use std::path::Path;

/// CMPF artifact magic: "CritMem ProFile".
pub const PROFILE_MAGIC: [u8; 4] = *b"CMPF";
/// Current CMPF artifact version.
pub const PROFILE_VERSION: u32 = 1;

/// Per-core statistical summary of captured traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProfile {
    /// This core's share of total requests (0 for a silent core).
    pub weight: f64,
    /// Fraction of this core's requests that are writes.
    pub write_frac: f64,
    /// Fraction of this core's requests that are prefetches.
    pub prefetch_frac: f64,
    /// Fraction of this core's *reads* carrying a criticality
    /// annotation (`crit > 0`).
    pub crit_frac: f64,
    /// Mean criticality magnitude over annotated reads.
    pub mean_crit: f64,
    /// Probability that a request lands in the same DRAM row as this
    /// core's previous request (row-buffer locality).
    pub row_hit_frac: f64,
    /// Distinct DRAM rows this core touched (its working-set span).
    pub footprint_rows: u64,
}

impl CoreProfile {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.weight);
        w.put_f64(self.write_frac);
        w.put_f64(self.prefetch_frac);
        w.put_f64(self.crit_frac);
        w.put_f64(self.mean_crit);
        w.put_f64(self.row_hit_frac);
        w.put_u64(self.footprint_rows);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(CoreProfile {
            weight: r.get_f64()?,
            write_frac: r.get_f64()?,
            prefetch_frac: r.get_f64()?,
            crit_frac: r.get_f64()?,
            mean_crit: r.get_f64()?,
            row_hit_frac: r.get_f64()?,
            footprint_rows: r.get_u64()?,
        })
    }
}

/// A fitted statistical model of a capture's memory traffic.
///
/// Carries the capture's topology [`Fingerprint`] so synthesized
/// traffic replays only against matching DRAM systems — the same
/// safety rail trace replay has.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficProfile {
    /// Topology of the capturing system.
    pub fingerprint: Fingerprint,
    /// Provenance label, e.g. `"swim"` or `"synthetic-dense"`.
    pub source: String,
    /// Number of trace records the fit consumed.
    pub records_fitted: u64,
    /// Mean CPU cycles between consecutive request arrivals (the
    /// exponential inter-arrival mean; smaller = denser traffic).
    pub mean_gap: f64,
    /// Mean CPU cycles between MSHR issue and transaction-queue
    /// enqueue (processor-side queuing delay).
    pub mean_issue_lag: f64,
    /// One entry per core of the capturing system.
    pub cores: Vec<CoreProfile>,
}

impl TrafficProfile {
    /// Fits a profile to a captured trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] if the trace carries no records —
    /// there is nothing to fit.
    pub fn fit(trace: &Trace) -> Result<Self, TraceError> {
        if trace.records.is_empty() {
            return Err(TraceError::Corrupt(
                "cannot fit a traffic profile to an empty trace".into(),
            ));
        }
        let recs = &trace.records;
        let total = recs.len() as f64;
        let row_bytes = trace.fingerprint.row_bytes.max(1);

        let first = recs.iter().map(|r| r.enqueue_cycle).min().unwrap();
        let last = recs.iter().map(|r| r.enqueue_cycle).max().unwrap();
        let mean_gap = if recs.len() > 1 {
            (last - first) as f64 / (recs.len() - 1) as f64
        } else {
            1.0
        };
        let mean_issue_lag = recs
            .iter()
            .map(|r| (r.enqueue_cycle - r.issued_at.min(r.enqueue_cycle)) as f64)
            .sum::<f64>()
            / total;

        let max_core = recs.iter().map(|r| r.core as usize).max().unwrap();
        let ncores = (trace.fingerprint.cores as usize).max(max_core + 1);
        struct Acc {
            count: u64,
            writes: u64,
            prefetches: u64,
            reads: u64,
            crit_reads: u64,
            crit_sum: u64,
            row_hits: u64,
            row_moves: u64,
            prev_row: Option<u64>,
            rows: std::collections::BTreeSet<u64>,
        }
        let mut accs: Vec<Acc> = (0..ncores)
            .map(|_| Acc {
                count: 0,
                writes: 0,
                prefetches: 0,
                reads: 0,
                crit_reads: 0,
                crit_sum: 0,
                row_hits: 0,
                row_moves: 0,
                prev_row: None,
                rows: std::collections::BTreeSet::new(),
            })
            .collect();
        for r in recs {
            let a = &mut accs[r.core as usize];
            a.count += 1;
            match r.kind {
                AccessKind::Write => a.writes += 1,
                AccessKind::Prefetch => a.prefetches += 1,
                AccessKind::Read => {
                    a.reads += 1;
                    if r.crit > 0 {
                        a.crit_reads += 1;
                        a.crit_sum += r.crit;
                    }
                }
            }
            let row = r.addr / row_bytes;
            if let Some(prev) = a.prev_row {
                a.row_moves += 1;
                a.row_hits += u64::from(prev == row);
            }
            a.prev_row = Some(row);
            a.rows.insert(row);
        }
        let cores = accs
            .into_iter()
            .map(|a| {
                let n = a.count.max(1) as f64;
                CoreProfile {
                    weight: a.count as f64 / total,
                    write_frac: a.writes as f64 / n,
                    prefetch_frac: a.prefetches as f64 / n,
                    crit_frac: a.crit_reads as f64 / a.reads.max(1) as f64,
                    mean_crit: a.crit_sum as f64 / a.crit_reads.max(1) as f64,
                    row_hit_frac: if a.row_moves > 0 {
                        a.row_hits as f64 / a.row_moves as f64
                    } else {
                        0.5
                    },
                    footprint_rows: (a.rows.len() as u64).max(1),
                }
            })
            .collect();
        Ok(TrafficProfile {
            fingerprint: trace.fingerprint.clone(),
            source: trace.source.clone(),
            records_fitted: recs.len() as u64,
            mean_gap,
            mean_issue_lag,
            cores,
        })
    }

    /// Serializes the profile as a CMPF artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        let mut fp = Vec::new();
        self.fingerprint
            .write_to(&mut fp)
            .expect("Vec writes are infallible");
        payload.put_bytes(&fp);
        payload.put_str(&self.source);
        payload.put_u64(self.records_fitted);
        payload.put_f64(self.mean_gap);
        payload.put_f64(self.mean_issue_lag);
        payload.put_u32(self.cores.len() as u32);
        for c in &self.cores {
            c.encode(&mut payload);
        }
        let mut out = ByteWriter::new();
        out.put_header(&PROFILE_MAGIC, PROFILE_VERSION);
        out.put_sealed(&payload.into_bytes());
        out.into_bytes()
    }

    /// Deserializes a CMPF artifact.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] on bad magic, unsupported version,
    /// truncation, checksum mismatch, or a malformed payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut frame = ByteReader::new(bytes);
        let payload = frame
            .check_header("profile", &PROFILE_MAGIC, PROFILE_VERSION)
            .and_then(|()| frame.get_sealed("profile"))
            .map_err(|e| TraceError::Corrupt(e.to_string()))?;
        let decode_err = |e: CodecError| TraceError::Corrupt(format!("malformed profile: {e}"));
        let mut r = ByteReader::new(payload);
        let fp_blob = r.get_bytes().map_err(decode_err)?;
        let fingerprint = Fingerprint::read_from(&mut &fp_blob[..])?;
        let source = r.get_str().map_err(decode_err)?;
        let records_fitted = r.get_u64().map_err(decode_err)?;
        let mean_gap = r.get_f64().map_err(decode_err)?;
        let mean_issue_lag = r.get_f64().map_err(decode_err)?;
        let ncores = r.get_u32().map_err(decode_err)? as usize;
        let cores = (0..ncores)
            .map(|_| CoreProfile::decode(&mut r).map_err(decode_err))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TrafficProfile {
            fingerprint,
            source,
            records_fitted,
            mean_gap,
            mean_issue_lag,
            cores,
        })
    }

    /// Writes the CMPF artifact to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a CMPF artifact from a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and format errors.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// Per-core generator state.
struct CoreGen {
    profile: CoreProfile,
    /// First row of this core's private address span (spans are
    /// disjoint so synthesized cores never false-share rows).
    base_row: u64,
    /// Current row within the footprint, for row-locality draws.
    cur_row: u64,
}

/// Deterministic request stream drawn from a [`TrafficProfile`].
///
/// Same profile + same seed ⇒ identical stream, always. Unbounded by
/// default; cap with [`SynthSource::with_limit`].
pub struct SynthSource {
    fingerprint: Fingerprint,
    rng: SmallRng,
    mean_gap: f64,
    mean_issue_lag: f64,
    cores: Vec<CoreGen>,
    /// Cumulative core weights for the weighted core pick.
    cum_weights: Vec<f64>,
    total_weight: f64,
    lines_per_row: u64,
    now: u64,
    next_id: u64,
    remaining: Option<u64>,
}

impl SynthSource {
    /// Builds an unbounded generator over `profile`, seeded with
    /// `seed`.
    pub fn new(profile: &TrafficProfile, seed: u64) -> Self {
        let mut base = 0u64;
        let cores = profile
            .cores
            .iter()
            .map(|c| {
                let g = CoreGen {
                    profile: c.clone(),
                    base_row: base,
                    cur_row: 0,
                };
                base += c.footprint_rows;
                g
            })
            .collect::<Vec<_>>();
        let mut cum = 0.0;
        let cum_weights = cores
            .iter()
            .map(|c| {
                cum += c.profile.weight;
                cum
            })
            .collect();
        SynthSource {
            fingerprint: profile.fingerprint.clone(),
            rng: SmallRng::seed_from_u64(seed),
            mean_gap: profile.mean_gap.max(0.0),
            mean_issue_lag: profile.mean_issue_lag.max(0.0),
            cores,
            cum_weights,
            total_weight: cum,
            lines_per_row: (profile.fingerprint.row_bytes / profile.fingerprint.line_bytes.max(1))
                .max(1),
            now: 0,
            next_id: 0,
            remaining: None,
        }
    }

    /// Caps the stream at `n` requests (for bounded experiments and
    /// tests).
    #[must_use]
    pub fn with_limit(mut self, n: u64) -> Self {
        self.remaining = Some(n);
        self
    }

    /// Requests generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// One exponential draw with the given mean, rounded to cycles.
    fn exp_cycles(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        let u = self.rng.gen_f64();
        (-mean * (1.0 - u).ln()).round() as u64
    }

    /// Draws the next synthesized record, or `None` once the
    /// [`with_limit`](Self::with_limit) cap is exhausted.
    pub fn generate(&mut self) -> Option<TraceRecord> {
        match self.remaining.as_mut() {
            Some(0) => return None,
            Some(n) => *n -= 1,
            None => {}
        }
        // Fixed draw order — arrival gap, core, kind, row, line,
        // criticality, issue lag — so streams are seed-deterministic.
        self.now += self.exp_cycles(self.mean_gap);
        let pick = self.rng.gen_f64() * self.total_weight;
        let core_idx = self
            .cum_weights
            .iter()
            .position(|&c| pick < c)
            .unwrap_or(self.cores.len() - 1);
        let kind_u = self.rng.gen_f64();
        let core = &self.cores[core_idx];
        let kind = if kind_u < core.profile.write_frac {
            AccessKind::Write
        } else if kind_u < core.profile.write_frac + core.profile.prefetch_frac {
            AccessKind::Prefetch
        } else {
            AccessKind::Read
        };
        let stay = self.rng.gen_bool(core.profile.row_hit_frac);
        let footprint = core.profile.footprint_rows;
        let row = if stay || footprint <= 1 {
            self.cores[core_idx].cur_row
        } else {
            let r = self.rng.gen_range(0..footprint);
            self.cores[core_idx].cur_row = r;
            r
        };
        let line = self.rng.gen_range(0..self.lines_per_row);
        let (crit_frac, mean_crit, base_row) = {
            let c = &self.cores[core_idx];
            (c.profile.crit_frac, c.profile.mean_crit, c.base_row)
        };
        let crit = if kind == AccessKind::Read && self.rng.gen_bool(crit_frac) {
            let hi = (mean_crit.round() as u64).max(1) * 2;
            self.rng.gen_range(1..hi + 1)
        } else {
            0
        };
        let lag = self.exp_cycles(self.mean_issue_lag);
        let addr =
            (base_row + row) * self.fingerprint.row_bytes + line * self.fingerprint.line_bytes;
        let rec = TraceRecord {
            enqueue_cycle: self.now,
            issued_at: self.now.saturating_sub(lag),
            id: self.next_id,
            addr,
            crit,
            core: core_idx as u8,
            kind,
        };
        self.next_id += 1;
        Some(rec)
    }
}

impl RequestSource for SynthSource {
    fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        Ok(self.generate())
    }
}

impl std::fmt::Debug for SynthSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthSource")
            .field("generated", &self.next_id)
            .field("remaining", &self.remaining)
            .field("mean_gap", &self.mean_gap)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critmem_dram::DramConfig;

    fn sample_trace() -> Trace {
        let cfg = DramConfig::paper_baseline();
        let records = (0..1_000u64)
            .map(|i| TraceRecord {
                enqueue_cycle: i * 6,
                issued_at: (i * 6).saturating_sub(i % 11),
                id: i,
                addr: ((i % 4) << 20) | ((i % 97) * 64),
                crit: if i % 4 == 0 { 1 + i % 16 } else { 0 },
                core: (i % 8) as u8,
                kind: match i % 10 {
                    0..=2 => AccessKind::Write,
                    3 => AccessKind::Prefetch,
                    _ => AccessKind::Read,
                },
            })
            .collect();
        Trace {
            fingerprint: Fingerprint::of(8, 4_270, &cfg),
            source: "synthfit".into(),
            records,
        }
    }

    #[test]
    fn fit_produces_a_sane_profile() {
        let profile = TrafficProfile::fit(&sample_trace()).unwrap();
        assert_eq!(profile.records_fitted, 1_000);
        assert_eq!(profile.cores.len(), 8);
        let weight_sum: f64 = profile.cores.iter().map(|c| c.weight).sum();
        assert!(
            (weight_sum - 1.0).abs() < 1e-9,
            "weights sum to {weight_sum}"
        );
        assert!((profile.mean_gap - 6.0).abs() < 0.1, "{}", profile.mean_gap);
        for (i, c) in profile.cores.iter().enumerate() {
            assert!(c.write_frac >= 0.0 && c.write_frac <= 1.0, "core {i}");
            assert!(c.row_hit_frac >= 0.0 && c.row_hit_frac <= 1.0, "core {i}");
            assert!(c.footprint_rows >= 1, "core {i}");
        }
    }

    #[test]
    fn fitting_an_empty_trace_is_an_error() {
        let trace = Trace {
            records: vec![],
            ..sample_trace()
        };
        let err = TrafficProfile::fit(&trace).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("empty trace"), "{err}");
    }

    #[test]
    fn cmpf_artifact_round_trips() {
        let profile = TrafficProfile::fit(&sample_trace()).unwrap();
        let bytes = profile.to_bytes();
        assert_eq!(&bytes[..4], b"CMPF");
        assert_eq!(TrafficProfile::from_bytes(&bytes).unwrap(), profile);
    }

    #[test]
    fn cmpf_corruption_is_typed() {
        let bytes = TrafficProfile::fit(&sample_trace()).unwrap().to_bytes();
        // Bad magic.
        let err = TrafficProfile::from_bytes(b"NOPE").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // Future version.
        let mut v = bytes.clone();
        v[4] = 0xFF;
        let err = TrafficProfile::from_bytes(&v).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Truncation, at every length and by a hostile length field.
        let err = TrafficProfile::from_bytes(&bytes[..bytes.len() - 9]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        for cut in 0..bytes.len() {
            let err = TrafficProfile::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "cut {cut}: {err:?}");
        }
        let len = bytes.len() as u32 - 16;
        for bad in [u32::MAX, len + 1] {
            let mut hostile = bytes.clone();
            hostile[8..12].copy_from_slice(&bad.to_le_bytes());
            let err = TrafficProfile::from_bytes(&hostile).unwrap_err();
            assert!(err.to_string().contains("truncated"), "length {bad}: {err}");
        }
        // Bit flip in the payload.
        let mut flip = bytes.clone();
        let mid = 12 + (bytes.len() - 16) / 2;
        flip[mid] ^= 0x10;
        let err = TrafficProfile::from_bytes(&flip).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn short_fingerprint_blob_is_truncated() {
        let mut fp = Vec::new();
        sample_trace().fingerprint.write_to(&mut fp).unwrap();
        for len in 0..fp.len() {
            // A CRC-valid frame whose payload's fingerprint ends early.
            let mut payload = ByteWriter::new();
            payload.put_bytes(&fp[..len]);
            let mut out = ByteWriter::new();
            out.put_header(&PROFILE_MAGIC, PROFILE_VERSION);
            out.put_sealed(&payload.into_bytes());
            let err = TrafficProfile::from_bytes(&out.into_bytes()).unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "blob {len}: {err:?}");
            assert!(err.to_string().contains("truncated"), "blob {len}: {err}");
        }
    }

    #[test]
    fn same_seed_is_byte_deterministic() {
        let profile = TrafficProfile::fit(&sample_trace()).unwrap();
        let draw = |seed| {
            let mut s = SynthSource::new(&profile, seed).with_limit(2_000);
            std::iter::from_fn(|| s.generate()).collect::<Vec<_>>()
        };
        let (a, b) = (draw(7), draw(7));
        assert_eq!(a.len(), 2_000);
        assert_eq!(a, b, "same seed must reproduce the stream exactly");
        let c = draw(8);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn synthesized_stream_is_well_formed() {
        let profile = TrafficProfile::fit(&sample_trace()).unwrap();
        let mut s = SynthSource::new(&profile, 3).with_limit(5_000);
        let mut prev = 0u64;
        let mut kinds = [0u64; 3];
        let mut crits = 0u64;
        while let Some(rec) = s.generate() {
            assert!(
                rec.enqueue_cycle >= prev,
                "arrivals must be nondecreasing ({} after {prev})",
                rec.enqueue_cycle
            );
            assert!(rec.issued_at <= rec.enqueue_cycle);
            assert!((rec.core as usize) < profile.cores.len());
            prev = rec.enqueue_cycle;
            kinds[match rec.kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
                AccessKind::Prefetch => 2,
            }] += 1;
            crits += u64::from(rec.crit > 0);
        }
        assert_eq!(s.generated(), 5_000);
        // The fitted mix (70% reads, 30% writes+prefetch, 25%-ish
        // critical) must show up in the synthesized traffic.
        assert!(kinds[0] > kinds[1] && kinds[1] > kinds[2], "{kinds:?}");
        assert!(crits > 0, "criticality mix was dropped");
    }

    #[test]
    fn per_core_address_spans_are_disjoint() {
        let profile = TrafficProfile::fit(&sample_trace()).unwrap();
        let row_bytes = profile.fingerprint.row_bytes;
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut base = 0u64;
        for c in &profile.cores {
            spans.push((base, base + c.footprint_rows));
            base += c.footprint_rows;
        }
        let mut s = SynthSource::new(&profile, 11).with_limit(3_000);
        while let Some(rec) = s.generate() {
            let row = rec.addr / row_bytes;
            let (lo, hi) = spans[rec.core as usize];
            assert!(
                row >= lo && row < hi,
                "core {} row {row} outside its span [{lo}, {hi})",
                rec.core
            );
        }
    }
}
