//! Checkpoint & warm-start engine: full architectural-state snapshots
//! of a running [`System`], framed as `CMCK` binary artifacts.
//!
//! A sweep over schedulers and predictor metrics re-simulates the same
//! warmup region once per cell — byte-identical work, because warmup
//! runs under the shared baseline configuration. A [`Checkpoint`]
//! captures the complete mutable state of the platform at a chosen
//! cycle (ROB/LQ/SQ and rename bookkeeping, predictor tables, cache
//! arrays and MSHRs, DRAM bank/row/queue state, RNGs, and the clock
//! divider), so every cell restores from the shared snapshot and pays
//! the warmup cost once.
//!
//! Component state that a cell replaces at the boundary — the memory
//! scheduler and the criticality predictor — is framed inside the
//! snapshot as length-prefixed blocks. A restore whose configuration
//! names the same component replays the block; a restore that swaps
//! components discards it and keeps the fresh instance, which is
//! byte-identical to driving the original system to the boundary and
//! calling [`System::reconfigure`] (the property `tests/checkpoint.rs`
//! enforces).
//!
//! # On-disk format (`CMCK`, DESIGN.md §6g)
//!
//! ```text
//! b"CMCK" | u32 version | u32 payload_len | payload | u32 crc32(payload)
//! payload = u32 fingerprint | u64 cycle | str scheduler | str predictor
//!         | bytes state
//! ```
//!
//! The header and the CRC frame are the sealed frame of
//! [`critmem_common::codec`], shared with `CMPF` profiles and every
//! `CMJR` journal record: magic and version mismatches, truncation and
//! CRC failures come back as typed [`SimError::Artifact`] values, never
//! panics. The fingerprint is the CRC-32 of the platform part of the
//! [`CellId`](crate::experiments::CellId): the workload, the model
//! version and every `SystemConfig` field except scheduler, predictor,
//! instruction target, cycle budget, sampling and watchdog (the knobs a
//! warm-started cell varies), so a checkpoint only restores onto the
//! platform that produced it, including any field added later.

use crate::config::AgentMix;
use crate::system::System;
use critmem_common::codec::{ByteReader, ByteWriter};
use critmem_common::{RequestObserver, SimError};
use std::sync::Arc;

/// Artifact magic: "CritMem ChecKpoint".
const MAGIC: &[u8; 4] = b"CMCK";
/// Current format version. Version 2 extended the per-rank bank-state
/// block with the tFAW rolling-window ring; version-1 checkpoints would
/// misdecode it and are rejected up front.
const VERSION: u32 = 2;

/// A full architectural-state snapshot of a [`System`] at one cycle.
///
/// The state bytes live behind an [`Arc`], so fanning one warmup
/// checkpoint out across parallel sweep workers clones a pointer, not
/// the (potentially large) snapshot.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    fingerprint: u32,
    cycle: u64,
    scheduler: String,
    predictor: String,
    state: Arc<Vec<u8>>,
}

impl Checkpoint {
    /// Snapshots a running system.
    pub(crate) fn capture<O: RequestObserver>(sys: &System<O>, workload: &AgentMix) -> Checkpoint {
        let mut w = ByteWriter::new();
        sys.save_state(&mut w);
        Checkpoint {
            fingerprint: sys.config().platform_fingerprint(workload),
            cycle: sys.now(),
            scheduler: format!("{:?}", sys.config().scheduler),
            predictor: format!("{:?}", sys.config().predictor),
            state: Arc::new(w.into_bytes()),
        }
    }

    /// Overlays this snapshot onto a freshly built system. Saved
    /// scheduler/predictor state is replayed only when the target
    /// configuration names the same component; otherwise the fresh
    /// instance is kept (the warm-start component swap).
    ///
    /// # Errors
    ///
    /// [`SimError::Artifact`] when the target platform's fingerprint
    /// differs from the one that produced the snapshot, or the state
    /// bytes fail to decode.
    pub(crate) fn restore_into<O: RequestObserver>(
        &self,
        sys: &mut System<O>,
        workload: &AgentMix,
    ) -> Result<(), SimError> {
        let expect = sys.config().platform_fingerprint(workload);
        if expect != self.fingerprint {
            return Err(SimError::Artifact(format!(
                "checkpoint fingerprint {:08x} does not match the target platform {expect:08x} \
                 (all but scheduler, predictor, instructions, budget, sampling, watchdog must match)",
                self.fingerprint
            )));
        }
        let load_predictors = format!("{:?}", sys.config().predictor) == self.predictor;
        let load_schedulers = format!("{:?}", sys.config().scheduler) == self.scheduler;
        let mut r = ByteReader::new(&self.state);
        sys.load_state(&mut r, load_predictors, load_schedulers)?;
        Ok(())
    }

    /// CPU cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Size of the raw state payload in bytes.
    pub fn state_len(&self) -> usize {
        self.state.len()
    }

    /// Serializes to the `CMCK` wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        payload.put_u32(self.fingerprint);
        payload.put_u64(self.cycle);
        payload.put_str(&self.scheduler);
        payload.put_str(&self.predictor);
        payload.put_bytes(&self.state);
        let mut out = ByteWriter::new();
        out.put_header(MAGIC, VERSION);
        out.put_sealed(&payload.into_bytes());
        out.into_bytes()
    }

    /// Parses the `CMCK` wire format.
    ///
    /// # Errors
    ///
    /// [`SimError::Artifact`] on a wrong magic, unsupported version,
    /// truncation, or CRC mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, SimError> {
        let mut frame = ByteReader::new(bytes);
        frame.check_header("checkpoint", MAGIC, VERSION)?;
        let mut r = ByteReader::new(frame.get_sealed("checkpoint")?);
        Ok(Checkpoint {
            fingerprint: r.get_u32()?,
            cycle: r.get_u64()?,
            scheduler: r.get_str()?,
            predictor: r.get_str()?,
            state: Arc::new(r.get_bytes()?),
        })
    }

    /// Writes the checkpoint to a file.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] with the path on any filesystem failure.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SimError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| SimError::from(e).with_path(path))
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] on filesystem failures, [`SimError::Artifact`]
    /// on a corrupt or truncated file.
    pub fn load(path: &std::path::Path) -> Result<Checkpoint, SimError> {
        let bytes = std::fs::read(path).map_err(|e| SimError::from(e).with_path(path))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Checkpoint {
        /// A small hand-built snapshot.
        pub(crate) fn sample() -> Checkpoint {
            Checkpoint {
                fingerprint: 0xDEAD_BEEF,
                cycle: 12_345,
                scheduler: "FrFcfs".into(),
                predictor: "None".into(),
                state: Arc::new(vec![1, 2, 3, 4, 5]),
            }
        }
    }

    #[test]
    fn wire_round_trip() {
        let c = Checkpoint::sample();
        let d = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(d.fingerprint, c.fingerprint);
        assert_eq!(d.cycle(), 12_345);
        assert_eq!(d.scheduler, c.scheduler);
        assert_eq!(*d.state, *c.state);
    }

    #[test]
    fn rejects_bad_magic_version_crc_and_truncation() {
        let bytes = Checkpoint::sample().to_bytes();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(SimError::Artifact(_))
        ));

        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(SimError::Artifact(_))
        ));

        let mut bad = bytes.clone();
        let flip = bytes.len() - 10; // inside the payload
        bad[flip] ^= 0xFF;
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(SimError::Artifact(_))
        ));

        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Checkpoint::from_bytes(&bytes[..cut]),
                    Err(SimError::Artifact(_))
                ),
                "cut at {cut} must be a typed error"
            );
        }

        let len = bytes.len() as u32 - 16;
        for bad in [u32::MAX, len + 1] {
            let mut hostile = bytes.clone();
            hostile[8..12].copy_from_slice(&bad.to_le_bytes());
            match Checkpoint::from_bytes(&hostile) {
                Err(SimError::Artifact(msg)) => assert!(msg.contains("truncated"), "{msg}"),
                other => panic!("length {bad}: expected Artifact error, got {other:?}"),
            }
        }
    }

    #[test]
    fn fingerprint_tracks_platform_not_cell_knobs() {
        let cfg = crate::SystemConfig::paper_baseline(1_000);
        let wl = AgentMix::Parallel("swim");
        let base = cfg.platform_fingerprint(&wl);

        // Cell knobs (scheduler, predictor, target, sampling) do not
        // change the fingerprint...
        let cell = cfg
            .clone()
            .with_scheduler(critmem_sched::SchedulerKind::CasRasCrit)
            .with_predictor(crate::config::PredictorKind::cbp64(
                critmem_predict::CbpMetric::MaxStallTime,
            ))
            .with_sampling(1_000);
        assert_eq!(cell.platform_fingerprint(&wl), base);

        // ...but the platform and workload do.
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(other.platform_fingerprint(&wl), base);
        assert_ne!(cfg.platform_fingerprint(&AgentMix::Parallel("mg")), base);
    }
}
