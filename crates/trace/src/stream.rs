//! Bounded-memory streaming over CMTR files, and the [`RequestSource`]
//! seam that makes replay (`critmem::replay`) source-agnostic.
//!
//! [`crate::Trace::load`] materializes every record before replay
//! starts — 42 bytes per request, which caps study horizons at what
//! fits in RAM. [`TraceStream`] instead iterates the file
//! *chunk-at-a-time* over the format's per-256-record CRC-32 framing
//! (see [`crate::format`]): one reusable buffer holds the current
//! chunk (`[`CHUNK_BYTES`]` = 256 × 42 + 4 bytes), the whole chunk is
//! read ahead in a single I/O call and checksum-verified, and records
//! are decoded out of the buffer on demand. Peak resident memory is
//! one chunk regardless of trace length.
//!
//! Both the in-memory path ([`TraceSource`]) and the stream implement
//! [`RequestSource`], as does the profile-driven generator
//! ([`crate::SynthSource`]) — replay pulls records through the trait
//! and never sees the difference. Replay of the same CMTR file
//! through either source is byte-identical (capture emits records in
//! nondecreasing enqueue order, which the stream preserves and the
//! in-memory path's stable sort leaves untouched).
//!
//! # Examples
//!
//! ```no_run
//! use critmem_trace::{RequestSource, TraceStream};
//!
//! // Replay (`critmem::replay`) takes the stream as its source; here
//! // the records are drained by hand.
//! let mut stream = TraceStream::open(std::path::Path::new("big.cmtr")).unwrap();
//! let dram = stream.fingerprint().dram_config().unwrap();
//! while let Some(rec) = stream.next_record().unwrap() {
//!     assert!(u64::from(rec.core) < u64::from(stream.fingerprint().cores));
//! }
//! assert_eq!(dram.org.channels, stream.fingerprint().channels);
//! assert!(stream.peak_resident_bytes() <= critmem_trace::CHUNK_BYTES);
//! ```

use crate::format::{
    read_array, read_string, Fingerprint, Trace, TraceError, TraceRecord, CHUNK_RECORDS,
    COUNT_STREAMING, MAGIC, MIN_VERSION, RECORD_BYTES, VERSION,
};
use critmem_common::crc32::{self, Crc32};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// On-disk size of one full chunk: 256 records plus the trailing
/// CRC-32. The streaming reader's buffer never grows past this.
pub const CHUNK_BYTES: usize = CHUNK_RECORDS * RECORD_BYTES + 4;

/// A pull-based stream of trace records feeding a replay
/// (`critmem::replay`).
///
/// Records must arrive in nondecreasing `enqueue_cycle` order (the
/// order capture emits them); replay injects each record when the
/// replay clock reaches its cycle.
pub trait RequestSource {
    /// Topology fingerprint the records were captured on (or
    /// synthesized for); replay validates it against the DRAM system.
    fn fingerprint(&self) -> &Fingerprint;

    /// The next record, or `Ok(None)` once the source is exhausted.
    ///
    /// # Errors
    ///
    /// [`TraceError`] on a corrupt or truncated backing stream.
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError>;
}

/// The in-memory [`RequestSource`]: a fully loaded [`Trace`], stably
/// sorted by enqueue cycle (so hand-built traces behave like captured
/// ones).
#[derive(Debug, Clone)]
pub struct TraceSource {
    fingerprint: Fingerprint,
    records: Vec<TraceRecord>,
    idx: usize,
}

impl From<Trace> for TraceSource {
    fn from(trace: Trace) -> Self {
        let mut records = trace.records;
        // Capture emits records in nondecreasing enqueue order already;
        // sort stably so hand-built traces behave too.
        records.sort_by_key(|r| r.enqueue_cycle);
        TraceSource {
            fingerprint: trace.fingerprint,
            records,
            idx: 0,
        }
    }
}

impl RequestSource for TraceSource {
    fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        let rec = self.records.get(self.idx).copied();
        self.idx += rec.is_some() as usize;
        Ok(rec)
    }
}

/// Chunk-at-a-time CMTR reader with bounded resident memory.
///
/// Each refill reads one whole chunk (records + CRC) into a reusable
/// buffer with a single I/O call and verifies the checksum before any
/// record is handed out; a flipped bit therefore surfaces as
/// [`TraceError::Corrupt`] *before* replay sees the chunk, not
/// after. Torn tails are typed: a finished stream (header carries a
/// record count) that ends early is `Corrupt("stream truncated …")`;
/// an abandoned stream (no `finish`) reads every complete record and
/// reports a partial trailing record as `Corrupt("torn record …")`,
/// with only its final sub-chunk unverified (its CRC was never
/// written).
pub struct TraceStream<R: Read> {
    r: R,
    fingerprint: Fingerprint,
    source: String,
    /// Declared records left to read; `None` for abandoned streams.
    remaining: Option<u64>,
    /// The reusable chunk buffer (capacity never exceeds
    /// [`CHUNK_BYTES`]).
    buf: Vec<u8>,
    /// Records decoded-able from `buf` this refill.
    rec_in_buf: usize,
    /// Next record index within `buf`.
    next_rec: usize,
    done: bool,
    chunks_read: u64,
    records_read: u64,
    peak_resident: usize,
}

impl TraceStream<BufReader<File>> {
    /// Opens a CMTR file for streaming.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and header-format errors.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceStream<R> {
    /// Parses the header (magic, version, fingerprint, source label
    /// and record count), verifies its CRC (version 3), and prepares the
    /// chunk buffer.
    ///
    /// # Errors
    ///
    /// Fails on bad magic, unsupported version, a header checksum
    /// mismatch ([`TraceError::Corrupt`]), or I/O errors.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let mut h = HeaderReader {
            r: &mut r,
            crc: Crc32::new(),
        };
        if read_array(&mut h)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes(read_array(&mut h)?);
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let fingerprint = Fingerprint::read_from(&mut h)?;
        let source = read_string(&mut h)?;
        let count = u64::from_le_bytes(read_array(&mut h)?);
        let computed = h.crc.finish();
        if version >= 3 {
            let stored = u32::from_le_bytes(read_array(&mut r)?);
            if stored != computed {
                return Err(TraceError::Corrupt(format!(
                    "header checksum mismatch (stored {stored:#010X}, computed {computed:#010X})"
                )));
            }
        }
        Ok(TraceStream {
            r,
            fingerprint,
            source,
            remaining: (count != COUNT_STREAMING).then_some(count),
            buf: Vec::with_capacity(CHUNK_BYTES),
            rec_in_buf: 0,
            next_rec: 0,
            done: false,
            chunks_read: 0,
            records_read: 0,
            peak_resident: 0,
        })
    }

    /// The capturing system's fingerprint.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// The workload label recorded at capture time.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Declared record count still unread, if the stream was finished
    /// cleanly.
    pub fn declared_remaining(&self) -> Option<u64> {
        self.remaining
    }

    /// Chunks pulled off the backing reader so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks_read
    }

    /// Records handed out so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Largest number of trace bytes ever resident in the chunk
    /// buffer — at most [`CHUNK_BYTES`], by construction.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }

    /// Reads the next chunk into the reusable buffer and verifies its
    /// CRC. Returns `false` when the stream is exhausted.
    fn refill(&mut self) -> Result<bool, TraceError> {
        let want_records = match self.remaining {
            _ if self.done => return Ok(false),
            Some(0) => return Ok(false),
            Some(n) => n.min(CHUNK_RECORDS as u64) as usize,
            None => CHUNK_RECORDS,
        };
        let body = want_records * RECORD_BYTES;
        self.buf.clear();
        let got = (&mut self.r)
            .take(body as u64 + 4)
            .read_to_end(&mut self.buf)?;
        self.peak_resident = self.peak_resident.max(got);
        if got == body + 4 {
            let computed = crc32::checksum(&self.buf[..body]);
            let stored = u32::from_le_bytes(self.buf[body..].try_into().expect("4 CRC bytes"));
            if stored != computed {
                return Err(TraceError::Corrupt(format!(
                    "chunk checksum mismatch (stored {stored:#010X}, computed {computed:#010X})"
                )));
            }
            if let Some(n) = self.remaining.as_mut() {
                *n -= want_records as u64;
            }
            self.rec_in_buf = want_records;
        } else if self.remaining.is_some() {
            // Finished stream: the header promised these bytes.
            let part = if got >= body { " checksum" } else { "" };
            return Err(TraceError::Corrupt(format!(
                "stream truncated mid-chunk{part} ({got} of {} bytes)",
                body + 4
            )));
        } else {
            // Abandoned stream: EOF lands wherever the capture died. Torn
            // before (or inside) the chunk CRC, every complete record is
            // usable, just unverified.
            self.done = true;
            if got < body && got % RECORD_BYTES != 0 {
                return Err(TraceError::Corrupt(format!(
                    "torn record at end of unfinished stream ({} trailing bytes)",
                    got % RECORD_BYTES
                )));
            }
            if got == 0 {
                return Ok(false);
            }
            self.rec_in_buf = got.min(body) / RECORD_BYTES;
        }
        self.next_rec = 0;
        self.chunks_read += 1;
        Ok(true)
    }

    /// Decodes the next record out of the chunk buffer, refilling when
    /// the buffer is spent; `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] on a truncated finished stream, a
    /// chunk-checksum mismatch, or a torn trailing record; I/O errors
    /// otherwise.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if self.next_rec == self.rec_in_buf && !self.refill()? {
            return Ok(None);
        }
        let off = self.next_rec * RECORD_BYTES;
        let bytes = self.buf[off..off + RECORD_BYTES].try_into();
        let rec = TraceRecord::decode(bytes.expect("the buffer holds whole records"))?;
        self.next_rec += 1;
        self.records_read += 1;
        Ok(Some(rec))
    }
}

/// Reads the header through to its reader, folding every byte into the
/// header CRC.
struct HeaderReader<'a, R: Read> {
    r: &'a mut R,
    crc: Crc32,
}

impl<R: Read> Read for HeaderReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.r.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

impl<R: Read> RequestSource for TraceStream<R> {
    fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        TraceStream::next_record(self)
    }
}

impl<R: Read> std::fmt::Debug for TraceStream<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStream")
            .field("source", &self.source)
            .field("records_read", &self.records_read)
            .field("chunks_read", &self.chunks_read)
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceWriter;
    use critmem_common::AccessKind;
    use critmem_dram::DramConfig;
    use std::io::Cursor;

    fn fingerprint() -> Fingerprint {
        Fingerprint::of(8, 4_270, &DramConfig::paper_baseline())
    }

    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                enqueue_cycle: i * 3,
                issued_at: i * 3,
                id: i,
                addr: i * 64,
                crit: i % 7,
                core: (i % 8) as u8,
                kind: if i % 5 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            })
            .collect()
    }

    fn finished_bytes(recs: &[TraceRecord]) -> Vec<u8> {
        Trace {
            fingerprint: fingerprint(),
            source: "t".into(),
            records: recs.to_vec(),
        }
        .to_bytes()
        .unwrap()
    }

    fn abandoned_bytes(recs: &[TraceRecord]) -> Vec<u8> {
        let mut tw = TraceWriter::new(Cursor::new(Vec::new()), &fingerprint(), "t").unwrap();
        for r in recs {
            tw.append(r).unwrap();
        }
        // No finish(): the count stays at the streaming placeholder.
        tw.w.into_inner()
    }

    /// Every record, through the stream [`Trace::read_from`] drains.
    fn drain(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
        Trace::read_from(bytes).map(|trace| trace.records)
    }

    #[test]
    fn stream_matches_bulk_reader_across_chunk_boundaries() {
        for n in [0u64, 1, 255, 256, 257, 600, 2 * 256 + 37] {
            let recs = records(n);
            let bytes = finished_bytes(&recs);
            let streamed = drain(&bytes).unwrap();
            assert_eq!(streamed, recs, "count {n}");
        }
    }

    #[test]
    fn resident_memory_is_one_chunk() {
        let recs = records(5 * 256 + 19);
        let bytes = finished_bytes(&recs);
        let mut s = TraceStream::new(Cursor::new(&bytes)).unwrap();
        while s.next_record().unwrap().is_some() {}
        assert_eq!(s.records_read(), recs.len() as u64);
        assert_eq!(s.chunks_read(), 6);
        assert!(s.peak_resident_bytes() <= CHUNK_BYTES);
        assert!(s.buf.capacity() <= CHUNK_BYTES);
    }

    #[test]
    fn truncated_finished_stream_is_corrupt() {
        let bytes = finished_bytes(&records(100));
        for cut in [5usize, 43, 4] {
            let err = drain(&bytes[..bytes.len() - cut]).unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "cut {cut}: {err:?}");
            assert!(err.to_string().contains("truncated"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn bit_flip_is_caught_before_any_record_escapes() {
        let bytes = finished_bytes(&records(300));
        // Flip a bit in the first chunk's records.
        let mut corrupt = bytes.clone();
        let flip_at = bytes.len() - (300 * RECORD_BYTES + 2 * 4) + 10;
        corrupt[flip_at] ^= 0x40;
        let mut s = TraceStream::new(Cursor::new(&corrupt)).unwrap();
        // The very first pull fails: the chunk is verified on refill,
        // before any of its records is handed out.
        let err = s.next_record().unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(s.records_read(), 0);
    }

    #[test]
    fn abandoned_stream_reads_complete_records() {
        // Mid-chunk abandonment: all records readable, unverified.
        let recs = records(300);
        let bytes = abandoned_bytes(&recs);
        assert_eq!(drain(&bytes).unwrap(), recs);
        // Abandonment exactly at a chunk boundary (CRC present).
        let recs = records(256);
        assert_eq!(drain(&abandoned_bytes(&recs)).unwrap(), recs);
    }

    #[test]
    fn torn_tail_of_abandoned_stream_is_typed() {
        let recs = records(10);
        let mut bytes = abandoned_bytes(&recs);
        // Tear the last record in half.
        bytes.truncate(bytes.len() - RECORD_BYTES / 2);
        let err = drain(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("torn record"), "{err}");
    }

    #[test]
    fn header_errors_are_preserved() {
        assert!(matches!(
            TraceStream::new(Cursor::new(b"NOPE....".to_vec())).unwrap_err(),
            TraceError::BadMagic
        ));
        let mut bytes = finished_bytes(&records(4));
        bytes[4] = 0xFF;
        assert!(matches!(
            TraceStream::new(Cursor::new(&bytes)).unwrap_err(),
            TraceError::UnsupportedVersion(v) if v != VERSION
        ));
    }

    #[test]
    fn trace_source_sorts_and_counts_down() {
        let mut recs = records(5);
        recs.swap(0, 4);
        let mut src = TraceSource::from(Trace {
            fingerprint: fingerprint(),
            source: "t".into(),
            records: recs,
        });
        let first = src.next_record().unwrap().unwrap();
        assert_eq!(first.enqueue_cycle, 0, "must be stably sorted");
        while src.next_record().unwrap().is_some() {}
        assert!(src.next_record().unwrap().is_none());
    }
}
