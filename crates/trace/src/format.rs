//! The on-disk trace format: a compact, versioned, self-describing
//! binary encoding of LLC-miss memory requests.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header:
//!   magic            4  b"CMTR"
//!   version          2  format version (currently 1)
//!   -- capture fingerprint --
//!   cores            2
//!   cpu_mhz          8
//!   bus_mhz          8
//!   channels         1
//!   ranks_per_chan   1
//!   banks_per_rank   1
//!   interleaving     1  0 = page, 1 = cache-line
//!   row_bytes        8
//!   line_bytes       8
//!   preset_name      2 + n  length-prefixed UTF-8
//!   -- provenance --
//!   source           2 + n  length-prefixed UTF-8 (workload label)
//!   record_count     8  u64::MAX while streaming; patched on finish
//! record (42 bytes, repeated record_count times):
//!   enqueue_cycle    8  CPU cycle of successful DRAM enqueue
//!   issued_at        8  CPU cycle the miss left the L2 (MSHR allocation)
//!   id               8  request id
//!   addr             8  physical line address
//!   crit             8  criticality magnitude (0 = non-critical)
//!   core             1
//!   kind             1  0 = read, 1 = write, 2 = prefetch
//! chunk checksum (version 2):
//!   crc32            4  after every 256 records, and after the final
//!                       partial chunk when the stream is finished
//! ```
//!
//! The fingerprint pins the *topology* of the capturing system — core
//! count, clock ratio, DRAM organization, device preset, and address
//! interleaving — everything that determines where and when requests
//! arrive. It deliberately excludes the scheduler and queue capacity,
//! which are exactly the knobs a replay-based scheduler study varies.
//!
//! Version 2 interleaves a CRC-32 over the raw bytes of every
//! 256-record chunk, so a flipped bit in a stored trace surfaces as
//! [`TraceError::Corrupt`] instead of silently skewing a scheduler
//! study. Truncation of a *finished* stream (declared count not
//! reached) is likewise reported as `Corrupt`; a stream abandoned
//! without [`TraceWriter::finish`] still reads to EOF, with only its
//! final partial chunk unverified, and a torn last record is `Corrupt`
//! too. [`TraceWriter`] is the one writer of this layout and
//! [`TraceStream`] its one reader; [`Trace::read_from`] drains a stream.

use crate::stream::TraceStream;
use critmem_common::crc32::Crc32;
use critmem_common::{AccessKind, CoreId, CpuCycle, Criticality, MemRequest, PhysAddr, ReqId};
use critmem_dram::{DramConfig, Interleaving};
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// Format magic: "CritMem TRace".
pub const MAGIC: [u8; 4] = *b"CMTR";
/// Current format version.
pub const VERSION: u16 = 2;
/// `record_count` placeholder while a stream is still being written.
pub(crate) const COUNT_STREAMING: u64 = u64::MAX;
/// Encoded size of one record in bytes.
pub const RECORD_BYTES: usize = 42;
/// Records covered by each interleaved CRC-32 (version 2).
pub const CHUNK_RECORDS: usize = 256;

/// Errors raised by the trace reader/writer.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// The stream's format version is not supported.
    UnsupportedVersion(u16),
    /// Structurally invalid data (truncated record, bad enum tag, ...).
    Corrupt(String),
    /// The trace was captured on a different topology; the message
    /// lists the mismatched fields.
    FingerprintMismatch(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => f.write_str("not a critmem trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (reader supports {VERSION})"
                )
            }
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            TraceError::FingerprintMismatch(msg) => {
                write!(f, "trace/system fingerprint mismatch: {msg}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Topology fingerprint of the capturing system.
///
/// Replay rejects traces whose fingerprint does not match the replaying
/// DRAM system (see [`Fingerprint::check_compatible`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Core count of the capturing system.
    pub cores: u16,
    /// CPU clock in MHz (fixes the CPU:DRAM clock ratio).
    pub cpu_mhz: u64,
    /// DRAM bus clock in MHz.
    pub bus_mhz: u64,
    /// Channel count.
    pub channels: u8,
    /// Ranks per channel.
    pub ranks_per_channel: u8,
    /// Banks per rank.
    pub banks_per_rank: u8,
    /// Address interleaving policy.
    pub interleaving: Interleaving,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Device preset name (e.g. "DDR3-2133").
    pub preset: String,
}

impl Fingerprint {
    /// Fingerprint of a system with `cores` cores at `cpu_mhz` over the
    /// given DRAM configuration.
    pub fn of(cores: usize, cpu_mhz: u64, dram: &DramConfig) -> Self {
        Fingerprint {
            cores: cores as u16,
            cpu_mhz,
            bus_mhz: dram.preset.bus_mhz,
            channels: dram.org.channels,
            ranks_per_channel: dram.org.ranks_per_channel,
            banks_per_rank: dram.org.banks_per_rank,
            interleaving: dram.interleaving,
            row_bytes: dram.org.row_bytes,
            line_bytes: dram.org.line_bytes,
            preset: dram.preset.name.to_string(),
        }
    }

    /// Checks that `other` describes the same topology.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::FingerprintMismatch`] naming every field
    /// that differs.
    pub fn check_compatible(&self, other: &Fingerprint) -> Result<(), TraceError> {
        let mut diffs = Vec::new();
        macro_rules! chk {
            ($field:ident) => {
                if self.$field != other.$field {
                    diffs.push(format!(
                        "{}: trace {:?} vs system {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        chk!(cores);
        chk!(cpu_mhz);
        chk!(bus_mhz);
        chk!(channels);
        chk!(ranks_per_channel);
        chk!(banks_per_rank);
        chk!(interleaving);
        chk!(row_bytes);
        chk!(line_bytes);
        chk!(preset);
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(TraceError::FingerprintMismatch(diffs.join("; ")))
        }
    }

    pub(crate) fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.cores.to_le_bytes())?;
        w.write_all(&self.cpu_mhz.to_le_bytes())?;
        w.write_all(&self.bus_mhz.to_le_bytes())?;
        w.write_all(&[
            self.channels,
            self.ranks_per_channel,
            self.banks_per_rank,
            interleaving_tag(self.interleaving),
        ])?;
        w.write_all(&self.row_bytes.to_le_bytes())?;
        w.write_all(&self.line_bytes.to_le_bytes())?;
        write_string(w, &self.preset)
    }

    pub(crate) fn read_from<R: Read>(r: &mut R) -> Result<Self, TraceError> {
        let cores = u16::from_le_bytes(read_array(r)?);
        let cpu_mhz = u64::from_le_bytes(read_array(r)?);
        let bus_mhz = u64::from_le_bytes(read_array(r)?);
        let [channels, ranks_per_channel, banks_per_rank, inter]: [u8; 4] = read_array(r)?;
        let interleaving = interleaving_from_tag(inter)?;
        let row_bytes = u64::from_le_bytes(read_array(r)?);
        let line_bytes = u64::from_le_bytes(read_array(r)?);
        let preset = read_string(r)?;
        Ok(Fingerprint {
            cores,
            cpu_mhz,
            bus_mhz,
            channels,
            ranks_per_channel,
            banks_per_rank,
            interleaving,
            row_bytes,
            line_bytes,
            preset,
        })
    }
}

fn interleaving_tag(i: Interleaving) -> u8 {
    match i {
        Interleaving::Page => 0,
        Interleaving::CacheLine => 1,
    }
}

fn interleaving_from_tag(t: u8) -> Result<Interleaving, TraceError> {
    match t {
        0 => Ok(Interleaving::Page),
        1 => Ok(Interleaving::CacheLine),
        n => Err(TraceError::Corrupt(format!("unknown interleaving tag {n}"))),
    }
}

fn write_string<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len()).expect("trace strings are short");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(s.as_bytes())
}

pub(crate) fn read_string<R: Read>(r: &mut R) -> Result<String, TraceError> {
    let len = u16::from_le_bytes(read_array(r)?) as usize;
    let mut buf = vec![0u8; len];
    read_exact(r, &mut buf)?;
    String::from_utf8(buf).map_err(|_| TraceError::Corrupt("non-UTF-8 string".into()))
}

pub(crate) fn read_array<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    read_exact(r, &mut buf)?;
    Ok(buf)
}

/// Reads one header field: bytes that end inside it are a truncated
/// artifact, not an I/O failure.
fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => TraceError::Corrupt("truncated header".into()),
        _ => TraceError::Io(e),
    })
}

/// One captured LLC-miss request.
///
/// `enqueue_cycle - issued_at` is the time the miss spent in the MSHRs
/// and the hierarchy's outbox before a transaction-queue slot was free —
/// the processor-side queuing (and MSHR-merge) delay, preserved so
/// closed-loop replay throttles can be calibrated against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// CPU cycle at which the request was accepted into its channel's
    /// transaction queue.
    pub enqueue_cycle: CpuCycle,
    /// CPU cycle at which the miss left the L2 (MSHR allocation).
    pub issued_at: CpuCycle,
    /// Request id (unique within the capturing run).
    pub id: ReqId,
    /// Physical line address.
    pub addr: PhysAddr,
    /// Criticality magnitude at enqueue (0 = non-critical).
    pub crit: u64,
    /// Originating core.
    pub core: u8,
    /// Access kind.
    pub kind: AccessKind,
}

impl TraceRecord {
    /// Captures `req` as accepted at CPU cycle `now`.
    pub fn capture(now: CpuCycle, req: &MemRequest) -> Self {
        TraceRecord {
            enqueue_cycle: now,
            issued_at: req.issued_at,
            id: req.id,
            addr: req.addr,
            crit: req.crit.magnitude(),
            core: req.core.0,
            kind: req.kind,
        }
    }

    /// Reconstructs the request for injection into a DRAM system.
    pub fn to_request(self) -> MemRequest {
        MemRequest::new(self.id, self.addr, self.kind, CoreId(self.core))
            .with_criticality(Criticality::ranked(self.crit))
            .with_issue_cycle(self.issued_at)
    }

    fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut buf = [0u8; RECORD_BYTES];
        buf[0..8].copy_from_slice(&self.enqueue_cycle.to_le_bytes());
        buf[8..16].copy_from_slice(&self.issued_at.to_le_bytes());
        buf[16..24].copy_from_slice(&self.id.to_le_bytes());
        buf[24..32].copy_from_slice(&self.addr.to_le_bytes());
        buf[32..40].copy_from_slice(&self.crit.to_le_bytes());
        buf[40] = self.core;
        buf[41] = match self.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Prefetch => 2,
        };
        buf
    }

    pub(crate) fn decode(buf: &[u8; RECORD_BYTES]) -> Result<Self, TraceError> {
        let word = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().unwrap());
        let kind = match buf[41] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            2 => AccessKind::Prefetch,
            n => return Err(TraceError::Corrupt(format!("unknown access kind tag {n}"))),
        };
        Ok(TraceRecord {
            enqueue_cycle: word(0),
            issued_at: word(8),
            id: word(16),
            addr: word(24),
            crit: word(32),
            core: buf[40],
            kind,
        })
    }
}

/// Streaming trace writer.
///
/// Writes the header immediately with a placeholder record count, then
/// records one at a time; [`TraceWriter::finish`] seeks back and patches
/// the count. A stream abandoned without `finish` is still readable —
/// the reader treats the placeholder as "read until EOF".
pub struct TraceWriter<W: Write + Seek> {
    pub(crate) w: W,
    count: u64,
    count_offset: u64,
    chunk_crc: Crc32,
    in_chunk: usize,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Writes the header and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn new(mut w: W, fingerprint: &Fingerprint, source: &str) -> Result<Self, TraceError> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        fingerprint.write_to(&mut w)?;
        write_string(&mut w, source)?;
        let count_offset = w.stream_position()?;
        w.write_all(&COUNT_STREAMING.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            count: 0,
            count_offset,
            chunk_crc: Crc32::new(),
            in_chunk: 0,
        })
    }

    /// Appends one record, emitting the chunk CRC when the 256th record
    /// of a chunk lands.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        let buf = rec.encode();
        self.w.write_all(&buf)?;
        self.chunk_crc.update(&buf);
        self.count += 1;
        self.in_chunk += 1;
        if self.in_chunk == CHUNK_RECORDS {
            self.flush_chunk_crc()?;
        }
        Ok(())
    }

    fn flush_chunk_crc(&mut self) -> Result<(), TraceError> {
        self.w.write_all(&self.chunk_crc.finish().to_le_bytes())?;
        self.chunk_crc = Crc32::new();
        self.in_chunk = 0;
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Seals the final partial chunk's CRC, patches the record count
    /// into the header, and returns the inner writer (positioned at end
    /// of stream).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if self.in_chunk > 0 {
            self.flush_chunk_crc()?;
        }
        self.w.seek(SeekFrom::Start(self.count_offset))?;
        self.w.write_all(&self.count.to_le_bytes())?;
        self.w.seek(SeekFrom::End(0))?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// A fully materialized trace: fingerprint + provenance + records.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Topology of the capturing system.
    pub fingerprint: Fingerprint,
    /// Workload label (e.g. the app name).
    pub source: String,
    /// Captured requests, in enqueue order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Serializes the trace.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to<W: Write + Seek>(&self, w: W) -> Result<W, TraceError> {
        let mut tw = TraceWriter::new(w, &self.fingerprint, &self.source)?;
        for rec in &self.records {
            tw.append(rec)?;
        }
        tw.finish()
    }

    /// Deserializes a trace by draining a [`TraceStream`], so each
    /// chunk's CRC is checked before any of its records is kept.
    ///
    /// # Errors
    ///
    /// Fails on malformed streams, as [`TraceStream::next_record`] does.
    pub fn read_from<R: Read>(r: R) -> Result<Self, TraceError> {
        let mut stream = TraceStream::new(r)?;
        let mut records = Vec::new();
        while let Some(rec) = stream.next_record()? {
            records.push(rec);
        }
        Ok(Trace {
            fingerprint: stream.fingerprint().clone(),
            source: stream.source().to_owned(),
            records,
        })
    }

    /// Serializes to an in-memory byte buffer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (none in practice for `Vec` targets).
    pub fn to_bytes(&self) -> Result<Vec<u8>, TraceError> {
        Ok(self.write_to(io::Cursor::new(Vec::new()))?.into_inner())
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &std::path::Path) -> Result<(), TraceError> {
        let f = std::fs::File::create(path)?;
        self.write_to(io::BufWriter::new(f))?;
        Ok(())
    }

    /// Reads a trace from a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and format errors.
    pub fn load(path: &std::path::Path) -> Result<Self, TraceError> {
        let f = std::fs::File::open(path)?;
        Self::read_from(io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_fingerprint() -> Fingerprint {
        Fingerprint::of(8, 4_270, &DramConfig::paper_baseline())
    }

    fn sample_records() -> Vec<TraceRecord> {
        (0..100u64)
            .map(|i| TraceRecord {
                enqueue_cycle: i * 7,
                issued_at: i * 7 - (i % 5),
                id: i,
                addr: i * 64,
                crit: if i % 3 == 0 { i * 11 } else { 0 },
                core: (i % 8) as u8,
                kind: match i % 3 {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::Prefetch,
                },
            })
            .collect()
    }

    fn sample_trace(source: &str) -> Trace {
        Trace {
            fingerprint: sample_fingerprint(),
            source: source.into(),
            records: sample_records(),
        }
    }

    /// The first `n` sample records written without `finish`.
    fn abandoned_bytes(n: usize) -> Vec<u8> {
        let mut tw =
            TraceWriter::new(Cursor::new(Vec::new()), &sample_fingerprint(), "art").unwrap();
        for r in &sample_records()[..n] {
            tw.append(r).unwrap();
        }
        tw.w.into_inner()
    }

    #[test]
    fn in_memory_round_trip_is_lossless() {
        let trace = sample_trace("swim");
        let bytes = trace.to_bytes().unwrap();
        let back = Trace::read_from(Cursor::new(&bytes)).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn encoding_is_compact() {
        let trace = sample_trace("swim");
        let bytes = trace.to_bytes().unwrap();
        // Fixed 42 B per record plus a small header.
        assert!(bytes.len() < 100 * RECORD_BYTES + 128);
    }

    #[test]
    fn streaming_reader_matches_bulk_reader() {
        let trace = sample_trace("mg");
        let bytes = trace.to_bytes().unwrap();
        let mut tr = TraceStream::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(tr.declared_remaining(), Some(100));
        assert_eq!(tr.source(), "mg");
        let mut streamed = Vec::new();
        while let Some(rec) = tr.next_record().unwrap() {
            streamed.push(rec);
        }
        assert_eq!(streamed, trace.records);
    }

    #[test]
    fn unfinished_stream_reads_to_eof() {
        let recs = sample_records();
        // Abandon without finish(): count stays at the placeholder.
        let bytes = abandoned_bytes(7);
        let mut tr = TraceStream::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(tr.declared_remaining(), None);
        let mut streamed = Vec::new();
        while let Some(rec) = tr.next_record().unwrap() {
            streamed.push(rec);
        }
        assert_eq!(streamed, recs[..7].to_vec());
        assert_eq!(
            Trace::read_from(Cursor::new(&bytes)).unwrap().records,
            streamed
        );
    }

    #[test]
    fn torn_last_record_of_abandoned_trace_is_corrupt() {
        let mut bytes = abandoned_bytes(7);
        bytes.truncate(bytes.len() - RECORD_BYTES / 2);
        let err = Trace::read_from(Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("torn record"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Trace::read_from(Cursor::new(b"NOPE....".to_vec())).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic));
    }

    #[test]
    fn every_cut_inside_the_header_is_truncated() {
        // A finished trace with no records is exactly its header.
        let header = Trace {
            fingerprint: sample_fingerprint(),
            source: "swim".into(),
            records: vec![],
        }
        .to_bytes()
        .unwrap();
        assert!(Trace::read_from(Cursor::new(&header)).is_ok());
        for cut in 0..header.len() {
            let head = &header[..cut];
            let streamed = TraceStream::new(Cursor::new(head)).err();
            let read = Trace::read_from(Cursor::new(head)).err();
            for err in [streamed, read] {
                let err = err.unwrap_or_else(|| panic!("cut {cut}: header accepted"));
                assert!(matches!(err, TraceError::Corrupt(_)), "cut {cut}: {err:?}");
                assert!(err.to_string().contains("truncated"), "cut {cut}: {err}");
            }
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let trace = Trace {
            fingerprint: sample_fingerprint(),
            source: "x".into(),
            records: vec![],
        };
        let mut bytes = trace.to_bytes().unwrap();
        bytes[4] = 0xFF; // bump version field
        let err = Trace::read_from(Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion(_)));
    }

    #[test]
    fn truncated_record_is_corrupt() {
        let trace = sample_trace("x");
        let bytes = trace.to_bytes().unwrap();
        let err = Trace::read_from(Cursor::new(&bytes[..bytes.len() - 5])).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn truncated_chunk_checksum_is_corrupt() {
        let trace = sample_trace("x");
        let bytes = trace.to_bytes().unwrap();
        // Chop into the trailing 4-byte chunk CRC itself.
        let err = Trace::read_from(Cursor::new(&bytes[..bytes.len() - 2])).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("chunk checksum"), "{err}");
    }

    #[test]
    fn bit_flip_in_a_record_is_detected() {
        let trace = sample_trace("x");
        let clean = trace.to_bytes().unwrap();
        // Flip one bit in every record byte position of the last record
        // (covers both payload bytes and the enum-tag byte).
        let rec_start = clean.len() - 4 - RECORD_BYTES;
        for offset in rec_start..rec_start + RECORD_BYTES {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x04;
            let err = Trace::read_from(Cursor::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, TraceError::Corrupt(_)),
                "offset {offset}: {err:?}"
            );
        }
    }

    #[test]
    fn multi_chunk_traces_round_trip_and_verify() {
        let records: Vec<TraceRecord> = (0..(2 * CHUNK_RECORDS as u64 + 37))
            .map(|i| TraceRecord {
                enqueue_cycle: i,
                issued_at: i,
                id: i,
                addr: i * 64,
                crit: i % 9,
                core: (i % 8) as u8,
                kind: AccessKind::Read,
            })
            .collect();
        let trace = Trace {
            fingerprint: sample_fingerprint(),
            source: "big".into(),
            records,
        };
        let bytes = trace.to_bytes().unwrap();
        // Three CRCs: two full chunks + the partial tail.
        let expected = trace.records.len() * RECORD_BYTES + 3 * 4;
        assert!(bytes.len() > expected && bytes.len() < expected + 128);
        let back = Trace::read_from(Cursor::new(&bytes)).unwrap();
        assert_eq!(back, trace);
        // A flip inside the *first* chunk is caught at that chunk's
        // boundary, long before the end of the stream.
        let mut corrupt = bytes.clone();
        let flip_at = corrupt.len() - 4 - trace.records.len() * RECORD_BYTES - 2 * 4 + 10;
        corrupt[flip_at] ^= 0x80;
        let err = Trace::read_from(Cursor::new(&corrupt)).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn fingerprint_mismatch_names_fields() {
        let a = sample_fingerprint();
        let mut b = a.clone();
        b.channels = 2;
        b.cpu_mhz = 3_000;
        let err = a.check_compatible(&b).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("channels"), "{msg}");
        assert!(msg.contains("cpu_mhz"), "{msg}");
        a.check_compatible(&a.clone()).unwrap();
    }

    #[test]
    fn record_capture_round_trips_through_request() {
        let req = MemRequest::new(9, 0x4_0000, AccessKind::Read, CoreId(3))
            .with_criticality(Criticality::ranked(777))
            .with_issue_cycle(123);
        let rec = TraceRecord::capture(150, &req);
        assert_eq!(rec.enqueue_cycle, 150);
        assert_eq!(rec.issued_at, 123);
        let back = rec.to_request();
        assert_eq!(back, req);
    }
}
