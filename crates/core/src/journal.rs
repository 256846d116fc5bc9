//! The on-disk sweep journal (`CMJR` format).
//!
//! As a sweep executes, the [`Runner`](crate::experiments::Runner)
//! appends every *completed* simulation result — one CRC-framed record
//! per memo entry, under its [`CellId`] — to a [`SweepJournal`]. If the process is
//! killed mid-sweep (OOM, ^C, a machine reboot), `repro --resume`
//! reopens the journal, recovers the longest valid prefix of records,
//! preloads them into the memo tables, and re-runs **only the missing
//! cells**. The simulator is deterministic and every persisted codec is
//! lossless (f64s travel as raw bits), so a resumed sweep's final
//! output is byte-identical to an uninterrupted run.
//!
//! # Format
//!
//! ```text
//! "CMJR" magic | u32 version (3) | record*
//! record := u8 kind (1 = run, 2 = replay)
//!         | u32 payload length
//!         | payload bytes
//!         | u32 CRC-32 of the payload
//! payload := length-prefixed cell id text | stats encoding
//! ```
//!
//! A sampled run's stats encoding carries its series in the binary
//! layout of [`SeriesSet::encode`](critmem_common::SeriesSet::encode),
//! whose row block is the one a `CMCK` checkpoint's sampler holds:
//!
//! ```text
//! series := u32 metric count | metric* | u32 sample count | u64 cycle*
//!         | u32 value count | f64 value* (raw bits, row-major)
//! metric := str component | str name | u8 kind (0 = counter, 1 = gauge)
//!         | str unit
//! ```
//!
//! Older journals fail `--resume` with "unsupported sweep journal
//! version N": version 1 held series as JSONL text, and version 2 keyed
//! records by strings that left parts of the configuration out.
//!
//! The header and each record's length, payload and CRC are the sealed
//! frame of [`critmem_common::codec`], the one `CMCK` checkpoints and
//! `CMPF` profiles use.
//!
//! A record that is truncated (the tail of a killed write) or fails its
//! CRC ends recovery: everything before it is trusted, the file is
//! truncated back to the valid prefix, and appending continues from
//! there. Failed cells are deliberately *not* journaled — a resume
//! retries them, which is exactly what the operator wants after fixing
//! whatever killed the run.

use crate::experiments::harness::CellId;
use crate::system::RunStats;
use critmem_common::codec::{ByteReader, ByteWriter, CodecError};
use critmem_common::SimError;
use critmem_trace::ReplayStats;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal file.
pub const MAGIC: &[u8; 4] = b"CMJR";
/// Format version written by this build.
pub const VERSION: u32 = 3;

const KIND_RUN: u8 = 1;
const KIND_REPLAY: u8 = 2;

/// One recovered journal record: a completed simulation under the id
/// the runner's memo tables key it by.
#[derive(Debug)]
pub enum JournalEntry {
    /// An execution-driven run.
    Run {
        /// The cell's identity.
        id: CellId,
        /// The persisted result.
        stats: RunStats,
    },
    /// A trace replay.
    Replay {
        /// The cell's identity.
        id: CellId,
        /// The persisted result.
        stats: ReplayStats,
    },
}

impl JournalEntry {
    /// The cell this entry restores.
    pub fn id(&self) -> &CellId {
        match self {
            JournalEntry::Run { id, .. } | JournalEntry::Replay { id, .. } => id,
        }
    }
}

/// An append-only journal of completed sweep cells.
#[derive(Debug)]
pub struct SweepJournal {
    file: File,
    path: PathBuf,
}

fn io_err(path: &Path, source: std::io::Error) -> SimError {
    SimError::from(source).with_path(path)
}

impl SweepJournal {
    /// Creates (or truncates) a journal at `path` and writes the
    /// header.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] if the file cannot be created or written.
    pub fn create(path: &Path) -> Result<Self, SimError> {
        let mut header = ByteWriter::new();
        header.put_header(MAGIC, VERSION);
        let mut file = File::create(path).map_err(|e| io_err(path, e))?;
        file.write_all(&header.into_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_err(path, e))?;
        Ok(SweepJournal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Reopens an existing journal for resumption: decodes the longest
    /// valid prefix of records, truncates away any torn tail (so the
    /// next append starts on a record boundary), and returns the
    /// recovered entries together with the reopened journal.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] if the file cannot be read or reopened, and
    /// [`SimError::Artifact`] if the header is missing or from a
    /// different format version (a torn *record* is recovery, a bad
    /// *header* is the wrong file).
    pub fn resume(path: &Path) -> Result<(Self, Vec<JournalEntry>), SimError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err(path, e))?;
        let (entries, valid_end) =
            recover(&bytes).map_err(|e| SimError::Artifact(format!("{}: {e}", path.display())))?;
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(valid_end as u64)
            .map_err(|e| io_err(path, e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, e))?;
        Ok((
            SweepJournal {
                file,
                path: path.to_path_buf(),
            },
            entries,
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a completed execution-driven run.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] on a failed write.
    pub fn append_run(&mut self, id: &CellId, stats: &RunStats) -> Result<(), SimError> {
        let mut payload = ByteWriter::new();
        payload.put_str(&id.0);
        stats.encode(&mut payload);
        self.append_record(KIND_RUN, &payload.into_bytes())
    }

    /// Appends a completed trace replay.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] on a failed write.
    pub fn append_replay(&mut self, id: &CellId, stats: &ReplayStats) -> Result<(), SimError> {
        let mut payload = ByteWriter::new();
        payload.put_str(&id.0);
        stats.encode(&mut payload);
        self.append_record(KIND_REPLAY, &payload.into_bytes())
    }

    /// Writes one framed record and flushes, so a kill between appends
    /// never tears more than the record being written.
    fn append_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), SimError> {
        let mut frame = ByteWriter::new();
        frame.put_u8(kind);
        frame.put_sealed(payload);
        self.file
            .write_all(&frame.into_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err(&self.path, e))
    }
}

/// Checks the header and decodes the longest valid prefix of records,
/// returning them with the byte offset where that prefix ends.
fn recover(bytes: &[u8]) -> Result<(Vec<JournalEntry>, usize), CodecError> {
    let mut r = ByteReader::new(bytes);
    r.check_header("sweep journal", MAGIC, VERSION)?;
    let mut entries = Vec::new();
    let mut valid_end = r.position();
    while let Some(entry) = decode_record(&mut r) {
        entries.push(entry);
        valid_end = r.position();
    }
    Ok((entries, valid_end))
}

/// Decodes the record at the reader's position — or `None` on a
/// torn/corrupt record (end of the valid prefix).
fn decode_record(r: &mut ByteReader<'_>) -> Option<JournalEntry> {
    let kind = r.get_u8().ok()?;
    let mut payload = ByteReader::new(r.get_sealed("journal record").ok()?);
    let id = CellId(payload.get_str().ok()?);
    match kind {
        KIND_RUN => Some(JournalEntry::Run {
            id,
            stats: RunStats::decode(&mut payload).ok()?,
        }),
        KIND_REPLAY => Some(JournalEntry::Replay {
            id,
            stats: ReplayStats::decode(&mut payload).ok()?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AgentMix, SystemConfig};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("critmem-journal-{name}-{}", std::process::id()));
        p
    }

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_baseline(300);
        cfg.cores = 1;
        cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(1);
        cfg
    }

    fn small_stats() -> RunStats {
        crate::session::Session::new(small_cfg(), &AgentMix::alone("swim"))
            .run()
            .unwrap_or_else(|e| panic!("{e}"))
            .stats
    }

    /// A stand-in id for the recovery tests, which look only at which
    /// records survive.
    fn id(text: &str) -> CellId {
        CellId(text.to_string())
    }

    #[test]
    fn round_trips_run_and_replay_records() {
        let path = tmp("roundtrip");
        let stats = small_stats();
        let replay = ReplayStats {
            injected: 11,
            completed: 11,
            ..Default::default()
        };
        let run_id = CellId::run(&small_cfg(), &AgentMix::alone("swim"), None);
        let capture = CellId::capture(&SystemConfig::paper_baseline(300), "swim");
        let replay_id = CellId::replay(&capture, critmem_sched::SchedulerKind::Fcfs);
        {
            let mut j = SweepJournal::create(&path).unwrap();
            j.append_run(&run_id, &stats).unwrap();
            j.append_replay(&replay_id, &replay).unwrap();
        }
        let (_, entries) = SweepJournal::resume(&path).unwrap();
        assert_eq!(entries.len(), 2);
        match &entries[0] {
            JournalEntry::Run { id, stats: got } => {
                assert_eq!(id, &run_id);
                assert_eq!(got.cycles, stats.cycles);
                assert_eq!(got.cores[0].committed, stats.cores[0].committed);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match &entries[1] {
            JournalEntry::Replay { id, stats: got } => {
                assert_eq!(id, &replay_id);
                assert_eq!(got.injected, 11);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_appending_continues() {
        let path = tmp("torn");
        let stats = small_stats();
        {
            let mut j = SweepJournal::create(&path).unwrap();
            j.append_run(&id("a@300"), &stats).unwrap();
            j.append_run(&id("b@300"), &stats).unwrap();
        }
        // Simulate a kill mid-write: chop 7 bytes off the second record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (mut j, entries) = SweepJournal::resume(&path).unwrap();
        assert_eq!(entries.len(), 1, "torn record must not survive");
        assert_eq!(entries[0].id(), &id("a@300"));
        j.append_run(&id("c@300"), &stats).unwrap();
        drop(j);
        let (_, entries) = SweepJournal::resume(&path).unwrap();
        let keys: Vec<&str> = entries.iter().map(|e| e.id().0.as_str()).collect();
        assert_eq!(keys, ["a@300", "c@300"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_invalidates_exactly_the_flipped_record() {
        let path = tmp("bitflip");
        let stats = small_stats();
        {
            let mut j = SweepJournal::create(&path).unwrap();
            j.append_run(&id("a@300"), &stats).unwrap();
            j.append_run(&id("b@300"), &stats).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2; // inside the first or second payload
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, entries) = SweepJournal::resume(&path).unwrap();
        assert!(
            entries.len() < 2,
            "a flipped bit must kill at least the record holding it"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_cut_recovers_exactly_the_records_before_it() {
        let path = tmp("everycut");
        let mut j = SweepJournal::create(&path).unwrap();
        let mut ends = vec![8];
        for key in ["a", "bb", "ccc"] {
            j.append_replay(&id(key), &ReplayStats::default()).unwrap();
            ends.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for cut in 0..=bytes.len() {
            let Ok((entries, valid_end)) = recover(&bytes[..cut]) else {
                assert!(cut < 8, "cut {cut} after the header is not recovery");
                continue;
            };
            let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
            let keys: Vec<&str> = entries.iter().map(|e| e.id().0.as_str()).collect();
            assert_eq!(keys, ["a", "bb", "ccc"][..whole], "cut {cut}");
            assert_eq!(valid_end, ends[whole], "cut {cut}");
        }
    }

    #[test]
    fn wrong_file_is_an_artifact_error() {
        let path = tmp("wrongfile");
        std::fs::write(&path, b"not a journal at all").unwrap();
        let err = SweepJournal::resume(&path).unwrap_err();
        assert!(matches!(err, SimError::Artifact(_)), "{err:?}");
        for version in [1u8, 2] {
            std::fs::write(&path, [b'C', b'M', b'J', b'R', version, 0, 0, 0]).unwrap();
            match SweepJournal::resume(&path).unwrap_err() {
                SimError::Artifact(msg) => assert!(
                    msg.contains(&format!("unsupported sweep journal version {version}")),
                    "{msg}"
                ),
                other => panic!("version {version}: expected Artifact error, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
