//! Miss-status holding registers (MSHRs).
//!
//! Each entry tracks one outstanding line fill and the set of waiting
//! *targets* (the accesses merged onto it). Table 1/3 configure 16
//! entries per L1 and 64 for the shared L2 (halved to 32 for the
//! multiprogrammed runs).

use critmem_common::PhysAddr;

/// Result of attempting to register a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated — the caller must send the fill
    /// request downstream.
    NewMiss,
    /// An entry for the line already existed — the access was merged.
    Merged,
    /// No free entry; the access must be retried later.
    Full,
}

/// One waiting access. The meaning of the fields is up to the caller
/// (the hierarchy stores its token and write intent here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrTarget {
    /// Caller-defined token identifying the stalled access.
    pub token: u64,
    /// Whether the access needs write (exclusive) permission.
    pub is_write: bool,
}

#[derive(Debug, Clone)]
struct Entry {
    targets: Vec<MshrTarget>,
    /// Whether any merged target needs exclusive permission.
    wants_exclusive: bool,
}

/// A file of MSHR entries for one cache.
///
/// # Examples
///
/// ```
/// use critmem_cache::{MshrFile, MshrOutcome, MshrTarget};
/// let mut m = MshrFile::new(2, 64);
/// let t = MshrTarget { token: 1, is_write: false };
/// assert_eq!(m.register(0x1000, t), MshrOutcome::NewMiss);
/// assert_eq!(m.register(0x1010, t), MshrOutcome::Merged); // same line
/// let (targets, _) = m.complete(0x1000).unwrap();
/// assert_eq!(targets.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Line address of each entry, index for index with `entries` (the
    /// same pushes and `swap_remove`s), so a lookup scans 8-byte words.
    lines: Vec<PhysAddr>,
    entries: Vec<Entry>,
    capacity: usize,
    line_bytes: u64,
    /// Peak simultaneous occupancy (for reports).
    peak: usize,
    merges: u64,
    rejections: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries tracking `line_bytes`
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `line_bytes` is not a power of
    /// two.
    pub fn new(capacity: usize, line_bytes: u64) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        MshrFile {
            lines: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            capacity,
            line_bytes,
            peak: 0,
            merges: 0,
            rejections: 0,
        }
    }

    /// Index of the entry for `addr`'s line, if one is outstanding.
    #[inline]
    fn find(&self, addr: PhysAddr) -> Option<usize> {
        let line = addr & !(self.line_bytes - 1);
        self.lines.iter().position(|&l| l == line)
    }

    /// Allocates an entry for `addr`'s line, or counts a rejection when
    /// the file is full.
    fn allocate(&mut self, addr: PhysAddr, entry: Entry) -> MshrOutcome {
        if self.is_full() {
            self.rejections += 1;
            return MshrOutcome::Full;
        }
        self.lines.push(addr & !(self.line_bytes - 1));
        self.entries.push(entry);
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::NewMiss
    }

    /// Registers a missing access. See [`MshrOutcome`].
    pub fn register(&mut self, addr: PhysAddr, target: MshrTarget) -> MshrOutcome {
        if let Some(i) = self.find(addr) {
            let e = &mut self.entries[i];
            e.targets.push(target);
            e.wants_exclusive |= target.is_write;
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        self.allocate(
            addr,
            Entry {
                targets: vec![target],
                wants_exclusive: target.is_write,
            },
        )
    }

    /// Registers a miss with no waiting target (prefetches).
    pub fn register_prefetch(&mut self, addr: PhysAddr) -> MshrOutcome {
        if self.pending(addr) {
            return MshrOutcome::Merged;
        }
        self.allocate(
            addr,
            Entry {
                targets: Vec::new(),
                wants_exclusive: false,
            },
        )
    }

    /// Completes the fill for `addr`'s line: frees the entry and
    /// returns `(waiting targets, wants_exclusive)`. Returns `None` if
    /// no entry matches (e.g. a spurious completion).
    pub fn complete(&mut self, addr: PhysAddr) -> Option<(Vec<MshrTarget>, bool)> {
        let pos = self.find(addr)?;
        self.lines.swap_remove(pos);
        let e = self.entries.swap_remove(pos);
        Some((e.targets, e.wants_exclusive))
    }

    /// Whether an outstanding fill exists for `addr`'s line.
    pub fn pending(&self, addr: PhysAddr) -> bool {
        let line = addr & !(self.line_bytes - 1);
        // No early exit: a failed bounce asks about a line that is not
        // pending, which scans every entry anyway, and the branch-free
        // scan vectorizes.
        self.lines.iter().fold(false, |hit, &l| hit | (l == line))
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Peak occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Accesses merged onto existing entries.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Accesses rejected because the file was full.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

impl critmem_common::Snapshot for MshrFile {
    /// Entry order is architectural state (`complete` uses
    /// `swap_remove`), so entries are serialized verbatim.
    fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        w.put_u32(self.entries.len() as u32);
        for (&line_addr, e) in self.lines.iter().zip(&self.entries) {
            w.put_u64(line_addr);
            w.put_u32(e.targets.len() as u32);
            for t in &e.targets {
                w.put_u64(t.token);
                w.put_bool(t.is_write);
            }
            w.put_bool(e.wants_exclusive);
        }
        w.put_u64(self.peak as u64);
        w.put_u64(self.merges);
        w.put_u64(self.rejections);
    }

    fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<(), critmem_common::codec::CodecError> {
        let n = r.get_u32()? as usize;
        if n > self.capacity {
            return Err(critmem_common::codec::CodecError {
                message: format!(
                    "snapshot holds {n} MSHR entries, capacity is {}",
                    self.capacity
                ),
                offset: r.position(),
            });
        }
        self.lines.clear();
        self.entries.clear();
        for _ in 0..n {
            let line_addr = r.get_u64()?;
            let targets = (0..r.get_u32()? as usize)
                .map(|_| {
                    Ok(MshrTarget {
                        token: r.get_u64()?,
                        is_write: r.get_bool()?,
                    })
                })
                .collect::<Result<_, critmem_common::codec::CodecError>>()?;
            let wants_exclusive = r.get_bool()?;
            self.lines.push(line_addr);
            self.entries.push(Entry {
                targets,
                wants_exclusive,
            });
        }
        self.peak = r.get_u64()? as usize;
        self.merges = r.get_u64()?;
        self.rejections = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(token: u64) -> MshrTarget {
        MshrTarget {
            token,
            is_write: false,
        }
    }

    #[test]
    fn allocates_then_merges() {
        let mut m = MshrFile::new(4, 64);
        assert_eq!(m.register(0x100, t(1)), MshrOutcome::NewMiss);
        assert_eq!(m.register(0x120, t(2)), MshrOutcome::Merged);
        assert_eq!(m.len(), 1);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn full_file_rejects_new_lines_but_merges_existing() {
        let mut m = MshrFile::new(2, 64);
        m.register(0x000, t(1));
        m.register(0x040, t(2));
        assert_eq!(m.register(0x080, t(3)), MshrOutcome::Full);
        assert_eq!(m.register(0x000, t(4)), MshrOutcome::Merged);
        assert_eq!(m.rejections(), 1);
        assert!(m.is_full());
    }

    #[test]
    fn complete_returns_all_targets_in_order() {
        let mut m = MshrFile::new(2, 64);
        m.register(0x100, t(1));
        m.register(0x110, t(2));
        m.register(
            0x130,
            MshrTarget {
                token: 3,
                is_write: true,
            },
        );
        let (targets, excl) = m.complete(0x100).unwrap();
        assert_eq!(
            targets.iter().map(|x| x.token).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(excl, "merged write must request exclusive");
        assert!(m.is_empty());
        assert!(m.complete(0x100).is_none());
    }

    #[test]
    fn prefetch_entries_carry_no_targets() {
        let mut m = MshrFile::new(2, 64);
        assert_eq!(m.register_prefetch(0x200), MshrOutcome::NewMiss);
        assert_eq!(m.register_prefetch(0x200), MshrOutcome::Merged);
        let (targets, excl) = m.complete(0x200).unwrap();
        assert!(targets.is_empty());
        assert!(!excl);
    }

    #[test]
    fn demand_merges_onto_prefetch() {
        let mut m = MshrFile::new(2, 64);
        m.register_prefetch(0x200);
        assert_eq!(m.register(0x200, t(9)), MshrOutcome::Merged);
        let (targets, _) = m.complete(0x200).unwrap();
        assert_eq!(targets.len(), 1);
    }

    #[test]
    fn pending_tracks_lines() {
        let mut m = MshrFile::new(2, 64);
        m.register(0x100, t(1));
        assert!(m.pending(0x13F));
        assert!(!m.pending(0x140));
    }

    #[test]
    fn peak_occupancy() {
        let mut m = MshrFile::new(4, 64);
        m.register(0x000, t(1));
        m.register(0x040, t(2));
        m.complete(0x000);
        m.complete(0x040);
        assert_eq!(m.peak(), 2);
        assert!(m.is_empty());
    }

    /// A seeded mix of registers, merges, prefetches, completions and
    /// snapshot round trips, checked after every operation against a
    /// model that keeps each line beside its entry: the line array must
    /// stay index for index with the entries.
    #[test]
    fn line_array_mirrors_entries() {
        use critmem_common::codec::{ByteReader, ByteWriter};
        use critmem_common::rng::SmallRng;
        use critmem_common::Snapshot;
        type Model = Vec<(PhysAddr, Vec<MshrTarget>, bool)>;
        let mut rng = SmallRng::seed_from_u64(0x4d53_4852);
        let mut m = MshrFile::new(6, 64);
        let mut model: Model = Vec::new();
        let mut token = 0;
        for step in 0..20_000 {
            // Twelve lines against six entries keep the file full often.
            let addr = rng.gen_range(0..12) * 64 + rng.gen_range(0..64);
            let line = addr & !63;
            let at = model.iter().position(|e| e.0 == line);
            match rng.gen_range(0..5) {
                0 | 1 => {
                    token += 1;
                    let target = MshrTarget {
                        token,
                        is_write: rng.gen_bool(0.3),
                    };
                    let want = match at {
                        Some(i) => {
                            model[i].1.push(target);
                            model[i].2 |= target.is_write;
                            MshrOutcome::Merged
                        }
                        None if model.len() == 6 => MshrOutcome::Full,
                        None => {
                            model.push((line, vec![target], target.is_write));
                            MshrOutcome::NewMiss
                        }
                    };
                    assert_eq!(m.register(addr, target), want, "step {step}");
                }
                2 => {
                    let want = match at {
                        Some(_) => MshrOutcome::Merged,
                        None if model.len() == 6 => MshrOutcome::Full,
                        None => {
                            model.push((line, Vec::new(), false));
                            MshrOutcome::NewMiss
                        }
                    };
                    assert_eq!(m.register_prefetch(addr), want, "step {step}");
                }
                3 => {
                    let want = at.map(|i| {
                        let (_, targets, excl) = model.swap_remove(i);
                        (targets, excl)
                    });
                    assert_eq!(m.complete(addr), want, "step {step}");
                }
                _ => {
                    let mut w = ByteWriter::new();
                    m.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut fresh = MshrFile::new(6, 64);
                    fresh.load_state(&mut ByteReader::new(&bytes)).unwrap();
                    m = fresh;
                }
            }
            let lines: Vec<PhysAddr> = model.iter().map(|e| e.0).collect();
            assert_eq!(m.lines, lines, "step {step}");
            assert_eq!(m.entries.len(), model.len(), "step {step}");
            for (e, (_, targets, excl)) in m.entries.iter().zip(&model) {
                assert_eq!((&e.targets, e.wants_exclusive), (targets, *excl));
            }
        }
    }
}
