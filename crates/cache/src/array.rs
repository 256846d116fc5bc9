//! A set-associative cache array with true-LRU replacement.
//!
//! Used for both the per-core 32 kB L1s (32 B lines) and the shared
//! 4 MB L2 (64 B lines, 8-way) of Tables 1 and 3. Lines carry the
//! metadata the hierarchy needs: dirty, exclusive (for the MESI-style
//! store upgrade), sharer bitmask (L2 directory), and a prefetched
//! marker for prefetcher accounting.

use critmem_common::PhysAddr;

/// One cache line's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Full line-aligned address (tag + index re-combined).
    pub addr: PhysAddr,
    /// Valid bit.
    pub valid: bool,
    /// Dirty (modified) bit.
    pub dirty: bool,
    /// Exclusive/modified permission (L1 lines; set when filled for a
    /// store or upgraded).
    pub exclusive: bool,
    /// Directory sharer bitmask (L2 lines; bit *i* = core *i* may hold
    /// a copy).
    pub sharers: u8,
    /// Line was brought in by the prefetcher and not yet demanded.
    pub prefetched: bool,
    lru: u64,
}

const INVALID: Line = Line {
    addr: 0,
    valid: false,
    dirty: false,
    exclusive: false,
    sharers: 0,
    prefetched: false,
    lru: 0,
};

/// A victim evicted by [`CacheArray::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the victim.
    pub addr: PhysAddr,
    /// Whether it held modified data (needs a write-back).
    pub dirty: bool,
    /// Sharer bitmask at eviction (for inclusion enforcement).
    pub sharers: u8,
}

/// Set-associative, true-LRU cache array.
///
/// # Examples
///
/// ```
/// use critmem_cache::CacheArray;
/// let mut c = CacheArray::new(32 * 1024, 4, 32);
/// assert!(c.probe(0x1000).is_none());
/// c.insert(0x1000);
/// assert!(c.probe(0x1000).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    lines: Vec<Line>,
    sets: usize,
    ways: usize,
    line_bytes: u64,
    clock: u64,
    /// Hit/miss counters.
    hits: u64,
    misses: u64,
}

impl CacheArray {
    /// Creates an array of `size_bytes` capacity with `ways`
    /// associativity and `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (set count must be a
    /// positive power of two).
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "associativity must be nonzero");
        let lines_total = size_bytes / line_bytes;
        let sets = (lines_total as usize) / ways;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a positive power of two"
        );
        CacheArray {
            lines: vec![INVALID; sets * ways],
            sets,
            ways,
            line_bytes,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Aligns an address down to its line.
    #[inline]
    pub fn line_addr(&self, addr: PhysAddr) -> PhysAddr {
        addr & !(self.line_bytes - 1)
    }

    #[inline]
    fn set_of(&self, addr: PhysAddr) -> usize {
        ((addr / self.line_bytes) as usize) & (self.sets - 1)
    }

    /// Looks up `addr`; on a hit returns the line (LRU updated) and
    /// counts a hit, otherwise counts a miss.
    pub fn probe(&mut self, addr: PhysAddr) -> Option<&mut Line> {
        let line_addr = self.line_addr(addr);
        let set = self.set_of(addr);
        self.clock += 1;
        let clock = self.clock;
        let base = set * self.ways;
        let found = self.lines[base..base + self.ways]
            .iter()
            .position(|l| l.valid && l.addr == line_addr);
        match found {
            Some(w) => {
                self.hits += 1;
                let line = &mut self.lines[base + w];
                line.lru = clock;
                Some(line)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up without counting statistics or touching LRU.
    pub fn peek(&self, addr: PhysAddr) -> Option<&Line> {
        let line_addr = self.line_addr(addr);
        let set = self.set_of(addr);
        let base = set * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .find(|l| l.valid && l.addr == line_addr)
    }

    /// Mutable lookup without statistics (for directory updates).
    pub fn peek_mut(&mut self, addr: PhysAddr) -> Option<&mut Line> {
        let line_addr = self.line_addr(addr);
        let set = self.set_of(addr);
        let base = set * self.ways;
        self.lines[base..base + self.ways]
            .iter_mut()
            .find(|l| l.valid && l.addr == line_addr)
    }

    /// Installs `addr`, evicting the LRU way if the set is full.
    /// Returns the evicted victim (if any, and if it was valid) and a
    /// mutable reference to the new line for metadata setup.
    pub fn insert(&mut self, addr: PhysAddr) -> (Option<Evicted>, &mut Line) {
        let line_addr = self.line_addr(addr);
        let set = self.set_of(addr);
        self.clock += 1;
        let clock = self.clock;
        let base = set * self.ways;
        // Re-use an existing copy or an invalid way if present.
        let slot = {
            let ways = &self.lines[base..base + self.ways];
            ways.iter()
                .position(|l| l.valid && l.addr == line_addr)
                .or_else(|| ways.iter().position(|l| !l.valid))
                .unwrap_or_else(|| {
                    ways.iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.lru)
                        .map(|(i, _)| i)
                        .expect("nonzero associativity")
                })
        };
        let line = &mut self.lines[base + slot];
        let evicted = if line.valid && line.addr != line_addr {
            Some(Evicted {
                addr: line.addr,
                dirty: line.dirty,
                sharers: line.sharers,
            })
        } else {
            None
        };
        if !(line.valid && line.addr == line_addr) {
            *line = Line {
                addr: line_addr,
                valid: true,
                ..INVALID
            };
        }
        line.lru = clock;
        (evicted, line)
    }

    /// Invalidates `addr` if present; returns the line's final state.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<Line> {
        let line_addr = self.line_addr(addr);
        let set = self.set_of(addr);
        let base = set * self.ways;
        for l in &mut self.lines[base..base + self.ways] {
            if l.valid && l.addr == line_addr {
                let out = *l;
                l.valid = false;
                return Some(out);
            }
        }
        None
    }

    /// (hits, misses) counted by [`Self::probe`].
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

impl critmem_common::Snapshot for CacheArray {
    /// Geometry comes from the constructor; the captured state is every
    /// line's metadata plus the LRU clock and hit/miss counters.
    fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        w.put_u32(self.lines.len() as u32);
        for l in &self.lines {
            w.put_u64(l.addr);
            w.put_bool(l.valid);
            w.put_bool(l.dirty);
            w.put_bool(l.exclusive);
            w.put_u8(l.sharers);
            w.put_bool(l.prefetched);
            w.put_u64(l.lru);
        }
        w.put_u64(self.clock);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
    }

    fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<(), critmem_common::codec::CodecError> {
        let n = r.get_u32()? as usize;
        if n != self.lines.len() {
            return Err(critmem_common::codec::CodecError {
                message: format!(
                    "cache array holds {} lines, snapshot has {n}",
                    self.lines.len()
                ),
                offset: r.position(),
            });
        }
        for l in &mut self.lines {
            l.addr = r.get_u64()?;
            l.valid = r.get_bool()?;
            l.dirty = r.get_bool()?;
            l.exclusive = r.get_bool()?;
            l.sharers = r.get_u8()?;
            l.prefetched = r.get_bool()?;
            l.lru = r.get_u64()?;
        }
        self.clock = r.get_u64()?;
        self.hits = r.get_u64()?;
        self.misses = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = CacheArray::new(1024, 2, 64);
        assert!(c.probe(0x40).is_none());
        c.insert(0x40);
        assert!(c.probe(0x40).is_some());
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn sub_line_addresses_share_a_line() {
        let mut c = CacheArray::new(1024, 2, 64);
        c.insert(0x40);
        assert!(c.probe(0x40 + 63).is_some());
        assert!(c.probe(0x40 + 64).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, line 64, 1024 B => 8 sets. Addresses 0, 512, 1024 share set 0.
        let mut c = CacheArray::new(1024, 2, 64);
        c.insert(0);
        c.insert(512);
        c.probe(0); // touch 0 so 512 is LRU
        let (ev, _) = c.insert(1024);
        assert_eq!(ev.unwrap().addr, 512);
        assert!(c.peek(0).is_some());
        assert!(c.peek(512).is_none());
    }

    #[test]
    fn dirty_eviction_reports_dirty() {
        let mut c = CacheArray::new(1024, 2, 64);
        {
            let (_, l) = c.insert(0);
            l.dirty = true;
        }
        c.insert(512);
        let (ev, _) = c.insert(1024);
        let ev = ev.unwrap();
        assert_eq!(ev.addr, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn reinsert_does_not_evict_self() {
        let mut c = CacheArray::new(1024, 2, 64);
        c.insert(0);
        let (ev, _) = c.insert(0);
        assert!(ev.is_none());
    }

    #[test]
    fn reinsert_preserves_metadata() {
        let mut c = CacheArray::new(1024, 2, 64);
        {
            let (_, l) = c.insert(0);
            l.dirty = true;
            l.sharers = 0b101;
        }
        let (_, l) = c.insert(0);
        assert!(l.dirty, "re-insert must not clear dirty");
        assert_eq!(l.sharers, 0b101);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = CacheArray::new(1024, 2, 64);
        {
            let (_, l) = c.insert(0x80);
            l.dirty = true;
        }
        let gone = c.invalidate(0x80).unwrap();
        assert!(gone.dirty);
        assert!(c.peek(0x80).is_none());
        assert!(c.invalidate(0x80).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = CacheArray::new(1000, 2, 48);
    }

    /// Seeded property sweep: the cache never holds more distinct
    /// lines than its capacity, and a probe immediately after insert
    /// always hits.
    #[test]
    fn insert_probe_coherent() {
        let mut rng = critmem_common::SmallRng::seed_from_u64(0xCAC4E);
        for _ in 0..64 {
            let n = rng.gen_range(1..200);
            let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 20)).collect();
            let mut c = CacheArray::new(4096, 4, 64);
            for &a in &addrs {
                c.insert(a);
                assert!(c.peek(a).is_some());
            }
            let valid = c.lines.iter().filter(|l| l.valid).count();
            assert!(valid <= 4096 / 64);
        }
    }

    /// Within one set, inserting ways+1 distinct lines evicts exactly
    /// one, for every set-aliasing stride.
    #[test]
    fn eviction_count_is_exact() {
        for set_jump in 1u64..32 {
            let mut c = CacheArray::new(8192, 4, 64);
            let stride = 64 * c.sets() as u64 * set_jump; // same set
            let mut evictions = 0;
            for i in 0..5u64 {
                let (ev, _) = c.insert(i * stride);
                if ev.is_some() {
                    evictions += 1;
                }
            }
            assert_eq!(evictions, 1, "set_jump={set_jump}");
        }
    }
}
