//! The two-level cache hierarchy of Tables 1 and 3: per-core L1 data
//! caches (32 kB, 4-way, 32 B lines, 16 MSHRs) under a shared,
//! inclusive L2 (4 MB, 8-way, 64 B lines, 64 MSHRs, 32-cycle
//! round-trip) with a directory for MESI-style invalidation and an
//! optional stream prefetcher (§5.5).
//!
//! # Timing model
//!
//! Latency is attributed at access time where it is statically known
//! (L1 hit, L2 hit) and at DRAM completion otherwise. Cache *state*
//! updates happen synchronously at the access — a simplification worth
//! a few tens of CPU cycles of skew against a fully pipelined model,
//! negligible next to the several-hundred-cycle DRAM latencies the
//! paper's mechanism targets (simplification recorded in DESIGN.md).
//!
//! # Criticality plumbing
//!
//! The processor supplies a [`Criticality`] with every access; it rides
//! on the [`MemRequest`] emitted on an L2 miss, which is exactly the
//! paper's "piggyback the CBP bits on the request" design (§3.2).

use crate::array::CacheArray;
use crate::mshr::{MshrFile, MshrOutcome, MshrTarget};
use crate::prefetch::{PrefetchConfig, StreamPrefetcher};
use critmem_common::{
    AccessKind, CoreId, CpuCycle, Criticality, MemRequest, PhysAddr, ReqId, RunningMean,
};
use std::collections::{HashMap, VecDeque};

/// Kind of processor-side access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccessKind {
    /// Data load.
    Load,
    /// Data store (needs exclusive permission).
    Store,
}

/// Opaque handle for an in-flight access; completions are reported
/// against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessToken(pub u64);

/// A wakeup delivered when a DRAM fill satisfies an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCompletion {
    /// Core whose access completed.
    pub core: CoreId,
    /// The token returned by [`CacheHierarchy::access`].
    pub token: AccessToken,
    /// CPU cycle at which the core sees the data.
    pub done: CpuCycle,
}

/// Immediate result of [`CacheHierarchy::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access completes at the given CPU cycle (cache hit).
    Done(CpuCycle),
    /// The access misses to DRAM; completion arrives later via
    /// [`CacheHierarchy::dram_completed`].
    Pending(AccessToken),
    /// Structural hazard (MSHRs full); retry next cycle. Nothing was
    /// counted or changed: see [`CacheHierarchy::bounce`].
    Retry,
}

/// The MSHR file a demand access bounced off
/// ([`CacheHierarchy::bounce`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bounce {
    /// The core's own L1 file. Only a fill for that core frees an
    /// entry, and the fill reaches the core as a [`CacheCompletion`].
    L1,
    /// The shared L2 file. Any core's fill may free an entry.
    Shared,
}

/// Configuration of the hierarchy (defaults = Tables 1 and 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Number of cores (private L1s).
    pub num_cores: usize,
    /// L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 line size in bytes.
    pub l1_line: u64,
    /// L1 MSHR entries.
    pub l1_mshrs: usize,
    /// L1 hit round-trip latency (CPU cycles).
    pub l1_hit_latency: u64,
    /// Shared L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 line size in bytes.
    pub l2_line: u64,
    /// L2 MSHR entries (64 baseline; 32 for multiprogrammed runs).
    pub l2_mshrs: usize,
    /// L2 hit round-trip latency (CPU cycles, uncontended).
    pub l2_hit_latency: u64,
    /// Latency from the L2 issuing a request to it reaching the memory
    /// controller's transaction queue.
    pub l2_to_mem_latency: u64,
    /// Latency from DRAM data arrival to the waiting core's wakeup.
    pub fill_latency: u64,
    /// Cost of a coherence upgrade (store to a shared line).
    pub upgrade_latency: u64,
    /// Stream prefetcher, if enabled.
    pub prefetch: Option<PrefetchConfig>,
}

impl HierarchyConfig {
    /// The paper's 8-core baseline.
    pub fn paper_baseline(num_cores: usize) -> Self {
        HierarchyConfig {
            num_cores,
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l1_line: 32,
            l1_mshrs: 16,
            l1_hit_latency: 3,
            l2_bytes: 4 * 1024 * 1024,
            l2_ways: 8,
            l2_line: 64,
            l2_mshrs: 64,
            l2_hit_latency: 32,
            l2_to_mem_latency: 12,
            fill_latency: 8,
            upgrade_latency: 12,
            prefetch: None,
        }
    }
}

/// Aggregate statistics for the hierarchy.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    /// Demand accesses that reached the L2.
    pub l2_accesses: u64,
    /// Demand L2 hits.
    pub l2_hits: u64,
    /// Demand L2 misses (requests sent to DRAM or merged onto one).
    pub l2_misses: u64,
    /// L2 hits on lines the prefetcher brought in.
    pub prefetch_useful: u64,
    /// Prefetch requests sent to DRAM.
    pub prefetches_sent: u64,
    /// Write-backs emitted to DRAM.
    pub writebacks: u64,
    /// Coherence upgrades (stores to shared lines).
    pub upgrades: u64,
    /// Coherence invalidations delivered to L1s.
    pub invalidations: u64,
    /// Mean L2-miss service latency for loads flagged critical.
    pub miss_latency_critical: RunningMean,
    /// Mean L2-miss service latency for non-critical loads.
    pub miss_latency_noncritical: RunningMean,
}

impl HierarchyStats {
    /// Demand L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.l2_accesses as f64
        }
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut critmem_common::codec::ByteWriter) {
        for v in [
            self.l2_accesses,
            self.l2_hits,
            self.l2_misses,
            self.prefetch_useful,
            self.prefetches_sent,
            self.writebacks,
            self.upgrades,
            self.invalidations,
        ] {
            w.put_u64(v);
        }
        self.miss_latency_critical.encode(w);
        self.miss_latency_noncritical.encode(w);
    }

    /// Deserializes journaled hierarchy statistics.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream.
    pub fn decode(
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<Self, critmem_common::codec::CodecError> {
        Ok(HierarchyStats {
            l2_accesses: r.get_u64()?,
            l2_hits: r.get_u64()?,
            l2_misses: r.get_u64()?,
            prefetch_useful: r.get_u64()?,
            prefetches_sent: r.get_u64()?,
            writebacks: r.get_u64()?,
            upgrades: r.get_u64()?,
            invalidations: r.get_u64()?,
            miss_latency_critical: RunningMean::decode(r)?,
            miss_latency_noncritical: RunningMean::decode(r)?,
        })
    }
}

impl critmem_common::Observable for CacheHierarchy {
    /// Emits one `cache.l2` component covering the shared L2 and its
    /// MSHR file (the per-core L1s contribute to `cpu.coreN` IPC
    /// instead of reporting separately).
    fn observe(&self, v: &mut dyn critmem_common::MetricVisitor) {
        v.component("cache.l2");
        let s = &self.stats;
        v.counter("l2_accesses", "accesses", s.l2_accesses);
        v.counter("l2_hits", "accesses", s.l2_hits);
        v.counter("l2_misses", "accesses", s.l2_misses);
        v.gauge("l2_hit_rate", "ratio", s.l2_hit_rate());
        v.gauge("mshr_occupancy", "entries", self.l2_mshr.len() as f64);
        v.counter("mshr_peak", "entries", self.l2_mshr.peak() as u64);
        v.counter("mshr_merges", "misses", self.l2_mshr.merges());
        v.counter("mshr_rejections", "requests", self.l2_mshr.rejections());
        v.counter("prefetches_sent", "requests", s.prefetches_sent);
        v.counter("prefetch_useful", "hits", s.prefetch_useful);
        v.counter("writebacks", "requests", s.writebacks);
        v.gauge(
            "miss_latency_critical",
            "cpu-cycles",
            s.miss_latency_critical.mean().unwrap_or(0.0),
        );
        v.gauge(
            "miss_latency_noncritical",
            "cpu-cycles",
            s.miss_latency_noncritical.mean().unwrap_or(0.0),
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct AccessInfo {
    addr: PhysAddr,
    is_write: bool,
    crit: Criticality,
    start: CpuCycle,
    core: CoreId,
}

#[derive(Debug, Clone)]
struct OutboxEntry {
    req: MemRequest,
    ready_at: CpuCycle,
}

/// The cache hierarchy. See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1d: Vec<CacheArray>,
    l1_mshr: Vec<MshrFile>,
    l2: CacheArray,
    l2_mshr: MshrFile,
    prefetcher: Option<StreamPrefetcher>,
    outbox: VecDeque<OutboxEntry>,
    info: HashMap<u64, AccessInfo>,
    next_token: u64,
    next_req: ReqId,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (L1 line must divide L2 line).
    pub fn new(cfg: HierarchyConfig) -> Self {
        // Zero cores is legal: an agent-only heterogeneous mix builds
        // a hierarchy nothing ever accesses.
        assert!(cfg.num_cores <= 8, "at most 8 cores supported");
        assert!(
            cfg.l2_line.is_multiple_of(cfg.l1_line),
            "L1 line ({}) must divide L2 line ({})",
            cfg.l1_line,
            cfg.l2_line
        );
        CacheHierarchy {
            cfg,
            l1d: (0..cfg.num_cores)
                .map(|_| CacheArray::new(cfg.l1_bytes, cfg.l1_ways, cfg.l1_line))
                .collect(),
            l1_mshr: (0..cfg.num_cores)
                .map(|_| MshrFile::new(cfg.l1_mshrs, cfg.l1_line))
                .collect(),
            l2: CacheArray::new(cfg.l2_bytes, cfg.l2_ways, cfg.l2_line),
            l2_mshr: MshrFile::new(cfg.l2_mshrs, cfg.l2_line),
            prefetcher: cfg.prefetch.map(StreamPrefetcher::new),
            outbox: VecDeque::new(),
            info: HashMap::new(),
            next_token: 0,
            next_req: 0,
            stats: HierarchyStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Whether a demand access by `core` to `addr` would bounce off a
    /// full MSHR file, and off which one, without side effects. It
    /// mirrors [`Self::access`]'s order: an L1 hit or a merge onto a
    /// pending L1 line proceeds, a full L1 file bounces, then an L2 hit
    /// or a merge onto a pending L2 line proceeds and a full L2 file
    /// bounces. A bounce is no access: it counts nothing, touches no
    /// LRU state and allocates no token.
    pub fn bounce(&self, core: CoreId, addr: PhysAddr) -> Option<Bounce> {
        let ci = core.index();
        if self.l1d[ci].peek(addr).is_some() || self.l1_mshr[ci].pending(addr) {
            return None;
        }
        if self.l1_mshr[ci].is_full() {
            return Some(Bounce::L1);
        }
        let proceeds =
            self.l2.peek(addr).is_some() || self.l2_mshr.pending(addr) || !self.l2_mshr.is_full();
        (!proceeds).then_some(Bounce::Shared)
    }

    /// Performs a data access for `core` at `addr`, or returns
    /// [`AccessOutcome::Retry`] with nothing changed when it would
    /// [`bounce`](Self::bounce).
    ///
    /// `crit` is the processor-side criticality prediction for the
    /// load (stores pass `Criticality::non_critical()`).
    pub fn access(
        &mut self,
        core: CoreId,
        addr: PhysAddr,
        kind: CacheAccessKind,
        crit: Criticality,
        now: CpuCycle,
    ) -> AccessOutcome {
        if self.bounce(core, addr).is_some() {
            return AccessOutcome::Retry;
        }
        let is_write = kind == CacheAccessKind::Store;
        let ci = core.index();
        // ---- L1 lookup ----
        let l1_hit = {
            let l1 = &mut self.l1d[ci];
            match l1.probe(addr) {
                Some(line) => {
                    let needs_upgrade = is_write && !line.exclusive;
                    if is_write {
                        line.dirty = true;
                        line.exclusive = true;
                    }
                    Some(needs_upgrade)
                }
                None => None,
            }
        };
        if let Some(needs_upgrade) = l1_hit {
            let mut latency = self.cfg.l1_hit_latency;
            if needs_upgrade {
                self.upgrade(core, addr);
                latency += self.cfg.upgrade_latency;
            }
            return AccessOutcome::Done(now + latency);
        }
        // If the L1 line is already being fetched, merge.
        if self.l1_mshr[ci].pending(addr) {
            let token = self.alloc_token(core, addr, is_write, crit, now);
            self.l1_mshr[ci].register(addr, MshrTarget { token, is_write });
            return AccessOutcome::Pending(AccessToken(token));
        }
        // ---- L2 lookup (demand) ----
        self.stats.l2_accesses += 1;
        let l2_hit = self.l2.probe(addr).is_some();
        if l2_hit {
            self.stats.l2_hits += 1;
            let (sharers, was_prefetched) = {
                let line = self.l2.peek_mut(addr).expect("probed hit");
                let was_prefetched = line.prefetched;
                line.prefetched = false;
                let sharers = line.sharers;
                line.sharers |= 1 << ci;
                if is_write {
                    line.sharers = 1 << ci;
                }
                (sharers, was_prefetched)
            };
            if was_prefetched {
                self.stats.prefetch_useful += 1;
            }
            if is_write && sharers & !(1 << ci) != 0 {
                self.invalidate_l1_copies(self.l2.line_addr(addr), sharers, Some(core));
            }
            self.fill_l1(core, addr, is_write);
            return AccessOutcome::Done(now + self.cfg.l2_hit_latency);
        }
        // ---- L2 miss ----
        self.stats.l2_misses += 1;
        let token = self.alloc_token(core, addr, is_write, crit, now);
        match self.l2_mshr.register(addr, MshrTarget { token, is_write }) {
            MshrOutcome::Merged => {
                self.l1_mshr[ci].register(addr, MshrTarget { token, is_write });
                self.train_prefetcher(addr, core, now);
                AccessOutcome::Pending(AccessToken(token))
            }
            MshrOutcome::NewMiss => {
                self.l1_mshr[ci].register(addr, MshrTarget { token, is_write });
                let line_addr = self.l2.line_addr(addr);
                let req = MemRequest::new(self.next_req, line_addr, AccessKind::Read, core)
                    .with_criticality(crit)
                    .with_issue_cycle(now);
                self.next_req += 1;
                self.outbox.push_back(OutboxEntry {
                    req,
                    ready_at: now + self.cfg.l2_to_mem_latency,
                });
                self.train_prefetcher(addr, core, now);
                AccessOutcome::Pending(AccessToken(token))
            }
            MshrOutcome::Full => unreachable!("bounce() ruled out a full L2 MSHR file"),
        }
    }

    fn alloc_token(
        &mut self,
        core: CoreId,
        addr: PhysAddr,
        is_write: bool,
        crit: Criticality,
        now: CpuCycle,
    ) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.info.insert(
            token,
            AccessInfo {
                addr,
                is_write,
                crit,
                start: now,
                core,
            },
        );
        token
    }

    /// Store hit on a non-exclusive L1 line: invalidate other sharers
    /// through the L2 directory.
    fn upgrade(&mut self, core: CoreId, addr: PhysAddr) {
        self.stats.upgrades += 1;
        let line_addr = self.l2.line_addr(addr);
        if let Some(line) = self.l2.peek_mut(line_addr) {
            let sharers = line.sharers;
            line.sharers = 1 << core.index();
            line.dirty = true;
            if sharers & !(1 << core.index()) != 0 {
                self.invalidate_l1_copies(line_addr, sharers, Some(core));
            }
        }
    }

    /// Invalidates all L1 copies of an L2 line in the given sharer set
    /// (except `keep`). Dirty data folds back into the L2 line.
    fn invalidate_l1_copies(&mut self, l2_line: PhysAddr, sharers: u8, keep: Option<CoreId>) {
        let mut dirty = false;
        let halves = self.cfg.l2_line / self.cfg.l1_line;
        for c in 0..self.cfg.num_cores {
            if sharers & (1 << c) == 0 {
                continue;
            }
            if keep.map(|k| k.index()) == Some(c) {
                continue;
            }
            for h in 0..halves {
                if let Some(gone) = self.l1d[c].invalidate(l2_line + h * self.cfg.l1_line) {
                    self.stats.invalidations += 1;
                    dirty |= gone.dirty;
                }
            }
        }
        if dirty {
            if let Some(line) = self.l2.peek_mut(l2_line) {
                line.dirty = true;
            }
        }
    }

    /// Installs a line into `core`'s L1, handling dirty eviction into
    /// the (inclusive) L2.
    fn fill_l1(&mut self, core: CoreId, addr: PhysAddr, exclusive: bool) {
        let ci = core.index();
        let (evicted, line) = self.l1d[ci].insert(addr);
        line.exclusive = exclusive;
        line.dirty = exclusive; // store fills dirty the line immediately
        if let Some(ev) = evicted {
            // Victim write-back folds into L2 (inclusive), or to DRAM
            // in the rare case inclusion was broken by a race.
            if ev.dirty {
                match self.l2.peek_mut(ev.addr) {
                    Some(l2l) => l2l.dirty = true,
                    None => self.emit_writeback(ev.addr, core),
                }
            }
            // Directory: this core no longer holds the victim.
            let l2_victim_line = self.l2.line_addr(ev.addr);
            if let Some(l2l) = self.l2.peek_mut(l2_victim_line) {
                // Only clear the sharer bit if no other half remains.
                let halves = self.cfg.l2_line / self.cfg.l1_line;
                let mut still_holds = false;
                for h in 0..halves {
                    if self.l1d[ci]
                        .peek(l2_victim_line + h * self.cfg.l1_line)
                        .is_some()
                    {
                        still_holds = true;
                    }
                }
                if !still_holds {
                    l2l.sharers &= !(1 << ci);
                }
            }
        }
    }

    fn emit_writeback(&mut self, line_addr: PhysAddr, core: CoreId) {
        self.stats.writebacks += 1;
        let req = MemRequest::new(self.next_req, line_addr, AccessKind::Write, core);
        self.next_req += 1;
        self.outbox.push_back(OutboxEntry { req, ready_at: 0 });
    }

    fn train_prefetcher(&mut self, addr: PhysAddr, core: CoreId, now: CpuCycle) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        let line_addr = self.l2.line_addr(addr);
        for pf_addr in pf.on_demand_miss(line_addr) {
            if self.l2.peek(pf_addr).is_some() || self.l2_mshr.pending(pf_addr) {
                continue;
            }
            if self.l2_mshr.register_prefetch(pf_addr) == MshrOutcome::NewMiss {
                self.stats.prefetches_sent += 1;
                let req = MemRequest::new(self.next_req, pf_addr, AccessKind::Prefetch, core)
                    .with_issue_cycle(now);
                self.next_req += 1;
                self.outbox.push_back(OutboxEntry {
                    req,
                    ready_at: now + self.cfg.l2_to_mem_latency,
                });
            }
        }
    }

    /// Pops the next memory request whose issue latency has elapsed.
    /// If the DRAM queue rejects it, hand it back via
    /// [`Self::unpop_request`].
    pub fn pop_request(&mut self, now: CpuCycle) -> Option<MemRequest> {
        match self.outbox.front() {
            Some(e) if e.ready_at <= now => Some(self.outbox.pop_front().expect("front").req),
            _ => None,
        }
    }

    /// Returns a rejected request to the head of the outbox.
    pub fn unpop_request(&mut self, req: MemRequest) {
        self.outbox.push_front(OutboxEntry { req, ready_at: 0 });
    }

    /// Number of requests waiting to enter the memory controllers.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// CPU cycle at which the oldest outbox request becomes visible to
    /// [`Self::pop_request`], or `None` when the outbox is empty.
    /// Event-horizon accessor for skip-ahead; a rejected request handed
    /// back via [`Self::unpop_request`] reports `ready_at` 0, so a
    /// retry pending on DRAM queue space pins the horizon to the next
    /// cycle.
    pub fn next_request_ready_at(&self) -> Option<CpuCycle> {
        self.outbox.front().map(|e| e.ready_at)
    }

    /// Occupied shared-L2 MSHR entries — snapshotted by the
    /// forward-progress watchdog to show how full the miss machinery
    /// was at the moment of a livelock.
    pub fn l2_mshr_occupancy(&self) -> usize {
        self.l2_mshr.len()
    }

    /// Handles a DRAM completion. Returns one [`CacheCompletion`] for
    /// every core access that this fill satisfies.
    pub fn dram_completed(&mut self, req: &MemRequest, now: CpuCycle) -> Vec<CacheCompletion> {
        if req.kind == AccessKind::Write {
            return Vec::new();
        }
        let line_addr = req.addr;
        // Install into L2 (evicting as needed, enforcing inclusion).
        let (evicted, line) = self.l2.insert(line_addr);
        line.prefetched = req.kind == AccessKind::Prefetch;
        line.sharers = 0;
        if let Some(ev) = evicted {
            let sharers = ev.sharers;
            let mut dirty = ev.dirty;
            // Inclusion: kick the victim out of all L1s; collect dirt.
            let halves = self.cfg.l2_line / self.cfg.l1_line;
            for c in 0..self.cfg.num_cores {
                if sharers & (1 << c) == 0 {
                    continue;
                }
                for h in 0..halves {
                    if let Some(gone) = self.l1d[c].invalidate(ev.addr + h * self.cfg.l1_line) {
                        self.stats.invalidations += 1;
                        dirty |= gone.dirty;
                    }
                }
            }
            if dirty {
                self.emit_writeback(ev.addr, req.core);
            }
        }
        // Satisfy waiting accesses.
        let Some((targets, _wants_exclusive)) = self.l2_mshr.complete(line_addr) else {
            return Vec::new();
        };
        let done = now + self.cfg.fill_latency;
        let mut completions = Vec::new();
        for target in targets {
            let Some(info) = self.info.get(&target.token).copied() else {
                continue;
            };
            // Directory update + L1 fill for the requesting core.
            {
                let line = self.l2.peek_mut(line_addr).expect("just inserted");
                if info.is_write {
                    let sharers = line.sharers;
                    line.sharers = 1 << info.core.index();
                    line.dirty = true;
                    if sharers & !(1 << info.core.index()) != 0 {
                        self.invalidate_l1_copies(line_addr, sharers, Some(info.core));
                    }
                } else {
                    line.sharers |= 1 << info.core.index();
                }
            }
            self.fill_l1(info.core, info.addr, info.is_write);
            // Wake everything merged behind this L1 line.
            if let Some((l1_targets, _)) = self.l1_mshr[info.core.index()].complete(info.addr) {
                for lt in l1_targets {
                    if let Some(i) = self.info.remove(&lt.token) {
                        let latency = done - i.start;
                        if i.crit.is_critical() {
                            self.stats.miss_latency_critical.record(latency);
                        } else {
                            self.stats.miss_latency_noncritical.record(latency);
                        }
                        completions.push(CacheCompletion {
                            core: i.core,
                            token: AccessToken(lt.token),
                            done,
                        });
                    }
                }
            }
        }
        completions
    }
}

impl critmem_common::Snapshot for CacheHierarchy {
    /// Serializes every mutable field; the geometry (`cfg`) is supplied
    /// by the constructor on restore. The in-flight `info` map is
    /// encoded sorted by token for determinism; the outbox and MSHR
    /// files keep their in-memory order (it is architectural state).
    fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        for l1 in &self.l1d {
            l1.save_state(w);
        }
        for m in &self.l1_mshr {
            m.save_state(w);
        }
        self.l2.save_state(w);
        self.l2_mshr.save_state(w);
        if let Some(pf) = &self.prefetcher {
            w.put_bool(true);
            pf.save_state(w);
        } else {
            w.put_bool(false);
        }
        w.put_u32(self.outbox.len() as u32);
        for e in &self.outbox {
            e.req.encode(w);
            w.put_u64(e.ready_at);
        }
        let mut tokens: Vec<u64> = self.info.keys().copied().collect();
        tokens.sort_unstable();
        w.put_u32(tokens.len() as u32);
        for t in tokens {
            let i = &self.info[&t];
            w.put_u64(t);
            w.put_u64(i.addr);
            w.put_bool(i.is_write);
            w.put_u64(i.crit.magnitude());
            w.put_u64(i.start);
            w.put_u8(i.core.0);
        }
        w.put_u64(self.next_token);
        w.put_u64(self.next_req);
        self.stats.encode(w);
    }

    fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<(), critmem_common::codec::CodecError> {
        for l1 in &mut self.l1d {
            l1.load_state(r)?;
        }
        for m in &mut self.l1_mshr {
            m.load_state(r)?;
        }
        self.l2.load_state(r)?;
        self.l2_mshr.load_state(r)?;
        let has_pf = r.get_bool()?;
        match (&mut self.prefetcher, has_pf) {
            (Some(pf), true) => pf.load_state(r)?,
            (None, false) => {}
            (pf, _) => {
                return Err(critmem_common::codec::CodecError {
                    message: format!(
                        "prefetcher presence mismatch: snapshot {has_pf}, config {}",
                        pf.is_some()
                    ),
                    offset: r.position(),
                })
            }
        }
        self.outbox.clear();
        for _ in 0..r.get_u32()? {
            let req = MemRequest::decode(r)?;
            let ready_at = r.get_u64()?;
            self.outbox.push_back(OutboxEntry { req, ready_at });
        }
        self.info.clear();
        for _ in 0..r.get_u32()? {
            let token = r.get_u64()?;
            let addr = r.get_u64()?;
            let is_write = r.get_bool()?;
            let crit = Criticality::ranked(r.get_u64()?);
            let start = r.get_u64()?;
            let core = CoreId(r.get_u8()?);
            self.info.insert(
                token,
                AccessInfo {
                    addr,
                    is_write,
                    crit,
                    start,
                    core,
                },
            );
        }
        self.next_token = r.get_u64()?;
        self.next_req = r.get_u64()?;
        self.stats = HierarchyStats::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(cores: usize) -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::paper_baseline(cores))
    }

    fn load(h: &mut CacheHierarchy, core: u8, addr: u64, now: u64) -> AccessOutcome {
        h.access(
            CoreId(core),
            addr,
            CacheAccessKind::Load,
            Criticality::non_critical(),
            now,
        )
    }

    fn drain_and_complete(h: &mut CacheHierarchy, now: u64) -> Vec<CacheCompletion> {
        let mut out = Vec::new();
        while let Some(req) = h.pop_request(now) {
            if req.kind != AccessKind::Write {
                out.extend(h.dram_completed(&req, now));
            }
        }
        out
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits() {
        let mut h = hierarchy(1);
        let out = load(&mut h, 0, 0x1000, 0);
        assert!(matches!(out, AccessOutcome::Pending(_)));
        let completions = drain_and_complete(&mut h, 100);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].done, 100 + 8); // fill latency
        assert_eq!(completions[0].core, CoreId(0));
        // Second access: L1 hit.
        let out = load(&mut h, 0, 0x1000, 200);
        assert_eq!(out, AccessOutcome::Done(200 + 3));
    }

    #[test]
    fn l2_hit_after_other_core_fetched() {
        let mut h = hierarchy(2);
        load(&mut h, 0, 0x1000, 0);
        drain_and_complete(&mut h, 100);
        // Core 1 misses L1 but hits L2.
        let out = load(&mut h, 1, 0x1000, 200);
        assert_eq!(out, AccessOutcome::Done(200 + 32));
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn merged_accesses_complete_together() {
        let mut h = hierarchy(1);
        let a = load(&mut h, 0, 0x1000, 0);
        let b = load(&mut h, 0, 0x1008, 1); // same L1 line
        assert!(matches!(a, AccessOutcome::Pending(_)));
        assert!(matches!(b, AccessOutcome::Pending(_)));
        let completions = drain_and_complete(&mut h, 100);
        assert_eq!(completions.len(), 2);
    }

    #[test]
    fn two_l1_lines_one_l2_line() {
        let mut h = hierarchy(1);
        let a = load(&mut h, 0, 0x1000, 0);
        let b = load(&mut h, 0, 0x1020, 1); // other half of the 64B line
        assert!(matches!(a, AccessOutcome::Pending(_)));
        assert!(matches!(b, AccessOutcome::Pending(_)));
        // Only one DRAM request is generated.
        let mut reqs = 0;
        let mut completions = Vec::new();
        while let Some(req) = h.pop_request(50) {
            reqs += 1;
            completions.extend(h.dram_completed(&req, 100));
        }
        assert_eq!(reqs, 1);
        assert_eq!(completions.len(), 2);
        // Both halves now hit in L1.
        assert!(matches!(
            load(&mut h, 0, 0x1000, 200),
            AccessOutcome::Done(_)
        ));
        assert!(matches!(
            load(&mut h, 0, 0x1020, 200),
            AccessOutcome::Done(_)
        ));
    }

    #[test]
    fn store_to_shared_line_invalidates_other_l1() {
        let mut h = hierarchy(2);
        // Both cores read the line.
        load(&mut h, 0, 0x1000, 0);
        drain_and_complete(&mut h, 50);
        load(&mut h, 1, 0x1000, 100); // L2 hit, fills core 1's L1
                                      // Core 0 stores: upgrade should invalidate core 1's copy.
        let out = h.access(
            CoreId(0),
            0x1000,
            CacheAccessKind::Store,
            Criticality::non_critical(),
            200,
        );
        match out {
            AccessOutcome::Done(t) => assert_eq!(t, 200 + 3 + 12),
            other => panic!("expected upgraded store hit, got {other:?}"),
        }
        assert_eq!(h.stats().upgrades, 1);
        assert!(h.stats().invalidations >= 1);
        // Core 1 now misses in L1 (hits L2).
        let out = load(&mut h, 1, 0x1000, 300);
        assert_eq!(out, AccessOutcome::Done(300 + 32));
    }

    #[test]
    fn store_miss_fetches_exclusive() {
        let mut h = hierarchy(2);
        let out = h.access(
            CoreId(0),
            0x2000,
            CacheAccessKind::Store,
            Criticality::non_critical(),
            0,
        );
        assert!(matches!(out, AccessOutcome::Pending(_)));
        drain_and_complete(&mut h, 100);
        // Subsequent store hits without an upgrade.
        let out = h.access(
            CoreId(0),
            0x2000,
            CacheAccessKind::Store,
            Criticality::non_critical(),
            200,
        );
        assert_eq!(out, AccessOutcome::Done(200 + 3));
        assert_eq!(h.stats().upgrades, 0);
    }

    #[test]
    fn criticality_rides_the_memory_request() {
        let mut h = hierarchy(1);
        h.access(
            CoreId(0),
            0x3000,
            CacheAccessKind::Load,
            Criticality::ranked(77),
            0,
        );
        let req = h.pop_request(100).expect("request emitted");
        assert_eq!(req.crit.magnitude(), 77);
        assert_eq!(req.kind, AccessKind::Read);
    }

    #[test]
    fn miss_latency_split_by_criticality() {
        let mut h = hierarchy(1);
        h.access(
            CoreId(0),
            0x3000,
            CacheAccessKind::Load,
            Criticality::ranked(9),
            0,
        );
        h.access(
            CoreId(0),
            0x9000,
            CacheAccessKind::Load,
            Criticality::non_critical(),
            0,
        );
        while let Some(req) = h.pop_request(1_000) {
            h.dram_completed(&req, 500);
        }
        assert_eq!(h.stats().miss_latency_critical.count(), 1);
        assert_eq!(h.stats().miss_latency_noncritical.count(), 1);
        assert_eq!(h.stats().miss_latency_critical.mean(), Some(508.0));
    }

    #[test]
    fn l1_mshr_full_returns_retry() {
        let mut cfg = HierarchyConfig::paper_baseline(1);
        cfg.l1_mshrs = 2;
        let mut h = CacheHierarchy::new(cfg);
        assert!(matches!(
            load(&mut h, 0, 0x0000, 0),
            AccessOutcome::Pending(_)
        ));
        assert!(matches!(
            load(&mut h, 0, 0x4000, 0),
            AccessOutcome::Pending(_)
        ));
        assert_eq!(load(&mut h, 0, 0x8000, 0), AccessOutcome::Retry);
    }

    #[test]
    fn l2_mshr_full_returns_retry_and_releases_l1_entry() {
        let mut cfg = HierarchyConfig::paper_baseline(1);
        cfg.l2_mshrs = 1;
        let mut h = CacheHierarchy::new(cfg);
        assert!(matches!(
            load(&mut h, 0, 0x0000, 0),
            AccessOutcome::Pending(_)
        ));
        assert_eq!(load(&mut h, 0, 0x4000, 0), AccessOutcome::Retry);
        // After the first completes, the retry succeeds.
        drain_and_complete(&mut h, 100);
        assert!(matches!(
            load(&mut h, 0, 0x4000, 200),
            AccessOutcome::Pending(_)
        ));
    }

    #[test]
    fn a_bounce_counts_and_changes_nothing() {
        use critmem_common::codec::ByteWriter;
        use critmem_common::Snapshot;
        let mut cfg = HierarchyConfig::paper_baseline(2);
        cfg.l1_mshrs = 2;
        cfg.l2_mshrs = 3;
        let mut h = CacheHierarchy::new(cfg);
        // Core 0 fills its L1 file; core 1 takes the last L2 entry.
        for (core, addr) in [(0, 0x0000), (0, 0x4000), (1, 0x8000)] {
            assert!(matches!(
                load(&mut h, core, addr, 0),
                AccessOutcome::Pending(_)
            ));
        }
        assert_eq!(h.bounce(CoreId(0), 0xc000), Some(Bounce::L1));
        assert_eq!(h.bounce(CoreId(1), 0xc000), Some(Bounce::Shared));
        // Merges onto a pending line still proceed, in either file.
        assert_eq!(h.bounce(CoreId(0), 0x4008), None);
        assert_eq!(h.bounce(CoreId(1), 0x0000), None);
        let state = |h: &CacheHierarchy| {
            let mut w = ByteWriter::new();
            h.save_state(&mut w);
            w.into_bytes()
        };
        let counters = |h: &CacheHierarchy| {
            let mut w = ByteWriter::new();
            h.stats().encode(&mut w);
            let mshr = |m: &MshrFile| (m.len(), m.peak(), m.merges(), m.rejections());
            (
                w.into_bytes(),
                [h.l1d[0].hit_miss(), h.l1d[1].hit_miss(), h.l2.hit_miss()],
                [mshr(&h.l1_mshr[0]), mshr(&h.l1_mshr[1]), mshr(&h.l2_mshr)],
            )
        };
        let (before, counted) = (state(&h), counters(&h));
        for core in [0, 1] {
            for kind in [CacheAccessKind::Load, CacheAccessKind::Store] {
                let out = h.access(CoreId(core), 0xc000, kind, Criticality::ranked(5), 1);
                assert_eq!(out, AccessOutcome::Retry);
            }
        }
        assert_eq!(counters(&h), counted);
        assert_eq!(state(&h), before, "a bounce changed hierarchy state");
    }

    #[test]
    fn prefetcher_emits_lower_priority_reads() {
        let mut cfg = HierarchyConfig::paper_baseline(1);
        cfg.prefetch = Some(PrefetchConfig::default());
        let mut h = CacheHierarchy::new(cfg);
        load(&mut h, 0, 0, 0);
        load(&mut h, 0, 64, 1);
        let mut kinds = Vec::new();
        while let Some(req) = h.pop_request(100) {
            kinds.push(req.kind);
        }
        assert!(kinds.contains(&AccessKind::Prefetch));
        assert_eq!(kinds.iter().filter(|k| **k == AccessKind::Read).count(), 2);
        assert!(h.stats().prefetches_sent >= 1);
    }

    #[test]
    fn prefetched_line_hit_counts_useful() {
        let mut cfg = HierarchyConfig::paper_baseline(1);
        cfg.prefetch = Some(PrefetchConfig::default());
        let mut h = CacheHierarchy::new(cfg);
        load(&mut h, 0, 0, 0);
        load(&mut h, 0, 64, 1);
        drain_and_complete(&mut h, 100);
        // Line 128 was prefetched; demanding it is an L2 hit.
        let out = load(&mut h, 0, 128, 200);
        assert!(matches!(out, AccessOutcome::Done(_)));
        assert_eq!(h.stats().prefetch_useful, 1);
    }

    #[test]
    fn outbox_respects_issue_latency() {
        let mut h = hierarchy(1);
        load(&mut h, 0, 0x1000, 100);
        assert!(h.pop_request(100).is_none(), "request visible too early");
        assert!(h.pop_request(100 + 12).is_some());
    }

    #[test]
    fn unpop_preserves_order() {
        let mut h = hierarchy(1);
        load(&mut h, 0, 0x1000, 0);
        load(&mut h, 0, 0x9000, 0);
        let first = h.pop_request(50).unwrap();
        let id = first.id;
        h.unpop_request(first);
        assert_eq!(h.pop_request(50).unwrap().id, id);
    }
}
