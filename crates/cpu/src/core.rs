//! The cycle-level out-of-order core model.
//!
//! Implements the Table 1 microarchitecture at the fidelity the paper's
//! mechanism depends on: a 128-entry ROB with in-order 4-wide commit,
//! a 32-entry load queue whose occupancy gates dispatch (Figure 9),
//! dependence-driven out-of-order issue (operand wakeup feeding a ready
//! list) over a bounded window with per-class functional-unit ports,
//! branch-misprediction redirect stalls, a post-commit store buffer,
//! and — centrally — the commit stage's ROB-head block detection that
//! trains the Commit Block Predictor (Figure 2 of the paper).
//!
//! Deliberate simplifications (recorded in DESIGN.md): no wrong-path
//! execution (a mispredicted branch stalls the front end for the
//! redirect penalty once it resolves), perfect memory disambiguation
//! (Table 1 assumes it too), and an always-hitting L1I (the synthetic
//! workloads' code footprints are tiny).

use crate::config::CoreConfig;
use crate::instr::{Instr, InstrKind};
use crate::predictor::LoadCriticalityPredictor;
use critmem_cache::{AccessOutcome, Bounce, CacheAccessKind, CacheHierarchy};
use critmem_common::{CoreId, CpuCycle, Criticality, Histogram, Pc, PhysAddr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// An infinite dynamic-instruction stream (implemented by the workload
/// generators).
pub trait InstrSource {
    /// Produces the next dynamic instruction.
    fn next_instr(&mut self) -> Instr;

    /// Appends the generator's mutable state for checkpointing. The
    /// default saves nothing (stateless/scripted sources).
    fn save_state(&self, _w: &mut critmem_common::codec::ByteWriter) {}

    /// Restores state captured by [`InstrSource::save_state`] onto a
    /// freshly constructed generator of the same configuration.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    fn load_state(
        &mut self,
        _r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<(), critmem_common::codec::CodecError> {
        Ok(())
    }
}

/// Statistics gathered by one core.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Cycles this core was stepped.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Branches committed.
    pub branches: u64,
    /// Loads that blocked the ROB head (stall >= min_block_cycles).
    pub blocked_loads: u64,
    /// Loads whose ROB-head stall was "long" (>= long_block_cycles) —
    /// the Figure 1 numerator.
    pub long_blocked_loads: u64,
    /// Cycles the ROB head was blocked by an incomplete load.
    pub block_cycles: u64,
    /// Sum of stalls of long-blocked loads — Figure 1's right panel.
    pub long_block_cycles: u64,
    /// Cycles dispatch stalled because the load queue was full.
    pub lq_full_cycles: u64,
    /// Cycles dispatch stalled for a branch-mispredict redirect.
    pub redirect_stall_cycles: u64,
    /// Cycles commit stalled because the store buffer was full.
    pub sb_full_cycles: u64,
    /// Loads issued to the memory hierarchy.
    pub issued_loads: u64,
    /// Issued loads carrying a critical prediction.
    pub issued_critical_loads: u64,
    /// Distribution of ROB-head stall durations of committed loads.
    pub stall_histogram: Histogram,
}

impl CoreStats {
    /// Instructions committed per cycle stepped.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut critmem_common::codec::ByteWriter) {
        for v in [
            self.cycles,
            self.committed,
            self.loads,
            self.stores,
            self.branches,
            self.blocked_loads,
            self.long_blocked_loads,
            self.block_cycles,
            self.long_block_cycles,
            self.lq_full_cycles,
            self.redirect_stall_cycles,
            self.sb_full_cycles,
            self.issued_loads,
            self.issued_critical_loads,
        ] {
            w.put_u64(v);
        }
        self.stall_histogram.encode(w);
    }

    /// Deserializes journaled core statistics.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    pub fn decode(
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<Self, critmem_common::codec::CodecError> {
        Ok(CoreStats {
            cycles: r.get_u64()?,
            committed: r.get_u64()?,
            loads: r.get_u64()?,
            stores: r.get_u64()?,
            branches: r.get_u64()?,
            blocked_loads: r.get_u64()?,
            long_blocked_loads: r.get_u64()?,
            block_cycles: r.get_u64()?,
            long_block_cycles: r.get_u64()?,
            lq_full_cycles: r.get_u64()?,
            redirect_stall_cycles: r.get_u64()?,
            sb_full_cycles: r.get_u64()?,
            issued_loads: r.get_u64()?,
            issued_critical_loads: r.get_u64()?,
            stall_histogram: Histogram::decode(r)?,
        })
    }
}

impl critmem_common::Observable for CoreStats {
    /// Reports this core's pipeline metrics. The caller sets the
    /// component path (e.g. `cpu.core0`) first.
    fn observe(&self, v: &mut dyn critmem_common::MetricVisitor) {
        v.counter("cycles", "cpu-cycles", self.cycles);
        v.counter("committed", "instructions", self.committed);
        v.gauge("ipc", "instructions-per-cycle", self.ipc());
        v.counter("loads", "instructions", self.loads);
        v.counter("stores", "instructions", self.stores);
        v.counter("rob_head_blocked_cycles", "cpu-cycles", self.block_cycles);
        v.counter("blocked_loads", "loads", self.blocked_loads);
        v.counter("long_blocked_loads", "loads", self.long_blocked_loads);
        v.counter("lq_full_cycles", "cpu-cycles", self.lq_full_cycles);
        v.counter("sb_full_cycles", "cpu-cycles", self.sb_full_cycles);
        v.counter("issued_loads", "loads", self.issued_loads);
        v.counter("issued_critical_loads", "loads", self.issued_critical_loads);
    }
}

/// Threshold (cycles) above which a ROB-head block counts as
/// "long-latency" for the Figure 1 statistics.
pub const LONG_BLOCK_CYCLES: u64 = 24;

/// Events a [`Core::step`] surfaces to the system.
#[derive(Debug, Clone, Default)]
pub struct StepEvents {
    /// A load began blocking the ROB head this cycle (used by the §5.1
    /// naive forwarding scheme).
    pub block_started: Option<BlockStart>,
}

/// Details of a load that just started blocking the ROB head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStart {
    /// Static PC of the load.
    pub pc: Pc,
    /// Effective address.
    pub addr: PhysAddr,
}

#[derive(Debug, Clone)]
struct RobEntry {
    instr: Instr,
    seq: u64,
    issued: bool,
    completed: bool,
    waiting_mem: bool,
    consumers: u32,
    block_start: Option<CpuCycle>,
    block_reported: bool,
    /// Source operands still waiting on an incomplete producer; an
    /// unissued entry is dependence-ready at 0.
    pending: u8,
    /// Head of the list of operands waiting on this entry's result.
    waiters: Waiter,
    /// `next[op]` continues the waiter list that source `op` is on.
    next: [Waiter; 2],
}

impl RobEntry {
    fn new(instr: Instr, seq: u64) -> Self {
        RobEntry {
            instr,
            seq,
            issued: false,
            completed: false,
            waiting_mem: false,
            consumers: 0,
            block_start: None,
            block_reported: false,
            pending: 0,
            waiters: Waiter::NONE,
            next: [Waiter::NONE; 2],
        }
    }
}

/// A link of an operand waiter list: source operand `op` of the ROB
/// entry `seq`, packed as `seq << 1 | op`. The links live in the ROB
/// entries, so the lists need no buffer of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter(u64);

impl Waiter {
    const NONE: Waiter = Waiter(u64::MAX);

    fn new(seq: u64, op: usize) -> Self {
        Waiter(seq << 1 | op as u64)
    }

    fn seq(self) -> u64 {
        self.0 >> 1
    }

    fn op(self) -> usize {
        (self.0 & 1) as usize
    }
}

/// What the last step's memory accesses bounced off a full MSHR file
/// ([`CacheHierarchy::bounce`]). A bounce changes nothing, so until an
/// entry frees, retrying it is quiet. Engine state, not architectural
/// state: never serialized, and cleared by every fill.
#[derive(Debug, Clone, Copy, Default)]
struct Bounced {
    /// Ready loads that bounced at issue.
    loads: usize,
    /// The store buffer's oldest `Waiting` entry bounced.
    store: bool,
    /// Some bounce was off the shared L2 file, which any core's fill
    /// may free.
    shared: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreState {
    Waiting,
    Inflight(u64),
}

/// One out-of-order core.
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    rob: VecDeque<RobEntry>,
    /// Sequence numbers of the unissued ROB entries, oldest first: the
    /// issue queue that `issue` and `horizon` walk. Derived from the
    /// ROB, so never serialized.
    unissued: Vec<u64>,
    /// The dependence-ready subset of `unissued`, oldest first: what
    /// `issue` and `horizon` walk. Entries join when their last
    /// producer completes and leave when they issue. Derived state too.
    ready: Vec<u64>,
    base_seq: u64,
    next_seq: u64,
    lq_used: usize,
    sq_used: usize,
    store_buffer: VecDeque<(PhysAddr, StoreState)>,
    /// Fixed-latency (and memory-resolved) completions: (cycle, seq).
    completions: BinaryHeap<Reverse<(CpuCycle, u64)>>,
    /// In-flight load/store tokens -> ROB seq (or u64::MAX for store
    /// buffer drains).
    pending_mem: HashMap<u64, u64>,
    /// Memory completions received but not yet applied.
    mem_ready: Vec<(CpuCycle, u64)>,
    fetch_stall_until: CpuCycle,
    unresolved_branches: usize,
    peeked: Option<Instr>,
    predictor: Box<dyn LoadCriticalityPredictor>,
    target: u64,
    dispatched: u64,
    bounced: Bounced,
    stats: CoreStats,
    /// QoS slowdown budget in thousandths (see
    /// [`crate::AgentClass::default_qos_millis`]). Configuration, not
    /// mutable state: deliberately outside `save_state`.
    qos_millis: u32,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("committed", &self.stats.committed)
            .field("rob", &self.rob.len())
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core that will execute `target` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(
        id: CoreId,
        cfg: CoreConfig,
        predictor: Box<dyn LoadCriticalityPredictor>,
        target: u64,
    ) -> Self {
        cfg.validate().expect("invalid core configuration");
        Core {
            id,
            cfg,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            unissued: Vec::with_capacity(cfg.rob_entries),
            ready: Vec::with_capacity(cfg.rob_entries),
            base_seq: 0,
            next_seq: 0,
            lq_used: 0,
            sq_used: 0,
            store_buffer: VecDeque::with_capacity(cfg.store_buffer),
            completions: BinaryHeap::new(),
            pending_mem: HashMap::new(),
            mem_ready: Vec::new(),
            fetch_stall_until: 0,
            unresolved_branches: 0,
            peeked: None,
            predictor,
            target,
            dispatched: 0,
            bounced: Bounced::default(),
            stats: CoreStats::default(),
            qos_millis: crate::AgentClass::Ooo.default_qos_millis(),
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// QoS slowdown budget in thousandths.
    pub fn qos_budget_millis(&self) -> u32 {
        self.qos_millis
    }

    /// Sets the QoS slowdown budget (thousandths; builder style).
    #[must_use]
    pub fn with_qos_budget_millis(mut self, millis: u32) -> Self {
        self.qos_millis = millis;
        self
    }

    /// Whether the core has committed its instruction target.
    pub fn done(&self) -> bool {
        self.stats.committed >= self.target
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The predictor driving this core's criticality annotations.
    pub fn predictor(&self) -> &dyn LoadCriticalityPredictor {
        self.predictor.as_ref()
    }

    /// Replaces the criticality predictor with a fresh one, keeping all
    /// other core state — the warm-start engine's component-swap hook.
    pub fn replace_predictor(&mut self, predictor: Box<dyn LoadCriticalityPredictor>) {
        self.predictor = predictor;
    }

    /// Whether the load queue is currently full (Figure 9 / §5.4
    /// analysis).
    pub fn lq_full(&self) -> bool {
        self.lq_used >= self.cfg.lq_entries
    }

    /// PC of the instruction at the ROB head (`None` when empty) — the
    /// watchdog snapshots this to show where a stuck core is blocked.
    pub fn rob_head_pc(&self) -> Option<Pc> {
        self.rob.front().map(|e| e.instr.pc)
    }

    /// Delivers a memory completion (from the cache hierarchy) for a
    /// token this core issued.
    ///
    /// The fill has already freed this core's L1 MSHR entry, so a
    /// bounce recorded by the last step may now proceed.
    pub fn mem_completed(&mut self, token: u64, done: CpuCycle) {
        self.mem_ready.push((done, token));
        self.bounced = Bounced::default();
    }

    /// The MSHR file the last step's accesses bounced off, if any did
    /// ([`Bounce::Shared`] when any was off the shared file). A caller
    /// that lets this core sleep must step it on the cycle after a fill
    /// for it while this is `Some`, since the fill frees the entry
    /// before its data arrives; and, using [`Core::wake_cycle`], on the
    /// cycle after any fill at all while this is [`Bounce::Shared`].
    pub fn bounced(&self) -> Option<Bounce> {
        let any = self.bounced.loads > 0 || self.bounced.store;
        let file = if self.bounced.shared {
            Bounce::Shared
        } else {
            Bounce::L1
        };
        any.then_some(file)
    }

    #[inline]
    fn entry(&self, seq: u64) -> Option<&RobEntry> {
        seq.checked_sub(self.base_seq)
            .and_then(|i| self.rob.get(i as usize))
    }

    #[inline]
    fn entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        seq.checked_sub(self.base_seq)
            .and_then(|i| self.rob.get_mut(i as usize))
    }

    /// The ROB index of `seq`, which must not have committed.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq - self.base_seq) as usize
    }

    /// Whether `unissued` lists exactly the ROB's unissued entries, in
    /// order; each holds the pending count a [`Core::dep_ready`]
    /// recount gives; `ready` lists exactly those at zero, in order;
    /// and the waiter lists link every pending operand to its
    /// producer. Linear and allocation-free, because debug builds run
    /// it on every `issue`.
    fn unissued_matches_rob(&self) -> bool {
        let mut ready = self.ready.iter().peekable();
        let lists_match = self.unissued.windows(2).all(|p| p[0] < p[1])
            && self.rob.iter().filter(|e| !e.issued).count() == self.unissued.len()
            && self.unissued.iter().all(|&seq| {
                let Some(e) = self.entry(seq) else {
                    return false;
                };
                let waits = [e.instr.src1, e.instr.src2]
                    .into_iter()
                    .filter(|&d| !self.dep_ready(seq, d))
                    .count();
                let listed = ready.next_if_eq(&&seq).is_some();
                !e.issued && usize::from(e.pending) == waits && listed == (waits == 0)
            })
            && ready.next().is_none();
        // Walk every waiter list, at most as many links as there are
        // pending operands (a cycle would run past that).
        let pending: usize = self.rob.iter().map(|e| usize::from(e.pending)).sum();
        let mut links = 0;
        lists_match
            && self.rob.iter().all(|p| {
                let mut w = p.waiters;
                while w != Waiter::NONE && links <= pending {
                    links += 1;
                    let Some(e) = self.entry(w.seq()) else {
                        return false;
                    };
                    let dist = [e.instr.src1, e.instr.src2][w.op()];
                    if dist.map(|d| w.seq() - u64::from(d)) != Some(p.seq) {
                        return false;
                    }
                    w = e.next[w.op()];
                }
                true
            })
            && links == pending
    }

    /// Links `seq`'s source operands onto the waiter lists of the
    /// producers they wait on, and lists it ready if they wait on none.
    /// `seq` must be younger than every entry in `ready`.
    fn link_operands(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let instr = self.rob[slot].instr;
        let mut pending = 0;
        for (op, dist) in [instr.src1, instr.src2].into_iter().enumerate() {
            if self.dep_ready(seq, dist) {
                continue;
            }
            // Not ready, so `dist` is set and its producer in the ROB
            // (a distance of 0 makes the entry its own producer).
            let producer = self.slot(seq - u64::from(dist.unwrap_or(0)));
            let head = std::mem::replace(&mut self.rob[producer].waiters, Waiter::new(seq, op));
            self.rob[slot].next[op] = head;
            pending += 1;
        }
        self.rob[slot].pending = pending;
        if pending == 0 {
            self.ready.push(seq);
        }
    }

    /// Wakes the operands waiting on `seq`, which has just completed:
    /// each entry left with none pending joins `ready` in order.
    fn wake_waiters(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let mut w = std::mem::replace(&mut self.rob[slot].waiters, Waiter::NONE);
        while w != Waiter::NONE {
            let waiter = w.seq();
            let slot = self.slot(waiter);
            let e = &mut self.rob[slot];
            w = e.next[w.op()];
            e.pending -= 1;
            if e.pending == 0 {
                let at = self.ready.partition_point(|&s| s < waiter);
                self.ready.insert(at, waiter);
            }
        }
    }

    /// The youngest sequence number inside the issue window: the
    /// `issue_window`-th unissued entry, or `u64::MAX` when fewer are
    /// unissued. Entries that are not ready count against the window.
    fn window_end(&self) -> u64 {
        self.unissued
            .get(self.cfg.issue_window - 1)
            .copied()
            .unwrap_or(u64::MAX)
    }

    fn dep_ready(&self, seq: u64, dist: Option<u16>) -> bool {
        let Some(d) = dist else { return true };
        let Some(producer) = seq.checked_sub(u64::from(d)) else {
            return true;
        };
        if producer < self.base_seq {
            return true; // already committed
        }
        self.entry(producer).map(|e| e.completed).unwrap_or(true)
    }

    /// The earliest future cycle at which stepping this core could do
    /// anything beyond batch-replayable counter updates, assuming no
    /// external event (memory completion, forward delivery) arrives
    /// first. Returns at least `now + 1`; `u64::MAX` means "inert until
    /// something external happens".
    ///
    /// This is the core's half of the skip-ahead contract: for every
    /// cycle `c` in `now + 1 .. quiescent_until(now)`, `step(c, ..)`
    /// would leave all architectural state unchanged and only bump the
    /// per-cycle stall counters that [`Core::skip`] replays in closed
    /// form. Each pipeline stage is mirrored explicitly:
    ///
    /// * **commit** — a completed head retires (event at `now + 1`)
    ///   unless it is a store facing a full store buffer (pure
    ///   `sb_full_cycles` counter); a blocked load head is inert only
    ///   after its one-shot block transitions (and the §5.1 forwarding
    ///   event they surface) have fired.
    /// * **store buffer** — a `Waiting` entry retries the hierarchy
    ///   every cycle, unless the last drain bounced off this core's
    ///   full L1 MSHR file.
    /// * **issue** — any entry of the ready list inside the issue
    ///   window (its dependence-ready unissued entries no younger than
    ///   the window's last) reaches a functional unit or probes the cache,
    ///   except the ready loads the last step bounced off the L1 MSHR
    ///   file (and, when they took every load unit, the ready loads
    ///   behind them, which find none): a retried bounce changes
    ///   nothing, and only this core's own fill frees an L1 entry,
    ///   which reaches the core through [`Core::mem_completed`] and
    ///   clears the record (a caller that sleeps the core wakes it then;
    ///   see [`Core::bounced`]). A bounce off the shared L2 file stays
    ///   work here, because another core's fill frees it unseen; see
    ///   [`Core::wake_cycle`].
    /// * **dispatch** — mirrors `dispatch`'s precedence: redirect
    ///   stall (counter until `fetch_stall_until`), fetch-target cap
    ///   and full ROB (inert), then a stashed structurally-stalled
    ///   instruction (pure `lq_full_cycles` counter for loads; a
    ///   missing stash would pull the instruction source).
    /// * **events** — pending fixed-latency completions, delivered
    ///   memory completions, and the predictor's periodic reset bound
    ///   the horizon.
    pub fn quiescent_until(&self, now: CpuCycle) -> CpuCycle {
        self.horizon(now, false)
    }

    /// [`Core::quiescent_until`], except that a bounce off the shared
    /// L2 MSHR file also counts as quiet. Only a caller that sees every
    /// fill may use it, waking the core as [`Core::bounced`] says: any
    /// fill can free a shared entry (or bring the line in).
    pub fn wake_cycle(&self, now: CpuCycle) -> CpuCycle {
        self.horizon(now, true)
    }

    fn horizon(&self, now: CpuCycle, shared_bounce_is_quiet: bool) -> CpuCycle {
        let nxt = now + 1;
        let quiet = if self.bounced.shared && !shared_bounce_is_quiet {
            Bounced::default()
        } else {
            self.bounced
        };
        if let Some(head) = self.rob.front() {
            if head.completed {
                if !(head.instr.kind.is_store() && self.store_buffer.len() >= self.cfg.store_buffer)
                {
                    return nxt;
                }
            } else if head.instr.kind.is_load()
                && head.issued
                && !(head.block_start.is_some() && head.block_reported)
            {
                return nxt;
            }
        }
        if !quiet.store
            && self
                .store_buffer
                .iter()
                .any(|(_, s)| *s == StoreState::Waiting)
        {
            return nxt;
        }
        // Loads take load units in window order, so the bounced loads
        // are the first ready ones; if they took every unit, the ready
        // loads behind them get none either.
        let mut quiet_loads = if quiet.loads == self.cfg.ld_units {
            usize::MAX
        } else {
            quiet.loads
        };
        let end = self.window_end();
        for &seq in self.ready.iter().take_while(|&&s| s <= end) {
            if quiet_loads > 0 && self.rob[self.slot(seq)].instr.kind.is_load() {
                quiet_loads -= 1;
                continue;
            }
            return nxt;
        }
        let mut horizon = CpuCycle::MAX;
        if nxt < self.fetch_stall_until {
            horizon = self.fetch_stall_until;
        } else if self.dispatched < self.target + self.cfg.rob_entries as u64
            && self.rob.len() < self.cfg.rob_entries
        {
            match &self.peeked {
                Some(i) => {
                    let stalled = match i.kind {
                        InstrKind::Load { .. } => self.lq_used >= self.cfg.lq_entries,
                        InstrKind::Store { .. } => self.sq_used >= self.cfg.sq_entries,
                        InstrKind::Branch { .. } => {
                            self.unresolved_branches >= self.cfg.max_unresolved_branches
                        }
                        _ => false,
                    };
                    if !stalled {
                        return nxt;
                    }
                }
                None => return nxt,
            }
        }
        if let Some(&Reverse((at, _))) = self.completions.peek() {
            horizon = horizon.min(at);
        }
        for &(done, _) in &self.mem_ready {
            horizon = horizon.min(done);
        }
        horizon = horizon.min(self.predictor.next_event_cycle(now));
        horizon.max(nxt)
    }

    /// Batch-advances `n` cycles that [`Core::quiescent_until`] proved
    /// inert (the caller guarantees `now + n < quiescent_until(now)`),
    /// replaying exactly the per-cycle counters a serial run of
    /// `step(now + 1) .. step(now + n)` would have accumulated.
    ///
    /// Two callers rely on it: the system-wide skip-ahead, which jumps
    /// every core across a window at once, and per-core sleep, which
    /// calls `skip(c - 1, 1)` on each cycle `c` that one core spends
    /// below its own horizon ([`Core::quiescent_until`] or
    /// [`Core::wake_cycle`]) while the others step. A core asleep on a
    /// bounce needs nothing more: retrying a bounce counts nothing.
    pub fn skip(&mut self, now: CpuCycle, n: u64) {
        self.stats.cycles += n;
        if let Some(head) = self.rob.front() {
            if !head.completed && head.instr.kind.is_load() && head.issued {
                self.stats.block_cycles += n;
            } else if head.completed
                && head.instr.kind.is_store()
                && self.store_buffer.len() >= self.cfg.store_buffer
            {
                self.stats.sb_full_cycles += n;
            }
        }
        if now + 1 < self.fetch_stall_until {
            self.stats.redirect_stall_cycles += n;
        } else if self.dispatched < self.target + self.cfg.rob_entries as u64
            && self.rob.len() < self.cfg.rob_entries
        {
            if let Some(i) = &self.peeked {
                if matches!(i.kind, InstrKind::Load { .. }) && self.lq_used >= self.cfg.lq_entries {
                    self.stats.lq_full_cycles += n;
                }
            }
        }
    }

    /// Advances the core one cycle.
    pub fn step(
        &mut self,
        now: CpuCycle,
        source: &mut dyn InstrSource,
        mem: &mut CacheHierarchy,
    ) -> StepEvents {
        self.stats.cycles += 1;
        self.bounced = Bounced::default();
        self.predictor.tick(now);
        self.apply_mem_completions(now);
        self.apply_fixed_completions(now);
        let events = self.commit(now);
        self.drain_store_buffer(now, mem);
        self.issue(now, mem);
        self.dispatch(now, source);
        events
    }

    fn apply_mem_completions(&mut self, now: CpuCycle) {
        let mut i = 0;
        while i < self.mem_ready.len() {
            let (done, token) = self.mem_ready[i];
            if done > now {
                i += 1;
                continue;
            }
            self.mem_ready.swap_remove(i);
            if let Some(seq) = self.pending_mem.remove(&token) {
                if seq == u64::MAX {
                    // Store-buffer drain finished.
                    if let Some(pos) = self
                        .store_buffer
                        .iter()
                        .position(|(_, s)| *s == StoreState::Inflight(token))
                    {
                        self.store_buffer.remove(pos);
                    }
                } else if let Some(e) = self.entry_mut(seq) {
                    e.completed = true;
                    e.waiting_mem = false;
                    self.wake_waiters(seq);
                }
            }
        }
    }

    fn apply_fixed_completions(&mut self, now: CpuCycle) {
        while let Some(&Reverse((at, seq))) = self.completions.peek() {
            if at > now {
                break;
            }
            self.completions.pop();
            let Some(e) = self.entry_mut(seq) else {
                continue;
            };
            e.completed = true;
            let kind = e.instr.kind;
            self.wake_waiters(seq);
            if let InstrKind::Branch { mispredict } = kind {
                self.unresolved_branches = self.unresolved_branches.saturating_sub(1);
                if mispredict {
                    let until = at + self.cfg.mispredict_penalty;
                    self.fetch_stall_until = self.fetch_stall_until.max(until);
                }
            }
        }
    }

    fn commit(&mut self, now: CpuCycle) -> StepEvents {
        let mut events = StepEvents::default();
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.completed {
                // ROB-head block tracking: the heart of the CBP.
                if head.instr.kind.is_load() && head.issued {
                    self.stats.block_cycles += 1;
                    let head = self.rob.front_mut().expect("head exists");
                    if head.block_start.is_none() {
                        head.block_start = Some(now);
                    }
                    if !head.block_reported {
                        head.block_reported = true;
                        if let InstrKind::Load { addr } = head.instr.kind {
                            events.block_started = Some(BlockStart {
                                pc: head.instr.pc,
                                addr,
                            });
                        }
                    }
                }
                break;
            }
            // Stores retire into the store buffer; stall if full.
            if head.instr.kind.is_store() && self.store_buffer.len() >= self.cfg.store_buffer {
                self.stats.sb_full_cycles += 1;
                break;
            }
            let e = self.rob.pop_front().expect("head exists");
            self.base_seq += 1;
            self.stats.committed += 1;
            match e.instr.kind {
                InstrKind::Load { .. } => {
                    self.stats.loads += 1;
                    self.lq_used -= 1;
                    let stall = e.block_start.map(|s| now.saturating_sub(s)).unwrap_or(0);
                    self.stats.stall_histogram.record(stall);
                    if stall >= self.cfg.min_block_cycles {
                        self.stats.blocked_loads += 1;
                        self.predictor.on_block_commit(e.instr.pc, stall);
                    }
                    if stall >= LONG_BLOCK_CYCLES {
                        self.stats.long_blocked_loads += 1;
                        self.stats.long_block_cycles += stall;
                    }
                    self.predictor.on_load_commit(e.instr.pc, e.consumers);
                }
                InstrKind::Store { addr } => {
                    self.stats.stores += 1;
                    self.sq_used -= 1;
                    self.store_buffer.push_back((addr, StoreState::Waiting));
                }
                InstrKind::Branch { .. } => {
                    self.stats.branches += 1;
                }
                _ => {}
            }
        }
        events
    }

    fn drain_store_buffer(&mut self, now: CpuCycle, mem: &mut CacheHierarchy) {
        // One new drain attempt per cycle, oldest waiting entry first.
        let Some(pos) = self
            .store_buffer
            .iter()
            .position(|(_, s)| *s == StoreState::Waiting)
        else {
            return;
        };
        let addr = self.store_buffer[pos].0;
        if let Some(file) = mem.bounce(self.id, addr) {
            self.bounced.store = true;
            self.bounced.shared |= file == Bounce::Shared;
            return;
        }
        match mem.access(
            self.id,
            addr,
            CacheAccessKind::Store,
            Criticality::non_critical(),
            now,
        ) {
            AccessOutcome::Done(_) => {
                self.store_buffer.remove(pos);
            }
            AccessOutcome::Pending(token) => {
                self.pending_mem.insert(token.0, u64::MAX);
                self.store_buffer[pos].1 = StoreState::Inflight(token.0);
            }
            AccessOutcome::Retry => unreachable!("bounce() was checked"),
        }
    }

    /// Issues ready entries from among the oldest `issue_window`
    /// unissued ones, walking `ready` only and dropping each entry it
    /// issues from both lists in the same pass.
    fn issue(&mut self, now: CpuCycle, mem: &mut CacheHierarchy) {
        debug_assert!(self.unissued_matches_rob(), "issue lists out of sync");
        let mut budget = self.cfg.issue_width;
        let mut int_u = self.cfg.int_units;
        let mut fp_u = self.cfg.fp_units;
        let mut ld_u = self.cfg.ld_units;
        let mut st_u = self.cfg.st_units;
        let mut br_u = self.cfg.br_units;
        let mut int_mul_u = self.cfg.int_mul_units;
        let mut fp_mul_u = self.cfg.fp_mul_units;
        let end = self.window_end();
        // `idx` reads `ready`; its first `kept` slots hold the entries
        // read so far that stay unissued. `u_idx` and `u_kept` do the
        // same for `unissued`, which is read up to each issued entry.
        let (mut idx, mut kept) = (0, 0);
        let (mut u_idx, mut u_kept) = (0, 0);
        while budget > 0 && idx < self.ready.len() && self.ready[idx] <= end {
            let seq = self.ready[idx];
            idx += 1;
            let slot = self.slot(seq);
            let e = &self.rob[slot];
            let kind = e.instr.kind;
            let pc = e.instr.pc;
            // Functional-unit check.
            let unit = match kind {
                InstrKind::IntAlu => &mut int_u,
                InstrKind::IntMul => &mut int_mul_u,
                InstrKind::FpAlu => &mut fp_u,
                InstrKind::FpMul => &mut fp_mul_u,
                InstrKind::Load { .. } => &mut ld_u,
                InstrKind::Store { .. } => &mut st_u,
                InstrKind::Branch { .. } => &mut br_u,
            };
            if *unit == 0 {
                self.ready[kept] = seq;
                kept += 1;
                continue;
            }
            *unit -= 1;
            budget -= 1;
            match kind {
                InstrKind::Load { addr } => {
                    if let Some(file) = mem.bounce(self.id, addr) {
                        // Port and slot consumed; the load retries next
                        // cycle, and the bounce is no lookup.
                        self.bounced.loads += 1;
                        self.bounced.shared |= file == Bounce::Shared;
                        self.ready[kept] = seq;
                        kept += 1;
                        continue;
                    }
                    let crit = self.predictor.predict(pc);
                    match mem.access(self.id, addr, CacheAccessKind::Load, crit, now) {
                        AccessOutcome::Done(t) => {
                            self.stats.issued_loads += 1;
                            if crit.is_critical() {
                                self.stats.issued_critical_loads += 1;
                            }
                            self.rob[slot].issued = true;
                            self.completions.push(Reverse((t.max(now + 1), seq)));
                        }
                        AccessOutcome::Pending(token) => {
                            self.stats.issued_loads += 1;
                            if crit.is_critical() {
                                self.stats.issued_critical_loads += 1;
                            }
                            let e = &mut self.rob[slot];
                            e.issued = true;
                            e.waiting_mem = true;
                            self.pending_mem.insert(token.0, seq);
                        }
                        AccessOutcome::Retry => unreachable!("bounce() was checked"),
                    }
                }
                _ => {
                    self.rob[slot].issued = true;
                    let lat = kind.fixed_latency().max(1);
                    self.completions.push(Reverse((now + lat, seq)));
                }
            }
            while self.unissued[u_idx] != seq {
                self.unissued[u_kept] = self.unissued[u_idx];
                (u_idx, u_kept) = (u_idx + 1, u_kept + 1);
            }
            u_idx += 1;
        }
        compact(&mut self.ready, idx, kept);
        compact(&mut self.unissued, u_idx, u_kept);
    }

    /// Captures this core's mutable architectural state (ROB, queues,
    /// store buffer, in-flight bookkeeping, statistics) plus the
    /// predictor's tables as a length-prefixed block, so a restore can
    /// either replay the predictor or discard it in favor of a fresh
    /// one of a different kind.
    pub fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        w.put_u32(self.rob.len() as u32);
        for e in &self.rob {
            e.instr.encode(w);
            w.put_u64(e.seq);
            w.put_bool(e.issued);
            w.put_bool(e.completed);
            w.put_bool(e.waiting_mem);
            w.put_u32(e.consumers);
            match e.block_start {
                Some(c) => {
                    w.put_bool(true);
                    w.put_u64(c);
                }
                None => w.put_bool(false),
            }
            w.put_bool(e.block_reported);
        }
        w.put_u64(self.base_seq);
        w.put_u64(self.next_seq);
        w.put_u64(self.lq_used as u64);
        w.put_u64(self.sq_used as u64);
        w.put_u32(self.store_buffer.len() as u32);
        for &(addr, state) in &self.store_buffer {
            w.put_u64(addr);
            match state {
                StoreState::Waiting => w.put_u8(0),
                StoreState::Inflight(token) => {
                    w.put_u8(1);
                    w.put_u64(token);
                }
            }
        }
        // The heap's internal layout is not deterministic; serialize
        // its contents sorted (order is irrelevant on rebuild).
        let mut completions: Vec<(CpuCycle, u64)> =
            self.completions.iter().map(|Reverse(p)| *p).collect();
        completions.sort_unstable();
        w.put_u32(completions.len() as u32);
        for (at, seq) in completions {
            w.put_u64(at);
            w.put_u64(seq);
        }
        let mut pending: Vec<(u64, u64)> = self.pending_mem.iter().map(|(&k, &v)| (k, v)).collect();
        pending.sort_unstable();
        w.put_u32(pending.len() as u32);
        for (token, seq) in pending {
            w.put_u64(token);
            w.put_u64(seq);
        }
        // mem_ready is drained with swap_remove, so its order is state.
        w.put_u32(self.mem_ready.len() as u32);
        for &(done, token) in &self.mem_ready {
            w.put_u64(done);
            w.put_u64(token);
        }
        w.put_u64(self.fetch_stall_until);
        w.put_u64(self.unresolved_branches as u64);
        match &self.peeked {
            Some(i) => {
                w.put_bool(true);
                i.encode(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.dispatched);
        self.stats.encode(w);
        let mut pred = critmem_common::codec::ByteWriter::new();
        self.predictor.save_state(&mut pred);
        w.put_bytes(&pred.into_bytes());
    }

    /// Overlays state captured by [`Core::save_state`] onto a freshly
    /// constructed core of the same configuration. When
    /// `load_predictor` is false the saved predictor block is
    /// discarded and the core keeps its fresh predictor — the hook the
    /// warm-start engine uses to swap predictor kinds at the
    /// checkpoint boundary.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    pub fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
        load_predictor: bool,
    ) -> Result<(), critmem_common::codec::CodecError> {
        let n = r.get_u32()? as usize;
        self.rob.clear();
        for _ in 0..n {
            let instr = Instr::decode(r)?;
            let seq = r.get_u64()?;
            let issued = r.get_bool()?;
            let completed = r.get_bool()?;
            let waiting_mem = r.get_bool()?;
            let consumers = r.get_u32()?;
            let block_start = if r.get_bool()? {
                Some(r.get_u64()?)
            } else {
                None
            };
            let block_reported = r.get_bool()?;
            self.rob.push_back(RobEntry {
                issued,
                completed,
                waiting_mem,
                consumers,
                block_start,
                block_reported,
                ..RobEntry::new(instr, seq)
            });
        }
        self.base_seq = r.get_u64()?;
        self.next_seq = r.get_u64()?;
        // The issue lists below are rebuilt by ROB index, which holds
        // only if the entries number `base_seq..next_seq` in order.
        let numbered = (self.base_seq..)
            .zip(&self.rob)
            .all(|(seq, e)| e.seq == seq);
        if !numbered || self.base_seq + self.rob.len() as u64 != self.next_seq {
            return Err(critmem_common::codec::CodecError {
                message: "ROB sequence numbers are not contiguous".to_string(),
                offset: r.position(),
            });
        }
        self.lq_used = r.get_u64()? as usize;
        self.sq_used = r.get_u64()? as usize;
        let n = r.get_u32()? as usize;
        self.store_buffer.clear();
        for _ in 0..n {
            let addr = r.get_u64()?;
            let tag_at = r.position();
            let state = match r.get_u8()? {
                0 => StoreState::Waiting,
                1 => StoreState::Inflight(r.get_u64()?),
                t => {
                    return Err(critmem_common::codec::CodecError {
                        message: format!("unknown store-buffer state tag {t}"),
                        offset: tag_at,
                    })
                }
            };
            self.store_buffer.push_back((addr, state));
        }
        let n = r.get_u32()? as usize;
        self.completions = (0..n)
            .map(|_| Ok(Reverse((r.get_u64()?, r.get_u64()?))))
            .collect::<Result<_, critmem_common::codec::CodecError>>()?;
        let n = r.get_u32()? as usize;
        self.pending_mem = (0..n)
            .map(|_| Ok((r.get_u64()?, r.get_u64()?)))
            .collect::<Result<_, critmem_common::codec::CodecError>>()?;
        let n = r.get_u32()? as usize;
        self.mem_ready = (0..n)
            .map(|_| Ok((r.get_u64()?, r.get_u64()?)))
            .collect::<Result<_, critmem_common::codec::CodecError>>()?;
        self.fetch_stall_until = r.get_u64()?;
        self.unresolved_branches = r.get_u64()? as usize;
        self.peeked = if r.get_bool()? {
            Some(Instr::decode(r)?)
        } else {
            None
        };
        self.dispatched = r.get_u64()?;
        self.bounced = Bounced::default();
        // Rebuild the derived issue lists from the ROB, oldest first,
        // as dispatch built them.
        self.unissued.clear();
        self.ready.clear();
        for i in 0..self.rob.len() {
            let e = &self.rob[i];
            if !e.issued {
                let seq = e.seq;
                self.unissued.push(seq);
                self.link_operands(seq);
            }
        }
        self.stats = CoreStats::decode(r)?;
        let pred = r.get_bytes()?;
        if load_predictor {
            let mut pr = critmem_common::codec::ByteReader::new(&pred);
            self.predictor.load_state(&mut pr)?;
        }
        Ok(())
    }

    fn dispatch(&mut self, now: CpuCycle, source: &mut dyn InstrSource) {
        if now < self.fetch_stall_until {
            self.stats.redirect_stall_cycles += 1;
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.dispatched >= self.target + self.cfg.rob_entries as u64 {
                // Keep a little headroom past the target so the tail
                // commits at full width, then stop fetching.
                break;
            }
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let instr = match self.peeked.take() {
                Some(i) => i,
                None => source.next_instr(),
            };
            // Structural checks before consuming the instruction.
            match instr.kind {
                InstrKind::Load { .. } if self.lq_used >= self.cfg.lq_entries => {
                    self.stats.lq_full_cycles += 1;
                    self.peeked = Some(instr);
                    break;
                }
                InstrKind::Store { .. } if self.sq_used >= self.cfg.sq_entries => {
                    self.peeked = Some(instr);
                    break;
                }
                InstrKind::Branch { .. }
                    if self.unresolved_branches >= self.cfg.max_unresolved_branches =>
                {
                    self.peeked = Some(instr);
                    break;
                }
                _ => {}
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.dispatched += 1;
            match instr.kind {
                InstrKind::Load { .. } => self.lq_used += 1,
                InstrKind::Store { .. } => self.sq_used += 1,
                InstrKind::Branch { .. } => self.unresolved_branches += 1,
                _ => {}
            }
            // Consumer counting for the CLPT: bump each load producer.
            for dist in [instr.src1, instr.src2].into_iter().flatten() {
                if let Some(pseq) = seq.checked_sub(u64::from(dist)) {
                    if let Some(p) = self.entry_mut(pseq) {
                        if p.instr.kind.is_load() {
                            p.consumers += 1;
                        }
                    }
                }
            }
            self.unissued.push(seq);
            self.rob.push_back(RobEntry::new(instr, seq));
            self.link_operands(seq);
        }
    }
}

/// Drops `list[kept..read]`, the slots a compacting pass has read but
/// not kept, shifting the unread tail down.
fn compact(list: &mut Vec<u64>, read: usize, kept: usize) {
    if kept < read {
        let len = list.len();
        list.copy_within(read.., kept);
        list.truncate(len - (read - kept));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::NoPredictor;
    use critmem_cache::HierarchyConfig;

    /// A tiny scripted instruction source.
    #[derive(Clone)]
    struct Script {
        instrs: Vec<Instr>,
        pos: usize,
    }

    impl Script {
        fn new(instrs: Vec<Instr>) -> Self {
            Script { instrs, pos: 0 }
        }
    }

    impl InstrSource for Script {
        fn next_instr(&mut self) -> Instr {
            let i = self.instrs[self.pos % self.instrs.len()];
            self.pos += 1;
            i
        }
    }

    fn run_core(instrs: Vec<Instr>, target: u64, max_cycles: u64) -> (Core, CacheHierarchy, u64) {
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::paper_baseline(),
            Box::new(NoPredictor),
            target,
        );
        let mut mem = CacheHierarchy::new(HierarchyConfig::paper_baseline(1));
        let mut src = Script::new(instrs);
        let mut now = 0;
        while !core.done() && now < max_cycles {
            now += 1;
            core.step(now, &mut src, &mut mem);
            // Service DRAM with a fixed 100-cycle latency.
            while let Some(req) = mem.pop_request(now) {
                if req.kind != critmem_common::AccessKind::Write {
                    for c in mem.dram_completed(&req, now + 100) {
                        core.mem_completed(c.token.0, c.done);
                    }
                }
            }
        }
        (core, mem, now)
    }

    #[test]
    fn alu_stream_achieves_high_ipc() {
        let instrs = vec![
            Instr::new(0x0, InstrKind::IntAlu),
            Instr::new(0x4, InstrKind::FpAlu),
        ];
        let (core, _, cycles) = run_core(instrs, 4_000, 100_000);
        assert!(core.done());
        let ipc = core.stats().committed as f64 / cycles as f64;
        assert!(
            ipc > 1.5,
            "independent ALU mix should exceed IPC 1.5, got {ipc:.2}"
        );
    }

    #[test]
    fn serial_dependency_chain_limits_ipc() {
        // Every instruction depends on the previous one.
        let instrs = vec![Instr::new(0x0, InstrKind::IntAlu).with_deps(Some(1), None)];
        let (core, _, cycles) = run_core(instrs, 2_000, 100_000);
        assert!(core.done());
        let ipc = core.stats().committed as f64 / cycles as f64;
        assert!(
            ipc < 1.2,
            "serial chain should cap IPC near 1, got {ipc:.2}"
        );
    }

    #[test]
    fn missing_load_blocks_rob_head() {
        // Loads at unique addresses (always missing to DRAM), each
        // followed by an ALU op.
        let mut script = Vec::new();
        for i in 0..64u64 {
            script.push(Instr::new(0x0, InstrKind::Load { addr: i * 8192 }));
            script.push(Instr::new(0x4, InstrKind::IntAlu));
        }
        let (core, _, _) = run_core(script, 128, 1_000_000);
        assert!(core.done());
        assert!(
            core.stats().blocked_loads > 0,
            "DRAM-bound loads must block the head"
        );
        assert!(core.stats().block_cycles > 0);
    }

    #[test]
    fn mispredicted_branches_slow_execution() {
        let good = vec![
            Instr::new(0x0, InstrKind::IntAlu),
            Instr::new(0x4, InstrKind::Branch { mispredict: false }),
        ];
        let bad = vec![
            Instr::new(0x0, InstrKind::IntAlu),
            Instr::new(0x4, InstrKind::Branch { mispredict: true }),
        ];
        let (_, _, cycles_good) = run_core(good, 2_000, 1_000_000);
        let (core_bad, _, cycles_bad) = run_core(bad, 2_000, 1_000_000);
        assert!(core_bad.stats().redirect_stall_cycles > 0);
        assert!(
            cycles_bad > cycles_good * 2,
            "all-mispredict run should be much slower ({cycles_bad} vs {cycles_good})"
        );
    }

    #[test]
    fn stores_retire_through_store_buffer() {
        let instrs = vec![
            Instr::new(0x0, InstrKind::Store { addr: 64 }),
            Instr::new(0x4, InstrKind::IntAlu),
        ];
        let (core, mem, _) = run_core(instrs, 1_000, 1_000_000);
        assert!(core.done());
        assert_eq!(core.stats().stores, 500);
        // The store line was fetched exclusive and written.
        assert!(mem.stats().l2_accesses > 0);
    }

    #[test]
    fn load_queue_fills_under_memory_pressure() {
        // A flood of independent missing loads.
        let mut script = Vec::new();
        for i in 0..256u64 {
            script.push(Instr::new((i % 64) * 4, InstrKind::Load { addr: i * 4096 }));
        }
        let (core, _, _) = run_core(script, 256, 2_000_000);
        assert!(core.done());
        assert!(
            core.stats().lq_full_cycles > 0,
            "LQ should fill under miss pressure"
        );
    }

    #[test]
    fn consumer_counts_reach_predictor() {
        // Load followed by three consumers of it.
        struct Probe {
            max_consumers: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl LoadCriticalityPredictor for Probe {
            fn predict(&mut self, _pc: Pc) -> Criticality {
                Criticality::non_critical()
            }
            fn on_block_commit(&mut self, _pc: Pc, _stall: u64) {}
            fn on_load_commit(&mut self, _pc: Pc, consumers: u32) {
                self.max_consumers
                    .set(self.max_consumers.get().max(consumers));
            }
            fn tick(&mut self, _now: CpuCycle) {}
            fn name(&self) -> &'static str {
                "probe"
            }
        }
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::paper_baseline(),
            Box::new(Probe {
                max_consumers: seen.clone(),
            }),
            40,
        );
        let mut mem = CacheHierarchy::new(HierarchyConfig::paper_baseline(1));
        let mut src = Script::new(vec![
            Instr::new(0x0, InstrKind::Load { addr: 64 }),
            Instr::new(0x4, InstrKind::IntAlu).with_deps(Some(1), None),
            Instr::new(0x8, InstrKind::IntAlu).with_deps(Some(2), None),
            Instr::new(0xc, InstrKind::IntAlu).with_deps(Some(3), None),
        ]);
        let mut now = 0;
        while !core.done() && now < 100_000 {
            now += 1;
            core.step(now, &mut src, &mut mem);
            while let Some(req) = mem.pop_request(now) {
                if req.kind != critmem_common::AccessKind::Write {
                    for c in mem.dram_completed(&req, now + 50) {
                        core.mem_completed(c.token.0, c.done);
                    }
                }
            }
        }
        assert!(core.done());
        assert_eq!(seen.get(), 3, "the load has exactly three direct consumers");
    }

    #[test]
    fn done_stops_at_target() {
        let instrs = vec![Instr::new(0x0, InstrKind::IntAlu)];
        let (core, _, _) = run_core(instrs, 123, 100_000);
        assert!(core.done());
        assert!(core.stats().committed >= 123);
    }

    /// The per-core sleep contract: a core stepped only once `now`
    /// reaches its wake cycle (its horizon after its last step, lowered
    /// by every fill delivered since) and otherwise advanced
    /// one cycle at a time with `skip` stays byte-identical to a core
    /// stepped every cycle — including when fills land in the middle of
    /// a sleep, when the predictor's periodic reset falls inside one,
    /// and when the core sleeps on loads and store drains bouncing off
    /// a full L1 or L2 MSHR file. The hierarchies stay identical too: a
    /// bounce the sleeping core does not retry changes nothing.
    #[test]
    fn sleeping_core_matches_every_cycle_stepping() {
        use critmem_common::codec::ByteWriter;
        use critmem_common::Snapshot;
        use critmem_predict::{CbpMetric, CommitBlockPredictor, TableSize};
        const RESET_INTERVAL: CpuCycle = 1_000;
        let mut script = Vec::new();
        for i in 0..300u64 {
            // A missing load (every other one chained to the previous,
            // so the core waits out whole fills) with consumers hanging
            // off it, a store, and a branch that mispredicts every
            // third pass.
            let chain = (i % 2 == 0).then_some(6);
            script.push(Instr::new(0x0, InstrKind::Load { addr: i * 8192 }).with_deps(chain, None));
            script.push(Instr::new(0x4, InstrKind::IntAlu).with_deps(Some(1), None));
            script.push(Instr::new(0x8, InstrKind::IntMul).with_deps(Some(1), Some(2)));
            script.push(Instr::new(
                0xc,
                InstrKind::Store {
                    addr: i * 4096 + 64,
                },
            ));
            script.push(
                Instr::new(
                    0x10,
                    InstrKind::Branch {
                        mispredict: i % 3 == 0,
                    },
                )
                .with_deps(Some(2), None),
            );
            script.push(Instr::new(0x14, InstrKind::FpAlu).with_deps(Some(1), None));
        }
        let build = |hierarchy: HierarchyConfig| {
            let cbp = CommitBlockPredictor::new(CbpMetric::MaxStallTime, TableSize::Entries(64))
                .with_reset_interval(RESET_INTERVAL);
            let core = Core::new(
                CoreId(0),
                CoreConfig::paper_baseline(),
                Box::new(crate::predictor::CbpPredictor::new(cbp)),
                1_500,
            );
            (
                core,
                CacheHierarchy::new(hierarchy),
                Script::new(script.clone()),
            )
        };
        // A fixed 100-cycle DRAM that answers each read when it comes
        // back, as the system does, so fills land while a core sleeps.
        // Returns the earliest fill delivered this cycle.
        type Dram = VecDeque<(CpuCycle, critmem_common::MemRequest)>;
        fn serve(
            core: &mut Core,
            mem: &mut CacheHierarchy,
            dram: &mut Dram,
            now: CpuCycle,
        ) -> CpuCycle {
            while let Some(req) = mem.pop_request(now) {
                if req.kind != critmem_common::AccessKind::Write {
                    dram.push_back((now + 100, req));
                }
            }
            let mut earliest = CpuCycle::MAX;
            while let Some((_, req)) = dram.pop_front_if(|(at, _)| *at <= now) {
                for c in mem.dram_completed(&req, now) {
                    core.mem_completed(c.token.0, c.done);
                    earliest = earliest.min(c.done);
                }
            }
            earliest
        }
        let core_state = |c: &Core| {
            let mut w = ByteWriter::new();
            c.save_state(&mut w);
            w.into_bytes()
        };
        let hierarchy_state = |mem: &CacheHierarchy| {
            let mut w = ByteWriter::new();
            mem.save_state(&mut w);
            w.into_bytes()
        };
        let baseline = HierarchyConfig::paper_baseline(1);
        let cases = [
            ("paper baseline", baseline, false),
            (
                "L1 MSHR file of 2",
                HierarchyConfig {
                    l1_mshrs: 2,
                    ..baseline
                },
                false,
            ),
            (
                "L2 MSHR file of 2",
                HierarchyConfig {
                    l2_mshrs: 2,
                    ..baseline
                },
                true,
            ),
        ];
        for (case, hierarchy, shared_bounce_is_quiet) in cases {
            let horizon = |c: &Core, now: CpuCycle| {
                if shared_bounce_is_quiet {
                    c.wake_cycle(now)
                } else {
                    c.quiescent_until(now)
                }
            };
            let (mut a, mut mem_a, mut src_a) = build(hierarchy);
            let (mut b, mut mem_b, mut src_b) = build(hierarchy);
            let (mut dram_a, mut dram_b) = (Dram::new(), Dram::new());
            let (mut wake, mut slept, mut slept_on_bounce, mut woken_by_fill) =
                (0, 0u64, 0u64, 0u64);
            let mut now = 0;
            while !a.done() && now < 1_000_000 {
                now += 1;
                a.step(now, &mut src_a, &mut mem_a);
                if now >= wake {
                    b.step(now, &mut src_b, &mut mem_b);
                    wake = horizon(&b, now);
                } else {
                    b.skip(now - 1, 1);
                    slept += 1;
                    slept_on_bounce += u64::from(b.bounced.loads > 0 || b.bounced.store);
                }
                serve(&mut a, &mut mem_a, &mut dram_a, now);
                // As the system does: a fill wakes B at its `done`
                // cycle, or on the next cycle if B sleeps on a bounce,
                // since the fill frees the MSHR entry before its data
                // arrives.
                let bounced = b.bounced().is_some();
                let fill = serve(&mut b, &mut mem_b, &mut dram_b, now);
                let fill = if bounced && fill != CpuCycle::MAX {
                    now + 1
                } else {
                    fill
                };
                if fill < wake {
                    // Count the fills that cut a sleep short.
                    woken_by_fill += u64::from(wake > now + 1);
                    wake = fill;
                }
                assert_eq!(
                    core_state(&b),
                    core_state(&a),
                    "{case}: diverged at cycle {now}"
                );
                // The hierarchy is large; a stray counter or LRU bump
                // would persist, so a sparse check catches it too.
                if now % 1_000 == 0 || a.done() {
                    assert_eq!(
                        hierarchy_state(&mem_b),
                        hierarchy_state(&mem_a),
                        "{case}: hierarchies diverged by cycle {now}"
                    );
                }
            }
            assert!(a.done() && b.done(), "{case}");
            assert!(
                slept > now / 2,
                "{case}: B slept only {slept} of {now} cycles"
            );
            assert!(woken_by_fill > 0, "{case}: no fill ever cut a sleep short");
            assert!(
                now > 3 * RESET_INTERVAL,
                "{case}: the run must span several predictor resets"
            );
            if hierarchy != baseline {
                assert!(slept_on_bounce > 0, "{case}: B never slept on a bounce");
            }
        }
    }

    /// The issue window counts unissued entries only. Behind a load
    /// that never completes, ten independent ALU ops issue and stay in
    /// the ROB; then come `waiting` ops that depend on the load and one
    /// independent op. With 39 waiting ops that op is the 40th unissued
    /// entry (at ROB index 50, past the first 40 slots) and issues; with
    /// 40 it is the 41st and never does.
    #[test]
    fn issue_window_counts_only_unissued_entries() {
        let run = |waiting: u16| {
            let mut script = vec![Instr::new(0x0, InstrKind::Load { addr: 0 })];
            for _ in 0..10 {
                script.push(Instr::new(0x4, InstrKind::IntAlu));
            }
            for d in 11..11 + waiting {
                script.push(Instr::new(0x8, InstrKind::IntAlu).with_deps(Some(d), None));
            }
            script.push(Instr::new(0xc, InstrKind::IntAlu));
            let mut core = Core::new(
                CoreId(0),
                CoreConfig::paper_baseline(),
                Box::new(NoPredictor),
                1_000,
            );
            // Nothing services DRAM, so the head load never completes.
            let mut mem = CacheHierarchy::new(HierarchyConfig::paper_baseline(1));
            let mut src = Script::new(script);
            for now in 1..=200 {
                core.step(now, &mut src, &mut mem);
            }
            assert_eq!(core.rob.len(), core.cfg.rob_entries, "the ROB fills");
            assert_eq!(core.stats().committed, 0, "the head load blocks commit");
            let issued = |seq: u64| core.entry(seq).expect("still in the ROB").issued;
            assert!((0..11).all(issued), "the load and the free ops issue");
            assert!(
                (11..11 + u64::from(waiting)).all(|s| !issued(s)),
                "the load's consumers wait"
            );
            issued(11 + u64::from(waiting))
        };
        assert!(run(39), "the 40th unissued entry is inside the window");
        assert!(!run(40), "the 41st unissued entry is outside the window");
    }

    /// `ready` and the pending counts are derived from the ROB: after
    /// every step they equal a `dep_ready` recount, through both
    /// sources on one producer, distances that reach past the ROB or
    /// to committed producers, one load feeding many consumers,
    /// mispredicted branches and loads bouncing off a two-entry L1
    /// MSHR file. A core restored mid-run rebuilds the lists and stays
    /// byte-identical to the original. A distance of 0 names the entry
    /// itself, which cannot complete before it issues, so that entry
    /// is never ready, as `dep_ready` has it.
    #[test]
    fn ready_list_matches_a_recount_through_every_step() {
        use critmem_common::codec::{ByteReader, ByteWriter};
        use critmem_common::Snapshot;
        let check = |c: &Core, now: CpuCycle| {
            let mut ready = Vec::new();
            for &seq in &c.unissued {
                let e = c.entry(seq).expect("an unissued entry is in the ROB");
                let waits = [e.instr.src1, e.instr.src2]
                    .into_iter()
                    .filter(|&d| !c.dep_ready(seq, d))
                    .count();
                assert_eq!(
                    usize::from(e.pending),
                    waits,
                    "cycle {now}: pending count of entry {seq}"
                );
                if waits == 0 {
                    ready.push(seq);
                }
            }
            assert_eq!(c.ready, ready, "cycle {now}: ready list");
            assert!(c.unissued_matches_rob(), "cycle {now}: waiter lists");
        };
        let state = |c: &Core| {
            let mut w = ByteWriter::new();
            c.save_state(&mut w);
            w.into_bytes()
        };
        let hierarchy = HierarchyConfig {
            l1_mshrs: 2,
            ..HierarchyConfig::paper_baseline(1)
        };
        let fresh = |target| {
            let core = Core::new(
                CoreId(0),
                CoreConfig::paper_baseline(),
                Box::new(NoPredictor),
                target,
            );
            (core, CacheHierarchy::new(hierarchy))
        };
        // A fixed 100-cycle DRAM, answered at once as in `run_core`.
        let step = |core: &mut Core, mem: &mut CacheHierarchy, src: &mut Script, now| {
            core.step(now, src, mem);
            while let Some(req) = mem.pop_request(now) {
                if req.kind != critmem_common::AccessKind::Write {
                    for c in mem.dram_completed(&req, now + 100) {
                        core.mem_completed(c.token.0, c.done);
                    }
                }
            }
        };
        let mut script = Vec::new();
        for i in 0..200u64 {
            // A missing load, one op reading it as both sources, and
            // four more consumers of it.
            script.push(Instr::new(0x0, InstrKind::Load { addr: i * 8192 }));
            script.push(Instr::new(0x4, InstrKind::IntAlu).with_deps(Some(1), Some(1)));
            for d in 2..6 {
                script.push(Instr::new(0x8, InstrKind::IntAlu).with_deps(Some(d), None));
            }
            // Past the ROB (or before the first instruction), and on the
            // both-sources op.
            script.push(Instr::new(0xc, InstrKind::FpMul).with_deps(Some(300), Some(5)));
            script.push(
                Instr::new(
                    0x10,
                    InstrKind::Branch {
                        mispredict: i % 3 == 0,
                    },
                )
                .with_deps(Some(1), None),
            );
            // An independent load, so loads outnumber the MSHRs, and an
            // op on a producer that has mostly committed already.
            script.push(Instr::new(
                0x14,
                InstrKind::Load {
                    addr: i * 8192 + 4096,
                },
            ));
            script.push(Instr::new(0x18, InstrKind::IntAlu).with_deps(Some(50), Some(u16::MAX)));
        }
        let (mut a, mut mem_a) = fresh(1_500);
        let mut src_a = Script::new(script);
        let mut restored: Option<(Core, CacheHierarchy, Script)> = None;
        let (mut bounced, mut now) = (0u64, 0);
        while !a.done() && now < 1_000_000 {
            now += 1;
            step(&mut a, &mut mem_a, &mut src_a, now);
            check(&a, now);
            bounced += a.bounced.loads as u64;
            if let Some((b, mem_b, src_b)) = &mut restored {
                step(b, mem_b, src_b, now);
                check(b, now);
                assert_eq!(state(b), state(&a), "cycle {now}: restored core diverged");
            } else if a.stats().committed >= 600 && !a.ready.is_empty() && a.ready != a.unissued {
                // Save while some unissued entries wait and some are ready.
                let (mut b, mut mem_b) = fresh(1_500);
                let mut w = ByteWriter::new();
                a.save_state(&mut w);
                let bytes = w.into_bytes();
                b.load_state(&mut ByteReader::new(&bytes), true)
                    .expect("core state loads");
                let mut w = ByteWriter::new();
                mem_a.save_state(&mut w);
                let bytes = w.into_bytes();
                mem_b
                    .load_state(&mut ByteReader::new(&bytes))
                    .expect("hierarchy state loads");
                check(&b, now);
                assert_eq!(b.ready, a.ready, "the rebuilt ready list");
                restored = Some((b, mem_b, src_a.clone()));
            }
        }
        assert!(a.done(), "the run finishes");
        assert!(restored.is_some(), "the run was saved mid-way");
        assert!(bounced > 0, "loads bounced off the L1 MSHR file");
        assert!(a.stats().redirect_stall_cycles > 0, "branches mispredicted");

        // A distance of 0, every 20th op: each such op waits on itself
        // for ever, and everything else issues around it.
        let mut script = vec![Instr::new(0x0, InstrKind::IntAlu); 20];
        script[5] = Instr::new(0x4, InstrKind::IntAlu).with_deps(Some(0), None);
        let (mut c, mut mem) = fresh(1_000);
        let mut src = Script::new(script);
        for now in 1..=300 {
            step(&mut c, &mut mem, &mut src, now);
            check(&c, now);
        }
        assert_eq!(
            c.stats().committed,
            5,
            "commit stops at the self-dependent op"
        );
        assert!(
            c.unissued.iter().all(|&seq| seq % 20 == 5),
            "only the self-dependent ops wait: {:?}",
            c.unissued
        );
        assert_eq!(c.rob.len(), c.cfg.rob_entries, "the ROB fills behind it");

        // The lists are rebuilt by ROB index, so a state whose entries
        // do not number `base_seq..next_seq` is refused, not indexed.
        c.base_seq += 1;
        c.next_seq += 1;
        let bytes = state(&c);
        let err = fresh(1_000)
            .0
            .load_state(&mut ByteReader::new(&bytes), true)
            .expect_err("a misnumbered ROB is refused");
        assert!(err.message.contains("not contiguous"), "{}", err.message);
    }

    /// A core saved mid-run, while it holds unissued ROB entries, and
    /// loaded into a fresh core steps on exactly as the original does.
    #[test]
    fn restored_core_steps_like_the_original() {
        use critmem_common::codec::{ByteReader, ByteWriter};
        use critmem_common::Snapshot;
        let mut script = Vec::new();
        for i in 0..64u64 {
            script.push(Instr::new(0x0, InstrKind::Load { addr: i * 8192 }));
            script.push(Instr::new(0x4, InstrKind::IntAlu).with_deps(Some(1), None));
            script.push(Instr::new(0x8, InstrKind::IntMul).with_deps(Some(1), Some(2)));
            script.push(Instr::new(
                0xc,
                InstrKind::Store {
                    addr: i * 4096 + 64,
                },
            ));
            script.push(Instr::new(
                0x10,
                InstrKind::Branch {
                    mispredict: i % 5 == 0,
                },
            ));
        }
        let fresh = || {
            let core = Core::new(
                CoreId(0),
                CoreConfig::paper_baseline(),
                Box::new(NoPredictor),
                2_000,
            );
            (
                core,
                CacheHierarchy::new(HierarchyConfig::paper_baseline(1)),
            )
        };
        // A fixed 100-cycle DRAM, answered at once as in `run_core`.
        let step = |core: &mut Core, mem: &mut CacheHierarchy, src: &mut Script, now| {
            core.step(now, src, mem);
            while let Some(req) = mem.pop_request(now) {
                if req.kind != critmem_common::AccessKind::Write {
                    for c in mem.dram_completed(&req, now + 100) {
                        core.mem_completed(c.token.0, c.done);
                    }
                }
            }
        };
        let (mut a, mut mem_a) = fresh();
        let mut src_a = Script::new(script);
        let mut now = 0;
        while a.stats().committed < 1_000 || a.rob.iter().all(|e| e.issued) {
            now += 1;
            step(&mut a, &mut mem_a, &mut src_a, now);
        }
        assert!(!a.done(), "the save falls in the middle of the run");
        let (mut b, mut mem_b) = fresh();
        let mut w = ByteWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        b.load_state(&mut ByteReader::new(&bytes), true)
            .expect("core state loads");
        let mut w = ByteWriter::new();
        mem_a.save_state(&mut w);
        let bytes = w.into_bytes();
        mem_b
            .load_state(&mut ByteReader::new(&bytes))
            .expect("hierarchy state loads");
        let mut src_b = src_a.clone();
        while !a.done() && now < 1_000_000 {
            now += 1;
            step(&mut a, &mut mem_a, &mut src_a, now);
            step(&mut b, &mut mem_b, &mut src_b, now);
        }
        assert!(a.done() && b.done());
        let encode = |c: &Core| {
            let mut w = ByteWriter::new();
            c.stats().encode(&mut w);
            w.into_bytes()
        };
        assert_eq!(encode(&b), encode(&a));
        assert_eq!(b.stats().committed, a.stats().committed);
    }
}
