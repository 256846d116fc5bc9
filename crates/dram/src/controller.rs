//! The per-channel memory controller: transaction queue management,
//! refresh sequencing, read/write direction policy, candidate
//! generation, and command issue.
//!
//! The controller is deliberately "lean" in the paper's sense: per DRAM
//! cycle it generates the set of timing-ready commands and delegates the
//! *choice* to a pluggable [`CommandScheduler`]. All criticality
//! machinery lives in the scheduler and in the annotation carried by
//! each transaction.

use crate::audit::ProtocolAuditor;
use crate::bank::ChannelTiming;
use crate::command::{CommandKind, DramCommand};
use crate::config::{DramConfig, MAX_QUEUE_CAPACITY};
use crate::mapping::DramLocation;
use crate::queue::{Direction, Transaction};
use crate::scheduler::{Candidate, CommandScheduler, SchedContext};
use critmem_common::{
    AuditSnapshot, BankId, ChannelId, DramCycle, MemRequest, MetricVisitor, Observable, RankId,
    Snapshot,
};
use std::cmp::Reverse;

/// Queue-depth ceiling for the post-issue emptiness proof in
/// [`ChannelController::tick_into`]. Above this, a second candidate
/// build per issued command costs more than the skipped ticks it could
/// prove away; below it (the DRAM-bound single-program regime the
/// skip-ahead kernel targets), it converts the post-command timing
/// shadow into an immediately visible quiet window.
const POST_ISSUE_PROOF_MAX_QUEUE: usize = 8;

use std::collections::BinaryHeap;

/// A completed transaction handed back to the cache hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTxn {
    /// The original request.
    pub req: MemRequest,
    /// DRAM cycle at which the data burst finished.
    pub done_at: DramCycle,
    /// DRAM cycle at which the request entered the transaction queue.
    pub arrival: DramCycle,
}

/// Aggregate statistics for one channel.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    /// Demand + prefetch reads completed.
    pub reads_completed: u64,
    /// Write-backs completed.
    pub writes_completed: u64,
    /// CAS commands that found their row already open.
    pub row_hits: u64,
    /// CAS commands that needed an ACTIVATE first (bank was closed).
    pub row_misses: u64,
    /// CAS commands that needed a PRECHARGE first (row conflict).
    pub row_conflicts: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Total DRAM cycles simulated.
    pub ticks: u64,
    /// Sum over ticks of queue occupancy (for mean occupancy).
    pub occupancy_sum: u64,
    /// Ticks during which at least one queued read was flagged critical.
    pub ticks_with_critical: u64,
    /// Ticks during which more than one queued read was flagged critical.
    pub ticks_with_multiple_critical: u64,
    /// Sum of read service latencies (arrival to data) in DRAM cycles.
    pub read_latency_sum: u64,
    /// Number of starvation-cap promotions that occurred.
    pub starvation_promotions: u64,
    /// Transactions rejected because the queue was full.
    pub rejected_full: u64,
    /// DRAM cycles the data bus spent transferring CAS bursts
    /// (`burst_len / 2` cycles per completed read or write).
    pub bus_busy_cycles: u64,
    /// Demand reads completed that carried a critical annotation.
    pub critical_reads_completed: u64,
    /// Sum of critical-read service latencies (arrival to data) in
    /// DRAM cycles.
    pub critical_read_latency_sum: u64,
}

impl ChannelStats {
    /// Mean transaction-queue occupancy.
    pub fn mean_occupancy(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.ticks as f64
        }
    }

    /// Row-buffer hit rate among all CAS commands.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean read service latency (arrival to data) in DRAM cycles.
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_completed as f64
        }
    }

    /// Fraction of simulated DRAM cycles the data bus was transferring
    /// a burst.
    pub fn bus_utilization(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.ticks as f64
        }
    }

    /// Mean service latency of critical reads in DRAM cycles.
    pub fn mean_critical_read_latency(&self) -> f64 {
        if self.critical_reads_completed == 0 {
            0.0
        } else {
            self.critical_read_latency_sum as f64 / self.critical_reads_completed as f64
        }
    }

    /// Mean service latency of non-critical reads in DRAM cycles.
    pub fn mean_noncritical_read_latency(&self) -> f64 {
        let n = self.reads_completed - self.critical_reads_completed;
        if n == 0 {
            0.0
        } else {
            (self.read_latency_sum - self.critical_read_latency_sum) as f64 / n as f64
        }
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut critmem_common::codec::ByteWriter) {
        for v in [
            self.reads_completed,
            self.writes_completed,
            self.row_hits,
            self.row_misses,
            self.row_conflicts,
            self.refreshes,
            self.ticks,
            self.occupancy_sum,
            self.ticks_with_critical,
            self.ticks_with_multiple_critical,
            self.read_latency_sum,
            self.starvation_promotions,
            self.rejected_full,
            self.bus_busy_cycles,
            self.critical_reads_completed,
            self.critical_read_latency_sum,
        ] {
            w.put_u64(v);
        }
    }

    /// Deserializes journaled channel statistics.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream.
    pub fn decode(
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<Self, critmem_common::codec::CodecError> {
        Ok(ChannelStats {
            reads_completed: r.get_u64()?,
            writes_completed: r.get_u64()?,
            row_hits: r.get_u64()?,
            row_misses: r.get_u64()?,
            row_conflicts: r.get_u64()?,
            refreshes: r.get_u64()?,
            ticks: r.get_u64()?,
            occupancy_sum: r.get_u64()?,
            ticks_with_critical: r.get_u64()?,
            ticks_with_multiple_critical: r.get_u64()?,
            read_latency_sum: r.get_u64()?,
            starvation_promotions: r.get_u64()?,
            rejected_full: r.get_u64()?,
            bus_busy_cycles: r.get_u64()?,
            critical_reads_completed: r.get_u64()?,
            critical_read_latency_sum: r.get_u64()?,
        })
    }
}

impl Observable for ChannelStats {
    fn observe(&self, v: &mut dyn MetricVisitor) {
        v.counter("ticks", "dram-cycles", self.ticks);
        v.counter("reads_completed", "requests", self.reads_completed);
        v.counter("writes_completed", "requests", self.writes_completed);
        v.counter(
            "critical_reads_completed",
            "requests",
            self.critical_reads_completed,
        );
        v.counter("row_hits", "cas-commands", self.row_hits);
        v.counter("row_misses", "cas-commands", self.row_misses);
        v.counter("row_conflicts", "cas-commands", self.row_conflicts);
        v.gauge("row_hit_rate", "ratio", self.row_hit_rate());
        v.counter("bus_busy_cycles", "dram-cycles", self.bus_busy_cycles);
        v.gauge("bus_utilization", "ratio", self.bus_utilization());
        v.gauge("mean_occupancy", "transactions", self.mean_occupancy());
        v.gauge("mean_read_latency", "dram-cycles", self.mean_read_latency());
        v.gauge(
            "mean_critical_read_latency",
            "dram-cycles",
            self.mean_critical_read_latency(),
        );
        v.gauge(
            "mean_noncritical_read_latency",
            "dram-cycles",
            self.mean_noncritical_read_latency(),
        );
        v.counter("refreshes", "commands", self.refreshes);
        v.counter(
            "starvation_promotions",
            "transactions",
            self.starvation_promotions,
        );
        v.counter("rejected_full", "requests", self.rejected_full);
        v.counter(
            "ticks_with_critical",
            "dram-cycles",
            self.ticks_with_critical,
        );
    }
}

/// One bank's queued transactions of one direction, as sets of queue
/// slots (bit `i` is `queue[i]`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotSets {
    /// Slots whose row is the bank's open row.
    hit: u64,
    /// Every other slot.
    other: u64,
}

impl SlotSets {
    fn all(self) -> u64 {
        self.hit | self.other
    }
}

/// One DRAM channel: transaction queue + timing state + scheduler.
pub struct ChannelController {
    channel: ChannelId,
    cfg: DramConfig,
    timing: ChannelTiming,
    queue: Vec<Transaction>,
    inflight: BinaryHeap<Reverse<(DramCycle, u64)>>,
    inflight_txns: Vec<(u64, CompletedTxn)>,
    scheduler: Box<dyn CommandScheduler>,
    now: DramCycle,
    seq: u64,
    direction: Direction,
    draining: bool,
    stats: ChannelStats,
    /// Queued write-backs, maintained incrementally so the per-cycle
    /// direction policy never rescans the queue.
    queued_writes: usize,
    /// Queued reads currently flagged critical (incremental mirror of
    /// the occupancy scan the stats used to do each cycle).
    queued_crit_reads: usize,
    /// Cycle at which the refresh bookkeeping next needs a look; while
    /// `now` is below this and nothing is pending, the per-rank refresh
    /// scan is skipped entirely.
    refresh_check_at: DramCycle,
    /// While `now` is strictly below this, the candidate set is
    /// provably empty and generation is skipped. Valid only between
    /// state changes: any command issue, refresh activity, or direction
    /// flip resets it to 0 (always rebuild); an enqueue lowers it to
    /// the new transaction's earliest candidacy.
    no_cand_until: DramCycle,
    /// Per bank (`rank * banks_per_rank + bank`) and direction slot
    /// ([`dir_slot`]): the bank's queue slots, split by whether they
    /// hit its open row. Kept current on enqueue, CAS (clear the slot,
    /// relabel the one `swap_remove` moved), ACT (split `other` by the
    /// new row) and PRE (fold `hit` into `other`), so candidate
    /// building never walks the queue.
    slots: Vec<[SlotSets; 2]>,
    /// Per direction slot: the banks whose [`SlotSets`] are non-empty,
    /// one bit per bank.
    busy: [Vec<u64>; 2],
    /// Queue slots the starvation cap has promoted. A bank holding one
    /// quiesces its other work.
    starved: u64,
    /// No queued transaction crosses the starvation cap before this
    /// cycle: at most the earliest `arrival + cap + 1` of a
    /// non-promoted one (a removal may leave it early, which costs one
    /// extra scan). Below it, candidate building skips the promotion
    /// scan.
    promote_at: DramCycle,
    // Scratch buffers reused across ticks: cleared, never shrunk.
    refresh_ranks: Vec<RankId>,
    cand_buf: Vec<Candidate>,
    /// Shadow protocol auditor (`None` when auditing is off — the hot
    /// path pays one branch and the zero-allocation guarantee holds).
    audit: Option<Box<ProtocolAuditor>>,
}

impl std::fmt::Debug for ChannelController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelController")
            .field("channel", &self.channel)
            .field("now", &self.now)
            .field("queue_len", &self.queue.len())
            .field("scheduler", &self.scheduler.name())
            .finish_non_exhaustive()
    }
}

impl ChannelController {
    /// Creates a controller for `channel` with the given scheduler.
    pub fn new(channel: ChannelId, cfg: DramConfig, scheduler: Box<dyn CommandScheduler>) -> Self {
        let timing = ChannelTiming::new(
            cfg.org.ranks_per_channel as usize,
            cfg.org.banks_per_rank as usize,
            cfg.preset.timing,
        );
        let nbanks = timing.ranks() * timing.banks_per_rank();
        assert!(
            cfg.queue_capacity <= MAX_QUEUE_CAPACITY,
            "queue capacity {} exceeds the {MAX_QUEUE_CAPACITY} slots a slot set holds",
            cfg.queue_capacity
        );
        let busy_words = nbanks.div_ceil(u64::BITS as usize);
        ChannelController {
            channel,
            cfg,
            timing,
            queue: Vec::with_capacity(cfg.queue_capacity),
            inflight: BinaryHeap::with_capacity(cfg.queue_capacity),
            inflight_txns: Vec::with_capacity(cfg.queue_capacity),
            scheduler,
            now: 0,
            seq: 0,
            direction: Direction::Read,
            draining: false,
            stats: ChannelStats::default(),
            queued_writes: 0,
            queued_crit_reads: 0,
            refresh_check_at: 0,
            no_cand_until: 0,
            refresh_ranks: Vec::with_capacity(nbanks),
            cand_buf: Vec::with_capacity(cfg.queue_capacity),
            slots: vec![[SlotSets::default(); 2]; nbanks],
            busy: [vec![0; busy_words], vec![0; busy_words]],
            starved: 0,
            promote_at: DramCycle::MAX,
            audit: None,
        }
    }

    /// Attaches a fresh shadow protocol auditor, seeded from the live
    /// bank state at the current cycle. Every subsequently issued
    /// command is independently re-validated against the timing table;
    /// the first violation is held until [`Self::take_audit_violation`].
    pub fn enable_audit(&mut self) {
        let mut a = Box::new(ProtocolAuditor::new(
            u16::from(self.channel.0),
            self.timing.ranks(),
            self.timing.banks_per_rank(),
            *self.timing.timing(),
            self.cfg.refresh_enabled,
        ));
        a.attach(&self.timing, self.now);
        self.audit = Some(a);
    }

    /// The auditor's first recorded violation, if any.
    pub fn audit_violation(&self) -> Option<&AuditSnapshot> {
        self.audit.as_ref().and_then(|a| a.violation())
    }

    /// Removes and returns the auditor's first recorded violation.
    pub fn take_audit_violation(&mut self) -> Option<Box<AuditSnapshot>> {
        self.audit.as_mut().and_then(|a| a.take_violation())
    }

    /// Runs the auditor's end-of-run checks (refresh-interval bounds).
    pub fn finish_audit(&mut self) {
        let now = self.now;
        if let Some(a) = self.audit.as_deref_mut() {
            a.finish(now);
        }
    }

    /// Transactions the channel currently owns: queued plus in-flight
    /// CAS bursts. The conservation auditor reconciles this against its
    /// own request accounting.
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.inflight_txns.len()
    }

    /// Fault-injection seam (`WedgeBank`): freezes one bank so no
    /// command ever becomes issuable to it again. Requests queued for
    /// it starve; the forward-progress watchdog must trip.
    pub fn wedge_bank(&mut self, rank: RankId, bank: critmem_common::BankId) {
        self.timing.wedge_bank(rank, bank);
        self.no_cand_until = 0;
    }

    /// Fault-injection seam (`CorruptSchedulerDecision`): mutates the
    /// bank timing state with a rogue pair of back-to-back ACTs to rank
    /// 0 bank 0 in the same cycle — the second lands on the bank the
    /// first just opened, which no legal scheduler decision can
    /// produce. The model's own assertions are bypassed on purpose:
    /// without the auditor this silently perturbs timing (exactly the
    /// corruption class the audit exists to catch); with it, the
    /// violation surfaces as a typed error.
    pub fn corrupt_decision(&mut self) {
        let now = self.now;
        for row in [1, 2] {
            let cmd = DramCommand {
                kind: CommandKind::Activate,
                rank: RankId(0),
                bank: critmem_common::BankId(0),
                row,
            };
            if let Some(a) = self.audit.as_deref_mut() {
                a.observe(&cmd, now);
            }
            self.timing.issue_unchecked(&cmd, now);
        }
        self.recount_bank_state();
        self.no_cand_until = 0;
    }

    /// Current DRAM cycle.
    pub fn now(&self) -> DramCycle {
        self.now
    }

    /// Number of queued transactions.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the transaction queue can accept another entry.
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Age (in DRAM cycles) of the oldest queued transaction, or
    /// `None` when the queue is empty. The forward-progress watchdog
    /// compares this against its request-age limit: the §3.2
    /// starvation cap should have forced anything this old out long
    /// ago, so an ancient entry means the scheduler is wedged.
    pub fn oldest_queued_age(&self) -> Option<DramCycle> {
        self.queue.iter().map(|t| t.age(self.now)).max()
    }

    /// Appends the per-bank transaction-queue state (count and oldest
    /// age per bank; only non-empty banks) for a watchdog diagnostic
    /// snapshot.
    pub fn bank_queue_snapshot(&self, out: &mut Vec<critmem_common::BankQueueState>) {
        let bpr = self.timing.banks_per_rank();
        let nbanks = self.timing.ranks() * bpr;
        let mut queued = vec![0usize; nbanks];
        let mut oldest = vec![0u64; nbanks];
        for txn in &self.queue {
            let idx = txn.loc.rank.index() * bpr + txn.loc.bank.index();
            queued[idx] += 1;
            oldest[idx] = oldest[idx].max(txn.age(self.now));
        }
        for (idx, &n) in queued.iter().enumerate() {
            if n > 0 {
                out.push(critmem_common::BankQueueState {
                    channel: self.channel.0,
                    bank: idx as u16,
                    queued: n,
                    oldest_age: oldest[idx],
                });
            }
        }
    }

    /// Reports channel statistics plus scheduler-internal metrics (the
    /// latter `sched_`-prefixed) to the observability layer. The caller
    /// is expected to have set the component path (e.g. `dram.ch0`).
    pub fn observe_metrics(&self, v: &mut dyn critmem_common::MetricVisitor) {
        self.stats.observe(v);
        v.gauge("queue_depth", "transactions", self.queue.len() as f64);
        self.scheduler.observe_metrics(v);
    }

    /// Enqueues a request. Returns the request back if the queue is
    /// full (the caller retries later).
    ///
    /// # Panics
    ///
    /// Panics if the request's address maps to a different channel.
    pub fn enqueue(&mut self, req: MemRequest, loc: DramLocation) -> Result<(), MemRequest> {
        assert_eq!(loc.channel, self.channel, "request routed to wrong channel");
        if !self.has_space() {
            self.stats.rejected_full += 1;
            return Err(req);
        }
        let txn = Transaction::new(req, loc, self.now, self.seq);
        self.seq += 1;
        self.promote_at = self
            .promote_at
            .min(txn.arrival.saturating_add(self.cfg.starvation_cap + 1));
        if !txn.is_read() {
            self.queued_writes += 1;
        } else if txn.req.crit.is_critical() {
            self.queued_crit_reads += 1;
        }
        self.scheduler.on_enqueue(&txn, self.now);
        let slot = self.queue.len();
        self.queue.push(txn);
        self.file_slot(slot);
        // The new transaction adds no candidate but its own, and filing
        // it only blocks others (a row hit holds off its bank's PRE), so
        // the proven-empty window holds up to its own candidacy. One of
        // the other direction waits for a flip, which resets the window.
        if self.queue[slot].matches_direction(self.direction) {
            self.no_cand_until = self.no_cand_until.min(self.ready_at(slot));
        }
        self.no_cand_until = self.no_cand_until.min(self.promote_at);
        Ok(())
    }

    /// Raises the criticality annotation of an already-queued request,
    /// identified by request id. Returns `true` if the request was
    /// still queued. This models the §5.1 "naive" scheme where the
    /// ROB-block event itself is forwarded to the controller over a
    /// side channel.
    pub fn promote_request(
        &mut self,
        id: critmem_common::ReqId,
        crit: critmem_common::Criticality,
    ) -> bool {
        for txn in &mut self.queue {
            if txn.req.id == id {
                if crit > txn.req.crit {
                    if txn.is_read() && crit.is_critical() && !txn.req.crit.is_critical() {
                        self.queued_crit_reads += 1;
                    }
                    txn.req.crit = crit;
                }
                return true;
            }
        }
        false
    }

    /// Raises the criticality of a queued read matching `(line
    /// address, core)` — same purpose as [`Self::promote_request`]
    /// when the sender only knows the address.
    pub fn promote_by_addr(
        &mut self,
        addr: critmem_common::PhysAddr,
        core: critmem_common::CoreId,
        crit: critmem_common::Criticality,
    ) -> bool {
        for txn in &mut self.queue {
            if txn.req.addr == addr && txn.req.core == core && txn.is_read() {
                if crit > txn.req.crit {
                    if crit.is_critical() && !txn.req.crit.is_critical() {
                        self.queued_crit_reads += 1;
                    }
                    txn.req.crit = crit;
                }
                return true;
            }
        }
        false
    }

    /// Advances the channel by one DRAM cycle; returns transactions
    /// whose data finished transferring this cycle.
    ///
    /// Convenience wrapper over [`Self::tick_into`]; hot callers should
    /// pass a reused buffer to `tick_into` instead (the returned `Vec`
    /// only allocates when completions actually occur).
    pub fn tick(&mut self) -> Vec<CompletedTxn> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Advances the channel by one DRAM cycle, appending transactions
    /// whose data finished transferring this cycle to `out`.
    ///
    /// This is the allocation-free hot path: all per-cycle working sets
    /// (candidate list, refresh ranks, per-bank masks) live in scratch
    /// buffers owned by the controller, so steady-state ticks perform
    /// no heap allocation at all.
    pub fn tick_into(&mut self, out: &mut Vec<CompletedTxn>) {
        self.now += 1;
        let now = self.now;
        self.stats.ticks += 1;
        self.stats.occupancy_sum += self.queue.len() as u64;
        if self.queued_crit_reads >= 1 {
            self.stats.ticks_with_critical += 1;
            if self.queued_crit_reads > 1 {
                self.stats.ticks_with_multiple_critical += 1;
            }
        }
        self.update_direction();

        // Refresh has hard priority: a rank whose refresh has fallen
        // due stops accepting new work until the REF has issued. The
        // per-rank scan is gated on a cached horizon: below
        // `refresh_check_at` with nothing pending it is a no-op, so the
        // common case skips it entirely.
        self.refresh_ranks.clear();
        if self.cfg.refresh_enabled && now >= self.refresh_check_at {
            self.timing
                .update_refresh_into(now, &mut self.refresh_ranks);
            self.refresh_check_at = if self.refresh_ranks.is_empty() {
                self.timing.earliest_refresh_due()
            } else {
                now // stay hot until the REF actually issues
            };
        }
        let mut issued = false;
        if !self.refresh_ranks.is_empty() {
            // Refresh filtering perturbs candidacy: drop any
            // proven-empty window while a refresh is in progress.
            self.no_cand_until = 0;
            let ranks = std::mem::take(&mut self.refresh_ranks);
            issued = self.try_refresh_sequence(&ranks);
            self.refresh_ranks = ranks;
        }

        if !issued {
            if self.queue.is_empty() || now < self.no_cand_until {
                // Fast path — the queue is empty, or a previous build
                // proved no command can become ready before
                // `no_cand_until` and nothing has changed since. The
                // scheduler still observes the cycle.
                let ctx = SchedContext {
                    now,
                    channel: self.channel,
                    queue: &self.queue,
                    timing: &self.timing,
                    direction: self.direction,
                };
                self.scheduler.on_tick(&ctx);
            } else {
                let next_cand_at = self.build_candidates();
                let candidates = std::mem::take(&mut self.cand_buf);
                let choice = {
                    let ctx = SchedContext {
                        now,
                        channel: self.channel,
                        queue: &self.queue,
                        timing: &self.timing,
                        direction: self.direction,
                    };
                    self.scheduler.on_tick(&ctx);
                    if candidates.is_empty() {
                        None
                    } else {
                        self.scheduler.select(&ctx, &candidates)
                    }
                };
                let mut issued_cmd = false;
                if let Some(i) = choice {
                    self.issue_candidate(candidates[i]);
                    issued_cmd = true;
                } else if candidates.is_empty() && self.refresh_ranks.is_empty() {
                    // No refresh exclusions were in force, so the
                    // emptiness proof holds until `next_cand_at`.
                    self.no_cand_until = next_cand_at;
                }
                self.cand_buf = candidates;
                // Post-issue emptiness proof: issuing wipes the window
                // (`issue_candidate` resets it), which used to leave
                // the event horizon pinned to the very next tick just
                // to rebuild the proof — turning every command into a
                // one-tick skip barrier on otherwise-idle channels.
                // Rebuilding right here, against the just-updated bank
                // timing, lets a lightly loaded channel publish the
                // full post-command quiet window (tRCD, tRP, CAS
                // latency) immediately. Gated on queue depth so busy
                // channels — where the next tick almost certainly has
                // a candidate anyway — never pay a second build.
                if issued_cmd
                    && self.refresh_ranks.is_empty()
                    && !self.queue.is_empty()
                    && self.queue.len() <= POST_ISSUE_PROOF_MAX_QUEUE
                {
                    let next = self.build_candidates();
                    if self.cand_buf.is_empty() {
                        self.no_cand_until = next;
                    }
                }
            }
        }

        self.collect_completions_into(out);
    }

    /// The earliest future DRAM cycle at which [`Self::tick_into`]
    /// could do anything beyond the per-cycle bookkeeping that
    /// [`Self::skip`] replays in closed form. Returns at least
    /// `now + 1`; `DramCycle::MAX` means the channel is inert until new
    /// work arrives.
    ///
    /// This is the channel's half of the skip-ahead contract,
    /// generalizing the proven-empty candidate-window optimization
    /// (`no_cand_until`) into a full event horizon. A tick is pure
    /// bookkeeping exactly when every stage of `tick_into` is provably
    /// a no-op, so the horizon is the min over:
    ///
    /// * the earliest in-flight CAS completion,
    /// * the refresh scan gate (`refresh_check_at`; the gate "stays
    ///   hot" — equals `now` — while a REF is pending, pinning the
    ///   horizon to `now + 1` until it issues),
    /// * the proven-empty candidate window (`no_cand_until`) when
    ///   transactions are queued — a window of 0 means "rebuild next
    ///   tick". `build_candidates` already folds starvation-cap
    ///   crossings into this bound, so a promotion-counting cycle is
    ///   never jumped,
    /// * a pending read/write direction switch (would fire next tick),
    /// * the scheduler's own quantum/shuffle horizon
    ///   ([`CommandScheduler::next_event_cycle`]).
    pub fn next_event_cycle(&self) -> DramCycle {
        let nxt = self.now + 1;
        let mut horizon = DramCycle::MAX;
        if let Some(&Reverse((done, _))) = self.inflight.peek() {
            horizon = horizon.min(done);
        }
        if self.cfg.refresh_enabled {
            horizon = horizon.min(self.refresh_check_at.max(nxt));
        }
        if !self.queue.is_empty() {
            horizon = horizon.min(self.no_cand_until.max(nxt));
        }
        // Both fields are checkpointed state, so a skipped cycle must
        // not be one on which they would change.
        if self.next_direction() != (self.direction, self.draining) {
            horizon = horizon.min(nxt);
        }
        horizon = horizon.min(
            self.scheduler
                .next_event_cycle(self.now, self.queue.len())
                .max(nxt),
        );
        horizon.max(nxt)
    }

    /// The `(direction, draining)` pair the next [`Self::tick_into`]'s
    /// `update_direction` will set: the one home of the read/write
    /// turnaround rule. Reads turn to writes at the high watermark
    /// (a drain) or when no read is queued; writes turn back when none
    /// is left, when a drain reaches the low watermark, or when a
    /// non-drain visit meets a read.
    fn next_direction(&self) -> (Direction, bool) {
        let writes = self.queued_writes;
        let reads = self.queue.len() - writes;
        match self.direction {
            Direction::Read if writes >= self.cfg.write_high_watermark => (Direction::Write, true),
            Direction::Read if reads == 0 && writes > 0 => (Direction::Write, false),
            Direction::Write
                if writes == 0
                    || (self.draining && writes <= self.cfg.write_low_watermark)
                    || (!self.draining && reads > 0) =>
            {
                (Direction::Read, false)
            }
            _ => (self.direction, self.draining),
        }
    }

    /// Batch-advances `d` DRAM cycles that [`Self::next_event_cycle`]
    /// proved inert (the caller guarantees
    /// `now + d < next_event_cycle()`), replaying exactly the per-cycle
    /// statistics a serial run of `d` such ticks would have
    /// accumulated. Timing state, the transaction queue, the scheduler,
    /// and the direction machine are untouched — that is what the
    /// horizon proved.
    pub fn skip(&mut self, d: DramCycle) {
        self.now += d;
        self.stats.ticks += d;
        self.stats.occupancy_sum += self.queue.len() as u64 * d;
        if self.queued_crit_reads >= 1 {
            self.stats.ticks_with_critical += d;
            if self.queued_crit_reads > 1 {
                self.stats.ticks_with_multiple_critical += d;
            }
        }
    }

    fn update_direction(&mut self) {
        debug_assert_eq!(
            self.queued_writes,
            self.queue.iter().filter(|t| !t.is_read()).count(),
            "incremental write count out of sync"
        );
        debug_assert_eq!(
            self.queued_crit_reads,
            self.queue
                .iter()
                .filter(|t| t.is_read() && t.req.crit.is_critical())
                .count(),
            "incremental critical-read count out of sync"
        );
        let before = self.direction;
        (self.direction, self.draining) = self.next_direction();
        if self.direction != before {
            self.no_cand_until = 0;
        }
    }

    /// Attempts to advance the refresh sequence for the first pending
    /// rank; returns `true` if a command slot was consumed.
    fn try_refresh_sequence(&mut self, pending: &[RankId]) -> bool {
        let now = self.now;
        for &rank in pending {
            let refresh = DramCommand {
                kind: CommandKind::Refresh,
                rank,
                bank: critmem_common::BankId(0),
                row: 0,
            };
            if let Some(t) = self.timing.earliest_issue(&refresh) {
                if t <= now {
                    if let Some(a) = self.audit.as_deref_mut() {
                        a.observe(&refresh, now);
                    }
                    self.timing.issue(&refresh, now);
                    self.stats.refreshes += 1;
                    return true;
                }
                continue;
            }
            // Some bank is still open: precharge the first ready one.
            let bpr = self.timing.banks_per_rank();
            for b in 0..bpr {
                let bank = critmem_common::BankId(b as u8);
                if self.timing.bank(rank, bank).open_row.is_none() {
                    continue;
                }
                let pre = DramCommand {
                    kind: CommandKind::Precharge,
                    rank,
                    bank,
                    row: 0,
                };
                if let Some(t) = self.timing.earliest_issue(&pre) {
                    if t <= now {
                        if let Some(a) = self.audit.as_deref_mut() {
                            a.observe(&pre, now);
                        }
                        self.timing.issue(&pre, now);
                        self.file_closed_row(rank.index() * bpr + b);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Generates the ready-command candidate list for this cycle.
    ///
    /// Starvation enforcement is the controller's job, not the
    /// scheduler's (§3.2's 6,000-cycle cap): if any *ready* command
    /// belongs to a transaction that has aged past the cap, only those
    /// commands are offered to the scheduler, so even schedulers that
    /// ignore the criticality annotation (plain FR-FCFS, AHB, …)
    /// cannot starve a request indefinitely behind a stream of row
    /// hits.
    ///
    /// Fills `cand_buf` with this cycle's ready commands, in queue
    /// order. Returns the earliest future cycle at which the candidate
    /// set could become non-empty *absent any state change* — the
    /// caller may skip generation until then if the set came back
    /// empty.
    ///
    /// Only busy banks of the current direction are visited. A bank's
    /// CAS, PRE and ACT readiness depends on the bank alone (and its
    /// rank's bus floor), so each ready class ORs its whole slot set
    /// into one mask per command kind; walking the union's bits in
    /// ascending order yields queue order without a sort.
    fn build_candidates(&mut self) -> DramCycle {
        let now = self.now;
        if now >= self.promote_at {
            self.promote_starved();
        }
        debug_assert!(
            self.bank_state_matches_queue(),
            "per-bank candidate state out of sync"
        );
        let cap = self.cfg.starvation_cap;
        let bpr = self.timing.banks_per_rank();
        let dir = usize::from(self.direction == Direction::Write);
        // A starvation crossing changes candidacy (and is counted at an
        // exact cycle): cap any emptiness window at the next crossing.
        let mut next_cand_at = self.promote_at;
        let (mut cas, mut pre, mut act) = (0u64, 0u64, 0u64);
        // Every slot of a class shares its ready time: OR a ready class
        // into its command's mask, or let it bound the empty window.
        let mut file = |class: u64, mask: &mut u64| {
            if class == 0 {
                return;
            }
            let ready = self.ready_at(class.trailing_zeros() as usize);
            if ready <= now {
                *mask |= class;
            } else {
                next_cand_at = next_cand_at.min(ready);
            }
        };
        for (w, &word) in self.busy[dir].iter().enumerate() {
            let mut banks = word;
            while banks != 0 {
                let b = w * u64::BITS as usize + banks.trailing_zeros() as usize;
                banks &= banks - 1;
                let rank = RankId((b / bpr) as u8);
                if self.refresh_ranks.contains(&rank) {
                    continue;
                }
                let bank = self.timing.bank(rank, BankId((b % bpr) as u8));
                let sets = self.slots[b][dir];
                let (mut hit, mut other) = (sets.hit, sets.other);
                // Bank quiescence for the starvation cap (§3.2): while a
                // bank holds a starved transaction, no other work may
                // issue there, or the starved PRE's tRTP window would
                // keep sliding forever.
                let starved = sets.all() & self.starved;
                if starved != 0 {
                    hit &= starved;
                    other &= starved;
                }
                file(hit, &mut cas);
                match bank.open_row {
                    None => file(other, &mut act),
                    // Row conflict: precharge, but not while another
                    // transaction still wants the open row — unless a
                    // starved one needs the row closed regardless.
                    Some(_) if sets.hit == 0 || starved != 0 => file(other, &mut pre),
                    Some(_) => {}
                }
            }
        }
        let cas_kind = match self.direction {
            Direction::Read => CommandKind::Read,
            Direction::Write => CommandKind::Write,
        };
        self.cand_buf.clear();
        let mut ready = cas | pre | act;
        while ready != 0 {
            let i = ready.trailing_zeros() as usize;
            let bit = ready & ready.wrapping_neg();
            ready &= ready - 1;
            let txn = &self.queue[i];
            let kind = if cas & bit != 0 {
                cas_kind
            } else if pre & bit != 0 {
                CommandKind::Precharge
            } else {
                CommandKind::Activate
            };
            self.cand_buf.push(Candidate {
                txn: i,
                cmd: DramCommand {
                    kind,
                    rank: txn.loc.rank,
                    bank: txn.loc.bank,
                    row: txn.loc.row,
                },
                row_hit: cas & bit != 0,
                crit: txn.effective_criticality(now, cap),
            });
        }
        next_cand_at
    }

    /// Earliest cycle at which the command class of queue slot `slot`
    /// (its bank's CAS, PRE or ACT, in the slot's own direction) is
    /// timing-ready. Every slot of a bank's class shares it.
    fn ready_at(&self, slot: usize) -> DramCycle {
        let txn = &self.queue[slot];
        let bank = self.timing.bank(txn.loc.rank, txn.loc.bank);
        match bank.open_row {
            Some(r) if r == txn.loc.row => {
                let (kind, own) = if txn.is_read() {
                    (CommandKind::Read, bank.next_rd)
                } else {
                    (CommandKind::Write, bank.next_wr)
                };
                own.max(self.timing.cas_bus_floor(kind, txn.loc.rank))
            }
            Some(_) => bank.next_pre,
            None => bank.next_act,
        }
    }

    /// Promotes every queued transaction that has aged past the
    /// starvation cap (counting each promotion once) and recomputes
    /// [`Self::promote_at`] exactly.
    fn promote_starved(&mut self) {
        let now = self.now;
        let cap = self.cfg.starvation_cap;
        let mut next = DramCycle::MAX;
        for (i, txn) in self.queue.iter_mut().enumerate() {
            if txn.starved {
                continue;
            }
            if txn.age(now) > cap {
                txn.starved = true;
                self.stats.starvation_promotions += 1;
                self.starved |= 1 << i;
            } else {
                next = next.min(txn.arrival.saturating_add(cap + 1));
            }
        }
        self.promote_at = next;
    }

    /// The [`Self::slots`] index of a location's bank.
    fn bank_index(&self, loc: &DramLocation) -> usize {
        loc.rank.index() * self.timing.banks_per_rank() + loc.bank.index()
    }

    /// Files queue slot `slot` in its bank's slot sets, the busy set
    /// and the starved set.
    fn file_slot(&mut self, slot: usize) {
        let txn = &self.queue[slot];
        let (b, d) = (self.bank_index(&txn.loc), dir_slot(txn));
        let bit = 1u64 << slot;
        let sets = &mut self.slots[b][d];
        if self.timing.bank(txn.loc.rank, txn.loc.bank).open_row == Some(txn.loc.row) {
            sets.hit |= bit;
        } else {
            sets.other |= bit;
        }
        let (w, m) = busy_bit(b);
        self.busy[d][w] |= m;
        if txn.starved {
            self.starved |= bit;
        }
    }

    /// Removes the transaction a CAS just served from the queue and
    /// from its slot sets, and relabels the slot that `swap_remove`
    /// moved into its place.
    fn remove_served(&mut self, slot: usize) -> Transaction {
        let last = self.queue.len() - 1;
        let txn = self.queue.swap_remove(slot);
        let (b, d) = (self.bank_index(&txn.loc), dir_slot(&txn));
        let bit = 1u64 << slot;
        // A CAS always targets its bank's open row.
        self.slots[b][d].hit &= !bit;
        self.starved &= !bit;
        if self.slots[b][d].all() == 0 {
            let (w, m) = busy_bit(b);
            self.busy[d][w] &= !m;
        }
        if slot != last {
            let moved = &self.queue[slot];
            let (b, d) = (self.bank_index(&moved.loc), dir_slot(moved));
            let from = 1u64 << last;
            let sets = &mut self.slots[b][d];
            for set in [&mut sets.hit, &mut sets.other, &mut self.starved] {
                if *set & from != 0 {
                    *set ^= from | bit;
                }
            }
        }
        txn
    }

    /// Moves the slots of `loc`'s bank whose row an ACT just opened
    /// (`loc.row`) from `other` to `hit`.
    fn file_opened_row(&mut self, loc: &DramLocation) {
        let b = self.bank_index(loc);
        for sets in &mut self.slots[b] {
            let mut rest = sets.other;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if self.queue[i].loc.row == loc.row {
                    sets.hit |= 1 << i;
                }
            }
            sets.other &= !sets.hit;
        }
    }

    /// Folds bank `b`'s `hit` sets into `other` after a PRE closed its
    /// row.
    fn file_closed_row(&mut self, b: usize) {
        for sets in &mut self.slots[b] {
            sets.other |= sets.hit;
            sets.hit = 0;
        }
    }

    /// Refiles every queued slot and resets the promotion gate (after a
    /// restore or a rogue command).
    fn recount_bank_state(&mut self) {
        self.slots.fill([SlotSets::default(); 2]);
        for words in &mut self.busy {
            words.fill(0);
        }
        self.starved = 0;
        for slot in 0..self.queue.len() {
            self.file_slot(slot);
        }
        // A scan at the next build recomputes the gate exactly.
        self.promote_at = 0;
    }

    /// Whether the slot sets, the busy set, the starved set and
    /// `promote_at` agree with a recount of the queue. Allocation-free,
    /// because the debug builds of the allocation guard run it on every
    /// build: each queued slot must sit in the set its bank's open row
    /// names, the sets must hold no other bit, and a bank must be busy
    /// exactly when its sets are non-empty.
    fn bank_state_matches_queue(&self) -> bool {
        let cap = self.cfg.starvation_cap;
        let gate_ok = self
            .queue
            .iter()
            .all(|t| t.starved || t.arrival.saturating_add(cap + 1) >= self.promote_at);
        let filed = self.queue.iter().enumerate().all(|(i, txn)| {
            let bit = 1u64 << i;
            let sets = self.slots[self.bank_index(&txn.loc)][dir_slot(txn)];
            let hit = self.timing.bank(txn.loc.rank, txn.loc.bank).open_row == Some(txn.loc.row);
            let set = if hit { sets.hit } else { sets.other };
            set & bit != 0 && (self.starved & bit != 0) == txn.starved
        });
        let (mut slots, mut busy) = (0, 0);
        let mut busy_ok = true;
        for (b, pair) in self.slots.iter().enumerate() {
            for (d, sets) in pair.iter().enumerate() {
                slots += sets.hit.count_ones() + sets.other.count_ones();
                let (w, m) = busy_bit(b);
                busy_ok &= (self.busy[d][w] & m != 0) == (sets.all() != 0);
                busy += u32::from(sets.all() != 0);
            }
        }
        let busy_bits: u32 = self.busy.iter().flatten().map(|w| w.count_ones()).sum();
        let n = self.queue.len();
        gate_ok
            && filed
            && busy_ok
            && slots as usize == n
            && busy_bits == busy
            && self.starved.checked_shr(n as u32).unwrap_or(0) == 0
    }

    fn issue_candidate(&mut self, cand: Candidate) {
        let now = self.now;
        self.no_cand_until = 0;
        if let Some(a) = self.audit.as_deref_mut() {
            a.observe(&cand.cmd, now);
        }
        self.timing.issue(&cand.cmd, now);
        match cand.cmd.kind {
            CommandKind::Activate => {
                self.queue[cand.txn].caused_activate = true;
                let loc = self.queue[cand.txn].loc;
                self.file_opened_row(&loc);
            }
            CommandKind::Precharge => {
                self.queue[cand.txn].caused_precharge = true;
                let b = self.bank_index(&self.queue[cand.txn].loc);
                self.file_closed_row(b);
            }
            CommandKind::Read | CommandKind::Write => {
                let txn = self.remove_served(cand.txn);
                if !txn.is_read() {
                    self.queued_writes -= 1;
                } else if txn.req.crit.is_critical() {
                    self.queued_crit_reads -= 1;
                }
                if txn.caused_precharge {
                    self.stats.row_conflicts += 1;
                } else if txn.caused_activate {
                    self.stats.row_misses += 1;
                } else {
                    self.stats.row_hits += 1;
                }
                self.stats.bus_busy_cycles += self.timing.timing().burst_cycles();
                let done_at = self.timing.cas_done_at(cand.cmd.kind, now);
                self.scheduler.on_complete(&txn, now);
                let completed = CompletedTxn {
                    req: txn.req,
                    done_at,
                    arrival: txn.arrival,
                };
                let key = self.seq;
                self.seq += 1;
                self.inflight.push(Reverse((done_at, key)));
                self.inflight_txns.push((key, completed));
            }
            CommandKind::Refresh => unreachable!("refresh issued outside candidate path"),
        }
    }

    fn collect_completions_into(&mut self, out: &mut Vec<CompletedTxn>) {
        let now = self.now;
        while let Some(&Reverse((done, key))) = self.inflight.peek() {
            if done > now {
                break;
            }
            self.inflight.pop();
            let pos = self
                .inflight_txns
                .iter()
                .position(|(k, _)| *k == key)
                .expect("in-flight bookkeeping out of sync");
            let (_, txn) = self.inflight_txns.swap_remove(pos);
            if txn.req.kind.is_read() {
                self.stats.reads_completed += 1;
                self.stats.read_latency_sum += txn.done_at - txn.arrival;
                if txn.req.crit.is_critical() {
                    self.stats.critical_reads_completed += 1;
                    self.stats.critical_read_latency_sum += txn.done_at - txn.arrival;
                }
            } else {
                self.stats.writes_completed += 1;
            }
            out.push(txn);
        }
    }

    /// Swaps in a different scheduler, discarding the old one's state.
    /// Used when restoring a checkpoint into a cell that studies a
    /// different scheduling policy than the one that warmed it.
    pub fn replace_scheduler(&mut self, scheduler: Box<dyn CommandScheduler>) {
        self.scheduler = scheduler;
        self.no_cand_until = 0;
    }

    /// Serializes the channel's architectural state (timing, queue,
    /// in-flight CAS bursts, direction policy, statistics) plus the
    /// scheduler's own state as a length-prefixed block — so a restore
    /// may discard the block when swapping policies.
    pub fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        self.timing.save_state(w);
        w.put_u32(self.queue.len() as u32);
        for txn in &self.queue {
            txn.encode(w);
        }
        // BinaryHeap iteration order is unspecified: serialize sorted.
        let mut inflight: Vec<(DramCycle, u64)> =
            self.inflight.iter().map(|Reverse(p)| *p).collect();
        inflight.sort_unstable();
        w.put_u32(inflight.len() as u32);
        for (done, key) in inflight {
            w.put_u64(done);
            w.put_u64(key);
        }
        w.put_u32(self.inflight_txns.len() as u32);
        for (key, txn) in &self.inflight_txns {
            w.put_u64(*key);
            txn.req.encode(w);
            w.put_u64(txn.done_at);
            w.put_u64(txn.arrival);
        }
        w.put_u64(self.now);
        w.put_u64(self.seq);
        w.put_bool(self.direction == Direction::Write);
        w.put_bool(self.draining);
        self.stats.encode(w);
        w.put_u64(self.queued_writes as u64);
        w.put_u64(self.queued_crit_reads as u64);
        w.put_u64(self.refresh_check_at);
        let mut sched = critmem_common::codec::ByteWriter::new();
        self.scheduler.save_state(&mut sched);
        w.put_bytes(&sched.into_bytes());
    }

    /// Restores state written by [`Self::save_state`]. When
    /// `load_scheduler` is `false` the scheduler block is skipped and
    /// the freshly constructed scheduler keeps its initial state (the
    /// policy-override hook).
    ///
    /// # Errors
    ///
    /// Fails on a truncated or shape-mismatched snapshot.
    pub fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
        load_scheduler: bool,
    ) -> Result<(), critmem_common::codec::CodecError> {
        self.timing.load_state(r)?;
        let n = r.get_u32()? as usize;
        if n > self.cfg.queue_capacity {
            return Err(critmem_common::codec::CodecError {
                message: format!(
                    "snapshot holds {n} transactions, queue capacity is {}",
                    self.cfg.queue_capacity
                ),
                offset: r.position(),
            });
        }
        self.queue.clear();
        for _ in 0..n {
            self.queue.push(Transaction::decode(r)?);
        }
        self.inflight.clear();
        for _ in 0..r.get_u32()? {
            let done = r.get_u64()?;
            let key = r.get_u64()?;
            self.inflight.push(Reverse((done, key)));
        }
        self.inflight_txns.clear();
        for _ in 0..r.get_u32()? {
            let key = r.get_u64()?;
            let req = MemRequest::decode(r)?;
            let done_at = r.get_u64()?;
            let arrival = r.get_u64()?;
            self.inflight_txns.push((
                key,
                CompletedTxn {
                    req,
                    done_at,
                    arrival,
                },
            ));
        }
        self.now = r.get_u64()?;
        self.seq = r.get_u64()?;
        self.direction = if r.get_bool()? {
            Direction::Write
        } else {
            Direction::Read
        };
        self.draining = r.get_bool()?;
        self.stats = ChannelStats::decode(r)?;
        self.queued_writes = r.get_u64()? as usize;
        self.queued_crit_reads = r.get_u64()? as usize;
        self.refresh_check_at = r.get_u64()?;
        // Candidate-emptiness proofs do not survive a restore; rebuild.
        self.no_cand_until = 0;
        self.recount_bank_state();
        let sched = r.get_bytes()?;
        if load_scheduler {
            let mut sr = critmem_common::codec::ByteReader::new(&sched);
            self.scheduler.load_state(&mut sr)?;
        }
        // Shadow history does not survive a restore either: re-seed
        // from the freshly loaded bank state (open rows; timing floors
        // re-accumulate from the first observed command).
        if self.audit.is_some() {
            self.enable_audit();
        }
        Ok(())
    }
}

/// Direction slot of a transaction in the per-bank slot sets: 0 for
/// reads and prefetches, 1 for writes.
fn dir_slot(txn: &Transaction) -> usize {
    usize::from(!txn.is_read())
}

/// Word and mask of bank `b` in a busy set.
fn busy_bit(b: usize) -> (usize, u64) {
    let bits = u64::BITS as usize;
    (b / bits, 1 << (b % bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{AddressMapping, Interleaving};
    use crate::scheduler::Fcfs;
    use critmem_common::{AccessKind, CoreId};

    fn controller() -> (ChannelController, AddressMapping) {
        let cfg = DramConfig::paper_baseline();
        let map = AddressMapping::new(cfg.org, Interleaving::Page);
        (
            ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new())),
            map,
        )
    }

    fn read_req(id: u64, addr: u64) -> MemRequest {
        MemRequest::new(id, addr, AccessKind::Read, CoreId(0))
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let (mut ctl, map) = controller();
        let addr = 0u64;
        ctl.enqueue(read_req(1, addr), map.locate(addr)).unwrap();
        let mut done = None;
        for _ in 0..200 {
            let completions = ctl.tick();
            if let Some(c) = completions.into_iter().next() {
                done = Some(c);
                break;
            }
        }
        let c = done.expect("read never completed");
        // Closed bank: ACT at cycle 1, READ at 1+tRCD, data at +tCL+4.
        let t = DDR3_2133_T;
        assert_eq!(c.done_at, 1 + t.0 + t.1 + 4);
        assert_eq!(c.req.id, 1);
    }

    const DDR3_2133_T: (u64, u64) = (14, 14); // (tRCD, tCL)

    #[test]
    fn row_hit_second_read_is_faster() {
        let (mut ctl, map) = controller();
        ctl.enqueue(read_req(1, 0), map.locate(0)).unwrap();
        ctl.enqueue(read_req(2, 64), map.locate(64)).unwrap();
        let mut done = Vec::new();
        for _ in 0..200 {
            done.extend(ctl.tick());
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(ctl.stats().row_hits, 1);
        // Second read issues tCCD after the first, not tRCD.
        let gap = done[1].done_at - done[0].done_at;
        assert_eq!(gap, 4); // tCCD
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let (mut ctl, map) = controller();
        for i in 0..64 {
            ctl.enqueue(read_req(i, i * 4096), map.locate(0))
                .unwrap_or_else(|_| panic!("queue should accept 64 entries, failed at {i}"));
        }
        assert!(ctl.enqueue(read_req(99, 0), map.locate(0)).is_err());
        assert_eq!(ctl.stats().rejected_full, 1);
    }

    #[test]
    fn writes_drain_when_no_reads() {
        let (mut ctl, map) = controller();
        let req = MemRequest::new(1, 0, AccessKind::Write, CoreId(0));
        ctl.enqueue(req, map.locate(0)).unwrap();
        let mut done = Vec::new();
        for _ in 0..200 {
            done.extend(ctl.tick());
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(ctl.stats().writes_completed, 1);
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let (mut ctl, map) = controller();
        // One write, then a read: the read should finish first because
        // the controller stays in read mode.
        let w = MemRequest::new(1, 4096, AccessKind::Write, CoreId(0));
        ctl.enqueue(w, map.locate(4096)).unwrap();
        ctl.enqueue(read_req(2, 0), map.locate(0)).unwrap();
        let mut order = Vec::new();
        for _ in 0..500 {
            for c in ctl.tick() {
                order.push(c.req.id);
            }
            if order.len() == 2 {
                break;
            }
        }
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn refresh_eventually_issues() {
        let (mut ctl, _map) = controller();
        let trefi = 8_328u64;
        for _ in 0..trefi + 200 {
            ctl.tick();
        }
        assert!(ctl.stats().refreshes >= 1, "no refresh after tREFI");
    }

    #[test]
    fn starvation_cap_promotes_old_requests() {
        // A stream of row hits to bank 0 must not starve a conflicting
        // request forever once the cap kicks in.
        let mut cfg = DramConfig::paper_baseline();
        cfg.starvation_cap = 200;
        cfg.refresh_enabled = false;
        let map = AddressMapping::new(cfg.org, Interleaving::Page);
        let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        let victim = 16 * 1024 * 1024; // same bank, different row (big offset)
        let vloc = map.locate(victim);
        let base = map.locate(0);
        assert_eq!(vloc.channel, base.channel);
        ctl.enqueue(read_req(1, victim), vloc).unwrap();
        let mut completed = false;
        for i in 0..4_000u64 {
            for c in ctl.tick() {
                if c.req.id == 1 {
                    completed = true;
                }
            }
            if completed {
                break;
            }
            // Keep feeding row hits to row 0 (FCFS will serve oldest
            // first anyway; this exercises the promotion accounting).
            if i % 8 == 0 {
                let addr = (i % 16) * 64;
                let _ = ctl.enqueue(read_req(100 + i, addr), map.locate(addr));
            }
        }
        assert!(completed, "victim request starved");
    }

    #[test]
    fn zero_tick_stats_do_not_divide_by_zero() {
        let stats = ChannelStats::default();
        assert_eq!(stats.mean_occupancy(), 0.0);
        assert_eq!(stats.row_hit_rate(), 0.0);
        assert_eq!(stats.mean_read_latency(), 0.0);
    }

    #[test]
    fn tick_into_reuses_caller_buffer() {
        let (mut ctl, map) = controller();
        ctl.enqueue(read_req(1, 0), map.locate(0)).unwrap();
        let mut out = Vec::with_capacity(4);
        let mut done = Vec::new();
        for _ in 0..200 {
            out.clear();
            ctl.tick_into(&mut out);
            done.append(&mut out);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].req.id, 1);
    }

    #[test]
    fn promotion_keeps_critical_occupancy_stats() {
        let (mut ctl, map) = controller();
        let addr = 16 * 1024 * 1024;
        ctl.enqueue(read_req(1, addr), map.locate(addr)).unwrap();
        ctl.tick();
        assert_eq!(ctl.stats().ticks_with_critical, 0);
        assert!(ctl.promote_request(1, critmem_common::Criticality::ranked(7)));
        ctl.tick();
        assert_eq!(ctl.stats().ticks_with_critical, 1);
    }

    #[test]
    fn occupancy_tracks_queue() {
        let (mut ctl, map) = controller();
        ctl.enqueue(read_req(1, 0), map.locate(0)).unwrap();
        ctl.tick();
        assert!(ctl.stats().occupancy_sum >= 1);
        assert_eq!(ctl.stats().ticks, 1);
    }
}

#[cfg(test)]
mod refresh_gate_tests {
    use super::*;
    use crate::scheduler::Fcfs;
    use critmem_common::ChannelId;

    #[test]
    fn disabling_refresh_suppresses_ref_commands() {
        let mut cfg = DramConfig::paper_baseline();
        cfg.refresh_enabled = false;
        let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        for _ in 0..cfg.preset.timing.t_refi * 3 {
            ctl.tick();
        }
        assert_eq!(ctl.stats().refreshes, 0);
    }
}

#[cfg(test)]
mod bank_state_tests {
    use super::*;
    use crate::mapping::{AddressMapping, Interleaving};
    use crate::scheduler::Fcfs;
    use critmem_common::codec::{ByteReader, ByteWriter};
    use critmem_common::{AccessKind, BankId, CoreId, Criticality, SmallRng};

    /// Refiles the queue into fresh slot, busy and starved sets,
    /// checks the controller's against them, and checks the promotion
    /// gate against every non-promoted transaction.
    fn assert_matches_recount(ctl: &ChannelController, step: u64) {
        let bpr = ctl.timing.banks_per_rank();
        let mut slots = vec![[SlotSets::default(); 2]; ctl.slots.len()];
        let mut busy = [0, 1].map(|d| vec![0u64; ctl.busy[d].len()]);
        let mut starved = 0u64;
        for (i, txn) in ctl.queue.iter().enumerate() {
            let (b, d) = (
                txn.loc.rank.index() * bpr + txn.loc.bank.index(),
                dir_slot(txn),
            );
            if ctl.timing.bank(txn.loc.rank, txn.loc.bank).open_row == Some(txn.loc.row) {
                slots[b][d].hit |= 1 << i;
            } else {
                slots[b][d].other |= 1 << i;
            }
            busy[d][b / 64] |= 1 << (b % 64);
            if txn.starved {
                starved |= 1 << i;
            } else {
                assert!(
                    txn.arrival + ctl.cfg.starvation_cap + 1 >= ctl.promote_at,
                    "promotion gate past a pending crossing at step {step}"
                );
            }
        }
        assert_eq!(ctl.slots, slots, "slot sets at step {step}");
        assert_eq!(ctl.busy, busy, "busy banks at step {step}");
        assert_eq!(ctl.starved, starved, "starved slots at step {step}");
        assert!(ctl.bank_state_matches_queue(), "self-check at step {step}");
    }

    fn state_bytes(ctl: &ChannelController) -> Vec<u8> {
        let mut w = ByteWriter::new();
        ctl.save_state(&mut w);
        w.into_bytes()
    }

    /// Draws one request (light and heavy, read- and write-heavy
    /// phases over the first `pages` 4 KB pages: 32 banks x 6 rows at
    /// 192 on the baseline organization) and offers it to every
    /// controller in `ctls`. Returns whether the first one accepted it.
    fn offer(
        ctls: &mut [&mut ChannelController],
        rng: &mut SmallRng,
        map: &AddressMapping,
        id: u64,
        pages: u64,
    ) -> bool {
        let phase = id / 1_500;
        if !rng.gen_bool([0.05, 0.3][phase as usize % 2]) {
            return false;
        }
        let kind = if rng.gen_bool([0.15, 0.7][(phase / 2) as usize % 2]) {
            AccessKind::Write
        } else if rng.gen_bool(0.1) {
            AccessKind::Prefetch
        } else {
            AccessKind::Read
        };
        let addr = rng.gen_range(0..pages) * 4_096 + rng.gen_range(0..16) * 64;
        let crit = if rng.gen_bool(0.3) {
            Criticality::ranked(rng.gen_range(1..100))
        } else {
            Criticality::non_critical()
        };
        let req = MemRequest::new(id, addr, kind, CoreId((id % 8) as u8)).with_criticality(crit);
        let mut accepted = Vec::new();
        for ctl in ctls {
            accepted.push(ctl.enqueue(req, map.locate(addr)).is_ok());
        }
        accepted[0]
    }

    /// Drives every input that moves the per-bank slot sets — enqueues,
    /// CAS, ACT, candidate and refresh PREs, promotions, a wedged bank,
    /// a rogue decision, a scheduler swap — and checks them against a
    /// recount after each step. Then restores a mid-run snapshot, taken
    /// while the wedged bank holds starved transactions, into a fresh
    /// controller and checks that both run on byte-identically.
    #[test]
    fn per_bank_counters_match_a_recount_through_every_input() {
        let mut cfg = DramConfig::paper_baseline();
        cfg.starvation_cap = 150;
        let map = AddressMapping::new(cfg.org, Interleaving::Page);
        let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        let mut rng = SmallRng::seed_from_u64(0xBA4C);
        for step in 0..11_000u64 {
            offer(&mut [&mut ctl], &mut rng, &map, step, 192);
            assert_matches_recount(&ctl, step);
            match step {
                6_000 => ctl.wedge_bank(RankId(1), BankId(3)),
                7_000 => ctl.corrupt_decision(),
                8_000 => ctl.replace_scheduler(Box::new(Fcfs::new())),
                _ => {}
            }
            ctl.tick();
            assert_matches_recount(&ctl, step);
        }
        let wedged = ctl.slots[RankId(1).index() * ctl.timing.banks_per_rank() + 3];
        assert!((wedged[0].all() | wedged[1].all()) & ctl.starved != 0);
        assert!(ctl.stats.refreshes > 0 && ctl.stats.writes_completed > 0);

        let bytes = state_bytes(&ctl);
        let mut restored = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        restored
            .load_state(&mut ByteReader::new(&bytes), true)
            .unwrap();
        assert_matches_recount(&restored, 11_000);
        for step in 11_000..16_000u64 {
            offer(&mut [&mut ctl, &mut restored], &mut rng, &map, step, 192);
            let (a, b) = (ctl.tick(), restored.tick());
            assert_eq!(a, b, "completions diverged at step {step}");
            assert_matches_recount(&restored, step);
            assert_eq!(
                state_bytes(&ctl),
                state_bytes(&restored),
                "restored controller diverged at step {step}"
            );
        }
        assert!(ctl.stats.starvation_promotions > 0);
    }

    /// Runs the seeded request sequence on 8 ranks x 16 banks, so the
    /// busy set spans two words. The sets must match a recount after
    /// every input, a mid-run snapshot must restore into a controller
    /// that ticks byte-identically, and every accepted request must
    /// complete once the offers stop.
    #[test]
    fn slot_sets_hold_past_64_banks() {
        let mut cfg = DramConfig::paper_baseline();
        cfg.org.ranks_per_channel = 8;
        cfg.org.banks_per_rank = 16;
        cfg.starvation_cap = 150;
        cfg.validate().unwrap();
        let map = AddressMapping::new(cfg.org, Interleaving::Page);
        let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        assert_eq!(ctl.busy[0].len(), 2);
        let mut rng = SmallRng::seed_from_u64(0x80B4);
        let mut pending = std::collections::HashSet::new();
        let complete = |pending: &mut std::collections::HashSet<u64>, done: &[CompletedTxn]| {
            for c in done {
                assert!(
                    pending.remove(&c.req.id),
                    "request {} completed twice",
                    c.req.id
                );
            }
        };
        let pages = 128 * 3;
        for step in 0..6_000u64 {
            if offer(&mut [&mut ctl], &mut rng, &map, step, pages) {
                pending.insert(step);
            }
            assert_matches_recount(&ctl, step);
            complete(&mut pending, &ctl.tick());
            assert_matches_recount(&ctl, step);
        }
        let high_banks = ctl.busy.iter().any(|words| words[1] != 0);
        assert!(high_banks, "no bank past the 64th was busy");

        let bytes = state_bytes(&ctl);
        let mut restored = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        restored
            .load_state(&mut ByteReader::new(&bytes), true)
            .unwrap();
        assert_matches_recount(&restored, 6_000);
        for step in 6_000..20_000u64 {
            if step < 9_000 && offer(&mut [&mut ctl, &mut restored], &mut rng, &map, step, pages) {
                pending.insert(step);
            }
            let (a, b) = (ctl.tick(), restored.tick());
            assert_eq!(a, b, "completions diverged at step {step}");
            complete(&mut pending, &a);
            assert_matches_recount(&restored, step);
            assert_eq!(
                state_bytes(&ctl),
                state_bytes(&restored),
                "restored controller diverged at step {step}"
            );
        }
        assert_eq!(ctl.outstanding(), 0);
        assert!(
            pending.is_empty(),
            "{} requests never completed",
            pending.len()
        );
        assert!(ctl.stats.writes_completed > 0 && ctl.stats.starvation_promotions > 0);
    }
}
