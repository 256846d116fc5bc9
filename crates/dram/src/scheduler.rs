//! The command-scheduler interface — the extension point this whole
//! reproduction revolves around.
//!
//! Every DRAM cycle the controller assembles the set of *ready*
//! commands (one candidate per queued transaction that could legally
//! issue this cycle) and asks the scheduler to pick one. FR-FCFS, the
//! criticality-aware variants, AHB, PAR-BS, TCM, and the MORSE-style
//! reinforcement-learning scheduler all implement [`CommandScheduler`]
//! (in the `critmem-sched` crate).

use crate::bank::ChannelTiming;
use crate::command::DramCommand;
use crate::queue::{Direction, Transaction};
use critmem_common::{ChannelId, Criticality, DramCycle, MetricVisitor};

/// One issuable command, tied to the transaction it advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Index into [`SchedContext::queue`] of the owning transaction.
    pub txn: usize,
    /// The command that would issue this cycle.
    pub cmd: DramCommand,
    /// `true` when `cmd` is a CAS to an already-open row — the
    /// "first-ready" commands FR-FCFS prefers.
    pub row_hit: bool,
    /// Criticality after starvation promotion (§3.2).
    pub crit: Criticality,
}

/// Everything a scheduler may inspect when choosing a command.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Current DRAM cycle.
    pub now: DramCycle,
    /// The channel this decision is for.
    pub channel: ChannelId,
    /// All queued transactions (reads and writes).
    pub queue: &'a [Transaction],
    /// Bank/bus timing state, for schedulers that reason about it.
    pub timing: &'a ChannelTiming,
    /// Current service direction.
    pub direction: Direction,
}

/// A DRAM command scheduler.
///
/// Implementations must be deterministic given their construction
/// parameters (seeded RNG where randomness is part of the algorithm,
/// e.g. TCM's rank shuffling) so that experiments are reproducible.
pub trait CommandScheduler {
    /// Chooses one of `candidates` (by index) to issue this cycle, or
    /// `None` to idle. All candidates are timing-ready; returning an
    /// out-of-range index is a logic error and panics in the
    /// controller.
    fn select(&mut self, ctx: &SchedContext<'_>, candidates: &[Candidate]) -> Option<usize>;

    /// Notification: a transaction entered the queue.
    fn on_enqueue(&mut self, _txn: &Transaction, _now: DramCycle) {}

    /// Notification: a transaction's CAS completed (data transferred).
    fn on_complete(&mut self, _txn: &Transaction, _now: DramCycle) {}

    /// Called once per DRAM cycle before candidate selection; lets
    /// quantum-based schedulers (TCM, PAR-BS batching) advance state.
    fn on_tick(&mut self, _ctx: &SchedContext<'_>) {}

    /// The earliest future cycle at which [`Self::on_tick`] would do
    /// observable work given `queue_len` queued transactions, or
    /// `DramCycle::MAX` when its tick is a no-op (the default).
    /// Event-horizon accessor for the skip-ahead kernel: ticks strictly
    /// before the returned cycle may be batched without calling
    /// `on_tick` for each. Quantum-based schedulers return their next
    /// quantum/shuffle boundary; schedulers that accumulate per-cycle
    /// state while transactions are queued must return `now + 1`
    /// whenever `queue_len > 0`.
    fn next_event_cycle(&self, _now: DramCycle, _queue_len: usize) -> DramCycle {
        DramCycle::MAX
    }

    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Reports scheduler-internal metrics to the observability layer.
    ///
    /// Implementations should emit metric names prefixed with `sched_`
    /// so they group with (and cannot collide with) the owning
    /// channel's [`crate::ChannelStats`] metrics inside the same
    /// `dram.chN` component. The default reports nothing.
    fn observe_metrics(&self, _v: &mut dyn MetricVisitor) {}

    /// Serializes mutable scheduler state into a checkpoint. Stateless
    /// schedulers keep the default no-op; stateful ones must write every
    /// field that influences future [`Self::select`] decisions, in a
    /// deterministic order.
    fn save_state(&self, _w: &mut critmem_common::codec::ByteWriter) {}

    /// Restores state written by [`Self::save_state`] into a
    /// freshly constructed scheduler of the same kind and parameters.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or shape-mismatched snapshot.
    fn load_state(
        &mut self,
        _r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<(), critmem_common::codec::CodecError> {
        Ok(())
    }
}

/// Strict first-come-first-served: always the oldest ready command.
/// Mostly useful as a lower-bound reference and for controller tests.
#[derive(Debug, Default, Clone)]
pub struct Fcfs;

impl Fcfs {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Fcfs
    }
}

impl CommandScheduler for Fcfs {
    fn select(&mut self, ctx: &SchedContext<'_>, candidates: &[Candidate]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| ctx.queue[c.txn].seq)
            .map(|(i, _)| i)
    }

    fn name(&self) -> &str {
        "FCFS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandKind;
    use crate::timing::DDR3_2133;
    use critmem_common::{AccessKind, BankId, CoreId, MemRequest, RankId};

    fn mk_ctx<'a>(queue: &'a [Transaction], timing: &'a ChannelTiming) -> SchedContext<'a> {
        SchedContext {
            now: 100,
            channel: ChannelId(0),
            queue,
            timing,
            direction: Direction::Read,
        }
    }

    fn mk_txn(seq: u64) -> Transaction {
        let req = MemRequest::new(seq, 0x40 * seq, AccessKind::Read, CoreId(0));
        let loc = crate::mapping::DramLocation {
            channel: ChannelId(0),
            rank: RankId(0),
            bank: BankId(0),
            row: 0,
            column: seq as u32,
        };
        Transaction::new(req, loc, seq, seq)
    }

    #[test]
    fn fcfs_picks_oldest() {
        let queue = vec![mk_txn(5), mk_txn(2), mk_txn(9)];
        let timing = ChannelTiming::new(1, 8, DDR3_2133.timing);
        let ctx = mk_ctx(&queue, &timing);
        let cand = |i: usize| Candidate {
            txn: i,
            cmd: DramCommand {
                kind: CommandKind::Read,
                rank: RankId(0),
                bank: BankId(0),
                row: 0,
            },
            row_hit: true,
            crit: Criticality::non_critical(),
        };
        let cands = vec![cand(0), cand(1), cand(2)];
        let mut s = Fcfs::new();
        assert_eq!(s.select(&ctx, &cands), Some(1)); // seq 2 is oldest
        assert_eq!(s.select(&ctx, &[]), None);
    }
}
