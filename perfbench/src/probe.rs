//! Outside-in timing shims for the layers the simulator calls *into*:
//! the instruction source, the criticality predictor and the command
//! scheduler.
//!
//! Those calls happen inside `Core::step` and `DramSystem::tick`, so
//! the benchmark cannot time them at its own call sites. Each shim
//! implements the layer's public trait around the real component,
//! forwards every method a run uses, and adds the time spent in the
//! hot methods to a per-thread probe. The caller reads the probe before
//! and after an outer call to split the outer layer's self time from
//! its nested children. Totals stay in memory until the run ends.
//! Checkpoint and sampling hooks are not forwarded: traced runs use
//! neither.

use critmem_common::{CpuCycle, Criticality, DramCycle, Pc};
use critmem_cpu::{Instr, InstrSource, LoadCriticalityPredictor};
use critmem_dram::{Candidate, CommandScheduler, SchedContext, Transaction};
use std::cell::Cell;
use std::time::Instant;

/// Host nanoseconds and call counts accumulated by the shims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTotals {
    /// Nanoseconds inside `InstrSource::next_instr`.
    pub source_ns: u64,
    /// Calls to `InstrSource::next_instr`.
    pub source_calls: u64,
    /// Nanoseconds inside predictor `predict` and commit callbacks.
    pub predict_ns: u64,
    /// Calls to predictor `predict` and commit callbacks.
    pub predict_calls: u64,
    /// Nanoseconds inside `CommandScheduler::select`.
    pub select_ns: u64,
    /// Calls to `CommandScheduler::select`.
    pub select_calls: u64,
    /// Candidates offered across all `select` calls.
    pub select_candidates: u64,
}

impl ProbeTotals {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &ProbeTotals) -> ProbeTotals {
        ProbeTotals {
            source_ns: self.source_ns - earlier.source_ns,
            source_calls: self.source_calls - earlier.source_calls,
            predict_ns: self.predict_ns - earlier.predict_ns,
            predict_calls: self.predict_calls - earlier.predict_calls,
            select_ns: self.select_ns - earlier.select_ns,
            select_calls: self.select_calls - earlier.select_calls,
            select_candidates: self.select_candidates - earlier.select_candidates,
        }
    }
}

thread_local! {
    static PROBE: Cell<ProbeTotals> = const {
        Cell::new(ProbeTotals {
            source_ns: 0,
            source_calls: 0,
            predict_ns: 0,
            predict_calls: 0,
            select_ns: 0,
            select_calls: 0,
            select_candidates: 0,
        })
    };
}

/// The calling thread's running totals. A traced run snapshots them at
/// its start and reports the difference, so runs sharing a thread never
/// see each other's counts.
pub fn totals() -> ProbeTotals {
    PROBE.with(Cell::get)
}

fn record(f: impl FnOnce(&mut ProbeTotals)) {
    PROBE.with(|p| {
        let mut t = p.get();
        f(&mut t);
        p.set(t);
    });
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times `next_instr` of the wrapped workload generator.
pub struct TimedSource(pub Box<dyn InstrSource>);

impl InstrSource for TimedSource {
    fn next_instr(&mut self) -> Instr {
        let t = Instant::now();
        let i = self.0.next_instr();
        let ns = ns_since(t);
        record(|p| {
            p.source_ns += ns;
            p.source_calls += 1;
        });
        i
    }
}

/// Times `predict` and the two commit callbacks of the wrapped
/// predictor; the per-cycle `tick` stays in the core's self time.
pub struct TimedPredictor(pub Box<dyn LoadCriticalityPredictor>);

impl TimedPredictor {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn LoadCriticalityPredictor) -> R) -> R {
        let t = Instant::now();
        let r = f(self.0.as_mut());
        let ns = ns_since(t);
        record(|p| {
            p.predict_ns += ns;
            p.predict_calls += 1;
        });
        r
    }
}

impl LoadCriticalityPredictor for TimedPredictor {
    fn predict(&mut self, pc: Pc) -> Criticality {
        self.timed(|p| p.predict(pc))
    }

    fn on_block_commit(&mut self, pc: Pc, stall_cycles: u64) {
        self.timed(|p| p.on_block_commit(pc, stall_cycles));
    }

    fn on_load_commit(&mut self, pc: Pc, consumers: u32) {
        self.timed(|p| p.on_load_commit(pc, consumers));
    }

    fn tick(&mut self, now: CpuCycle) {
        self.0.tick(now);
    }

    fn next_event_cycle(&self, now: CpuCycle) -> CpuCycle {
        self.0.next_event_cycle(now)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn observed_extremes(&self) -> Option<(u64, u32)> {
        self.0.observed_extremes()
    }
}

/// Times `select` of the wrapped scheduler and counts the candidates
/// it was offered.
pub struct TimedScheduler(pub Box<dyn CommandScheduler>);

impl CommandScheduler for TimedScheduler {
    fn select(&mut self, ctx: &SchedContext<'_>, candidates: &[Candidate]) -> Option<usize> {
        let t = Instant::now();
        let pick = self.0.select(ctx, candidates);
        let ns = ns_since(t);
        record(|p| {
            p.select_ns += ns;
            p.select_calls += 1;
            p.select_candidates += candidates.len() as u64;
        });
        pick
    }

    fn on_enqueue(&mut self, txn: &Transaction, now: DramCycle) {
        self.0.on_enqueue(txn, now);
    }

    fn on_complete(&mut self, txn: &Transaction, now: DramCycle) {
        self.0.on_complete(txn, now);
    }

    fn on_tick(&mut self, ctx: &SchedContext<'_>) {
        self.0.on_tick(ctx);
    }

    fn next_event_cycle(&self, now: DramCycle, queue_len: usize) -> DramCycle {
        self.0.next_event_cycle(now, queue_len)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}
