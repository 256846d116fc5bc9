//! The unified run API: one builder that covers every way the
//! simulator is driven — plain runs, observed runs, trace capture,
//! metric sampling, checkpoint capture, and warm starts.
//!
//! [`Session`] replaced the former six entry points (`run`, `try_run`,
//! `run_traced`, `try_run_traced`, `run_with_observer`,
//! `try_run_with_observer`), whose deprecated shims have since been
//! deleted. Every option is a chainable method; [`Session::run`] builds
//! the [`System`], restores a checkpoint when one was attached, drives
//! to completion, and returns a [`RunOutput`] carrying the statistics,
//! the observer, and any checkpoint captured along the way.
//!
//! ```
//! use critmem::{Session, SystemConfig, AgentMix};
//!
//! let mut cfg = SystemConfig::paper_baseline(1_000);
//! cfg.cores = 2;
//! cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
//! let out = Session::new(cfg, &AgentMix::Parallel("swim"))
//!     .run()
//!     .unwrap();
//! assert!(out.stats.cycles > 0);
//! ```

use crate::checkpoint::Checkpoint;
use crate::config::{AgentMix, PredictorKind, SystemConfig};
use crate::faults::FaultPlan;
use crate::system::{RunStats, System};
use critmem_common::{RequestObserver, SimError};
use critmem_sched::SchedulerKind;

/// Everything a finished [`Session`] hands back.
#[derive(Debug)]
pub struct RunOutput<O = ()> {
    /// Aggregated statistics of the run.
    pub stats: RunStats,
    /// The observer that watched the LLC-miss → DRAM boundary (e.g. a
    /// filled [`critmem_trace::TraceSink`]); `()` for plain runs.
    pub observer: O,
    /// The snapshot captured at [`Session::checkpoint_at`], when one
    /// was requested.
    pub checkpoint: Option<Checkpoint>,
}

/// Builder for one simulation run.
///
/// Construct with [`Session::new`] (cold start) or
/// [`Session::from_checkpoint`] (warm start), chain options, finish
/// with [`Session::run`] or [`Session::run_to_checkpoint`].
#[derive(Debug)]
pub struct Session<O: RequestObserver = ()> {
    cfg: SystemConfig,
    workload: AgentMix,
    observer: O,
    checkpoint_at: Option<u64>,
    restore: Option<Checkpoint>,
    fault: Option<FaultPlan>,
}

impl Session<()> {
    /// Starts a session from a cold (cycle-zero) system running
    /// `workload` — any agent mix, typically parsed from the grammar:
    ///
    /// ```
    /// use critmem::{Session, SystemConfig, AgentMix};
    ///
    /// let mix: AgentMix = "ooo:mcf*2+stream:2".parse().unwrap();
    /// let mut cfg = SystemConfig::multiprogrammed_baseline(500);
    /// cfg.cores = 2;
    /// cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    /// cfg.max_cycles = 50_000_000;
    /// let out = Session::new(cfg, &mix).run().unwrap();
    /// assert_eq!(out.stats.agents.len(), 2);
    /// ```
    pub fn new(cfg: SystemConfig, workload: &AgentMix) -> Self {
        Session {
            cfg,
            workload: workload.clone(),
            observer: (),
            checkpoint_at: None,
            restore: None,
            fault: None,
        }
    }

    /// Starts a session from a previously captured checkpoint: the
    /// system is rebuilt from `cfg`, the snapshot is overlaid, and the
    /// run continues from the checkpoint's cycle. `cfg` must describe
    /// the same platform the checkpoint was taken on (validated by
    /// fingerprint at [`Session::run`]); its scheduler and predictor
    /// may differ, in which case the saved component state is discarded
    /// and fresh instances take over at the boundary.
    pub fn from_checkpoint(
        checkpoint: &Checkpoint,
        cfg: SystemConfig,
        workload: &AgentMix,
    ) -> Self {
        let mut s = Self::new(cfg, workload);
        s.restore = Some(checkpoint.clone());
        s
    }
}

impl<O: RequestObserver> Session<O> {
    /// Attaches an observer to the LLC-miss → DRAM enqueue boundary.
    pub fn observer<O2: RequestObserver>(self, observer: O2) -> Session<O2> {
        Session {
            cfg: self.cfg,
            workload: self.workload,
            observer,
            checkpoint_at: self.checkpoint_at,
            restore: self.restore,
            fault: self.fault,
        }
    }

    /// Captures the run's LLC-miss request stream as a trace labeled
    /// `source` (the observer becomes a [`critmem_trace::TraceSink`];
    /// take the trace from [`RunOutput::observer`] with
    /// [`critmem_trace::TraceSink::into_trace`]).
    pub fn traced(self, source: &str) -> Session<critmem_trace::TraceSink> {
        let fingerprint =
            critmem_trace::Fingerprint::of(self.cfg.cores, self.cfg.cpu_mhz, &self.cfg.dram);
        let sink = critmem_trace::TraceSink::new(fingerprint, source);
        self.observer(sink)
    }

    /// Samples every registered metric each `epoch` CPU cycles into
    /// [`RunStats::series`]. Trace replay ([`crate::replay()`]) runs on
    /// the same system and sampler; its knob is
    /// [`critmem_trace::ReplayConfig::with_sampling`] — see
    /// [`critmem_trace::ReplayConfig`] for the single reference on how
    /// sampling, windowing, and the watchdog interact.
    #[must_use]
    pub fn sampling(mut self, epoch: u64) -> Self {
        self.cfg.sample_epoch = Some(epoch);
        self
    }

    /// Captures a [`Checkpoint`] when the run first reaches `cycle`
    /// (returned in [`RunOutput::checkpoint`]). If every core finishes
    /// earlier, the snapshot is taken at the finish cycle instead.
    #[must_use]
    pub fn checkpoint_at(mut self, cycle: u64) -> Self {
        self.checkpoint_at = Some(cycle);
        self
    }

    /// Overrides the memory scheduler (for warm starts: the cell's
    /// scheduler, swapped in fresh at the checkpoint boundary).
    #[must_use]
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.cfg.scheduler = kind;
        self
    }

    /// Overrides the per-core criticality predictor.
    #[must_use]
    pub fn predictor(mut self, kind: PredictorKind) -> Self {
        self.cfg.predictor = kind;
        self
    }

    /// Enables (or disables) the independent run auditors
    /// ([`SystemConfig::audit`]): a shadow protocol auditor per DRAM
    /// channel plus a request-conservation auditor at the
    /// L2↔controller boundary. Audited runs export byte-identical
    /// statistics; a violation surfaces as a typed
    /// [`SimError::AuditViolation`] from [`Session::run`].
    #[must_use]
    pub fn audit(mut self, on: bool) -> Self {
        self.cfg.audit = on;
        self
    }

    /// Arms a deterministic [`FaultPlan`]: its live faults inject at
    /// their component boundaries during the run (artifact faults in
    /// the plan are ignored here — they target serialized bytes, not a
    /// live system). Pair with [`Session::audit`] so every injected
    /// fault is *detected* rather than silently absorbed.
    #[must_use]
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builds the system (restoring the attached checkpoint, if any)
    /// ready to drive.
    fn build(self) -> Result<(System<O>, AgentMix, Option<u64>), SimError> {
        let Session {
            cfg,
            workload,
            observer,
            checkpoint_at,
            restore,
            fault,
        } = self;
        let mut sys = System::try_with_observer(cfg, &workload, observer)?;
        if let Some(ckpt) = &restore {
            ckpt.restore_into(&mut sys, &workload)?;
        }
        if let Some(plan) = &fault {
            sys.arm_faults(plan);
        }
        Ok((sys, workload, checkpoint_at))
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] / [`SimError::UnknownWorkload`] if the
    /// system cannot be built, [`SimError::Artifact`] if an attached
    /// checkpoint does not fit the configuration, and
    /// [`SimError::Watchdog`] when the run exceeds its cycle budget or
    /// the forward-progress watchdog detects a livelock.
    pub fn run(self) -> Result<RunOutput<O>, SimError> {
        let (mut sys, workload, checkpoint_at) = self.build()?;
        let checkpoint = match checkpoint_at {
            Some(cycle) => {
                sys.drive(Some(cycle))?;
                Some(Checkpoint::capture(&sys, &workload))
            }
            None => None,
        };
        sys.drive(None)?;
        let (stats, observer) = sys.into_stats_and_observer();
        Ok(RunOutput {
            stats,
            observer,
            checkpoint,
        })
    }

    /// Drives only to the [`Session::checkpoint_at`] boundary and
    /// returns the snapshot, skipping the rest of the run — the warmup
    /// arm of a checkpointed sweep.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when no checkpoint cycle was set; otherwise
    /// as [`Session::run`].
    pub fn run_to_checkpoint(self) -> Result<Checkpoint, SimError> {
        let Some(cycle) = self.checkpoint_at else {
            return Err(SimError::Config(
                "run_to_checkpoint requires checkpoint_at(cycle)".into(),
            ));
        };
        let (mut sys, workload, _) = self.build()?;
        sys.drive(Some(cycle))?;
        Ok(Checkpoint::capture(&sys, &workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critmem_predict::CbpMetric;

    fn quick(instr: u64) -> SystemConfig {
        let mut c = SystemConfig::paper_baseline(instr);
        c.cores = 2;
        c.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
        c.max_cycles = 20_000_000;
        c
    }

    #[test]
    fn identical_sessions_are_byte_deterministic() {
        let wl = AgentMix::Parallel("swim");
        let a = Session::new(quick(1_500), &wl).run().unwrap().stats;
        let b = Session::new(quick(1_500), &wl).run().unwrap().stats;
        let (mut wa, mut wb) = (
            critmem_common::codec::ByteWriter::new(),
            critmem_common::codec::ByteWriter::new(),
        );
        a.encode(&mut wa);
        b.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn builder_options_compose() {
        let wl = AgentMix::Parallel("swim");
        let out = Session::new(quick(1_500), &wl)
            .scheduler(SchedulerKind::CasRasCrit)
            .predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime))
            .sampling(1_000)
            .run()
            .unwrap();
        assert!(out.stats.series.is_some(), "sampling must produce a series");
        assert!(out.checkpoint.is_none());
    }

    #[test]
    fn traced_session_captures_requests() {
        let wl = AgentMix::Parallel("swim");
        let out = Session::new(quick(1_500), &wl)
            .traced("swim")
            .run()
            .unwrap();
        let trace = out.observer.into_trace();
        assert!(!trace.records.is_empty(), "swim must miss the L2");
    }

    #[test]
    fn checkpointed_run_reports_boundary() {
        let wl = AgentMix::Parallel("swim");
        let out = Session::new(quick(1_500), &wl)
            .checkpoint_at(2_000)
            .run()
            .unwrap();
        let ckpt = out.checkpoint.expect("checkpoint was requested");
        assert_eq!(ckpt.cycle(), 2_000);
        assert!(ckpt.state_len() > 0);
        assert!(out.stats.cycles > 2_000);
    }

    #[test]
    fn run_to_checkpoint_requires_boundary() {
        let wl = AgentMix::Parallel("swim");
        let err = Session::new(quick(1_500), &wl)
            .run_to_checkpoint()
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn restore_rejects_platform_mismatch() {
        let wl = AgentMix::Parallel("swim");
        let ckpt = Session::new(quick(1_500), &wl)
            .checkpoint_at(1_000)
            .run_to_checkpoint()
            .unwrap();
        let mut other = quick(1_500);
        other.seed ^= 1;
        let err = Session::from_checkpoint(&ckpt, other, &wl)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Artifact(_)), "got {err}");
    }
}
