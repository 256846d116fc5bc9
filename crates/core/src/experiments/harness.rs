//! Shared experiment-harness machinery: run scaling, memoized
//! simulation runs, and plain-text table rendering.

use crate::checkpoint::{fingerprint_of, Checkpoint};
use crate::config::{AgentMix, PredictorKind, SystemConfig};
use crate::faults::FaultHooks;
use crate::journal::{JournalEntry, SweepJournal};
use crate::pool::scoped_map_isolated;
use crate::session::Session;
use crate::system::RunStats;
use critmem_common::SimError;
use critmem_dram::DramSystem;
use critmem_sched::SchedulerKind;
use critmem_trace::{ReplayConfig, ReplayStats, Trace, TraceReplayer};
use critmem_workloads::PARALLEL_APPS;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How big each simulation is. The paper runs 500 M instructions per
/// application; here the scale is configurable so the full figure set
/// regenerates in minutes (predictors warm up within thousands of
/// loads because static-load populations are small — the paper's own
/// Figure 5 argument).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Instructions each core commits per run.
    pub instructions: u64,
    /// Apps used for the per-app figures (1, 3–7, 10).
    pub apps: Vec<&'static str>,
    /// Apps used for the configuration sweeps (Figures 8, 9, 11),
    /// which multiply run counts.
    pub sweep_apps: Vec<&'static str>,
    /// Bundles used for the multiprogrammed study (Figure 12).
    pub bundles: Vec<&'static str>,
}

impl Scale {
    /// Tiny scale for unit/integration tests.
    pub fn quick() -> Self {
        Scale {
            instructions: 3_000,
            apps: vec!["art", "mg", "swim"],
            sweep_apps: vec!["swim"],
            bundles: vec!["AELV", "RFGI"],
        }
    }

    /// The scale used by the `repro` binary: all nine apps, all eight
    /// bundles.
    pub fn standard() -> Self {
        Scale {
            instructions: 25_000,
            apps: PARALLEL_APPS.to_vec(),
            sweep_apps: vec!["art", "mg", "ocean", "swim"],
            bundles: critmem_workloads::BUNDLES.iter().map(|b| b.name).collect(),
        }
    }

    /// A larger scale for overnight runs (`repro --scale full`).
    pub fn full() -> Self {
        Scale {
            instructions: 150_000,
            ..Self::standard()
        }
    }
}

/// One unit of deferred work recorded while planning (see
/// [`Runner::run_parallel`]): an execution-driven run or a trace
/// capture. Both occupy a "distinct simulation" slot.
enum PlannedJob {
    Run {
        key: String,
        cfg: SystemConfig,
        workload: AgentMix,
    },
    Capture {
        key: String,
        app: &'static str,
        cfg: SystemConfig,
    },
}

/// A deferred trace replay (depends on its app's capture).
struct PlannedReplay {
    key: String,
    app: &'static str,
    scheduler: SchedulerKind,
}

/// The result of one executed [`PlannedJob`].
enum JobResult {
    Run(Box<RunStats>),
    Capture(Trace),
}

/// Work collected by a planning pass.
#[derive(Default)]
struct Plan {
    seen: HashSet<String>,
    jobs: Vec<PlannedJob>,
    replays: Vec<PlannedReplay>,
}

/// One sweep cell that failed (panicked past retry, tripped the
/// watchdog, or returned any other typed error). The rest of the sweep
/// completed; the failed cell's memo slot holds a placeholder.
#[derive(Debug)]
pub struct CellFailure {
    /// The memo key of the failed cell.
    pub key: String,
    /// What went wrong.
    pub error: SimError,
}

/// Memoizing run executor shared by all experiments, so e.g. the
/// FR-FCFS baseline for an app is simulated once even though every
/// figure divides by it.
pub struct Runner {
    /// The scale in force.
    pub scale: Scale,
    /// Print a progress line per fresh simulation.
    pub verbose: bool,
    /// Worker threads for [`Runner::run_parallel`]; `1` means fully
    /// serial (plan/execute is bypassed entirely).
    pub jobs: usize,
    /// Event-driven skip-ahead ([`SystemConfig::skip_ahead`]). Results
    /// are identical by construction, so the memo keys deliberately do
    /// not encode it.
    pub skip_ahead: bool,
    /// Independent run auditors ([`SystemConfig::audit`]) on every
    /// simulation. Audited runs are byte-identical in exported
    /// statistics, so this too is absent from memo keys; a violation
    /// fails the cell with a typed error like any other.
    pub audit: bool,
    /// Warm-start boundary in CPU cycles. When set, each distinct
    /// `(platform, workload, instruction budget)` is warmed once under
    /// the shared baseline configuration (FR-FCFS, no predictor) up to
    /// this cycle, the full architectural state is checkpointed, and
    /// every sweep cell restores from the shared snapshot instead of
    /// re-simulating the warmup. Cells that sample time series run cold
    /// (their series must cover the whole run), as do trace captures
    /// (the recorded stream must start at cycle zero).
    pub warm_cycles: Option<u64>,
    cache: HashMap<String, Arc<RunStats>>,
    runs_executed: u64,
    traces: HashMap<String, Arc<Trace>>,
    replay_cache: HashMap<String, Arc<ReplayStats>>,
    replays_executed: u64,
    planning: Option<Plan>,
    failed: Vec<CellFailure>,
    journal: Option<SweepJournal>,
    /// Panic-injection hooks for the resilience tests, owned per
    /// runner so once-per-cell state never leaks across sweeps that
    /// share a process.
    hooks: FaultHooks,
    /// Shared warmup checkpoints, keyed by warm key; `None` records a
    /// failed warmup so dependent cells fall back to cold runs instead
    /// of retrying it.
    checkpoints: HashMap<String, Option<Arc<Checkpoint>>>,
}

impl Runner {
    /// Creates a runner.
    pub fn new(scale: Scale) -> Self {
        Runner {
            scale,
            verbose: false,
            jobs: 1,
            skip_ahead: true,
            audit: false,
            warm_cycles: None,
            cache: HashMap::new(),
            runs_executed: 0,
            traces: HashMap::new(),
            replay_cache: HashMap::new(),
            replays_executed: 0,
            planning: None,
            failed: Vec::new(),
            journal: None,
            hooks: FaultHooks::from_env(),
            checkpoints: HashMap::new(),
        }
    }

    /// Number of distinct simulations executed (not cache hits).
    pub fn runs_executed(&self) -> u64 {
        self.runs_executed
    }

    /// The sweep cells that failed so far (empty when everything ran
    /// clean). Failed cells leave placeholder results in the memo
    /// tables so the rest of a figure still renders; callers must
    /// treat any entry here as invalidating the affected rows.
    pub fn failures(&self) -> &[CellFailure] {
        &self.failed
    }

    /// Whether any cell has failed.
    pub fn has_failures(&self) -> bool {
        !self.failed.is_empty()
    }

    /// Attaches a sweep journal: every simulation completed from now on
    /// is appended, so an interrupted sweep can resume. A journal write
    /// failure disables journaling with a warning rather than killing
    /// the sweep — the results in memory are still good.
    pub fn set_journal(&mut self, journal: SweepJournal) {
        self.journal = Some(journal);
    }

    /// Seeds the memo tables from journal entries recovered by
    /// [`SweepJournal::resume`]; subsequent runs skip those cells.
    pub fn preload(&mut self, entries: Vec<JournalEntry>) {
        for entry in entries {
            match entry {
                JournalEntry::Run { key, stats } => {
                    self.cache.insert(key, Arc::new(stats));
                }
                JournalEntry::Replay { key, stats } => {
                    self.replay_cache.insert(key, Arc::new(stats));
                }
            }
        }
    }

    fn journal_run(&mut self, key: &str, stats: &RunStats) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.append_run(key, stats) {
                eprintln!("warning: sweep journal write failed ({e}); journaling disabled");
                self.journal = None;
            }
        }
    }

    fn journal_replay(&mut self, key: &str, stats: &ReplayStats) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.append_replay(key, stats) {
                eprintln!("warning: sweep journal write failed ({e}); journaling disabled");
                self.journal = None;
            }
        }
    }

    /// Records a failed cell (and tells the operator immediately on
    /// stderr; the summary report comes from [`Runner::failures`]).
    fn record_failure(&mut self, key: String, error: SimError) {
        eprintln!("  [FAILED] {key}: {error}");
        self.failed.push(CellFailure { key, error });
    }

    /// Number of distinct trace replays executed (not cache hits).
    pub fn replays_executed(&self) -> u64 {
        self.replays_executed
    }

    /// The baseline configuration a warmup shares across every cell of
    /// a platform: scheduler and predictor reset to the sweep-neutral
    /// baseline (FR-FCFS, no predictor), sampling off.
    fn warmup_cfg(cfg: &SystemConfig) -> SystemConfig {
        let mut w = cfg.clone();
        w.scheduler = SchedulerKind::FrFcfs;
        w.predictor = PredictorKind::None;
        w.sample_epoch = None;
        w
    }

    /// Memo key of the shared warmup checkpoint a cell restores from.
    fn warm_key(cfg: &SystemConfig, workload: &AgentMix, cycles: u64) -> String {
        format!(
            "warmup:{:08x}@{}+warm{cycles}",
            fingerprint_of(&Self::warmup_cfg(cfg), workload),
            cfg.instructions_per_core,
        )
    }

    /// Runs one warmup to the boundary (shared by the serial and pooled
    /// paths).
    fn warmup_cell(
        cfg: &SystemConfig,
        workload: &AgentMix,
        cycles: u64,
    ) -> Result<Checkpoint, SimError> {
        Session::new(Self::warmup_cfg(cfg), workload)
            .checkpoint_at(cycles)
            .run_to_checkpoint()
    }

    /// Recalls or executes the shared warmup checkpoint for a cell
    /// (serial path). `None` means warm starts are off, the cell
    /// samples a time series (which must cover the whole run), or the
    /// warmup failed — in every case the cell runs cold.
    fn warm_checkpoint(
        &mut self,
        cfg: &SystemConfig,
        workload: &AgentMix,
    ) -> Option<Arc<Checkpoint>> {
        let cycles = self.warm_cycles?;
        if cfg.sample_epoch.is_some() {
            return None;
        }
        let key = Self::warm_key(cfg, workload, cycles);
        if let Some(hit) = self.checkpoints.get(&key) {
            return hit.clone();
        }
        if self.verbose {
            eprintln!("  [warmup] {key}");
        }
        let outcome = Self::isolated_cell(&self.hooks, &key, || {
            Self::warmup_cell(cfg, workload, cycles)
        });
        self.runs_executed += 1;
        match outcome {
            Ok(ckpt) => {
                let ckpt = Arc::new(ckpt);
                self.checkpoints.insert(key, Some(Arc::clone(&ckpt)));
                Some(ckpt)
            }
            Err(err) => {
                self.checkpoints.insert(key.clone(), None);
                self.record_failure(key, err);
                None
            }
        }
    }

    /// Runs one execution-driven cell, warm-starting from `warm` when a
    /// shared checkpoint is available.
    fn run_cell(
        cfg: &SystemConfig,
        workload: &AgentMix,
        warm: Option<&Arc<Checkpoint>>,
    ) -> Result<RunStats, SimError> {
        let session = match warm {
            Some(ckpt) => Session::from_checkpoint(ckpt, cfg.clone(), workload),
            None => Session::new(cfg.clone(), workload),
        };
        session.run().map(|out| out.stats)
    }

    /// Captures one trace cell (always cold: the recorded request
    /// stream must start at cycle zero).
    fn capture_cell(cfg: &SystemConfig, app: &'static str) -> Result<Trace, SimError> {
        Session::new(cfg.clone(), &AgentMix::Parallel(app))
            .traced(app)
            .run()
            .map(|out| out.observer.into_trace())
    }

    /// A sorted, comparable snapshot of the memo tables: one
    /// `(key, headline cycle count)` entry per cached run and replay.
    /// Two runners that executed the same experiments must produce
    /// identical snapshots regardless of `jobs` (the determinism
    /// contract of [`Runner::run_parallel`]).
    pub fn memo_snapshot(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .cache
            .iter()
            .map(|(k, s)| (k.clone(), s.cycles))
            .chain(
                self.replay_cache
                    .iter()
                    .map(|(k, s)| (k.clone(), s.cpu_cycles)),
            )
            .collect();
        v.sort();
        v
    }

    /// Runs `f` with this runner, fanning the simulations it needs out
    /// across [`Runner::jobs`] worker threads.
    ///
    /// Three phases: (1) a *planning* dry run of `f` in which cache
    /// misses return placeholder results and are recorded instead of
    /// executed — sound because experiments derive *which* runs they
    /// need from their structure (app lists, scheduler tables), never
    /// from simulation results; (2) parallel execution of the recorded
    /// runs, merged into the memo table in plan order (results are
    /// keyed and the simulations are deterministic, so insertion order
    /// is irrelevant to the table contents); (3) a re-run of `f` that
    /// now hits the warm cache everywhere and therefore returns output
    /// byte-identical to a serial run.
    ///
    /// With `jobs <= 1`, or when called reentrantly, `f` simply runs
    /// serially.
    pub fn run_parallel<T>(&mut self, f: impl Fn(&mut Runner) -> T) -> T {
        if self.jobs <= 1 || self.planning.is_some() {
            return f(self);
        }
        self.planning = Some(Plan::default());
        let _ = f(self);
        let plan = self.planning.take().expect("planning state vanished");
        self.execute_plan(plan);
        f(self)
    }

    /// Executes a collected plan across the worker pool and merges the
    /// results into the memo tables.
    fn execute_plan(&mut self, plan: Plan) {
        // Progress lines are printed up front in plan order — the same
        // content a serial run would emit, independent of which worker
        // finishes first.
        if self.verbose {
            let mut n = self.runs_executed;
            for job in &plan.jobs {
                n += 1;
                match job {
                    PlannedJob::Run { key, .. } => eprintln!("  [run {n:>3}] {key}"),
                    PlannedJob::Capture { key, .. } => eprintln!("  [capture] {key}"),
                }
            }
        }
        let executed = plan.jobs.len() as u64;
        // Resolve the shared warmup checkpoints the planned cells need,
        // before fanning the cells out: distinct warmups run once each
        // on the pool, then every dependent cell restores from an
        // `Arc`'d in-memory snapshot.
        if let Some(cycles) = self.warm_cycles {
            let mut seen = HashSet::new();
            let mut needed: Vec<(String, SystemConfig, AgentMix)> = Vec::new();
            for job in &plan.jobs {
                if let PlannedJob::Run { cfg, workload, .. } = job {
                    if cfg.sample_epoch.is_none() {
                        let key = Self::warm_key(cfg, workload, cycles);
                        if !self.checkpoints.contains_key(&key) && seen.insert(key.clone()) {
                            needed.push((key, cfg.clone(), workload.clone()));
                        }
                    }
                }
            }
            if !needed.is_empty() {
                if self.verbose {
                    for (key, ..) in &needed {
                        eprintln!("  [warmup] {key}");
                    }
                }
                let hooks = &self.hooks;
                let results = scoped_map_isolated(self.jobs, &needed, |(key, cfg, workload)| {
                    hooks.maybe_inject(key);
                    Self::warmup_cell(cfg, workload, cycles)
                });
                self.runs_executed += needed.len() as u64;
                for ((key, ..), result) in needed.into_iter().zip(results) {
                    match result.and_then(|r| r) {
                        Ok(ckpt) => {
                            self.checkpoints.insert(key, Some(Arc::new(ckpt)));
                        }
                        Err(err) => {
                            self.checkpoints.insert(key.clone(), None);
                            self.record_failure(key, err);
                        }
                    }
                }
            }
        }
        let jobs: Vec<(PlannedJob, Option<Arc<Checkpoint>>)> = plan
            .jobs
            .into_iter()
            .map(|job| {
                let warm = match (&job, self.warm_cycles) {
                    (PlannedJob::Run { cfg, workload, .. }, Some(cycles))
                        if cfg.sample_epoch.is_none() =>
                    {
                        self.checkpoints
                            .get(&Self::warm_key(cfg, workload, cycles))
                            .cloned()
                            .flatten()
                    }
                    _ => None,
                };
                (job, warm)
            })
            .collect();
        let hooks = &self.hooks;
        let results = scoped_map_isolated(self.jobs, &jobs, |(job, warm)| match job {
            PlannedJob::Run { key, cfg, workload } => {
                hooks.maybe_inject(key);
                Self::run_cell(cfg, workload, warm.as_ref())
                    .map(|stats| JobResult::Run(Box::new(stats)))
            }
            PlannedJob::Capture { key, app, cfg } => {
                hooks.maybe_inject(key);
                Self::capture_cell(cfg, app).map(JobResult::Capture)
            }
        });
        for ((job, _), result) in jobs.into_iter().zip(results) {
            // Flatten: the outer error is a caught panic, the inner one
            // a typed failure from the simulation itself.
            match (job, result.and_then(|r| r)) {
                (PlannedJob::Run { key, .. }, Ok(JobResult::Run(stats))) => {
                    self.journal_run(&key, &stats);
                    self.cache.insert(key, Arc::new(*stats));
                }
                (PlannedJob::Capture { key, .. }, Ok(JobResult::Capture(trace))) => {
                    self.traces.insert(key, Arc::new(trace));
                }
                (PlannedJob::Run { key, cfg, .. }, Err(err)) => {
                    self.cache
                        .insert(key.clone(), Arc::new(Self::placeholder_stats(&cfg)));
                    self.record_failure(key, err);
                }
                (PlannedJob::Capture { key, app, cfg }, Err(err)) => {
                    self.traces
                        .insert(key.clone(), Arc::new(Self::placeholder_trace(&cfg, app)));
                    self.record_failure(key, err);
                }
                _ => unreachable!("job kind and result kind always match"),
            }
        }
        self.runs_executed += executed;

        if plan.replays.is_empty() {
            return;
        }
        if self.verbose {
            let mut n = self.replays_executed;
            for rep in &plan.replays {
                n += 1;
                eprintln!("  [replay {n:>3}] {}", rep.key);
            }
        }
        let replayed = plan.replays.len() as u64;
        let items: Vec<(String, Arc<Trace>, SchedulerKind, SystemConfig)> = plan
            .replays
            .into_iter()
            .map(|rep| {
                // The capture was part of the plan (or already cached),
                // so this is a cache hit.
                let trace = self.capture(rep.app);
                let cfg = self.parallel_cfg().with_scheduler(rep.scheduler);
                (rep.key, trace, rep.scheduler, cfg)
            })
            .collect();
        let hooks = &self.hooks;
        let results = scoped_map_isolated(self.jobs, &items, |(key, trace, scheduler, cfg)| {
            hooks.maybe_inject(key);
            Self::replay_cell(trace, *scheduler, cfg)
        });
        for ((key, ..), result) in items.into_iter().zip(results) {
            match result.and_then(|r| r) {
                Ok(stats) => {
                    self.journal_replay(&key, &stats);
                    self.replay_cache.insert(key, Arc::new(stats));
                }
                Err(err) => {
                    self.replay_cache
                        .insert(key.clone(), Arc::new(ReplayStats::default()));
                    self.record_failure(key, err);
                }
            }
        }
        self.replays_executed += replayed;
    }

    /// Builds a DRAM system with `scheduler` and replays `trace` on it
    /// (the shared cell body of the serial and pooled replay paths).
    fn replay_cell(
        trace: &Arc<Trace>,
        scheduler: SchedulerKind,
        cfg: &SystemConfig,
    ) -> Result<ReplayStats, SimError> {
        let num_threads = cfg.cores;
        let dram = DramSystem::new(cfg.dram, |ch| scheduler.build(num_threads, u64::from(ch.0)));
        TraceReplayer::new(
            (**trace).clone(),
            dram,
            ReplayConfig::default().with_audit(cfg.audit),
        )
        .map_err(|e| SimError::Trace(e.to_string()))?
        .try_run()
    }

    /// Runs one cell on the calling thread under the same
    /// panic-isolation and fault-injection policy as the worker pool,
    /// so failure semantics do not depend on the job count.
    fn isolated_cell<O: Send>(
        hooks: &FaultHooks,
        key: &str,
        f: impl Fn() -> Result<O, SimError> + Sync,
    ) -> Result<O, SimError> {
        scoped_map_isolated(1, &[()], |_| {
            hooks.maybe_inject(key);
            f()
        })
        .pop()
        .expect("one item in, one result out")
        .and_then(|r| r)
    }

    /// A structurally valid stand-in returned for cache misses during a
    /// planning pass. Every derived metric (IPC, fractions, speedup
    /// ratios) stays finite, so experiment code runs unmodified; the
    /// numbers are discarded with the rest of the dry-run output.
    fn placeholder_stats(cfg: &SystemConfig) -> RunStats {
        RunStats {
            cycles: 1,
            core_finish: vec![1; cfg.cores],
            cores: vec![Default::default(); cfg.cores],
            hierarchy: Default::default(),
            channels: vec![Default::default(); cfg.dram.org.channels as usize],
            lq_full_cycles: vec![0; cfg.cores],
            instructions_per_core: cfg.instructions_per_core.max(1),
            predictor_observed: vec![None; cfg.cores],
            series: None,
            agents: Vec::new(),
        }
    }

    /// Planning stand-in for a capture: right fingerprint, no records.
    fn placeholder_trace(cfg: &SystemConfig, app: &str) -> Trace {
        Trace {
            fingerprint: critmem_trace::Fingerprint::of(cfg.cores, cfg.cpu_mhz, &cfg.dram),
            source: app.to_string(),
            records: Vec::new(),
        }
    }

    /// Runs (or recalls) a simulation under a unique `key`.
    ///
    /// The memoization key is qualified with the run's instruction
    /// budget: callers' keys encode app/scheduler/predictor, and the
    /// budget is the remaining `Scale`-dependent input, so a runner
    /// whose scale is changed mid-flight never recalls a stale result.
    /// Warm-started cells additionally carry a `+warm{cycles}` suffix,
    /// so a resumed journal never serves a cold run's result to a
    /// warm-start cell (or vice versa).
    pub fn run_keyed(
        &mut self,
        key: String,
        cfg: SystemConfig,
        workload: &AgentMix,
    ) -> Arc<RunStats> {
        let key = match (self.warm_cycles, cfg.sample_epoch) {
            (Some(cycles), None) => {
                format!("{key}@{}+warm{cycles}", cfg.instructions_per_core)
            }
            _ => format!("{key}@{}", cfg.instructions_per_core),
        };
        if let Some(hit) = self.cache.get(&key) {
            return Arc::clone(hit);
        }
        if let Some(plan) = &mut self.planning {
            let placeholder = Arc::new(Self::placeholder_stats(&cfg));
            if plan.seen.insert(format!("run:{key}")) {
                plan.jobs.push(PlannedJob::Run {
                    key,
                    cfg,
                    workload: workload.clone(),
                });
            }
            return placeholder;
        }
        let warm = self.warm_checkpoint(&cfg, workload);
        if self.verbose {
            eprintln!("  [run {:>3}] {key}", self.runs_executed + 1);
        }
        let outcome = Self::isolated_cell(&self.hooks, &key, || {
            Self::run_cell(&cfg, workload, warm.as_ref())
        });
        self.runs_executed += 1;
        match outcome {
            Ok(stats) => {
                self.journal_run(&key, &stats);
                let stats = Arc::new(stats);
                self.cache.insert(key, Arc::clone(&stats));
                stats
            }
            Err(err) => {
                let stats = Arc::new(Self::placeholder_stats(&cfg));
                self.cache.insert(key.clone(), Arc::clone(&stats));
                self.record_failure(key, err);
                stats
            }
        }
    }

    /// Captures (or recalls) a parallel app's request trace at this
    /// scale: one execution-driven FR-FCFS run with the paper's
    /// MaxStallTime CBP attached, so the recorded requests carry the
    /// processor-side criticality annotations (the scheduler itself
    /// ignores them, so arrival timing is the FR-FCFS baseline's).
    /// Every subsequent [`Runner::replay`] of the app reuses it.
    pub fn capture(&mut self, app: &'static str) -> Arc<Trace> {
        self.capture_with(
            app,
            PredictorKind::cbp64(critmem_predict::CbpMetric::MaxStallTime),
        )
    }

    /// Captures (or recalls) an app's trace with a specific annotation
    /// predictor (one capture per metric under study).
    pub fn capture_with(&mut self, app: &'static str, predictor: PredictorKind) -> Arc<Trace> {
        let key = format!("{app}|{}@{}", predictor.name(), self.scale.instructions);
        if let Some(hit) = self.traces.get(&key) {
            return Arc::clone(hit);
        }
        let cfg = self.parallel_cfg().with_predictor(predictor);
        if let Some(plan) = &mut self.planning {
            let placeholder = Arc::new(Self::placeholder_trace(&cfg, app));
            if plan.seen.insert(format!("cap:{key}")) {
                plan.jobs.push(PlannedJob::Capture { key, app, cfg });
            }
            return placeholder;
        }
        if self.verbose {
            eprintln!("  [capture] {key}");
        }
        let outcome = Self::isolated_cell(&self.hooks, &key, || Self::capture_cell(&cfg, app));
        self.runs_executed += 1;
        match outcome {
            Ok(trace) => {
                let trace = Arc::new(trace);
                self.traces.insert(key, Arc::clone(&trace));
                trace
            }
            Err(err) => {
                let trace = Arc::new(Self::placeholder_trace(&cfg, app));
                self.traces.insert(key.clone(), Arc::clone(&trace));
                self.record_failure(key, err);
                trace
            }
        }
    }

    /// Replays (or recalls) an app's captured trace under `scheduler`.
    /// The DRAM system is rebuilt from the runner's own configuration —
    /// same topology as the capture, scheduler swapped — so the
    /// replayed controllers see exactly the recorded arrival stream.
    pub fn replay(&mut self, app: &'static str, scheduler: SchedulerKind) -> Arc<ReplayStats> {
        let key = format!(
            "{app}|{}|replay@{}",
            scheduler.name(),
            self.scale.instructions
        );
        if let Some(hit) = self.replay_cache.get(&key) {
            return Arc::clone(hit);
        }
        let trace = self.capture(app);
        if let Some(plan) = &mut self.planning {
            if plan.seen.insert(format!("rep:{key}")) {
                plan.replays.push(PlannedReplay {
                    key,
                    app,
                    scheduler,
                });
            }
            return Arc::new(ReplayStats::default());
        }
        if self.verbose {
            eprintln!("  [replay {:>3}] {key}", self.replays_executed + 1);
        }
        let cfg = self.parallel_cfg().with_scheduler(scheduler);
        let outcome = Self::isolated_cell(&self.hooks, &key, || {
            Self::replay_cell(&trace, scheduler, &cfg)
        });
        self.replays_executed += 1;
        match outcome {
            Ok(stats) => {
                self.journal_replay(&key, &stats);
                let stats = Arc::new(stats);
                self.replay_cache.insert(key, Arc::clone(&stats));
                stats
            }
            Err(err) => {
                let stats = Arc::new(ReplayStats::default());
                self.replay_cache.insert(key.clone(), Arc::clone(&stats));
                self.record_failure(key, err);
                stats
            }
        }
    }

    /// Base configuration for a parallel run at this scale.
    pub fn parallel_cfg(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_baseline(self.scale.instructions);
        cfg.max_cycles = self
            .scale
            .instructions
            .saturating_mul(20_000)
            .max(1_000_000_000);
        cfg.skip_ahead = self.skip_ahead;
        cfg.audit = self.audit;
        cfg
    }

    /// Runs a parallel app under `(scheduler, predictor)` with an
    /// optional config transform; `tag` must uniquely identify the
    /// transform.
    pub fn parallel_with<F>(
        &mut self,
        app: &'static str,
        scheduler: SchedulerKind,
        predictor: PredictorKind,
        tag: &str,
        tweak: F,
    ) -> Arc<RunStats>
    where
        F: FnOnce(SystemConfig) -> SystemConfig,
    {
        let cfg = tweak(
            self.parallel_cfg()
                .with_scheduler(scheduler)
                .with_predictor(predictor),
        );
        let key = format!("{app}|{}|{}|{tag}", scheduler.name(), predictor.name());
        self.run_keyed(key, cfg, &AgentMix::Parallel(app))
    }

    /// Runs a parallel app under `(scheduler, predictor)`.
    pub fn parallel(
        &mut self,
        app: &'static str,
        scheduler: SchedulerKind,
        predictor: PredictorKind,
    ) -> Arc<RunStats> {
        self.parallel_with(app, scheduler, predictor, "", |c| c)
    }

    /// The FR-FCFS, predictor-less baseline for an app.
    pub fn baseline(&mut self, app: &'static str) -> Arc<RunStats> {
        self.parallel(app, SchedulerKind::FrFcfs, PredictorKind::None)
    }
}

/// A plain-text table with row labels, column headers, and formatted
/// cells — the rendering used for every reproduced figure/table.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl TextTable {
    /// Creates a table with a title and column headers (the first
    /// column is the row label and needs no header entry).
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    /// Formats a ratio as a percentage delta ("+9.3%").
    pub fn pct(ratio: f64) -> String {
        format!("{:+.1}%", (ratio - 1.0) * 100.0)
    }

    /// Formats a fraction as a percentage ("48.6%").
    pub fn frac(f: f64) -> String {
        format!("{:.1}%", f * 100.0)
    }

    /// Formats a speedup ratio ("1.093x").
    pub fn ratio(r: f64) -> String {
        format!("{r:.3}x")
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4);
        let col_w: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .filter_map(|(_, cells)| cells.get(i).map(|c| c.len()))
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(h.len())
            })
            .collect();
        writeln!(f, "\n=== {} ===", self.title)?;
        write!(f, "{:<label_w$}", "")?;
        for (h, w) in self.headers.iter().zip(&col_w) {
            write!(f, "  {h:>w$}")?;
        }
        writeln!(f)?;
        for (label, cells) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for (c, w) in cells.iter().zip(&col_w) {
                write!(f, "  {c:>w$}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_memoizes() {
        let mut r = Runner::new(Scale {
            instructions: 500,
            ..Scale::quick()
        });
        let a = r.baseline("swim");
        let b = r.baseline("swim");
        assert_eq!(r.runs_executed(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Regression: the memo key must track the active scale. Changing
    /// `scale.instructions` between calls used to recall the old run.
    #[test]
    fn memo_key_tracks_scale() {
        let mut r = Runner::new(Scale {
            instructions: 500,
            ..Scale::quick()
        });
        let a = r.baseline("swim");
        r.scale.instructions = 900;
        let b = r.baseline("swim");
        assert_eq!(r.runs_executed(), 2, "scale change must force a fresh run");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.cycles, b.cycles);
        assert_eq!(b.instructions_per_core, 900);
    }

    #[test]
    fn capture_memoizes_and_annotates() {
        let mut r = Runner::new(Scale {
            instructions: 500,
            ..Scale::quick()
        });
        let t1 = r.capture("swim");
        let t2 = r.capture("swim");
        assert!(Arc::ptr_eq(&t1, &t2));
        assert!(!t1.records.is_empty(), "swim must miss the L2");
        assert_eq!(r.runs_executed(), 1);
        // The CBP attached at capture time annotated at least one miss.
        assert!(
            t1.records.iter().any(|rec| rec.crit > 0),
            "no criticality annotations captured"
        );
    }

    #[test]
    fn replays_memoize_per_scheduler() {
        let mut r = Runner::new(Scale {
            instructions: 500,
            ..Scale::quick()
        });
        let a = r.replay("swim", SchedulerKind::FrFcfs);
        let b = r.replay("swim", SchedulerKind::FrFcfs);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.replays_executed(), 1);
        let c = r.replay("swim", SchedulerKind::CasRasCrit);
        assert_eq!(r.replays_executed(), 2);
        assert_eq!(
            a.completed, c.completed,
            "same trace, every request serviced"
        );
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new("Demo", &["col1", "col2"]);
        t.row("alpha", vec!["1.0".into(), "2.0".into()]);
        t.row("b", vec!["3.0".into(), "4.0".into()]);
        let s = t.to_string();
        assert!(s.contains("=== Demo ==="));
        assert!(s.contains("alpha"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // Header + 2 rows + title.
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(TextTable::pct(1.093), "+9.3%");
        assert_eq!(TextTable::frac(0.486), "48.6%");
        assert_eq!(TextTable::ratio(1.0), "1.000x");
    }
}
