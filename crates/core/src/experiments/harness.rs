//! Shared experiment-harness machinery: run scaling, memoized
//! simulation runs, and plain-text table rendering.

use crate::checkpoint::Checkpoint;
use crate::config::{AgentMix, PredictorKind, SystemConfig};
use crate::faults::FaultHooks;
use crate::journal::{JournalEntry, SweepJournal};
use crate::pool::scoped_map_isolated;
use crate::session::Session;
use crate::system::RunStats;
use critmem_common::SimError;
use critmem_sched::SchedulerKind;
use critmem_trace::{ReplayConfig, ReplayStats, Trace, TraceSource};
use critmem_workloads::PARALLEL_APPS;
use std::collections::HashMap;
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

/// The identity of one sweep cell, which keys its memo entry, shared
/// warmup and journal record: the canonical text of the cell kind, the
/// workload, the whole [`SystemConfig`] in `Debug` form (so a field
/// added later joins it on its own), the warm-start boundary and
/// [`critmem_workloads::MODEL_VERSION`]. The engine knobs that cannot
/// change a result (`--jobs`, [`SystemConfig::skip_ahead`],
/// [`SystemConfig::audit`]) are left out. A replay's id is its
/// capture's id plus the scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) String);

impl CellId {
    /// An execution-driven run, warm-started from a shared warmup to
    /// `warm` cycles when that is set.
    pub fn run(cfg: &SystemConfig, workload: &AgentMix, warm: Option<u64>) -> Self {
        Self::cell("run", cfg, workload, warm)
    }

    /// A trace capture of parallel app `app` (always cold).
    pub fn capture(cfg: &SystemConfig, app: &'static str) -> Self {
        Self::cell("capture", cfg, &AgentMix::Parallel(app), None)
    }

    /// A replay of `capture` under `scheduler`.
    pub fn replay(capture: &CellId, scheduler: SchedulerKind) -> Self {
        CellId(format!("{}|replay={scheduler:?}", capture.0))
    }

    /// The platform part: the rendering with the fields a cell may
    /// change after restoring a checkpoint (scheduler, predictor,
    /// instruction target, cycle budget, sampling, watchdog) fixed.
    /// Every other field must match for a checkpoint to restore.
    pub(crate) fn platform(cfg: &SystemConfig, workload: &AgentMix) -> String {
        let platform = SystemConfig {
            scheduler: SchedulerKind::FrFcfs,
            predictor: PredictorKind::None,
            instructions_per_core: 0,
            max_cycles: 0,
            sample_epoch: None,
            watchdog: critmem_common::WatchdogConfig::default(),
            ..cfg.clone()
        };
        Self::render(&platform, workload)
    }

    fn cell(kind: &str, cfg: &SystemConfig, workload: &AgentMix, warm: Option<u64>) -> Self {
        let body = Self::render(cfg, workload);
        CellId(match warm {
            Some(cycles) => format!("{kind}|{body}|warm={cycles}"),
            None => format!("{kind}|{body}"),
        })
    }

    fn render(cfg: &SystemConfig, workload: &AgentMix) -> String {
        let cfg = SystemConfig {
            skip_ahead: true,
            audit: false,
            ..cfg.clone()
        };
        let model = critmem_workloads::MODEL_VERSION;
        format!("model={model}|wl={workload:?}|cfg={cfg:?}")
    }
}

/// One sweep cell for [`Runner::execute`]: its identity, the label
/// progress lines and failure reports name it by, and the simulation
/// that produces it.
struct Job {
    id: CellId,
    label: String,
    work: Work,
}

enum Work {
    /// A shared warmup to `cycles` under the baseline configuration
    /// `cfg`, checkpointed for every cell of its platform.
    Warmup {
        cfg: SystemConfig,
        workload: AgentMix,
        cycles: u64,
    },
    /// An execution-driven run, warm-started when its warmup succeeded.
    Run {
        cfg: SystemConfig,
        workload: AgentMix,
    },
    /// A trace capture (always cold: the recorded request stream must
    /// start at cycle zero).
    Capture {
        app: &'static str,
        cfg: SystemConfig,
    },
    /// A replay of the capture `capture`, which settles first.
    Replay {
        capture: CellId,
        scheduler: SchedulerKind,
    },
}

/// What a [`Job`] produced (or its placeholder): one memo entry.
enum Memo {
    /// A shared warmup's checkpoint; `None` records a failed warmup so
    /// dependent cells fall back to cold runs instead of retrying it.
    Warmup(Option<Arc<Checkpoint>>),
    Run(Arc<RunStats>),
    Capture(Arc<Trace>),
    Replay(Arc<ReplayStats>),
}

/// One sweep cell that failed (panicked past retry, tripped the
/// watchdog, or returned any other typed error). The rest of the sweep
/// completed; the failed cell's memo slot holds a placeholder.
#[derive(Debug)]
pub struct CellFailure {
    /// The label of the failed cell.
    pub label: String,
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
    /// Worker threads for [`Runner::run_parallel`]. With `1`, no
    /// planning pass runs and each memo miss executes as it is met.
    pub jobs: usize,
    /// Event-driven skip-ahead ([`SystemConfig::skip_ahead`]). Results
    /// are identical by construction, so [`CellId`]s deliberately do
    /// not encode it.
    pub skip_ahead: bool,
    /// Independent run auditors ([`SystemConfig::audit`]) on every
    /// simulation. Audited runs are byte-identical in exported
    /// statistics, so this too is absent from [`CellId`]s; a violation
    /// fails the cell with a typed error like any other.
    pub audit: bool,
    /// Warm-start boundary in CPU cycles. When set, each cell's
    /// configuration under the shared baseline (FR-FCFS, no predictor)
    /// is warmed once up to this cycle and checkpointed, and every cell
    /// of it restores from the shared snapshot. Cells that sample time
    /// series run cold (their series must cover the whole run), as do
    /// trace captures (the recorded stream must start at cycle zero).
    pub warm_cycles: Option<u64>,
    /// Every settled or planned cell, keyed by its identity.
    memo: HashMap<CellId, Memo>,
    runs_executed: u64,
    replays_executed: u64,
    /// The jobs a planning pass has recorded so far.
    planning: Option<Vec<Job>>,
    failed: Vec<CellFailure>,
    journal: Option<SweepJournal>,
    /// Panic-injection hooks for the resilience tests, owned per
    /// runner so once-per-cell state never leaks across sweeps that
    /// share a process.
    hooks: FaultHooks,
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
            memo: HashMap::new(),
            runs_executed: 0,
            replays_executed: 0,
            planning: None,
            failed: Vec::new(),
            journal: None,
            hooks: FaultHooks::from_env(),
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
            let (id, memo) = match entry {
                JournalEntry::Run { id, stats } => (id, Memo::Run(Arc::new(stats))),
                JournalEntry::Replay { id, stats } => (id, Memo::Replay(Arc::new(stats))),
            };
            self.memo.insert(id, memo);
        }
    }

    /// Appends one settled cell to the sweep journal, if one is
    /// attached.
    fn journal(&mut self, append: impl FnOnce(&mut SweepJournal) -> Result<(), SimError>) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = append(j) {
                eprintln!("warning: sweep journal write failed ({e}); journaling disabled");
                self.journal = None;
            }
        }
    }

    /// Records a failed cell (and tells the operator immediately on
    /// stderr; the summary report comes from [`Runner::failures`]).
    fn record_failure(&mut self, label: String, error: SimError) {
        eprintln!("  [FAILED] {label}: {error}");
        self.failed.push(CellFailure { label, error });
    }

    /// Number of distinct trace replays executed (not cache hits).
    pub fn replays_executed(&self) -> u64 {
        self.replays_executed
    }

    /// The warm-start boundary of a run: `None` when warm starts are
    /// off or the run samples a time series (which must cover the whole
    /// run); either way the run is cold.
    fn warm_boundary(&self, cfg: &SystemConfig) -> Option<u64> {
        self.warm_cycles.filter(|_| cfg.sample_epoch.is_none())
    }

    /// The shared warmup a warm-started run restores from. It runs
    /// under the sweep-neutral baseline (FR-FCFS, no predictor), so
    /// cells that differ only in scheduler and predictor share it.
    fn warmup(&self, cfg: &SystemConfig, workload: &AgentMix) -> Option<Job> {
        let cycles = self.warm_boundary(cfg)?;
        let mut warm = cfg.clone();
        warm.scheduler = SchedulerKind::FrFcfs;
        warm.predictor = PredictorKind::None;
        let label = format!(
            "warmup:{:08x}@{}+warm{cycles}",
            warm.platform_fingerprint(workload),
            cfg.instructions_per_core,
        );
        let id = CellId::cell("warmup", &warm, workload, Some(cycles));
        let workload = workload.clone();
        let work = Work::Warmup {
            cfg: warm,
            workload,
            cycles,
        };
        Some(Job { id, label, work })
    }

    /// A sorted, comparable snapshot of the memo tables: one
    /// `(id, headline cycle count)` entry per cached run and replay.
    /// Two runners that executed the same experiments must produce
    /// identical snapshots regardless of `jobs` (the determinism
    /// contract of [`Runner::run_parallel`]).
    pub fn memo_snapshot(&self) -> Vec<(CellId, u64)> {
        let mut v: Vec<(CellId, u64)> = self
            .memo
            .iter()
            .filter_map(|(id, memo)| match memo {
                Memo::Run(s) => Some((id.clone(), s.cycles)),
                Memo::Replay(s) => Some((id.clone(), s.cpu_cycles)),
                Memo::Warmup(_) | Memo::Capture(_) => None,
            })
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
    /// from simulation results; (2) execution of the recorded jobs on
    /// the pool, merged into the memo tables in plan order (results are
    /// keyed by [`CellId`] and the simulations are deterministic, so
    /// insertion order is irrelevant to the table contents); (3) a
    /// re-run of `f` that
    /// now hits the warm cache everywhere and therefore returns output
    /// byte-identical to a serial run.
    ///
    /// With `jobs <= 1`, or when called reentrantly, `f` runs once and
    /// each miss executes as it is met, through the same executor as a
    /// plan of one.
    pub fn run_parallel<T>(&mut self, f: impl Fn(&mut Runner) -> T) -> T {
        if self.jobs <= 1 || self.planning.is_some() {
            return f(self);
        }
        self.planning = Some(Vec::new());
        let _ = f(self);
        let plan = self.planning.take().expect("planning state vanished");
        self.execute(plan);
        f(self)
    }

    /// Records `job` during a planning pass, or executes it now. Either
    /// way its memo slot first gets a structurally valid placeholder:
    /// every derived metric (IPC, fractions, speedup ratios) stays
    /// finite, so a planning pass runs experiment code unmodified, and
    /// a failed cell keeps the placeholder so the rest of a figure
    /// still renders.
    fn submit(&mut self, job: Job) {
        self.store_placeholder(&job);
        match &mut self.planning {
            Some(plan) => plan.push(job),
            None => self.execute(vec![job]),
        }
    }

    fn store_placeholder(&mut self, job: &Job) {
        let placeholder = match &job.work {
            Work::Warmup { .. } => Memo::Warmup(None),
            Work::Run { cfg, .. } => Memo::Run(Arc::new(RunStats {
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
            })),
            Work::Capture { app, cfg } => Memo::Capture(Arc::new(Trace {
                fingerprint: critmem_trace::Fingerprint::of(cfg.cores, cfg.cpu_mhz, &cfg.dram),
                source: app.to_string(),
                records: Vec::new(),
            })),
            Work::Replay { .. } => Memo::Replay(Arc::default()),
        };
        self.memo.insert(job.id.clone(), placeholder);
    }

    /// Executes jobs on the worker pool in three stages: the shared
    /// warmups the runs need, then the runs and captures, then the
    /// replays of those captures.
    fn execute(&mut self, jobs: Vec<Job>) {
        let mut warmups = Vec::new();
        for job in &jobs {
            if let Work::Run { cfg, workload } = &job.work {
                match self.warmup(cfg, workload) {
                    Some(w) if !self.memo.contains_key(&w.id) => {
                        self.store_placeholder(&w);
                        warmups.push(w);
                    }
                    _ => {}
                }
            }
        }
        let (replays, sims): (Vec<Job>, Vec<Job>) = jobs
            .into_iter()
            .partition(|job| matches!(job.work, Work::Replay { .. }));
        self.execute_stage(warmups);
        self.execute_stage(sims);
        self.execute_stage(replays);
    }

    /// Runs independent jobs on the pool and settles each in input
    /// order. Progress lines are printed up front in that order — the
    /// same content at every job count, independent of which worker
    /// finishes first.
    fn execute_stage(&mut self, stage: Vec<Job>) {
        for Job { label, work, .. } in &stage {
            let n = match work {
                Work::Replay { .. } => &mut self.replays_executed,
                _ => &mut self.runs_executed,
            };
            *n += 1;
            if self.verbose {
                match work {
                    Work::Warmup { .. } => eprintln!("  [warmup] {label}"),
                    Work::Run { .. } => eprintln!("  [run {n:>3}] {label}"),
                    Work::Capture { .. } => eprintln!("  [capture] {label}"),
                    Work::Replay { .. } => eprintln!("  [replay {n:>3}] {label}"),
                }
            }
        }
        let results = scoped_map_isolated(self.jobs, &stage, |job| self.run_job(job));
        for (job, result) in stage.into_iter().zip(results) {
            // Flatten: the outer error is a caught panic, the inner one
            // a typed failure from the simulation itself.
            self.settle(job.id, job.label, result.and_then(|r| r));
        }
    }

    /// Executes one job on a pool worker.
    fn run_job(&self, job: &Job) -> Result<Memo, SimError> {
        self.hooks.maybe_inject(&job.label);
        Ok(match &job.work {
            Work::Warmup {
                cfg,
                workload,
                cycles,
            } => Memo::Warmup(Some(Arc::new(
                Session::new(cfg.clone(), workload)
                    .checkpoint_at(*cycles)
                    .run_to_checkpoint()?,
            ))),
            Work::Run { cfg, workload } => {
                let warmup = self.warmup(cfg, workload);
                let session = match warmup.and_then(|w| self.memo.get(&w.id)) {
                    Some(Memo::Warmup(Some(ckpt))) => {
                        Session::from_checkpoint(ckpt, cfg.clone(), workload)
                    }
                    _ => Session::new(cfg.clone(), workload),
                };
                Memo::Run(Arc::new(session.run()?.stats))
            }
            Work::Capture { app, cfg } => Memo::Capture(Arc::new(
                Session::new(cfg.clone(), &AgentMix::Parallel(app))
                    .traced(app)
                    .run()?
                    .observer
                    .into_trace(),
            )),
            Work::Replay { capture, scheduler } => {
                let Some(Memo::Capture(trace)) = self.memo.get(capture) else {
                    unreachable!("a replay's capture is memoized before it");
                };
                let cfg = ReplayConfig::default().with_audit(self.audit);
                Memo::Replay(Arc::new(crate::replay(
                    TraceSource::from((**trace).clone()),
                    *scheduler,
                    cfg,
                )?))
            }
        })
    }

    /// Settles one executed cell: a success is journaled and replaces
    /// its placeholder in the memo tables; a failure keeps the
    /// placeholder and is recorded under its label.
    fn settle(&mut self, id: CellId, label: String, result: Result<Memo, SimError>) {
        match result {
            Ok(memo) => {
                match &memo {
                    Memo::Run(stats) => self.journal(|j| j.append_run(&id, stats)),
                    Memo::Replay(stats) => self.journal(|j| j.append_replay(&id, stats)),
                    Memo::Warmup(_) | Memo::Capture(_) => {}
                }
                self.memo.insert(id, memo);
            }
            Err(error) => self.record_failure(label, error),
        }
    }

    /// The memo entry of `id`, first submitting the cell `job` builds
    /// (its label and work) when there is none.
    fn recall(&mut self, id: &CellId, job: impl FnOnce(&mut Self) -> (String, Work)) -> &Memo {
        if !self.memo.contains_key(id) {
            let (label, work) = job(self);
            let id = id.clone();
            self.submit(Job { id, label, work });
        }
        &self.memo[id]
    }

    /// Runs (or recalls) the simulation of `workload` under `cfg`. The
    /// memo is keyed by the cell's [`CellId`]; `label` names the cell
    /// in progress lines and failure reports only.
    pub fn run_keyed(
        &mut self,
        label: String,
        cfg: SystemConfig,
        workload: &AgentMix,
    ) -> Arc<RunStats> {
        let id = CellId::run(&cfg, workload, self.warm_boundary(&cfg));
        let workload = workload.clone();
        match self.recall(&id, |_| (label, Work::Run { cfg, workload })) {
            Memo::Run(stats) => Arc::clone(stats),
            _ => unreachable!("a run id holds a run"),
        }
    }

    /// Captures (or recalls) a parallel app's request trace at this
    /// scale: one execution-driven FR-FCFS run with the paper's
    /// MaxStallTime CBP attached, so the recorded requests carry the
    /// processor-side criticality annotations (the scheduler itself
    /// ignores them, so arrival timing is the FR-FCFS baseline's).
    /// Every subsequent [`Runner::replay`] of the app reuses it.
    pub fn capture(&mut self, app: &'static str) -> Arc<Trace> {
        self.capture_with(app, annotating_predictor())
    }

    /// Captures (or recalls) an app's trace with a specific annotation
    /// predictor (one capture per metric under study).
    pub fn capture_with(&mut self, app: &'static str, predictor: PredictorKind) -> Arc<Trace> {
        let (id, cfg) = self.capture_cell(app, predictor);
        let job = |_: &mut Self| {
            let label = format!("{app}|{}", predictor.name());
            (label, Work::Capture { app, cfg })
        };
        match self.recall(&id, job) {
            Memo::Capture(trace) => Arc::clone(trace),
            _ => unreachable!("a capture id holds a capture"),
        }
    }

    /// `app`'s capture id and configuration under `predictor`, shared by
    /// `capture_with` and `replay` so a replay names the capture it submits.
    fn capture_cell(&self, app: &'static str, predictor: PredictorKind) -> (CellId, SystemConfig) {
        let cfg = self.parallel_cfg().with_predictor(predictor);
        (CellId::capture(&cfg, app), cfg)
    }

    /// Replays (or recalls) an app's captured trace under `scheduler`.
    /// The DRAM system is rebuilt from the capture's fingerprint —
    /// same topology, scheduler swapped — so the replayed controllers
    /// see exactly the recorded arrival stream.
    pub fn replay(&mut self, app: &'static str, scheduler: SchedulerKind) -> Arc<ReplayStats> {
        let (capture, _) = self.capture_cell(app, annotating_predictor());
        let id = CellId::replay(&capture, scheduler);
        let job = |r: &mut Self| {
            // Only on a miss: a journaled replay needs no capture.
            r.capture(app);
            let label = format!("{app}|{}|replay", scheduler.name());
            (label, Work::Replay { capture, scheduler })
        };
        match self.recall(&id, job) {
            Memo::Replay(stats) => Arc::clone(stats),
            _ => unreachable!("a replay id holds a replay"),
        }
    }

    /// `cfg` with this runner's engine knobs (skip-ahead, audit) and a
    /// cycle budget of `budget` cycles per instruction at this scale,
    /// at least 1e9. Every platform the runner builds comes through
    /// here, so no cell can miss a knob.
    fn with_knobs(&self, mut cfg: SystemConfig, budget: u64) -> SystemConfig {
        cfg.max_cycles = self
            .scale
            .instructions
            .saturating_mul(budget)
            .max(1_000_000_000);
        cfg.skip_ahead = self.skip_ahead;
        cfg.audit = self.audit;
        cfg
    }

    /// Base configuration for a parallel run at this scale.
    pub fn parallel_cfg(&self) -> SystemConfig {
        let cfg = SystemConfig::paper_baseline(self.scale.instructions);
        self.with_knobs(cfg, 20_000)
    }

    /// Base configuration for a multiprogrammed run at this scale: the
    /// Figure 12 platform (4 cores, 2 channels, PAR-BS baseline), which
    /// the fairness frontier and the hetero study share.
    pub fn multiprog_cfg(&self) -> SystemConfig {
        let cfg = SystemConfig::multiprogrammed_baseline(self.scale.instructions);
        self.with_knobs(cfg, 40_000)
    }

    /// Runs a parallel app under `(scheduler, predictor)` with an
    /// optional config transform; `tag` names the transform in the
    /// cell's label.
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
        let label = format!("{app}|{}|{}|{tag}", scheduler.name(), predictor.name());
        self.run_keyed(label, cfg, &AgentMix::Parallel(app))
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

/// The predictor whose annotations [`Runner::capture`] records: the
/// paper's 64-entry MaxStallTime CBP.
fn annotating_predictor() -> PredictorKind {
    PredictorKind::cbp64(critmem_predict::CbpMetric::MaxStallTime)
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

    /// Regression: the memo must track the active scale. Changing
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

    /// A cell id follows every `SystemConfig` field, the workload, the
    /// kind, the warm boundary and the model version; `--jobs`,
    /// `--no-skip-ahead` and `--audit` leave it alone.
    #[test]
    fn cell_id_covers_the_whole_configuration() {
        let base = SystemConfig::paper_baseline(1_000);
        let wl = AgentMix::Parallel("swim");
        let reference = CellId::run(&base, &wl, None);
        // No `..` here: a new field stops this compiling until it gets
        // a change below (or joins the knobs that must not count).
        let SystemConfig {
            cores: _,
            core: _,
            hierarchy: _,
            dram: _,
            cpu_mhz: _,
            scheduler: _,
            predictor: _,
            instructions_per_core: _,
            seed: _,
            naive_forwarding: _,
            forward_latency: _,
            max_cycles: _,
            sample_epoch: _,
            watchdog: _,
            shards: _,
            skip_ahead: _,
            audit: _,
        } = base;
        type Change = fn(&mut SystemConfig);
        let changes: [(&str, Change); 15] = [
            ("cores", |c| c.cores = 4),
            ("core", |c| c.core.rob_entries += 1),
            ("hierarchy", |c| c.hierarchy.l2_mshrs += 1),
            ("dram", |c| c.dram.starvation_cap += 1),
            ("cpu_mhz", |c| c.cpu_mhz += 1),
            ("scheduler", |c| c.scheduler = SchedulerKind::CasRasCrit),
            ("predictor", |c| c.predictor = annotating_predictor()),
            ("instructions_per_core", |c| c.instructions_per_core += 1),
            ("seed", |c| c.seed ^= 1),
            ("naive_forwarding", |c| c.naive_forwarding = true),
            ("forward_latency", |c| c.forward_latency += 1),
            ("max_cycles", |c| c.max_cycles -= 1),
            ("sample_epoch", |c| c.sample_epoch = Some(1_000)),
            ("watchdog", |c| c.watchdog.check_interval += 1),
            ("shards", |c| c.shards = 2),
        ];
        for (field, change) in changes {
            let mut cfg = base.clone();
            change(&mut cfg);
            assert_ne!(CellId::run(&cfg, &wl, None), reference, "{field}");
        }
        let other_workloads = [AgentMix::Parallel("mg"), AgentMix::alone("swim")];
        for other in other_workloads {
            assert_ne!(CellId::run(&base, &other, None), reference, "{other}");
        }
        let warm = CellId::run(&base, &wl, Some(1_000));
        assert_ne!(warm, reference);
        assert_ne!(CellId::cell("warmup", &base, &wl, Some(1_000)), warm);
        let capture = CellId::capture(&base, "swim");
        assert_ne!(capture, reference);
        assert_ne!(
            CellId::replay(&capture, SchedulerKind::FrFcfs),
            CellId::replay(&capture, SchedulerKind::CasRasCrit)
        );
        let body = CellId::render(&base, &wl);
        assert!(reference.0.contains(&body));
        let model = format!("model={}|", critmem_workloads::MODEL_VERSION);
        assert!(reference.0.contains(&model), "{reference:?} omits {model}");

        // The engine knobs, set on a runner, reach the configuration
        // but not the id.
        let cell = |jobs: usize, skip_ahead: bool, audit: bool| {
            let mut r = Runner::new(Scale::quick());
            (r.jobs, r.skip_ahead, r.audit) = (jobs, skip_ahead, audit);
            let cfg = r.parallel_cfg();
            assert_eq!((cfg.skip_ahead, cfg.audit), (skip_ahead, audit));
            CellId::run(&cfg, &wl, None)
        };
        let plain = cell(1, true, false);
        for (jobs, skip_ahead, audit) in [(4, true, false), (1, false, false), (1, true, true)] {
            assert_eq!(cell(jobs, skip_ahead, audit), plain);
        }
    }

    /// A planning pass of every experiment at quick scale: `--audit`
    /// and `--no-skip-ahead` reach every cell the runner builds (runs,
    /// their shared warmups, captures), and each label names exactly
    /// one cell. A label with two ids would be two configurations that
    /// hand-made memo keys conflated.
    #[test]
    fn engine_knobs_reach_every_planned_cell() {
        use crate::experiments as e;
        let mut r = Runner::new(Scale::quick());
        r.jobs = 2;
        r.audit = true;
        r.skip_ahead = false;
        r.warm_cycles = Some(1_000);
        let mixes: Vec<(String, AgentMix)> = e::default_mixes()
            .into_iter()
            .map(|s| {
                let mix: AgentMix = s.parse().expect("grammar");
                (mix.to_string(), mix)
            })
            .collect();
        // A planning pass records every cell without running it.
        r.planning = Some(Vec::new());
        e::fig1(&mut r);
        e::fig3(&mut r);
        e::fig4(&mut r);
        e::fig5(&mut r);
        e::fig6(&mut r);
        e::fig7(&mut r);
        e::fig8(&mut r);
        e::fig9(&mut r);
        e::fig10(&mut r);
        e::fig11(&mut r);
        e::fig12(&mut r);
        e::table5(&mut r);
        e::table7(&mut r);
        e::naive(&mut r);
        e::reset_study(&mut r);
        e::ablations(&mut r);
        e::trace_sweep(&mut r, "swim");
        e::fairness_frontier(&mut r);
        e::hetero_study(&mut r, &mixes);
        e::stats_export(
            &mut r,
            &["swim"],
            SchedulerKind::FrFcfs,
            PredictorKind::None,
            20_000,
        );
        let plan = r.planning.take().expect("planning state");
        let mut ids: HashMap<String, Vec<CellId>> = HashMap::new();
        let mut knobs = Vec::new();
        let mut note = |job: &Job| {
            let cell = ids.entry(job.label.clone()).or_default();
            if !cell.contains(&job.id) {
                cell.push(job.id.clone());
            }
        };
        for job in &plan {
            note(job);
            match &job.work {
                Work::Run { cfg, workload } => {
                    knobs.push((job.label.clone(), cfg.audit, cfg.skip_ahead));
                    match (r.warmup(cfg, workload), cfg.sample_epoch) {
                        (Some(warmup), _) => {
                            note(&warmup);
                            if let Work::Warmup { cfg, .. } = &warmup.work {
                                knobs.push((warmup.label, cfg.audit, cfg.skip_ahead));
                            }
                        }
                        (None, None) => panic!("{} has no warmup", job.label),
                        // Sampled runs are never warm-started.
                        (None, Some(_)) => {}
                    }
                }
                Work::Capture { cfg, .. } => {
                    knobs.push((job.label.clone(), cfg.audit, cfg.skip_ahead));
                }
                Work::Warmup { .. } | Work::Replay { .. } => {}
            }
        }
        for prefix in [
            "alone|",
            "bundle|",
            "hetero|",
            "heteroalone|",
            "warmup:",
            "swim|",
        ] {
            assert!(
                knobs.iter().any(|(label, ..)| label.starts_with(prefix)),
                "no {prefix} cell planned"
            );
        }
        // The stats export names its sampled cells `{app}|…|sampled:{epoch}`.
        assert!(
            knobs.iter().any(|(label, ..)| label.contains("|sampled:")),
            "no sampled cell planned"
        );
        for (label, audit, skip_ahead) in &knobs {
            assert!(*audit, "{label} runs without auditors");
            assert!(!*skip_ahead, "{label} runs with skip-ahead");
        }
        let mut conflated: Vec<&String> = ids
            .iter()
            .filter(|(_, cells)| cells.len() > 1)
            .map(|(label, _)| label)
            .collect();
        conflated.sort();
        assert!(
            conflated.is_empty(),
            "labels naming two cells: {conflated:?}"
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
