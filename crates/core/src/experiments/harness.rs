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

/// One sweep cell for [`Runner::execute`]: the memo key its result is
/// stored under, and the simulation that produces it.
struct Job {
    key: String,
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
    /// A replay of `app`'s capture, which is resolved again once the
    /// captures have settled.
    Replay {
        app: &'static str,
        scheduler: SchedulerKind,
        trace: Arc<Trace>,
    },
}

/// What an executed [`Job`] produced.
enum Outcome {
    Warmup(Checkpoint),
    Run(Box<RunStats>),
    Capture(Trace),
    Replay(ReplayStats),
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
    /// Worker threads for [`Runner::run_parallel`]. With `1`, no
    /// planning pass runs and each memo miss executes as it is met.
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
    /// The jobs a planning pass has recorded so far.
    planning: Option<Vec<Job>>,
    failed: Vec<CellFailure>,
    journal: Option<SweepJournal>,
    /// Panic-injection hooks for the resilience tests, owned per
    /// runner so once-per-cell state never leaks across sweeps that
    /// share a process.
    hooks: FaultHooks,
    /// Shared warmup checkpoints, keyed by warmup key; `None` records a
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
    fn record_failure(&mut self, key: String, error: SimError) {
        eprintln!("  [FAILED] {key}: {error}");
        self.failed.push(CellFailure { key, error });
    }

    /// Number of distinct trace replays executed (not cache hits).
    pub fn replays_executed(&self) -> u64 {
        self.replays_executed
    }

    /// The shared warmup a run restores from. `None` means warm starts
    /// are off or the run samples a time series (which must cover the
    /// whole run); either way the run is cold. The warmup runs under
    /// the sweep-neutral baseline (FR-FCFS, no predictor) and is keyed
    /// by the platform it warms and the instruction budget.
    fn warmup(&self, cfg: &SystemConfig, workload: &AgentMix) -> Option<Job> {
        let cycles = self.warm_cycles.filter(|_| cfg.sample_epoch.is_none())?;
        let mut warm = cfg.clone();
        warm.scheduler = SchedulerKind::FrFcfs;
        warm.predictor = PredictorKind::None;
        let key = format!(
            "warmup:{:08x}@{}+warm{cycles}",
            warm.platform_fingerprint(workload),
            cfg.instructions_per_core,
        );
        let workload = workload.clone();
        let work = Work::Warmup {
            cfg: warm,
            workload,
            cycles,
        };
        Some(Job { key, work })
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
    /// from simulation results; (2) execution of the recorded jobs on
    /// the pool, merged into the memo tables in plan order (results are
    /// keyed and the simulations are deterministic, so insertion order
    /// is irrelevant to the table contents); (3) a re-run of `f` that
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
        let key = job.key.clone();
        match &job.work {
            Work::Warmup { .. } => {
                self.checkpoints.insert(key, None);
            }
            Work::Run { cfg, .. } => {
                let stats = RunStats {
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
                };
                self.cache.insert(key, Arc::new(stats));
            }
            Work::Capture { app, cfg } => {
                let trace = Trace {
                    fingerprint: critmem_trace::Fingerprint::of(cfg.cores, cfg.cpu_mhz, &cfg.dram),
                    source: app.to_string(),
                    records: Vec::new(),
                };
                self.traces.insert(key, Arc::new(trace));
            }
            Work::Replay { .. } => {
                self.replay_cache.insert(key, Arc::default());
            }
        }
    }

    /// Executes jobs on the worker pool in three stages: the shared
    /// warmups the runs need, then the runs and captures, then the
    /// replays of those captures.
    fn execute(&mut self, jobs: Vec<Job>) {
        let mut warmups = Vec::new();
        for job in &jobs {
            if let Work::Run { cfg, workload } = &job.work {
                match self.warmup(cfg, workload) {
                    Some(w) if !self.checkpoints.contains_key(&w.key) => {
                        self.store_placeholder(&w);
                        warmups.push(w);
                    }
                    _ => {}
                }
            }
        }
        let (mut replays, sims): (Vec<Job>, Vec<Job>) = jobs
            .into_iter()
            .partition(|job| matches!(job.work, Work::Replay { .. }));
        self.execute_stage(warmups);
        self.execute_stage(sims);
        for job in &mut replays {
            if let Work::Replay { app, trace, .. } = &mut job.work {
                // The capture has settled by now, so this is a hit.
                *trace = self.capture(app);
            }
        }
        self.execute_stage(replays);
    }

    /// Runs independent jobs on the pool and settles each in input
    /// order. Progress lines are printed up front in that order — the
    /// same content at every job count, independent of which worker
    /// finishes first.
    fn execute_stage(&mut self, stage: Vec<Job>) {
        for Job { key, work } in &stage {
            let n = match work {
                Work::Replay { .. } => &mut self.replays_executed,
                _ => &mut self.runs_executed,
            };
            *n += 1;
            if self.verbose {
                match work {
                    Work::Warmup { .. } => eprintln!("  [warmup] {key}"),
                    Work::Run { .. } => eprintln!("  [run {n:>3}] {key}"),
                    Work::Capture { .. } => eprintln!("  [capture] {key}"),
                    Work::Replay { .. } => eprintln!("  [replay {n:>3}] {key}"),
                }
            }
        }
        let results = scoped_map_isolated(self.jobs, &stage, |job| self.run_job(job));
        for (job, result) in stage.into_iter().zip(results) {
            // Flatten: the outer error is a caught panic, the inner one
            // a typed failure from the simulation itself.
            self.settle(job.key, result.and_then(|r| r));
        }
    }

    /// Executes one job on a pool worker.
    fn run_job(&self, job: &Job) -> Result<Outcome, SimError> {
        self.hooks.maybe_inject(&job.key);
        Ok(match &job.work {
            Work::Warmup {
                cfg,
                workload,
                cycles,
            } => Outcome::Warmup(
                Session::new(cfg.clone(), workload)
                    .checkpoint_at(*cycles)
                    .run_to_checkpoint()?,
            ),
            Work::Run { cfg, workload } => {
                let warm = self
                    .warmup(cfg, workload)
                    .and_then(|w| self.checkpoints.get(&w.key)?.as_ref());
                let session = match warm {
                    Some(ckpt) => Session::from_checkpoint(ckpt, cfg.clone(), workload),
                    None => Session::new(cfg.clone(), workload),
                };
                Outcome::Run(Box::new(session.run()?.stats))
            }
            Work::Capture { app, cfg } => Outcome::Capture(
                Session::new(cfg.clone(), &AgentMix::Parallel(app))
                    .traced(app)
                    .run()?
                    .observer
                    .into_trace(),
            ),
            Work::Replay {
                scheduler, trace, ..
            } => {
                let cfg = ReplayConfig::default().with_audit(self.audit);
                Outcome::Replay(crate::replay(
                    TraceSource::from((**trace).clone()),
                    *scheduler,
                    cfg,
                )?)
            }
        })
    }

    /// Settles one executed cell: a success is journaled and replaces
    /// its placeholder in the memo tables; a failure keeps the
    /// placeholder and is recorded.
    fn settle(&mut self, key: String, result: Result<Outcome, SimError>) {
        match result {
            Ok(Outcome::Warmup(ckpt)) => {
                self.checkpoints.insert(key, Some(Arc::new(ckpt)));
            }
            Ok(Outcome::Run(stats)) => {
                self.journal(|j| j.append_run(&key, &stats));
                self.cache.insert(key, Arc::new(*stats));
            }
            Ok(Outcome::Capture(trace)) => {
                self.traces.insert(key, Arc::new(trace));
            }
            Ok(Outcome::Replay(stats)) => {
                self.journal(|j| j.append_replay(&key, &stats));
                self.replay_cache.insert(key, Arc::new(stats));
            }
            Err(error) => self.record_failure(key, error),
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
        if !self.cache.contains_key(&key) {
            let workload = workload.clone();
            let work = Work::Run { cfg, workload };
            self.submit(Job {
                key: key.clone(),
                work,
            });
        }
        Arc::clone(&self.cache[&key])
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
        if !self.traces.contains_key(&key) {
            let cfg = self.parallel_cfg().with_predictor(predictor);
            self.submit(Job {
                key: key.clone(),
                work: Work::Capture { app, cfg },
            });
        }
        Arc::clone(&self.traces[&key])
    }

    /// Replays (or recalls) an app's captured trace under `scheduler`.
    /// The DRAM system is rebuilt from the capture's fingerprint —
    /// same topology, scheduler swapped — so the replayed controllers
    /// see exactly the recorded arrival stream.
    pub fn replay(&mut self, app: &'static str, scheduler: SchedulerKind) -> Arc<ReplayStats> {
        let key = format!(
            "{app}|{}|replay@{}",
            scheduler.name(),
            self.scale.instructions
        );
        if !self.replay_cache.contains_key(&key) {
            let trace = self.capture(app);
            let work = Work::Replay {
                app,
                scheduler,
                trace,
            };
            self.submit(Job {
                key: key.clone(),
                work,
            });
        }
        Arc::clone(&self.replay_cache[&key])
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

    /// `--audit` and `--no-skip-ahead` reach every cell the runner
    /// builds: the multiprogrammed studies' alone, bundle and mix runs,
    /// their shared warmups, and captures.
    #[test]
    fn engine_knobs_reach_every_planned_cell() {
        let mut r = Runner::new(Scale {
            instructions: 300,
            apps: vec![],
            sweep_apps: vec![],
            bundles: vec!["AELV"],
        });
        r.jobs = 2;
        r.audit = true;
        r.skip_ahead = false;
        r.warm_cycles = Some(1_000);
        let mix: AgentMix = "ooo:mcf+stream+bulk".parse().expect("grammar");
        // A planning pass records every cell without running it.
        r.planning = Some(Vec::new());
        crate::experiments::fig12(&mut r);
        crate::experiments::fairness_frontier(&mut r);
        crate::experiments::hetero_study(&mut r, &[(mix.to_string(), mix)]);
        r.capture("swim");
        let plan = r.planning.take().expect("planning state");
        let mut cells = Vec::new();
        for job in &plan {
            match &job.work {
                Work::Run { cfg, workload } => {
                    cells.push((job.key.clone(), cfg.audit, cfg.skip_ahead));
                    let warmup = r.warmup(cfg, workload).expect("warm starts are on");
                    if let Work::Warmup { cfg, .. } = &warmup.work {
                        cells.push((warmup.key, cfg.audit, cfg.skip_ahead));
                    }
                }
                Work::Capture { cfg, .. } => {
                    cells.push((job.key.clone(), cfg.audit, cfg.skip_ahead));
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
                cells.iter().any(|(k, ..)| k.starts_with(prefix)),
                "no {prefix} cell planned"
            );
        }
        for (key, audit, skip_ahead) in &cells {
            assert!(*audit, "{key} runs without auditors");
            assert!(!*skip_ahead, "{key} runs with skip-ahead");
        }
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
