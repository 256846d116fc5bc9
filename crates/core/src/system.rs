//! The assembled system: cores + cache hierarchy + DRAM, advanced in
//! lock-step under the CPU clock with the DRAM channels ticking on the
//! divided bus clock.

use crate::audit::ConservationAuditor;
use crate::config::{AgentMix, PredictorKind, SystemConfig};
use crate::faults::{FaultKind, FaultPlan};
use critmem_cache::{Bounce, CacheHierarchy};
use critmem_common::codec::{ByteReader, ByteWriter, CodecError};
use critmem_common::{
    AccessKind, BankId, ClockDivider, CoreId, CpuCycle, Criticality, MemRequest, MetricVisitor,
    Observable, RankId, RequestObserver, Sampler, Schema, SeriesSet, SimError, Snapshot,
    WatchdogReason, WatchdogSnapshot,
};
use critmem_cpu::{
    AgentClass, AgentStats, CbpPredictor, ClptPredictor, Core, CoreStats, InstrSource,
    LoadCriticalityPredictor, MemoryAgent, NoPredictor, StepEvents,
};
use critmem_dram::{ChannelStats, DramSystem};
use critmem_predict::{Clpt, CommitBlockPredictor};
use critmem_workloads::{build_agent, multi_app, parallel_app, target_units_for, AppThread};
use std::collections::VecDeque;

/// Aggregated result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// CPU cycle at which every core had committed its target.
    pub cycles: u64,
    /// Per-core CPU cycle at which the target was reached.
    pub core_finish: Vec<u64>,
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// Cache-hierarchy statistics.
    pub hierarchy: critmem_cache::HierarchyStats,
    /// Per-channel DRAM statistics.
    pub channels: Vec<ChannelStats>,
    /// Per-core cycles during which the load queue was full.
    pub lq_full_cycles: Vec<u64>,
    /// Instruction target per core.
    pub instructions_per_core: u64,
    /// Per-core `(max counter value, bits)` observed by the predictor
    /// (Table 5), if it has counters.
    pub predictor_observed: Vec<Option<(u64, u32)>>,
    /// Cycle-sampled metric time series, present when
    /// [`SystemConfig::sample_epoch`] was set.
    pub series: Option<SeriesSet>,
    /// Per-agent statistics for the non-OoO agents of a heterogeneous
    /// mix, in agent-index order. Empty for core-only workloads.
    pub agents: Vec<AgentStats>,
}

impl RunStats {
    /// IPC of one core over its measured window. Zero for a run that
    /// never stepped (the core's finish cycle is zero).
    pub fn ipc(&self, core: usize) -> f64 {
        if self.core_finish[core] == 0 {
            0.0
        } else {
            self.instructions_per_core as f64 / self.core_finish[core] as f64
        }
    }

    /// Fraction of committed loads that long-blocked the ROB head
    /// (Figure 1, left panel), averaged over cores.
    pub fn blocked_load_fraction(&self) -> f64 {
        let loads: u64 = self.cores.iter().map(|c| c.loads).sum();
        let blocked: u64 = self.cores.iter().map(|c| c.long_blocked_loads).sum();
        if loads == 0 {
            0.0
        } else {
            blocked as f64 / loads as f64
        }
    }

    /// Fraction of execution cycles the ROB head was blocked by a
    /// long-latency load (Figure 1, right panel), averaged over cores.
    pub fn blocked_cycle_fraction(&self) -> f64 {
        let total: u64 = self.cores.iter().map(|c| c.cycles).sum();
        let blocked: u64 = self.cores.iter().map(|c| c.long_block_cycles).sum();
        if total == 0 {
            0.0
        } else {
            blocked as f64 / total as f64
        }
    }

    /// Mean L2-miss latency (CPU cycles) of critical loads.
    pub fn miss_latency_critical(&self) -> Option<f64> {
        self.hierarchy.miss_latency_critical.mean()
    }

    /// Mean L2-miss latency (CPU cycles) of non-critical loads.
    pub fn miss_latency_noncritical(&self) -> Option<f64> {
        self.hierarchy.miss_latency_noncritical.mean()
    }

    /// Fraction of execution time the load queue was full, averaged
    /// over cores (§5.6).
    pub fn lq_full_fraction(&self) -> f64 {
        let total: u64 = self.cores.iter().map(|c| c.cycles).sum();
        let full: u64 = self.lq_full_cycles.iter().sum();
        if total == 0 {
            0.0
        } else {
            full as f64 / total as f64
        }
    }

    /// Fraction of DRAM ticks during which a transaction queue held at
    /// least one (and more than one) critical read (§3.1).
    pub fn critical_queue_fractions(&self) -> (f64, f64) {
        let ticks: u64 = self.channels.iter().map(|c| c.ticks).sum();
        let one: u64 = self.channels.iter().map(|c| c.ticks_with_critical).sum();
        let many: u64 = self
            .channels
            .iter()
            .map(|c| c.ticks_with_multiple_critical)
            .sum();
        if ticks == 0 {
            (0.0, 0.0)
        } else {
            (one as f64 / ticks as f64, many as f64 / ticks as f64)
        }
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.cycles);
        w.put_u64_seq(&self.core_finish);
        w.put_u32(self.cores.len() as u32);
        for c in &self.cores {
            c.encode(w);
        }
        self.hierarchy.encode(w);
        w.put_u32(self.channels.len() as u32);
        for c in &self.channels {
            c.encode(w);
        }
        w.put_u64_seq(&self.lq_full_cycles);
        w.put_u64(self.instructions_per_core);
        w.put_u32(self.predictor_observed.len() as u32);
        for p in &self.predictor_observed {
            w.put_bool(p.is_some());
            if let Some((max, bits)) = p {
                w.put_u64(*max);
                w.put_u32(*bits);
            }
        }
        w.put_bool(self.series.is_some());
        if let Some(series) = &self.series {
            series.encode(w);
        }
        // Trailing field: readers of journals written before the agent
        // model existed see an exhausted stream here and decode an
        // empty agent list, keeping old `--resume` journals valid.
        w.put_u32(self.agents.len() as u32);
        for a in &self.agents {
            a.encode(w);
        }
    }

    /// Deserializes journaled run statistics.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let cycles = r.get_u64()?;
        let core_finish = r.get_u64_seq()?;
        let n_cores = r.get_u32()? as usize;
        let cores = (0..n_cores)
            .map(|_| CoreStats::decode(r))
            .collect::<Result<Vec<_>, _>>()?;
        let hierarchy = critmem_cache::HierarchyStats::decode(r)?;
        let n_channels = r.get_u32()? as usize;
        let channels = (0..n_channels)
            .map(|_| ChannelStats::decode(r))
            .collect::<Result<Vec<_>, _>>()?;
        let lq_full_cycles = r.get_u64_seq()?;
        let instructions_per_core = r.get_u64()?;
        let n_pred = r.get_u32()? as usize;
        let mut predictor_observed = Vec::with_capacity(n_pred);
        for _ in 0..n_pred {
            predictor_observed.push(if r.get_bool()? {
                Some((r.get_u64()?, r.get_u32()?))
            } else {
                None
            });
        }
        let series = if r.get_bool()? {
            Some(SeriesSet::decode(r)?)
        } else {
            None
        };
        let agents = if r.is_empty() {
            Vec::new() // journal entry predates the agent model
        } else {
            let n_agents = r.get_u32()? as usize;
            (0..n_agents)
                .map(|_| AgentStats::decode(r))
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(RunStats {
            cycles,
            core_finish,
            cores,
            hierarchy,
            channels,
            lq_full_cycles,
            instructions_per_core,
            predictor_observed,
            series,
            agents,
        })
    }
}

/// A pending naive-forwarding message (§5.1).
#[derive(Debug, Clone, Copy)]
struct ForwardMsg {
    deliver_at: CpuCycle,
    addr: u64,
    core: CoreId,
}

/// A [`FaultKind::WedgeBank`] waiting for its trigger cycle.
#[derive(Debug)]
struct ArmedWedge {
    channel: usize,
    rank: RankId,
    bank: BankId,
    at: CpuCycle,
    fired: bool,
}

/// A [`FaultKind::CorruptSchedulerDecision`] waiting for its trigger
/// cycle.
#[derive(Debug)]
struct ArmedCorrupt {
    channel: usize,
    at: CpuCycle,
    fired: bool,
}

/// Runtime state of an armed [`FaultPlan`]: counters, held-back
/// requests, and one-shot device-fault triggers. Boxed behind an
/// `Option` on the system so an un-faulted run pays one branch.
#[derive(Debug, Default)]
struct FaultState {
    /// 1-based index of the demand read to drop.
    drop_nth: Option<u64>,
    /// 1-based index of the demand read to duplicate.
    dup_nth: Option<u64>,
    /// `(1-based index, delay in CPU cycles)` of the read to delay.
    delay_nth: Option<(u64, u64)>,
    /// Demand reads seen at the boundary so far.
    reads_seen: u64,
    /// A duplicated request waiting to be enqueued a second time.
    dup_pending: Option<MemRequest>,
    /// A delayed request and the cycle at which to release it.
    delayed: Option<(MemRequest, CpuCycle)>,
    wedges: Vec<ArmedWedge>,
    corrupts: Vec<ArmedCorrupt>,
}

impl FaultState {
    /// Whether any time-triggered or held-back work remains, i.e. the
    /// per-step fault bookkeeping still has something to do.
    fn idle(&self) -> bool {
        self.dup_pending.is_none()
            && self.delayed.is_none()
            && self.wedges.iter().all(|w| w.fired)
            && self.corrupts.iter().all(|c| c.fired)
    }
}

/// The full simulated system.
///
/// Generic over a [`RequestObserver`] attached to the LLC-miss → DRAM
/// enqueue boundary. The default `()` observer is a no-op the compiler
/// erases, so execution-driven runs pay nothing for the seam; trace
/// capture attaches a `TraceSink` via [`System::with_observer`].
pub struct System<O: RequestObserver = ()> {
    cfg: SystemConfig,
    cores: Vec<Core>,
    sources: Vec<Box<dyn InstrSource>>,
    /// Non-core memory agents (a heterogeneous mix's accelerators, or
    /// a replayed trace). Their scheduler threads follow the cores'.
    agents: Vec<Box<dyn MemoryAgent>>,
    /// Thread → producer table for agent traffic: entry `t` names the
    /// agent that issues as scheduler thread `cores + t`. An agent
    /// spanning [`MemoryAgent::threads`] threads owns that many entries.
    agent_of_thread: Vec<usize>,
    /// Agent requests that found the DRAM queues full, retried in FIFO
    /// order ahead of fresh generation so backpressure is fair.
    agent_pending: VecDeque<MemRequest>,
    /// Reused per-cycle generation buffer (keeps the tick loop
    /// allocation-free once warm).
    agent_scratch: Vec<MemRequest>,
    /// The cores' cache hierarchy; `None` in a core-less system, whose
    /// agents all enqueue at the controller directly.
    hierarchy: Option<CacheHierarchy>,
    dram: DramSystem,
    divider: ClockDivider,
    now: CpuCycle,
    core_finish: Vec<Option<u64>>,
    lq_full_cycles: Vec<u64>,
    /// Per-core wake table: entry `i` is the earliest cycle at which
    /// core `i` could do more than replay stall counters — its
    /// [`Core::wake_cycle`] after its last step, lowered by every fill
    /// it receives to the fill's `done` cycle (to the next cycle if it
    /// sleeps on a bounce), and by any fill at all to the next cycle
    /// while it sleeps on a bounce off the shared L2 MSHR file. Under
    /// [`SystemConfig::skip_ahead`] a core is stepped only once `now`
    /// reaches its entry. Engine state, not platform state: never
    /// serialized, reset to 0 (wake everyone) whenever a core changes
    /// from outside the run loop.
    wake: Vec<CpuCycle>,
    /// `Core::step` calls made since construction (inspection hook).
    core_steps: u64,
    /// Pending §5.1 forwarding messages. `forward_latency` is constant,
    /// so `deliver_at` is monotone over the queue and the due set is
    /// always a prefix.
    forwards: VecDeque<ForwardMsg>,
    sampler: Option<Sampler>,
    /// Request-conservation auditor at the L2↔controller boundary;
    /// `Some` exactly when [`SystemConfig::audit`] is set (the DRAM
    /// protocol auditors are enabled alongside it).
    conservation: Option<Box<ConservationAuditor>>,
    /// Armed fault plan, `None` for healthy runs.
    faults: Option<Box<FaultState>>,
    observer: O,
}

/// One registration/sampling pass over every observable component, in
/// a fixed order: `cpu.coreN`, `cbp.coreN`, `cache.l2`, `dram.chN`,
/// then `agent.aN` for heterogeneous mixes — agents come last so
/// core-only schemas are unchanged from before the agent model.
/// Driving both the schema build and every sample row through this one
/// function guarantees they can never disagree.
fn observe_components(
    cores: &[Core],
    agents: &[Box<dyn MemoryAgent>],
    hierarchy: Option<&CacheHierarchy>,
    dram: &DramSystem,
    v: &mut dyn MetricVisitor,
) {
    for (i, core) in cores.iter().enumerate() {
        v.component(&format!("cpu.core{i}"));
        core.stats().observe(v);
    }
    for (i, core) in cores.iter().enumerate() {
        v.component(&format!("cbp.core{i}"));
        core.predictor().observe_metrics(v);
    }
    if let Some(h) = hierarchy {
        h.observe(v);
    }
    dram.observe(v);
    for (i, agent) in agents.iter().enumerate() {
        v.component(&format!("agent.a{i}"));
        agent.observe(v);
    }
}

impl<O: RequestObserver> std::fmt::Debug for System<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .finish_non_exhaustive()
    }
}

fn build_predictor(kind: PredictorKind) -> Box<dyn LoadCriticalityPredictor> {
    match kind {
        PredictorKind::None => Box::new(NoPredictor),
        PredictorKind::Cbp {
            metric,
            size,
            reset_interval,
        } => {
            let mut cbp = CommitBlockPredictor::new(metric, size);
            if let Some(interval) = reset_interval {
                cbp = cbp.with_reset_interval(interval);
            }
            Box::new(CbpPredictor::new(cbp))
        }
        PredictorKind::Clpt(mode) => Box::new(ClptPredictor::new(Clpt::new(mode))),
    }
}

impl System {
    /// Builds the system for a workload with the no-op observer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation or the workload
    /// names an unknown application.
    pub fn new(cfg: SystemConfig, workload: &AgentMix) -> Self {
        Self::with_observer(cfg, workload, ())
    }

    /// Fallible version of [`System::new`].
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] if the configuration fails validation,
    /// [`SimError::UnknownWorkload`] if the workload names an unknown
    /// application or bundle.
    pub fn try_new(cfg: SystemConfig, workload: &AgentMix) -> Result<Self, SimError> {
        Self::try_with_observer(cfg, workload, ())
    }

    /// Builds a core-less system (`cfg.cores` is zero) whose only
    /// producers are `agents` — the shape trace replay runs on. A
    /// `window` keeps only that many trailing samples
    /// ([`Sampler::with_window`]).
    pub(crate) fn with_agents(
        cfg: SystemConfig,
        agents: Vec<Box<dyn MemoryAgent>>,
        window: Option<usize>,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::Config)?;
        debug_assert_eq!(cfg.cores, 0, "an agent-only system has no cores");
        let mut sys = Self::assemble(cfg, Vec::new(), Vec::new(), agents, ());
        if let Some(w) = window {
            sys.sampler = sys.sampler.map(|s| s.with_window(w));
        }
        Ok(sys)
    }
}

impl<O: RequestObserver> System<O> {
    /// Builds the system for a workload, attaching `observer` to the
    /// LLC-miss → DRAM enqueue boundary.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation or the workload
    /// names an unknown application.
    pub fn with_observer(cfg: SystemConfig, workload: &AgentMix, observer: O) -> Self {
        Self::try_with_observer(cfg, workload, observer).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Self::with_observer`]: operational
    /// mistakes (bad configuration, unknown workload names) come back
    /// as typed errors instead of panics, so the experiment harness can
    /// report them per cell.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] if the configuration fails validation,
    /// [`SimError::UnknownWorkload`] if the workload names an unknown
    /// application or bundle.
    pub fn try_with_observer(
        cfg: SystemConfig,
        workload: &AgentMix,
        observer: O,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::Config)?;
        // One walk of the workload builds every producer: each core's
        // instruction source and QoS budget, and the non-core agents.
        let mut sources: Vec<Box<dyn InstrSource>> = Vec::new();
        let mut qos = Vec::new();
        let mut agents: Vec<Box<dyn MemoryAgent>> = Vec::new();
        // An `alone` run or an `ooo` term may name any application.
        let ooo_app = |app: &str| {
            multi_app(app)
                .or_else(|| parallel_app(app))
                .ok_or_else(|| SimError::UnknownWorkload {
                    kind: "application",
                    name: app.to_string(),
                })
        };
        match workload {
            AgentMix::Parallel(app) => {
                let spec = parallel_app(app).ok_or_else(|| SimError::UnknownWorkload {
                    kind: "parallel app",
                    name: (*app).to_string(),
                })?;
                for c in 0..cfg.cores {
                    sources.push(Box::new(AppThread::new(&spec, c, cfg.seed)));
                }
            }
            AgentMix::Bundle(name) => {
                let bundle =
                    critmem_workloads::bundle(name).ok_or_else(|| SimError::UnknownWorkload {
                        kind: "bundle",
                        name: (*name).to_string(),
                    })?;
                if cfg.cores != 4 {
                    return Err(SimError::Config(format!(
                        "bundles are four-application workloads (got {} cores)",
                        cfg.cores
                    )));
                }
                for (c, app) in bundle.apps.iter().enumerate() {
                    let spec = multi_app(app).ok_or_else(|| SimError::UnknownWorkload {
                        kind: "application",
                        name: (*app).to_string(),
                    })?;
                    sources.push(Box::new(AppThread::new(&spec, c, cfg.seed)));
                }
            }
            AgentMix::Alone(app) => {
                if cfg.cores != 1 {
                    return Err(SimError::Config(format!(
                        "alone runs use a single core (got {})",
                        cfg.cores
                    )));
                }
                sources.push(Box::new(AppThread::new(&ooo_app(app)?, 0, cfg.seed)));
            }
            AgentMix::Hetero(specs) => {
                // Faults are reported in one order wherever they sit in
                // the mix: an unknown application, then a core-count
                // mismatch, then an unknown agent profile.
                let mut unknown_profile = None;
                for spec in specs {
                    if spec.class == AgentClass::Ooo {
                        let app_spec = ooo_app(spec.profile)?;
                        for _ in 0..spec.count {
                            let thread = sources.len();
                            sources.push(Box::new(AppThread::new(&app_spec, thread, cfg.seed)));
                            qos.push(spec.effective_qos_millis());
                        }
                    } else {
                        for _ in 0..spec.count {
                            let index = agents.len();
                            let thread = cfg.cores + index;
                            let target = target_units_for(spec.class, cfg.instructions_per_core);
                            match build_agent(
                                spec.class,
                                spec.profile,
                                index,
                                CoreId(thread as u8),
                                spec.effective_qos_millis(),
                                target,
                                cfg.seed,
                            ) {
                                Some(agent) => agents.push(agent),
                                None => {
                                    unknown_profile.get_or_insert(SimError::UnknownWorkload {
                                        kind: "agent profile",
                                        name: format!("{}:{}", spec.class.keyword(), spec.profile),
                                    });
                                }
                            }
                        }
                    }
                }
                if sources.len() != cfg.cores {
                    return Err(SimError::Config(format!(
                        "mix has {} ooo agents but the configuration has {} cores",
                        sources.len(),
                        cfg.cores
                    )));
                }
                if let Some(err) = unknown_profile {
                    return Err(err);
                }
                if agents.is_empty() && cfg.cores == 0 {
                    return Err(SimError::Config("empty agent mix".to_string()));
                }
                if cfg.cores + agents.len() > 64 {
                    return Err(SimError::Config(format!(
                        "mix has {} participants (64 max)",
                        cfg.cores + agents.len()
                    )));
                }
            }
        }
        // Cores outside a hetero mix keep the OoO class's default budget.
        qos.resize(sources.len(), AgentClass::Ooo.default_qos_millis());
        let cores = qos
            .into_iter()
            .enumerate()
            .map(|(c, millis)| {
                Core::new(
                    CoreId(c as u8),
                    cfg.core,
                    build_predictor(cfg.predictor),
                    u64::MAX / 2, // the system, not the core, ends the run
                )
                .with_qos_budget_millis(millis)
            })
            .collect();
        Ok(Self::assemble(cfg, cores, sources, agents, observer))
    }

    /// Wires validated producers to a fresh hierarchy, DRAM system,
    /// auditors and sampler.
    fn assemble(
        cfg: SystemConfig,
        cores: Vec<Core>,
        sources: Vec<Box<dyn InstrSource>>,
        agents: Vec<Box<dyn MemoryAgent>>,
        observer: O,
    ) -> Self {
        // Agents are scheduler threads too: TCM/ATLAS/BLISS rank them
        // alongside the cores.
        let agent_of_thread: Vec<usize> = agents
            .iter()
            .enumerate()
            .flat_map(|(i, a)| std::iter::repeat_n(i, a.threads()))
            .collect();
        let num_threads = cfg.cores + agent_of_thread.len();
        let mut dram = DramSystem::new(cfg.dram, |ch| {
            cfg.scheduler.build(num_threads, u64::from(ch.0))
        });
        let conservation = cfg.audit.then(|| {
            dram.enable_audit();
            // The physical occupancy ceiling: every transaction queue
            // full plus a per-channel slack for in-flight CAS bursts.
            let bound = cfg.dram.org.channels as usize * (cfg.dram.queue_capacity + 64);
            Box::new(ConservationAuditor::new(bound))
        });
        let hierarchy = (!cores.is_empty()).then(|| CacheHierarchy::new(cfg.hierarchy));
        let sampler = cfg.sample_epoch.map(|epoch| {
            let schema = Schema::build(|v| {
                observe_components(&cores, &agents, hierarchy.as_ref(), &dram, v)
            });
            Sampler::new(schema, epoch)
        });
        System {
            hierarchy,
            dram,
            divider: ClockDivider::new(cfg.dram.preset.bus_mhz, cfg.cpu_mhz),
            now: 0,
            core_finish: vec![None; cfg.cores],
            lq_full_cycles: vec![0; cfg.cores],
            wake: vec![0; cfg.cores],
            core_steps: 0,
            forwards: VecDeque::new(),
            sampler,
            conservation,
            faults: None,
            cores,
            sources,
            agents,
            agent_of_thread,
            agent_pending: VecDeque::new(),
            agent_scratch: Vec::new(),
            cfg,
            observer,
        }
    }

    /// Arms a [`FaultPlan`]: live faults (request drops/duplicates/
    /// delays, bank wedges, corrupted scheduler decisions) inject at
    /// their component boundaries as the run executes. Artifact faults
    /// in the plan ([`FaultKind::is_artifact_fault`]) do not touch the
    /// live system and are ignored here — the campaign runner applies
    /// them to serialized bytes directly.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        let mut st = FaultState::default();
        for fault in &plan.faults {
            match *fault {
                FaultKind::DropRequest { nth_read } => st.drop_nth = Some(nth_read),
                FaultKind::DuplicateRequest { nth_read } => st.dup_nth = Some(nth_read),
                FaultKind::DelayRequest { nth_read, delay } => {
                    st.delay_nth = Some((nth_read, delay));
                }
                FaultKind::WedgeBank {
                    channel,
                    rank,
                    bank,
                    at_cycle,
                } => st.wedges.push(ArmedWedge {
                    channel: channel as usize,
                    rank: RankId(rank),
                    bank: BankId(bank),
                    at: at_cycle,
                    fired: false,
                }),
                FaultKind::CorruptSchedulerDecision { channel, at_cycle } => {
                    st.corrupts.push(ArmedCorrupt {
                        channel: channel as usize,
                        at: at_cycle,
                        fired: false,
                    });
                }
                FaultKind::BitFlipTraceChunk { .. } | FaultKind::BitFlipCheckpoint { .. } => {}
            }
        }
        self.faults = Some(Box::new(st));
    }

    /// Per-step fault bookkeeping: fire due device faults and retry
    /// held-back requests. Runs before the phase-3 drain so a released
    /// request competes for queue space like a fresh one. Skip-ahead
    /// may overshoot a trigger cycle; the trigger then fires on the
    /// next executed cycle (`now >= at`), which is all the detection
    /// contract needs.
    fn fault_step(&mut self, now: CpuCycle) {
        let Some(f) = self.faults.as_deref_mut() else {
            return;
        };
        if f.idle() {
            return;
        }
        for w in &mut f.wedges {
            if !w.fired && now >= w.at {
                w.fired = true;
                self.dram.wedge_bank(w.channel, w.rank, w.bank);
            }
        }
        for c in &mut f.corrupts {
            if !c.fired && now >= c.at {
                c.fired = true;
                self.dram.corrupt_decision(c.channel);
            }
        }
        if let Some(dup) = f.dup_pending.take() {
            match self.dram.enqueue(dup) {
                Ok(()) => {
                    // The phantom copy is invisible to the observer (a
                    // trace must not record it) but not to the
                    // conservation auditor — catching it is the point.
                    if let Some(a) = &mut self.conservation {
                        a.on_enqueue(dup.id, now);
                    }
                }
                Err(back) => f.dup_pending = Some(back),
            }
        }
        if let Some((req, _)) = f.delayed.filter(|&(_, at)| at <= now) {
            // Queue full leaves `delayed` set: retry next cycle.
            if self.admit(req, now).is_ok() {
                self.faults.as_deref_mut().expect("armed above").delayed = None;
            }
        }
    }

    /// Enqueues `req` at the controller boundary and, once accepted,
    /// reports it to the conservation auditor and then the observer,
    /// stamped with the cycle of successful enqueue. Every producer's
    /// requests enter DRAM here; a full transaction queue hands the
    /// request back for the caller to retry.
    fn admit(&mut self, req: MemRequest, now: CpuCycle) -> Result<(), MemRequest> {
        self.dram.enqueue(req)?;
        if let Some(a) = &mut self.conservation {
            a.on_enqueue(req.id, now);
        }
        self.observer.on_enqueue(now, &req);
        Ok(())
    }

    /// Intercepts one popped request under the armed fault plan.
    /// Returns `true` when the request was consumed (dropped or held
    /// back) and must not be enqueued this cycle.
    fn fault_intercept(&mut self, req: MemRequest, now: CpuCycle) -> bool {
        let Some(f) = self.faults.as_deref_mut() else {
            return false;
        };
        if req.kind != AccessKind::Read {
            return false; // faults target demand reads: they stall cores
        }
        f.reads_seen += 1;
        let n = f.reads_seen;
        if f.drop_nth == Some(n) {
            return true; // silently discarded: the core never hears back
        }
        if f.delay_nth.is_some_and(|(nth, _)| nth == n) {
            let delay = f.delay_nth.expect("checked above").1;
            f.delayed = Some((req, now.saturating_add(delay)));
            return true;
        }
        if f.dup_nth == Some(n) {
            f.dup_pending = Some(req); // the copy; the original proceeds
        }
        false
    }

    /// The first violation any attached auditor holds, wrapped as a
    /// typed error; `None` while the run is clean.
    fn audit_violation_error(&mut self) -> Option<SimError> {
        if let Some(snap) = self.dram.take_audit_violation() {
            return Some(SimError::AuditViolation(snap));
        }
        if let Some(a) = &mut self.conservation {
            if let Some(snap) = a.take_violation() {
                return Some(SimError::AuditViolation(snap));
            }
        }
        None
    }

    /// Current CPU cycle.
    pub fn now(&self) -> CpuCycle {
        self.now
    }

    /// Advances one CPU cycle.
    pub fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        // 1. Cores, in rotating order: shared-resource races (L2 MSHRs,
        // transaction-queue slots) must not systematically favor
        // low-numbered cores. A core-less system has no hierarchy.
        // Under skip-ahead a core whose wake cycle lies ahead sleeps:
        // its `wake_cycle` promise says this step would only bump
        // stall counters, so `Core::skip` bumps them instead, eagerly,
        // and every reader sees them current. A quiescent core touches
        // the hierarchy at most with a bounce, which changes nothing,
        // so the others race for it unchanged.
        if let Some(hierarchy) = &mut self.hierarchy {
            let n = self.cores.len();
            let start = (now as usize) % n;
            for k in 0..n {
                let i = (start + k) % n;
                let core = &mut self.cores[i];
                let events = if self.cfg.skip_ahead && now < self.wake[i] {
                    core.skip(now - 1, 1);
                    StepEvents::default()
                } else {
                    self.core_steps += 1;
                    let events = core.step(now, self.sources[i].as_mut(), hierarchy);
                    self.wake[i] = core.wake_cycle(now);
                    events
                };
                if core.lq_full() {
                    self.lq_full_cycles[i] += 1;
                }
                if self.core_finish[i].is_none()
                    && core.stats().committed >= self.cfg.instructions_per_core
                {
                    self.core_finish[i] = Some(now);
                }
                if self.cfg.naive_forwarding {
                    if let Some(b) = events.block_started {
                        self.forwards.push_back(ForwardMsg {
                            deliver_at: now + self.cfg.forward_latency,
                            addr: b.addr & !63,
                            core: CoreId(i as u8),
                        });
                    }
                }
            }
        }
        // 2. Deliver naive-forwarding promotions. Messages are pushed
        // with a constant latency, so `deliver_at` is non-decreasing
        // from front to back and the due messages are exactly a prefix:
        // delivery is O(delivered), not O(queue) per cycle.
        while self.forwards.front().is_some_and(|m| m.deliver_at <= now) {
            let m = self.forwards.pop_front().expect("front checked above");
            self.dram
                .promote_by_addr(m.addr, m.core, Criticality::binary());
        }
        // 3. Drain cache-miss requests into the DRAM queues. The
        // observer sees exactly the accepted requests, stamped with the
        // cycle of successful enqueue. An armed fault plan intercepts
        // here — this is the boundary the conservation auditor watches.
        if self.faults.is_some() {
            self.fault_step(now);
        }
        while let Some(req) = self.hierarchy.as_mut().and_then(|h| h.pop_request(now)) {
            if self.faults.is_some() && self.fault_intercept(req, now) {
                continue;
            }
            if let Err(back) = self.admit(req, now) {
                self.hierarchy
                    .as_mut()
                    .expect("popped above")
                    .unpop_request(back);
                break;
            }
        }
        // 3b. Heterogeneous agents inject their traffic directly at the
        // controller boundary (no cache hierarchy in front of a GPU-like
        // streamer or a PIM engine): overflow from earlier cycles drains
        // first, then each agent generates in rotating order.
        if !self.agents.is_empty() {
            self.agent_step(now);
        }
        // 4. DRAM bus clock.
        if self.divider.tick() {
            let mut filled = false;
            for done in self.dram.tick() {
                if let Some(a) = &mut self.conservation {
                    a.on_complete(done.req.id, now);
                }
                match done.req.core.index().checked_sub(self.cores.len()) {
                    // Agent traffic bypasses the hierarchy on the way
                    // back too: completions route by thread index.
                    Some(t) => self.agents[self.agent_of_thread[t]].complete(&done.req, now),
                    None => {
                        let hierarchy = self.hierarchy.as_mut().expect("cores have a hierarchy");
                        filled = true;
                        // A fill is a core's only external input, so
                        // it is the only thing that wakes one early. It
                        // frees the core's MSHR entry now, before its
                        // data arrives: a core asleep on a bounce
                        // retries in the next core phase.
                        for c in hierarchy.dram_completed(&done.req, now) {
                            let k = c.core.index();
                            let core = &mut self.cores[k];
                            let wake = if core.bounced().is_some() {
                                now + 1
                            } else {
                                c.done
                            };
                            core.mem_completed(c.token.0, c.done);
                            self.wake[k] = self.wake[k].min(wake);
                        }
                    }
                }
            }
            // Any fill may free a shared L2 MSHR entry (or bring a line
            // in) for every core asleep on the shared file.
            if filled {
                for (k, core) in self.cores.iter().enumerate() {
                    if core.bounced() == Some(Bounce::Shared) {
                        self.wake[k] = self.wake[k].min(now + 1);
                    }
                }
            }
        }
        // 5. Epoch sampling (pull-based: reads the counters the
        // components already maintain; nothing runs when disabled).
        if let Some(sampler) = &mut self.sampler {
            if sampler.due(now) {
                let (cores, agents, dram) = (&self.cores, &self.agents, &self.dram);
                let hierarchy = self.hierarchy.as_ref();
                sampler.sample(now, |v| {
                    observe_components(cores, agents, hierarchy, dram, v)
                });
            }
        }
    }

    /// Phase 3b of [`Self::step`]: drain the agent overflow queue into
    /// the DRAM controllers, then let each unfinished agent generate
    /// this cycle's requests in rotating order. A full transaction
    /// queue pushes the remainder back onto the overflow queue, which
    /// keeps strict FIFO priority next cycle — the same backpressure
    /// discipline the cache outbox gets from `unpop_request`.
    fn agent_step(&mut self, now: CpuCycle) {
        while let Some(req) = self.agent_pending.front().copied() {
            if !self.admit_agent(req, now) {
                break;
            }
            self.agent_pending.pop_front();
        }
        let n = self.agents.len();
        let start = if n > 1 { (now as usize) % n } else { 0 };
        let mut scratch = std::mem::take(&mut self.agent_scratch);
        for i in (start..n).chain(0..start) {
            scratch.clear();
            self.agents[i].generate(now, &mut scratch);
            for &req in scratch.iter() {
                // Once anything queued up behind a full controller,
                // later requests must queue too or ordering inverts.
                if !self.agent_pending.is_empty() {
                    self.agent_pending.push_back(req);
                    continue;
                }
                if !self.admit_agent(req, now) {
                    self.agent_pending.push_back(req);
                }
            }
        }
        self.agent_scratch = scratch;
    }

    /// [`Self::admit`] for an agent's request, reporting the attempt to
    /// the issuing agent ([`MemoryAgent::admitted`]). Returns whether
    /// the controller accepted it.
    fn admit_agent(&mut self, req: MemRequest, now: CpuCycle) -> bool {
        let accepted = self.admit(req, now).is_ok();
        let agent = self.agent_of_thread[req.core.index() - self.cores.len()];
        self.agents[agent].admitted(&req, accepted, now);
        accepted
    }

    /// The earliest future CPU cycle at which [`Self::step`] could do
    /// observable work — the system-wide event horizon for the
    /// skip-ahead kernel.
    ///
    /// Every cycle in `now + 1 .. horizon` is provably quiescent: each
    /// core reports it cannot commit, issue, dispatch, or retire a
    /// store ([`Core::wake_cycle`], read from the per-core wake
    /// table that also lets each core sleep on its own while the
    /// others run; a core asleep on a bounce off the shared L2 MSHR
    /// file stays quiet because no fill lands inside the window);
    /// no forwarding message comes
    /// due (the queue is deliver-time ordered, so the front bounds the
    /// whole queue); the cache outbox has nothing ready (an unpopped
    /// DRAM-full retry carries `ready_at = 0` and pins the horizon to
    /// `now + 1`); no DRAM controller has a completion, refresh,
    /// candidate re-check, direction flip, or scheduler quantum due
    /// before the CPU cycle of the corresponding bus tick; and the
    /// sampler's next epoch has not arrived. The (private) `skip` step
    /// the run loop pairs this with replays the
    /// per-cycle bookkeeping those quiescent cycles would have done in
    /// closed form, which is what makes batch-advancing byte-identical
    /// to stepping.
    ///
    /// Always returns at least `now + 1`; returning exactly `now + 1`
    /// means "no skippable window".
    pub fn idle_horizon(&self) -> CpuCycle {
        let now = self.now;
        let nxt = now + 1;
        // The wake table holds each core's `wake_cycle` from its last
        // step, lowered by every fill since: no core re-scans.
        let mut horizon = self.wake.iter().copied().min().unwrap_or(CpuCycle::MAX);
        if horizon <= nxt {
            return nxt;
        }
        // Agents honor the same contract: `quiescent_until` bounds the
        // first cycle at which `generate` could emit. Overflow pending
        // against a full controller pins the horizon outright.
        if !self.agent_pending.is_empty() {
            return nxt;
        }
        for agent in &self.agents {
            horizon = horizon.min(agent.quiescent_until(now));
            if horizon <= nxt {
                return nxt;
            }
        }
        if let Some(m) = self.forwards.front() {
            horizon = horizon.min(m.deliver_at.max(nxt));
        }
        if let Some(ready) = self
            .hierarchy
            .as_ref()
            .and_then(|h| h.next_request_ready_at())
        {
            horizon = horizon.min(ready.max(nxt));
        }
        // Translate the DRAM-clock horizon into the CPU cycle whose
        // divider tick reaches it: the d-th future bus tick falls on
        // CPU cycle `now + fast_cycles_until(d)`, so every skipped
        // cycle strictly before that produces strictly fewer ticks.
        let d = self
            .dram
            .next_event_cycle()
            .saturating_sub(self.divider.slow_cycles());
        horizon = horizon.min(now.saturating_add(self.divider.fast_cycles_until(d)));
        if let Some(s) = &self.sampler {
            horizon = horizon.min(s.next_due().max(nxt));
        }
        horizon.max(nxt)
    }

    /// Batch-advances the clock across `n` cycles that
    /// [`Self::idle_horizon`] proved quiescent, replaying exactly the
    /// bookkeeping [`Self::step`] would have accumulated: per-core
    /// stall counters ([`Core::skip`]), the system's LQ-full counter,
    /// the clock divider (whose bus ticks in the window are all empty
    /// controller cycles, applied in closed form via
    /// [`DramSystem::skip`]), and `now` itself. No commits, deliveries,
    /// enqueues, completions, or samples can occur in the window, so
    /// nothing else changes — the wake table included, since every
    /// entry lies at or past the horizon.
    fn skip(&mut self, n: u64) {
        let now = self.now;
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.skip(now, n);
            // The LQ occupancy is frozen while the core is quiescent,
            // so either every skipped cycle counts or none does.
            if core.lq_full() {
                self.lq_full_cycles[i] += n;
            }
        }
        let d = self.divider.advance(n);
        if d > 0 {
            self.dram.skip(d);
        }
        self.now += n;
    }

    /// Number of naive-forwarding messages still in flight (test and
    /// inspection hook for the skip-ahead identity suite).
    pub fn pending_forwards(&self) -> usize {
        self.forwards.len()
    }

    /// Number of metric samples recorded so far; zero when sampling is
    /// disabled.
    pub fn samples_taken(&self) -> usize {
        self.sampler.as_ref().map_or(0, Sampler::samples_taken)
    }

    /// Number of [`Core::step`] calls made since this system was built
    /// (a restore does not carry it over). Without skip-ahead every
    /// core steps every cycle; with it, a sleeping core is not
    /// stepped, so this counts the work per-core sleep leaves.
    pub fn core_steps(&self) -> u64 {
        self.core_steps
    }

    /// Per-core committed instruction counts (progress inspection).
    pub fn committed(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.stats().committed).collect()
    }

    /// Total transactions currently queued in the DRAM controllers and
    /// requests waiting in the cache outbox (progress inspection).
    pub fn queue_depths(&self) -> (usize, usize) {
        let outbox = self.hierarchy.as_ref().map_or(0, |h| h.outbox_len());
        (self.dram.total_queued(), outbox)
    }

    /// Whether every core has reached the instruction target and every
    /// agent its work-unit target.
    pub fn done(&self) -> bool {
        self.core_finish.iter().all(|f| f.is_some()) && self.agents.iter().all(|a| a.finished())
    }

    /// Advances until every core finished, `stop` (a CPU cycle) is
    /// reached, or a guard trips. The tick loop carries a
    /// forward-progress watchdog ([`SystemConfig::watchdog`]) and
    /// returns a typed [`SimError::Watchdog`] whose snapshot shows
    /// where every core is stuck (ROB head PC), how full the miss
    /// machinery is (L2 MSHRs, outbox), and what every bank queue
    /// holds.
    pub(crate) fn drive(&mut self, stop: Option<CpuCycle>) -> Result<(), SimError> {
        let wd = self.cfg.watchdog;
        let progress_total = |cores: &[Core], agents: &[Box<dyn MemoryAgent>]| -> u64 {
            cores.iter().map(|c| c.stats().committed).sum::<u64>()
                + agents.iter().map(|a| a.units_done()).sum::<u64>()
        };
        let mut last_committed_total: u64 = progress_total(&self.cores, &self.agents);
        let mut last_commit_cycle = self.now;
        let mut next_check = self.now.saturating_add(wd.check_interval);
        while !self.done() && stop.is_none_or(|s| self.now < s) {
            if self.now >= self.cfg.max_cycles {
                return Err(self.watchdog_error(WatchdogReason::CycleLimit {
                    max_cycles: self.cfg.max_cycles,
                }));
            }
            if self.cfg.skip_ahead {
                // Cap the jump so every loop-level decision point —
                // watchdog check, cycle limit, stop boundary — still
                // lands on exactly the cycle it would serially. With a
                // zero check interval `next_check` trails `now`, so it
                // only caps when the watchdog actually paces checks.
                let mut cap = self.cfg.max_cycles.min(stop.unwrap_or(CpuCycle::MAX));
                if wd.check_interval > 0 {
                    cap = cap.min(next_check);
                }
                let horizon = self.idle_horizon().min(cap);
                if horizon > self.now + 1 {
                    self.skip(horizon - self.now - 1);
                }
            }
            self.step();
            // Poll the auditors every iteration (audited runs only):
            // a violation must surface at the cycle it occurred, before
            // a faulty completion can corrupt downstream state.
            if self.conservation.is_some() {
                if let Some(a) = &mut self.conservation {
                    a.check_clock(self.now);
                }
                if self.dram.has_audit_violation()
                    || self
                        .conservation
                        .as_ref()
                        .is_some_and(|a| a.violation().is_some())
                {
                    if let Some(e) = self.audit_violation_error() {
                        return Err(e);
                    }
                }
            }
            if self.now >= next_check {
                next_check = self.now.saturating_add(wd.check_interval);
                if wd.no_commit_cycles > 0 {
                    let total: u64 = progress_total(&self.cores, &self.agents);
                    if total > last_committed_total {
                        last_committed_total = total;
                        last_commit_cycle = self.now;
                    } else if self.now - last_commit_cycle >= wd.no_commit_cycles {
                        let idle_cycles = self.now - last_commit_cycle;
                        return Err(self.watchdog_error(WatchdogReason::NoCommit { idle_cycles }));
                    }
                }
                if wd.max_request_age > 0 {
                    if let Some(age) = self.dram.oldest_queued_age() {
                        if age > wd.max_request_age {
                            return Err(self.watchdog_error(WatchdogReason::StarvedRequest {
                                age,
                                limit: wd.max_request_age,
                            }));
                        }
                    }
                }
            }
        }
        // End-of-run audit reconciliation, only at a true finish (this
        // method also drives to intermediate checkpoint boundaries).
        if self.done() {
            self.finish_audit()?;
        }
        Ok(())
    }

    /// End-of-run audit reconciliation (audited runs only): the
    /// protocol auditors' refresh-interval checks and the conservation
    /// auditor's lost-request check. [`Self::drive`] runs it when the
    /// system finishes; an owner whose run ends at a stop cycle calls
    /// it itself.
    pub(crate) fn finish_audit(&mut self) -> Result<(), SimError> {
        if let Some(a) = &mut self.conservation {
            self.dram.finish_audit();
            a.finish(self.dram.outstanding(), self.now);
        }
        self.audit_violation_error().map_or(Ok(()), Err)
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Swaps the memory scheduler and the per-core criticality
    /// predictor in place, preserving every other piece of
    /// architectural state. This is the warm-start engine's component
    /// switch expressed without serialization: restoring a checkpoint
    /// under a different `(scheduler, predictor)` cell must be
    /// byte-identical to driving the original system to the boundary
    /// and calling this.
    pub fn reconfigure(
        &mut self,
        scheduler: critmem_sched::SchedulerKind,
        predictor: PredictorKind,
    ) {
        self.cfg.scheduler = scheduler;
        self.cfg.predictor = predictor;
        let num_threads = self.cfg.cores + self.agent_of_thread.len();
        self.dram
            .replace_schedulers(|ch| scheduler.build(num_threads, u64::from(ch.0)));
        for core in &mut self.cores {
            core.replace_predictor(build_predictor(predictor));
        }
        // A fresh predictor brings its own reset schedule.
        self.wake.fill(0);
    }

    /// Captures the full mutable state of the system — cores,
    /// instruction sources, caches, DRAM, clock divider, and run
    /// bookkeeping — in deterministic order. The configuration itself
    /// is not serialized: a restore rebuilds a fresh system from a
    /// compatible configuration and overlays this state
    /// ([`Self::load_state`]).
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.cores.len() as u32);
        for core in &self.cores {
            core.save_state(w);
        }
        for src in &self.sources {
            src.save_state(w);
        }
        if let Some(h) = &self.hierarchy {
            h.save_state(w);
        }
        self.dram.save_state(w);
        self.divider.save_state(w);
        w.put_u64(self.now);
        for f in &self.core_finish {
            match f {
                Some(c) => {
                    w.put_bool(true);
                    w.put_u64(*c);
                }
                None => w.put_bool(false),
            }
        }
        w.put_u64_seq(&self.lq_full_cycles);
        // The forwards queue delivers in order from the front, so its
        // front-to-back order is state.
        w.put_u32(self.forwards.len() as u32);
        for m in &self.forwards {
            w.put_u64(m.deliver_at);
            w.put_u64(m.addr);
            w.put_u8(m.core.0);
        }
        // The sampler travels as a length-prefixed block so a restore
        // into a differently-sampled configuration can skip it.
        let mut sampler = ByteWriter::new();
        if let Some(s) = &self.sampler {
            s.save_state(&mut sampler);
        }
        w.put_bool(self.sampler.is_some());
        w.put_bytes(&sampler.into_bytes());
        // Agent block, present exactly when the mix has agents. The
        // checkpoint fingerprint covers the workload, so a restore
        // always agrees with the save on whether this block exists —
        // core-only checkpoints keep their pre-agent byte layout.
        if !self.agents.is_empty() {
            for agent in &self.agents {
                agent.save_state(w);
            }
            w.put_u32(self.agent_pending.len() as u32);
            for req in &self.agent_pending {
                req.encode(w);
            }
        }
    }

    /// Overlays state captured by [`Self::save_state`] onto this
    /// freshly built system. `load_predictors` / `load_schedulers`
    /// select whether the saved predictor and scheduler blocks are
    /// replayed or discarded in favor of the fresh components this
    /// system was built with — the hook that lets one warmup checkpoint
    /// fan out across every `(scheduler, predictor)` sweep cell.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream, or when the
    /// snapshot's core count does not match this configuration.
    pub(crate) fn load_state(
        &mut self,
        r: &mut ByteReader<'_>,
        load_predictors: bool,
        load_schedulers: bool,
    ) -> Result<(), CodecError> {
        let n = r.get_u32()? as usize;
        if n != self.cores.len() {
            return Err(CodecError {
                message: format!("snapshot holds {n} cores, system has {}", self.cores.len()),
                offset: r.position(),
            });
        }
        for core in &mut self.cores {
            core.load_state(r, load_predictors)?;
        }
        // The wake table is not saved: every core steps next cycle and
        // recomputes its own.
        self.wake.fill(0);
        for src in &mut self.sources {
            src.load_state(r)?;
        }
        if let Some(h) = &mut self.hierarchy {
            h.load_state(r)?;
        }
        self.dram.load_state(r, load_schedulers)?;
        self.divider.load_state(r)?;
        self.now = r.get_u64()?;
        for f in &mut self.core_finish {
            *f = if r.get_bool()? {
                Some(r.get_u64()?)
            } else {
                None
            };
        }
        self.lq_full_cycles = r.get_u64_seq()?;
        let n = r.get_u32()? as usize;
        self.forwards.clear();
        for _ in 0..n {
            self.forwards.push_back(ForwardMsg {
                deliver_at: r.get_u64()?,
                addr: r.get_u64()?,
                core: CoreId(r.get_u8()?),
            });
        }
        let had_sampler = r.get_bool()?;
        let block = r.get_bytes()?;
        if had_sampler {
            if let Some(s) = &mut self.sampler {
                let mut sr = ByteReader::new(&block);
                s.load_state(&mut sr)?;
            }
        }
        if !self.agents.is_empty() {
            for agent in &mut self.agents {
                agent.load_state(r)?;
            }
            let n = r.get_u32()? as usize;
            self.agent_pending.clear();
            for _ in 0..n {
                self.agent_pending.push_back(MemRequest::decode(r)?);
            }
        }
        // Restored state invalidates the conservation books: requests
        // outstanding in the snapshot were never seen enqueued here.
        // Re-anchor at the restored cycle; pre-attach completions are
        // ignored by design. (The DRAM-side protocol auditors re-seed
        // themselves inside `DramSystem::load_state`.)
        if let Some(a) = &mut self.conservation {
            a.reset(self.now);
        }
        Ok(())
    }

    /// Builds the diagnostic snapshot for a watchdog trip.
    fn watchdog_error(&self, reason: WatchdogReason) -> SimError {
        let (mshrs, outbox) =
            (self.hierarchy.as_ref()).map_or((0, 0), |h| (h.l2_mshr_occupancy(), h.outbox_len()));
        SimError::Watchdog(Box::new(WatchdogSnapshot {
            reason,
            cycle: self.now,
            committed: self.committed(),
            rob_head_pc: self.cores.iter().map(|c| c.rob_head_pc()).collect(),
            mshr_occupancy: mshrs,
            outbox_len: outbox,
            bank_queues: self.dram.bank_queue_snapshot(),
        }))
    }

    /// Finalizes statistics without requiring completion.
    pub fn into_stats(self) -> RunStats {
        self.into_stats_and_observer().0
    }

    /// Finalizes statistics and hands the observer back.
    pub fn into_stats_and_observer(self) -> (RunStats, O) {
        let (stats, observer, _) = self.finish();
        (stats, observer)
    }

    /// Finalizes statistics and hands back the observer and the agents.
    pub(crate) fn finish(mut self) -> (RunStats, O, Vec<Box<dyn MemoryAgent>>) {
        // Close the series with an end-of-run sample so the final
        // counter values are always present, even mid-epoch.
        let series = self.sampler.take().map(|mut sampler| {
            if sampler.last_sampled() != Some(self.now) {
                let (cores, agents, dram) = (&self.cores, &self.agents, &self.dram);
                let hierarchy = self.hierarchy.as_ref();
                sampler.sample(self.now, |v| {
                    observe_components(cores, agents, hierarchy, dram, v);
                });
            }
            sampler.into_series()
        });
        let stats = RunStats {
            cycles: self
                .core_finish
                .iter()
                .map(|f| f.unwrap_or(self.now))
                .chain(
                    self.agents
                        .iter()
                        .map(|a| a.finish_cycle().unwrap_or(self.now)),
                )
                .max()
                .unwrap_or(0),
            core_finish: self
                .core_finish
                .iter()
                .map(|f| f.unwrap_or(self.now))
                .collect(),
            cores: self.cores.iter().map(|c| c.stats().clone()).collect(),
            hierarchy: self
                .hierarchy
                .as_ref()
                .map(|h| h.stats().clone())
                .unwrap_or_default(),
            channels: self.dram.channel_stats().into_iter().cloned().collect(),
            lq_full_cycles: self.lq_full_cycles,
            instructions_per_core: self.cfg.instructions_per_core,
            predictor_observed: self
                .cores
                .iter()
                .map(|c| c.predictor().observed_extremes())
                .collect(),
            series,
            agents: self.agents.iter().map(|a| a.stats()).collect(),
        };
        (stats, self.observer, self.agents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgentSpec;
    use crate::session::Session;
    use critmem_predict::CbpMetric;
    use critmem_sched::SchedulerKind;

    fn run(cfg: SystemConfig, workload: &AgentMix) -> RunStats {
        Session::new(cfg, workload)
            .run()
            .unwrap_or_else(|e| panic!("{e}"))
            .stats
    }

    fn quick(instr: u64) -> SystemConfig {
        let mut c = SystemConfig::paper_baseline(instr);
        c.cores = 2;
        c.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
        c.max_cycles = 20_000_000;
        c
    }

    #[test]
    fn small_parallel_run_completes() {
        let stats = run(quick(2_000), &AgentMix::Parallel("swim"));
        assert!(stats.cycles > 0);
        assert_eq!(stats.cores.len(), 2);
        for c in &stats.cores {
            assert!(c.committed >= 2_000);
            assert!(c.loads > 0);
        }
        // Memory-intensive: the L2 must have missed.
        assert!(stats.hierarchy.l2_misses > 0);
        let dram_reads: u64 = stats.channels.iter().map(|c| c.reads_completed).sum();
        assert!(dram_reads > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(quick(1_500), &AgentMix::Parallel("mg"));
        let b = run(quick(1_500), &AgentMix::Parallel("mg"));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.hierarchy.l2_misses, b.hierarchy.l2_misses);
    }

    #[test]
    fn criticality_annotations_reach_dram() {
        let cfg = quick(3_000)
            .with_scheduler(SchedulerKind::CasRasCrit)
            .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
        let stats = run(cfg, &AgentMix::Parallel("swim"));
        let crit_ticks: u64 = stats.channels.iter().map(|c| c.ticks_with_critical).sum();
        assert!(crit_ticks > 0, "critical requests never reached a queue");
        let crit_issued: u64 = stats.cores.iter().map(|c| c.issued_critical_loads).sum();
        assert!(crit_issued > 0);
    }

    #[test]
    fn bundle_runs_on_four_cores() {
        let mut cfg = SystemConfig::multiprogrammed_baseline(1_500);
        cfg.max_cycles = 50_000_000;
        let stats = run(cfg, &AgentMix::Bundle("AELV"));
        assert_eq!(stats.cores.len(), 4);
        assert!(stats.ipc(0) > 0.0);
    }

    #[test]
    fn alone_run_uses_one_core() {
        let mut cfg = SystemConfig::multiprogrammed_baseline(1_500);
        cfg.cores = 1;
        cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(1);
        cfg.hierarchy.l2_mshrs = 32;
        cfg.max_cycles = 50_000_000;
        let stats = run(cfg, &AgentMix::Alone("mcf"));
        assert_eq!(stats.cores.len(), 1);
        assert!(stats.cores[0].committed >= 1_500);
    }

    #[test]
    fn forwards_deliver_in_fifo_order() {
        // Same-deliver-cycle messages must come out in push order and
        // later ones must stay queued: the due set is a strict prefix
        // of the deliver-time-ordered queue.
        let mut sys = System::new(quick(1_000), &AgentMix::Parallel("swim"));
        let at = sys.now() + 1;
        for (addr, core, deliver_at) in [(0x40, 0, at), (0x80, 1, at), (0xC0, 0, at + 1)] {
            sys.forwards.push_back(ForwardMsg {
                deliver_at,
                addr,
                core: CoreId(core),
            });
        }
        sys.step();
        assert_eq!(
            sys.pending_forwards(),
            1,
            "the due prefix is delivered, the later message is retained"
        );
        assert_eq!(sys.forwards.front().unwrap().addr, 0xC0);
        sys.step();
        assert_eq!(sys.pending_forwards(), 0);
    }

    #[test]
    fn idle_horizon_never_hides_events() {
        // Step serially; every time the horizon claims a quiet window,
        // walk through that window cycle by cycle and check nothing
        // event-observable changes before the horizon cycle.
        let mut cfg = quick(600);
        cfg.naive_forwarding = true;
        cfg.scheduler = SchedulerKind::CasRasCrit;
        cfg.sample_epoch = Some(5_000);
        cfg.skip_ahead = false; // this test IS the skip, done by hand
        let mut sys = System::new(cfg, &AgentMix::Parallel("art"));
        fn fingerprint<O: critmem_common::RequestObserver>(
            s: &System<O>,
        ) -> (u64, u64, usize, usize, (usize, usize)) {
            (
                s.committed().iter().sum(),
                s.dram
                    .channel_stats()
                    .iter()
                    .map(|c| c.reads_completed + c.writes_completed + c.refreshes)
                    .sum(),
                s.pending_forwards(),
                s.samples_taken(),
                s.queue_depths(),
            )
        }
        let mut windows = 0u32;
        while !sys.done() && sys.now() < 5_000_000 {
            let h = sys.idle_horizon();
            if h > sys.now() + 1 {
                windows += 1;
                let before = fingerprint(&sys);
                while sys.now() < h - 1 {
                    sys.step();
                    assert_eq!(
                        fingerprint(&sys),
                        before,
                        "an event fired inside a claimed quiet window at cycle {}",
                        sys.now()
                    );
                }
            }
            sys.step();
        }
        assert!(sys.done(), "run must finish under the cycle bound");
        assert!(windows > 0, "workload never produced a quiet window");
    }

    #[test]
    fn skip_ahead_matches_serial_stepping() {
        let mut cfg = quick(1_200);
        cfg.naive_forwarding = true;
        cfg.scheduler = SchedulerKind::CasRasCrit;
        cfg.sample_epoch = Some(10_000);
        let mut serial = cfg.clone();
        serial.skip_ahead = false;
        let a = run(cfg, &AgentMix::Parallel("art"));
        let b = run(serial, &AgentMix::Parallel("art"));
        let (mut wa, mut wb) = (ByteWriter::new(), ByteWriter::new());
        a.encode(&mut wa);
        b.encode(&mut wb);
        assert_eq!(
            wa.into_bytes(),
            wb.into_bytes(),
            "skip-ahead must be byte-identical to serial stepping"
        );
    }

    #[test]
    fn naive_forwarding_promotes_requests() {
        let mut cfg = quick(3_000);
        cfg.naive_forwarding = true;
        cfg.scheduler = SchedulerKind::CasRasCrit;
        let stats = run(cfg, &AgentMix::Parallel("art"));
        let crit_ticks: u64 = stats.channels.iter().map(|c| c.ticks_with_critical).sum();
        assert!(
            crit_ticks > 0,
            "forwarded blocks should mark queued requests"
        );
    }

    #[test]
    fn audited_run_is_silent_and_byte_identical() {
        let wl = AgentMix::Parallel("swim");
        let plain = run(quick(1_500), &wl);
        let audited = Session::new(quick(1_500), &wl)
            .audit(true)
            .run()
            .expect("a clean run must not raise audit violations")
            .stats;
        let (mut wa, mut wb) = (ByteWriter::new(), ByteWriter::new());
        plain.encode(&mut wa);
        audited.encode(&mut wb);
        assert_eq!(
            wa.into_bytes(),
            wb.into_bytes(),
            "auditing must not perturb the run"
        );
    }

    /// A tight watchdog for fault-detection tests: trips quickly so an
    /// injected stall surfaces in well under a second.
    fn faulted(instr: u64) -> SystemConfig {
        let mut cfg = quick(instr);
        cfg.watchdog.no_commit_cycles = 30_000;
        cfg.watchdog.check_interval = 1_024;
        cfg
    }

    #[test]
    fn dropped_read_trips_the_watchdog() {
        let wl = AgentMix::Parallel("swim");
        let plan = crate::faults::FaultPlan::new(7)
            .with_fault(crate::faults::FaultKind::DropRequest { nth_read: 3 });
        let err = Session::new(faulted(1_500), &wl)
            .audit(true)
            .fault(plan)
            .run()
            .expect_err("a dropped read must never complete silently");
        assert!(
            matches!(err, SimError::Watchdog(_)),
            "expected a watchdog trip, got {err}"
        );
    }

    #[test]
    fn duplicated_read_flags_conservation() {
        let wl = AgentMix::Parallel("swim");
        let plan = crate::faults::FaultPlan::new(7)
            .with_fault(crate::faults::FaultKind::DuplicateRequest { nth_read: 3 });
        let err = Session::new(faulted(1_500), &wl)
            .audit(true)
            .fault(plan)
            .run()
            .expect_err("a duplicated request must be flagged");
        match err {
            SimError::AuditViolation(snap) => assert_eq!(snap.auditor, "conservation"),
            other => panic!("expected a conservation violation, got {other}"),
        }
    }

    #[test]
    fn corrupted_decision_flags_protocol() {
        let wl = AgentMix::Parallel("swim");
        let plan = crate::faults::FaultPlan::new(7).with_fault(
            crate::faults::FaultKind::CorruptSchedulerDecision {
                channel: 0,
                at_cycle: 5_000,
            },
        );
        let err = Session::new(faulted(1_500), &wl)
            .audit(true)
            .fault(plan)
            .run()
            .expect_err("a rogue command must be flagged");
        match err {
            SimError::AuditViolation(snap) => assert_eq!(snap.auditor, "protocol"),
            other => panic!("expected a protocol violation, got {other}"),
        }
    }

    #[test]
    fn delayed_read_trips_the_watchdog() {
        let wl = AgentMix::Parallel("swim");
        let plan =
            crate::faults::FaultPlan::new(7).with_fault(crate::faults::FaultKind::DelayRequest {
                nth_read: 3,
                delay: 40_000_000,
            });
        let err = Session::new(faulted(1_500), &wl)
            .audit(true)
            .fault(plan)
            .run()
            .expect_err("a delayed read must never complete silently");
        assert!(matches!(err, SimError::Watchdog(_)), "got {err}");
    }

    /// A baseline for heterogeneous mixes. Streaming agents keep a row
    /// open for long stretches, so FR-FCFS legitimately queues same-bank
    /// victims for hundreds of thousands of cycles — that starvation is
    /// the phenomenon under study, not a hang, so the starved-request
    /// watchdog gets a much looser leash than the core-only default.
    fn hetero(cores: usize, instr: u64) -> SystemConfig {
        let mut cfg = SystemConfig::multiprogrammed_baseline(instr);
        cfg.cores = cores;
        cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(cores);
        cfg.max_cycles = 50_000_000;
        cfg.watchdog.max_request_age = 2_000_000;
        cfg
    }

    #[test]
    fn hetero_mix_runs_and_completes() {
        let mix: AgentMix = "ooo:mcf*2+stream:2+bulk".parse().unwrap();
        let stats = run(hetero(2, 1_000), &mix);
        assert_eq!(stats.cores.len(), 2);
        assert_eq!(stats.agents.len(), 3);
        for a in &stats.agents {
            assert!(a.units_done >= a.units_target, "agent missed its target");
            assert!(a.completed > 0);
        }
        assert!(stats.cores.iter().all(|c| c.committed >= 1_000));
    }

    #[test]
    fn agent_only_mix_runs_without_cores() {
        let mix: AgentMix = "stream:2+prefetch".parse().unwrap();
        let stats = run(hetero(0, 2_000), &mix);
        assert!(stats.cores.is_empty());
        assert_eq!(stats.agents.len(), 3);
        assert!(stats.cycles > 0, "cycles must come from agent finishes");
        let dram_total: u64 = stats
            .channels
            .iter()
            .map(|c| c.reads_completed + c.writes_completed)
            .sum();
        assert!(dram_total > 0);
    }

    #[test]
    fn hetero_mix_byte_identical_across_engine_knobs() {
        let mix: AgentMix = "ooo:mcf+stream+bulk:copy+prefetch".parse().unwrap();
        let base = || {
            let mut cfg = hetero(1, 800);
            cfg.hierarchy.l2_mshrs = 32;
            cfg.sample_epoch = Some(10_000);
            cfg
        };
        let bytes = |stats: RunStats| {
            let mut w = ByteWriter::new();
            stats.encode(&mut w);
            w.into_bytes()
        };
        let reference = bytes(run(base(), &mix));
        let mut serial = base();
        serial.skip_ahead = false;
        assert_eq!(
            bytes(run(serial, &mix)),
            reference,
            "--no-skip-ahead must not perturb a hetero run"
        );
        let audited = Session::new(base(), &mix)
            .audit(true)
            .run()
            .expect("a clean hetero run must not raise audit violations")
            .stats;
        assert_eq!(
            bytes(audited),
            reference,
            "--audit must not perturb a hetero run"
        );
    }

    #[test]
    fn hetero_mix_rejects_core_count_mismatch() {
        let mix: AgentMix = "ooo:mcf*2+stream".parse().unwrap();
        let mut cfg = SystemConfig::multiprogrammed_baseline(500);
        cfg.cores = 4;
        let err = System::try_new(cfg, &mix).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "got {err}");
    }

    #[test]
    fn hetero_mix_faults_are_reported_in_a_fixed_order() {
        let bad_profile = AgentSpec {
            profile: "no-such-profile",
            ..AgentSpec::agent(AgentClass::Stream)
        };
        // The baseline has four cores.
        let fault = |app, cores| {
            let mix = AgentMix::Hetero(vec![bad_profile, AgentSpec::ooo(app).with_count(cores)]);
            match System::try_new(SystemConfig::multiprogrammed_baseline(500), &mix) {
                Err(SimError::Config(_)) => "config",
                Err(SimError::UnknownWorkload { kind, .. }) => kind,
                other => panic!("got {:?}", other.err()),
            }
        };
        assert_eq!(fault("no-such-app", 2), "application");
        assert_eq!(fault("mcf", 2), "config");
        assert_eq!(fault("mcf", 4), "agent profile");
    }

    #[test]
    fn rob_blocking_is_observed() {
        let stats = run(quick(3_000), &AgentMix::Parallel("art"));
        assert!(stats.blocked_load_fraction() > 0.0);
        assert!(
            stats.blocked_cycle_fraction() > 0.05,
            "art should stall the ROB a lot"
        );
    }
}
