//! The traced replicas: the same simulations the untraced runs drive
//! through `Session::run` and `synth_replay`, rebuilt from the layers'
//! public constructors so every call into a layer can be timed from
//! outside.
//!
//! [`TracedSystem`] mirrors `System::step`, `idle_horizon`, `skip` and
//! the skip-ahead `drive` loop for the configurations the benchmark
//! uses (no naive forwarding, sampling, auditing, faults or shards; the
//! constructor rejects them). [`traced_replay`] is its own copy of the
//! replay loop over `DramSystem`'s public API. Both must reproduce the
//! untraced run's statistics byte for byte; the benchmark checks that
//! on every traced run.

use crate::probe::{self, ns_since, ProbeTotals, TimedPredictor, TimedScheduler, TimedSource};
use critmem::{AgentMix, PredictorKind, RunStats, SystemConfig};
use critmem_cache::CacheHierarchy;
use critmem_common::{ClockDivider, CoreId, CpuCycle, MemRequest};
use critmem_cpu::{
    AgentClass, CbpPredictor, ClptPredictor, Core, LoadCriticalityPredictor, MemoryAgent,
    NoPredictor,
};
use critmem_dram::DramSystem;
use critmem_predict::{Clpt, CommitBlockPredictor};
use critmem_sched::SchedulerKind;
use critmem_trace::{ReplayConfig, ReplayStats, RequestSource, SynthSource, TrafficProfile};
use critmem_workloads::{build_agent, multi_app, parallel_app, target_units_for, AppThread};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Host time and work counts of one traced run, per layer. Times are
/// self times in nanoseconds: a layer's nested children are excluded.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Wall time of the whole traced run (build excluded).
    pub total_ns: u64,
    /// `Core::step` minus nested source and predictor calls.
    pub cpu_ns: u64,
    /// `Core::step` calls.
    pub cpu_steps: u64,
    /// Nested calls into the instruction source, the predictor and the
    /// scheduler.
    pub probe: ProbeTotals,
    /// `dram_completed` + `mem_completed` fills into the hierarchy and
    /// cores.
    pub fill_ns: u64,
    /// DRAM completions routed back to the hierarchy.
    pub fills: u64,
    /// Outbox → controller enqueue boundary (cache and agent traffic).
    pub boundary_ns: u64,
    /// Requests accepted at the boundary.
    pub enqueues: u64,
    /// Enqueue attempts bounced off a full transaction queue.
    pub enqueue_rejects: u64,
    /// `idle_horizon` evaluations.
    pub horizon_ns: u64,
    /// `idle_horizon` calls.
    pub horizon_calls: u64,
    /// Calls that found a skippable window.
    pub horizon_hits: u64,
    /// Batch `skip` calls.
    pub skip_ns: u64,
    /// CPU cycles advanced by `skip` rather than `step`.
    pub skipped_cycles: u64,
    /// CPU cycles simulated.
    pub cycles: u64,
    /// `DramSystem::tick` minus nested scheduler picks.
    pub dram_ns: u64,
    /// `DramSystem::tick` calls.
    pub dram_ticks: u64,
    /// Agent `generate` and `complete` calls.
    pub agents_ns: u64,
    /// Requests the agents generated.
    pub agent_requests: u64,
    /// Agent requests that went to the overflow queue.
    pub agent_overflows: u64,
    /// `RequestSource::next_record` calls (replay only).
    pub source_ns: u64,
    /// Records pulled from the trace source.
    pub records: u64,
    /// Replay loop self time: everything in the replay run that is not
    /// the source, the DRAM tick or the scheduler.
    pub replay_ns: u64,
}

fn build_predictor(kind: PredictorKind) -> Box<dyn LoadCriticalityPredictor> {
    let inner: Box<dyn LoadCriticalityPredictor> = match kind {
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
    };
    Box::new(TimedPredictor(inner))
}

fn app_source(app: &str, thread: usize, seed: u64) -> Result<TimedSource, String> {
    let spec = multi_app(app)
        .or_else(|| parallel_app(app))
        .ok_or_else(|| format!("unknown application {app}"))?;
    Ok(TimedSource(Box::new(AppThread::new(&spec, thread, seed))))
}

/// The assembled system, built from public constructors with every
/// layer call timed.
pub struct TracedSystem {
    cfg: SystemConfig,
    cores: Vec<Core>,
    sources: Vec<TimedSource>,
    agents: Vec<Box<dyn MemoryAgent>>,
    agent_pending: VecDeque<MemRequest>,
    agent_generated: Vec<MemRequest>,
    hierarchy: CacheHierarchy,
    dram: DramSystem,
    divider: ClockDivider,
    now: CpuCycle,
    core_finish: Vec<Option<u64>>,
    lq_full_cycles: Vec<u64>,
    t: LayerTimes,
}

impl TracedSystem {
    /// Builds the system for a parallel app or a heterogeneous mix.
    ///
    /// # Errors
    ///
    /// Rejects workloads and options the replica does not mirror, and
    /// anything `System::try_new` would reject for these workloads.
    pub fn new(cfg: SystemConfig, mix: &AgentMix) -> Result<Self, String> {
        cfg.validate()?;
        if cfg.naive_forwarding
            || cfg.sample_epoch.is_some()
            || cfg.audit
            || cfg.shards > 1
            || !cfg.skip_ahead
        {
            return Err("the traced replica mirrors plain skip-ahead runs only".into());
        }
        let new_core = |c: usize| {
            Core::new(
                CoreId(c as u8),
                cfg.core,
                build_predictor(cfg.predictor),
                u64::MAX / 2, // the system, not the core, ends the run
            )
        };
        let mut sources = Vec::new();
        let mut cores = Vec::new();
        let mut agents: Vec<Box<dyn MemoryAgent>> = Vec::new();
        match mix {
            AgentMix::Parallel(app) => {
                for c in 0..cfg.cores {
                    sources.push(app_source(app, c, cfg.seed)?);
                    cores.push(new_core(c));
                }
            }
            AgentMix::Hetero(specs) => {
                for spec in specs.iter().filter(|s| s.class == AgentClass::Ooo) {
                    for _ in 0..spec.count {
                        sources.push(app_source(spec.profile, sources.len(), cfg.seed)?);
                    }
                }
                for spec in specs {
                    for _ in 0..spec.count {
                        if spec.class == AgentClass::Ooo {
                            let c = cores.len();
                            cores.push(
                                new_core(c).with_qos_budget_millis(spec.effective_qos_millis()),
                            );
                        } else {
                            let index = agents.len();
                            let agent = build_agent(
                                spec.class,
                                spec.profile,
                                index,
                                CoreId((cfg.cores + index) as u8),
                                spec.effective_qos_millis(),
                                target_units_for(spec.class, cfg.instructions_per_core),
                                cfg.seed,
                            )
                            .ok_or_else(|| format!("unknown agent profile {}", spec.profile))?;
                            agents.push(agent);
                        }
                    }
                }
            }
            other => return Err(format!("the traced replica does not mirror {other:?}")),
        }
        if cores.len() != cfg.cores {
            return Err(format!(
                "workload has {} cores, configuration {}",
                cores.len(),
                cfg.cores
            ));
        }
        let num_threads = cfg.cores + agents.len();
        let scheduler = cfg.scheduler;
        let dram = DramSystem::new(cfg.dram, |ch| {
            Box::new(TimedScheduler(
                scheduler.build(num_threads, u64::from(ch.0)),
            ))
        });
        Ok(TracedSystem {
            hierarchy: CacheHierarchy::new(cfg.hierarchy),
            dram,
            divider: ClockDivider::new(cfg.dram.preset.bus_mhz, cfg.cpu_mhz),
            now: 0,
            core_finish: vec![None; cfg.cores],
            lq_full_cycles: vec![0; cfg.cores],
            cores,
            sources,
            agents,
            agent_pending: VecDeque::new(),
            agent_generated: Vec::new(),
            cfg,
            t: LayerTimes::default(),
        })
    }

    fn done(&self) -> bool {
        self.core_finish.iter().all(Option::is_some) && self.agents.iter().all(|a| a.finished())
    }

    /// Mirrors `System::step`.
    fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        let n = self.cores.len();
        let start = if n > 0 { (now as usize) % n } else { 0 };
        for k in 0..n {
            let i = (start + k) % n;
            let before = probe::totals();
            let t0 = Instant::now();
            let core = &mut self.cores[i];
            core.step(now, &mut self.sources[i], &mut self.hierarchy);
            let ns = ns_since(t0);
            let nested = probe::totals().since(&before);
            self.t.cpu_ns += ns.saturating_sub(nested.source_ns + nested.predict_ns);
            self.t.cpu_steps += 1;
            if core.lq_full() {
                self.lq_full_cycles[i] += 1;
            }
            if self.core_finish[i].is_none()
                && core.stats().committed >= self.cfg.instructions_per_core
            {
                self.core_finish[i] = Some(now);
            }
        }
        let t0 = Instant::now();
        while let Some(req) = self.hierarchy.pop_request(now) {
            match self.dram.enqueue(req) {
                Ok(()) => self.t.enqueues += 1,
                Err(back) => {
                    self.t.enqueue_rejects += 1;
                    self.hierarchy.unpop_request(back);
                    break;
                }
            }
        }
        self.t.boundary_ns += ns_since(t0);
        if !self.agents.is_empty() {
            self.agent_step(now);
        }
        if self.divider.tick() {
            let before = probe::totals();
            let t0 = Instant::now();
            let completions = self.dram.tick();
            let ns = ns_since(t0);
            self.t.dram_ns += ns.saturating_sub(probe::totals().since(&before).select_ns);
            self.t.dram_ticks += 1;
            for done in completions {
                let t0 = Instant::now();
                let origin = done.req.core.index();
                if origin >= self.cores.len() {
                    self.agents[origin - self.cores.len()].complete(&done.req, now);
                    self.t.agents_ns += ns_since(t0);
                } else {
                    for c in self.hierarchy.dram_completed(&done.req, now) {
                        self.cores[c.core.index()].mem_completed(c.token.0, c.done);
                    }
                    self.t.fill_ns += ns_since(t0);
                    self.t.fills += 1;
                }
            }
        }
    }

    /// Mirrors `System::agent_step`. Generation counts to the agents;
    /// the enqueues around it count to the boundary.
    fn agent_step(&mut self, now: CpuCycle) {
        let t0 = Instant::now();
        let mut generate_ns = 0;
        while let Some(req) = self.agent_pending.front().copied() {
            if self.dram.enqueue(req).is_err() {
                self.t.enqueue_rejects += 1;
                break;
            }
            self.agent_pending.pop_front();
            self.t.enqueues += 1;
        }
        let n = self.agents.len();
        let start = (now as usize) % n;
        let mut generated = std::mem::take(&mut self.agent_generated);
        for k in 0..n {
            let i = (start + k) % n;
            generated.clear();
            let g = Instant::now();
            self.agents[i].generate(now, &mut generated);
            generate_ns += ns_since(g);
            self.t.agent_requests += generated.len() as u64;
            for &req in generated.iter() {
                if !self.agent_pending.is_empty() {
                    self.agent_pending.push_back(req);
                    self.t.agent_overflows += 1;
                    continue;
                }
                match self.dram.enqueue(req) {
                    Ok(()) => self.t.enqueues += 1,
                    Err(back) => {
                        self.t.enqueue_rejects += 1;
                        self.t.agent_overflows += 1;
                        self.agent_pending.push_back(back);
                    }
                }
            }
        }
        self.agent_generated = generated;
        self.t.agents_ns += generate_ns;
        self.t.boundary_ns += ns_since(t0).saturating_sub(generate_ns);
    }

    /// Mirrors `System::idle_horizon` (no forwards, no sampler).
    fn idle_horizon(&self) -> CpuCycle {
        let now = self.now;
        let nxt = now + 1;
        let mut horizon = CpuCycle::MAX;
        for core in &self.cores {
            horizon = horizon.min(core.quiescent_until(now));
            if horizon <= nxt {
                return nxt;
            }
        }
        if !self.agent_pending.is_empty() {
            return nxt;
        }
        for agent in &self.agents {
            horizon = horizon.min(agent.quiescent_until(now));
            if horizon <= nxt {
                return nxt;
            }
        }
        if let Some(ready) = self.hierarchy.next_request_ready_at() {
            horizon = horizon.min(ready.max(nxt));
        }
        let d = self
            .dram
            .next_event_cycle()
            .saturating_sub(self.divider.slow_cycles());
        horizon = horizon.min(now.saturating_add(self.divider.fast_cycles_until(d)));
        horizon.max(nxt)
    }

    /// Mirrors `System::skip`.
    fn skip(&mut self, n: u64) {
        let now = self.now;
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.skip(now, n);
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

    /// Mirrors `System::drive(None)` with skip-ahead on, including the
    /// cycle limit and the watchdog checks (and the caps they put on a
    /// skip).
    fn drive(&mut self) -> Result<(), String> {
        let wd = self.cfg.watchdog;
        let progress = |s: &Self| -> u64 {
            s.cores.iter().map(|c| c.stats().committed).sum::<u64>()
                + s.agents.iter().map(|a| a.units_done()).sum::<u64>()
        };
        let mut last_total = progress(self);
        let mut last_commit_cycle = self.now;
        let mut next_check = self.now.saturating_add(wd.check_interval);
        while !self.done() {
            if self.now >= self.cfg.max_cycles {
                return Err(format!("cycle limit {} reached", self.cfg.max_cycles));
            }
            let mut cap = self.cfg.max_cycles;
            if wd.check_interval > 0 {
                cap = cap.min(next_check);
            }
            let t0 = Instant::now();
            let horizon = self.idle_horizon().min(cap);
            self.t.horizon_ns += ns_since(t0);
            self.t.horizon_calls += 1;
            if horizon > self.now + 1 {
                self.t.horizon_hits += 1;
                let n = horizon - self.now - 1;
                let t0 = Instant::now();
                self.skip(n);
                self.t.skip_ns += ns_since(t0);
                self.t.skipped_cycles += n;
            }
            self.step();
            if self.now >= next_check {
                next_check = self.now.saturating_add(wd.check_interval);
                if wd.no_commit_cycles > 0 {
                    let total = progress(self);
                    if total > last_total {
                        last_total = total;
                        last_commit_cycle = self.now;
                    } else if self.now - last_commit_cycle >= wd.no_commit_cycles {
                        return Err(format!("no progress for {} cycles", wd.no_commit_cycles));
                    }
                }
                if wd.max_request_age > 0 {
                    if let Some(age) = self.dram.oldest_queued_age() {
                        if age > wd.max_request_age {
                            return Err(format!("request starved for {age} DRAM cycles"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs to completion and returns the statistics `System` would
    /// have produced, plus the per-layer times.
    ///
    /// # Errors
    ///
    /// The cycle limit or the watchdog tripped.
    pub fn run(mut self) -> Result<(RunStats, LayerTimes), String> {
        let start = probe::totals();
        let t0 = Instant::now();
        self.drive()?;
        self.t.total_ns = ns_since(t0);
        self.t.probe = probe::totals().since(&start);
        self.t.cycles = self.now;
        let now = self.now;
        let stats = RunStats {
            cycles: self
                .core_finish
                .iter()
                .map(|f| f.unwrap_or(now))
                .chain(self.agents.iter().map(|a| a.finish_cycle().unwrap_or(now)))
                .max()
                .unwrap_or(0),
            core_finish: self.core_finish.iter().map(|f| f.unwrap_or(now)).collect(),
            cores: self.cores.iter().map(|c| c.stats().clone()).collect(),
            hierarchy: self.hierarchy.stats().clone(),
            channels: self.dram.channel_stats().into_iter().cloned().collect(),
            lq_full_cycles: self.lq_full_cycles,
            instructions_per_core: self.cfg.instructions_per_core,
            predictor_observed: self
                .cores
                .iter()
                .map(|c| c.predictor().observed_extremes())
                .collect(),
            series: None,
            agents: self.agents.iter().map(|a| a.stats()).collect(),
        };
        Ok((stats, self.t))
    }
}

/// Replays `requests` synthesized records through `scheduler`: a copy
/// of `TraceReplayer::try_run` (without auditing or sampling) over
/// `DramSystem`'s public API, timed per layer.
///
/// # Errors
///
/// An unusable profile, the cycle limit, or the watchdog.
pub fn traced_replay(
    profile: &TrafficProfile,
    seed: u64,
    requests: u64,
    scheduler: SchedulerKind,
    cfg: ReplayConfig,
) -> Result<(ReplayStats, LayerTimes), String> {
    if cfg.audit || cfg.sample_epoch.is_some() {
        return Err("the traced replay mirrors unaudited, unsampled runs only".into());
    }
    let fp = &profile.fingerprint;
    let dram_cfg = fp.dram_config().map_err(|e| e.to_string())?;
    let cores = fp.cores as usize;
    let mut dram = DramSystem::new(dram_cfg, |ch| {
        Box::new(TimedScheduler(scheduler.build(cores, u64::from(ch.0))))
    });
    let mut divider = ClockDivider::new(fp.bus_mhz, fp.cpu_mhz);
    let mut source = SynthSource::new(profile, seed).with_limit(requests);
    let mut t = LayerTimes::default();
    let start = probe::totals();
    let run_start = Instant::now();

    let next = |source: &mut SynthSource, t: &mut LayerTimes| {
        let t0 = Instant::now();
        let rec = source.next_record();
        t.source_ns += ns_since(t0);
        t.records += u64::from(matches!(rec, Ok(Some(_))));
        rec.map_err(|e| e.to_string())
    };
    let mut stats = ReplayStats::default();
    let mut pending = next(&mut source, &mut t)?;
    let mut outstanding = 0usize;
    let mut inject_cycle: HashMap<u64, u64> = HashMap::new();
    let mut crit_of: HashMap<u64, u64> = HashMap::new();
    let mut now = 0u64;
    let wd = cfg.watchdog;
    let mut last_events = 0u64;
    let mut last_event_cycle = 0u64;
    let mut next_check = wd.check_interval;
    while (pending.is_some() || outstanding > 0) && cfg.stop_at_cycle.is_none_or(|s| now < s) {
        now += 1;
        if now >= cfg.max_cycles {
            return Err(format!("cycle limit {} reached", cfg.max_cycles));
        }
        while let Some(rec) = pending {
            if rec.enqueue_cycle > now {
                break;
            }
            if let Some(cap) = cfg.max_outstanding {
                if outstanding >= cap {
                    stats.throttled_cycles += 1;
                    break;
                }
            }
            if dram.enqueue(rec.to_request()).is_err() {
                stats.queue_full_retries += 1;
                break;
            }
            outstanding += 1;
            stats.injected += 1;
            inject_cycle.insert(rec.id, now);
            crit_of.insert(rec.id, rec.crit);
            pending = next(&mut source, &mut t)?;
        }
        if divider.tick() {
            let before = probe::totals();
            let t0 = Instant::now();
            let completions = dram.tick();
            let ns = ns_since(t0);
            t.dram_ns += ns.saturating_sub(probe::totals().since(&before).select_ns);
            t.dram_ticks += 1;
            for done in completions {
                outstanding -= 1;
                stats.completed += 1;
                let start = inject_cycle.remove(&done.req.id).unwrap_or(now);
                let crit = crit_of.remove(&done.req.id).unwrap_or(0);
                let lat = now - start;
                if done.req.kind.is_demand_read() {
                    stats.reads += 1;
                    stats.read_latency_sum += lat;
                    stats.weighted_latency_sum += u128::from(lat) * u128::from(1 + crit);
                    if crit > 0 {
                        stats.critical_reads += 1;
                        stats.critical_read_latency_sum += lat;
                    }
                }
            }
        }
        if now >= next_check {
            next_check = now.saturating_add(wd.check_interval);
            if wd.no_commit_cycles > 0 {
                let events = stats.injected + stats.completed;
                if events > last_events {
                    last_events = events;
                    last_event_cycle = now;
                } else if now - last_event_cycle >= wd.no_commit_cycles {
                    return Err(format!("no progress for {} cycles", wd.no_commit_cycles));
                }
            }
            if wd.max_request_age > 0 {
                if let Some(age) = dram.oldest_queued_age() {
                    if age > wd.max_request_age {
                        return Err(format!("request starved for {age} DRAM cycles"));
                    }
                }
            }
        }
    }
    stats.cpu_cycles = now;
    stats.channels = dram.channel_stats().into_iter().cloned().collect();
    t.total_ns = ns_since(run_start);
    t.probe = probe::totals().since(&start);
    t.cycles = now;
    t.replay_ns = t
        .total_ns
        .saturating_sub(t.source_ns + t.dram_ns + t.probe.select_ns);
    Ok((stats, t))
}
