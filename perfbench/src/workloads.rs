//! The three benchmark workloads: what each simulates, at what size,
//! and how one simulation's output is reduced and checked.

use crate::traced::{traced_replay, LayerTimes, TracedSystem};
use critmem::experiments::synth_replay;
use critmem::{AgentMix, PredictorKind, RunStats, Session, System, SystemConfig};
use critmem_common::codec::ByteWriter;
use critmem_common::crc32::checksum;
use critmem_dram::{ChannelStats, DramConfig, DramSystem};
use critmem_predict::CbpMetric;
use critmem_sched::SchedulerKind;
use critmem_trace::{
    CoreProfile, Fingerprint, ReplayConfig, ReplayStats, SynthSource, TrafficProfile,
};
use std::any::Any;

/// One benchmark workload. Each stresses a different set of layers;
/// `README.md` records why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline configuration: the 8-core paper baseline
    /// running radix under CASRAS-Crit with a 64-entry MaxStallTime CBP.
    ParRadix,
    /// Two mcf cores beside two bus-saturating streamers on the
    /// 2-channel multiprogrammed baseline, under the default MetaSwitch
    /// scheduler.
    HeteroStream,
    /// Seeded dense 8-core synthetic traffic replayed through
    /// CASRAS-Crit with at most 64 requests in flight: no cores, no
    /// caches.
    ReplaySynth,
}

/// What a workload simulates, built from its seed and size.
enum Sim {
    System(Box<SystemConfig>, AgentMix),
    Replay {
        profile: TrafficProfile,
        seed: u64,
        requests: u64,
    },
}

const REPLAY_SCHEDULER: SchedulerKind = SchedulerKind::CasRasCrit;

fn replay_cfg() -> ReplayConfig {
    ReplayConfig::default().with_max_outstanding(64)
}

/// The dense profile of the engine bench's `streaming` block: eight
/// cores at the paper-baseline topology with one request every ~6 CPU
/// cycles in aggregate, so the controllers stay saturated and host time
/// measures DRAM and scheduler work rather than idle ticks.
fn dense_profile() -> TrafficProfile {
    let core = CoreProfile {
        weight: 0.125,
        write_frac: 0.25,
        prefetch_frac: 0.10,
        crit_frac: 0.30,
        mean_crit: 40.0,
        row_hit_frac: 0.60,
        footprint_rows: 64,
    };
    TrafficProfile {
        fingerprint: Fingerprint::of(8, 4_270, &DramConfig::paper_baseline()),
        source: "perfbench:dense".to_string(),
        records_fitted: 0,
        mean_gap: 6.0,
        mean_issue_lag: 12.0,
        cores: vec![core; 8],
    }
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ParRadix,
        Workload::HeteroStream,
        Workload::ReplaySynth,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ParRadix => "par-radix",
            Workload::HeteroStream => "hetero-stream",
            Workload::ReplaySynth => "replay-synth",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Length of one simulation at benchmark size, in [`Self::size_unit`].
    /// Sized so a batch of one simulation per input seed takes 0.3–0.8 s
    /// on the reference host: short enough for 35–100 batches in a
    /// 30-second run, so its fastest tenth still holds several batches
    /// when other tenants slow the host for seconds at a time.
    pub fn size(self) -> u64 {
        match self {
            Workload::ParRadix => 2_500,
            Workload::HeteroStream => 4_000,
            Workload::ReplaySynth => 25_000,
        }
    }

    /// What [`Self::size`] counts.
    pub fn size_unit(self) -> &'static str {
        match self {
            Workload::ReplaySynth => "requests",
            _ => "instructions/core",
        }
    }

    fn sim(self, seed: u64, size: u64) -> Sim {
        let cbp = PredictorKind::cbp64(CbpMetric::MaxStallTime);
        match self {
            Workload::ParRadix => {
                let mut cfg = SystemConfig::paper_baseline(size)
                    .with_scheduler(SchedulerKind::CasRasCrit)
                    .with_predictor(cbp);
                cfg.seed = seed;
                Sim::System(Box::new(cfg), AgentMix::Parallel("radix"))
            }
            Workload::HeteroStream => {
                // The `experiments::hetero` platform: the multiprogrammed
                // baseline cut to the mix's two cores, with the starved-
                // request watchdog loosened because streamer starvation
                // is the phenomenon there, not a hang.
                let mut cfg = SystemConfig::multiprogrammed_baseline(size)
                    .with_scheduler(SchedulerKind::DEFAULT_META)
                    .with_predictor(cbp);
                cfg.cores = 2;
                cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
                cfg.max_cycles = size.saturating_mul(40_000).max(1_000_000_000);
                cfg.watchdog.max_request_age = 2_000_000;
                cfg.seed = seed;
                let mix = "ooo:mcf*2+stream*2"
                    .parse()
                    .expect("the mix is valid grammar");
                Sim::System(Box::new(cfg), mix)
            }
            Workload::ReplaySynth => Sim::Replay {
                profile: dense_profile(),
                seed,
                requests: size,
            },
        }
    }

    /// Builds the simulation up to its first cycle and hands it back,
    /// so the caller can time set-up apart from tear-down.
    ///
    /// # Errors
    ///
    /// The simulator rejected the configuration.
    pub fn setup(self, seed: u64, size: u64) -> Result<Box<dyn Any>, String> {
        Ok(match self.sim(seed, size) {
            Sim::System(cfg, mix) => {
                Box::new(System::try_new(*cfg, &mix).map_err(|e| e.to_string())?)
            }
            Sim::Replay {
                profile,
                seed,
                requests,
            } => {
                let source = SynthSource::new(&profile, seed).with_limit(requests);
                let dram_cfg = profile
                    .fingerprint
                    .dram_config()
                    .map_err(|e| e.to_string())?;
                let cores = profile.fingerprint.cores as usize;
                let dram = DramSystem::new(dram_cfg, |ch| {
                    REPLAY_SCHEDULER.build(cores, u64::from(ch.0))
                });
                Box::new((source, dram))
            }
        })
    }

    /// One untraced simulation through the simulator's own entry
    /// points (`Session::run`, `synth_replay`).
    ///
    /// # Errors
    ///
    /// The simulator returned an error.
    pub fn run(self, seed: u64, size: u64) -> Result<Outcome, String> {
        match self.sim(seed, size) {
            Sim::System(cfg, mix) => {
                let target = cfg.instructions_per_core;
                let out = Session::new(*cfg, &mix).run().map_err(|e| e.to_string())?;
                Ok(Outcome::of_system(&out.stats, target))
            }
            Sim::Replay {
                profile,
                seed,
                requests,
            } => {
                let out = synth_replay(&profile, seed, requests, REPLAY_SCHEDULER, replay_cfg())
                    .map_err(|e| e.to_string())?;
                Ok(Outcome::of_replay(&out.stats, requests))
            }
        }
    }

    /// The same simulation through the traced replica.
    ///
    /// # Errors
    ///
    /// The replica rejected the configuration or tripped a guard.
    pub fn run_traced(self, seed: u64, size: u64) -> Result<(Outcome, LayerTimes), String> {
        match self.sim(seed, size) {
            Sim::System(cfg, mix) => {
                let target = cfg.instructions_per_core;
                let (stats, times) = TracedSystem::new(*cfg, &mix)?.run()?;
                Ok((Outcome::of_system(&stats, target), times))
            }
            Sim::Replay {
                profile,
                seed,
                requests,
            } => {
                let (stats, times) =
                    traced_replay(&profile, seed, requests, REPLAY_SCHEDULER, replay_cfg())?;
                Ok((Outcome::of_replay(&stats, requests), times))
            }
        }
    }
}

/// One simulation's output, reduced to what the benchmark checks and
/// reports. Everything here is simulated, so it repeats exactly for a
/// seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// CRC-32 of the encoded `RunStats` or `ReplayStats`.
    pub digest: u32,
    /// Simulated CPU cycles.
    pub cycles: u64,
    /// Units of work: instructions committed over all cores, or, for
    /// replay (which has no cores), records replayed.
    pub work: u64,
    /// Per-channel `(reads, writes)` completed.
    pub channels: Vec<(u64, u64)>,
    /// Data-bus utilization, averaged over channels.
    pub bus_util: f64,
    /// Row hits over all CAS commands.
    pub row_hit_frac: f64,
    /// Mean transactions queued, summed over channels.
    pub queue_occupancy: f64,
    /// Enqueues refused by a full transaction queue.
    pub rejected_full: u64,
    /// Share of core cycles the ROB head was blocked by a load.
    pub rob_blocked_frac: f64,
    /// Share of core cycles the load queue was full.
    pub lq_full_frac: f64,
    /// Replay cycles on which the closed-loop throttle held a record.
    pub throttled_cycles: u64,
    /// Correctness failures: a target not reached, a request lost.
    pub problems: Vec<String>,
}

/// `n / d`, or zero when `d` is zero.
pub(crate) fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl Outcome {
    /// DRAM requests completed.
    pub fn requests(&self) -> u64 {
        self.channels.iter().map(|(r, w)| r + w).sum()
    }

    fn new(bytes: &[u8], cycles: u64, work: u64, channels: &[ChannelStats]) -> Self {
        let cas: u64 = channels
            .iter()
            .map(|c| c.row_hits + c.row_misses + c.row_conflicts)
            .sum();
        Outcome {
            digest: checksum(bytes),
            cycles,
            work,
            channels: channels
                .iter()
                .map(|c| (c.reads_completed, c.writes_completed))
                .collect(),
            bus_util: channels
                .iter()
                .map(ChannelStats::bus_utilization)
                .sum::<f64>()
                / channels.len().max(1) as f64,
            row_hit_frac: ratio(channels.iter().map(|c| c.row_hits).sum(), cas),
            queue_occupancy: channels.iter().map(ChannelStats::mean_occupancy).sum(),
            rejected_full: channels.iter().map(|c| c.rejected_full).sum(),
            rob_blocked_frac: 0.0,
            lq_full_frac: 0.0,
            throttled_cycles: 0,
            problems: Vec::new(),
        }
    }

    fn of_system(stats: &RunStats, target: u64) -> Self {
        let mut w = ByteWriter::new();
        stats.encode(&mut w);
        let work = stats.cores.iter().map(|c| c.committed).sum();
        let mut o = Self::new(&w.into_bytes(), stats.cycles, work, &stats.channels);
        let core_cycles = stats.cores.iter().map(|c| c.cycles).sum();
        o.rob_blocked_frac = ratio(
            stats.cores.iter().map(|c| c.block_cycles).sum(),
            core_cycles,
        );
        o.lq_full_frac = stats.lq_full_fraction();
        for (i, c) in stats.cores.iter().enumerate() {
            if c.committed < target {
                o.problems.push(format!(
                    "core {i} committed {} of {target} instructions",
                    c.committed
                ));
            }
        }
        for (i, a) in stats.agents.iter().enumerate() {
            if a.units_done < a.units_target {
                o.problems.push(format!(
                    "agent {i} finished {} of {} work units",
                    a.units_done, a.units_target
                ));
            }
        }
        o
    }

    fn of_replay(stats: &ReplayStats, requests: u64) -> Self {
        let mut w = ByteWriter::new();
        stats.encode(&mut w);
        let mut o = Self::new(
            &w.into_bytes(),
            stats.cpu_cycles,
            stats.injected,
            &stats.channels,
        );
        o.throttled_cycles = stats.throttled_cycles;
        if stats.injected != requests
            || stats.completed != requests
            || stats.requests_serviced() != requests
        {
            o.problems.push(format!(
                "replay injected {}, completed {} and serviced {} of {requests} requests",
                stats.injected,
                stats.completed,
                stats.requests_serviced()
            ));
        }
        o
    }
}
