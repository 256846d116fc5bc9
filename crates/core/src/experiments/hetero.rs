//! The heterogeneous-mix study (ROADMAP item 3): sweep the scheduler
//! zoo over agent mixes that put latency-critical OoO cores on the same
//! channels as bandwidth-hungry streamers, PIM-style bulk engines, and
//! prefetch-dominated front-ends, and report — per scheduler, per mix —
//! the OoO weighted speedup, the per-class maximum slowdown, and how
//! many participants blew their QoS slowdown budget.
//!
//! Slowdown denominators follow the class: an OoO core's slowdown is
//! `IPC_alone / IPC_shared` (the Figure 12 definition, memo-shared with
//! `repro fairness`), while an accelerator-class agent's slowdown is
//! `finish_shared / finish_alone` — the cycle at which it completed its
//! fixed work-unit target, against a run where that single agent owns
//! the platform. A participant violates its budget when its slowdown
//! exceeds `qos_millis / 1000` (see [`critmem_cpu::AgentClass`]).
//!
//! Results export through [`SeriesExport`] exactly like the fairness
//! frontier: one run per scheduler, one sample row per mix (the `cycle`
//! column holds the mix index), so the serialized bytes are identical
//! for any `--jobs`, `--no-skip-ahead`, or `--audit` setting.

use crate::config::{AgentMix, SystemConfig};
use crate::experiments::fairness::{alone_ipc, frontier_schedulers};
use crate::experiments::harness::{Runner, TextTable};
use crate::metrics::mean;
use critmem_common::obs::{MetricVisitor, Sampler, Schema, SeriesExport};
use critmem_cpu::AgentClass;

/// The default mixes `repro hetero` sweeps when none are named: one
/// stream-saturated, one bulk-batched, and one drawing on all four
/// classes at once.
pub fn default_mixes() -> Vec<&'static str> {
    vec![
        "ooo:mcf*2+stream*2",
        "ooo:mcf*2+bulk*2",
        "ooo:mcf+ooo:art1+stream+bulk+prefetch",
    ]
}

/// One scheduler's results, one entry per mix.
#[derive(Debug, Clone)]
pub struct HeteroPoint {
    /// Scheduler display name.
    pub label: &'static str,
    /// OoO weighted speedup per mix (`Σ IPC_shared / IPC_alone`; zero
    /// for an agent-only mix).
    pub weighted_speedup: Vec<f64>,
    /// Maximum OoO-core slowdown per mix.
    pub ooo_max_slowdown: Vec<f64>,
    /// Maximum accelerator-agent slowdown per mix.
    pub agent_max_slowdown: Vec<f64>,
    /// Participants (cores and agents) whose slowdown exceeded their
    /// QoS budget, per mix.
    pub qos_violations: Vec<u64>,
}

/// The study result: one [`HeteroPoint`] per scheduler, over a shared
/// mix list.
#[derive(Debug, Clone)]
pub struct HeteroStudy {
    /// Canonical mix grammar strings, in run order (the export's
    /// `cycle` column indexes into this list).
    pub mixes: Vec<String>,
    /// One point per scheduler, in
    /// [`frontier_schedulers`](crate::experiments::frontier_schedulers)
    /// order.
    pub points: Vec<HeteroPoint>,
}

impl HeteroStudy {
    /// Renders the study as a text table: one row per scheduler,
    /// mix-averaged weighted speedup and per-class max slowdowns, plus
    /// the total QoS-budget violation count across all mixes.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Heterogeneous-mix sweep (mix averages)",
            &[
                "weighted speedup",
                "ooo max slowdown",
                "agent max slowdown",
                "QoS violations",
            ],
        );
        for p in &self.points {
            t.row(
                p.label,
                vec![
                    TextTable::ratio(mean(&p.weighted_speedup)),
                    TextTable::ratio(mean(&p.ooo_max_slowdown)),
                    TextTable::ratio(mean(&p.agent_max_slowdown)),
                    format!("{}", p.qos_violations.iter().sum::<u64>()),
                ],
            );
        }
        t
    }

    /// The point with a given scheduler label.
    pub fn point(&self, label: &str) -> Option<&HeteroPoint> {
        self.points.iter().find(|p| p.label == label)
    }

    /// Assembles the JSONL/CSV-exportable series: one run per
    /// scheduler, one sample per mix (cycle = mix index), four gauges
    /// per sample. Label-sorted by construction, so the bytes are
    /// worker-count independent.
    pub fn to_export(&self) -> SeriesExport {
        let walk_one = |v: &mut dyn MetricVisitor, ws: f64, os: f64, ags: f64, viol: f64| {
            v.component("hetero");
            v.gauge("weighted_speedup", "ratio", ws);
            v.gauge("ooo_max_slowdown", "ratio", os);
            v.gauge("agent_max_slowdown", "ratio", ags);
            v.gauge("qos_violations", "count", viol);
        };
        let mut export = SeriesExport::new(1);
        for p in &self.points {
            let schema = Schema::build(|v| walk_one(v, 0.0, 0.0, 0.0, 0.0));
            let mut sampler = Sampler::new(schema, 1);
            for (i, _) in self.mixes.iter().enumerate() {
                sampler.sample(i as u64, |v| {
                    walk_one(
                        v,
                        p.weighted_speedup[i],
                        p.ooo_max_slowdown[i],
                        p.agent_max_slowdown[i],
                        p.qos_violations[i] as f64,
                    )
                });
            }
            export.push(p.label, sampler.into_series());
        }
        export
    }
}

/// The shared-platform configuration for a hetero mix: the Figure 12
/// multiprogrammed memory system with the core count the mix pins.
/// Streaming agents legitimately keep rows open long enough to queue
/// same-bank victims for hundreds of thousands of cycles under
/// FR-FCFS — that starvation is the measured phenomenon, not a hang —
/// so the starved-request watchdog gets a much looser leash than the
/// core-only default.
fn hetero_cfg(r: &Runner, cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::multiprogrammed_baseline(r.scale.instructions);
    cfg.cores = cores;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(cores);
    cfg.max_cycles = r
        .scale
        .instructions
        .saturating_mul(40_000)
        .max(1_000_000_000);
    cfg.watchdog.max_request_age = 2_000_000;
    cfg.skip_ahead = r.skip_ahead;
    cfg.audit = r.audit;
    cfg
}

/// Expands a mix into its participants in system order: the OoO cores
/// as `(app, qos_millis)` (core index order) and the accelerator
/// agents as `(class, profile, qos_millis)` (agent index order).
#[allow(clippy::type_complexity)]
fn participants(
    mix: &AgentMix,
) -> (
    Vec<(&'static str, u32)>,
    Vec<(AgentClass, &'static str, u32)>,
) {
    let mut cores = Vec::new();
    let mut agents = Vec::new();
    for spec in mix.specs().unwrap_or(&[]) {
        for _ in 0..spec.count {
            if spec.class == AgentClass::Ooo {
                cores.push((spec.profile, spec.effective_qos_millis()));
            } else {
                agents.push((spec.class, spec.profile, spec.effective_qos_millis()));
            }
        }
    }
    (cores, agents)
}

/// Finish cycle of one accelerator agent running alone on the hetero
/// platform (zero cores) — the slowdown denominator for its class.
/// Memoized per `(class, profile)`, shared across every mix and
/// scheduler (the alone platform always runs the FR-FCFS default: with
/// one participant there is nothing to arbitrate).
fn agent_alone_finish(r: &mut Runner, class: AgentClass, profile: &'static str) -> f64 {
    let term = format!("{}:{profile}", class.keyword());
    let mix: AgentMix = term.parse().expect("canonical term parses");
    let cfg = hetero_cfg(r, 0);
    let stats = r.run_keyed(format!("heteroalone|{term}"), cfg, &mix);
    stats.agents.first().map_or(1.0, |a| a.finish.max(1) as f64)
}

/// Runs the study over `mixes` (canonical grammar strings paired with
/// their parsed form). Drives [`Runner::run_parallel`] itself, so all
/// `mixes × schedulers` cells fan out across `--jobs` workers.
pub fn hetero_study(runner: &mut Runner, mixes: &[(String, AgentMix)]) -> HeteroStudy {
    runner.run_parallel(|r| {
        let zoo = frontier_schedulers();
        let mut points: Vec<HeteroPoint> = zoo
            .iter()
            .map(|(l, _, _)| HeteroPoint {
                label: l,
                weighted_speedup: Vec::new(),
                ooo_max_slowdown: Vec::new(),
                agent_max_slowdown: Vec::new(),
                qos_violations: Vec::new(),
            })
            .collect();
        for (name, mix) in mixes {
            let (ooo, agents) = participants(mix);
            let alone: Vec<f64> = ooo.iter().map(|&(app, _)| alone_ipc(r, app)).collect();
            let agent_alone: Vec<f64> = agents
                .iter()
                .map(|&(class, profile, _)| agent_alone_finish(r, class, profile))
                .collect();
            for (si, (label, sched, pred)) in zoo.iter().enumerate() {
                let cfg = hetero_cfg(r, ooo.len())
                    .with_scheduler(*sched)
                    .with_predictor(*pred);
                let stats = r.run_keyed(format!("hetero|{name}|{label}"), cfg, mix);
                // Per-core slowdowns (shared IPC against memo-shared
                // alone IPC), then per-agent slowdowns (finish-cycle
                // ratio at equal work targets).
                let ooo_slow: Vec<f64> = alone
                    .iter()
                    .enumerate()
                    .map(|(i, &al)| al / stats.ipc(i).max(1e-12))
                    .collect();
                let agent_slow: Vec<f64> = agent_alone
                    .iter()
                    .enumerate()
                    .map(|(i, &al)| {
                        // Planning-pass placeholders carry no agents;
                        // any real run reports every agent it built.
                        stats
                            .agents
                            .get(i)
                            .map_or(1.0, |a| a.finish.max(1) as f64 / al)
                    })
                    .collect();
                let violations = ooo_slow
                    .iter()
                    .zip(ooo.iter())
                    .filter(|(&s, &(_, qos))| s > f64::from(qos) / 1_000.0)
                    .count()
                    + agent_slow
                        .iter()
                        .zip(agents.iter())
                        .filter(|(&s, &(_, _, qos))| s > f64::from(qos) / 1_000.0)
                        .count();
                points[si].weighted_speedup.push(
                    alone
                        .iter()
                        .enumerate()
                        .map(|(i, &al)| stats.ipc(i) / al.max(1e-12))
                        .sum(),
                );
                points[si]
                    .ooo_max_slowdown
                    .push(ooo_slow.iter().copied().fold(0.0, f64::max));
                points[si]
                    .agent_max_slowdown
                    .push(agent_slow.iter().copied().fold(0.0, f64::max));
                points[si].qos_violations.push(violations as u64);
            }
        }
        HeteroStudy {
            mixes: mixes.iter().map(|(n, _)| n.clone()).collect(),
            points,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::Scale;

    fn small_runner() -> Runner {
        Runner::new(Scale {
            instructions: 1_000,
            apps: vec![],
            sweep_apps: vec![],
            bundles: vec![],
        })
    }

    fn parse_mixes(specs: &[&str]) -> Vec<(String, AgentMix)> {
        specs
            .iter()
            .map(|s| {
                let mix: AgentMix = s.parse().expect("grammar");
                (mix.to_string(), mix)
            })
            .collect()
    }

    #[test]
    fn study_covers_the_zoo_on_one_mix() {
        let mut r = small_runner();
        let mixes = parse_mixes(&["ooo:mcf+stream+bulk"]);
        let study = hetero_study(&mut r, &mixes);
        assert!(!r.has_failures(), "{:?}", r.failures());
        assert_eq!(study.mixes, vec!["ooo:mcf+stream+bulk".to_string()]);
        assert!(study.points.len() >= 6, "zoo must span >= 6 schedulers");
        for p in &study.points {
            assert_eq!(p.weighted_speedup.len(), 1, "{}", p.label);
            let ws = p.weighted_speedup[0];
            let os = p.ooo_max_slowdown[0];
            let ags = p.agent_max_slowdown[0];
            assert!(ws > 0.0 && ws < 4.0, "{}: ws {ws}", p.label);
            // Slowdowns can be enormous under FR-FCFS — an unthrottled
            // streamer starving a bulk engine's row misses is the
            // phenomenon this study exists to measure — so only sanity
            // (positive, finite) is asserted here.
            assert!(
                os >= 1.0 && os.is_finite(),
                "{}: ooo slowdown {os}",
                p.label
            );
            assert!(
                ags > 0.0 && ags.is_finite(),
                "{}: agent slowdown {ags}",
                p.label
            );
        }
        let table = study.to_table().to_string();
        assert!(table.contains("Heterogeneous-mix sweep"));
    }

    #[test]
    fn export_round_trips_and_is_deterministic() {
        let mixes = parse_mixes(&["ooo:mcf+stream"]);
        let mut a = small_runner();
        let ea = hetero_study(&mut a, &mixes).to_export();
        let mut b = small_runner();
        b.jobs = 2;
        let eb = hetero_study(&mut b, &mixes).to_export();
        assert_eq!(
            ea.to_jsonl(),
            eb.to_jsonl(),
            "--jobs must not perturb the export"
        );
        let parsed = SeriesExport::parse_jsonl(&ea.to_jsonl()).expect("lossless");
        assert_eq!(parsed, ea);
        for run in &ea.runs {
            assert!(run.series.value(0, "hetero.weighted_speedup").is_some());
            assert!(run.series.value(0, "hetero.qos_violations").is_some());
        }
    }

    #[test]
    fn default_mixes_parse_and_pin_their_cores() {
        for s in default_mixes() {
            let mix: AgentMix = s.parse().expect("default mixes must parse");
            assert!(mix.ooo_count().unwrap() >= 1);
            assert!(mix.agent_count() >= 1);
            assert_eq!(mix.to_string(), s, "defaults are canonical spellings");
        }
    }
}
