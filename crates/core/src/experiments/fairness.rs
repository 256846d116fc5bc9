//! The performance–fairness frontier study: sweep the scheduler zoo
//! over the multiprogrammed bundles and emit, per scheduler, the
//! (weighted speedup, maximum slowdown, harmonic speedup) triple that
//! locates it on the frontier chart.
//!
//! The zoo spans both ends of the spectrum — the paper's
//! criticality-first CASRAS-Crit, the fairness-oriented PAR-BS / TCM /
//! ATLAS / BLISS designs, and the [`critmem_sched::MetaSwitch`]
//! meta-scheduler that flips between a criticality mode and BLISS at
//! runtime. Alone-IPC denominators come from `alone_ipc`, the one
//! function Figure 12 also calls, so `repro fairness` and `repro fig12`
//! agree on normalization.
//!
//! Results export through [`SeriesExport`] (DESIGN.md §6e): one run
//! per scheduler, one sample row per bundle (the `cycle` column holds
//! the bundle index), three gauge columns. The export is assembled
//! from label-sorted runs, so it is byte-identical for any `--jobs`
//! value.

use crate::config::{AgentMix, PredictorKind};
use crate::experiments::harness::{Runner, TextTable};
use crate::metrics::{harmonic_speedup, max_slowdown, mean, weighted_speedup};
use critmem_common::obs::{MetricVisitor, Sampler, Schema, SeriesExport};
use critmem_predict::CbpMetric;
use critmem_sched::{SchedulerKind, TcmTiebreak};
use critmem_workloads::bundle;

/// The frontier zoo: every multiprogrammed scheduler the repo can
/// instantiate, labeled by its display name. CASRAS-Crit and
/// MetaSwitch carry the paper's 64-entry MaxStallTime CBP (their
/// criticality ordering is inert without request annotations); the
/// fairness-only designs run predictor-free, as their papers do.
pub fn frontier_schedulers() -> Vec<(&'static str, SchedulerKind, PredictorKind)> {
    let cbp = PredictorKind::Cbp {
        metric: CbpMetric::MaxStallTime,
        size: critmem_predict::TableSize::Entries(64),
        reset_interval: None,
    };
    vec![
        ("FR-FCFS", SchedulerKind::FrFcfs, PredictorKind::None),
        ("CASRAS-Crit", SchedulerKind::CasRasCrit, cbp),
        (
            "PAR-BS",
            SchedulerKind::ParBs { marking_cap: 5 },
            PredictorKind::None,
        ),
        (
            "TCM",
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::FrFcfs,
            },
            PredictorKind::None,
        ),
        ("ATLAS", SchedulerKind::Atlas, PredictorKind::None),
        (
            "BLISS",
            SchedulerKind::Bliss(critmem_sched::BlissConfig::DEFAULT),
            PredictorKind::None,
        ),
        ("MetaSwitch", SchedulerKind::DEFAULT_META, cbp),
    ]
}

/// One scheduler's position on the frontier, per bundle.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Scheduler display name.
    pub label: &'static str,
    /// Weighted speedup per bundle (`Σ IPC_shared / IPC_alone`).
    pub weighted_speedup: Vec<f64>,
    /// Maximum slowdown per bundle (`max_i IPC_alone / IPC_shared`).
    pub max_slowdown: Vec<f64>,
    /// Harmonic speedup per bundle (`N / Σ slowdown_i`).
    pub harmonic_speedup: Vec<f64>,
}

/// The frontier study result: one [`FrontierPoint`] per scheduler.
#[derive(Debug, Clone)]
pub struct FairnessFrontier {
    /// Bundle names, in run order (the export's `cycle` column indexes
    /// into this list).
    pub bundles: Vec<&'static str>,
    /// One point per scheduler, in [`frontier_schedulers`] order.
    pub points: Vec<FrontierPoint>,
}

impl FairnessFrontier {
    /// Renders the frontier as a text table: one row per scheduler,
    /// bundle-averaged weighted speedup / max slowdown / harmonic
    /// speedup. Lower max slowdown is fairer; the frontier is the set
    /// of schedulers no other scheduler beats on both columns at once.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Performance-fairness frontier (bundle averages)",
            &["weighted speedup", "max slowdown", "harmonic speedup"],
        );
        for p in &self.points {
            t.row(
                p.label,
                vec![
                    TextTable::ratio(mean(&p.weighted_speedup)),
                    TextTable::ratio(mean(&p.max_slowdown)),
                    TextTable::ratio(mean(&p.harmonic_speedup)),
                ],
            );
        }
        t
    }

    /// The point with a given scheduler label.
    pub fn point(&self, label: &str) -> Option<&FrontierPoint> {
        self.points.iter().find(|p| p.label == label)
    }

    /// Assembles the JSONL/CSV-exportable series: one run per
    /// scheduler, one sample per bundle (cycle = bundle index), three
    /// gauges per sample. Runs are label-sorted by construction, so
    /// the serialized bytes are worker-count independent.
    pub fn to_export(&self) -> SeriesExport {
        let walk_one = |v: &mut dyn MetricVisitor, ws: f64, ms: f64, hs: f64| {
            v.component("fairness");
            v.gauge("weighted_speedup", "ratio", ws);
            v.gauge("max_slowdown", "ratio", ms);
            v.gauge("harmonic_speedup", "ratio", hs);
        };
        let mut export = SeriesExport::new(1);
        for p in &self.points {
            let schema = Schema::build(|v| walk_one(v, 0.0, 0.0, 0.0));
            let mut sampler = Sampler::new(schema, 1);
            for (i, _) in self.bundles.iter().enumerate() {
                sampler.sample(i as u64, |v| {
                    walk_one(
                        v,
                        p.weighted_speedup[i],
                        p.max_slowdown[i],
                        p.harmonic_speedup[i],
                    )
                });
            }
            export.push(p.label, sampler.into_series());
        }
        export
    }
}

/// Alone-IPC denominator of Figure 12, the frontier and the
/// heterogeneous-mix study, memoized once per app for all three: the
/// app on one core of the PAR-BS baseline platform with 32 L2 MSHRs
/// (the paper's normalization denominator).
pub(crate) fn alone_ipc(r: &mut Runner, app: &'static str) -> f64 {
    let mut cfg = r.multiprog_cfg();
    cfg.cores = 1;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(1);
    cfg.hierarchy.l2_mshrs = 32;
    let stats = r.run_keyed(format!("alone|{app}"), cfg, &AgentMix::alone(app));
    stats.ipc(0)
}

/// Runs the frontier study over the runner's bundles. Drives
/// [`Runner::run_parallel`] itself (plan + execute), so all
/// `bundles × schedulers` cells fan out across `--jobs` workers.
pub fn fairness_frontier(runner: &mut Runner) -> FairnessFrontier {
    runner.run_parallel(|r| {
        let bundles = r.scale.bundles.clone();
        let zoo = frontier_schedulers();
        let mut points: Vec<FrontierPoint> = zoo
            .iter()
            .map(|(l, _, _)| FrontierPoint {
                label: l,
                weighted_speedup: Vec::new(),
                max_slowdown: Vec::new(),
                harmonic_speedup: Vec::new(),
            })
            .collect();
        for &bname in &bundles {
            let b = bundle(bname).expect("bundle exists");
            let alone: Vec<f64> = b.apps.iter().map(|&a| alone_ipc(r, a)).collect();
            for (si, (label, sched, pred)) in zoo.iter().enumerate() {
                let cfg = r
                    .multiprog_cfg()
                    .with_scheduler(*sched)
                    .with_predictor(*pred);
                let stats = r.run_keyed(
                    format!("bundle|{bname}|{label}"),
                    cfg,
                    &AgentMix::bundle(bname),
                );
                points[si]
                    .weighted_speedup
                    .push(weighted_speedup(&stats, &alone));
                points[si].max_slowdown.push(max_slowdown(&stats, &alone));
                points[si]
                    .harmonic_speedup
                    .push(harmonic_speedup(&stats, &alone));
            }
        }
        FairnessFrontier { bundles, points }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::Scale;
    use critmem_common::codec::{ByteReader, ByteWriter};
    use critmem_common::SeriesSet;

    #[test]
    fn frontier_covers_the_zoo_on_one_bundle() {
        let mut r = Runner::new(Scale {
            instructions: 1_200,
            apps: vec![],
            sweep_apps: vec![],
            bundles: vec!["AELV"],
        });
        let f = fairness_frontier(&mut r);
        assert_eq!(f.bundles, vec!["AELV"]);
        assert!(f.points.len() >= 6, "zoo must span >= 6 schedulers");
        assert!(f.point("BLISS").is_some());
        assert!(f.point("MetaSwitch").is_some());
        for p in &f.points {
            assert_eq!(p.weighted_speedup.len(), 1, "{}", p.label);
            let ws = p.weighted_speedup[0];
            let ms = p.max_slowdown[0];
            let hs = p.harmonic_speedup[0];
            assert!(ws > 0.0 && ws < 8.0, "{}: ws {ws}", p.label);
            assert!(ms > 0.0 && ms < 50.0, "{}: max slowdown {ms}", p.label);
            assert!(hs > 0.0 && hs < 4.0, "{}: hs {hs}", p.label);
        }
        assert!(f.to_table().to_string().contains("frontier"));
    }

    #[test]
    fn export_is_one_run_per_scheduler_and_round_trips() {
        let mut r = Runner::new(Scale {
            instructions: 1_200,
            apps: vec![],
            sweep_apps: vec![],
            bundles: vec!["AELV"],
        });
        let f = fairness_frontier(&mut r);
        let export = f.to_export();
        assert_eq!(export.runs.len(), f.points.len());
        for run in &export.runs {
            assert_eq!(run.series.len(), 1, "one sample per bundle");
            assert!(run.series.value(0, "fairness.weighted_speedup").is_some());
            assert!(run.series.value(0, "fairness.max_slowdown").is_some());
            assert!(run.series.value(0, "fairness.harmonic_speedup").is_some());
            let mut w = ByteWriter::new();
            run.series.encode(&mut w);
            let bytes = w.into_bytes();
            let decoded = SeriesSet::decode(&mut ByteReader::new(&bytes)).expect("lossless");
            assert_eq!(decoded, run.series);
        }
        assert!(export.to_csv().starts_with("run,cycle,fairness."));
    }
}
