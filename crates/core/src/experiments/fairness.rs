//! The performance–fairness frontier study: sweep the scheduler zoo
//! over the multiprogrammed bundles and emit, per scheduler, the
//! (weighted speedup, maximum slowdown, harmonic speedup) triple that
//! locates it on the frontier chart.
//!
//! The zoo spans both ends of the spectrum — the paper's
//! criticality-first CASRAS-Crit, the fairness-oriented PAR-BS / TCM /
//! ATLAS / BLISS designs, and the [`critmem_sched::MetaSwitch`]
//! meta-scheduler that flips between a criticality mode and BLISS at
//! runtime. The bundles run through the multiprogrammed sweep Figure 12
//! and the hetero study share (see [`crate::experiments::multiprog`]),
//! so `repro fairness`, `repro fig12` and `repro hetero bundle:NAME`
//! agree on platform and normalization.
//!
//! Results export through [`SeriesExport`](critmem_common::SeriesExport)
//! (DESIGN.md §6e): one run per scheduler, one sample row per bundle
//! (the `cycle` column holds the bundle index), three gauge columns.
//! The export is assembled from label-sorted runs, so it is
//! byte-identical for any `--jobs` value.

use crate::config::PredictorKind;
use crate::experiments::harness::Runner;
use crate::experiments::multiprog::{bundle_mixes, Column, MixStudy};
use critmem_predict::CbpMetric;
use critmem_sched::{SchedulerKind, TcmTiebreak};

/// The frontier zoo: every multiprogrammed scheduler the repo can
/// instantiate, labeled by its display name. CASRAS-Crit and
/// MetaSwitch carry the paper's 64-entry MaxStallTime CBP (their
/// criticality ordering is inert without request annotations); the
/// fairness-only designs run predictor-free, as their papers do.
pub fn frontier_schedulers() -> Vec<(&'static str, SchedulerKind, PredictorKind)> {
    let cbp = PredictorKind::cbp64(CbpMetric::MaxStallTime);
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

/// The frontier's metrics, bundle-averaged in the table. Lower max
/// slowdown is fairer; the frontier is the set of schedulers no other
/// scheduler beats on both weighted speedup and max slowdown at once.
static COLUMNS: [Column; 3] = [
    Column::new("weighted speedup", "weighted_speedup", "ratio", |p| {
        p.weighted_speedup
    }),
    Column::new("max slowdown", "max_slowdown", "ratio", |p| p.max_slowdown),
    Column::new("harmonic speedup", "harmonic_speedup", "ratio", |p| {
        p.harmonic_speedup
    }),
];

/// Runs the frontier study over the runner's bundles: all
/// `bundles × schedulers` cells fan out across `--jobs` workers.
pub fn fairness_frontier(runner: &mut Runner) -> MixStudy {
    let mixes = bundle_mixes(&runner.scale.bundles);
    let title = "Performance-fairness frontier (bundle averages)";
    let zoo = frontier_schedulers();
    MixStudy::run(runner, &mixes, &zoo, title, "fairness", &COLUMNS)
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
        assert_eq!(f.mixes, vec!["AELV"]);
        assert!(f.rows.len() >= 6, "zoo must span >= 6 schedulers");
        assert!(f.row("BLISS").is_some());
        assert!(f.row("MetaSwitch").is_some());
        for (label, points) in &f.rows {
            assert_eq!(points.len(), 1, "{label}");
            let p = points[0];
            let (ws, ms, hs) = (p.weighted_speedup, p.max_slowdown, p.harmonic_speedup);
            assert!(ws > 0.0 && ws < 8.0, "{label}: ws {ws}");
            assert!(ms > 0.0 && ms < 50.0, "{label}: max slowdown {ms}");
            assert!(hs > 0.0 && hs < 4.0, "{label}: hs {hs}");
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
        assert_eq!(export.runs.len(), f.rows.len());
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
