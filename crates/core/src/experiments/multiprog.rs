//! Figure 12: multiprogrammed weighted speedups, normalized to PAR-BS
//! (§5.8.2) — plus the maximum-slowdown fairness comparison against
//! TCM.

use crate::config::{AgentMix, PredictorKind};
use crate::experiments::fairness::alone_ipc;
use crate::experiments::harness::{Runner, TextTable};
use crate::metrics::{max_slowdown, mean, weighted_speedup};
use critmem_predict::CbpMetric;
use critmem_sched::{SchedulerKind, TcmTiebreak};
use critmem_workloads::bundle;
use std::sync::Arc;

/// The schedulers Figure 12 compares (PAR-BS is the normalization
/// baseline and appears implicitly as 1.0).
const SCHEDULERS: [(&str, SchedulerKind, PredictorKind); 4] = [
    ("FR-FCFS", SchedulerKind::FrFcfs, PredictorKind::None),
    (
        "TCM",
        SchedulerKind::Tcm {
            tiebreak: TcmTiebreak::FrFcfs,
        },
        PredictorKind::None,
    ),
    (
        "MaxStallTime",
        SchedulerKind::CasRasCrit,
        PredictorKind::Cbp {
            metric: CbpMetric::MaxStallTime,
            size: critmem_predict::TableSize::Entries(64),
            reset_interval: None,
        },
    ),
    (
        "TCM+MaxStallTime",
        SchedulerKind::Tcm {
            tiebreak: TcmTiebreak::CritFrFcfs,
        },
        PredictorKind::Cbp {
            metric: CbpMetric::MaxStallTime,
            size: critmem_predict::TableSize::Entries(64),
            reset_interval: None,
        },
    ),
];

/// Figure 12 results.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// Bundle names.
    pub bundles: Vec<&'static str>,
    /// Per scheduler: `(label, per-bundle normalized weighted speedup)`.
    pub series: Vec<(String, Vec<f64>)>,
    /// Maximum-slowdown averages `(TCM, MaxStallTime)` — the paper
    /// reports MaxStallTime improving max slowdown by 11.6% over TCM.
    pub max_slowdown_tcm: f64,
    /// Average maximum slowdown under the MaxStallTime scheduler.
    pub max_slowdown_crit: f64,
}

impl Fig12 {
    /// Renders the figure.
    pub fn to_table(&self) -> TextTable {
        let headers: Vec<&str> = self.series.iter().map(|(l, _)| l.as_str()).collect();
        let mut t = TextTable::new(
            "Figure 12: multiprogrammed weighted speedup (vs PAR-BS, cap 5)",
            &headers,
        );
        for (i, b) in self.bundles.iter().enumerate() {
            t.row(
                *b,
                self.series
                    .iter()
                    .map(|(_, v)| TextTable::pct(v[i]))
                    .collect(),
            );
        }
        t.row(
            "Average",
            self.series
                .iter()
                .map(|(_, v)| TextTable::pct(mean(v)))
                .collect(),
        );
        t
    }

    /// Average normalized weighted speedup of a scheduler.
    pub fn average_of(&self, label: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| mean(v))
    }
}

fn bundle_run(
    r: &mut Runner,
    name: &'static str,
    label: &str,
    sched: SchedulerKind,
    pred: PredictorKind,
) -> Arc<crate::system::RunStats> {
    let cfg = r.multiprog_cfg().with_scheduler(sched).with_predictor(pred);
    r.run_keyed(
        format!("bundle|{name}|{label}"),
        cfg,
        &AgentMix::bundle(name),
    )
}

/// Runs Figure 12 over the runner's bundles.
pub fn fig12(r: &mut Runner) -> Fig12 {
    let bundles = r.scale.bundles.clone();
    // Alone IPCs per app (PAR-BS config).
    let mut series: Vec<(String, Vec<f64>)> = SCHEDULERS
        .iter()
        .map(|(l, _, _)| (l.to_string(), Vec::new()))
        .collect();
    let mut ms_tcm = Vec::new();
    let mut ms_crit = Vec::new();
    for &bname in &bundles {
        let b = bundle(bname).expect("bundle exists");
        let alone: Vec<f64> = b.apps.iter().map(|&a| alone_ipc(r, a)).collect();
        // PAR-BS reference.
        let parbs = bundle_run(
            r,
            bname,
            "PAR-BS",
            SchedulerKind::ParBs { marking_cap: 5 },
            PredictorKind::None,
        );
        let ws_parbs = weighted_speedup(&parbs, &alone);
        for (si, (label, sched, pred)) in SCHEDULERS.iter().enumerate() {
            let stats = bundle_run(r, bname, label, *sched, *pred);
            let ws = weighted_speedup(&stats, &alone);
            series[si].1.push(ws / ws_parbs);
            if *label == "TCM" {
                ms_tcm.push(max_slowdown(&stats, &alone));
            }
            if *label == "MaxStallTime" {
                ms_crit.push(max_slowdown(&stats, &alone));
            }
        }
    }
    Fig12 {
        bundles,
        series,
        max_slowdown_tcm: mean(&ms_tcm),
        max_slowdown_crit: mean(&ms_crit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::Scale;

    #[test]
    fn fig12_runs_one_bundle() {
        let mut r = Runner::new(Scale {
            instructions: 1_200,
            apps: vec![],
            sweep_apps: vec![],
            bundles: vec!["AELV"],
        });
        let f = fig12(&mut r);
        assert_eq!(f.bundles, vec!["AELV"]);
        assert_eq!(f.series.len(), 4);
        for (label, vals) in &f.series {
            assert_eq!(vals.len(), 1, "{label}");
            assert!(vals[0] > 0.3 && vals[0] < 3.0, "{label}: {}", vals[0]);
        }
        assert!(f.max_slowdown_tcm > 0.0);
        assert!(f.to_table().to_string().contains("Figure 12"));
    }
}
