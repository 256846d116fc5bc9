//! The multiprogrammed sweep of §5.8.2 behind Figure 12, the
//! performance–fairness frontier and the heterogeneous-mix study: one
//! scheduler × mix loop on one platform ([`Runner::multiprog_cfg`]),
//! scoring every shared run with one slowdown definition.
//!
//! Each participant of a mix has one alone denominator, memoized for
//! every mix and scheduler: an OoO core's IPC alone on the 1-core
//! platform, or an accelerator agent's finish cycle alone on the 0-core
//! platform (see [`crate::metrics::slowdowns`] and
//! [`crate::metrics::agent_slowdowns`]). A participant violates its QoS
//! budget when its slowdown exceeds `qos_millis / 1000` (see
//! [`critmem_cpu::AgentClass`]).
//!
//! Figure 12 itself reports the weighted speedups normalized to PAR-BS
//! plus the maximum-slowdown comparison against TCM.

use crate::config::{AgentMix, AgentSpec, PredictorKind};
use crate::experiments::harness::{Runner, TextTable};
use crate::metrics::{
    agent_slowdowns, harmonic_speedup, max_slowdown, mean, slowdowns, weighted_speedup,
};
use crate::system::RunStats;
use critmem_common::obs::{MetricVisitor, Sampler, Schema, SeriesExport};
use critmem_cpu::AgentClass;
use critmem_predict::CbpMetric;
use critmem_sched::{SchedulerKind, TcmTiebreak};
use std::sync::Arc;

/// A scheduler zoo: `(label, scheduler, predictor)` per scheduler.
pub(crate) type Zoo = [(&'static str, SchedulerKind, PredictorKind)];

/// One scheduler on one mix, scored against each participant alone.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MixPoint {
    /// OoO weighted speedup (`Σ IPC_shared / IPC_alone`; zero for an
    /// agent-only mix).
    pub weighted_speedup: f64,
    /// Maximum OoO-core slowdown (`max_i IPC_alone / IPC_shared`).
    pub max_slowdown: f64,
    /// OoO harmonic speedup (`N / Σ slowdown_i`).
    pub harmonic_speedup: f64,
    /// Maximum accelerator-agent slowdown (`finish_shared /
    /// finish_alone`).
    pub agent_max_slowdown: f64,
    /// Participants (cores and agents) whose slowdown exceeded their
    /// QoS budget.
    pub qos_violations: u64,
}

/// One rendered metric of a [`MixStudy`]: its table header, its export
/// gauge and unit, and the [`MixPoint`] field it reads. The table shows
/// a `count` metric's total over the mixes and any other metric's mix
/// average.
#[derive(Debug)]
pub(crate) struct Column {
    header: &'static str,
    gauge: &'static str,
    unit: &'static str,
    value: fn(&MixPoint) -> f64,
}

impl Column {
    pub(crate) const fn new(
        header: &'static str,
        gauge: &'static str,
        unit: &'static str,
        value: fn(&MixPoint) -> f64,
    ) -> Self {
        Column {
            header,
            gauge,
            unit,
            value,
        }
    }
}

/// A rendered scheduler × mix study: the fairness frontier
/// ([`crate::experiments::fairness_frontier`]) or the hetero sweep
/// ([`crate::experiments::hetero_study`]).
#[derive(Debug)]
pub struct MixStudy {
    title: &'static str,
    component: &'static str,
    columns: &'static [Column],
    /// Mix names, in run order (the export's `cycle` column indexes
    /// into this list).
    pub mixes: Vec<String>,
    /// One row per scheduler, in zoo order: its label and its point on
    /// each mix.
    pub rows: Vec<(&'static str, Vec<MixPoint>)>,
}

impl MixStudy {
    /// Sweeps `zoo` over the named `mixes`; the study renders as a table
    /// titled `title` and exports its `columns` under `component`.
    pub(crate) fn run(
        r: &mut Runner,
        mixes: &[(String, AgentMix)],
        zoo: &Zoo,
        title: &'static str,
        component: &'static str,
        columns: &'static [Column],
    ) -> Self {
        MixStudy {
            title,
            component,
            columns,
            mixes: mixes.iter().map(|(name, _)| name.clone()).collect(),
            rows: sweep(r, mixes, zoo),
        }
    }

    /// The points of the scheduler labelled `label`, one per mix.
    pub fn row(&self, label: &str) -> Option<&[MixPoint]> {
        self.rows
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, points)| points.as_slice())
    }

    /// Renders the study as a text table: one row per scheduler, one
    /// column per metric.
    pub fn to_table(&self) -> TextTable {
        let headers: Vec<&str> = self.columns.iter().map(|c| c.header).collect();
        let mut t = TextTable::new(self.title, &headers);
        for (label, points) in &self.rows {
            let cells = self.columns.iter().map(|c| {
                let values: Vec<f64> = points.iter().map(c.value).collect();
                match c.unit {
                    "count" => format!("{}", values.iter().sum::<f64>() as u64),
                    _ => TextTable::ratio(mean(&values)),
                }
            });
            t.row(*label, cells.collect());
        }
        t
    }

    /// Assembles the JSONL/CSV-exportable series: one run per
    /// scheduler, one sample per mix (cycle = mix index), one gauge per
    /// metric. Runs are label-sorted by construction, so the serialized
    /// bytes are worker-count independent.
    pub fn to_export(&self) -> SeriesExport {
        let walk = |v: &mut dyn MetricVisitor, p: &MixPoint| {
            v.component(self.component);
            for c in self.columns {
                v.gauge(c.gauge, c.unit, (c.value)(p));
            }
        };
        let mut export = SeriesExport::new(1);
        for (label, points) in &self.rows {
            let schema = Schema::build(|v| walk(v, &MixPoint::default()));
            let mut sampler = Sampler::new(schema, 1);
            for (i, p) in points.iter().enumerate() {
                sampler.sample(i as u64, |v| walk(v, p));
            }
            export.push(*label, sampler.into_series());
        }
        export
    }
}

/// Table 4 bundles as named mixes.
pub(crate) fn bundle_mixes(bundles: &[&str]) -> Vec<(String, AgentMix)> {
    bundles
        .iter()
        .map(|&b| (b.to_string(), AgentMix::bundle(b)))
        .collect()
}

/// The run of one participant alone: its term, once, on the platform
/// that term sizes (one core for `ooo`, none for an accelerator agent),
/// under the platform's default scheduler (with one participant there
/// is nothing to arbitrate).
fn alone(r: &mut Runner, spec: &AgentSpec) -> Arc<RunStats> {
    let mix = AgentMix::Hetero(vec![AgentSpec {
        count: 1,
        qos_millis: 0,
        ..*spec
    }]);
    let cfg = r.multiprog_cfg(&mix);
    r.run_keyed(format!("alone|{mix}"), cfg, &mix)
}

/// Runs every scheduler of `zoo` on every named mix and scores each
/// shared run. Drives [`Runner::run_parallel`] itself, so all
/// `mixes × zoo` cells fan out across `--jobs` workers. Returns one row
/// per scheduler, in zoo order, of one point per mix.
fn sweep(
    r: &mut Runner,
    mixes: &[(String, AgentMix)],
    zoo: &Zoo,
) -> Vec<(&'static str, Vec<MixPoint>)> {
    r.run_parallel(|r| {
        let mut rows: Vec<_> = zoo.iter().map(|&(l, ..)| (l, Vec::new())).collect();
        for (name, mix) in mixes {
            // Participants in system order: cores, then agents.
            let (cores, agents): (Vec<AgentSpec>, Vec<AgentSpec>) = mix
                .specs()
                .unwrap_or(&[])
                .iter()
                .flat_map(|s| std::iter::repeat_n(*s, s.count as usize))
                .partition(|s| s.class == AgentClass::Ooo);
            let alone_ipc: Vec<f64> = cores.iter().map(|s| alone(r, s).ipc(0)).collect();
            let alone_finish: Vec<f64> = agents
                .iter()
                .map(|s| alone(r, s).agents[0].finish.max(1) as f64)
                .collect();
            for ((_, points), &(label, sched, pred)) in rows.iter_mut().zip(zoo) {
                let cfg = r
                    .multiprog_cfg(mix)
                    .with_scheduler(sched)
                    .with_predictor(pred);
                let shared = r.run_keyed(format!("{name}|{label}"), cfg, mix);
                let agent_slow = agent_slowdowns(&shared, &alone_finish);
                let qos_violations = slowdowns(&shared, &alone_ipc)
                    .iter()
                    .chain(&agent_slow)
                    .zip(cores.iter().chain(&agents))
                    .filter(|&(&s, spec)| s > f64::from(spec.effective_qos_millis()) / 1_000.0)
                    .count();
                points.push(MixPoint {
                    weighted_speedup: weighted_speedup(&shared, &alone_ipc),
                    max_slowdown: max_slowdown(&shared, &alone_ipc),
                    harmonic_speedup: harmonic_speedup(&shared, &alone_ipc),
                    agent_max_slowdown: agent_slow.into_iter().fold(0.0, f64::max),
                    qos_violations: qos_violations as u64,
                });
            }
        }
        rows
    })
}

/// The schedulers Figure 12 compares; PAR-BS, the normalization
/// baseline, leads and appears in the figure implicitly as 1.0.
const SCHEDULERS: [(&str, SchedulerKind, PredictorKind); 5] = [
    (
        "PAR-BS",
        SchedulerKind::ParBs { marking_cap: 5 },
        PredictorKind::None,
    ),
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
        PredictorKind::cbp64(CbpMetric::MaxStallTime),
    ),
    (
        "TCM+MaxStallTime",
        SchedulerKind::Tcm {
            tiebreak: TcmTiebreak::CritFrFcfs,
        },
        PredictorKind::cbp64(CbpMetric::MaxStallTime),
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

/// Runs Figure 12 over the runner's bundles.
pub fn fig12(r: &mut Runner) -> Fig12 {
    let bundles = r.scale.bundles.clone();
    let rows = sweep(r, &bundle_mixes(&bundles), &SCHEDULERS);
    let (parbs, rows) = rows.split_first().expect("PAR-BS leads the zoo");
    let series = rows
        .iter()
        .map(|(label, points)| {
            let ws = points.iter().zip(&parbs.1);
            let normalized = ws.map(|(p, base)| p.weighted_speedup / base.weighted_speedup);
            (label.to_string(), normalized.collect())
        })
        .collect();
    let mean_max_slowdown = |label: &str| {
        let (_, points) = rows.iter().find(|(l, _)| *l == label).expect("in zoo");
        mean(&points.iter().map(|p| p.max_slowdown).collect::<Vec<_>>())
    };
    Fig12 {
        max_slowdown_tcm: mean_max_slowdown("TCM"),
        max_slowdown_crit: mean_max_slowdown("MaxStallTime"),
        bundles,
        series,
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
