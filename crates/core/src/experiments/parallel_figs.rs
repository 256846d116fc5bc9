//! Reproductions of the parallel-workload figures: Figures 1 and 3–9.

use crate::config::PredictorKind;
use crate::experiments::harness::{Runner, TextTable};
use crate::metrics::mean;
use critmem_predict::{CbpMetric, ClptMode, TableSize};
use critmem_sched::SchedulerKind;

/// A named series of per-app speedups plus their arithmetic average
/// (the paper's "Average" bar).
#[derive(Debug, Clone)]
pub struct SpeedupSeries {
    /// Series label (legend entry in the paper's figure).
    pub label: String,
    /// Speedup per app, in the order of the runner's app list.
    pub per_app: Vec<f64>,
}

impl SpeedupSeries {
    /// Arithmetic mean over apps.
    pub fn average(&self) -> f64 {
        mean(&self.per_app)
    }
}

/// A generic per-app speedup figure.
#[derive(Debug, Clone)]
pub struct SpeedupFigure {
    /// Figure caption.
    pub title: String,
    /// App order.
    pub apps: Vec<&'static str>,
    /// One series per scheduler/predictor configuration.
    pub series: Vec<SpeedupSeries>,
}

impl SpeedupFigure {
    /// Renders the figure as a text table (apps as rows, series as
    /// columns, average as the last row).
    pub fn to_table(&self) -> TextTable {
        let headers: Vec<&str> = self.series.iter().map(|s| s.label.as_str()).collect();
        let mut t = TextTable::new(self.title.clone(), &headers);
        for (i, app) in self.apps.iter().enumerate() {
            t.row(
                *app,
                self.series
                    .iter()
                    .map(|s| TextTable::pct(s.per_app[i]))
                    .collect(),
            );
        }
        t.row(
            "Average",
            self.series
                .iter()
                .map(|s| TextTable::pct(s.average()))
                .collect(),
        );
        t
    }

    /// The average speedup of the series with the given label.
    pub fn average_of(&self, label: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.average())
    }
}

/// The paper's standard CBP table sizes plus the unlimited reference.
pub const TABLE_SIZES: [(&str, TableSize); 4] = [
    ("64-entry", TableSize::Entries(64)),
    ("256-entry", TableSize::Entries(256)),
    ("1024-entry", TableSize::Entries(1024)),
    ("Unlimited", TableSize::Unlimited),
];

/// Figure 1: percentage of dynamic long-latency loads that block the
/// ROB head, and percentage of cycles they block it, under FR-FCFS.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// `(app, blocked-load fraction, blocked-cycle fraction)`.
    pub rows: Vec<(&'static str, f64, f64)>,
}

impl Fig1 {
    /// Average blocked-load fraction (paper: 6.1%).
    pub fn avg_load_fraction(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.1).collect::<Vec<_>>())
    }

    /// Average blocked-cycle fraction (paper: 48.6%).
    pub fn avg_cycle_fraction(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.2).collect::<Vec<_>>())
    }

    /// Renders the figure.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 1: long-latency loads blocking the ROB head (FR-FCFS)",
            &["% dynamic loads", "% execution cycles"],
        );
        for (app, lf, cf) in &self.rows {
            t.row(*app, vec![TextTable::frac(*lf), TextTable::frac(*cf)]);
        }
        t.row(
            "Average",
            vec![
                TextTable::frac(self.avg_load_fraction()),
                TextTable::frac(self.avg_cycle_fraction()),
            ],
        );
        t
    }
}

/// Runs Figure 1.
pub fn fig1(r: &mut Runner) -> Fig1 {
    let apps = r.scale.apps.clone();
    let rows = apps
        .iter()
        .map(|&app| {
            let s = r.baseline(app);
            (app, s.blocked_load_fraction(), s.blocked_cycle_fraction())
        })
        .collect();
    Fig1 { rows }
}

/// Runs one speedup series: per-app speedup of `(sched, pred)` over
/// the FR-FCFS baseline.
fn series(r: &mut Runner, label: &str, sched: SchedulerKind, pred: PredictorKind) -> SpeedupSeries {
    let apps = r.scale.apps.clone();
    let per_app = apps
        .iter()
        .map(|&app| {
            let base = r.baseline(app);
            let v = r.parallel(app, sched, pred);
            base.cycles as f64 / v.cycles as f64
        })
        .collect();
    SpeedupSeries {
        label: label.into(),
        per_app,
    }
}

/// Figure 3: Binary criticality — CLPT-Binary and the Binary CBP at
/// four table sizes, under both Crit-CASRAS and CASRAS-Crit.
pub fn fig3(r: &mut Runner) -> (SpeedupFigure, SpeedupFigure) {
    let mut figs = Vec::new();
    for sched in [SchedulerKind::CritCasRas, SchedulerKind::CasRasCrit] {
        let mut s = Vec::new();
        s.push(series(
            r,
            "CLPT-Binary",
            sched,
            PredictorKind::Clpt(ClptMode::Binary { threshold: 3 }),
        ));
        for (label, size) in TABLE_SIZES {
            s.push(series(
                r,
                &format!("Binary CBP {label}"),
                sched,
                PredictorKind::Cbp {
                    metric: CbpMetric::Binary,
                    size,
                    reset_interval: None,
                },
            ));
        }
        figs.push(SpeedupFigure {
            title: format!(
                "Figure 3: Binary criticality under {} (vs FR-FCFS)",
                sched.name()
            ),
            apps: r.scale.apps.clone(),
            series: s,
        });
    }
    let casras_crit = figs.pop().expect("two figures");
    let crit_casras = figs.pop().expect("two figures");
    (crit_casras, casras_crit)
}

/// Figure 4: ranked criticality metrics under CASRAS-Crit (64-entry
/// tables).
pub fn fig4(r: &mut Runner) -> SpeedupFigure {
    let sched = SchedulerKind::CasRasCrit;
    let mut s = vec![
        series(r, "Binary", sched, PredictorKind::cbp64(CbpMetric::Binary)),
        series(
            r,
            "CLPT-Consumers",
            sched,
            PredictorKind::Clpt(ClptMode::Consumers { threshold: 3 }),
        ),
    ];
    for metric in [
        CbpMetric::BlockCount,
        CbpMetric::LastStallTime,
        CbpMetric::MaxStallTime,
        CbpMetric::TotalStallTime,
    ] {
        s.push(series(
            r,
            metric.name(),
            sched,
            PredictorKind::cbp64(metric),
        ));
    }
    SpeedupFigure {
        title: "Figure 4: ranked criticality, CASRAS-Crit (vs FR-FCFS)".into(),
        apps: r.scale.apps.clone(),
        series: s,
    }
}

/// Figure 5: MaxStallTime CBP table-size sweep.
pub fn fig5(r: &mut Runner) -> SpeedupFigure {
    let mut s = Vec::new();
    for (label, size) in TABLE_SIZES {
        s.push(series(
            r,
            &format!("{label} Table"),
            SchedulerKind::CasRasCrit,
            PredictorKind::Cbp {
                metric: CbpMetric::MaxStallTime,
                size,
                reset_interval: None,
            },
        ));
    }
    SpeedupFigure {
        title: "Figure 5: MaxStallTime table-size sweep (vs FR-FCFS)".into(),
        apps: r.scale.apps.clone(),
        series: s,
    }
}

/// Figure 6: average L2-miss latency for critical vs non-critical
/// loads, under FR-FCFS / Binary / MaxStallTime.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `(app, [crit, non-crit] x [FR-FCFS, Binary, MaxStallTime])` in
    /// CPU cycles.
    pub rows: Vec<(&'static str, [f64; 6])>,
}

impl Fig6 {
    /// Renders the figure.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 6: average L2 miss latency, critical vs non-critical (CPU cycles)",
            &[
                "FR-FCFS crit",
                "FR-FCFS non",
                "Binary crit",
                "Binary non",
                "MaxStall crit",
                "MaxStall non",
            ],
        );
        for (app, vals) in &self.rows {
            t.row(*app, vals.iter().map(|v| format!("{v:.0}")).collect());
        }
        let avg: Vec<f64> = (0..6)
            .map(|i| mean(&self.rows.iter().map(|r| r.1[i]).collect::<Vec<_>>()))
            .collect();
        t.row("Average", avg.iter().map(|v| format!("{v:.0}")).collect());
        t
    }
}

/// Runs Figure 6. The FR-FCFS column attaches a MaxStallTime predictor
/// purely for classification (FR-FCFS ignores the annotation), exactly
/// so "critical" means the same population in all three columns.
pub fn fig6(r: &mut Runner) -> Fig6 {
    let apps = r.scale.apps.clone();
    let rows = apps
        .iter()
        .map(|&app| {
            let configs = [
                (
                    SchedulerKind::FrFcfs,
                    PredictorKind::cbp64(CbpMetric::MaxStallTime),
                ),
                (
                    SchedulerKind::CasRasCrit,
                    PredictorKind::cbp64(CbpMetric::Binary),
                ),
                (
                    SchedulerKind::CasRasCrit,
                    PredictorKind::cbp64(CbpMetric::MaxStallTime),
                ),
            ];
            let mut vals = [0.0f64; 6];
            for (i, (sched, pred)) in configs.into_iter().enumerate() {
                let s = r.parallel(app, sched, pred);
                vals[i * 2] = s.miss_latency_critical().unwrap_or(0.0);
                vals[i * 2 + 1] = s.miss_latency_noncritical().unwrap_or(0.0);
            }
            (app, vals)
        })
        .collect();
    Fig6 { rows }
}

/// Figure 7: the L2 stream prefetcher — FR-FCFS-Prefetch plus the five
/// CBP metrics with prefetching, all normalized to FR-FCFS *without*
/// prefetching.
pub fn fig7(r: &mut Runner) -> SpeedupFigure {
    let apps = r.scale.apps.clone();
    let mut series_out = Vec::new();
    let configs: Vec<(String, SchedulerKind, PredictorKind)> = {
        let mut v = vec![(
            "FR-FCFS-Prefetch".to_string(),
            SchedulerKind::FrFcfs,
            PredictorKind::None,
        )];
        for metric in CbpMetric::ALL {
            v.push((
                metric.name().to_string(),
                SchedulerKind::CasRasCrit,
                PredictorKind::cbp64(metric),
            ));
        }
        v
    };
    for (label, sched, pred) in configs {
        let per_app = apps
            .iter()
            .map(|&app| {
                let base = r.baseline(app);
                let v = r.parallel_with(app, sched, pred, "prefetch", |c| c.with_prefetcher());
                base.cycles as f64 / v.cycles as f64
            })
            .collect();
        series_out.push(SpeedupSeries { label, per_app });
    }
    SpeedupFigure {
        title: "Figure 7: with L2 stream prefetcher (vs FR-FCFS, no prefetch)".into(),
        apps,
        series: series_out,
    }
}

/// Figure 8: rank sweep for DDR3-1600 and DDR3-2133. Values are
/// average speedups relative to the same device's single-rank FR-FCFS.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// `(device, ranks, [FR-FCFS, Binary, MaxStallTime])`.
    pub rows: Vec<(&'static str, u8, [f64; 3])>,
}

impl Fig8 {
    /// Renders the figure.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 8: ranks-per-channel sweep (avg speedup vs 1-rank FR-FCFS)",
            &["FR-FCFS", "Binary", "MaxStallTime"],
        );
        for (dev, ranks, vals) in &self.rows {
            t.row(
                format!("{dev} x{ranks}"),
                vals.iter().map(|v| TextTable::ratio(*v)).collect(),
            );
        }
        t
    }

    /// Criticality gain (MaxStallTime over FR-FCFS) at the given rank
    /// count for a device.
    pub fn crit_gain(&self, dev: &str, ranks: u8) -> Option<f64> {
        self.rows
            .iter()
            .find(|(d, r, _)| *d == dev && *r == ranks)
            .map(|(_, _, v)| v[2] / v[0])
    }
}

/// Runs Figure 8 over the runner's sweep apps.
pub fn fig8(r: &mut Runner) -> Fig8 {
    let apps = r.scale.sweep_apps.clone();
    let schedulers = [
        ("FR-FCFS", SchedulerKind::FrFcfs, PredictorKind::None),
        (
            "Binary",
            SchedulerKind::CasRasCrit,
            PredictorKind::cbp64(CbpMetric::Binary),
        ),
        (
            "MaxStallTime",
            SchedulerKind::CasRasCrit,
            PredictorKind::cbp64(CbpMetric::MaxStallTime),
        ),
    ];
    let mut rows = Vec::new();
    for dev in ["DDR3-1600", "DDR3-2133"] {
        // Per-app single-rank FR-FCFS reference cycles.
        let mut reference = Vec::new();
        for &app in &apps {
            let s = r.parallel_with(
                app,
                SchedulerKind::FrFcfs,
                PredictorKind::None,
                &format!("{dev}-r1"),
                |mut c| {
                    c.dram.preset = critmem_dram::timing::preset_by_name(dev).expect("preset");
                    c.dram.org.ranks_per_channel = 1;
                    c
                },
            );
            reference.push(s.cycles as f64);
        }
        for ranks in [1u8, 2, 4] {
            let mut vals = [0.0f64; 3];
            for (si, (_, sched, pred)) in schedulers.iter().enumerate() {
                let speedups: Vec<f64> = apps
                    .iter()
                    .enumerate()
                    .map(|(ai, &app)| {
                        let s = r.parallel_with(
                            app,
                            *sched,
                            *pred,
                            &format!("{dev}-r{ranks}"),
                            |mut c| {
                                c.dram.preset =
                                    critmem_dram::timing::preset_by_name(dev).expect("preset");
                                c.dram.org.ranks_per_channel = ranks;
                                c
                            },
                        );
                        reference[ai] / s.cycles as f64
                    })
                    .collect();
                vals[si] = mean(&speedups);
            }
            rows.push((dev, ranks, vals));
        }
    }
    Fig8 { rows }
}

/// Figure 9: load-queue size sweep. Values are average speedups
/// relative to the 32-entry FR-FCFS baseline.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// `(lq entries, [FR-FCFS, Binary, MaxStallTime])`.
    pub rows: Vec<(usize, [f64; 3])>,
    /// Fraction of time the 32-entry LQ was full under FR-FCFS (§5.6
    /// reports 19.3%).
    pub lq32_full_fraction: f64,
}

impl Fig9 {
    /// Renders the figure.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!(
                "Figure 9: load-queue sweep (avg vs 32-entry FR-FCFS; LQ32 full {} of time)",
                TextTable::frac(self.lq32_full_fraction)
            ),
            &["FR-FCFS", "Binary", "MaxStallTime"],
        );
        for (lq, vals) in &self.rows {
            t.row(
                format!("LQ {lq}"),
                vals.iter().map(|v| TextTable::ratio(*v)).collect(),
            );
        }
        t
    }

    /// Criticality gain (MaxStallTime over FR-FCFS) at an LQ size.
    pub fn crit_gain(&self, lq: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|(l, _)| *l == lq)
            .map(|(_, v)| v[2] / v[0])
    }
}

/// Runs Figure 9 over the runner's sweep apps.
pub fn fig9(r: &mut Runner) -> Fig9 {
    let apps = r.scale.sweep_apps.clone();
    let schedulers = [
        (SchedulerKind::FrFcfs, PredictorKind::None),
        (
            SchedulerKind::CasRasCrit,
            PredictorKind::cbp64(CbpMetric::Binary),
        ),
        (
            SchedulerKind::CasRasCrit,
            PredictorKind::cbp64(CbpMetric::MaxStallTime),
        ),
    ];
    // 32-entry FR-FCFS reference.
    let mut reference = Vec::new();
    let mut full_fracs = Vec::new();
    for &app in &apps {
        let s = r.baseline(app);
        reference.push(s.cycles as f64);
        full_fracs.push(s.lq_full_fraction());
    }
    let mut rows = Vec::new();
    for lq in [32usize, 48, 64] {
        let mut vals = [0.0f64; 3];
        for (si, (sched, pred)) in schedulers.iter().enumerate() {
            let speedups: Vec<f64> = apps
                .iter()
                .enumerate()
                .map(|(ai, &app)| {
                    let s = r.parallel_with(app, *sched, *pred, &format!("lq{lq}"), |mut c| {
                        c.core.lq_entries = lq;
                        c
                    });
                    reference[ai] / s.cycles as f64
                })
                .collect();
            vals[si] = mean(&speedups);
        }
        rows.push((lq, vals));
    }
    Fig9 {
        rows,
        lq32_full_fraction: mean(&full_fracs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::Scale;

    fn tiny_runner() -> Runner {
        Runner::new(Scale {
            instructions: 1_500,
            apps: vec!["swim"],
            sweep_apps: vec!["swim"],
            bundles: vec![],
        })
    }

    #[test]
    fn fig1_reports_blocking() {
        let mut r = tiny_runner();
        let f = fig1(&mut r);
        assert_eq!(f.rows.len(), 1);
        assert!(f.avg_cycle_fraction() > 0.0);
        assert!(f.to_table().to_string().contains("Figure 1"));
    }

    #[test]
    fn fig4_has_six_series() {
        let mut r = tiny_runner();
        let f = fig4(&mut r);
        assert_eq!(f.series.len(), 6);
        assert!(f.average_of("MaxStallTime").is_some());
        assert!(f.average_of("nonsense").is_none());
        for s in &f.series {
            assert!(s.average() > 0.5, "{}: implausible speedup", s.label);
        }
    }

    #[test]
    fn fig9_normalizes_to_lq32_frfcfs() {
        let mut r = tiny_runner();
        let f = fig9(&mut r);
        assert_eq!(f.rows.len(), 3);
        let (lq, vals) = f.rows[0];
        assert_eq!(lq, 32);
        assert!(
            (vals[0] - 1.0).abs() < 1e-9,
            "LQ32 FR-FCFS must be the unit reference"
        );
    }
}
