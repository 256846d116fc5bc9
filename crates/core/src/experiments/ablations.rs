//! Ablations of three design decisions: where criticality sits in the
//! age comparator (Crit-CASRAS vs CASRAS-Crit, §5.2, which the paper
//! finds equivalent), the starvation cap (§3.2: 6,000 DRAM cycles,
//! "never reached"), and page vs cache-line interleaving under
//! FR-FCFS. The fourth, periodic CBP reset (§5.3.2), is
//! [`reset_study`](super::reset_study).

use crate::config::PredictorKind;
use crate::experiments::harness::{Runner, TextTable};
use crate::metrics::mean;
use critmem_dram::Interleaving;
use critmem_predict::CbpMetric;
use critmem_sched::SchedulerKind;

/// The starvation caps swept, in DRAM cycles. The paper's 6,000 is
/// the platform default.
const STARVATION_CAPS: [u64; 3] = [1_500, 6_000, 24_000];

/// The three ablations, all under the 64-entry MaxStallTime CBP
/// except the interleaving one, which is plain FR-FCFS.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Apps, in row order.
    pub apps: Vec<&'static str>,
    /// Per-app speedups over FR-FCFS: `(Crit-CASRAS, CASRAS-Crit)`.
    pub arrangement: Vec<(f64, f64)>,
    /// Average CASRAS-Crit speedup over FR-FCFS per starvation cap.
    pub caps: Vec<(u64, f64)>,
    /// Per-app FR-FCFS cycles under cache-line interleaving over
    /// cycles under page interleaving.
    pub interleaving: Vec<f64>,
}

impl Ablations {
    /// Renders one table per ablation.
    pub fn to_tables(&self) -> [TextTable; 3] {
        let mut arrangement = TextTable::new(
            "Ablation: Crit-CASRAS vs CASRAS-Crit (MaxStallTime, vs FR-FCFS)",
            &["Crit-CASRAS", "CASRAS-Crit"],
        );
        for (app, (a, b)) in self.apps.iter().zip(&self.arrangement) {
            arrangement.row(*app, vec![TextTable::pct(*a), TextTable::pct(*b)]);
        }
        let mut caps = TextTable::new(
            "Ablation: starvation cap (MaxStallTime, avg speedup vs FR-FCFS)",
            &["speedup"],
        );
        for (cap, avg) in &self.caps {
            caps.row(format!("cap {cap}"), vec![TextTable::pct(*avg)]);
        }
        let mut interleaving = TextTable::new(
            "Ablation: address interleaving (FR-FCFS, cycles ratio cacheline/page)",
            &["page vs cache-line"],
        );
        for (app, ratio) in self.apps.iter().zip(&self.interleaving) {
            interleaving.row(*app, vec![TextTable::ratio(*ratio)]);
        }
        [arrangement, caps, interleaving]
    }
}

/// Runs the three ablations over the runner's apps. The cells at the
/// platform defaults are the shared untagged ones: the default cap is
/// the CASRAS-Crit cell of Figure 4, and page interleaving is the
/// FR-FCFS baseline.
pub fn ablations(r: &mut Runner) -> Ablations {
    let apps = r.scale.apps.clone();
    let pred = PredictorKind::cbp64(CbpMetric::MaxStallTime);
    let default_cap = r.parallel_cfg().dram.starvation_cap;
    let mut arrangement = Vec::new();
    let mut cap_speedups = vec![Vec::new(); STARVATION_CAPS.len()];
    let mut interleaving = Vec::new();
    for &app in &apps {
        let base = r.baseline(app).cycles as f64;
        let crit_casras = r.parallel(app, SchedulerKind::CritCasRas, pred).cycles as f64;
        let casras_crit = r.parallel(app, SchedulerKind::CasRasCrit, pred).cycles as f64;
        arrangement.push((base / crit_casras, base / casras_crit));
        for (speedups, cap) in cap_speedups.iter_mut().zip(STARVATION_CAPS) {
            let cycles = if cap == default_cap {
                casras_crit
            } else {
                r.parallel_with(
                    app,
                    SchedulerKind::CasRasCrit,
                    pred,
                    &format!("cap{cap}"),
                    |mut c| {
                        c.dram.starvation_cap = cap;
                        c
                    },
                )
                .cycles as f64
            };
            speedups.push(base / cycles);
        }
        let line = r.parallel_with(
            app,
            SchedulerKind::FrFcfs,
            PredictorKind::None,
            "cacheline",
            |mut c| {
                c.dram.interleaving = Interleaving::CacheLine;
                c
            },
        );
        interleaving.push(line.cycles as f64 / base);
    }
    let caps = STARVATION_CAPS
        .into_iter()
        .zip(&cap_speedups)
        .map(|(cap, speedups)| (cap, mean(speedups)))
        .collect();
    Ablations {
        apps,
        arrangement,
        caps,
        interleaving,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::Scale;

    #[test]
    fn default_cells_are_shared_not_rerun() {
        let mut r = Runner::new(Scale {
            instructions: 1_500,
            apps: vec!["swim", "mg"],
            sweep_apps: vec![],
            bundles: vec![],
        });
        let a = r.run_parallel(ablations);
        // Per app: baseline (= page), Crit-CASRAS, CASRAS-Crit
        // (= cap 6000), cap 1500, cap 24000 and cache-line.
        assert_eq!(r.runs_executed(), 6 * 2);
        assert_eq!(a.caps.len(), STARVATION_CAPS.len());
        let at_default = mean(&a.arrangement.iter().map(|p| p.1).collect::<Vec<_>>());
        assert_eq!(a.caps[1], (6_000, at_default));
        let [arrangement, caps, interleaving] = a.to_tables().map(|t| t.to_string());
        assert!(arrangement.contains("Ablation: Crit-CASRAS vs CASRAS-Crit"));
        assert!(caps.contains("cap 24000"));
        assert!(interleaving.contains("Ablation: address interleaving"));
    }
}
