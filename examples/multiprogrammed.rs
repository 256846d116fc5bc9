//! Multiprogrammed throughput and fairness (§5.8.2).
//!
//! Runs the RFGI bundle (art1 - mcf - mg1 - is: one cache-sensitive
//! app against three memory hogs) on the quad-core, dual-channel
//! configuration under PAR-BS, TCM, and the paper's criticality-aware
//! scheduler, reporting weighted speedup and maximum slowdown.
//!
//! ```text
//! cargo run --release --example multiprogrammed
//! ```

use critmem::metrics::{max_slowdown, weighted_speedup};
use critmem::{AgentMix, PredictorKind, RunStats, Session, SystemConfig};
use critmem_predict::CbpMetric;
use critmem_sched::{SchedulerKind, TcmTiebreak};
use critmem_workloads::bundle;

fn run(cfg: SystemConfig, workload: &AgentMix) -> RunStats {
    Session::new(cfg, workload)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
        .stats
}

fn main() {
    let instructions = 12_000;
    let bundle_name = "RFGI";
    let b = bundle(bundle_name).expect("known bundle");
    println!(
        "bundle {bundle_name}: {:?}, {instructions} instructions/app\n",
        b.apps
    );

    // Per-app alone IPCs on the PAR-BS baseline configuration.
    let alone: Vec<f64> = b
        .apps
        .iter()
        .map(|&app| {
            let mut cfg = SystemConfig::multiprogrammed_baseline(instructions);
            cfg.cores = 1;
            cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(1);
            cfg.hierarchy.l2_mshrs = 32;
            let stats = run(cfg, &AgentMix::alone(app));
            let ipc = stats.ipc(0);
            println!("  alone IPC {app:<7} = {ipc:.3}");
            ipc
        })
        .collect();

    let schedulers: Vec<(&str, SchedulerKind, PredictorKind)> = vec![
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

    println!();
    let mut ws_parbs = None;
    for (name, sched, pred) in schedulers {
        let cfg = SystemConfig::multiprogrammed_baseline(instructions)
            .with_scheduler(sched)
            .with_predictor(pred);
        let stats = run(cfg, &AgentMix::bundle(bundle_name));
        let ws = weighted_speedup(&stats, &alone);
        let ms = max_slowdown(&stats, &alone);
        let ws_parbs = *ws_parbs.get_or_insert(ws);
        println!(
            "{name:<17} weighted speedup {ws:.3} ({:+.1}% vs PAR-BS), max slowdown {ms:.2}",
            (ws / ws_parbs - 1.0) * 100.0
        );
    }
}
