//! Forward-progress watchdog: never fires on healthy tier-1 workloads
//! under any ranking metric, always fires (with a complete diagnostic
//! snapshot) on an artificially wedged memory controller.

use critmem::config::{AgentMix, PredictorKind, SystemConfig};
use critmem::{RunStats, Session, System};
use critmem_common::{SimError, WatchdogReason};
use critmem_predict::CbpMetric;
use critmem_sched::SchedulerKind;
use critmem_trace::{ReplayConfig, TraceSource};

fn small_cfg(instructions: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(instructions);
    cfg.cores = 2;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    cfg
}

fn try_run(cfg: SystemConfig, workload: &AgentMix) -> Result<RunStats, SimError> {
    Session::new(cfg, workload).run().map(|out| out.stats)
}

/// The watchdog's thresholds sit far outside healthy behavior: a
/// seeded sweep over every CBP ranking metric and every tier-1 app
/// must complete without a single trip.
#[test]
fn never_fires_on_healthy_workloads_under_all_metrics() {
    let metrics = [
        CbpMetric::Binary,
        CbpMetric::BlockCount,
        CbpMetric::LastStallTime,
        CbpMetric::MaxStallTime,
        CbpMetric::TotalStallTime,
    ];
    for app in ["art", "mg", "swim"] {
        for metric in metrics {
            let cfg = small_cfg(1_500)
                .with_scheduler(SchedulerKind::CasRasCrit)
                .with_predictor(PredictorKind::cbp64(metric));
            assert!(cfg.watchdog.enabled(), "default watchdog must be armed");
            let stats = try_run(cfg, &AgentMix::Parallel(app)).unwrap_or_else(|e| {
                panic!("watchdog fired on healthy {app}/{metric:?}: {e}");
            });
            assert!(
                stats.cores.iter().all(|c| c.committed >= 1_500),
                "{app}/{metric:?} did not finish"
            );
        }
    }
}

/// A scheduler that never issues a command is the canonical livelock:
/// the watchdog must catch it and the snapshot must carry the full
/// diagnosis (per-core state, MSHRs, per-bank queues).
#[test]
fn wedged_scheduler_trips_with_complete_snapshot() {
    let cfg = small_cfg(5_000).with_scheduler(SchedulerKind::Wedged);
    let err = try_run(cfg, &AgentMix::Parallel("swim"))
        .expect_err("a wedged controller must trip the watchdog");
    let SimError::Watchdog(snap) = err else {
        panic!("expected a watchdog error, got {err:?}");
    };
    assert!(
        matches!(
            snap.reason,
            WatchdogReason::StarvedRequest { .. } | WatchdogReason::NoCommit { .. }
        ),
        "unexpected trip reason: {:?}",
        snap.reason
    );
    assert!(snap.cycle > 0);
    assert_eq!(snap.committed.len(), 2, "one commit count per core");
    assert_eq!(snap.rob_head_pc.len(), 2, "one ROB head PC per core");
    assert!(
        snap.rob_head_pc.iter().any(|pc| pc.is_some()),
        "a stuck core must have a blocked ROB head"
    );
    assert!(snap.mshr_occupancy > 0, "stuck misses must occupy MSHRs");
    assert!(
        !snap.bank_queues.is_empty(),
        "wedged requests must be visible in the bank queues"
    );
    assert!(snap.bank_queues.iter().all(|b| b.queued > 0));
    let werr = SimError::Watchdog(snap);
    assert_eq!(werr.exit_code(), 3);
    let rendered = werr.to_string();
    assert!(rendered.contains("bank"), "{rendered}");
    assert!(rendered.contains("cycle"), "{rendered}");
}

/// The cycle-budget guard is a watchdog error too (it used to be a
/// bare assert), so a too-small budget is reported, not aborted.
#[test]
fn cycle_budget_overrun_is_a_typed_error() {
    let mut cfg = small_cfg(50_000);
    cfg.max_cycles = 2_000; // far too small to finish
    let err =
        try_run(cfg, &AgentMix::Parallel("swim")).expect_err("budget overrun must be an error");
    match err {
        SimError::Watchdog(snap) => {
            assert_eq!(
                snap.reason,
                WatchdogReason::CycleLimit { max_cycles: 2_000 }
            );
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

/// The replay path carries the same protection: a wedged scheduler on
/// a captured trace is caught instead of spinning forever.
#[test]
fn replay_watchdog_catches_a_wedged_scheduler() {
    let cfg = small_cfg(1_500);
    let trace = Session::new(cfg.clone(), &AgentMix::Parallel("swim"))
        .traced("swim")
        .run()
        .expect("capture must succeed")
        .observer
        .into_trace();
    assert!(!trace.records.is_empty(), "swim must miss the L2");
    let err = critmem::replay(
        TraceSource::from(trace),
        SchedulerKind::Wedged,
        ReplayConfig::default(),
    )
    .expect_err("wedged replay must trip the watchdog");
    let SimError::Watchdog(snap) = err else {
        panic!("expected a watchdog error, got {err:?}");
    };
    assert!(matches!(
        snap.reason,
        WatchdogReason::StarvedRequest { .. } | WatchdogReason::NoCommit { .. }
    ));
    assert!(
        !snap.bank_queues.is_empty(),
        "stuck requests must appear in the snapshot"
    );
}

/// Disabling the watchdog really disables it: the wedged run then hits
/// the cycle budget instead of the progress checks.
#[test]
fn disabled_watchdog_falls_through_to_cycle_budget() {
    let mut cfg = small_cfg(5_000).with_scheduler(SchedulerKind::Wedged);
    cfg.watchdog = critmem_common::WatchdogConfig::disabled();
    cfg.max_cycles = 100_000;
    let err = try_run(cfg, &AgentMix::Parallel("swim")).expect_err("still wedged");
    match err {
        SimError::Watchdog(snap) => assert_eq!(
            snap.reason,
            WatchdogReason::CycleLimit {
                max_cycles: 100_000
            }
        ),
        other => panic!("expected cycle-limit watchdog, got {other:?}"),
    }
}

/// `System::try_with_observer` reports bad workloads as typed config
/// errors with the config-class exit code.
#[test]
fn unknown_workloads_are_config_errors() {
    let cfg = small_cfg(1_000);
    let err = System::try_new(cfg, &AgentMix::Parallel("not-an-app"))
        .map(|_| ())
        .expect_err("unknown app must be rejected");
    assert!(matches!(err, SimError::UnknownWorkload { .. }), "{err:?}");
    assert_eq!(err.exit_code(), 2);
}
