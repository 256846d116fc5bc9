//! Fault-isolated sweeps and resumable journals: one bad cell must
//! never cost the rest of the sweep, and a journaled sweep must resume
//! to byte-identical results.

use critmem::config::{AgentMix, PredictorKind};
use critmem::experiments::{Runner, Scale};
use critmem::journal::SweepJournal;
use critmem_common::SimError;
use critmem_sched::SchedulerKind;
use std::path::PathBuf;

fn tiny_scale() -> Scale {
    Scale {
        instructions: 500,
        ..Scale::quick()
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("critmem-resilience-{name}-{}", std::process::id()));
    p
}

/// A cell that livelocks (wedged scheduler, watchdog trip) is recorded
/// as a per-cell failure while the surrounding cells complete and the
/// figure still renders from placeholder values.
#[test]
fn wedged_cell_fails_alone_and_the_sweep_survives() {
    let mut r = Runner::new(tiny_scale());
    let good_before = r.baseline("swim");
    let bad = r.parallel("swim", SchedulerKind::Wedged, PredictorKind::None);
    let good_after = r.baseline("mg");
    assert!(good_before.cycles > 1 && good_after.cycles > 1);
    assert_eq!(bad.cycles, 1, "failed cell must hold the placeholder");
    assert!(r.has_failures());
    assert_eq!(r.failures().len(), 1);
    let f = &r.failures()[0];
    assert!(f.label.contains("Wedged"), "{}", f.label);
    assert!(matches!(f.error, SimError::Watchdog(_)), "{:?}", f.error);
    // The placeholder is memoized: re-requesting the failed cell must
    // not re-run the livelock (and must not duplicate the failure).
    let again = r.parallel("swim", SchedulerKind::Wedged, PredictorKind::None);
    assert!(std::sync::Arc::ptr_eq(&bad, &again));
    assert_eq!(r.failures().len(), 1);
}

/// Typed per-cell errors (not just panics) are isolated on the
/// parallel path too, and the result is independent of the job count.
#[test]
fn parallel_sweep_with_wedged_cell_matches_serial() {
    let sweep = |jobs: usize| {
        let mut r = Runner::new(tiny_scale());
        r.jobs = jobs;
        r.run_parallel(|r| {
            for app in ["swim", "mg"] {
                r.baseline(app);
                r.parallel(app, SchedulerKind::Wedged, PredictorKind::None);
            }
        });
        let failures: Vec<String> = r.failures().iter().map(|f| f.label.clone()).collect();
        (r.memo_snapshot(), failures)
    };
    let (snap_serial, fail_serial) = sweep(1);
    let (snap_parallel, mut fail_parallel) = sweep(4);
    assert_eq!(snap_serial, snap_parallel);
    assert_eq!(fail_serial.len(), 2);
    // run_parallel reports plan-order failures; serial reports
    // call-order. Same set either way.
    fail_parallel.sort();
    let mut fail_serial = fail_serial;
    fail_serial.sort();
    assert_eq!(fail_serial, fail_parallel);
}

/// An unknown workload surfaces as a config-class failure in the
/// sweep, not an abort.
#[test]
fn unknown_workload_cell_is_contained() {
    let mut r = Runner::new(tiny_scale());
    let stats = r.run_keyed(
        "bogus|case".to_string(),
        r.parallel_cfg(),
        &AgentMix::Parallel("not-an-app"),
    );
    assert_eq!(stats.cycles, 1, "placeholder for the failed cell");
    assert_eq!(r.failures().len(), 1);
    assert!(
        matches!(r.failures()[0].error, SimError::UnknownWorkload { .. }),
        "{:?}",
        r.failures()[0].error
    );
}

/// A shared warmup that fails (here on an unknown workload) is recorded
/// once, and its cells fall back to cold runs, which fail on their own.
/// A second cell on the same workload must not re-run the failed
/// warmup. Direct calls and the pooled engine agree on all of it.
#[test]
fn failed_warmup_is_recorded_once_at_every_job_count() {
    let sweep = |jobs: usize| {
        let mut r = Runner::new(tiny_scale());
        r.jobs = jobs;
        r.warm_cycles = Some(1_000);
        let bogus = AgentMix::Parallel("not-an-app");
        r.run_parallel(|r| {
            for sched in [SchedulerKind::FrFcfs, SchedulerKind::CasRasCrit] {
                let cfg = r.parallel_cfg().with_scheduler(sched);
                let stats = r.run_keyed(format!("bogus|{}", sched.name()), cfg, &bogus);
                assert_eq!(stats.cycles, 1, "placeholder for the failed cell");
            }
        });
        let mut failures: Vec<String> = r.failures().iter().map(|f| f.label.clone()).collect();
        assert_eq!(failures.len(), 3, "one warmup + two cells: {failures:?}");
        assert_eq!(
            failures.iter().filter(|k| k.starts_with("warmup:")).count(),
            1,
            "{failures:?}"
        );
        assert!(
            r.failures()
                .iter()
                .all(|f| matches!(f.error, SimError::UnknownWorkload { .. })),
            "{:?}",
            r.failures()
        );
        assert_eq!(r.runs_executed(), 3, "the warmup once, then each cell");
        failures.sort();
        (failures, r.memo_snapshot(), r.runs_executed())
    };
    assert_eq!(sweep(1), sweep(4));
}

/// A journaled sweep resumes without re-running completed cells and
/// reproduces the identical memo table.
#[test]
fn journal_resume_skips_completed_cells_byte_for_byte() {
    let path = tmp("resume");
    let drive = |r: &mut Runner| {
        for app in ["swim", "mg"] {
            r.baseline(app);
            r.parallel(app, SchedulerKind::CasRasCrit, PredictorKind::None);
            r.replay(app, SchedulerKind::FrFcfs);
        }
    };

    // First pass: run everything under a journal.
    let mut first = Runner::new(tiny_scale());
    first.set_journal(SweepJournal::create(&path).unwrap());
    drive(&mut first);
    assert_eq!(first.runs_executed(), 6); // 4 runs + 2 captures
    assert_eq!(first.replays_executed(), 2);
    let reference = first.memo_snapshot();

    // Resume: every journaled cell preloads; only the captures (which
    // are intermediate artifacts, deliberately not journaled) re-run.
    let (journal, entries) = SweepJournal::resume(&path).unwrap();
    assert_eq!(entries.len(), 6, "4 runs + 2 replays journaled");
    let mut resumed = Runner::new(tiny_scale());
    resumed.preload(entries);
    resumed.set_journal(journal);
    drive(&mut resumed);
    assert_eq!(resumed.runs_executed(), 0, "no run or capture re-executed");
    assert_eq!(resumed.replays_executed(), 0, "no replay re-executed");
    assert_eq!(resumed.memo_snapshot(), reference);
    assert!(!resumed.has_failures());
    std::fs::remove_file(&path).unwrap();
}

/// Failed cells are not journaled: a resume retries exactly them.
#[test]
fn journal_resume_retries_only_the_failed_cell() {
    let path = tmp("retry");
    let mut first = Runner::new(tiny_scale());
    first.set_journal(SweepJournal::create(&path).unwrap());
    first.baseline("swim");
    first.parallel("swim", SchedulerKind::Wedged, PredictorKind::None);
    assert_eq!(first.failures().len(), 1);

    let (journal, entries) = SweepJournal::resume(&path).unwrap();
    assert_eq!(entries.len(), 1, "only the good cell was journaled");
    let mut resumed = Runner::new(tiny_scale());
    resumed.preload(entries);
    resumed.set_journal(journal);
    resumed.baseline("swim");
    assert_eq!(
        resumed.runs_executed(),
        0,
        "good cell came from the journal"
    );
    // The wedged cell is retried (and, being genuinely wedged, fails
    // again — but it was retried, which is the contract).
    resumed.parallel("swim", SchedulerKind::Wedged, PredictorKind::None);
    assert_eq!(resumed.runs_executed(), 1);
    assert_eq!(resumed.failures().len(), 1);
    std::fs::remove_file(&path).unwrap();
}
