//! Determinism suite for the parallel experiment engine: a runner with
//! `jobs = 4` must produce exactly the same tables and memo-table
//! contents as a serial runner, for every experiment family the `repro`
//! binary drives through [`Runner::run_parallel`].

use critmem::experiments::{ablations, fig10, fig12, trace_sweep, Runner, Scale};

fn tiny_scale() -> Scale {
    Scale {
        instructions: 1_200,
        apps: vec!["swim", "mg"],
        sweep_apps: vec!["swim"],
        bundles: vec!["AELV"],
    }
}

fn runner(jobs: usize) -> Runner {
    let mut r = Runner::new(tiny_scale());
    r.jobs = jobs;
    r
}

#[test]
fn compare_figures_identical_across_jobs() {
    let mut serial = runner(1);
    let mut parallel = runner(4);
    let a = serial.run_parallel(fig10).to_table().to_string();
    let b = parallel.run_parallel(fig10).to_table().to_string();
    assert_eq!(a, b, "fig10 table must not depend on jobs");
    assert_eq!(serial.runs_executed(), parallel.runs_executed());
    assert_eq!(serial.memo_snapshot(), parallel.memo_snapshot());
}

#[test]
fn multiprog_identical_across_jobs() {
    let mut serial = runner(1);
    let mut parallel = runner(4);
    let a = serial.run_parallel(fig12).to_table().to_string();
    let b = parallel.run_parallel(fig12).to_table().to_string();
    assert_eq!(a, b, "fig12 table must not depend on jobs");
    assert_eq!(serial.memo_snapshot(), parallel.memo_snapshot());
}

#[test]
fn ablations_identical_across_jobs() {
    // The tagged cells (caps, cache-line interleaving) run their config
    // tweaks through plan/execute like any untagged cell.
    let tables = |r: &mut Runner| r.run_parallel(ablations).to_tables().map(|t| t.to_string());
    let mut serial = runner(1);
    let mut parallel = runner(2);
    assert_eq!(
        tables(&mut serial),
        tables(&mut parallel),
        "ablation tables must not depend on jobs"
    );
    assert_eq!(serial.memo_snapshot(), parallel.memo_snapshot());
}

#[test]
fn trace_sweep_identical_across_jobs() {
    let mut serial = runner(1);
    let mut parallel = runner(4);
    // `trace_sweep` calls `run_parallel` internally, phase by phase.
    let a = trace_sweep(&mut serial, "swim").to_table().to_string();
    let b = trace_sweep(&mut parallel, "swim").to_table().to_string();
    assert_eq!(a, b, "trace sweep table must not depend on jobs");
    assert_eq!(serial.replays_executed(), parallel.replays_executed());
    assert_eq!(serial.memo_snapshot(), parallel.memo_snapshot());
}

#[test]
fn parallel_run_warms_the_same_cache_as_serial() {
    // After a parallel run, a repeat of the same experiment must be
    // pure cache recall (no new simulations) — the memo-merge step
    // really did populate the cache, not a side table.
    let mut r = runner(4);
    let _ = r.run_parallel(fig10);
    let executed = r.runs_executed();
    let _ = r.run_parallel(fig10);
    assert_eq!(r.runs_executed(), executed, "second pass must be free");
}

#[test]
fn reentrant_run_parallel_is_serial_and_correct() {
    // An experiment that itself calls run_parallel must not deadlock or
    // double-plan when invoked under an outer run_parallel.
    let mut r = runner(4);
    let table = r
        .run_parallel(|r| r.run_parallel(fig10).to_table().to_string())
        .to_string();
    let mut serial = runner(1);
    let expect = serial.run_parallel(fig10).to_table().to_string();
    assert_eq!(table, expect);
}
