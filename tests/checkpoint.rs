//! End-to-end contract of the checkpoint & warm-start engine
//! (DESIGN.md §6g): bit-exact same-config restores across every CBP
//! annotation metric, the component-swap equivalence, typed errors on
//! corrupt `CMCK` artifacts, and the `--jobs N` determinism of
//! warm-started sweeps.

use critmem::config::{AgentMix, PredictorKind, SystemConfig};
use critmem::experiments::{CellId, Runner, Scale};
use critmem::{Checkpoint, RunStats, Session, System};
use critmem_common::codec::ByteWriter;
use critmem_common::SimError;
use critmem_predict::CbpMetric;
use critmem_sched::SchedulerKind;

const BOUNDARY: u64 = 2_500;

fn small_cfg(instructions: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(instructions);
    cfg.cores = 2;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    cfg.max_cycles = 50_000_000;
    cfg
}

fn encode(stats: &RunStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    stats.encode(&mut w);
    w.into_bytes()
}

/// Checkpointing mid-run and restoring under the *same* configuration
/// must be invisible: every statistic of the continued run is
/// bit-identical to the uninterrupted run, for each of the five CBP
/// annotation metrics (whose table state rides inside the snapshot).
#[test]
fn same_config_restore_is_bit_exact_for_every_cbp_metric() {
    let wl = AgentMix::Parallel("swim");
    for metric in [
        CbpMetric::Binary,
        CbpMetric::BlockCount,
        CbpMetric::LastStallTime,
        CbpMetric::MaxStallTime,
        CbpMetric::TotalStallTime,
    ] {
        let cfg = small_cfg(2_000)
            .with_scheduler(SchedulerKind::CasRasCrit)
            .with_predictor(PredictorKind::cbp64(metric));
        let cold = Session::new(cfg.clone(), &wl)
            .run()
            .unwrap_or_else(|e| panic!("{metric:?} cold: {e}"))
            .stats;
        let ckpt = Session::new(cfg.clone(), &wl)
            .checkpoint_at(BOUNDARY)
            .run_to_checkpoint()
            .unwrap_or_else(|e| panic!("{metric:?} warmup: {e}"));
        // Round-trip through the CMCK wire format so the on-disk path
        // is part of the equivalence, not just the in-memory object.
        let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        let warm = Session::from_checkpoint(&ckpt, cfg, &wl)
            .run()
            .unwrap_or_else(|e| panic!("{metric:?} warm: {e}"))
            .stats;
        assert_eq!(
            encode(&cold),
            encode(&warm),
            "{metric:?}: warm continuation diverged from the cold run"
        );
    }
}

/// Restoring a baseline checkpoint under a *different* scheduler and
/// predictor must equal driving the baseline system to the boundary
/// and swapping the components in place — the warm-start engine's
/// correctness anchor for shared-warmup sweeps.
#[test]
fn component_swap_matches_in_place_reconfigure() {
    let wl = AgentMix::Parallel("swim");
    let base = small_cfg(2_000); // FR-FCFS, no predictor
    let sched = SchedulerKind::CasRasCrit;
    let pred = PredictorKind::cbp64(CbpMetric::MaxStallTime);

    let ckpt = Session::new(base.clone(), &wl)
        .checkpoint_at(BOUNDARY)
        .run_to_checkpoint()
        .unwrap();
    let warm = Session::from_checkpoint(
        &ckpt,
        base.clone().with_scheduler(sched).with_predictor(pred),
        &wl,
    )
    .run()
    .unwrap()
    .stats;

    // Reference arm: one uninterrupted system, components swapped at
    // the same cycle.
    let mut sys = System::try_new(base, &wl).unwrap();
    while sys.now() < BOUNDARY && !sys.done() {
        sys.step();
    }
    sys.reconfigure(sched, pred);
    while !sys.done() {
        sys.step();
    }
    let reference = sys.into_stats();

    assert_eq!(
        encode(&warm),
        encode(&reference),
        "warm component swap diverged from in-place reconfigure"
    );
}

/// Checkpointing a heterogeneous mix holding all four agent classes
/// and restoring through the on-disk `CMCK` wire format must be
/// invisible: the continued run is bit-identical to the uninterrupted
/// one, agent state (stream positions, open batches, prefetch RNG,
/// overflow queue) included.
#[test]
fn hetero_mix_restore_is_bit_exact_for_all_four_classes() {
    let mix: AgentMix = "ooo:mcf*2+stream+bulk:copy+prefetch:wild"
        .parse()
        .expect("grammar");
    let mut cfg = SystemConfig::multiprogrammed_baseline(1_200);
    cfg.cores = 2;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    cfg.max_cycles = 50_000_000;
    // Streaming agents legitimately starve same-bank victims under
    // FR-FCFS; loosen the starvation watchdog accordingly.
    cfg.watchdog.max_request_age = 2_000_000;
    let cold = Session::new(cfg.clone(), &mix).run().unwrap().stats;
    let ckpt = Session::new(cfg.clone(), &mix)
        .checkpoint_at(BOUNDARY)
        .run_to_checkpoint()
        .unwrap();
    let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    let warm = Session::from_checkpoint(&ckpt, cfg, &mix)
        .run()
        .unwrap()
        .stats;
    assert_eq!(
        encode(&cold),
        encode(&warm),
        "hetero warm continuation diverged from the cold run"
    );
    assert_eq!(warm.agents.len(), 3);
}

/// Damaged `CMCK` files surface as typed errors — never panics — and a
/// healthy file survives the disk round-trip.
#[test]
fn corrupt_checkpoint_files_yield_typed_errors() {
    let wl = AgentMix::Parallel("swim");
    let ckpt = Session::new(small_cfg(1_000), &wl)
        .checkpoint_at(500)
        .run_to_checkpoint()
        .unwrap();
    let path = std::env::temp_dir().join(format!(
        "critmem-checkpoint-test-{}.cmck",
        std::process::id()
    ));
    ckpt.save(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(loaded.cycle(), ckpt.cycle());
    assert_eq!(loaded.state_len(), ckpt.state_len());

    let bytes = std::fs::read(&path).unwrap();

    // Torn tail (crash mid-write).
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    match Checkpoint::load(&path) {
        Err(SimError::Artifact(msg)) => {
            assert!(msg.contains("truncated"), "diagnosis: {msg}")
        }
        other => panic!("truncated file: expected Artifact error, got {other:?}"),
    }

    // Flipped payload byte (bit rot) — the CRC must catch it.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    std::fs::write(&path, &bad).unwrap();
    match Checkpoint::load(&path) {
        Err(SimError::Artifact(msg)) => assert!(msg.contains("CRC"), "diagnosis: {msg}"),
        other => panic!("corrupt file: expected Artifact error, got {other:?}"),
    }

    std::fs::remove_file(&path).ok();
    match Checkpoint::load(&path) {
        Err(SimError::Io { path: Some(p), .. }) => {
            assert!(p.contains("critmem-checkpoint-test"))
        }
        other => panic!("missing file: expected Io error, got {other:?}"),
    }
}

/// A warm-started sweep fanned out across worker threads produces the
/// same memoized results, cell for cell, as the same sweep run
/// serially — and every non-sampling cell is memoized under its
/// warm-started id, so journals never mix warm and cold results.
#[test]
fn warm_parallel_sweep_matches_serial() {
    let scheds = [
        SchedulerKind::FrFcfs,
        SchedulerKind::CritCasRas,
        SchedulerKind::CasRasCrit,
    ];
    let cbp = PredictorKind::cbp64(CbpMetric::MaxStallTime);
    let drive = |r: &mut Runner| {
        for sched in scheds {
            r.parallel("swim", sched, cbp);
        }
    };

    // Serial arm: direct calls, no plan/execute pooling.
    let mut serial = Runner::new(Scale::quick());
    serial.jobs = 1;
    serial.warm_cycles = Some(2_000);
    drive(&mut serial);
    assert!(!serial.has_failures(), "{:?}", serial.failures());

    // Parallel arm: planned, warmed once on the pool, fanned out.
    let mut pooled = Runner::new(Scale::quick());
    pooled.jobs = 4;
    pooled.warm_cycles = Some(2_000);
    pooled.run_parallel(|r| drive(r));
    assert!(!pooled.has_failures(), "{:?}", pooled.failures());

    assert_eq!(serial.memo_snapshot(), pooled.memo_snapshot());
    // 3 cells + 1 shared warmup on each arm.
    assert_eq!(serial.runs_executed(), 4);
    assert_eq!(pooled.runs_executed(), 4);
    let mut warm_ids: Vec<CellId> = scheds
        .iter()
        .map(|&sched| {
            let cfg = serial
                .parallel_cfg()
                .with_scheduler(sched)
                .with_predictor(cbp);
            CellId::run(&cfg, &AgentMix::Parallel("swim"), Some(2_000))
        })
        .collect();
    warm_ids.sort();
    let ids: Vec<CellId> = serial
        .memo_snapshot()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    assert_eq!(ids, warm_ids);
}

/// Warm and cold runs of the same cell must occupy different memo
/// entries, and sampling cells always run cold (their series must
/// cover the whole run, warmup included).
#[test]
fn warm_memo_keys_never_collide_with_cold() {
    let cell = |r: &mut Runner| {
        r.parallel("swim", SchedulerKind::FrFcfs, PredictorKind::None);
        r.parallel_with(
            "swim",
            SchedulerKind::FrFcfs,
            PredictorKind::None,
            "sampled",
            |c| c.with_sampling(1_000),
        );
    };
    let mut cold = Runner::new(Scale::quick());
    cold.jobs = 1;
    cell(&mut cold);
    let mut warm = Runner::new(Scale::quick());
    warm.jobs = 1;
    warm.warm_cycles = Some(1_000);
    cell(&mut warm);

    let ids =
        |r: &Runner| -> Vec<CellId> { r.memo_snapshot().into_iter().map(|(id, _)| id).collect() };
    let wl = AgentMix::Parallel("swim");
    let plain = cold.parallel_cfg();
    let sampled = CellId::run(&plain.clone().with_sampling(1_000), &wl, None);
    let sorted = |mut v: Vec<CellId>| {
        v.sort();
        v
    };
    assert_eq!(
        ids(&cold),
        sorted(vec![CellId::run(&plain, &wl, None), sampled.clone()])
    );
    // The plain cell is warm-started; the sampling cell stays on its
    // cold id because it is excluded from warm starts. So the only id
    // a warm and a cold sweep share, in one journal, is that cell's.
    assert_eq!(
        ids(&warm),
        sorted(vec![CellId::run(&plain, &wl, Some(1_000)), sampled.clone()])
    );
    let shared: Vec<CellId> = ids(&cold)
        .into_iter()
        .filter(|id| ids(&warm).contains(id))
        .collect();
    assert_eq!(shared, [sampled]);
}

/// The warm path's results equal the cold path's warmup-equivalent:
/// a cell whose configuration matches the warmup configuration
/// (FR-FCFS, no predictor, no sampling) restores its own saved
/// component state, so warm and cold stats for the baseline cell are
/// bit-identical.
#[test]
fn baseline_cell_is_bit_exact_under_warm_start() {
    let mut cold = Runner::new(Scale::quick());
    cold.jobs = 1;
    let a = cold.parallel("swim", SchedulerKind::FrFcfs, PredictorKind::None);
    let mut warm = Runner::new(Scale::quick());
    warm.jobs = 1;
    warm.warm_cycles = Some(2_000);
    let b = warm.parallel("swim", SchedulerKind::FrFcfs, PredictorKind::None);
    assert_eq!(encode(&a), encode(&b));
}

/// Only a CBP reports `cbp.coreN` metrics, so a sampler's row width
/// depends on the predictor. A sampled checkpoint restored under
/// another predictor is refused rather than splicing rows of one width
/// into a series of another; under its own predictor it continues the
/// cold run's series exactly.
#[test]
fn sampled_restore_under_another_predictor_is_refused() {
    let wl = AgentMix::Parallel("swim");
    let cbp = small_cfg(3_000).with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
    let session = |cfg: &SystemConfig| Session::new(cfg.clone(), &wl).sampling(2_000);
    let cold = session(&cbp).run().unwrap().stats;
    let ckpt = session(&cbp)
        .checkpoint_at(20_000)
        .run_to_checkpoint()
        .unwrap();
    let warm = Session::from_checkpoint(&ckpt, cbp.clone(), &wl)
        .sampling(2_000)
        .run()
        .unwrap()
        .stats;
    assert_eq!(warm.series, cold.series);
    let plain = cbp.with_predictor(PredictorKind::None);
    match Session::from_checkpoint(&ckpt, plain, &wl)
        .sampling(2_000)
        .run()
    {
        Err(SimError::Artifact(msg)) => assert!(msg.contains("sample values"), "{msg}"),
        Err(other) => panic!("expected an Artifact error, got {other:?}"),
        Ok(out) => {
            let series = out.stats.series.expect("sampling was enabled");
            panic!(
                "restore succeeded: last sample reads {:?} L2 misses, RunStats {}",
                series.value(series.len() - 1, "cache.l2.l2_misses"),
                out.stats.hierarchy.l2_misses
            )
        }
    }
}
