//! End-to-end contract of the scheduler-zoo additions (BLISS and the
//! MetaSwitch meta-scheduler): mode switches really happen under
//! multiprogrammed load, checkpoint round-trips are bit-exact across a
//! mid-run mode switch, results are byte-identical under skip-ahead,
//! and BLISS bounds the maximum slowdown where the criticality-first
//! Crit-CASRAS ordering does not.

use critmem::config::{AgentMix, PredictorKind, SystemConfig};
use critmem::metrics::{max_slowdown, weighted_speedup};
use critmem::{Checkpoint, RunStats, Session};
use critmem_common::codec::ByteWriter;
use critmem_predict::CbpMetric;
use critmem_sched::{BlissConfig, MetaSwitchConfig, SchedulerKind};
use critmem_workloads::bundle;

const INSTRUCTIONS: u64 = 1_500;
const BUNDLE: &str = "AELV";

/// A MetaSwitch pairing with watermarks tight enough that the quick
/// multiprogrammed bundles cross them repeatedly, so mid-run mode
/// switches are guaranteed, not incidental.
const AGGRESSIVE_META: SchedulerKind = SchedulerKind::MetaSwitch {
    perf: &SchedulerKind::CasRasCrit,
    fair: &SchedulerKind::Bliss(BlissConfig::DEFAULT),
    cfg: MetaSwitchConfig {
        high_occupancy: 2,
        low_occupancy: 1,
        stall_watermark: 300,
        low_stall: 60,
        min_residency: 200,
    },
};

fn bundle_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::multiprogrammed_baseline(INSTRUCTIONS);
    cfg.max_cycles = 1_000_000_000;
    cfg
}

fn encode(stats: &RunStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    stats.encode(&mut w);
    w.into_bytes()
}

fn bundle_stats(cfg: SystemConfig) -> RunStats {
    Session::new(cfg, &AgentMix::bundle(BUNDLE))
        .run()
        .expect("bundle run")
        .stats
}

/// IPC of each bundle app running alone on the single-core variant of
/// the same platform — the slowdown denominator (Figure 12's
/// normalization).
fn alone_ipcs() -> Vec<f64> {
    bundle(BUNDLE)
        .expect("bundle exists")
        .apps
        .iter()
        .map(|&app| {
            let mut cfg = bundle_cfg();
            cfg.cores = 1;
            cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(1);
            cfg.hierarchy.l2_mshrs = 32;
            let stats = Session::new(cfg, &AgentMix::alone(app))
                .run()
                .expect("alone run")
                .stats;
            stats.ipc(0)
        })
        .collect()
}

/// The meta-scheduler must actually flip modes under bundle load —
/// otherwise every other property here is vacuous. The switch counter
/// is exposed through the `sched_` metrics registry.
#[test]
fn metaswitch_switches_modes_under_bundle_load() {
    let cfg = bundle_cfg()
        .with_scheduler(AGGRESSIVE_META)
        .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime))
        .with_sampling(10_000);
    let stats = bundle_stats(cfg);
    let series = stats.series.as_ref().expect("sampled series");
    let last = series.len() - 1;
    let switches: f64 = (0..8)
        .filter_map(|ch| series.value(last, &format!("dram.ch{ch}.sched_mode_switches")))
        .sum();
    assert!(
        switches >= 2.0,
        "expected repeated mode switches, saw {switches}"
    );
    // Residency accounting covers both modes once switching starts.
    let fair_res: f64 = (0..8)
        .filter_map(|ch| series.value(last, &format!("dram.ch{ch}.sched_fair_residency")))
        .sum();
    assert!(fair_res > 0.0, "fairness-mode stints must accumulate");
}

/// Checkpointing mid-run — after mode switches have occurred — and
/// restoring under the same configuration must be invisible: the
/// continued run's statistics are bit-identical to the uninterrupted
/// run. This exercises the MetaSwitch and BLISS `save_state` /
/// `load_state` codecs end to end (mode, hysteresis deadline, streak
/// and blacklist state all ride inside the CMCK artifact).
#[test]
fn checkpoint_round_trip_is_bit_exact_across_a_mode_switch() {
    let wl = AgentMix::bundle(BUNDLE);
    let cfg = bundle_cfg()
        .with_scheduler(AGGRESSIVE_META)
        .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
    let cold = Session::new(cfg.clone(), &wl).run().expect("cold").stats;
    let boundary = cold.cycles / 2;
    let ckpt = Session::new(cfg.clone(), &wl)
        .checkpoint_at(boundary)
        .run_to_checkpoint()
        .expect("warmup");
    // Round-trip the on-disk CMCK format so codec framing is covered.
    let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("wire round trip");
    let warm = Session::from_checkpoint(&ckpt, cfg, &wl)
        .run()
        .expect("warm")
        .stats;
    assert_eq!(
        encode(&cold),
        encode(&warm),
        "mid-run restore diverged from the uninterrupted run"
    );
}

/// Event-driven skip-ahead changes wall clock only: the BLISS clearing
/// boundary and the MetaSwitch switch schedule must land on identical
/// cycles either way.
#[test]
fn skip_ahead_leaves_results_byte_identical() {
    for sched in [
        SchedulerKind::Bliss(BlissConfig::DEFAULT),
        SchedulerKind::DEFAULT_META,
    ] {
        let base = bundle_cfg()
            .with_scheduler(sched)
            .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
        let reference = encode(&bundle_stats(base.clone()));
        let mut no_skip = base.clone();
        no_skip.skip_ahead = false;
        assert_eq!(
            reference,
            encode(&bundle_stats(no_skip)),
            "{}: --no-skip-ahead diverged",
            sched.name()
        );
    }
}

/// The starvation regression the frontier chart summarizes: under the
/// same multiprogrammed bundle, BLISS's blacklist bounds the worst
/// application's slowdown below what the criticality-above-all
/// Crit-CASRAS ordering allows, while both remain real schedulers
/// (positive weighted speedup).
#[test]
fn bliss_bounds_max_slowdown_where_crit_casras_does_not() {
    let alone = alone_ipcs();
    let crit = bundle_stats(
        bundle_cfg()
            .with_scheduler(SchedulerKind::CritCasRas)
            .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime)),
    );
    let bliss =
        bundle_stats(bundle_cfg().with_scheduler(SchedulerKind::Bliss(BlissConfig::DEFAULT)));
    let ms_crit = max_slowdown(&crit, &alone);
    let ms_bliss = max_slowdown(&bliss, &alone);
    assert!(
        ms_bliss < ms_crit,
        "BLISS must bound the worst slowdown: BLISS {ms_bliss:.3} vs Crit-CASRAS {ms_crit:.3}"
    );
    assert!(weighted_speedup(&bliss, &alone) > 0.0);
    assert!(weighted_speedup(&crit, &alone) > 0.0);
}
