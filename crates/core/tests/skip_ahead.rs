//! Output-identity suite for the event-driven skip-ahead: a run that
//! batch-advances through quiet windows must produce results
//! byte-identical (via [`RunStats::encode`]) to plain cycle-by-cycle
//! stepping, across schedulers, predictors, sampling, trace capture,
//! and checkpoint restore.

use critmem::{AgentMix, PredictorKind, RunStats, Session, System, SystemConfig};
use critmem_common::codec::ByteWriter;
use critmem_predict::CbpMetric;
use critmem_sched::{MorseConfig, SchedulerKind, TcmTiebreak};

/// A small two-core platform on the paper's quad-channel DRAM.
fn base_cfg(instr: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_baseline(instr);
    c.cores = 2;
    c.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    c.max_cycles = 50_000_000;
    c
}

fn with_kernel(cfg: &SystemConfig, skip_ahead: bool) -> SystemConfig {
    let mut c = cfg.clone();
    c.skip_ahead = skip_ahead;
    c
}

fn run(cfg: SystemConfig, wl: &AgentMix) -> RunStats {
    Session::new(cfg, wl)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
        .stats
}

fn bytes(stats: &RunStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    stats.encode(&mut w);
    w.into_bytes()
}

/// Serial reference vs the skip-ahead kernel, one pass per
/// scheduler the repo implements (Wedged excluded: it livelocks by
/// design).
#[test]
fn every_scheduler_is_identical_under_the_accelerated_kernel() {
    let schedulers = [
        SchedulerKind::Fcfs,
        SchedulerKind::FrFcfs,
        SchedulerKind::CritCasRas,
        SchedulerKind::CasRasCrit,
        SchedulerKind::Ahb,
        SchedulerKind::Atlas,
        SchedulerKind::Minimalist,
        SchedulerKind::ParBs { marking_cap: 5 },
        SchedulerKind::Tcm {
            tiebreak: TcmTiebreak::FrFcfs,
        },
        SchedulerKind::Tcm {
            tiebreak: TcmTiebreak::CritFrFcfs,
        },
        SchedulerKind::Morse(MorseConfig::default()),
    ];
    let wl = AgentMix::Parallel("swim");
    for sched in schedulers {
        let cfg = base_cfg(600)
            .with_scheduler(sched)
            .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
        let reference = bytes(&run(with_kernel(&cfg, false), &wl));
        let accel = bytes(&run(with_kernel(&cfg, true), &wl));
        assert_eq!(accel, reference, "{} diverged", sched.name());
    }
}

/// Every CBP annotation metric (including one with periodic resets,
/// which adds a predictor event the skip-ahead horizon must respect).
#[test]
fn every_cbp_metric_is_identical_under_the_accelerated_kernel() {
    let metrics = [
        CbpMetric::Binary,
        CbpMetric::BlockCount,
        CbpMetric::LastStallTime,
        CbpMetric::MaxStallTime,
        CbpMetric::TotalStallTime,
    ];
    let wl = AgentMix::Parallel("art");
    for metric in metrics {
        let cfg = base_cfg(600)
            .with_scheduler(SchedulerKind::CasRasCrit)
            .with_predictor(PredictorKind::Cbp {
                metric,
                size: critmem_predict::TableSize::Entries(64),
                reset_interval: Some(10_000),
            });
        let reference = bytes(&run(with_kernel(&cfg, false), &wl));
        let accel = bytes(&run(with_kernel(&cfg, true), &wl));
        assert_eq!(accel, reference, "{} diverged", metric.name());
    }
}

/// The flagship configuration (criticality scheduling + naive
/// forwarding + time-series sampling).
#[test]
fn all_modes_identical_with_forwarding_and_sampling() {
    let mut cfg = base_cfg(1_500)
        .with_scheduler(SchedulerKind::CasRasCrit)
        .with_sampling(7_500);
    cfg.naive_forwarding = true;
    let wl = AgentMix::Parallel("art");
    let reference = bytes(&run(with_kernel(&cfg, false), &wl));
    let got = bytes(&run(with_kernel(&cfg, true), &wl));
    assert_eq!(got, reference, "skip-ahead diverged");
}

/// Trace capture must record the exact same request stream whichever
/// kernel produced it.
#[test]
fn trace_capture_is_identical_under_the_accelerated_kernel() {
    let cfg = base_cfg(800).with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
    let wl = AgentMix::Parallel("swim");
    let capture = |cfg: SystemConfig| {
        Session::new(cfg, &wl)
            .traced("swim")
            .run()
            .unwrap_or_else(|e| panic!("{e}"))
            .observer
            .into_trace()
    };
    let reference = capture(with_kernel(&cfg, false));
    assert!(!reference.records.is_empty(), "swim must miss the L2");
    assert_eq!(capture(with_kernel(&cfg, true)), reference);
}

/// A checkpoint written by the serial kernel must restore under the
/// skip-ahead kernel (the skip flag is an engine knob, not platform
/// state) and still finish byte-identical to an unbroken serial run.
#[test]
fn checkpoint_restore_mid_run_is_identical() {
    let cfg = base_cfg(1_200).with_scheduler(SchedulerKind::CasRasCrit);
    let wl = AgentMix::Parallel("swim");
    let reference = bytes(&run(with_kernel(&cfg, false), &wl));
    let ckpt = Session::new(with_kernel(&cfg, false), &wl)
        .checkpoint_at(5_000)
        .run_to_checkpoint()
        .unwrap_or_else(|e| panic!("{e}"));
    let resumed = Session::from_checkpoint(&ckpt, with_kernel(&cfg, true), &wl)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
        .stats;
    assert_eq!(bytes(&resumed), reference);
}

/// Property check through the public API: whenever the idle horizon
/// claims a quiet window, stepping through that window serially must
/// not deliver a forwarding message, accept a request into DRAM, take
/// a sample, or commit an instruction before the horizon cycle.
#[test]
fn idle_horizon_is_sound_through_the_public_api() {
    let mut cfg = base_cfg(500).with_scheduler(SchedulerKind::CasRasCrit);
    cfg.naive_forwarding = true;
    cfg.sample_epoch = Some(5_000);
    cfg.skip_ahead = false; // this test performs the window walk itself
    let mut sys = System::new(cfg, &AgentMix::Parallel("art"));
    fn fingerprint(s: &System) -> (Vec<u64>, (usize, usize), usize, usize) {
        (
            s.committed(),
            s.queue_depths(),
            s.pending_forwards(),
            s.samples_taken(),
        )
    }
    let mut windows = 0u32;
    while !sys.done() && sys.now() < 5_000_000 {
        let h = sys.idle_horizon();
        if h > sys.now() + 1 {
            windows += 1;
            let before = fingerprint(&sys);
            while sys.now() < h - 1 {
                sys.step();
                assert_eq!(
                    fingerprint(&sys),
                    before,
                    "an event fired inside a claimed quiet window at cycle {}",
                    sys.now()
                );
            }
        }
        sys.step();
    }
    assert!(sys.done(), "run must finish under the cycle bound");
    assert!(windows > 0, "workload never produced a quiet window");
}

/// The paper's 8-core baseline under CASRAS-Crit + CBP MaxStallTime.
/// With eight cores the system-wide horizon rarely finds every core
/// idle at once, so most of the skipped work here is single cores
/// sleeping below their own horizon while the others step.
fn paper_radix(instr: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(instr)
        .with_scheduler(SchedulerKind::CasRasCrit)
        .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
    cfg.max_cycles = 50_000_000;
    cfg
}

/// Per-core sleep on eight cores, with naive forwarding (a sleeping
/// core must still surface its one-shot block events on time) and
/// sampling (every sample reads counters of sleeping cores).
#[test]
fn eight_core_paper_baseline_is_identical_under_the_accelerated_kernel() {
    let mut cfg = paper_radix(1_000).with_sampling(5_000);
    cfg.naive_forwarding = true;
    let wl = AgentMix::Parallel("radix");
    let reference = bytes(&run(with_kernel(&cfg, false), &wl));
    let got = bytes(&run(with_kernel(&cfg, true), &wl));
    assert_eq!(got, reference, "per-core sleep diverged");
}

/// Bounce sleep on the shared file: with eight cores behind a shared
/// L2 MSHR file smaller than one core's L1 file, most issue attempts
/// bounce off the shared file. Those cores sleep until any fill, and
/// a fill for one core must wake the others, whose retries race for
/// the freed entry in the same rotating order as the serial kernel's.
#[test]
fn shared_mshr_bounces_are_identical_under_the_accelerated_kernel() {
    let mut cfg = paper_radix(600).with_sampling(4_000);
    cfg.hierarchy.l2_mshrs = 6;
    cfg.naive_forwarding = true;
    let wl = AgentMix::Parallel("radix");
    let reference = bytes(&run(with_kernel(&cfg, false), &wl));
    let got = bytes(&run(with_kernel(&cfg, true), &wl));
    assert_eq!(got, reference, "bounce sleep on the shared file diverged");
}

/// Cores sleeping beside bus-saturating agents: the agents generate
/// and complete every cycle while the two OoO cores sit blocked.
#[test]
fn hetero_stream_mix_is_identical_under_the_accelerated_kernel() {
    let mut cfg = SystemConfig::multiprogrammed_baseline(1_000)
        .with_scheduler(SchedulerKind::DEFAULT_META)
        .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
    cfg.cores = 2;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    cfg.max_cycles = 50_000_000;
    cfg.watchdog.max_request_age = 2_000_000;
    let mix: AgentMix = "ooo:mcf*2+stream*2".parse().expect("valid mix");
    let reference = bytes(&run(with_kernel(&cfg, false), &mix));
    let got = bytes(&run(with_kernel(&cfg, true), &mix));
    assert_eq!(got, reference, "per-core sleep diverged beside agents");
}

/// A checkpoint taken by the skip kernel while cores are asleep (the
/// wake table is engine state, not saved) must resume under the serial
/// kernel and finish byte-identical to an unbroken serial run.
#[test]
fn checkpoint_with_cores_asleep_resumes_under_the_serial_kernel() {
    let cfg = paper_radix(1_000);
    let wl = AgentMix::Parallel("radix");
    // Find a boundary after which some core sleeps: stepping the next
    // cycle makes fewer `Core::step` calls than there are cores.
    let mut probe = System::new(with_kernel(&cfg, true), &wl);
    while probe.now() < 5_000 {
        probe.step();
    }
    let boundary = loop {
        let (at, before) = (probe.now(), probe.core_steps());
        probe.step();
        if probe.core_steps() - before < cfg.cores as u64 {
            break at;
        }
        assert!(!probe.done(), "no core ever slept");
    };
    let reference = bytes(&run(with_kernel(&cfg, false), &wl));
    let ckpt = Session::new(with_kernel(&cfg, true), &wl)
        .checkpoint_at(boundary)
        .run_to_checkpoint()
        .unwrap_or_else(|e| panic!("{e}"));
    let resumed = Session::from_checkpoint(&ckpt, with_kernel(&cfg, false), &wl)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
        .stats;
    assert_eq!(bytes(&resumed), reference);
}

/// `System::core_steps` is the layer evidence for per-core sleep: the
/// serial kernel steps every core on every cycle, and the skip kernel
/// leaves most of those steps out on the paper's baseline: about a
/// tenth remain, with cores also asleep on MSHR bounces.
#[test]
fn sleeping_cores_skip_most_core_steps() {
    let cfg = paper_radix(1_000);
    let steps = |skip_ahead: bool| {
        let mut sys = System::new(with_kernel(&cfg, skip_ahead), &AgentMix::Parallel("radix"));
        while !sys.done() {
            sys.step();
        }
        (sys.core_steps(), cfg.cores as u64 * sys.now())
    };
    let (serial, all) = steps(false);
    assert_eq!(
        serial, all,
        "the serial kernel steps every core every cycle"
    );
    let (slept, all) = steps(true);
    assert!(
        slept * 6 < all,
        "per-core sleep stepped {slept} of {all} core-cycles"
    );
}
