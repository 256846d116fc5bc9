//! End-to-end validation of the trace capture/replay subsystem
//! (`critmem-trace`) against the execution-driven simulator.
//!
//! Covers the subsystem's acceptance bar: determinism (identical
//! executions serialize to byte-identical traces), exactness
//! (same-configuration replay reproduces the capture run's per-channel
//! DRAM statistics), topology safety (mismatched fingerprints are
//! rejected), and fidelity (the replay path ranks schedulers the same
//! way the execution-driven path does).

use critmem::config::{AgentMix, PredictorKind, SystemConfig};
use critmem::experiments::{Runner, Scale};
use critmem::Session;
use critmem_predict::CbpMetric;
use critmem_sched::SchedulerKind;
use critmem_trace::{Fingerprint, ReplayConfig, Trace, TraceError, TraceSink, TraceSource};

const INSTRUCTIONS: u64 = 2_000;
const APP: &str = "swim";

fn run_traced(cfg: SystemConfig, workload: &AgentMix, source: &str) -> (critmem::RunStats, Trace) {
    let out = Session::new(cfg, workload)
        .traced(source)
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
    (out.stats, out.observer.into_trace())
}

fn capture_cfg(scheduler: SchedulerKind) -> SystemConfig {
    SystemConfig::paper_baseline(INSTRUCTIONS)
        .with_scheduler(scheduler)
        .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime))
}

/// Captures `APP` under `scheduler`, then replays the trace through a
/// fresh DRAM system built with the same scheduler, harvesting replay
/// statistics at the capture run's final cycle (the execution run stops
/// with requests still in flight the moment every core commits its
/// target, so the comparison must cut both runs at the same cycle).
/// Returns the execution-driven stats and the replay stats.
fn capture_and_replay_same_config(
    scheduler: SchedulerKind,
) -> (critmem::system::RunStats, critmem_trace::ReplayStats) {
    let cfg = capture_cfg(scheduler);
    let (stats, trace) = run_traced(cfg, &AgentMix::Parallel(APP), APP);
    assert!(!trace.records.is_empty(), "capture produced no requests");
    let replay_cfg = ReplayConfig {
        stop_at_cycle: Some(stats.cycles),
        ..ReplayConfig::default()
    };
    let replay = critmem::replay(TraceSource::from(trace), scheduler, replay_cfg)
        .expect("identical topology must be accepted");
    (stats, replay)
}

#[test]
fn identical_executions_serialize_to_byte_identical_traces() {
    let run = || {
        let (_, trace) = run_traced(
            capture_cfg(SchedulerKind::FrFcfs),
            &AgentMix::Parallel(APP),
            APP,
        );
        trace
    };
    let (a, b) = (run(), run());
    assert!(!a.records.is_empty());
    assert_eq!(a.records.len(), b.records.len());
    let (bytes_a, bytes_b) = (a.to_bytes().unwrap(), b.to_bytes().unwrap());
    assert_eq!(
        bytes_a, bytes_b,
        "identical executions must serialize identically"
    );
    // And the serialized form round-trips losslessly.
    let back = Trace::read_from(&mut std::io::Cursor::new(&bytes_a)).unwrap();
    assert_eq!(back.records, a.records);
    assert_eq!(back.fingerprint, a.fingerprint);
}

#[test]
fn same_config_replay_is_exact_for_frfcfs() {
    let (exec, replay) = capture_and_replay_same_config(SchedulerKind::FrFcfs);
    assert_exact(&exec, &replay);
}

#[test]
fn same_config_replay_is_exact_for_casras_crit() {
    let (exec, replay) = capture_and_replay_same_config(SchedulerKind::CasRasCrit);
    assert_exact(&exec, &replay);
}

/// Per-channel request counts must match exactly; row hits must match
/// within the ±1% acceptance bound (they are in fact exact, because the
/// replayer reproduces the capture's enqueue cycles through an
/// identical clock divider — assert that stronger property).
fn assert_exact(exec: &critmem::system::RunStats, replay: &critmem_trace::ReplayStats) {
    assert_eq!(exec.channels.len(), replay.channels.len());
    for (ch, (e, r)) in exec.channels.iter().zip(&replay.channels).enumerate() {
        assert_eq!(
            e.reads_completed + e.writes_completed,
            r.reads_completed + r.writes_completed,
            "channel {ch}: request count diverged"
        );
        assert_eq!(
            e.reads_completed, r.reads_completed,
            "channel {ch}: reads diverged"
        );
        assert_eq!(e.row_hits, r.row_hits, "channel {ch}: row hits diverged");
        assert_eq!(
            e.row_misses, r.row_misses,
            "channel {ch}: row misses diverged"
        );
        assert_eq!(
            e.row_conflicts, r.row_conflicts,
            "channel {ch}: row conflicts diverged"
        );
    }
    assert_eq!(
        replay.queue_full_retries, 0,
        "same-config replay can never bounce"
    );
}

#[test]
fn replay_ranks_schedulers_like_execution() {
    // The fidelity claim behind scheduler-only studies: sweeping
    // schedulers over a captured trace must pick the same winner (by
    // mean read service latency) as re-running the full simulator.
    let mut r = Runner::new(Scale {
        instructions: INSTRUCTIONS,
        ..Scale::quick()
    });
    let mean_lat = |s: &critmem_dram::ChannelStats| {
        s.read_latency_sum as f64 / s.reads_completed.max(1) as f64
    };
    let exec_lat = |r: &mut Runner, sched| {
        let stats = r.parallel(APP, sched, PredictorKind::cbp64(CbpMetric::MaxStallTime));
        let lat: f64 = stats.channels.iter().map(mean_lat).sum();
        lat / stats.channels.len() as f64
    };
    let replay_lat = |r: &mut Runner, sched| {
        let stats = r.replay(APP, sched);
        let lat: f64 = stats.channels.iter().map(mean_lat).sum();
        lat / stats.channels.len() as f64
    };

    let exec_base = exec_lat(&mut r, SchedulerKind::FrFcfs);
    let exec_crit = exec_lat(&mut r, SchedulerKind::CasRasCrit);
    let replay_base = replay_lat(&mut r, SchedulerKind::FrFcfs);
    let replay_crit = replay_lat(&mut r, SchedulerKind::CasRasCrit);

    assert_eq!(
        exec_crit < exec_base,
        replay_crit < replay_base,
        "replay ordering (crit {replay_crit:.1} vs base {replay_base:.1}) disagrees with \
         execution ordering (crit {exec_crit:.1} vs base {exec_base:.1})"
    );
    // Criticality-aware replay must also serve critical reads faster
    // than the criticality-blind baseline replay on the same arrivals.
    let crit = r.replay(APP, SchedulerKind::CasRasCrit);
    let base = r.replay(APP, SchedulerKind::FrFcfs);
    assert!(
        crit.critical_reads > 0,
        "capture carried no criticality annotations"
    );
    assert!(
        crit.mean_critical_read_latency() < base.mean_critical_read_latency(),
        "CASRAS-Crit replay should prioritize critical reads \
         ({:.1} vs {:.1} under FR-FCFS)",
        crit.mean_critical_read_latency(),
        base.mean_critical_read_latency()
    );
}

#[test]
fn mismatched_topology_is_rejected_end_to_end() {
    let cfg = capture_cfg(SchedulerKind::FrFcfs);
    let (_, trace) = run_traced(cfg.clone(), &AgentMix::Parallel(APP), APP);

    // A DRAM system with a different channel count must be refused.
    let mut narrow = cfg.dram;
    narrow.org.channels = cfg.dram.org.channels / 2;
    assert!(narrow.org.channels != cfg.dram.org.channels);
    let narrow = Fingerprint::of(cfg.cores, cfg.cpu_mhz, &narrow);
    match trace.fingerprint.check_compatible(&narrow) {
        Err(TraceError::FingerprintMismatch(msg)) => {
            assert!(
                msg.contains("channels"),
                "diagnostic should name the field: {msg}"
            );
        }
        other => panic!("expected fingerprint mismatch, got {other:?}"),
    }
}

#[test]
fn trace_files_survive_disk_round_trip() {
    let (_, trace) = run_traced(
        capture_cfg(SchedulerKind::FrFcfs),
        &AgentMix::Parallel(APP),
        APP,
    );
    let dir = std::env::temp_dir();
    let path = dir.join(format!("critmem-trace-test-{}.cmtr", std::process::id()));
    trace.save(&path).unwrap();
    let loaded = Trace::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.records, trace.records);
    assert_eq!(loaded.fingerprint, trace.fingerprint);
    assert_eq!(loaded.source, trace.source);
}

#[test]
fn sink_observer_matches_run_traced() {
    // `Session::traced` is a convenience wrapper; wiring a `TraceSink`
    // observer manually through `Session::observer` must capture the
    // same stream.
    let cfg = capture_cfg(SchedulerKind::FrFcfs);
    let fp = Fingerprint::of(cfg.cores, cfg.cpu_mhz, &cfg.dram);
    let sink = TraceSink::new(fp, APP);
    let workload = AgentMix::Parallel(APP);
    let manual = Session::new(cfg.clone(), &workload)
        .observer(sink)
        .run()
        .expect("manual capture")
        .observer
        .into_trace();
    let (_, auto) = run_traced(cfg, &workload, APP);
    assert_eq!(manual.records, auto.records);
}

/// A dense hand-built trace: eight records per CPU cycle across all
/// eight cores, mixed kinds and criticality ranks, addresses scattered
/// over every channel and bank. Open-loop replay of it overruns the
/// transaction queues, so it exercises the bounce path.
fn dense_trace(n: u64) -> Trace {
    let cfg = SystemConfig::paper_baseline(INSTRUCTIONS);
    let fingerprint = Fingerprint::of(cfg.cores, cfg.cpu_mhz, &cfg.dram);
    let records = (0..n)
        .map(|i| critmem_trace::TraceRecord {
            enqueue_cycle: 10 + i / 8,
            issued_at: i / 8,
            id: i,
            addr: (i.wrapping_mul(2_654_435_761) % (1 << 30)) & !63,
            crit: if i % 3 == 0 { 1 + i % 50 } else { 0 },
            core: (i % 8) as u8,
            kind: match i % 11 {
                4 | 9 => critmem_common::AccessKind::Write,
                7 => critmem_common::AccessKind::Prefetch,
                _ => critmem_common::AccessKind::Read,
            },
        })
        .collect();
    Trace {
        fingerprint,
        source: "golden".into(),
        records,
    }
}

/// CRC-32 of the encoded replay statistics.
fn stats_digest(stats: &critmem_trace::ReplayStats) -> u32 {
    let mut w = critmem_common::codec::ByteWriter::new();
    stats.encode(&mut w);
    critmem_common::crc32::checksum(&w.into_bytes())
}

/// Replays `dense_trace(3_000)` from a CMTR file under `scheduler`.
fn replay_dense(scheduler: SchedulerKind, cfg: ReplayConfig) -> critmem_trace::ReplayStats {
    let path = std::env::temp_dir().join(format!(
        "critmem-golden-{}-{}.cmtr",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    dense_trace(3_000).save(&path).unwrap();
    let stream = critmem_trace::TraceStream::open(&path).unwrap();
    let out = critmem::experiments::stream_replay(stream, scheduler, cfg);
    std::fs::remove_file(&path).ok();
    out.unwrap_or_else(|e| panic!("{e}")).stats
}

/// Pins the replay statistics of four loop paths — open-loop bounces,
/// the closed-loop throttle, a `stop_at_cycle` harvest and an audited
/// run — to digests taken before replay moved onto the system's run
/// loop. Any change to injection order, latency accounting or the
/// throttle/bounce counters shows up here.
#[test]
fn replay_statistics_match_the_golden_digests() {
    let open = replay_dense(SchedulerKind::FrFcfs, ReplayConfig::default());
    assert_eq!(open.completed, 3_000);
    assert!(open.queue_full_retries > 0, "open loop must bounce");
    let throttled = replay_dense(
        SchedulerKind::FrFcfs,
        ReplayConfig::default().with_max_outstanding(2),
    );
    assert!(throttled.throttled_cycles > 0, "cap of 2 must bite");
    let harvested = replay_dense(
        SchedulerKind::CasRasCrit,
        ReplayConfig::default().with_stop_at_cycle(600),
    );
    assert_eq!(harvested.cpu_cycles, 600);
    assert!(
        harvested.completed < 3_000,
        "harvest must cut the run short"
    );
    let audited = replay_dense(
        SchedulerKind::CasRasCrit,
        ReplayConfig::default()
            .with_max_outstanding(48)
            .with_audit(true),
    );
    assert_eq!(audited.completed, 3_000);
    let digests = [
        stats_digest(&open),
        stats_digest(&throttled),
        stats_digest(&harvested),
        stats_digest(&audited),
    ];
    assert_eq!(
        digests,
        [0x5b9a_0665, 0xcda5_8bf5, 0xaa94_1ec3, 0xe2d6_9d14],
        "replay statistics drifted: {digests:08x?}"
    );
}

/// Pins the `dram.chN` columns of a sampled, windowed replay row for
/// row. Other components may join the series, but only a replay
/// producer's own `agent.*` columns.
#[test]
fn sampled_replay_dram_columns_match_the_golden_digest() {
    let stats = replay_dense(
        SchedulerKind::FrFcfs,
        ReplayConfig::default()
            .with_sampling(250)
            .with_sample_window(5),
    );
    let series = stats.series.expect("sampling was on");
    assert_eq!(series.len(), 5);
    let mut crc = critmem_common::crc32::Crc32::new();
    for &cycle in series.cycles() {
        crc.update(&cycle.to_le_bytes());
    }
    for def in series.schema().defs() {
        if def.component.starts_with("dram.ch") {
            crc.update(def.id().as_bytes());
            for v in series.column(&def.id()).unwrap() {
                crc.update(&v.to_bits().to_le_bytes());
            }
        } else {
            assert!(
                def.component.starts_with("agent."),
                "unexpected component {} in a replay series",
                def.component
            );
        }
    }
    let digest = crc.finish();
    assert_eq!(
        digest, 0xee69_9043,
        "sampled dram columns drifted: {digest:08x}"
    );
}
