//! End-to-end validation of the streaming trace pipeline and the
//! traffic synthesizer (`critmem_trace::stream` / `::synth`).
//!
//! Covers the subsystem's acceptance bar: streamed replay of a CMTR
//! file is byte-identical to in-memory replay of the same file (with
//! and without sampling, and for captures produced by a parallel
//! `--jobs 2` runner) while holding at most one chunk resident;
//! torn/corrupt files surface as typed errors; and the synthesizer is
//! seed-deterministic end to end (same profile + seed ⇒ identical
//! replay statistics).

use critmem::config::{AgentMix, PredictorKind, SystemConfig};
use critmem::experiments::{stream_replay, synth_replay, Runner, Scale};
use critmem::Session;
use critmem_common::codec::ByteWriter;
use critmem_predict::CbpMetric;
use critmem_sched::SchedulerKind;
use critmem_trace::{
    ReplayConfig, ReplayStats, Trace, TraceError, TraceSource, TraceStream, TrafficProfile,
    CHUNK_BYTES,
};
use std::path::PathBuf;

const INSTRUCTIONS: u64 = 2_000;
const APP: &str = "swim";

fn captured_trace() -> Trace {
    let cfg = SystemConfig::paper_baseline(INSTRUCTIONS)
        .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
    Session::new(cfg, &AgentMix::Parallel(APP))
        .traced(APP)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
        .observer
        .into_trace()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("critmem-stream-{tag}-{}.cmtr", std::process::id()))
}

fn stats_bytes(stats: &ReplayStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    stats.encode(&mut w);
    w.into_bytes()
}

fn replay_in_memory(trace: Trace, cfg: ReplayConfig) -> ReplayStats {
    critmem::replay(TraceSource::from(trace), SchedulerKind::FrFcfs, cfg).unwrap()
}

#[test]
fn streamed_replay_is_byte_identical_to_in_memory() {
    let trace = captured_trace();
    assert!(!trace.records.is_empty(), "capture produced no requests");
    let path = temp_path("identity");
    trace.save(&path).unwrap();

    // Plain and sampled configurations must both agree byte-for-byte.
    for cfg in [
        ReplayConfig::default(),
        ReplayConfig::default().with_sampling(5_000),
        ReplayConfig::default()
            .with_sampling(5_000)
            .with_sample_window(4),
    ] {
        let memory = replay_in_memory(Trace::load(&path).unwrap(), cfg);
        let stream = TraceStream::open(&path).unwrap();
        let streamed = stream_replay(stream, SchedulerKind::FrFcfs, cfg).unwrap();
        assert_eq!(
            stats_bytes(&memory),
            stats_bytes(&streamed.stats),
            "streamed vs in-memory diverged under {cfg:?}"
        );
        assert_eq!(streamed.records_read, trace.records.len() as u64);
        assert!(
            streamed.peak_resident_bytes <= CHUNK_BYTES,
            "stream held {} B resident (cap {CHUNK_BYTES} B)",
            streamed.peak_resident_bytes
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn parallel_jobs2_capture_streams_identically() {
    // The capture must not depend on the runner's worker-pool width,
    // and the streamed replay of either file must match the in-memory
    // replay byte-for-byte.
    let capture = |jobs: usize| {
        let mut r = Runner::new(Scale {
            instructions: INSTRUCTIONS,
            ..Scale::quick()
        });
        r.jobs = jobs;
        (*r.capture(APP)).clone()
    };
    let serial = capture(1);
    let pooled = capture(2);
    assert!(!serial.records.is_empty());
    assert_eq!(
        serial.to_bytes().unwrap(),
        pooled.to_bytes().unwrap(),
        "--jobs 2 capture must serialize identically to serial capture"
    );
    let path = temp_path("jobs2");
    pooled.save(&path).unwrap();
    let memory = replay_in_memory(pooled, ReplayConfig::default());
    let stream = TraceStream::open(&path).unwrap();
    let streamed = stream_replay(stream, SchedulerKind::FrFcfs, ReplayConfig::default()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(stats_bytes(&memory), stats_bytes(&streamed.stats));
}

#[test]
fn torn_and_corrupt_files_yield_typed_errors() {
    let trace = captured_trace();
    let bytes = trace.to_bytes().unwrap();

    // Truncated finished stream: data loss, typed as Corrupt.
    let open = |bytes: &[u8]| TraceStream::new(std::io::Cursor::new(bytes.to_vec()));
    let drain = |bytes: &[u8]| -> Result<u64, TraceError> {
        let mut s = open(bytes)?;
        while s.next_record()?.is_some() {}
        Ok(s.records_read())
    };
    let err = drain(&bytes[..bytes.len() - 11]).unwrap_err();
    assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");
    assert!(err.to_string().contains("truncated"), "{err}");

    // Flipped bit inside a record: caught by the chunk CRC before any
    // record of that chunk is handed out.
    let mut corrupt = bytes.clone();
    let mid = bytes.len() / 2;
    corrupt[mid] ^= 0x20;
    let err = drain(&corrupt).unwrap_err();
    assert!(matches!(err, TraceError::Corrupt(_)), "{err:?}");

    // The same failure surfaces through the full replay path as a
    // typed SimError, not a panic.
    let path = temp_path("corrupt");
    std::fs::write(&path, &corrupt).unwrap();
    let stream = TraceStream::open(&path).unwrap();
    let err = stream_replay(stream, SchedulerKind::FrFcfs, ReplayConfig::default()).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, critmem_common::SimError::Trace(_)),
        "got {err}"
    );
}

#[test]
fn synthesis_is_deterministic_end_to_end() {
    let trace = captured_trace();
    let profile = TrafficProfile::fit(&trace).unwrap();

    // The profile survives its CMPF disk round-trip.
    let path = std::env::temp_dir().join(format!("critmem-stream-{}.cmpf", std::process::id()));
    profile.save(&path).unwrap();
    let loaded = TrafficProfile::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, profile);

    // Same profile + same seed ⇒ identical replay statistics; a
    // different seed must diverge.
    let run = |seed: u64| {
        synth_replay(
            &loaded,
            seed,
            20_000,
            SchedulerKind::CasRasCrit,
            ReplayConfig::default().with_max_outstanding(128),
        )
        .unwrap()
    };
    let (a, b, c) = (run(7), run(7), run(8));
    assert_eq!(a.generated, 20_000);
    assert_eq!(
        stats_bytes(&a.stats),
        stats_bytes(&b.stats),
        "same seed must reproduce the replay exactly"
    );
    assert_ne!(
        stats_bytes(&a.stats),
        stats_bytes(&c.stats),
        "different seeds must diverge"
    );
}

#[test]
fn windowed_sampling_holds_series_constant_over_long_horizons() {
    let profile = TrafficProfile::fit(&captured_trace()).unwrap();
    let out = synth_replay(
        &profile,
        5,
        30_000,
        SchedulerKind::FrFcfs,
        ReplayConfig::default()
            .with_max_outstanding(128)
            .with_sampling(50_000)
            .with_sample_window(8),
    )
    .unwrap();
    let series = out.stats.series.expect("sampling was on");
    assert!(
        series.len() <= 8,
        "window of 8 must bound the series, got {} rows",
        series.len()
    );
    assert!(series.len() > 1, "long horizon should fill the window");
}
