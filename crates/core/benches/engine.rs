//! Benchmarks for the experiment engine and the controller hot path —
//! the two halves of the "parallel engine + hot-path overhaul" work.
//!
//! This bench writes `BENCH_engine.json` at the workspace root: the
//! measured after numbers next to the recorded pre-overhaul baseline,
//! so the speedup claims in DESIGN.md are regenerable with `cargo
//! bench --bench engine`.

use critmem::config::PredictorKind;
use critmem::experiments::{fig10, fig11, stream_replay, synth_replay, Runner, Scale};
use critmem::pool::default_jobs;
use critmem::{AgentMix, RunStats, Session, SystemConfig};
use critmem_common::codec::ByteWriter;
use critmem_common::{AccessKind, ChannelId, CoreId, Criticality, MemRequest};
use critmem_dram::{AddressMapping, ChannelController, DramConfig, Interleaving};
use critmem_predict::CbpMetric;
use critmem_sched::{FrFcfs, SchedulerKind};
use critmem_trace::{
    CoreProfile, Fingerprint, ReplayConfig, TraceStream, TrafficProfile, CHUNK_BYTES,
};
use std::hint::black_box;
use std::time::Instant;

/// Pre-overhaul numbers, measured on the same harness (loaded/idle
/// steady-state kernels below; serial quick-scale fig10+fig11) at
/// commit 569405c, before the controller rework. Kept as the fixed
/// "before" column of `BENCH_engine.json`.
const BEFORE_LOADED_MTICKS: f64 = 1.35;
const BEFORE_IDLE_MTICKS: f64 = 18.6;
const BEFORE_COMPARE_SECONDS: f64 = 5.47;

fn loaded_controller() -> (ChannelController, AddressMapping) {
    let cfg = DramConfig::paper_baseline();
    let map = AddressMapping::new(cfg.org, Interleaving::Page);
    let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(FrFcfs::new()));
    for i in 0..48u64 {
        enqueue(&mut ctl, &map, i);
    }
    (ctl, map)
}

fn enqueue(ctl: &mut ChannelController, map: &AddressMapping, id: u64) {
    let addr = (id % 24) * 4 * 1024 + (id % 16) * 64;
    let req = MemRequest::new(id, addr, AccessKind::Read, CoreId((id % 8) as u8)).with_criticality(
        if id.is_multiple_of(3) {
            Criticality::ranked(id * 10)
        } else {
            Criticality::non_critical()
        },
    );
    let _ = ctl.enqueue(req, map.locate(addr));
}

/// Steady-state tick throughput with a full transaction queue (every
/// completion backfilled), in million ticks per second.
fn measure_loaded_mticks(ticks: u64) -> f64 {
    let (mut ctl, map) = loaded_controller();
    let mut next_id = 48u64;
    let mut done = Vec::with_capacity(16);
    let t = Instant::now();
    for _ in 0..ticks {
        done.clear();
        ctl.tick_into(&mut done);
        for _ in &done {
            enqueue(&mut ctl, &map, next_id);
            next_id += 1;
        }
    }
    black_box(ctl.stats().reads_completed);
    ticks as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Tick throughput with an empty queue (the idle fast-forward path),
/// in million ticks per second.
fn measure_idle_mticks(ticks: u64) -> f64 {
    let cfg = DramConfig::paper_baseline();
    let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(FrFcfs::new()));
    let mut done = Vec::new();
    let t = Instant::now();
    for _ in 0..ticks {
        ctl.tick_into(&mut done);
    }
    black_box(done.len());
    ticks as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Wall-clock seconds for the quick-scale fig10+fig11 compare sweep on
/// a fresh runner with `jobs` workers.
fn measure_compare_seconds(jobs: usize) -> f64 {
    let mut r = Runner::new(Scale::quick());
    r.jobs = jobs;
    let t = Instant::now();
    black_box(r.run_parallel(fig10).to_table().to_string());
    black_box(r.run_parallel(fig11).to_table().to_string());
    t.elapsed().as_secs_f64()
}

/// Checkpoint boundary of the warm-start study, in CPU cycles. The
/// quick-scale swim run lasts ~120k cycles, so this models the
/// intended regime: a warmup region covering most of the run, shared
/// across cells instead of re-simulated by each one.
const WARM_BOUNDARY: u64 = 80_000;

/// Cells of the warm-start study: a serial scheduler sweep over one
/// workload under the paper's metric (plus the predictor-less
/// baseline), sharing a platform and workload so the warm path needs
/// exactly one warmup.
const WARM_CELLS: [(SchedulerKind, bool); 4] = [
    (SchedulerKind::FrFcfs, false),
    (SchedulerKind::FrFcfs, true),
    (SchedulerKind::CritCasRas, true),
    (SchedulerKind::CasRasCrit, true),
];

/// Wall-clock seconds for the warm-start study's sweep. `warm = None`
/// runs every cell cold from cycle zero; `Some(b)` shares one warmup
/// checkpoint taken at cycle `b`.
fn measure_sweep_seconds(warm: Option<u64>) -> f64 {
    let mut r = Runner::new(Scale::quick());
    r.jobs = 1;
    r.warm_cycles = warm;
    let t = Instant::now();
    for (sched, cbp) in WARM_CELLS {
        let pred = if cbp {
            PredictorKind::cbp64(CbpMetric::MaxStallTime)
        } else {
            PredictorKind::None
        };
        black_box(r.parallel("swim", sched, pred).cycles);
    }
    assert!(!r.has_failures(), "{:?}", r.failures());
    t.elapsed().as_secs_f64()
}

/// Request count of the long-horizon synthesis probe. Ten million
/// requests is far beyond what an in-memory trace capture would hold
/// comfortably (420 MB of records) — the point of the streaming
/// pipeline is that this costs one chunk buffer, not the trace.
const SYNTH_REQUESTS: u64 = 10_000_000;

/// Hand-built dense traffic profile for the throughput probe: eight
/// cores at the paper-baseline topology with one request every ~6 CPU
/// cycles in aggregate, so the controller stays saturated and wall
/// time measures simulation work rather than idle fast-forwarding.
/// (A profile fitted to a quick-scale capture has a mean gap an order
/// of magnitude larger, which would make the 10M-request run mostly
/// idle ticks.)
fn dense_profile() -> TrafficProfile {
    let dram = DramConfig::paper_baseline();
    let core = CoreProfile {
        weight: 0.125,
        write_frac: 0.25,
        prefetch_frac: 0.10,
        crit_frac: 0.30,
        mean_crit: 40.0,
        row_hit_frac: 0.60,
        footprint_rows: 64,
    };
    TrafficProfile {
        fingerprint: Fingerprint::of(8, 4_270, &dram),
        source: "bench:dense".to_string(),
        records_fitted: 0,
        mean_gap: 6.0,
        mean_issue_lag: 12.0,
        cores: vec![core; 8],
    }
}

struct StreamingNumbers {
    synth_seconds: f64,
    requests_per_sec: f64,
    stream_records: u64,
    peak_resident_bytes: usize,
}

/// The streaming-pipeline study: peak resident chunk memory while
/// replaying a real capture from disk, and sustained requests/sec for
/// a 10M-request synthesized run with windowed online stats enabled.
fn measure_streaming() -> StreamingNumbers {
    let mut r = Runner::new(Scale::quick());
    r.jobs = 1;
    let trace = r.capture("swim");
    let path = std::env::temp_dir().join(format!("critmem-engine-{}.cmtr", std::process::id()));
    trace.save(&path).expect("save bench trace");
    let stream = TraceStream::open(&path).expect("open bench trace");
    let streamed = stream_replay(stream, SchedulerKind::FrFcfs, ReplayConfig::default())
        .expect("stream replay");
    std::fs::remove_file(&path).ok();
    assert!(streamed.peak_resident_bytes <= CHUNK_BYTES);

    let out = synth_replay(
        &dense_profile(),
        42,
        SYNTH_REQUESTS,
        SchedulerKind::FrFcfs,
        ReplayConfig::default()
            .with_max_outstanding(64)
            .with_sampling(1_000_000)
            .with_sample_window(64),
    )
    .expect("synth replay");
    assert_eq!(out.generated, SYNTH_REQUESTS);
    StreamingNumbers {
        synth_seconds: out.seconds,
        requests_per_sec: SYNTH_REQUESTS as f64 / out.seconds,
        stream_records: streamed.records_read,
        peak_resident_bytes: streamed.peak_resident_bytes,
    }
}

/// Instruction budget of the skip-ahead probe: the `chase` latency
/// microbenchmark (a serialized pointer chase, memory-level
/// parallelism of one) alone on the paper baseline. The core spends
/// nearly the whole run stalled on a single outstanding DRAM access
/// with no forward delivery, sampler epoch, or controller event due —
/// exactly the regime the event-driven skip-ahead targets.
const SKIP_INSTR: u64 = 150_000;

fn skip_probe_cfg(skip_ahead: bool) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(SKIP_INSTR);
    cfg.cores = 1;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(1);
    cfg.max_cycles = 1_000_000_000;
    cfg.skip_ahead = skip_ahead;
    cfg
}

fn encoded(stats: &RunStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    stats.encode(&mut w);
    w.into_bytes()
}

/// Wall-clock seconds for the DRAM-bound idle-heavy probe with the
/// event-driven skip-ahead off vs on, asserting both runs end with
/// byte-identical stats (the identity claim the speedup rides on).
fn measure_skip_ahead() -> (f64, f64) {
    let wl = AgentMix::Alone("chase");
    let run = |skip: bool| {
        let t = Instant::now();
        let out = Session::new(skip_probe_cfg(skip), &wl)
            .run()
            .expect("skip-ahead probe");
        (t.elapsed().as_secs_f64(), out.stats)
    };
    let (off_seconds, off_stats) = run(false);
    let (on_seconds, on_stats) = run(true);
    assert_eq!(
        encoded(&on_stats),
        encoded(&off_stats),
        "skip-ahead changed the probe's results"
    );
    (off_seconds, on_seconds)
}

fn main() {
    // The recorded before/after study.
    let loaded = measure_loaded_mticks(2_000_000);
    let idle = measure_idle_mticks(20_000_000);
    let serial = measure_compare_seconds(1);
    // At least two workers so the plan/execute path is actually
    // exercised even on a single-CPU host.
    let jobs = default_jobs().max(2);
    let parallel = measure_compare_seconds(jobs);
    let cpus = default_jobs();

    // The warm-start study. A cold sweep re-simulates the warmup
    // region once per cell; a warm sweep simulates it exactly once
    // (the shared checkpoint), so the warmup-cycle ratio equals the
    // cell count by construction — wall clock is the measured part.
    let cold_sweep = measure_sweep_seconds(None);
    let warm_sweep = measure_sweep_seconds(Some(WARM_BOUNDARY));
    let cells = WARM_CELLS.len() as u64;
    let cold_warmup_cycles = cells * WARM_BOUNDARY;

    // The streaming-pipeline study.
    let streaming = measure_streaming();
    let synth_seconds = streaming.synth_seconds;
    let requests_per_sec = streaming.requests_per_sec;
    let stream_records = streaming.stream_records;
    let peak_resident = streaming.peak_resident_bytes;

    // The skip-ahead study: same simulation, clock advanced at event
    // granularity instead of cycle granularity through quiet windows.
    let (skip_off, skip_on) = measure_skip_ahead();

    let json = format!(
        "{{\n  \"host\": {{ \"cpus\": {cpus} }},\n  \"tick_kernel\": {{\n    \
         \"host_cpus\": {cpus},\n    \
         \"loaded_before_mticks_per_s\": {BEFORE_LOADED_MTICKS},\n    \
         \"loaded_after_mticks_per_s\": {loaded:.2},\n    \
         \"loaded_speedup\": {:.2},\n    \
         \"idle_before_mticks_per_s\": {BEFORE_IDLE_MTICKS},\n    \
         \"idle_after_mticks_per_s\": {idle:.1},\n    \
         \"idle_speedup\": {:.1},\n    \
         \"acceptance\": \"loaded_speedup >= 1.5\"\n  }},\n  \"engine\": {{\n    \
         \"workload\": \"repro --scale quick fig10 fig11 (fresh runner per measurement)\",\n    \
         \"host_cpus\": {cpus},\n    \
         \"serial_before_seconds\": {BEFORE_COMPARE_SECONDS},\n    \
         \"serial_after_seconds\": {serial:.2},\n    \
         \"jobs\": {jobs},\n    \
         \"parallel_seconds\": {parallel:.2},\n    \
         \"parallel_speedup_vs_serial\": {:.2},\n    \
         \"note\": \"parallel speedup requires >1 CPU; output is byte-identical either way\"\n  }},\n  \
         \"warm_start\": {{\n    \
         \"workload\": \"4-cell quick-scale scheduler sweep on swim, boundary {WARM_BOUNDARY} cycles\",\n    \
         \"host_cpus\": {cpus},\n    \
         \"cells\": {cells},\n    \
         \"cold_warmup_cycles\": {cold_warmup_cycles},\n    \
         \"warm_warmup_cycles\": {WARM_BOUNDARY},\n    \
         \"warmup_cycle_ratio\": {:.1},\n    \
         \"cold_sweep_seconds\": {cold_sweep:.2},\n    \
         \"warm_sweep_seconds\": {warm_sweep:.2},\n    \
         \"warm_speedup\": {:.2},\n    \
         \"acceptance\": \"warmup_cycle_ratio >= 3; per-cell stats byte-identical (tests/checkpoint.rs)\"\n  }},\n  \
         \"streaming\": {{\n    \
         \"workload\": \"synthesized dense 8-core traffic, FR-FCFS, 64 outstanding, epoch 1M + window 64\",\n    \
         \"host_cpus\": {cpus},\n    \
         \"synth_requests\": {SYNTH_REQUESTS},\n    \
         \"synth_seconds\": {synth_seconds:.2},\n    \
         \"requests_per_sec\": {requests_per_sec:.0},\n    \
         \"stream_records\": {stream_records},\n    \
         \"peak_resident_chunk_bytes\": {peak_resident},\n    \
         \"chunk_bytes\": {CHUNK_BYTES},\n    \
         \"acceptance\": \"requests_per_sec measured over >= 10000000 synthesized requests; peak_resident_chunk_bytes <= chunk_bytes\"\n  }},\n  \
         \"skip_ahead\": {{\n    \
         \"workload\": \"chase latency microbenchmark alone ({SKIP_INSTR} instructions, MLP 1) on the paper baseline — DRAM-bound and idle-heavy\",\n    \
         \"host_cpus\": {cpus},\n    \
         \"off_seconds\": {skip_off:.2},\n    \
         \"on_seconds\": {skip_on:.2},\n    \
         \"speedup\": {:.2},\n    \
         \"acceptance\": \"speedup >= 3 on the DRAM-bound idle-heavy probe; stats byte-identical (asserted here and in crates/core/tests/skip_ahead.rs)\"\n  }}\n}}\n",
        loaded / BEFORE_LOADED_MTICKS,
        idle / BEFORE_IDLE_MTICKS,
        serial / parallel,
        cells as f64,
        cold_sweep / warm_sweep,
        skip_off / skip_on,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("\n{json}");
    println!("wrote {path}");
}
