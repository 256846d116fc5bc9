//! Long-horizon replay drivers: stream a CMTR file or synthesize
//! traffic from a CMPF profile, at constant memory, with wall-clock
//! throughput measurement.
//!
//! These are the `repro trace stream|synth` workhorses and the bench
//! suite's `streaming` probes. Both go through [`crate::replay()`],
//! which builds the DRAM system from the source's own
//! [`Fingerprint`](critmem_trace::Fingerprint) (topology from the
//! capture, controller policy from the paper baseline), so a file is
//! all you need — no matching `SystemConfig` required.

use crate::replay::replay_with;
use critmem_common::SimError;
use critmem_sched::SchedulerKind;
use critmem_trace::{ReplayConfig, ReplayStats, SynthSource, TraceStream, TrafficProfile};
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

/// Outcome of one streamed-file replay.
#[derive(Debug)]
pub struct StreamReplayOutcome {
    /// Replay statistics (identical to what in-memory replay of the
    /// same file yields).
    pub stats: ReplayStats,
    /// Peak bytes of trace data resident in the chunk buffer — at
    /// most [`critmem_trace::CHUNK_BYTES`].
    pub peak_resident_bytes: usize,
    /// Chunks pulled off the file.
    pub chunks_read: u64,
    /// Records injected from the file.
    pub records_read: u64,
    /// Wall-clock seconds the replay took.
    pub seconds: f64,
}

/// Replays an opened CMTR file ([`TraceStream::open`]) through
/// `scheduler` without ever materializing the trace: records stream
/// chunk-at-a-time from disk.
///
/// # Errors
///
/// [`SimError::Trace`] on a corrupt or torn chunk, and whatever
/// [`crate::replay()`] reports (watchdog trips).
pub fn stream_replay(
    stream: TraceStream<BufReader<File>>,
    scheduler: SchedulerKind,
    cfg: ReplayConfig,
) -> Result<StreamReplayOutcome, SimError> {
    let started = Instant::now();
    let (stats, stream) = replay_with(stream, scheduler, cfg, None)?;
    Ok(StreamReplayOutcome {
        stats,
        peak_resident_bytes: stream.peak_resident_bytes(),
        chunks_read: stream.chunks_read(),
        records_read: stream.records_read(),
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Outcome of one synthesized-traffic replay.
#[derive(Debug)]
pub struct SynthReplayOutcome {
    /// Replay statistics.
    pub stats: ReplayStats,
    /// Requests generated (equals the requested count unless a stop
    /// condition cut the run short).
    pub generated: u64,
    /// Wall-clock seconds the replay took.
    pub seconds: f64,
}

/// Synthesizes `requests` requests from `profile` (seeded with `seed`)
/// and replays them through `scheduler`.
///
/// # Errors
///
/// [`SimError::Trace`] if the profile's topology cannot be
/// reconstructed, and whatever [`crate::replay()`] reports.
pub fn synth_replay(
    profile: &TrafficProfile,
    seed: u64,
    requests: u64,
    scheduler: SchedulerKind,
    cfg: ReplayConfig,
) -> Result<SynthReplayOutcome, SimError> {
    let source = SynthSource::new(profile, seed).with_limit(requests);
    let started = Instant::now();
    let (stats, source) = replay_with(source, scheduler, cfg, None)?;
    Ok(SynthReplayOutcome {
        stats,
        generated: source.generated(),
        seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AgentMix, PredictorKind, SystemConfig};
    use crate::Session;
    use critmem_predict::CbpMetric;
    use critmem_trace::Trace;

    fn captured_trace() -> Trace {
        let cfg = SystemConfig::paper_baseline(1_500)
            .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
        Session::new(cfg, &AgentMix::Parallel("swim"))
            .traced("swim")
            .run()
            .unwrap()
            .observer
            .into_trace()
    }

    #[test]
    fn stream_replay_round_trips_through_a_file() {
        let trace = captured_trace();
        let n = trace.records.len() as u64;
        assert!(n > 0);
        let path =
            std::env::temp_dir().join(format!("critmem-streaming-exp-{}.cmtr", std::process::id()));
        trace.save(&path).unwrap();
        let stream = TraceStream::open(&path).unwrap();
        let out = stream_replay(stream, SchedulerKind::FrFcfs, ReplayConfig::default());
        std::fs::remove_file(&path).ok();
        let out = out.unwrap();
        assert_eq!(out.records_read, n);
        assert_eq!(out.stats.injected, n);
        assert!(out.peak_resident_bytes <= critmem_trace::CHUNK_BYTES);
    }

    #[test]
    fn synth_replay_fits_and_runs() {
        let profile = TrafficProfile::fit(&captured_trace()).unwrap();
        let out = synth_replay(
            &profile,
            99,
            5_000,
            SchedulerKind::CasRasCrit,
            ReplayConfig::default()
                .with_max_outstanding(64)
                .with_sampling(100_000)
                .with_sample_window(16),
        )
        .unwrap();
        assert_eq!(out.generated, 5_000);
        assert_eq!(out.stats.injected, 5_000);
        let series = out.stats.series.expect("sampling was on");
        assert!(series.len() <= 16, "window must bound the series");
    }
}
