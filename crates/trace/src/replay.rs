//! Replay's configuration and statistics, plus the fingerprint →
//! DRAM configuration bridge. The replay itself runs in the `critmem`
//! crate: `critmem::replay` wraps any
//! [`RequestSource`](crate::RequestSource) in a memory agent, puts it
//! in a core-less system and drives it on the execution-driven
//! system's own run loop.

use crate::format::{Fingerprint, TraceError};
use critmem_common::codec::{ByteReader, ByteWriter, CodecError};
use critmem_common::{SeriesSet, WatchdogConfig};
use critmem_dram::{timing::preset_by_name, ChannelStats, DramConfig};

impl Fingerprint {
    /// Reconstructs a [`DramConfig`] with this fingerprint's topology,
    /// taking controller *policy* knobs (queue capacity, watermarks,
    /// starvation cap, refresh) from the paper baseline.
    ///
    /// # Errors
    ///
    /// Fails if the preset name is unknown to this build.
    pub fn dram_config(&self) -> Result<DramConfig, TraceError> {
        let preset = preset_by_name(&self.preset).ok_or_else(|| {
            TraceError::FingerprintMismatch(format!("unknown device preset {:?}", self.preset))
        })?;
        let mut cfg = DramConfig::paper_baseline();
        cfg.preset = preset;
        cfg.interleaving = self.interleaving;
        cfg.org.channels = self.channels;
        cfg.org.ranks_per_channel = self.ranks_per_channel;
        cfg.org.banks_per_rank = self.banks_per_rank;
        cfg.org.row_bytes = self.row_bytes;
        cfg.org.line_bytes = self.line_bytes;
        Ok(cfg)
    }
}

/// Replay pacing, sampling, and fault-detection policy.
///
/// This is the single reference for how the knobs interact (the
/// `repro trace` flags all funnel into this struct). `critmem::replay`
/// maps each knob onto the execution-driven system's own machinery, so
/// replay stops, samples, audits and trips its watchdog exactly as an
/// execution-driven run does:
///
/// - **Stopping.** The replay ends when the source is exhausted and
///   every outstanding request has drained — unless
///   [`stop_at_cycle`](Self::stop_at_cycle) harvests early, or
///   [`max_cycles`](Self::max_cycles) (the system's cycle limit) aborts
///   a runaway. For unbounded sources ([`crate::SynthSource`] without a
///   limit), set one of the two or the replay never ends.
/// - **Sampling.** [`sample_epoch`](Self::sample_epoch) turns on the
///   system's cycle-anchored `obs` sampler: the series holds the
///   `dram.chN` components plus `agent.a0`, the replayed traffic's own
///   counters. A final sample is always taken at the harvest cycle,
///   whatever stopped the run. On a long-horizon replay the series
///   would grow without bound, so pair it with
///   [`sample_window`](Self::sample_window) to keep only the trailing
///   `W` samples (a sliding window of constant memory). `sample_window`
///   without `sample_epoch` is inert.
/// - **Watchdog.** [`watchdog`](Self::watchdog) runs *independently* of
///   sampling and stop conditions, on its own check interval: the
///   no-commit check watches injections + completions (replay has no
///   cores to commit), and the request-age check watches the DRAM
///   queues. A trip surfaces as a typed
///   [`SimError::Watchdog`](critmem_common::SimError::Watchdog) —
///   sampling does not defer it, and a `stop_at_cycle` harvest cannot
///   race it (the stop check runs first).
///
/// # Examples
///
/// ```
/// use critmem_trace::ReplayConfig;
///
/// // Long-horizon shape: throttled injection, windowed sampling.
/// let cfg = ReplayConfig::default()
///     .with_max_outstanding(64)
///     .with_sampling(10_000)
///     .with_sample_window(512);
/// assert_eq!(cfg.sample_epoch, Some(10_000));
/// assert_eq!(cfg.sample_window, Some(512));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Closed-loop throttle: cap on requests in flight. `None` injects
    /// purely by recorded cycle (open loop — and *exact* when scheduler
    /// and controller config match the capture). A `Some(n)` cap mimics
    /// the MSHR back-pressure of the capturing machine: a request whose
    /// recorded cycle has arrived still waits until a slot frees up.
    pub max_outstanding: Option<usize>,
    /// Harvest statistics after exactly this many CPU cycles instead of
    /// draining every outstanding request. Set to the capturing run's
    /// final cycle to compare replay statistics against the execution
    /// run bit-for-bit (the execution run also stops with requests in
    /// flight the moment every core commits its target).
    pub stop_at_cycle: Option<u64>,
    /// Deadlock guard: abort if the replay exceeds this many CPU cycles.
    pub max_cycles: u64,
    /// When set, sample the per-channel DRAM metrics (and the replayed
    /// traffic's counters) every `N` CPU cycles into
    /// [`ReplayStats::series`].
    pub sample_epoch: Option<u64>,
    /// When set (with `sample_epoch`), retain only the trailing `W`
    /// samples — the sliding window that keeps unbounded-horizon
    /// replays at constant memory. `None` keeps the full series.
    pub sample_window: Option<usize>,
    /// Forward-progress watchdog; see the struct-level docs for how it
    /// interacts with sampling and the stop conditions.
    pub watchdog: WatchdogConfig,
    /// Attaches the shadow protocol auditor to every DRAM channel and
    /// the request-conservation auditor to the controller boundary.
    /// Auditing never changes scheduling decisions — an audited replay
    /// is byte-identical to an unaudited one — but a timing, bank-state
    /// or conservation violation, or a refresh overdue when the replay
    /// ends (drained or harvested), surfaces as a typed
    /// [`SimError::AuditViolation`](critmem_common::SimError::AuditViolation).
    pub audit: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            max_outstanding: None,
            stop_at_cycle: None,
            max_cycles: 10_000_000_000,
            sample_epoch: None,
            sample_window: None,
            watchdog: WatchdogConfig::default(),
            audit: false,
        }
    }
}

impl ReplayConfig {
    /// Caps requests in flight (the closed-loop throttle).
    #[must_use]
    pub fn with_max_outstanding(mut self, cap: usize) -> Self {
        self.max_outstanding = Some(cap);
        self
    }

    /// Harvests statistics at exactly `cycle` instead of draining.
    #[must_use]
    pub fn with_stop_at_cycle(mut self, cycle: u64) -> Self {
        self.stop_at_cycle = Some(cycle);
        self
    }

    /// Samples per-channel metrics every `epoch` CPU cycles into
    /// [`ReplayStats::series`] (same name as
    /// `critmem::SystemConfig::with_sampling`).
    #[must_use]
    pub fn with_sampling(mut self, epoch: u64) -> Self {
        self.sample_epoch = Some(epoch);
        self
    }

    /// Caps the sampled series at the trailing `window` samples (the
    /// constant-memory knob for unbounded-horizon replays). Inert
    /// unless [`Self::with_sampling`] is also set.
    #[must_use]
    pub fn with_sample_window(mut self, window: usize) -> Self {
        self.sample_window = Some(window);
        self
    }

    /// Enables the shadow protocol auditor ([`Self::audit`]).
    #[must_use]
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }
}

/// Statistics of one replay run.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Requests injected into the DRAM system.
    pub injected: u64,
    /// Requests whose completion was observed.
    pub completed: u64,
    /// CPU cycles simulated until the last completion.
    pub cpu_cycles: u64,
    /// CPU cycles on which injection stalled against the
    /// `max_outstanding` throttle.
    pub throttled_cycles: u64,
    /// Injection attempts bounced off a full transaction queue.
    pub queue_full_retries: u64,
    /// Demand reads completed.
    pub reads: u64,
    /// Total demand-read latency (CPU cycles, injection to completion).
    pub read_latency_sum: u64,
    /// Critical demand reads completed.
    pub critical_reads: u64,
    /// Total latency of critical demand reads.
    pub critical_read_latency_sum: u64,
    /// Criticality-weighted latency: Σ latency × (1 + magnitude). The
    /// scalar a criticality-aware scheduler is built to minimize.
    pub weighted_latency_sum: u128,
    /// Final per-channel controller statistics.
    pub channels: Vec<ChannelStats>,
    /// Cycle-sampled DRAM metrics, present when
    /// [`ReplayConfig::sample_epoch`] was set.
    pub series: Option<SeriesSet>,
}

impl ReplayStats {
    /// Mean demand-read latency in CPU cycles.
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads as f64
        }
    }

    /// Mean latency of critical demand reads in CPU cycles.
    pub fn mean_critical_read_latency(&self) -> f64 {
        if self.critical_reads == 0 {
            0.0
        } else {
            self.critical_read_latency_sum as f64 / self.critical_reads as f64
        }
    }

    /// Total row hits across channels.
    pub fn row_hits(&self) -> u64 {
        self.channels.iter().map(|c| c.row_hits).sum()
    }

    /// Total requests serviced across channels (reads + writes).
    pub fn requests_serviced(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.reads_completed + c.writes_completed)
            .sum()
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut ByteWriter) {
        for v in [
            self.injected,
            self.completed,
            self.cpu_cycles,
            self.throttled_cycles,
            self.queue_full_retries,
            self.reads,
            self.read_latency_sum,
            self.critical_reads,
            self.critical_read_latency_sum,
        ] {
            w.put_u64(v);
        }
        w.put_u128(self.weighted_latency_sum);
        w.put_u32(self.channels.len() as u32);
        for c in &self.channels {
            c.encode(w);
        }
        w.put_bool(self.series.is_some());
        if let Some(series) = &self.series {
            series.encode(w);
        }
    }

    /// Deserializes journaled replay statistics.
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let injected = r.get_u64()?;
        let completed = r.get_u64()?;
        let cpu_cycles = r.get_u64()?;
        let throttled_cycles = r.get_u64()?;
        let queue_full_retries = r.get_u64()?;
        let reads = r.get_u64()?;
        let read_latency_sum = r.get_u64()?;
        let critical_reads = r.get_u64()?;
        let critical_read_latency_sum = r.get_u64()?;
        let weighted_latency_sum = r.get_u128()?;
        let n_channels = r.get_u32()? as usize;
        let channels = (0..n_channels)
            .map(|_| ChannelStats::decode(r))
            .collect::<Result<Vec<_>, _>>()?;
        let series = if r.get_bool()? {
            Some(SeriesSet::decode(r)?)
        } else {
            None
        };
        Ok(ReplayStats {
            injected,
            completed,
            cpu_cycles,
            throttled_cycles,
            queue_full_retries,
            reads,
            read_latency_sum,
            critical_reads,
            critical_read_latency_sum,
            weighted_latency_sum,
            channels,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_reconstructs_dram_config() {
        let base = DramConfig::paper_baseline();
        let fp = Fingerprint::of(8, 4_270, &base);
        let cfg = fp.dram_config().unwrap();
        assert_eq!(cfg.org, base.org);
        assert_eq!(cfg.preset.name, base.preset.name);
        assert_eq!(cfg.interleaving, base.interleaving);
    }
}
