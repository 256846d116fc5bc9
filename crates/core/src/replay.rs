//! Trace replay as a memory agent on the system's one run loop.
//!
//! A [`TraceAgent`] turns any [`RequestSource`] — a loaded trace, a
//! chunk-streamed CMTR file, or a profile-driven synthesizer — into a
//! [`MemoryAgent`]; [`replay`] runs it alone in a core-less [`System`],
//! sharing the execution-driven cycle limit, watchdog, auditors and
//! sampler. Requests enter the controller at their recorded CPU cycles,
//! before the DRAM tick of the same cycle, through the same clock
//! divider — so replay under the capture's scheduler reproduces its
//! per-channel counts and row-hit breakdowns exactly, and under another
//! scheduler approximates the processor open loop, optionally tightened
//! by the closed-loop throttle ([`ReplayConfig::max_outstanding`]).

use crate::config::SystemConfig;
use crate::faults::FaultPlan;
use crate::system::System;
use critmem_common::codec::{ByteReader, ByteWriter, CodecError};
use critmem_common::{AccessKind, CpuCycle, MemRequest, SimError};
use critmem_cpu::{AgentClass, AgentStats, MemoryAgent};
use critmem_sched::SchedulerKind;
use critmem_trace::{
    Fingerprint, ReplayConfig, ReplayStats, RequestSource, TraceError, TraceRecord,
};
use std::collections::HashMap;

/// A [`RequestSource`] behind the [`MemoryAgent`] interface.
///
/// Each cycle the agent emits, in order, every record whose recorded
/// cycle has arrived, as long as the closed-loop throttle allows. The
/// system's admission reports ([`MemoryAgent::admitted`]) keep the
/// books: the throttle counts admitted, uncompleted requests; latency
/// runs from the admission cycle; each bounced attempt counts one
/// queue-full retry; and while a bounced request waits for queue space
/// nothing behind it is emitted and no throttle stall is counted.
/// Criticality comes back with each completed request, so the agent
/// keeps only admission cycles per request.
pub(crate) struct TraceAgent<S> {
    source: S,
    /// Next record not yet emitted; `None` once the source is done.
    pending: Option<TraceRecord>,
    max_outstanding: Option<usize>,
    threads: usize,
    /// Admitted requests not yet completed (what the throttle counts).
    outstanding: usize,
    /// Emitted requests the controller has not accepted yet.
    unadmitted: usize,
    /// The last emitted batch stopped at the throttle: one stall to
    /// count once the whole batch is admitted.
    stall_after_batch: bool,
    admitted_at: HashMap<u64, CpuCycle>,
    stats: ReplayStats,
    /// Requests admitted, by kind: reads, writes, prefetches.
    issued: [u64; 3],
    latency_sum: u64,
    finished_at: Option<CpuCycle>,
    /// The source failed; the replay stops and reports it.
    error: Option<TraceError>,
}

impl<S: RequestSource> TraceAgent<S> {
    /// Wraps `source`, capping admitted requests in flight at
    /// `max_outstanding` when set. The agent spans the source
    /// fingerprint's core count of scheduler threads.
    ///
    /// # Errors
    ///
    /// Fails if the source cannot produce a valid first record.
    pub(crate) fn new(source: S, max_outstanding: Option<usize>) -> Result<Self, TraceError> {
        let mut agent = TraceAgent {
            threads: usize::from(source.fingerprint().cores),
            source,
            pending: None,
            max_outstanding,
            outstanding: 0,
            unadmitted: 0,
            stall_after_batch: false,
            admitted_at: HashMap::new(),
            stats: ReplayStats::default(),
            issued: [0; 3],
            latency_sum: 0,
            finished_at: None,
            error: None,
        };
        agent.pending = agent.pull();
        agent.error.take().map_or(Ok(agent), Err)
    }

    /// Pulls the next record. A source failure, or a record from a core
    /// the fingerprint does not have, ends the replay.
    fn pull(&mut self) -> Option<TraceRecord> {
        let rec = self.source.next_record().and_then(|rec| match rec {
            Some(r) if usize::from(r.core) >= self.threads => Err(TraceError::Corrupt(format!(
                "record {} comes from core {}, but the trace has {} cores",
                r.id, r.core, self.threads
            ))),
            rec => Ok(rec),
        });
        rec.unwrap_or_else(|e| {
            self.error = Some(e);
            None
        })
    }
}

impl<S: RequestSource + 'static> MemoryAgent for TraceAgent<S> {
    fn generate(&mut self, now: CpuCycle, out: &mut Vec<MemRequest>) {
        if self.unadmitted > 0 {
            return; // a bounced request holds everything behind it
        }
        while let Some(rec) = self.pending {
            if rec.enqueue_cycle > now {
                break;
            }
            let in_flight = self.outstanding + out.len();
            if self.max_outstanding.is_some_and(|cap| in_flight >= cap) {
                if out.is_empty() {
                    self.stats.throttled_cycles += 1;
                } else {
                    self.stall_after_batch = true;
                }
                break;
            }
            out.push(rec.to_request());
            self.pending = self.pull();
        }
        self.unadmitted = out.len();
    }

    fn admitted(&mut self, req: &MemRequest, accepted: bool, now: CpuCycle) {
        if !accepted {
            self.stats.queue_full_retries += 1;
            self.stall_after_batch = false;
            return;
        }
        self.unadmitted -= 1;
        self.outstanding += 1;
        self.stats.injected += 1;
        self.issued[match req.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Prefetch => 2,
        }] += 1;
        self.admitted_at.insert(req.id, now);
        if self.unadmitted == 0 && self.stall_after_batch {
            self.stall_after_batch = false;
            self.stats.throttled_cycles += 1;
        }
    }

    fn complete(&mut self, req: &MemRequest, now: CpuCycle) {
        self.outstanding -= 1;
        let s = &mut self.stats;
        s.completed += 1;
        let lat = now - self.admitted_at.remove(&req.id).unwrap_or(now);
        self.latency_sum += lat;
        if req.kind.is_demand_read() {
            let crit = req.crit.magnitude();
            s.reads += 1;
            s.read_latency_sum += lat;
            s.weighted_latency_sum += u128::from(lat) * u128::from(1 + crit);
            if crit > 0 {
                s.critical_reads += 1;
                s.critical_read_latency_sum += lat;
            }
        }
        if self.finished() {
            self.finished_at = Some(now);
        }
    }

    /// Injections plus completions: replay has no instructions to
    /// commit, so this is what the no-progress watchdog watches.
    fn units_done(&self) -> u64 {
        self.stats.injected + self.stats.completed
    }

    fn finished(&self) -> bool {
        self.error.is_some()
            || (self.pending.is_none() && self.outstanding == 0 && self.unadmitted == 0)
    }

    fn finish_cycle(&self) -> Option<CpuCycle> {
        self.finished_at
    }

    /// Never skippable. Honest replay quiescence (the next record's
    /// cycle, with closed-form throttle accounting) was prototyped: it
    /// stayed byte-identical and skipped 68% of `replay-synth`'s
    /// cycles, yet lost 8 of 10 alternated 10–15 s pairs on a 2-CPU
    /// host (median 490k vs 578k requests/s, ≈0.85×). The DRAM tick,
    /// 70% of host time, still ran 55k times, and evaluating the
    /// horizon every cycle cost more than the cheap cycles it saved.
    fn quiescent_until(&self, now: CpuCycle) -> CpuCycle {
        now + 1
    }

    fn stats(&self) -> AgentStats {
        let [reads, writes, prefetches] = self.issued;
        AgentStats {
            reads,
            writes,
            prefetches,
            completed: self.stats.completed,
            units_done: self.units_done(),
            units_target: 0,
            latency_sum: self.latency_sum,
            finish: self.finished_at.unwrap_or(0),
            // Replayed records are the capturing cores' cache misses.
            qos_millis: AgentClass::Ooo.default_qos_millis(),
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    /// Writes nothing: a request source has no state capture, so a
    /// replay is never checkpointed.
    fn save_state(&self, _: &mut ByteWriter) {}

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        Err(CodecError {
            message: "a trace replay cannot be restored from a checkpoint".into(),
            offset: r.position(),
        })
    }
}

/// Replays `source` through `scheduler`: builds a core-less system from
/// the source's fingerprint (DRAM topology and CPU clock; controller
/// policy from the paper baseline) whose only producer is a trace
/// agent over `source`, and runs it on the system's run loop to
/// exhaustion or to [`ReplayConfig::stop_at_cycle`]. Replay never
/// skips cycles; the trace agent's `quiescent_until` records why.
///
/// # Errors
///
/// [`SimError::Trace`] if the source fails or its fingerprint is
/// unusable; [`SimError::Watchdog`] on a cycle-budget overrun or a
/// stalled replay; [`SimError::AuditViolation`] from an audited replay.
///
/// # Examples
///
/// ```
/// use critmem::replay;
/// use critmem_common::AccessKind;
/// use critmem_dram::DramConfig;
/// use critmem_sched::SchedulerKind;
/// use critmem_trace::{Fingerprint, ReplayConfig, Trace, TraceRecord, TraceSource};
///
/// let fingerprint = Fingerprint::of(8, 4_270, &DramConfig::paper_baseline());
/// let records = (0..4u64)
///     .map(|i| TraceRecord {
///         enqueue_cycle: 5 + i * 8,
///         issued_at: i * 8,
///         id: i,
///         addr: i * 1024,
///         crit: 0,
///         core: i as u8,
///         kind: AccessKind::Read,
///     })
///     .collect();
/// let source = TraceSource::from(Trace { fingerprint, source: "doc".into(), records });
/// let stats = replay(source, SchedulerKind::FrFcfs, ReplayConfig::default()).unwrap();
/// assert_eq!(stats.completed, 4);
/// ```
pub fn replay<S: RequestSource + 'static>(
    source: S,
    scheduler: SchedulerKind,
    cfg: ReplayConfig,
) -> Result<ReplayStats, SimError> {
    replay_with(source, scheduler, cfg, None).map(|(stats, _)| stats)
}

/// [`replay`] with an optional armed fault plan, handing the source
/// back for its own counters (chunks read, records generated).
pub(crate) fn replay_with<S: RequestSource + 'static>(
    source: S,
    scheduler: SchedulerKind,
    cfg: ReplayConfig,
    faults: Option<&FaultPlan>,
) -> Result<(ReplayStats, S), SimError> {
    let trace_err = |e: TraceError| SimError::Trace(e.to_string());
    let fp = source.fingerprint();
    let dram = fp.dram_config().map_err(trace_err)?;
    fp.check_compatible(&Fingerprint::of(usize::from(fp.cores), fp.cpu_mhz, &dram))
        .map_err(trace_err)?;
    let mut sys_cfg = SystemConfig::paper_baseline(1);
    sys_cfg.cores = 0;
    sys_cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(0);
    sys_cfg.dram = dram;
    sys_cfg.cpu_mhz = fp.cpu_mhz;
    sys_cfg.scheduler = scheduler;
    sys_cfg.max_cycles = cfg.max_cycles;
    sys_cfg.watchdog = cfg.watchdog;
    sys_cfg.audit = cfg.audit;
    sys_cfg.sample_epoch = cfg.sample_epoch;
    sys_cfg.skip_ahead = false; // see `TraceAgent::quiescent_until`
    let agent = TraceAgent::new(source, cfg.max_outstanding).map_err(trace_err)?;
    let mut sys = System::with_agents(sys_cfg, vec![Box::new(agent)], cfg.sample_window)?;
    if let Some(plan) = faults {
        sys.arm_faults(plan);
    }
    let mut driven = sys.drive(cfg.stop_at_cycle);
    if driven.is_ok() && !sys.done() {
        // A `stop_at_cycle` harvest is this run's end: audit it as one.
        driven = sys.finish_audit();
    }
    let cpu_cycles = sys.now();
    let (run, (), mut agents) = sys.finish();
    let agent: Box<dyn std::any::Any> = agents.pop().expect("the replay's one agent");
    let agent = agent
        .downcast::<TraceAgent<S>>()
        .expect("the replay's agent is a TraceAgent");
    if let Some(e) = agent.error {
        return Err(trace_err(e));
    }
    driven?;
    let TraceAgent { stats, source, .. } = *agent;
    Ok((
        ReplayStats {
            cpu_cycles,
            channels: run.channels,
            series: run.series,
            ..stats
        },
        source,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use critmem_dram::DramConfig;
    use critmem_trace::{Trace, TraceSource, TraceStream};

    fn synthetic_trace(n: u64) -> Trace {
        let cfg = DramConfig::paper_baseline();
        let fingerprint = Fingerprint::of(8, 4_270, &cfg);
        let records = (0..n)
            .map(|i| TraceRecord {
                enqueue_cycle: 10 + i * 20,
                issued_at: i * 20,
                id: i,
                addr: (i % 64) * 1024 + (i / 64) * 256 * 1024,
                crit: if i % 4 == 0 { 100 + i } else { 0 },
                core: (i % 8) as u8,
                kind: if i % 5 == 4 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            })
            .collect();
        Trace {
            fingerprint,
            source: "synthetic".into(),
            records,
        }
    }

    fn run(trace: &Trace, cfg: ReplayConfig) -> Result<ReplayStats, SimError> {
        replay(TraceSource::from(trace.clone()), SchedulerKind::Fcfs, cfg)
    }

    fn enc(s: &ReplayStats) -> Vec<u8> {
        let mut w = ByteWriter::new();
        s.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn replay_services_every_record() {
        let stats = run(&synthetic_trace(200), ReplayConfig::default()).unwrap();
        assert_eq!(stats.injected, 200);
        assert_eq!(stats.completed, 200);
        assert_eq!(stats.requests_serviced(), 200);
        assert!(stats.reads > 0 && stats.mean_read_latency() > 0.0);
        assert!(stats.critical_reads > 0);
        assert!(stats.weighted_latency_sum > u128::from(stats.read_latency_sum));
    }

    #[test]
    fn throttle_delays_but_conserves() {
        let trace = synthetic_trace(200);
        let open = run(&trace, ReplayConfig::default()).unwrap();
        let throttled = run(&trace, ReplayConfig::default().with_max_outstanding(2)).unwrap();
        assert_eq!(throttled.completed, 200);
        assert!(throttled.throttled_cycles > 0, "cap of 2 must bite");
        assert!(throttled.cpu_cycles >= open.cpu_cycles);
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        // The DRAM system comes from the fingerprint, so the only
        // mismatch left is a fingerprint at odds with its own preset.
        let mut trace = synthetic_trace(10);
        let mut narrow = trace.fingerprint.dram_config().unwrap();
        narrow.org.channels = 2;
        let err = trace
            .fingerprint
            .check_compatible(&Fingerprint::of(8, 4_270, &narrow))
            .unwrap_err();
        assert!(matches!(err, TraceError::FingerprintMismatch(_)), "{err}");
        trace.fingerprint.bus_mhz += 1;
        let err = run(&trace, ReplayConfig::default()).unwrap_err();
        assert!(
            matches!(&err, SimError::Trace(m) if m.contains("fingerprint mismatch")),
            "{err}"
        );
        // Records must come from the fingerprint's cores.
        let mut trace = synthetic_trace(10);
        trace.records[6].core = 8;
        let err = run(&trace, ReplayConfig::default()).unwrap_err();
        assert!(
            matches!(&err, SimError::Trace(m) if m.contains("core 8")),
            "{err}"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = synthetic_trace(150);
        let a = run(&trace, ReplayConfig::default()).unwrap();
        let b = run(&trace, ReplayConfig::default()).unwrap();
        assert_eq!(a.cpu_cycles, b.cpu_cycles);
        assert_eq!(a.read_latency_sum, b.read_latency_sum);
        assert_eq!(a.row_hits(), b.row_hits());
    }

    #[test]
    fn windowed_sampling_caps_the_series() {
        let trace = synthetic_trace(200);
        let full = run(&trace, ReplayConfig::default().with_sampling(100)).unwrap();
        let windowed = ReplayConfig::default().with_sample_window(3);
        let windowed = run(&trace, windowed.with_sampling(100)).unwrap();
        let full = full.series.expect("sampling was on");
        let win = windowed.series.expect("sampling was on");
        assert!(full.len() > 3, "trace too short to exercise the window");
        assert_eq!(win.len(), 3);
        // The window keeps the *tail* of the full series.
        assert_eq!(win.cycles(), &full.cycles()[full.len() - 3..]);
    }

    #[test]
    fn streamed_source_replays_identically_to_in_memory() {
        let trace = synthetic_trace(600);
        let bytes = trace.to_bytes().unwrap();
        let memory = run(&trace, ReplayConfig::default()).unwrap();
        let stream = TraceStream::new(std::io::Cursor::new(bytes)).unwrap();
        let (streamed, stream) =
            replay_with(stream, SchedulerKind::Fcfs, ReplayConfig::default(), None).unwrap();
        assert_eq!(
            enc(&memory),
            enc(&streamed),
            "streamed replay must be byte-identical to in-memory replay"
        );
        assert!(stream.peak_resident_bytes() <= critmem_trace::CHUNK_BYTES);
    }

    #[test]
    fn audited_replay_is_silent_and_byte_identical() {
        let trace = synthetic_trace(300);
        // Drained, and harvested mid-trace: both end with the audit's
        // end-of-run checks.
        let harvest = ReplayConfig::default().with_stop_at_cycle(2_000);
        for cfg in [ReplayConfig::default(), harvest] {
            let plain = run(&trace, cfg).unwrap();
            let audited = run(&trace, cfg.with_audit(true))
                .expect("a clean replay must not raise audit violations");
            assert_eq!(
                enc(&plain),
                enc(&audited),
                "auditing must not perturb the replay"
            );
            assert_eq!(plain.completed < 300, cfg == harvest);
        }
    }

    #[test]
    fn audited_harvest_runs_the_end_of_run_audit() {
        // A wedged bank's rank never takes another refresh. With the
        // watchdog off only the end-of-run refresh-interval check can
        // see that, and a harvest ends the run as surely as a drain.
        let plan = FaultPlan::new(0).with_fault(FaultKind::WedgeBank {
            channel: 0,
            rank: 0,
            bank: 0,
            at_cycle: 0,
        });
        let mut cfg = ReplayConfig::default()
            .with_audit(true)
            .with_stop_at_cycle(400_000);
        cfg.watchdog = critmem_common::WatchdogConfig::disabled();
        let source = TraceSource::from(synthetic_trace(100));
        let err = replay_with(source, SchedulerKind::Fcfs, cfg, Some(&plan))
            .expect_err("a harvest past the refresh bound must fail its audit");
        assert!(
            matches!(&err, SimError::AuditViolation(s) if s.what.contains("refresh overdue")),
            "got {err}"
        );
    }

    #[test]
    fn audited_replay_detects_a_wedged_bank() {
        let plan = FaultPlan::new(0).with_fault(FaultKind::WedgeBank {
            channel: 0,
            rank: 0,
            bank: 0,
            at_cycle: 0,
        });
        let mut cfg = ReplayConfig::default().with_audit(true);
        cfg.watchdog.no_commit_cycles = 50_000;
        cfg.watchdog.check_interval = 1_024;
        let source = TraceSource::from(synthetic_trace(100));
        let err = replay_with(source, SchedulerKind::Fcfs, cfg, Some(&plan))
            .expect_err("a wedged bank must never complete silently");
        assert!(
            matches!(err, SimError::Watchdog(_) | SimError::AuditViolation(_)),
            "got {err}"
        );
    }
}
