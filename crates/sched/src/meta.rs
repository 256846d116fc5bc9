//! `MetaSwitch` — a dynamic mode-switching meta-scheduler in the
//! spirit of CADS (Olmedo Sanchez & Sun) and the GPGPU-Sim
//! `dyn_thresh` / round-robin mode schedulers: rather than committing
//! to one fixed policy, it wraps a *performance-mode* scheduler (e.g.
//! the paper's CASRAS-Crit) and a *fairness-mode* scheduler (e.g.
//! [`crate::Bliss`]) and flips between them at runtime.
//!
//! The switching rule watches two congestion signals each DRAM cycle:
//!
//! * **Queue occupancy** — a deep transaction queue means many
//!   applications are contending and the criticality-first ordering is
//!   probably starving someone.
//! * **Oldest queued age** — a request older than the stall watermark
//!   is direct evidence of starvation.
//!
//! Performance → fairness when *either* signal crosses its high
//! watermark; fairness → performance when *both* are back under their
//! low watermarks. A minimum-residency interval between switches
//! provides hysteresis so the controller cannot thrash at a boundary.
//!
//! Both inner schedulers receive every `on_enqueue` / `on_complete` /
//! `on_tick` notification regardless of which one is active, so the
//! inactive policy's ranking state (ATLAS attained service, TCM
//! clusters, BLISS streaks…) stays warm and a switch takes effect
//! immediately. Only `select` is routed exclusively to the active
//! mode. (Schedulers that learn inside `select`, like MORSE, only
//! learn while active.)
//!
//! Mode switches are only evaluated in `on_tick`, and the
//! [`CommandScheduler::next_event_cycle`] horizon guarantees a tick at
//! every cycle where a switch could possibly fire, so the switch
//! schedule — and therefore every statistic — is byte-identical with
//! and without the skip-ahead kernel. Residency metrics are advanced
//! only at switch events (completed stints), never per cycle, for the
//! same reason.

use critmem_dram::{Candidate, CommandScheduler, SchedContext, Transaction};

/// Watermarks and hysteresis for [`MetaSwitch`]. All fields are plain
/// literals so configs can live inside const
/// [`crate::SchedulerKind`] values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaSwitchConfig {
    /// Queue occupancy at or above which the scheduler enters
    /// fairness mode.
    pub high_occupancy: usize,
    /// Queue occupancy at or below which performance mode may resume.
    pub low_occupancy: usize,
    /// Oldest-queued-request age (DRAM cycles) at or above which the
    /// scheduler enters fairness mode.
    pub stall_watermark: u64,
    /// Oldest age at or below which performance mode may resume.
    pub low_stall: u64,
    /// Minimum DRAM cycles between consecutive switches (hysteresis).
    pub min_residency: u64,
}

impl MetaSwitchConfig {
    /// Defaults sized for the 64-entry per-channel transaction queue
    /// and the paper's 1,066 MHz DRAM clock: enter fairness mode when
    /// 12+ requests queue up or one waits 1,500 cycles; return when
    /// 4 or fewer queue and none is older than 400 cycles; stay at
    /// least 2,000 cycles in a mode.
    pub const DEFAULT: MetaSwitchConfig = MetaSwitchConfig {
        high_occupancy: 12,
        low_occupancy: 4,
        stall_watermark: 1_500,
        low_stall: 400,
        min_residency: 2_000,
    };
}

impl Default for MetaSwitchConfig {
    fn default() -> Self {
        MetaSwitchConfig::DEFAULT
    }
}

/// Which inner policy currently owns `select`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The performance-oriented inner scheduler is active.
    Perf,
    /// The fairness-oriented inner scheduler is active.
    Fair,
}

/// The mode-switching meta-scheduler. Construct via
/// [`crate::SchedulerKind::MetaSwitch`] (which builds both inner
/// schedulers) or directly from two boxed schedulers.
pub struct MetaSwitch {
    cfg: MetaSwitchConfig,
    perf: Box<dyn CommandScheduler>,
    fair: Box<dyn CommandScheduler>,
    mode: Mode,
    /// Cycle the current mode was entered.
    mode_since: u64,
    /// Earliest cycle the next switch is allowed.
    next_switch_ok: u64,
    /// Total mode switches.
    switches: u64,
    /// DRAM cycles spent in completed performance-mode stints.
    perf_resident: u64,
    /// DRAM cycles spent in completed fairness-mode stints.
    fair_resident: u64,
}

impl std::fmt::Debug for MetaSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaSwitch")
            .field("perf", &self.perf.name())
            .field("fair", &self.fair.name())
            .field("mode", &self.mode)
            .field("switches", &self.switches)
            .finish()
    }
}

impl MetaSwitch {
    /// Wraps a performance-mode and a fairness-mode scheduler.
    /// Starts in performance mode.
    ///
    /// # Panics
    ///
    /// Panics if the watermarks are not ordered
    /// (`low_occupancy < high_occupancy`, `low_stall < stall_watermark`).
    pub fn new(
        perf: Box<dyn CommandScheduler>,
        fair: Box<dyn CommandScheduler>,
        cfg: MetaSwitchConfig,
    ) -> Self {
        assert!(
            cfg.low_occupancy < cfg.high_occupancy,
            "occupancy watermarks must satisfy low < high"
        );
        assert!(
            cfg.low_stall < cfg.stall_watermark,
            "stall watermarks must satisfy low < high"
        );
        MetaSwitch {
            cfg,
            perf,
            fair,
            mode: Mode::Perf,
            mode_since: 0,
            next_switch_ok: 0,
            switches: 0,
            perf_resident: 0,
            fair_resident: 0,
        }
    }

    /// `true` while the fairness-mode scheduler owns arbitration.
    pub fn in_fairness_mode(&self) -> bool {
        self.mode == Mode::Fair
    }

    /// Total mode switches so far.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    fn active(&mut self) -> &mut dyn CommandScheduler {
        match self.mode {
            Mode::Perf => self.perf.as_mut(),
            Mode::Fair => self.fair.as_mut(),
        }
    }

    fn switch_to(&mut self, mode: Mode, now: u64) {
        let stint = now.saturating_sub(self.mode_since);
        match self.mode {
            Mode::Perf => self.perf_resident += stint,
            Mode::Fair => self.fair_resident += stint,
        }
        self.mode = mode;
        self.mode_since = now;
        self.next_switch_ok = now + self.cfg.min_residency;
        self.switches += 1;
    }
}

impl CommandScheduler for MetaSwitch {
    fn select(&mut self, ctx: &SchedContext<'_>, candidates: &[Candidate]) -> Option<usize> {
        self.active().select(ctx, candidates)
    }

    fn on_enqueue(&mut self, txn: &Transaction, now: u64) {
        self.perf.on_enqueue(txn, now);
        self.fair.on_enqueue(txn, now);
    }

    fn on_complete(&mut self, txn: &Transaction, now: u64) {
        self.perf.on_complete(txn, now);
        self.fair.on_complete(txn, now);
    }

    fn on_tick(&mut self, ctx: &SchedContext<'_>) {
        self.perf.on_tick(ctx);
        self.fair.on_tick(ctx);
        if ctx.now < self.next_switch_ok {
            return;
        }
        let occupancy = ctx.queue.len();
        // A queue walk, so taken only when occupancy leaves it open.
        let oldest = || ctx.queue.iter().map(|t| t.age(ctx.now)).max().unwrap_or(0);
        match self.mode {
            Mode::Perf
                if occupancy >= self.cfg.high_occupancy || oldest() >= self.cfg.stall_watermark =>
            {
                self.switch_to(Mode::Fair, ctx.now);
            }
            Mode::Fair if occupancy <= self.cfg.low_occupancy && oldest() <= self.cfg.low_stall => {
                self.switch_to(Mode::Perf, ctx.now);
            }
            _ => {}
        }
    }

    fn next_event_cycle(&self, now: u64, queue_len: usize) -> u64 {
        let inner = self
            .perf
            .next_event_cycle(now, queue_len)
            .min(self.fair.next_event_cycle(now, queue_len));
        // While transactions are queued, the oldest age grows every
        // cycle and can cross a watermark at any of them — the switch
        // logic must run per tick. With an empty queue the only
        // possible transition is fairness → performance, which cannot
        // fire before `next_switch_ok`.
        let own = if queue_len > 0 {
            now + 1
        } else if self.mode == Mode::Fair {
            self.next_switch_ok.max(now + 1)
        } else {
            u64::MAX
        };
        inner.min(own)
    }

    fn name(&self) -> &str {
        "MetaSwitch"
    }

    fn observe_metrics(&self, v: &mut dyn critmem_common::MetricVisitor) {
        // Residency counters cover *completed* stints only: they
        // change exactly at switch events, so samples are identical
        // with and without skip-ahead. The inner schedulers' own
        // `sched_` metrics are not forwarded (two inner policies of
        // the same kind would collide within one channel component).
        v.gauge(
            "sched_mode",
            "mode",
            match self.mode {
                Mode::Perf => 0.0,
                Mode::Fair => 1.0,
            },
        );
        v.counter("sched_mode_switches", "events", self.switches);
        v.counter("sched_perf_residency", "cycles", self.perf_resident);
        v.counter("sched_fair_residency", "cycles", self.fair_resident);
    }

    fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        w.put_bool(self.mode == Mode::Fair);
        w.put_u64(self.mode_since);
        w.put_u64(self.next_switch_ok);
        w.put_u64(self.switches);
        w.put_u64(self.perf_resident);
        w.put_u64(self.fair_resident);
        self.perf.save_state(w);
        self.fair.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<(), critmem_common::codec::CodecError> {
        self.mode = if r.get_bool()? {
            Mode::Fair
        } else {
            Mode::Perf
        };
        self.mode_since = r.get_u64()?;
        self.next_switch_ok = r.get_u64()?;
        self.switches = r.get_u64()?;
        self.perf_resident = r.get_u64()?;
        self.fair_resident = r.get_u64()?;
        self.perf.load_state(r)?;
        self.fair.load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{mk_candidate, mk_txn, Timing};
    use crate::{Bliss, BlissConfig, FrFcfs};
    use critmem_common::codec::{ByteReader, ByteWriter};
    use critmem_common::ChannelId;
    use critmem_dram::{ChannelTiming, CommandKind, Direction, Fcfs};

    fn tiny_cfg() -> MetaSwitchConfig {
        MetaSwitchConfig {
            high_occupancy: 3,
            low_occupancy: 1,
            stall_watermark: 500,
            low_stall: 100,
            min_residency: 50,
        }
    }

    fn mk(cfg: MetaSwitchConfig) -> MetaSwitch {
        MetaSwitch::new(Box::new(Fcfs::new()), Box::new(FrFcfs::new()), cfg)
    }

    fn ctx_at<'a>(
        queue: &'a [critmem_dram::Transaction],
        timing: &'a ChannelTiming,
        now: u64,
    ) -> SchedContext<'a> {
        SchedContext {
            now,
            channel: ChannelId(0),
            queue,
            timing,
            direction: Direction::Read,
        }
    }

    #[test]
    fn occupancy_watermark_switches_to_fairness_mode() {
        let mut s = mk(tiny_cfg());
        let t = Timing::default_timing();
        let queue: Vec<_> = (0..3u64).map(|i| mk_txn(i as u8, i as u8, i)).collect();
        assert!(!s.in_fairness_mode());
        s.on_tick(&ctx_at(&queue, &t, 10));
        assert!(s.in_fairness_mode());
        assert_eq!(s.switch_count(), 1);
    }

    #[test]
    fn stall_watermark_switches_even_at_low_occupancy() {
        let mut s = mk(tiny_cfg());
        let t = Timing::default_timing();
        let queue = vec![mk_txn(0, 0, 0)]; // arrival 0
        s.on_tick(&ctx_at(&queue, &t, 600)); // age 600 >= 500
        assert!(s.in_fairness_mode());
    }

    #[test]
    fn hysteresis_blocks_immediate_switch_back() {
        let mut s = mk(tiny_cfg());
        let t = Timing::default_timing();
        let deep: Vec<_> = (0..3u64).map(|i| mk_txn(i as u8, i as u8, i)).collect();
        s.on_tick(&ctx_at(&deep, &t, 10));
        assert!(s.in_fairness_mode());
        // Queue drains immediately, but min_residency = 50 pins us.
        s.on_tick(&ctx_at(&[], &t, 20));
        assert!(s.in_fairness_mode(), "switch-back before residency");
        s.on_tick(&ctx_at(&[], &t, 60));
        assert!(!s.in_fairness_mode(), "switch-back after residency");
        assert_eq!(s.switch_count(), 2);
    }

    #[test]
    fn select_routes_to_the_active_mode() {
        // Perf = FCFS (oldest seq), fair = FR-FCFS (row hits first):
        // the same candidate set resolves differently per mode.
        let mut s = MetaSwitch::new(Box::new(Fcfs::new()), Box::new(FrFcfs::new()), tiny_cfg());
        let t = Timing::default_timing();
        let queue = vec![mk_txn(0, 0, 1), mk_txn(1, 1, 5)];
        let cands = vec![
            mk_candidate(0, CommandKind::Activate, false, 0), // oldest
            mk_candidate(1, CommandKind::Read, true, 0),      // row hit
        ];
        let ctx = ctx_at(&queue, &t, 10);
        assert_eq!(s.select(&ctx, &cands), Some(0), "FCFS picks the oldest");
        let deep: Vec<_> = (0..3u64).map(|i| mk_txn(i as u8, i as u8, i)).collect();
        s.on_tick(&ctx_at(&deep, &t, 10));
        assert!(s.in_fairness_mode());
        assert_eq!(
            s.select(&ctx, &cands),
            Some(1),
            "FR-FCFS prefers the row hit"
        );
    }

    #[test]
    fn horizon_covers_every_possible_switch_cycle() {
        let mut s = mk(tiny_cfg());
        // Queued transactions: ages grow per cycle, must tick each one.
        assert_eq!(s.next_event_cycle(100, 5), 101);
        // Empty queue in performance mode: nothing can fire.
        assert_eq!(s.next_event_cycle(100, 0), u64::MAX);
        // Empty queue in fairness mode: switch-back gated on residency.
        let t = Timing::default_timing();
        let deep: Vec<_> = (0..3u64).map(|i| mk_txn(i as u8, i as u8, i)).collect();
        s.on_tick(&ctx_at(&deep, &t, 10));
        assert!(s.in_fairness_mode());
        assert_eq!(s.next_event_cycle(20, 0), 60); // next_switch_ok = 10 + 50
        assert_eq!(s.next_event_cycle(70, 0), 71); // overdue: next tick
    }

    #[test]
    fn residency_metrics_advance_only_at_switches() {
        let mut s = mk(tiny_cfg());
        let t = Timing::default_timing();
        let deep: Vec<_> = (0..3u64).map(|i| mk_txn(i as u8, i as u8, i)).collect();
        s.on_tick(&ctx_at(&deep, &t, 40));
        assert_eq!(s.perf_resident, 40, "perf stint 0..40");
        assert_eq!(s.fair_resident, 0);
        s.on_tick(&ctx_at(&[], &t, 100));
        assert_eq!(s.fair_resident, 60, "fair stint 40..100");
    }

    #[test]
    fn state_round_trips_through_the_codec() {
        let mut s = MetaSwitch::new(
            Box::new(Bliss::new(4, BlissConfig::DEFAULT)),
            Box::new(FrFcfs::new()),
            tiny_cfg(),
        );
        let t = Timing::default_timing();
        let deep: Vec<_> = (0..3u64).map(|i| mk_txn(i as u8, i as u8, i)).collect();
        s.on_tick(&ctx_at(&deep, &t, 40));
        for _ in 0..4 {
            s.on_complete(&mk_txn(1, 0, 2), 41);
        }
        let mut w = ByteWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = MetaSwitch::new(
            Box::new(Bliss::new(4, BlissConfig::DEFAULT)),
            Box::new(FrFcfs::new()),
            tiny_cfg(),
        );
        fresh
            .load_state(&mut ByteReader::new(&bytes))
            .expect("round trip");
        assert!(fresh.in_fairness_mode());
        assert_eq!(fresh.switch_count(), s.switch_count());
        assert_eq!(fresh.next_switch_ok, s.next_switch_ok);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn rejects_inverted_watermarks() {
        let _ = mk(MetaSwitchConfig {
            high_occupancy: 2,
            low_occupancy: 2,
            ..MetaSwitchConfig::DEFAULT
        });
    }
}
