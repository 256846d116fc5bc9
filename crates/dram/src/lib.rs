//! Cycle-level DDR3 DRAM model for the `critmem` simulator.
//!
//! Implements the memory subsystem of Table 3 of the ISCA 2013 paper
//! *"Improving Memory Scheduling via Processor-Side Load Criticality
//! Information"*: a quad-channel, quad-rank DDR3-2133 system with
//! eight banks per rank, 1 KB row buffers, open-page policy, page
//! interleaving, a 64-entry transaction queue per channel, and full
//! JEDEC-style timing (tRCD/tCL/tWL/tCCD/tWTR/tWR/tRTP/tRP/tRRD/tRTRS/
//! tRAS/tRC plus refresh with tRFC).
//!
//! The scheduling *policy* is pluggable via [`CommandScheduler`]; the
//! policies themselves (FR-FCFS, the paper's criticality-aware
//! variants, AHB, PAR-BS, TCM, MORSE) live in the `critmem-sched`
//! crate.
//!
//! # Examples
//!
//! ```
//! use critmem_dram::{DramConfig, DramSystem, Fcfs};
//! use critmem_common::{AccessKind, CoreId, MemRequest};
//!
//! let cfg = DramConfig::paper_baseline();
//! let mut dram = DramSystem::new(cfg, |_| Box::new(Fcfs::new()));
//! dram.enqueue(MemRequest::new(1, 0x40, AccessKind::Read, CoreId(0))).unwrap();
//! let mut completions = Vec::new();
//! for _ in 0..100 {
//!     completions.extend_from_slice(dram.tick());
//! }
//! assert_eq!(completions.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod bank;
pub mod command;
pub mod config;
pub mod controller;
pub mod mapping;
pub mod queue;
pub mod scheduler;
pub mod timing;

pub use audit::ProtocolAuditor;
pub use bank::{Bank, ChannelTiming};
pub use command::{CommandKind, DramCommand};
pub use config::{DramConfig, DramOrganization};
pub use controller::{ChannelController, ChannelStats, CompletedTxn};
pub use mapping::{AddressMapping, DramLocation, Interleaving};
pub use queue::{Direction, Transaction};
pub use scheduler::{Candidate, CommandScheduler, Fcfs, SchedContext};
pub use timing::{DevicePreset, TimingParams, DDR3_1066, DDR3_1600, DDR3_2133};

use critmem_common::{ChannelId, MemRequest};

/// The full multi-channel DRAM subsystem: one [`ChannelController`] per
/// channel plus the shared address mapping.
///
/// The caller (the system model in the `critmem` crate) owns the clock
/// crossing: [`DramSystem::tick`] advances every channel by exactly one
/// DRAM cycle.
pub struct DramSystem {
    controllers: Vec<ChannelController>,
    mapping: AddressMapping,
    cfg: DramConfig,
    /// Completion buffer reused across ticks (returned by slice).
    completions: Vec<CompletedTxn>,
}

impl std::fmt::Debug for DramSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramSystem")
            .field("channels", &self.controllers.len())
            .field("preset", &self.cfg.preset.name)
            .finish_non_exhaustive()
    }
}

impl DramSystem {
    /// Builds the subsystem, instantiating one scheduler per channel
    /// via `make_scheduler`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    pub fn new<F>(cfg: DramConfig, mut make_scheduler: F) -> Self
    where
        F: FnMut(ChannelId) -> Box<dyn CommandScheduler>,
    {
        cfg.validate().expect("invalid DRAM configuration");
        let mapping = AddressMapping::new(cfg.org, cfg.interleaving);
        let controllers = (0..cfg.org.channels)
            .map(|c| {
                let id = ChannelId(c);
                ChannelController::new(id, cfg, make_scheduler(id))
            })
            .collect();
        DramSystem {
            controllers,
            mapping,
            cfg,
            completions: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The address mapping in force.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Routes and enqueues a request. On a full transaction queue the
    /// request is handed back for the caller to retry.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let loc = self.mapping.locate(req.addr);
        self.controllers[loc.channel.index()].enqueue(req, loc)
    }

    /// Raises the criticality of a queued request (located by its
    /// address's home channel). Returns `true` if the request was still
    /// queued there. Used by the §5.1 naive forwarding scheme.
    pub fn promote_request(
        &mut self,
        addr: u64,
        id: critmem_common::ReqId,
        crit: critmem_common::Criticality,
    ) -> bool {
        let loc = self.mapping.locate(addr);
        self.controllers[loc.channel.index()].promote_request(id, crit)
    }

    /// Raises the criticality of a queued read matching `(line
    /// address, core)`. Returns `true` if found.
    pub fn promote_by_addr(
        &mut self,
        addr: u64,
        core: critmem_common::CoreId,
        crit: critmem_common::Criticality,
    ) -> bool {
        let loc = self.mapping.locate(addr);
        self.controllers[loc.channel.index()].promote_by_addr(addr, core, crit)
    }

    /// Advances every channel one DRAM cycle; returns all completions.
    ///
    /// The returned slice borrows an internal buffer that is
    /// overwritten by the next call, so callers copy out what they
    /// need — this keeps the per-cycle path allocation-free.
    pub fn tick(&mut self) -> &[CompletedTxn] {
        self.completions.clear();
        for c in &mut self.controllers {
            c.tick_into(&mut self.completions);
        }
        &self.completions
    }

    /// The earliest future DRAM cycle at which any channel could do
    /// anything beyond the bookkeeping [`DramSystem::skip`] replays —
    /// the min over every channel's
    /// [`ChannelController::next_event_cycle`].
    pub fn next_event_cycle(&self) -> critmem_common::DramCycle {
        self.controllers
            .iter()
            .map(|c| c.next_event_cycle())
            .min()
            .unwrap_or(critmem_common::DramCycle::MAX)
    }

    /// Batch-advances every channel `d` DRAM cycles that
    /// [`DramSystem::next_event_cycle`] proved inert (the caller
    /// guarantees `d` stops strictly before the horizon). No
    /// completions can occur in such a window.
    pub fn skip(&mut self, d: critmem_common::DramCycle) {
        for c in &mut self.controllers {
            c.skip(d);
        }
    }

    /// Per-channel statistics.
    pub fn channel_stats(&self) -> Vec<&ChannelStats> {
        self.controllers.iter().map(|c| c.stats()).collect()
    }

    /// Sum of queued transactions across channels.
    pub fn total_queued(&self) -> usize {
        self.controllers.iter().map(|c| c.queue_len()).sum()
    }

    /// Age (in DRAM cycles) of the oldest transaction queued on any
    /// channel, or `None` when all queues are empty. Polled by the
    /// forward-progress watchdog.
    pub fn oldest_queued_age(&self) -> Option<critmem_common::DramCycle> {
        self.controllers
            .iter()
            .filter_map(|c| c.oldest_queued_age())
            .max()
    }

    /// Per-bank transaction-queue state across every channel (only
    /// non-empty banks), for a watchdog diagnostic snapshot.
    pub fn bank_queue_snapshot(&self) -> Vec<critmem_common::BankQueueState> {
        let mut out = Vec::new();
        for c in &self.controllers {
            c.bank_queue_snapshot(&mut out);
        }
        out
    }

    /// Attaches a shadow protocol auditor to every channel (see
    /// [`ChannelController::enable_audit`]).
    pub fn enable_audit(&mut self) {
        for c in &mut self.controllers {
            c.enable_audit();
        }
    }

    /// The first protocol violation recorded on any channel, removed
    /// from its auditor. `None` while the run is clean.
    pub fn take_audit_violation(&mut self) -> Option<Box<critmem_common::AuditSnapshot>> {
        self.controllers
            .iter_mut()
            .find_map(|c| c.take_audit_violation())
    }

    /// Whether any channel's auditor holds a violation (non-destructive
    /// poll; cheap enough for the drive loop to call every iteration).
    pub fn has_audit_violation(&self) -> bool {
        self.controllers
            .iter()
            .any(|c| c.audit_violation().is_some())
    }

    /// Runs every channel auditor's end-of-run checks.
    pub fn finish_audit(&mut self) {
        for c in &mut self.controllers {
            c.finish_audit();
        }
    }

    /// Transactions the DRAM subsystem currently owns (queued plus
    /// in-flight CAS bursts), summed over channels. The conservation
    /// auditor reconciles this against its request accounting.
    pub fn outstanding(&self) -> usize {
        self.controllers.iter().map(|c| c.outstanding()).sum()
    }

    /// Fault-injection seam: freezes one bank of one channel (see
    /// [`ChannelController::wedge_bank`]).
    pub fn wedge_bank(
        &mut self,
        channel: usize,
        rank: critmem_common::RankId,
        bank: critmem_common::BankId,
    ) {
        self.controllers[channel].wedge_bank(rank, bank);
    }

    /// Fault-injection seam: feeds one channel a rogue illegal command
    /// pair (see [`ChannelController::corrupt_decision`]).
    pub fn corrupt_decision(&mut self, channel: usize) {
        self.controllers[channel].corrupt_decision();
    }

    /// Swaps every channel's scheduler for a freshly built one,
    /// discarding the old schedulers' state. Used when a checkpoint
    /// restore studies a different policy than the one that warmed it.
    pub fn replace_schedulers<F>(&mut self, mut make_scheduler: F)
    where
        F: FnMut(ChannelId) -> Box<dyn CommandScheduler>,
    {
        for (c, ctrl) in self.controllers.iter_mut().enumerate() {
            ctrl.replace_scheduler(make_scheduler(ChannelId(c as u8)));
        }
    }

    /// Serializes every channel's architectural state for a checkpoint.
    /// The address mapping and configuration are derived from
    /// [`DramConfig`] on restore and are not written.
    pub fn save_state(&self, w: &mut critmem_common::codec::ByteWriter) {
        w.put_u32(self.controllers.len() as u32);
        for c in &self.controllers {
            c.save_state(w);
        }
    }

    /// Restores state written by [`Self::save_state`] into a freshly
    /// built system of the same configuration. With
    /// `load_schedulers = false` the per-channel scheduler blocks are
    /// skipped, leaving the fresh schedulers' initial state intact.
    ///
    /// # Errors
    ///
    /// Fails on a truncated snapshot or a channel-count mismatch.
    pub fn load_state(
        &mut self,
        r: &mut critmem_common::codec::ByteReader<'_>,
        load_schedulers: bool,
    ) -> Result<(), critmem_common::codec::CodecError> {
        let n = r.get_u32()? as usize;
        if n != self.controllers.len() {
            return Err(critmem_common::codec::CodecError {
                message: format!(
                    "snapshot holds {n} channels, system has {}",
                    self.controllers.len()
                ),
                offset: r.position(),
            });
        }
        for c in &mut self.controllers {
            c.load_state(r, load_schedulers)?;
        }
        Ok(())
    }
}

impl critmem_common::Observable for DramSystem {
    /// Emits one `dram.chN` component per channel, containing that
    /// channel's [`ChannelStats`] metrics plus any `sched_`-prefixed
    /// metrics the channel's scheduler reports.
    fn observe(&self, v: &mut dyn critmem_common::MetricVisitor) {
        for (i, c) in self.controllers.iter().enumerate() {
            v.component(&format!("dram.ch{i}"));
            c.observe_metrics(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critmem_common::{AccessKind, CoreId};

    #[test]
    fn requests_route_by_address() {
        let cfg = DramConfig::paper_baseline();
        let mut dram = DramSystem::new(cfg, |_| Box::new(Fcfs::new()));
        // Page interleaving: rows 0..4 land on channels 0..4.
        for page in 0..4u64 {
            let addr = page * 1024;
            dram.enqueue(MemRequest::new(page, addr, AccessKind::Read, CoreId(0)))
                .unwrap();
        }
        assert_eq!(dram.total_queued(), 4);
        let per_channel: Vec<usize> = dram.controllers.iter().map(|c| c.queue_len()).collect();
        assert_eq!(per_channel, vec![1, 1, 1, 1]);
    }

    #[test]
    fn parallel_channels_overlap_service() {
        let cfg = DramConfig::paper_baseline();
        let mut dram = DramSystem::new(cfg, |_| Box::new(Fcfs::new()));
        for page in 0..4u64 {
            let addr = page * 1024;
            dram.enqueue(MemRequest::new(page, addr, AccessKind::Read, CoreId(0)))
                .unwrap();
        }
        let mut completions = Vec::new();
        let mut cycles = 0;
        while completions.len() < 4 && cycles < 500 {
            completions.extend_from_slice(dram.tick());
            cycles += 1;
        }
        assert_eq!(completions.len(), 4);
        // All four finish at the same cycle: the channels are independent.
        let first = completions[0].done_at;
        assert!(completions.iter().all(|c| c.done_at == first));
    }

    #[test]
    fn same_channel_requests_serialize_on_command_bus() {
        let cfg = DramConfig::paper_baseline();
        let mut dram = DramSystem::new(cfg, |_| Box::new(Fcfs::new()));
        // Two different banks, same channel (pages 0 and 4 both map to
        // channel 0).
        dram.enqueue(MemRequest::new(1, 0, AccessKind::Read, CoreId(0)))
            .unwrap();
        dram.enqueue(MemRequest::new(2, 4 * 1024, AccessKind::Read, CoreId(0)))
            .unwrap();
        let mut completions = Vec::new();
        for _ in 0..500 {
            completions.extend_from_slice(dram.tick());
            if completions.len() == 2 {
                break;
            }
        }
        assert_eq!(completions.len(), 2);
        assert_ne!(completions[0].done_at, completions[1].done_at);
    }
}
