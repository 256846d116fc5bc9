//! Shared foundation types for the `critmem` simulator workspace.
//!
//! `critmem` reproduces the ISCA 2013 paper *"Improving Memory Scheduling
//! via Processor-Side Load Criticality Information"* (Ghose, Lee,
//! Martínez). This crate holds the vocabulary types that every other
//! crate speaks:
//!
//! * [`ids`] — strongly-typed identifiers ([`CoreId`], [`ChannelId`], …),
//! * [`clock`] — CPU ↔ DRAM clock-domain crossing ([`ClockDivider`]),
//! * [`mem`] — the memory-request descriptor that travels from a core's
//!   load/store queue all the way to the DRAM transaction queue,
//!   carrying the criticality annotation ([`Criticality`]) that is the
//!   heart of the paper,
//! * [`stats`] — running means and histograms used for the evaluation,
//! * [`obs`] — the unified observability layer: metric registration,
//!   epoch sampling, and JSONL/CSV time-series export.
//!
//! # Examples
//!
//! ```
//! use critmem_common::{ClockDivider, CoreId, Criticality, MemRequest, AccessKind};
//!
//! // A DDR3-2133 bus (1,066 MHz) under a 4.27 GHz core clock ticks
//! // roughly once every four CPU cycles.
//! let mut div = ClockDivider::new(1_066, 4_270);
//! let dram_ticks: u32 = (0..4_270).map(|_| u32::from(div.tick())).sum();
//! assert_eq!(dram_ticks, 1_066);
//!
//! // A critical read request as the scheduler sees it.
//! let req = MemRequest::new(0, 0x4_0000, AccessKind::Read, CoreId(2))
//!     .with_criticality(Criticality::ranked(250));
//! assert!(req.crit.is_critical());
//! ```

pub mod alloc_probe;
pub mod clock;
pub mod codec;
pub mod crc32;
pub mod error;
pub mod ids;
pub mod mem;
pub mod obs;
pub mod rng;
pub mod stats;

pub use clock::ClockDivider;
pub use codec::Snapshot;
pub use error::{
    AuditSnapshot, BankQueueState, SimError, WatchdogConfig, WatchdogReason, WatchdogSnapshot,
};
pub use ids::{BankId, ChannelId, CoreId, RankId, ThreadId};
pub use mem::{AccessKind, Criticality, MemRequest, ReqId, RequestObserver};
pub use obs::{MetricVisitor, Observable, Sampler, Schema, SeriesExport, SeriesSet};
pub use rng::SmallRng;
pub use stats::{Histogram, RunningMean};

/// A cycle count in the CPU clock domain.
pub type CpuCycle = u64;

/// A cycle count in the DRAM (bus) clock domain.
pub type DramCycle = u64;

/// A physical byte address.
pub type PhysAddr = u64;

/// A static program counter (instruction address).
pub type Pc = u64;
