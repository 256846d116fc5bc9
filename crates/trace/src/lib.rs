//! `critmem-trace`: memory-request trace capture & replay for
//! scheduler-only studies.
//!
//! Execution-driven simulation pays for cores, caches, and predictors
//! on every run — even when the experiment only varies the memory
//! scheduler. This crate decouples the two phases:
//!
//! 1. **Capture** — a [`TraceSink`] attached to the system's request
//!    observer seam records every LLC miss accepted into a DRAM
//!    transaction queue: enqueue cycle, MSHR-issue cycle, address,
//!    kind, core, and the criticality annotation the processor-side
//!    predictor attached (the paper's §3.2 piggybacked bits).
//! 2. **Replay** — `critmem::replay` turns any [`RequestSource`] into a
//!    memory agent and drives it in a core-less system on the
//!    execution-driven run loop, injecting requests at their recorded
//!    CPU cycles through the same clock divider. One capture then
//!    serves an entire sweep of scheduler/arrangement configurations at
//!    a fraction of the execution-driven cost. This crate keeps the
//!    replay's [`ReplayConfig`] and [`ReplayStats`] and rebuilds a
//!    capture's DRAM configuration ([`Fingerprint::dram_config`]).
//!
//! The binary format ([`Trace`], [`TraceWriter`], [`TraceStream`]) is
//! compact (42 B/record), versioned, and self-describing: the header
//! carries a [`Fingerprint`] of the capturing topology, and
//! [`Fingerprint::check_compatible`] diagnoses a mismatch field by
//! field.
//!
//! For horizons past what fits in RAM, replay pulls records through a
//! [`RequestSource`]: [`TraceStream`] iterates a CMTR file
//! chunk-at-a-time at constant memory (one [`CHUNK_BYTES`] buffer),
//! and [`SynthSource`] generates unbounded traffic from a
//! [`TrafficProfile`] fitted to a capture — see the [`stream`] and
//! [`synth`] modules.
//!
//! # Examples
//!
//! ```
//! use critmem_trace::{Fingerprint, Trace, TraceRecord};
//! use critmem_common::AccessKind;
//! use critmem_dram::DramConfig;
//!
//! let cfg = DramConfig::paper_baseline();
//! let record = TraceRecord {
//!     enqueue_cycle: 5,
//!     issued_at: 0,
//!     id: 0,
//!     addr: 1024,
//!     crit: 3,
//!     core: 1,
//!     kind: AccessKind::Read,
//! };
//! let trace = Trace { fingerprint: Fingerprint::of(8, 4_270, &cfg), source: "doc".into(), records: vec![record] };
//!
//! // A trace round-trips through bytes, and its fingerprint rebuilds
//! // the capture's DRAM topology for replay.
//! let trace = Trace::read_from(std::io::Cursor::new(trace.to_bytes().unwrap())).unwrap();
//! assert_eq!(trace.records, vec![record]);
//! assert_eq!(trace.fingerprint.dram_config().unwrap().org, cfg.org);
//! ```

pub mod format;
pub mod replay;
pub mod sink;
pub mod stream;
pub mod synth;

pub use format::{Fingerprint, Trace, TraceError, TraceRecord, TraceWriter};
pub use replay::{ReplayConfig, ReplayStats};
pub use sink::TraceSink;
pub use stream::{RequestSource, TraceSource, TraceStream, CHUNK_BYTES};
pub use synth::{CoreProfile, SynthSource, TrafficProfile};
