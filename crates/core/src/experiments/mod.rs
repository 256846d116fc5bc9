//! Per-figure/table experiment harnesses (see the DESIGN.md experiment
//! index).
//!
//! Every function takes a memoizing [`Runner`] so that shared runs
//! (notably each app's FR-FCFS baseline) are simulated once, and
//! returns a structured result with a `to_table()` text rendering —
//! the same rows/series the paper's figure reports.

pub mod ablations;
pub mod audit;
pub mod compare;
pub mod fairness;
pub mod harness;
pub mod hetero;
pub mod multiprog;
pub mod parallel_figs;
pub mod stats_export;
pub mod streaming;
pub mod tables;
pub mod trace_sweep;

pub use ablations::{ablations, Ablations};
pub use audit::{
    audit_schedulers, campaign, certify, inject, AuditCertification, CampaignRow, CertifyRow,
    Detection, FaultCampaign,
};
pub use compare::{fig10, fig11, Fig11};
pub use fairness::{fairness_frontier, frontier_schedulers};
pub use harness::{CellFailure, CellId, Runner, Scale, TextTable};
pub use hetero::{default_mixes, hetero_study};
pub use multiprog::{fig12, Fig12, MixPoint, MixStudy};
pub use parallel_figs::{
    fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, Fig1, Fig6, Fig8, Fig9, SpeedupFigure,
    SpeedupSeries,
};
pub use stats_export::stats_export;
pub use streaming::{stream_replay, synth_replay, StreamReplayOutcome, SynthReplayOutcome};
pub use tables::{
    config_dump, naive, reset_study, table5, table7, NaiveResult, ResetResult, Table5, Table7,
};
pub use trace_sweep::{
    default_schedulers, trace_sweep, trace_sweep_with, TraceSweep, TraceSweepRow,
};
