//! End-to-end and per-layer host-time benchmark of the critmem
//! simulator. See `README.md` in this directory for the workloads, the
//! metrics and how to re-check a claim.

pub mod bench;
pub mod probe;
pub mod traced;
pub mod workloads;
