//! Cache hierarchy for the `critmem` simulator: per-core L1 data
//! caches under a shared, inclusive, directory-coherent L2 with MSHRs
//! and an optional stream prefetcher.
//!
//! Geometry and latencies default to Tables 1 and 3 of the ISCA 2013
//! paper being reproduced: 32 kB 4-way L1s with 32 B lines and 16
//! MSHRs; a 4 MB 8-way shared L2 with 64 B lines, 64 MSHRs, and a
//! 32-cycle uncontended round trip.
//!
//! # Examples
//!
//! ```
//! use critmem_cache::{AccessOutcome, CacheAccessKind, CacheHierarchy, HierarchyConfig};
//! use critmem_common::{CoreId, Criticality};
//!
//! let mut h = CacheHierarchy::new(HierarchyConfig::paper_baseline(2));
//! let out = h.access(CoreId(0), 0x1000, CacheAccessKind::Load,
//!                    Criticality::non_critical(), 0);
//! assert!(matches!(out, AccessOutcome::Pending(_))); // cold miss
//! ```

pub mod array;
pub mod hierarchy;
pub mod mshr;
pub mod prefetch;

pub use array::{CacheArray, Evicted, Line};
pub use hierarchy::{
    AccessOutcome, AccessToken, Bounce, CacheAccessKind, CacheCompletion, CacheHierarchy,
    HierarchyConfig, HierarchyStats,
};
pub use mshr::{MshrFile, MshrOutcome, MshrTarget};
pub use prefetch::{PrefetchConfig, StreamPrefetcher};
