//! Deterministic synthetic workload generators for the `critmem`
//! simulator.
//!
//! The paper evaluates nine memory-intensive parallel applications
//! (Table 2) and eight multiprogrammed SPEC/NAS bundles (Table 4).
//! Since those binaries cannot run here, this crate models each one as
//! a parameterized loop-template generator preserving the properties
//! the paper's mechanism depends on — see `parallel` and `multi` for
//! the per-app rationale and DESIGN.md for the substitution argument.
//!
//! # Examples
//!
//! ```
//! use critmem_workloads::{parallel_app, AppThread, PARALLEL_APPS};
//! use critmem_cpu::InstrSource;
//!
//! assert_eq!(PARALLEL_APPS.len(), 9);
//! let spec = parallel_app("ocean").unwrap();
//! let mut thread3 = AppThread::new(&spec, 3, 0xC0FFEE);
//! let instr = thread3.next_instr();
//! assert!(instr.pc >= 0x1000);
//! ```

pub mod agents;
pub mod multi;
pub mod parallel;
pub mod spec;

pub use agents::{
    agent_profiles, build_agent, default_profile, resolve_profile, target_units_for, BulkAgent,
    PrefetchAgent, StreamAgent,
};
pub use multi::{app_class, bundle, multi_app, AppClass, Bundle, BUNDLES, MULTI_APPS};
pub use parallel::{parallel_app, PARALLEL_APPS};
pub use spec::{AddrPattern, AppSpec, AppThread, DepSpec, OpClass, Phase, StaticOp, SHARED_BASE};

/// Version of the generated instruction and request streams. Sweep
/// cell identities and checkpoint fingerprints include it: a change to
/// any stream bumps it, so no result of the old model is reused.
pub const MODEL_VERSION: u32 = 1;
