//! Deterministic fault injection: typed, seeded fault plans applied at
//! real component boundaries, plus the legacy env-var panic hooks for
//! the sweep-harness resilience tests.
//!
//! # Fault plans
//!
//! A [`FaultPlan`] names the exact faults to inject into one run. Each
//! [`FaultKind`] targets a specific seam of the system:
//!
//! * request-stream faults ([`FaultKind::DropRequest`],
//!   [`FaultKind::DuplicateRequest`], [`FaultKind::DelayRequest`])
//!   intercept the L2→controller enqueue of the *n*-th demand read;
//! * device faults ([`FaultKind::WedgeBank`],
//!   [`FaultKind::CorruptSchedulerDecision`]) corrupt one channel's
//!   controller at a chosen cycle;
//! * artifact faults ([`FaultKind::BitFlipTraceChunk`],
//!   [`FaultKind::BitFlipCheckpoint`]) flip one byte of a serialized
//!   trace or checkpoint before it is read back.
//!
//! The plan is plain data — fully determined by its fields plus the
//! seed — so a campaign run is reproducible from its printed spec
//! alone. Plans attach to a run via `Session::fault` (live faults) or
//! are applied by the `repro audit campaign` runner (artifact faults).
//! The audit campaign's contract: every injected fault must surface as
//! a typed error, a watchdog trip, or an audit violation — never a
//! silently different result.
//!
//! # Panic hooks (legacy env-var path)
//!
//! [`FaultHooks`] carries the panic-injection patterns the worker-pool
//! resilience tests arm through the environment. Compiled to an inert
//! no-op unless the `fault-inject` cargo feature is on; with the
//! feature, [`FaultHooks::from_env`] reads:
//!
//! * `CRITMEM_FAULT_PANIC_KEY` — cells whose label contains the
//!   pattern panic on **every** attempt (retry exhaustion path);
//! * `CRITMEM_FAULT_PANIC_ONCE` — matching cells panic on their
//!   **first** attempt only (retry recovery path).
//!
//! The hooks are owned per harness `Runner`, so the once-per-cell
//! bookkeeping resets with every sweep instead of leaking across
//! sweeps that share a process (the old process-global set did leak).

use critmem_common::SimError;
use std::collections::HashSet;
use std::sync::Mutex;

/// One fault to inject, targeting a specific component boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently discard the `nth_read`-th demand read (1-based) at the
    /// L2→controller boundary. The issuing core never hears back, so a
    /// healthy system trips the no-commit watchdog.
    DropRequest {
        /// Which demand read to drop (1-based).
        nth_read: u64,
    },
    /// Enqueue the `nth_read`-th demand read twice. The conservation
    /// auditor flags the duplicate at the boundary.
    DuplicateRequest {
        /// Which demand read to duplicate (1-based).
        nth_read: u64,
    },
    /// Hold the `nth_read`-th demand read back for `delay` CPU cycles
    /// before enqueuing it. With a delay beyond the watchdog's
    /// no-commit threshold, the watchdog trips.
    DelayRequest {
        /// Which demand read to delay (1-based).
        nth_read: u64,
        /// How long to hold it back, in CPU cycles.
        delay: u64,
    },
    /// Freeze one bank of one channel at `at_cycle` (CPU cycles): the
    /// bank stops accepting commands forever, so queued requests age
    /// until the starvation watchdog trips.
    WedgeBank {
        /// Channel index.
        channel: u16,
        /// Rank index within the channel.
        rank: u8,
        /// Bank index within the rank.
        bank: u8,
        /// CPU cycle at (or after) which the bank wedges.
        at_cycle: u64,
    },
    /// Feed one channel a rogue illegal command pair at `at_cycle`
    /// (CPU cycles), modeling a corrupted scheduler decision. The
    /// shadow protocol auditor reports the violation; without the
    /// auditor the perturbation would be silent.
    CorruptSchedulerDecision {
        /// Channel index.
        channel: u16,
        /// CPU cycle at (or after) which the rogue commands issue.
        at_cycle: u64,
    },
    /// Flip one byte of a serialized trace before replaying it; the
    /// chunk CRC must reject it with a typed trace error.
    BitFlipTraceChunk {
        /// Absolute byte offset into the serialized trace.
        byte_offset: u64,
    },
    /// Flip one byte of a serialized `CMCK` checkpoint before loading
    /// it; the payload CRC must reject it with a typed artifact error.
    BitFlipCheckpoint {
        /// Absolute byte offset into the serialized checkpoint.
        byte_offset: u64,
    },
}

impl FaultKind {
    /// Short stable name, used in campaign tables and parse specs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DropRequest { .. } => "drop-read",
            FaultKind::DuplicateRequest { .. } => "dup-read",
            FaultKind::DelayRequest { .. } => "delay-read",
            FaultKind::WedgeBank { .. } => "wedge-bank",
            FaultKind::CorruptSchedulerDecision { .. } => "corrupt-sched",
            FaultKind::BitFlipTraceChunk { .. } => "flip-trace",
            FaultKind::BitFlipCheckpoint { .. } => "flip-ckpt",
        }
    }

    /// Whether this fault targets a serialized artifact (trace or
    /// checkpoint bytes) rather than the live system.
    pub fn is_artifact_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::BitFlipTraceChunk { .. } | FaultKind::BitFlipCheckpoint { .. }
        )
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::DropRequest { nth_read } => write!(f, "drop-read@n{nth_read}"),
            FaultKind::DuplicateRequest { nth_read } => write!(f, "dup-read@n{nth_read}"),
            FaultKind::DelayRequest { nth_read, delay } => {
                write!(f, "delay-read@n{nth_read},d{delay}")
            }
            FaultKind::WedgeBank {
                channel,
                rank,
                bank,
                at_cycle,
            } => write!(f, "wedge-bank@ch{channel},r{rank},b{bank},c{at_cycle}"),
            FaultKind::CorruptSchedulerDecision { channel, at_cycle } => {
                write!(f, "corrupt-sched@ch{channel},c{at_cycle}")
            }
            FaultKind::BitFlipTraceChunk { byte_offset } => {
                write!(f, "flip-trace@o{byte_offset}")
            }
            FaultKind::BitFlipCheckpoint { byte_offset } => {
                write!(f, "flip-ckpt@o{byte_offset}")
            }
        }
    }
}

impl std::str::FromStr for FaultKind {
    type Err = SimError;

    /// Parses the spec grammar [`FaultKind`]'s `Display` emits:
    /// `name@field…` with comma-separated single-letter-prefixed
    /// numeric fields, e.g. `corrupt-sched@ch0,c5000` or
    /// `delay-read@n3,d4000000`.
    ///
    /// # Examples
    ///
    /// ```
    /// use critmem::FaultKind;
    /// let k: FaultKind = "wedge-bank@ch0,r0,b0,c100".parse().unwrap();
    /// assert_eq!(k.to_string(), "wedge-bank@ch0,r0,b0,c100");
    /// assert!("warp-core@n1".parse::<FaultKind>().is_err());
    /// ```
    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let bad = |msg: String| SimError::Config(format!("fault spec {spec:?}: {msg}"));
        let (name, rest) = spec
            .split_once('@')
            .ok_or_else(|| bad("expected name@fields".into()))?;
        let fields: Vec<&str> = rest.split(',').collect();
        let field = |prefix: &str| -> Result<u64, SimError> {
            fields
                .iter()
                // Prefixes must bind to a full digit run so `c` does
                // not greedily claim the `ch0` channel field.
                .find_map(|f| {
                    f.strip_prefix(prefix)
                        .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                })
                .ok_or_else(|| bad(format!("missing field {prefix}<N>")))?
                .parse::<u64>()
                .map_err(|e| bad(format!("field {prefix}: {e}")))
        };
        let narrow = |v: u64, max: u64, what: &str| -> Result<u64, SimError> {
            if v > max {
                Err(bad(format!("{what} {v} out of range (max {max})")))
            } else {
                Ok(v)
            }
        };
        Ok(match name {
            "drop-read" => FaultKind::DropRequest {
                nth_read: field("n")?,
            },
            "dup-read" => FaultKind::DuplicateRequest {
                nth_read: field("n")?,
            },
            "delay-read" => FaultKind::DelayRequest {
                nth_read: field("n")?,
                delay: field("d")?,
            },
            "wedge-bank" => FaultKind::WedgeBank {
                channel: narrow(field("ch")?, u64::from(u16::MAX), "channel")? as u16,
                rank: narrow(field("r")?, u64::from(u8::MAX), "rank")? as u8,
                bank: narrow(field("b")?, u64::from(u8::MAX), "bank")? as u8,
                at_cycle: field("c")?,
            },
            "corrupt-sched" => FaultKind::CorruptSchedulerDecision {
                channel: narrow(field("ch")?, u64::from(u16::MAX), "channel")? as u16,
                at_cycle: field("c")?,
            },
            "flip-trace" => FaultKind::BitFlipTraceChunk {
                byte_offset: field("o")?,
            },
            "flip-ckpt" => FaultKind::BitFlipCheckpoint {
                byte_offset: field("o")?,
            },
            other => {
                return Err(bad(format!(
                    "unknown fault {other:?} (expected drop-read, dup-read, delay-read, \
                     wedge-bank, corrupt-sched, flip-trace, or flip-ckpt)"
                )))
            }
        })
    }
}

/// A seeded, fully deterministic set of faults for one run or
/// campaign cell. The seed keys the campaign's bookkeeping (and any
/// future randomized placement); the faults themselves are explicit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Campaign seed; distinguishes repeated runs of the same matrix.
    pub seed: u64,
    /// The faults to inject, in declaration order.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// Creates an empty plan under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder style).
    #[must_use]
    pub fn with_fault(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// Parses a semicolon-separated list of fault specs (the
    /// [`FromStr`](std::str::FromStr) grammar on [`FaultKind`]) into a
    /// plan under `seed`.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] on the first malformed spec.
    pub fn parse(specs: &str, seed: u64) -> Result<Self, SimError> {
        let mut plan = FaultPlan::new(seed);
        for spec in specs.split(';').filter(|s| !s.trim().is_empty()) {
            plan.faults.push(spec.trim().parse()?);
        }
        Ok(plan)
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Panic-injection hooks for the sweep-harness resilience tests, owned
/// by one harness `Runner` (see the module docs for the environment
/// variables and why ownership is per-runner).
#[derive(Debug, Default)]
pub struct FaultHooks {
    panic_key: Option<String>,
    panic_once: Option<String>,
    fired: Mutex<HashSet<String>>,
}

impl FaultHooks {
    /// Builds hooks from the `CRITMEM_FAULT_PANIC_*` environment
    /// variables. Without the `fault-inject` cargo feature the
    /// environment is never read and the hooks are inert.
    pub fn from_env() -> Self {
        #[cfg(feature = "fault-inject")]
        {
            let read = |var: &str| std::env::var(var).ok().filter(|p| !p.is_empty());
            FaultHooks {
                panic_key: read("CRITMEM_FAULT_PANIC_KEY"),
                panic_once: read("CRITMEM_FAULT_PANIC_ONCE"),
                fired: Mutex::new(HashSet::new()),
            }
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            FaultHooks::default()
        }
    }

    /// Panics if an armed pattern matches `label` (substring match on
    /// the cell's label). With no armed patterns — always the case
    /// without the `fault-inject` feature — this is two `Option`
    /// checks.
    pub fn maybe_inject(&self, label: &str) {
        if let Some(pat) = &self.panic_key {
            if label.contains(pat.as_str()) {
                panic!("injected fault: cell {label:?} matched CRITMEM_FAULT_PANIC_KEY={pat:?}");
            }
        }
        if let Some(pat) = &self.panic_once {
            if label.contains(pat.as_str()) && self.fired.lock().unwrap().insert(label.into()) {
                panic!(
                    "injected transient fault: cell {label:?} matched \
                     CRITMEM_FAULT_PANIC_ONCE={pat:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_display() {
        let specs = [
            "drop-read@n5",
            "dup-read@n3",
            "delay-read@n2,d4000000",
            "wedge-bank@ch0,r1,b7,c1000",
            "corrupt-sched@ch1,c5000",
            "flip-trace@o100",
            "flip-ckpt@o64",
        ];
        for spec in specs {
            let k: FaultKind = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(k.to_string(), spec);
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "drop-read",                   // no fields
            "drop-read@x5",                // wrong prefix
            "delay-read@n2",               // missing delay
            "wedge-bank@ch0,r1,b7",        // missing cycle
            "warp-core@n1",                // unknown fault
            "wedge-bank@ch99999,r0,b0,c1", // channel out of range
        ] {
            assert!(bad.parse::<FaultKind>().is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn plan_parses_spec_lists() {
        let plan = FaultPlan::parse("drop-read@n1; corrupt-sched@ch0,c50", 42).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0], FaultKind::DropRequest { nth_read: 1 });
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
        assert!(FaultPlan::parse("nope@n1", 0).is_err());
    }

    #[test]
    fn artifact_faults_are_classified() {
        assert!(FaultKind::BitFlipTraceChunk { byte_offset: 1 }.is_artifact_fault());
        assert!(FaultKind::BitFlipCheckpoint { byte_offset: 1 }.is_artifact_fault());
        assert!(!FaultKind::DropRequest { nth_read: 1 }.is_artifact_fault());
    }

    #[test]
    fn inert_hooks_never_fire() {
        // Default hooks carry no patterns regardless of feature flags.
        let hooks = FaultHooks::default();
        hooks.maybe_inject("any|cell|key");
    }

    #[test]
    fn once_hooks_track_per_instance_not_per_process() {
        // The per-runner reset semantics satellite: two hook instances
        // with the same pattern each fire independently.
        let mk = || FaultHooks {
            panic_key: None,
            panic_once: Some("target".into()),
            fired: Mutex::new(HashSet::new()),
        };
        for _ in 0..2 {
            let hooks = mk();
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                hooks.maybe_inject("a|target|cell")
            }));
            assert!(hit.is_err(), "fresh instance must fire");
            // Second attempt on the same instance recovers.
            hooks.maybe_inject("a|target|cell");
        }
    }
}
