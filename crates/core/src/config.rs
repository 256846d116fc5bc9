//! Full-system configuration: the Tables 1 + 3 platform, the workload,
//! the scheduler, and the processor-side predictor.

use critmem_cache::{HierarchyConfig, PrefetchConfig};
use critmem_cpu::{AgentClass, CoreConfig};
use critmem_dram::DramConfig;
use critmem_predict::{CbpMetric, ClptMode, TableSize};
use critmem_sched::SchedulerKind;

/// Which processor-side criticality predictor each core carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// No predictor: all requests non-critical (FR-FCFS baseline).
    None,
    /// The Commit Block Predictor (§3).
    Cbp {
        /// Annotation metric.
        metric: CbpMetric,
        /// Table geometry.
        size: TableSize,
        /// Optional periodic reset interval in CPU cycles (§5.3.2).
        reset_interval: Option<u64>,
    },
    /// Subramaniam et al.'s consumer-count predictor (§2).
    Clpt(ClptMode),
}

impl PredictorKind {
    /// The paper's default 64-entry CBP with the given metric.
    pub fn cbp64(metric: CbpMetric) -> Self {
        PredictorKind::Cbp {
            metric,
            size: TableSize::Entries(64),
            reset_interval: None,
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            PredictorKind::None => "none".into(),
            PredictorKind::Cbp {
                metric,
                size,
                reset_interval,
            } => {
                let size = match size {
                    TableSize::Entries(n) => format!("{n}-entry"),
                    TableSize::Unlimited => "unlimited".into(),
                };
                let reset = if reset_interval.is_some() {
                    "+reset"
                } else {
                    ""
                };
                format!("{} CBP ({size}){reset}", metric.name())
            }
            PredictorKind::Clpt(ClptMode::Binary { threshold }) => {
                format!("CLPT-Binary(t={threshold})")
            }
            PredictorKind::Clpt(ClptMode::Consumers { .. }) => "CLPT-Consumers".into(),
        }
    }
}

impl std::str::FromStr for PredictorKind {
    type Err = critmem_common::SimError;

    /// Parses a predictor name: `none`, or a CBP annotation metric
    /// (`binary`, `blockcount`, `laststalltime`, `maxstalltime`,
    /// `totalstalltime`) mapped to the paper's 64-entry table.
    /// Case-insensitive.
    ///
    /// # Examples
    ///
    /// ```
    /// use critmem::PredictorKind;
    /// use critmem_predict::CbpMetric;
    /// let p: PredictorKind = "maxstalltime".parse().unwrap();
    /// assert_eq!(p, PredictorKind::cbp64(CbpMetric::MaxStallTime));
    /// assert!("nope".parse::<PredictorKind>().is_err());
    /// ```
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        let metric = match name.to_ascii_lowercase().as_str() {
            "none" => return Ok(PredictorKind::None),
            "binary" => CbpMetric::Binary,
            "blockcount" => CbpMetric::BlockCount,
            "laststalltime" => CbpMetric::LastStallTime,
            "maxstalltime" => CbpMetric::MaxStallTime,
            "totalstalltime" => CbpMetric::TotalStallTime,
            _ => {
                return Err(critmem_common::SimError::Config(format!(
                    "unknown predictor {name:?} (expected none, binary, blockcount, \
                     laststalltime, maxstalltime, or totalstalltime)"
                )))
            }
        };
        Ok(PredictorKind::cbp64(metric))
    }
}

/// One term of a heterogeneous agent mix: a class, an application (for
/// OoO cores) or traffic profile (for accelerator-class agents), an
/// instance count, and a QoS slowdown budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentSpec {
    /// What kind of producer this term instantiates.
    pub class: AgentClass,
    /// Application name (OoO) or traffic profile (other classes; see
    /// [`critmem_workloads::agent_profiles`]). Always the canonical
    /// `'static` spelling, so the derived `Debug` rendering — which
    /// feeds cell identities and checkpoint fingerprints — is stable.
    pub profile: &'static str,
    /// How many instances of this term to build (>= 1).
    pub count: u32,
    /// QoS slowdown budget in thousandths; `0` inherits the class
    /// default ([`AgentClass::default_qos_millis`]).
    pub qos_millis: u32,
}

impl AgentSpec {
    /// An OoO core running `app`.
    pub fn ooo(app: &'static str) -> Self {
        AgentSpec {
            class: AgentClass::Ooo,
            profile: app,
            count: 1,
            qos_millis: 0,
        }
    }

    /// An accelerator-class agent with its default profile.
    ///
    /// # Panics
    ///
    /// Panics for [`AgentClass::Ooo`], whose profile is an application
    /// name — use [`AgentSpec::ooo`].
    pub fn agent(class: AgentClass) -> Self {
        let profile =
            critmem_workloads::default_profile(class).expect("non-ooo classes have a profile");
        AgentSpec {
            class,
            profile,
            count: 1,
            qos_millis: 0,
        }
    }

    /// Sets the instance count (builder style).
    #[must_use]
    pub fn with_count(mut self, count: u32) -> Self {
        self.count = count;
        self
    }

    /// Sets the QoS slowdown budget in thousandths (builder style).
    #[must_use]
    pub fn with_qos_millis(mut self, millis: u32) -> Self {
        self.qos_millis = millis;
        self
    }

    /// The budget this spec's instances actually carry: the explicit
    /// value, or the class default when none was given.
    pub fn effective_qos_millis(&self) -> u32 {
        if self.qos_millis == 0 {
            self.class.default_qos_millis()
        } else {
            self.qos_millis
        }
    }

    /// Renders the canonical grammar term (`class[:name][*count]
    /// [@budget]`).
    fn write_term(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.class.keyword())?;
        if self.class == AgentClass::Ooo
            || Some(self.profile) != critmem_workloads::default_profile(self.class)
        {
            write!(f, ":{}", self.profile)?;
        }
        if self.count != 1 {
            write!(f, "*{}", self.count)?;
        }
        if self.qos_millis != 0 {
            write!(f, "@{}", fmt_qos(self.qos_millis))?;
        }
        Ok(())
    }
}

/// Thousandths -> decimal text without floating-point round-trips
/// (`1500` -> `"1.5"`, `3000` -> `"3"`).
fn fmt_qos(millis: u32) -> String {
    let (int, frac) = (millis / 1000, millis % 1000);
    if frac == 0 {
        int.to_string()
    } else {
        format!("{int}.{}", format!("{frac:03}").trim_end_matches('0'))
    }
}

/// Decimal text -> thousandths; `None` on malformed input or more than
/// three fractional digits.
fn parse_qos(s: &str) -> Option<u32> {
    let (int, frac) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    if int.is_empty() && frac.is_empty() {
        return None;
    }
    if frac.len() > 3 || !frac.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let int: u32 = if int.is_empty() { 0 } else { int.parse().ok()? };
    let mut frac_val = 0u32;
    for (i, c) in frac.chars().enumerate() {
        frac_val += c.to_digit(10)? * 10u32.pow(2 - i as u32);
    }
    int.checked_mul(1000)?.checked_add(frac_val)
}

/// The workload: which agents share the memory system.
///
/// `Hetero` is the general shape: any sequence of [`AgentSpec`] terms.
/// A Table 4 bundle and an alone baseline are `Hetero` lists of `ooo`
/// terms, built by [`AgentMix::bundle`] and [`AgentMix::alone`] (and
/// parsed from `bundle:NAME` and `alone:app`). `Parallel` runs one
/// multithreaded app on every core the platform has.
///
/// # Grammar
///
/// [`AgentMix::from_str`](std::str::FromStr::from_str) and
/// [`AgentMix::to_string`](ToString::to_string) round-trip a compact
/// spec grammar:
///
/// ```text
/// mix    := "parallel:" app | "bundle:" NAME | "alone:" app
///         | term ("+" term)*
/// term   := class [":" name] ["*" count] ["@" budget]
/// class  := "ooo" | "stream" | "bulk" | "prefetch"
/// ```
///
/// `ooo` terms name an application (`ooo:mcf*2`); the other classes
/// take an optional traffic profile (`prefetch:wild`) or, as sugar, a
/// bare count (`stream:2` == `stream*2`). `budget` is a decimal
/// slowdown bound (`@1.5`), resolved in thousandths. `bundle:` and
/// `alone:` are sugar and print as the `ooo` terms they stand for.
///
/// # Examples
///
/// ```
/// use critmem::AgentMix;
///
/// let bundle: AgentMix = "bundle:RGTM".parse().unwrap();
/// assert_eq!(bundle, AgentMix::bundle("RGTM"));
/// assert_eq!(bundle.to_string(), "ooo:art1+ooo:mg1+ooo:twolf+ooo:mesa");
///
/// let mix: AgentMix = "ooo:mcf*2+stream:2@1.5".parse().unwrap();
/// assert_eq!(mix.ooo_count(), Some(2));
/// assert_eq!(mix.to_string(), "ooo:mcf*2+stream*2@1.5");
/// assert!("ooo:unknown-app".parse::<AgentMix>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentMix {
    /// One of the nine parallel apps (Table 2), all cores running its
    /// threads.
    Parallel(&'static str),
    /// A composed heterogeneous mix of agent terms.
    Hetero(Vec<AgentSpec>),
}

/// Canonicalizes an application name usable by an OoO agent (bundle
/// apps, parallel apps, and the `chase` microbenchmark).
fn static_ooo_app(name: &str) -> Option<&'static str> {
    critmem_workloads::MULTI_APPS
        .iter()
        .chain(critmem_workloads::PARALLEL_APPS.iter())
        .chain(std::iter::once(&"chase"))
        .copied()
        .find(|a| *a == name)
}

fn unknown(kind: &'static str, name: impl Into<String>) -> critmem_common::SimError {
    critmem_common::SimError::UnknownWorkload {
        kind,
        name: name.into(),
    }
}

impl AgentMix {
    /// A Table 4 bundle: its four single-threaded apps, one per core.
    /// Panics on an unknown name; parse `bundle:NAME` for a typed error.
    pub fn bundle(name: &str) -> Self {
        let bundle =
            critmem_workloads::bundle(name).unwrap_or_else(|| panic!("unknown bundle {name:?}"));
        AgentMix::Hetero(bundle.apps.iter().map(|&app| AgentSpec::ooo(app)).collect())
    }

    /// `app` alone on one core (the weighted-speedup baselines).
    pub fn alone(app: &'static str) -> Self {
        AgentMix::Hetero(vec![AgentSpec::ooo(app)])
    }

    /// Number of OoO cores this mix requires, when the mix itself pins
    /// it: for `Hetero`, the sum of its `ooo` counts. `Parallel` runs
    /// on however many cores the platform has, so it returns `None`.
    pub fn ooo_count(&self) -> Option<usize> {
        match self {
            AgentMix::Parallel(_) => None,
            AgentMix::Hetero(specs) => Some(
                specs
                    .iter()
                    .filter(|s| s.class == AgentClass::Ooo)
                    .map(|s| s.count as usize)
                    .sum(),
            ),
        }
    }

    /// Number of non-core (accelerator-class) agents in the mix.
    pub fn agent_count(&self) -> usize {
        match self {
            AgentMix::Hetero(specs) => specs
                .iter()
                .filter(|s| s.class != AgentClass::Ooo)
                .map(|s| s.count as usize)
                .sum(),
            _ => 0,
        }
    }

    /// The hetero terms, when this is a [`AgentMix::Hetero`] mix.
    pub fn specs(&self) -> Option<&[AgentSpec]> {
        match self {
            AgentMix::Hetero(specs) => Some(specs),
            _ => None,
        }
    }

    /// Parses one hetero grammar term.
    fn parse_term(term: &str) -> Result<AgentSpec, critmem_common::SimError> {
        let term = term.trim();
        // Split off `@budget`, then `*count`, then `:name`.
        let (head, qos) = match term.rsplit_once('@') {
            Some((h, q)) => (
                h,
                parse_qos(q).ok_or_else(|| unknown("QoS budget", format!("{q} (in {term:?})")))?,
            ),
            None => (term, 0),
        };
        let (head, count) = match head.rsplit_once('*') {
            Some((h, c)) => (
                h,
                c.parse::<u32>()
                    .ok()
                    .filter(|&c| c >= 1)
                    .ok_or_else(|| unknown("agent count", format!("{c} (in {term:?})")))?,
            ),
            None => (head, 1),
        };
        let (class_word, name) = match head.split_once(':') {
            Some((c, n)) => (c, Some(n)),
            None => (head, None),
        };
        let class = AgentClass::parse(class_word)
            .ok_or_else(|| unknown("agent class", format!("{class_word} (in {term:?})")))?;
        if class == AgentClass::Ooo {
            let app =
                name.ok_or_else(|| unknown("application", format!("<missing> (in {term:?})")))?;
            let app = static_ooo_app(app).ok_or_else(|| unknown("application", app))?;
            return Ok(AgentSpec {
                class,
                profile: app,
                count,
                qos_millis: qos,
            });
        }
        // Sugar: a bare integer after the colon is a count
        // (`stream:2` == `stream*2`).
        let profile = match name {
            None => critmem_workloads::default_profile(class).expect("non-ooo default"),
            Some(n) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                let sugar: u32 = n.parse().map_err(|_| unknown("agent count", n))?;
                if sugar < 1 || count != 1 {
                    return Err(unknown("agent count", format!("{n} (in {term:?})")));
                }
                return Ok(AgentSpec {
                    class,
                    profile: critmem_workloads::default_profile(class).expect("non-ooo default"),
                    count: sugar,
                    qos_millis: qos,
                });
            }
            Some(n) => critmem_workloads::resolve_profile(class, n)
                .ok_or_else(|| unknown("agent profile", format!("{n} (for {class})")))?,
        };
        Ok(AgentSpec {
            class,
            profile,
            count,
            qos_millis: qos,
        })
    }
}

impl std::str::FromStr for AgentMix {
    type Err = critmem_common::SimError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some(app) = s.strip_prefix("parallel:") {
            let app = critmem_workloads::PARALLEL_APPS
                .iter()
                .copied()
                .find(|a| *a == app)
                .ok_or_else(|| unknown("parallel app", app))?;
            return Ok(AgentMix::Parallel(app));
        }
        if let Some(name) = s.strip_prefix("bundle:") {
            let b = critmem_workloads::bundle(name).ok_or_else(|| unknown("bundle", name))?;
            return Ok(AgentMix::bundle(b.name));
        }
        if let Some(app) = s.strip_prefix("alone:") {
            let app = static_ooo_app(app).ok_or_else(|| unknown("application", app))?;
            return Ok(AgentMix::alone(app));
        }
        if s.is_empty() {
            return Err(unknown("agent mix", "<empty>"));
        }
        let specs = s
            .split('+')
            .map(Self::parse_term)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AgentMix::Hetero(specs))
    }
}

impl std::fmt::Display for AgentMix {
    /// The canonical grammar rendering;
    /// [`AgentMix::from_str`](std::str::FromStr::from_str) parses it
    /// back to an equal value.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentMix::Parallel(app) => write!(f, "parallel:{app}"),
            AgentMix::Hetero(specs) => {
                for (i, spec) in specs.iter().enumerate() {
                    if i > 0 {
                        f.write_str("+")?;
                    }
                    spec.write_term(f)?;
                }
                Ok(())
            }
        }
    }
}

/// Complete system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Core microarchitecture (Table 1).
    pub core: CoreConfig,
    /// Cache hierarchy (Tables 1 and 3).
    pub hierarchy: HierarchyConfig,
    /// DRAM subsystem (Table 3).
    pub dram: DramConfig,
    /// CPU clock in MHz (Table 1: 4.27 GHz).
    pub cpu_mhz: u64,
    /// Memory scheduler.
    pub scheduler: SchedulerKind,
    /// Per-core criticality predictor.
    pub predictor: PredictorKind,
    /// Instructions each core must commit before the run ends.
    pub instructions_per_core: u64,
    /// Master seed for all per-thread RNGs.
    pub seed: u64,
    /// §5.1 naive forwarding: notify the controller when a load starts
    /// blocking the ROB head (no predictor involved).
    pub naive_forwarding: bool,
    /// Side-channel latency for naive forwarding, in CPU cycles.
    pub forward_latency: u64,
    /// Safety valve: abort the run after this many CPU cycles.
    pub max_cycles: u64,
    /// When set, sample every registered metric each `N` CPU cycles
    /// into an in-memory time series ([`crate::RunStats::series`]).
    /// `None` (the default) disables sampling entirely.
    pub sample_epoch: Option<u64>,
    /// Forward-progress watchdog thresholds (livelock detection). The
    /// defaults trip only on pathological runs; use
    /// [`critmem_common::WatchdogConfig::disabled`] to turn the checks
    /// off entirely.
    pub watchdog: critmem_common::WatchdogConfig,
    /// Must be `1`: the DRAM tick is serial. The sharded tick this
    /// field once sized was removed because it ran slower than serial;
    /// [`SystemConfig::validate`] rejects any other value. The field
    /// itself is removed in the next change to the benchmark directory,
    /// which still reads it.
    pub shards: usize,
    /// Event-driven skip-ahead: when every component reports a quiet
    /// window, batch-advance the clock to the next event horizon
    /// instead of stepping cycle by cycle; and on the cycles that are
    /// stepped, let each core sleep (skip `Core::step`, replaying only
    /// its stall counters) until its own horizon or an inbound fill
    /// says it can act. Byte-identical to serial stepping by
    /// construction (and asserted by the identity suite); also
    /// excluded from checkpoint fingerprints and sweep cell identities.
    /// Off, every core steps every cycle: the reference kernel.
    pub skip_ahead: bool,
    /// Independent run auditing: attach a shadow protocol auditor to
    /// every DRAM channel and a request-conservation auditor to the
    /// L2↔controller boundary. Audited runs are byte-identical in
    /// exported statistics to unaudited ones — the auditors only watch —
    /// so, like [`SystemConfig::skip_ahead`], this knob is excluded from
    /// checkpoint fingerprints and sweep cell identities. A violation
    /// surfaces as a typed [`critmem_common::SimError::AuditViolation`].
    pub audit: bool,
}

impl SystemConfig {
    /// Canonical platform fingerprint of this configuration running
    /// `workload`: everything that must be identical between the system
    /// that saved a checkpoint and one restoring it: the CRC of the
    /// platform part of its [`CellId`](crate::experiments::CellId).
    pub(crate) fn platform_fingerprint(&self, workload: &AgentMix) -> u32 {
        let platform = crate::experiments::harness::CellId::platform(self, workload);
        critmem_common::crc32::checksum(platform.as_bytes())
    }

    /// The paper's 8-core parallel-workload baseline: FR-FCFS, no
    /// predictor, quad-channel DDR3-2133.
    pub fn paper_baseline(instructions_per_core: u64) -> Self {
        SystemConfig {
            cores: 8,
            core: CoreConfig::paper_baseline(),
            hierarchy: HierarchyConfig::paper_baseline(8),
            dram: DramConfig::paper_baseline(),
            cpu_mhz: 4_270,
            scheduler: SchedulerKind::FrFcfs,
            predictor: PredictorKind::None,
            instructions_per_core,
            seed: 0x15CA_2013,
            naive_forwarding: false,
            forward_latency: 24,
            max_cycles: u64::MAX,
            sample_epoch: None,
            watchdog: critmem_common::WatchdogConfig::default(),
            shards: 1,
            skip_ahead: true,
            audit: false,
        }
    }

    /// The quad-core multiprogrammed configuration of §5.8.2: half the
    /// channels (2), half the L2 MSHRs (32), PAR-BS marking cap 5.
    pub fn multiprogrammed_baseline(instructions_per_core: u64) -> Self {
        let mut cfg = Self::paper_baseline(instructions_per_core);
        cfg.cores = 4;
        cfg.hierarchy = HierarchyConfig::paper_baseline(4);
        cfg.hierarchy.l2_mshrs = 32;
        cfg.dram.org.channels = 2;
        cfg.scheduler = SchedulerKind::ParBs { marking_cap: 5 };
        cfg
    }

    /// Enables the §5.5 L2 stream prefetcher (builder style).
    #[must_use]
    pub fn with_prefetcher(mut self) -> Self {
        self.hierarchy.prefetch = Some(PrefetchConfig::default());
        self
    }

    /// Sets the scheduler (builder style).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the predictor (builder style).
    #[must_use]
    pub fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = predictor;
        self
    }

    /// Enables metric sampling every `epoch` CPU cycles (builder
    /// style).
    #[must_use]
    pub fn with_sampling(mut self, epoch: u64) -> Self {
        self.sample_epoch = Some(epoch);
        self
    }

    /// Enables the independent run auditors (builder style).
    #[must_use]
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.core.validate()?;
        self.dram.validate()?;
        // `cores == 0` is legal: an agent-only [`AgentMix::Hetero`]
        // run (the alone baseline for accelerator-class agents) has no
        // OoO cores at all. The system build rejects zero-core runs of
        // workloads that need cores.
        if self.cores != self.hierarchy.num_cores {
            return Err(format!(
                "core count ({}) must match hierarchy ({})",
                self.cores, self.hierarchy.num_cores
            ));
        }
        if self.cpu_mhz < self.dram.preset.bus_mhz {
            return Err("CPU clock must be at least the DRAM bus clock".into());
        }
        if self.instructions_per_core == 0 {
            return Err("instruction target must be nonzero".into());
        }
        if self.sample_epoch == Some(0) {
            return Err("sampling epoch must be nonzero".into());
        }
        if self.watchdog.enabled() && self.watchdog.check_interval == 0 {
            return Err("watchdog check interval must be nonzero".into());
        }
        if self.shards != 1 {
            return Err(format!(
                "shard count must be 1, got {}: the sharded DRAM tick was removed",
                self.shards
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_validate() {
        SystemConfig::paper_baseline(1000).validate().unwrap();
        SystemConfig::multiprogrammed_baseline(1000)
            .validate()
            .unwrap();
    }

    #[test]
    fn multiprogrammed_halves_resources() {
        let c = SystemConfig::multiprogrammed_baseline(1000);
        assert_eq!(c.cores, 4);
        assert_eq!(c.dram.org.channels, 2);
        assert_eq!(c.hierarchy.l2_mshrs, 32);
        assert_eq!(c.scheduler, SchedulerKind::ParBs { marking_cap: 5 });
    }

    #[test]
    fn validation_rejects_any_shard_count_but_one() {
        let c = SystemConfig::paper_baseline(1000);
        assert_eq!(c.shards, 1, "default tick is serial");
        assert!(c.skip_ahead, "skip-ahead is on by default");
        for shards in [0, 2] {
            let mut bad = c.clone();
            bad.shards = shards;
            let err = bad.validate().unwrap_err();
            assert!(err.contains("sharded DRAM tick was removed"), "{err}");
        }
    }

    #[test]
    fn validation_catches_core_mismatch() {
        let mut c = SystemConfig::paper_baseline(1000);
        c.cores = 4; // hierarchy still sized for 8
        assert!(c.validate().is_err());
    }

    #[test]
    fn mix_grammar_parses_legacy_shapes() {
        assert_eq!(
            "parallel:swim".parse::<AgentMix>().unwrap(),
            AgentMix::Parallel("swim")
        );
        assert_eq!(
            "bundle:RGTM".parse::<AgentMix>().unwrap(),
            AgentMix::bundle("RGTM")
        );
        assert_eq!(
            "alone:mcf".parse::<AgentMix>().unwrap(),
            AgentMix::alone("mcf")
        );
        for bad in ["parallel:mcf", "bundle:XXXX", "alone:nope", ""] {
            assert!(
                matches!(
                    bad.parse::<AgentMix>(),
                    Err(critmem_common::SimError::UnknownWorkload { .. })
                ),
                "{bad:?} must be a typed error"
            );
        }
    }

    #[test]
    fn mix_grammar_parses_hetero_terms() {
        let mix: AgentMix = "ooo:swim*4+stream:2".parse().unwrap();
        assert_eq!(mix.ooo_count(), Some(4));
        assert_eq!(mix.agent_count(), 2);
        let specs = mix.specs().unwrap();
        assert_eq!(specs[0], AgentSpec::ooo("swim").with_count(4));
        assert_eq!(specs[1], AgentSpec::agent(AgentClass::Stream).with_count(2));

        let mix: AgentMix = "ooo:mcf+prefetch:wild@2.5+bulk".parse().unwrap();
        let specs = mix.specs().unwrap();
        assert_eq!(specs[1].profile, "wild");
        assert_eq!(specs[1].qos_millis, 2_500);
        assert_eq!(specs[2], AgentSpec::agent(AgentClass::Bulk));
        assert_eq!(
            specs[2].effective_qos_millis(),
            AgentClass::Bulk.default_qos_millis()
        );

        for bad in [
            "ooo",           // ooo needs an app
            "ooo:nosuchapp", // unknown app
            "stream:nope",   // unknown profile
            "gpu:2",         // unknown class
            "stream*0",      // zero count
            "stream:2*3",    // count sugar + explicit count
            "stream@1.2345", // too many budget digits
        ] {
            assert!(
                matches!(
                    bad.parse::<AgentMix>(),
                    Err(critmem_common::SimError::UnknownWorkload { .. })
                ),
                "{bad:?} must be a typed error"
            );
        }
    }

    /// Display -> FromStr round-trip over a systematic property sweep:
    /// every class x profile x count x budget combination the grammar
    /// can express must print to a string that parses back to an equal
    /// mix (and printing is a fixed point).
    #[test]
    fn mix_grammar_round_trips() {
        let mut mixes = vec![
            AgentMix::Parallel("swim"),
            AgentMix::bundle("RGTM"),
            AgentMix::alone("mcf"),
        ];
        let classes = [AgentClass::Stream, AgentClass::Bulk, AgentClass::Prefetch];
        for class in classes {
            for &profile in critmem_workloads::agent_profiles(class) {
                for count in [1, 2, 7] {
                    for qos in [0u32, 500, 1_000, 1_500, 2_125, 10_000] {
                        let spec = AgentSpec {
                            class,
                            profile,
                            count,
                            qos_millis: qos,
                        };
                        mixes.push(AgentMix::Hetero(vec![
                            AgentSpec::ooo("mcf").with_count(2),
                            spec,
                        ]));
                    }
                }
            }
        }
        mixes.push(AgentMix::Hetero(vec![
            AgentSpec::ooo("art1"),
            AgentSpec::ooo("mcf"),
            AgentSpec::agent(AgentClass::Stream).with_qos_millis(1_500),
            AgentSpec::agent(AgentClass::Bulk).with_count(3),
            AgentSpec::agent(AgentClass::Prefetch),
        ]));
        for mix in mixes {
            let text = mix.to_string();
            let parsed: AgentMix = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, mix, "round trip through {text:?}");
            assert_eq!(parsed.to_string(), text, "printing is a fixed point");
        }
    }

    #[test]
    fn qos_text_is_exact() {
        for (millis, text) in [
            (3_000, "3"),
            (1_500, "1.5"),
            (2_125, "2.125"),
            (500, "0.5"),
            (10, "0.01"),
        ] {
            assert_eq!(super::fmt_qos(millis), text);
            assert_eq!(super::parse_qos(text), Some(millis));
        }
        assert_eq!(super::parse_qos("1.2345"), None);
        assert_eq!(super::parse_qos(""), None);
        assert_eq!(super::parse_qos("x.5"), None);
    }

    #[test]
    fn legacy_debug_renderings_are_stable() {
        // Cell identities and checkpoint fingerprints embed the
        // workload's Debug form. `Parallel` renders as the retired
        // `WorkloadKind` did; a bundle and an alone run are sugar with
        // no rendering of their own: each is its `ooo` term list.
        assert_eq!(
            format!("{:?}", AgentMix::Parallel("swim")),
            "Parallel(\"swim\")"
        );
        let terms: AgentMix = "ooo:art1+ooo:mg1+ooo:twolf+ooo:mesa".parse().unwrap();
        assert_eq!(
            format!("{:?}", AgentMix::bundle("RGTM")),
            format!("{terms:?}")
        );
        assert_eq!(
            format!("{:?}", AgentMix::alone("mcf")),
            format!("{:?}", AgentMix::Hetero(vec![AgentSpec::ooo("mcf")]))
        );
    }

    #[test]
    fn zero_core_config_validates_for_agent_only_mixes() {
        let mut c = SystemConfig::paper_baseline(1000);
        c.cores = 0;
        c.hierarchy = HierarchyConfig::paper_baseline(0);
        c.validate().unwrap();
    }

    #[test]
    fn predictor_names() {
        assert_eq!(PredictorKind::None.name(), "none");
        assert_eq!(
            PredictorKind::cbp64(CbpMetric::MaxStallTime).name(),
            "MaxStallTime CBP (64-entry)"
        );
        assert_eq!(
            PredictorKind::Clpt(ClptMode::Binary { threshold: 3 }).name(),
            "CLPT-Binary(t=3)"
        );
    }
}
