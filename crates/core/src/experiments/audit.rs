//! The `repro audit` experiments: certify that the independent
//! auditors are silent and free on clean runs, and prove by injection
//! that every supported fault is *detected*.
//!
//! Two complementary campaigns:
//!
//! * [`certify`] runs every scheduler twice — audited and unaudited —
//!   and checks that (a) no violation is raised and (b) the exported
//!   statistics are byte-identical. This is the "auditors are
//!   observers, not participants" contract.
//! * [`campaign`] injects each supported [`FaultKind`] into an
//!   otherwise clean run and classifies how it surfaced: a typed
//!   error, a watchdog trip, or an audit violation. A fault that
//!   changes nothing observable is classified [`Detection::Silent`] —
//!   the one outcome the campaign exists to rule out.
//!
//! [`inject`] runs a single parsed fault spec for targeted
//! reproduction (`repro audit inject corrupt-sched@ch0,c5000`).

use crate::checkpoint::Checkpoint;
use crate::config::{AgentMix, SystemConfig};
use crate::experiments::harness::TextTable;
use crate::faults::{FaultKind, FaultPlan};
use crate::replay::replay_with;
use crate::session::Session;
use critmem_common::codec::ByteWriter;
use critmem_common::SimError;
use critmem_dram::DramConfig;
use critmem_sched::{SchedulerKind, TcmTiebreak};
use critmem_trace::{Fingerprint, ReplayConfig, Trace, TraceRecord, TraceSource};

/// The scheduler roster both audit campaigns sweep: every queue
/// discipline in the tree, so a protocol bug in any of them would
/// fail certification.
pub fn audit_schedulers() -> Vec<(&'static str, SchedulerKind)> {
    vec![
        ("FCFS", SchedulerKind::Fcfs),
        ("FR-FCFS", SchedulerKind::FrFcfs),
        ("Crit-CASRAS", SchedulerKind::CritCasRas),
        ("CASRAS-Crit", SchedulerKind::CasRasCrit),
        ("AHB", SchedulerKind::Ahb),
        ("ATLAS", SchedulerKind::Atlas),
        ("Minimalist", SchedulerKind::Minimalist),
        ("PAR-BS", SchedulerKind::ParBs { marking_cap: 5 }),
        (
            "TCM",
            SchedulerKind::Tcm {
                tiebreak: TcmTiebreak::FrFcfs,
            },
        ),
    ]
}

/// The small 2-core platform both campaigns run on: large enough to
/// exercise every DRAM command class (ACT/PRE/CAS/write/refresh),
/// small enough that the full matrix finishes in seconds.
fn campaign_cfg(instructions: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(instructions);
    cfg.cores = 2;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    cfg.max_cycles = 20_000_000;
    cfg
}

/// [`campaign_cfg`] with a tight forward-progress watchdog, so a
/// fault that stalls the machine surfaces in tens of thousands of
/// cycles instead of millions.
fn faulted_cfg(instructions: u64) -> SystemConfig {
    let mut cfg = campaign_cfg(instructions);
    cfg.watchdog.no_commit_cycles = 30_000;
    cfg.watchdog.check_interval = 1_024;
    cfg
}

/// One scheduler's certification outcome.
#[derive(Debug)]
pub struct CertifyRow {
    /// Scheduler display name.
    pub scheduler: &'static str,
    /// Audited statistics were byte-identical to unaudited.
    pub identical: bool,
    /// The audited run's error, when it raised one (a certification
    /// failure — clean runs must be silent).
    pub error: Option<String>,
}

/// Result of [`certify`]: one row per scheduler.
#[derive(Debug)]
pub struct AuditCertification {
    /// Outcomes in [`audit_schedulers`] order.
    pub rows: Vec<CertifyRow>,
}

impl AuditCertification {
    /// True when every scheduler ran silently and byte-identically.
    pub fn all_clean(&self) -> bool {
        self.rows.iter().all(|r| r.identical && r.error.is_none())
    }

    /// Renders the certification as a text table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Audit certification (audited vs unaudited, per scheduler)",
            &["violations", "stats"],
        );
        for r in &self.rows {
            t.row(
                r.scheduler,
                vec![
                    r.error.clone().unwrap_or_else(|| "none".into()),
                    if r.identical {
                        "byte-identical".into()
                    } else {
                        "DIVERGED".into()
                    },
                ],
            );
        }
        t
    }
}

/// Runs every scheduler audited and unaudited on the same workload
/// and certifies that auditing is invisible: zero violations, and the
/// exported statistics byte-identical.
pub fn certify() -> AuditCertification {
    let wl = AgentMix::Parallel("swim");
    let encode = |stats: &crate::system::RunStats| {
        let mut w = ByteWriter::new();
        stats.encode(&mut w);
        w.into_bytes()
    };
    let rows = audit_schedulers()
        .into_iter()
        .map(|(name, kind)| {
            let plain = Session::new(campaign_cfg(1_500), &wl)
                .scheduler(kind)
                .run()
                .map(|out| encode(&out.stats));
            let audited = Session::new(campaign_cfg(1_500), &wl)
                .scheduler(kind)
                .audit(true)
                .run()
                .map(|out| encode(&out.stats));
            match (plain, audited) {
                (Ok(a), Ok(b)) => CertifyRow {
                    scheduler: name,
                    identical: a == b,
                    error: None,
                },
                (_, Err(e)) | (Err(e), _) => CertifyRow {
                    scheduler: name,
                    identical: false,
                    error: Some(e.to_string()),
                },
            }
        })
        .collect();
    AuditCertification { rows }
}

/// How an injected fault surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// A typed [`SimError`] other than a watchdog or audit violation
    /// (e.g. a CRC failure decoding a corrupted artifact).
    TypedError,
    /// The forward-progress watchdog tripped.
    Watchdog,
    /// An auditor raised [`SimError::AuditViolation`].
    AuditViolation,
    /// Nothing observable changed — the failure mode the campaign
    /// exists to rule out.
    Silent,
}

impl Detection {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Detection::TypedError => "typed error",
            Detection::Watchdog => "watchdog",
            Detection::AuditViolation => "audit violation",
            Detection::Silent => "SILENT",
        }
    }
}

/// One injected fault's outcome.
#[derive(Debug)]
pub struct CampaignRow {
    /// The fault's printed spec (parseable by `repro audit inject`).
    pub spec: String,
    /// How it surfaced.
    pub detection: Detection,
    /// The surfaced error's message (empty when silent).
    pub detail: String,
    /// The process exit code the surfaced error maps to (1 when
    /// silent, so a silent fault still fails a scripted campaign).
    pub exit_code: i32,
}

/// Result of [`campaign`]: one row per injected fault.
#[derive(Debug)]
pub struct FaultCampaign {
    /// Outcomes, one per fault in the default matrix.
    pub rows: Vec<CampaignRow>,
}

impl FaultCampaign {
    /// True when no fault was silent.
    pub fn all_detected(&self) -> bool {
        self.rows.iter().all(|r| r.detection != Detection::Silent)
    }

    /// Renders the detection-coverage table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fault-injection campaign (every fault must be detected)",
            &["detected as", "detail"],
        );
        for r in &self.rows {
            let mut detail = r.detail.clone();
            if detail.len() > 72 {
                detail.truncate(69);
                detail.push_str("...");
            }
            t.row(r.spec.clone(), vec![r.detection.label().into(), detail]);
        }
        t
    }
}

/// The default fault matrix: one representative of every supported
/// [`FaultKind`].
fn default_faults() -> Vec<FaultKind> {
    vec![
        FaultKind::DropRequest { nth_read: 3 },
        FaultKind::DuplicateRequest { nth_read: 3 },
        FaultKind::DelayRequest {
            nth_read: 3,
            delay: 40_000_000,
        },
        FaultKind::WedgeBank {
            channel: 0,
            rank: 0,
            bank: 0,
            at_cycle: 0,
        },
        FaultKind::CorruptSchedulerDecision {
            channel: 0,
            at_cycle: 5_000,
        },
        FaultKind::BitFlipTraceChunk { byte_offset: 200 },
        FaultKind::BitFlipCheckpoint { byte_offset: 64 },
    ]
}

/// Injects every fault in the default matrix and classifies each
/// outcome. [`FaultCampaign::all_detected`] is the campaign's pass
/// criterion.
pub fn campaign() -> FaultCampaign {
    let rows = default_faults().into_iter().map(run_fault).collect();
    FaultCampaign { rows }
}

/// Parses and injects a single fault spec (see [`FaultKind`]'s
/// `FromStr` for the grammar).
///
/// # Errors
///
/// [`SimError::Config`] when the spec does not parse.
pub fn inject(spec: &str) -> Result<CampaignRow, SimError> {
    let kind: FaultKind = spec.parse()?;
    Ok(run_fault(kind))
}

/// Injects one fault into an otherwise clean run and classifies the
/// outcome.
fn run_fault(kind: FaultKind) -> CampaignRow {
    let spec = kind.to_string();
    let outcome = match kind {
        FaultKind::BitFlipTraceChunk { byte_offset } => flip_trace(byte_offset),
        FaultKind::BitFlipCheckpoint { byte_offset } => flip_checkpoint(byte_offset),
        FaultKind::WedgeBank {
            channel,
            rank,
            bank,
            ..
        } => wedge_replay(channel, rank, bank),
        live => {
            let plan = FaultPlan::new(0xC0FFEE).with_fault(live);
            Session::new(faulted_cfg(1_500), &AgentMix::Parallel("swim"))
                .audit(true)
                .fault(plan)
                .run()
                .map(|_| ())
        }
    };
    match outcome {
        Ok(()) => CampaignRow {
            spec,
            detection: Detection::Silent,
            detail: String::new(),
            exit_code: 1,
        },
        Err(err) => {
            let detection = match &err {
                SimError::Watchdog(_) => Detection::Watchdog,
                SimError::AuditViolation(_) => Detection::AuditViolation,
                _ => Detection::TypedError,
            };
            CampaignRow {
                spec,
                detection,
                exit_code: err.exit_code(),
                detail: err.to_string(),
            }
        }
    }
}

/// A synthetic trace whose every request decodes to channel 0 /
/// rank 0 / bank 0 (address zero), so a wedge on that bank starves
/// the whole stream.
fn single_bank_trace(n: u64) -> Trace {
    let cfg = DramConfig::paper_baseline();
    let fingerprint = Fingerprint::of(2, 4_270, &cfg);
    let records = (0..n)
        .map(|i| TraceRecord {
            enqueue_cycle: 10 + i * 10,
            issued_at: i * 10,
            id: i,
            addr: 0,
            crit: 0,
            core: (i % 2) as u8,
            kind: critmem_common::AccessKind::Read,
        })
        .collect();
    Trace {
        fingerprint,
        source: "audit-wedge".into(),
        records,
    }
}

/// Wedges one bank from the first cycle of a replay aimed at it: every
/// request starves, and either the watchdog or the protocol auditor
/// must notice.
fn wedge_replay(channel: u16, rank: u8, bank: u8) -> Result<(), SimError> {
    let plan = FaultPlan::new(0).with_fault(FaultKind::WedgeBank {
        channel,
        rank,
        bank,
        at_cycle: 0,
    });
    let mut cfg = ReplayConfig::default().with_audit(true);
    cfg.watchdog.no_commit_cycles = 30_000;
    cfg.watchdog.check_interval = 1_024;
    let source = TraceSource::from(single_bank_trace(100));
    replay_with(source, SchedulerKind::FrFcfs, cfg, Some(&plan)).map(|_| ())
}

/// Serializes a trace, flips one byte, and reads it back: the
/// interleaved chunk CRCs must reject it with a typed error.
fn flip_trace(byte_offset: u64) -> Result<(), SimError> {
    let trace = single_bank_trace(300);
    let mut bytes = trace
        .to_bytes()
        .map_err(|e| SimError::Trace(e.to_string()))?;
    let idx = (byte_offset as usize) % bytes.len();
    bytes[idx] ^= 0x40;
    match Trace::read_from(std::io::Cursor::new(bytes)) {
        Ok(_) => Ok(()),
        Err(e) => Err(SimError::Trace(e.to_string())),
    }
}

/// Captures a checkpoint, flips one byte of its serialized form, and
/// reads it back: the CMCK CRC must reject it with a typed error.
fn flip_checkpoint(byte_offset: u64) -> Result<(), SimError> {
    let ckpt = Session::new(campaign_cfg(1_500), &AgentMix::Parallel("swim"))
        .checkpoint_at(2_000)
        .run_to_checkpoint()?;
    let mut bytes = ckpt.to_bytes();
    let idx = (byte_offset as usize) % bytes.len();
    bytes[idx] ^= 0x40;
    Checkpoint::from_bytes(&bytes).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_flips_are_typed_errors() {
        assert!(matches!(flip_trace(200), Err(SimError::Trace(_))));
        assert!(matches!(flip_checkpoint(64), Err(SimError::Artifact(_))));
    }

    #[test]
    fn wedged_replay_is_detected() {
        let err = wedge_replay(0, 0, 0).expect_err("a wedged bank must be detected");
        assert!(
            matches!(err, SimError::Watchdog(_) | SimError::AuditViolation(_)),
            "got {err}"
        );
    }

    #[test]
    fn campaign_detects_every_fault() {
        let report = campaign();
        assert_eq!(report.rows.len(), 7);
        for row in &report.rows {
            assert_ne!(
                row.detection,
                Detection::Silent,
                "fault {} was not detected",
                row.spec
            );
            assert!(row.exit_code != 0);
        }
        assert!(report.all_detected());
    }

    #[test]
    fn inject_parses_and_runs_one_spec() {
        let row = inject("corrupt-sched@ch0,c5000").unwrap();
        assert_eq!(row.detection, Detection::AuditViolation);
        assert_eq!(row.exit_code, 4);
        assert!(inject("warp-core@n1").is_err());
    }
}
