//! `critmem` — a full-system reproduction of *"Improving Memory
//! Scheduling via Processor-Side Load Criticality Information"*
//! (Ghose, Lee, Martínez; ISCA 2013) in Rust.
//!
//! The paper pairs a tiny per-core **Commit Block Predictor** — which
//! learns the static loads that block the reorder-buffer head — with a
//! lean FR-FCFS-derived DRAM scheduler that simply prepends the
//! predicted criticality magnitude to its age comparator. This crate
//! assembles the whole evaluation platform from the workspace's
//! substrate crates and reproduces every figure and table of the
//! paper's evaluation:
//!
//! * [`SystemConfig`] / [`System`] — the 8-core CMP of Tables 1 and 3,
//! * [`Session`] — the one run API: observe, sample, checkpoint, warm-start,
//! * [`checkpoint`] — `CMCK` snapshots for warm-started sweeps,
//! * [`replay()`] — trace replay as a memory agent on the same run loop,
//! * [`experiments`] — one harness per paper figure/table,
//! * [`overhead`] — the §5.7 storage-overhead accounting,
//! * [`audit`] / [`faults`] — independent run auditors and typed,
//!   deterministic fault-injection plans (`repro audit`),
//! * the `repro` binary — prints every reproduced table.
//!
//! # Quick start
//!
//! ```
//! use critmem::{PredictorKind, Session, SystemConfig, AgentMix};
//! use critmem_predict::CbpMetric;
//! use critmem_sched::SchedulerKind;
//!
//! // Baseline FR-FCFS vs the paper's MaxStallTime CBP scheduler on a
//! // small swim run (2 cores / 2k instructions to keep the doctest fast).
//! let mut base = SystemConfig::paper_baseline(2_000);
//! base.cores = 2;
//! base.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
//! let wl = AgentMix::Parallel("swim");
//!
//! let b = Session::new(base.clone(), &wl).run().unwrap();
//! let c = Session::new(base, &wl)
//!     .scheduler(SchedulerKind::CasRasCrit)
//!     .predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime))
//!     .run()
//!     .unwrap();
//! assert!(b.stats.cycles > 0 && c.stats.cycles > 0);
//! ```
//!
//! # Warm-started sweeps
//!
//! Sweep cells that share a workload and platform re-simulate a
//! byte-identical warmup region. [`Session::checkpoint_at`] snapshots
//! the full architectural state at a boundary cycle;
//! [`Session::from_checkpoint`] fans every cell out from that shared
//! [`checkpoint::Checkpoint`], swapping in the cell's scheduler and
//! predictor fresh at the boundary.

pub mod audit;
pub mod checkpoint;
pub mod config;
pub mod experiments;
pub mod faults;
pub mod journal;
pub mod metrics;
pub mod overhead;
pub mod pool;
mod replay;
pub mod session;
pub mod system;

pub use audit::ConservationAuditor;
pub use checkpoint::Checkpoint;
pub use config::{AgentMix, PredictorKind, SystemConfig};
pub use faults::{FaultHooks, FaultKind, FaultPlan};
pub use metrics::{geomean, speedup, Average};
pub use replay::replay;
pub use session::{RunOutput, Session};
pub use system::{RunStats, System};

#[cfg(test)]
mod tests {
    use crate::Checkpoint;
    use critmem_common::crc32;

    /// Pins the CRC-32 of every artifact layout's bytes, so a change to
    /// a codec that moves a byte on disk fails here, not in a user's
    /// old checkpoint, profile, journal or trace.
    #[test]
    fn artifact_bytes_are_pinned() {
        use critmem_trace::{CoreProfile, Fingerprint, Trace, TraceRecord, TraceWriter};
        use critmem_trace::{ReplayStats, TrafficProfile};

        let fingerprint = Fingerprint::of(2, 4_270, &critmem_dram::DramConfig::paper_baseline());
        let profile = TrafficProfile {
            fingerprint: fingerprint.clone(),
            source: "golden".into(),
            records_fitted: 3,
            mean_gap: 6.5,
            mean_issue_lag: 1.25,
            cores: vec![CoreProfile {
                weight: 1.0,
                write_frac: 0.25,
                prefetch_frac: 0.125,
                crit_frac: 0.5,
                mean_crit: 3.0,
                row_hit_frac: 0.75,
                footprint_rows: 9,
            }],
        };

        let path = std::env::temp_dir().join(format!(
            "critmem-golden-journal-{}.cmjr",
            std::process::id()
        ));
        let replay = ReplayStats {
            injected: 5,
            completed: 4,
            weighted_latency_sum: 1 << 70,
            ..Default::default()
        };
        let id = crate::experiments::harness::CellId("swim|FCFS|replay@300".into());
        crate::journal::SweepJournal::create(&path)
            .unwrap()
            .append_replay(&id, &replay)
            .unwrap();
        let journal = std::fs::read(&path).unwrap();
        let (_, entries) = crate::journal::SweepJournal::resume(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id(), &id);

        let records: Vec<TraceRecord> = (0..3u64)
            .map(|i| TraceRecord {
                enqueue_cycle: 10 * i,
                issued_at: 10 * i - i,
                id: i,
                addr: i << 12,
                crit: i % 2,
                core: (i % 2) as u8,
                kind: critmem_common::AccessKind::Read,
            })
            .collect();
        let trace = Trace {
            fingerprint: fingerprint.clone(),
            source: "golden".into(),
            records: records.clone(),
        };
        // Abandoned: the writer goes out of scope without `finish`.
        let mut abandoned = std::io::Cursor::new(Vec::new());
        {
            let mut tw = TraceWriter::new(&mut abandoned, &fingerprint, "golden").unwrap();
            for rec in &records {
                tw.append(rec).unwrap();
            }
        }

        // Every artifact reads back to what wrote it.
        let ckpt = Checkpoint::sample().to_bytes();
        assert_eq!(Checkpoint::from_bytes(&ckpt).unwrap().to_bytes(), ckpt);
        assert_eq!(
            TrafficProfile::from_bytes(&profile.to_bytes()).unwrap(),
            profile
        );
        let read = |bytes: &[u8]| Trace::read_from(bytes).unwrap();
        assert_eq!(read(&trace.to_bytes().unwrap()), trace);
        assert_eq!(read(abandoned.get_ref()), trace);

        let crcs = [
            crc32::checksum(&Checkpoint::sample().to_bytes()),
            crc32::checksum(&profile.to_bytes()),
            crc32::checksum(&journal),
            crc32::checksum(&trace.to_bytes().unwrap()),
            crc32::checksum(abandoned.get_ref()),
        ];
        assert_eq!(
            crcs,
            [
                0xECF3_1881,
                0x48BF_3C33,
                0x57C2_0373,
                0x470B_05F7,
                0x2ECC_2BF1
            ],
            "{crcs:#010X?}"
        );
    }
}
