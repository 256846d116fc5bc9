//! End-to-end tests for the observability layer (DESIGN.md §6e): a real
//! sampled run round-tripped through the sweep journal, the lossless
//! value ranges of a real export, the `--jobs` determinism contract,
//! and the empty-run denominator audit.

use critmem::config::PredictorKind;
use critmem::experiments::{stats_export, CellId, Runner, Scale};
use critmem::journal::{JournalEntry, SweepJournal};
use critmem::{AgentMix, RunStats, SystemConfig};
use critmem_common::codec::ByteWriter;
use critmem_common::obs::MetricKind;
use critmem_common::SeriesExport;
use critmem_predict::CbpMetric;
use critmem_sched::SchedulerKind;

fn encode(stats: &RunStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    stats.encode(&mut w);
    w.into_bytes()
}

fn sampled_export(jobs: usize) -> SeriesExport {
    let mut r = Runner::new(Scale::quick());
    r.jobs = jobs;
    stats_export(
        &mut r,
        &["art", "mg", "swim"],
        SchedulerKind::CasRasCrit,
        PredictorKind::cbp64(CbpMetric::MaxStallTime),
        5_000,
    )
}

#[test]
fn sampled_run_round_trips_through_the_journal() {
    let mut cfg = SystemConfig::paper_baseline(2_000)
        .with_predictor(PredictorKind::cbp64(CbpMetric::MaxStallTime));
    cfg.cores = 2;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    let cfg = cfg.with_sampling(1_000);
    let id = CellId::run(&cfg, &AgentMix::Parallel("swim"), None);
    let stats = critmem::Session::new(cfg, &AgentMix::Parallel("swim"))
        .run()
        .expect("sampled run")
        .stats;
    let series = stats.series.as_ref().expect("sampling was enabled");
    assert!(series.len() >= 2);
    assert!(series.schema().index_of("cbp.core0.lookups").is_some());
    let path = std::env::temp_dir().join(format!(
        "critmem-stats-export-journal-{}.cmjr",
        std::process::id()
    ));
    SweepJournal::create(&path)
        .and_then(|mut j| j.append_run(&id, &stats))
        .expect("journal write");
    let (_, entries) = SweepJournal::resume(&path).expect("journal resume");
    std::fs::remove_file(&path).ok();
    let [JournalEntry::Run {
        id: got_id,
        stats: got,
    }] = &entries[..]
    else {
        panic!("expected one run record, got {entries:?}");
    };
    assert_eq!(got_id, &id);
    assert_eq!(got.series, stats.series);
    assert_eq!(encode(got), encode(&stats));
}

#[test]
fn exported_values_are_lossless_numbers() {
    // Counters print as integers and gauges in shortest round-trip
    // form, so both formats are lossless exactly when every counter is
    // a non-negative integer an f64 holds and every gauge is finite.
    let export = sampled_export(1);
    for run in &export.runs {
        let defs = run.series.schema().defs();
        for row in 0..run.series.len() {
            for (v, d) in run.series.row(row).iter().zip(defs) {
                match d.kind {
                    MetricKind::Counter => assert!(
                        *v >= 0.0 && v.fract() == 0.0 && *v < 2f64.powi(53),
                        "{} {}: counter {v}",
                        run.run,
                        d.id()
                    ),
                    MetricKind::Gauge => {
                        assert!(v.is_finite(), "{} {}: gauge {v}", run.run, d.id())
                    }
                }
            }
        }
    }
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_exports() {
    let serial = sampled_export(1);
    let parallel = sampled_export(4);
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn sampled_run_matches_unsampled_results() {
    // Sampling is pull-based and must not perturb the simulation.
    let mut cfg = SystemConfig::paper_baseline(2_000);
    cfg.cores = 2;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    let wl = AgentMix::Parallel("swim");
    let plain = critmem::Session::new(cfg.clone(), &wl)
        .run()
        .expect("plain run")
        .stats;
    let sampled = critmem::Session::new(cfg, &wl)
        .sampling(1_000)
        .run()
        .expect("sampled run")
        .stats;
    assert_eq!(plain.cycles, sampled.cycles);
    assert_eq!(plain.hierarchy.l2_misses, sampled.hierarchy.l2_misses);
    assert!(plain.series.is_none());
    let series = sampled.series.expect("sampling was enabled");
    assert!(series.len() >= 2);
    // The final sample reflects the end-of-run counters exactly.
    let last = series.len() - 1;
    assert_eq!(
        series.value(last, "cache.l2.l2_misses"),
        Some(sampled.hierarchy.l2_misses as f64)
    );
}

#[test]
fn empty_run_stats_stay_finite() {
    // A system finalized before any step must not divide by zero
    // anywhere in the derived statistics.
    let mut cfg = SystemConfig::paper_baseline(1_000);
    cfg.cores = 2;
    cfg.hierarchy = critmem_cache::HierarchyConfig::paper_baseline(2);
    let stats =
        critmem::System::new(cfg.with_sampling(10_000), &AgentMix::Parallel("swim")).into_stats();
    for core in 0..2 {
        assert!(stats.ipc(core).is_finite());
        assert!(stats.cores[core].ipc().is_finite());
    }
    assert!(stats.blocked_load_fraction().is_finite());
    assert!(stats.blocked_cycle_fraction().is_finite());
    assert!(stats.lq_full_fraction().is_finite());
    let (one, many) = stats.critical_queue_fractions();
    assert!(one.is_finite() && many.is_finite());
    for ch in &stats.channels {
        assert!(ch.row_hit_rate().is_finite());
        assert!(ch.mean_occupancy().is_finite());
        assert!(ch.mean_read_latency().is_finite());
        assert!(ch.bus_utilization().is_finite());
        assert!(ch.mean_critical_read_latency().is_finite());
        assert!(ch.mean_noncritical_read_latency().is_finite());
    }
    // The end-of-run sample exists even though nothing ever ran, and
    // every gauge in it is finite (RowWriter clamps non-finite values).
    let series = stats.series.expect("sampling was enabled");
    assert_eq!(series.len(), 1);
    assert!(series.row(0).iter().all(|v| v.is_finite()));

    // Replay stats share the audit.
    let replay = critmem_trace::ReplayStats::default();
    assert!(replay.mean_read_latency().is_finite());
    assert!(replay.mean_critical_read_latency().is_finite());
}
