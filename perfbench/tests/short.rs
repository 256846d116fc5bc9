//! Short-size checks of the benchmark itself: the traced replicas
//! reproduce the simulator, seeds control the inputs, and the metric
//! tables agree with `BENCHMARK.json`.

use critmem_perfbench::bench::{self, END_TO_END, PER_LAYER};
use critmem_perfbench::workloads::Workload;

/// A size that keeps each simulation well under a second in a debug
/// build while still exercising every layer the workload touches.
fn short(w: Workload) -> u64 {
    match w {
        Workload::ParRadix => 1_500,
        Workload::HeteroStream => 2_000,
        Workload::ReplaySynth => 5_000,
    }
}

#[test]
fn traced_replica_reproduces_every_workload() {
    for w in Workload::ALL {
        let plain = w.run(7, short(w)).expect("untraced run");
        assert!(
            plain.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            plain.problems
        );
        let (traced, times) = w.run_traced(7, short(w)).expect("traced run");
        assert_eq!(traced, plain, "{}: replica diverged", w.name());
        assert!(times.total_ns > 0 && times.dram_ticks > 0, "{}", w.name());
    }
}

#[test]
fn digest_repeats_for_a_seed_and_moves_with_it() {
    for w in Workload::ALL {
        let a = w.run(1, short(w)).expect("seed 1");
        let b = w.run(1, short(w)).expect("seed 1 again");
        let c = w.run(2, short(w)).expect("seed 2");
        assert_eq!(
            a.digest,
            b.digest,
            "{}: same seed, different output",
            w.name()
        );
        assert_ne!(
            a.digest,
            c.digest,
            "{}: seed does not reach the inputs",
            w.name()
        );
    }
}

#[test]
fn workload_seeds_select_distinct_inputs() {
    let (a, b) = (bench::input_seeds(1), bench::input_seeds(2));
    assert_eq!(a, bench::input_seeds(1));
    assert!(a.iter().all(|s| !b.contains(s)), "{a:?} and {b:?} overlap");
    let mut sorted = a.to_vec();
    sorted.dedup();
    assert_eq!(sorted.len(), bench::INPUTS);
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(seen.insert(name), "{name} listed twice");
        assert!(name.len() <= 64, "{name}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name}"
        );
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn reports_carry_exactly_the_declared_metrics() {
    let w = Workload::ReplaySynth;
    for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let report = bench::run(w, 3, short(w), 0.0, trace);
        assert!(report.correct(), "{:?}", report.problems);
        let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<_> = table.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        let line = report.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}
