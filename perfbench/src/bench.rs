//! Measurement: repetitions, medians, the correctness ledger, and the
//! printed result.

use crate::traced::LayerTimes;
use crate::workloads::{ratio, Outcome, Workload};
use std::time::Instant;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_cycles_per_s", "1/s"),
    ("instr_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("cpu.step_self_s", "s"),
    ("cpu.steps", "count"),
    ("cpu.share", "frac"),
    ("cpu.rob_blocked_frac", "frac"),
    ("cpu.lq_full_frac", "frac"),
    ("workloads.next_instr_s", "s"),
    ("workloads.instrs", "count"),
    ("workloads.share", "frac"),
    ("predict.s", "s"),
    ("predict.calls", "count"),
    ("predict.share", "frac"),
    ("cache.fill_s", "s"),
    ("cache.fills", "count"),
    ("cache.share", "frac"),
    ("system.boundary_s", "s"),
    ("system.enqueues", "count"),
    ("system.enqueue_reject_frac", "frac"),
    ("system.horizon_s", "s"),
    ("system.horizon_calls", "count"),
    ("system.horizon_hit_frac", "frac"),
    ("system.skip_s", "s"),
    ("system.skipped_cycle_frac", "frac"),
    ("system.share", "frac"),
    ("dram.tick_self_s", "s"),
    ("dram.ticks", "count"),
    ("dram.bus_util", "frac"),
    ("dram.row_hit_frac", "frac"),
    ("dram.queue_occupancy", "count"),
    ("dram.rejected_full", "count"),
    ("dram.share", "frac"),
    ("sched.select_s", "s"),
    ("sched.selects", "count"),
    ("sched.candidates_per_select", "count"),
    ("sched.share", "frac"),
    ("agents.generate_s", "s"),
    ("agents.requests", "count"),
    ("agents.overflow_retries", "count"),
    ("agents.share", "frac"),
    ("trace.source_s", "s"),
    ("trace.records", "count"),
    ("trace.replay_self_s", "s"),
    ("trace.throttled_cycles", "count"),
    ("trace.throttled_cycle_frac", "frac"),
    ("trace.share", "frac"),
    ("traced.total_s", "s"),
    ("traced.other_s", "s"),
    ("traced.other_share", "frac"),
    ("traced.untraced_s", "s"),
    ("traced.overhead_frac", "frac"),
];

/// Input seeds per batch. The end-to-end run times batches that simulate
/// every input once, back to back, so its rates average over how much
/// host time per unit of work different inputs take instead of
/// following one input.
pub const INPUTS: usize = 8;
/// Fewest timed batches (or traced/untraced pairs) a run measures,
/// however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Share of a run's timed batches, fastest first, that the rates are
/// computed from. Every batch in a run does identical work, and other
/// tenants of the host only ever slow one down, often by half for
/// seconds at a time, so the fastest tenth estimates the program's own
/// speed.
const FAST_SHARE: f64 = 0.1;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// The run's value: a rate is the work of one batch over the mean
    /// time of the fastest tenth of the `samples` timed batches,
    /// `setup_s` the median set-up, a per-layer metric that of the
    /// median-length traced simulation.
    pub value: f64,
    /// Samples `value` is taken from.
    pub samples: usize,
    /// Smallest and largest sample.
    pub range: (f64, f64),
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Metrics in table order.
    pub metrics: Vec<Metric>,
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations that errored or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// The run's simulated output, when any simulation passed.
    pub reference: Option<Outcome>,
}

impl Report {
    /// Whether every simulation passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit, as one JSON object.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Counts simulations and checks each against the first that passed on
/// the same input.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The first passing outcome of each input seed, in the order the
    /// inputs were first run.
    references: Vec<(u64, Outcome)>,
}

impl Ledger {
    /// Records one simulation of input seed `input`. Returns its outcome
    /// if it ended `Ok`, met its targets, and matches that input's
    /// reference outcome on digest, simulated cycles and per-channel
    /// completions.
    fn check(
        &mut self,
        label: &str,
        input: u64,
        result: Result<Outcome, String>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let problem = match result {
            Err(e) => format!("{label}: {e}"),
            Ok(o) if !o.problems.is_empty() => format!("{label}: {}", o.problems.join("; ")),
            Ok(o) => match self.references.iter().find(|(s, _)| *s == input) {
                Some((_, r))
                    if (r.digest, r.cycles, &r.channels) != (o.digest, o.cycles, &o.channels) =>
                {
                    format!(
                        "{label}: digest {:08x}, {} cycles, channels {:?} differ from the \
                         reference {:08x}, {} cycles, channels {:?}",
                        o.digest, o.cycles, o.channels, r.digest, r.cycles, r.channels
                    )
                }
                Some(_) => return Some(o),
                None => {
                    self.references.push((input, o.clone()));
                    return Some(o);
                }
            },
        };
        self.failed += 1;
        self.problems.push(problem);
        None
    }

    /// Records a failure outside any simulation.
    fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }

    fn report(self, metrics: Vec<Metric>) -> Report {
        Report {
            metrics,
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            reference: self.references.into_iter().next().map(|(_, o)| o),
        }
    }
}

/// Median; zero for no samples (a run whose every simulation failed).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn range(values: &[f64]) -> (f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is missing from PER_LAYER"))
        .1
}

/// Runs `workload` at `size` for at least `seconds` and reports its
/// end-to-end metrics (`trace == false`) or its per-layer metrics.
pub fn run(workload: Workload, seed: u64, size: u64, seconds: f64, trace: bool) -> Report {
    if trace {
        traced(workload, seed, size, seconds)
    } else {
        untraced(workload, seed, size, seconds)
    }
}

/// The input seeds of workload seed `seed`; different seeds share none.
pub fn input_seeds(seed: u64) -> [u64; INPUTS] {
    std::array::from_fn(|i| seed.wrapping_mul(INPUTS as u64).wrapping_add(i as u64))
}

fn untraced(w: Workload, seed: u64, size: u64, seconds: f64) -> Report {
    let mut ledger = Ledger::default();
    let mut setups = Vec::new();
    let mut batches = Vec::new();
    let mut rss = None;
    // The first batch warms the caches and the allocator and sets the
    // reference outcomes; it is checked but not timed.
    let mut warm = false;
    let start = Instant::now();
    while ledger.failed == 0 && (batches.len() < MIN_REPS || secs(start) < seconds) {
        let mut batch = 0.0;
        for input in input_seeds(seed) {
            let t = Instant::now();
            match w.setup(input, size) {
                Ok(sim) => {
                    setups.push(secs(t));
                    drop(sim);
                }
                Err(e) => {
                    ledger.fail(format!("setup: {e}"));
                    break;
                }
            }
            let t = Instant::now();
            let result = w.run(input, size);
            batch += secs(t);
            ledger.check("run", input, result);
            // The peak after the first simulation: later ones only add
            // allocator churn, not memory a simulation needs.
            rss.get_or_insert_with(peak_rss_mb);
        }
        if std::mem::replace(&mut warm, true) {
            batches.push(batch);
        }
    }
    batches.sort_by(f64::total_cmp);
    let fast = &batches[..(batches.len() as f64 * FAST_SHARE).ceil() as usize];
    let time = fast.iter().sum::<f64>() / fast.len().max(1) as f64;
    let work = ledger.references.iter().fold([0; 3], |[c, i, r], (_, o)| {
        [c + o.cycles, i + o.work, r + o.requests()]
    });
    let [cycles, instrs, requests] = work.map(|n| {
        let rate = if time > 0.0 { n as f64 / time } else { 0.0 };
        let samples: Vec<f64> = batches.iter().map(|s| n as f64 / s).collect();
        (rate, samples)
    });
    let rss = rss.unwrap_or(0.0);
    let values = [
        (cycles.0, &cycles.1[..]),
        (instrs.0, &instrs.1[..]),
        (requests.0, &requests.1[..]),
        (median(&setups), &setups[..]),
        (rss, std::slice::from_ref(&rss)),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples: samples.len(),
            range: range(samples),
        })
        .collect();
    ledger.report(metrics)
}

fn traced(w: Workload, seed: u64, size: u64, seconds: f64) -> Report {
    let mut ledger = Ledger::default();
    let mut untraced_s = Vec::new();
    let mut reps: Vec<LayerTimes> = Vec::new();
    let input = input_seeds(seed)[0];
    let start = Instant::now();
    while ledger.failed == 0 && (reps.len() < MIN_REPS || secs(start) < seconds) {
        let t = Instant::now();
        let result = w.run(input, size);
        let s = secs(t);
        if ledger.check("untraced run", input, result).is_some() {
            untraced_s.push(s);
        }
        match w.run_traced(input, size) {
            Ok((o, times)) => {
                if ledger.check("traced run", input, Ok(o)).is_some() {
                    reps.push(times);
                }
            }
            Err(e) => {
                ledger.check("traced run", input, Err(e));
            }
        }
    }
    // Report the traced run of median length whole, so its self times
    // and "other" add up to its total exactly.
    reps.sort_by_key(|t| t.total_ns);
    let metrics = match (
        reps.get(reps.len().saturating_sub(1) / 2),
        ledger.references.first().map(|(_, o)| o),
    ) {
        (Some(t), Some(o)) => layer_metrics(t, o, median(&untraced_s))
            .into_iter()
            .map(|(name, value)| Metric {
                name,
                unit: layer_unit(name),
                value,
                samples: reps.len(),
                range: (value, value),
            })
            .collect(),
        _ => Vec::new(),
    };
    ledger.report(metrics)
}

/// Every [`PER_LAYER`] metric of one traced run. Host times come from
/// the run's timers; the `frac`/`count` metrics of the simulated machine
/// come from the (identical) untraced outcome `o`.
fn layer_metrics(t: &LayerTimes, o: &Outcome, untraced_s: f64) -> Vec<(&'static str, f64)> {
    let s = |ns: u64| ns as f64 / 1e9;
    let share = |ns: u64| ratio(ns, t.total_ns);
    let p = &t.probe;
    let system_ns = t.boundary_ns + t.horizon_ns + t.skip_ns;
    let trace_ns = t.source_ns + t.replay_ns;
    let layered = t.cpu_ns
        + p.source_ns
        + p.predict_ns
        + t.fill_ns
        + system_ns
        + t.dram_ns
        + p.select_ns
        + t.agents_ns
        + trace_ns;
    let other_ns = t.total_ns.saturating_sub(layered);
    vec![
        ("cpu.step_self_s", s(t.cpu_ns)),
        ("cpu.steps", t.cpu_steps as f64),
        ("cpu.share", share(t.cpu_ns)),
        ("cpu.rob_blocked_frac", o.rob_blocked_frac),
        ("cpu.lq_full_frac", o.lq_full_frac),
        ("workloads.next_instr_s", s(p.source_ns)),
        ("workloads.instrs", p.source_calls as f64),
        ("workloads.share", share(p.source_ns)),
        ("predict.s", s(p.predict_ns)),
        ("predict.calls", p.predict_calls as f64),
        ("predict.share", share(p.predict_ns)),
        ("cache.fill_s", s(t.fill_ns)),
        ("cache.fills", t.fills as f64),
        ("cache.share", share(t.fill_ns)),
        ("system.boundary_s", s(t.boundary_ns)),
        ("system.enqueues", t.enqueues as f64),
        (
            "system.enqueue_reject_frac",
            ratio(t.enqueue_rejects, t.enqueues + t.enqueue_rejects),
        ),
        ("system.horizon_s", s(t.horizon_ns)),
        ("system.horizon_calls", t.horizon_calls as f64),
        (
            "system.horizon_hit_frac",
            ratio(t.horizon_hits, t.horizon_calls),
        ),
        ("system.skip_s", s(t.skip_ns)),
        (
            "system.skipped_cycle_frac",
            ratio(t.skipped_cycles, t.cycles),
        ),
        ("system.share", share(system_ns)),
        ("dram.tick_self_s", s(t.dram_ns)),
        ("dram.ticks", t.dram_ticks as f64),
        ("dram.bus_util", o.bus_util),
        ("dram.row_hit_frac", o.row_hit_frac),
        ("dram.queue_occupancy", o.queue_occupancy),
        ("dram.rejected_full", o.rejected_full as f64),
        ("dram.share", share(t.dram_ns)),
        ("sched.select_s", s(p.select_ns)),
        ("sched.selects", p.select_calls as f64),
        (
            "sched.candidates_per_select",
            ratio(p.select_candidates, p.select_calls),
        ),
        ("sched.share", share(p.select_ns)),
        ("agents.generate_s", s(t.agents_ns)),
        ("agents.requests", t.agent_requests as f64),
        ("agents.overflow_retries", t.agent_overflows as f64),
        ("agents.share", share(t.agents_ns)),
        ("trace.source_s", s(t.source_ns)),
        ("trace.records", t.records as f64),
        ("trace.replay_self_s", s(t.replay_ns)),
        ("trace.throttled_cycles", o.throttled_cycles as f64),
        (
            "trace.throttled_cycle_frac",
            ratio(o.throttled_cycles, o.cycles),
        ),
        ("trace.share", share(trace_ns)),
        ("traced.total_s", s(t.total_ns)),
        ("traced.other_s", s(other_ns)),
        ("traced.other_share", share(other_ns)),
        ("traced.untraced_s", untraced_s),
        ("traced.overhead_frac", s(t.total_ns) / untraced_s - 1.0),
    ]
}
