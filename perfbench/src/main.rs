//! Command-line entry point: runs one workload for a fixed time and
//! prints a provenance line, a human-readable table, and, as the last
//! line, the JSON result. Exits 0 only when every simulation passed its
//! correctness checks.
//!
//! Usually started through `python3 perfbench/run.py`, which builds
//! this binary first and passes the toolchain and commit it built with
//! in `PERFBENCH_RUSTC` and `PERFBENCH_COMMIT`.

use critmem_perfbench::bench;
use critmem_perfbench::workloads::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <par-radix|hetero-stream|replay-synth> \
                     --seed <n> --seconds <s> [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// JSON string literal for `s`.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(a: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"input_seeds\": {:?}, \"trace\": {}, \"seconds\": {}, \
         \"size\": {}, \"size_unit\": {}, \"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \
         \"commit\": {}}}",
        quote(a.workload.name()),
        a.seed,
        bench::input_seeds(a.seed),
        u8::from(a.trace),
        a.seconds,
        a.workload.size(),
        quote(a.workload.size_unit()),
        quote(&cpu_model()),
        quote(&env("PERFBENCH_RUSTC")),
        quote(&env("PERFBENCH_COMMIT")),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let report = bench::run(w, args.seed, w.size(), args.seconds, args.trace);
    println!("provenance {}", provenance(&args));
    if let Some(o) = &report.reference {
        println!(
            "simulated digest={:08x} cycles={} work={} requests={} channels={:?}",
            o.digest,
            o.cycles,
            o.work,
            o.requests(),
            o.channels
        );
    }
    for m in &report.metrics {
        println!(
            "{:<30} {:>22} {:<6} samples={} min={} max={}",
            m.name, m.value, m.unit, m.samples, m.range.0, m.range.1
        );
    }
    println!(
        "operations attempted={} failed={}",
        report.attempted, report.failed
    );
    for p in &report.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
