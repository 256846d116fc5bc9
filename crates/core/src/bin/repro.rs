//! `repro` — regenerates every table and figure of the paper's
//! evaluation section, and manages request traces for scheduler-only
//! studies.
//!
//! ```text
//! repro [--scale quick|standard|full] [--warm-cycles N] [experiments...]
//! repro trace capture <app> <file> [--scale ...]
//! repro trace replay <file> [--sched <name>] [--max-outstanding N]
//! repro trace stream <file> [--sched <name>] [--max-outstanding N]
//!                    [--epoch N] [--window W]
//! repro trace profile <in.cmtr> <out.cmpf>
//! repro trace synth <profile.cmpf> --requests N [--seed S] [--sched <name>]
//!                   [--max-outstanding N] [--epoch N] [--window W]
//! repro trace sweep [app] [--scale ...]
//! repro stats [apps...] [--sched <name>] [--pred <metric>]
//!             [--epoch N] [--format jsonl|csv] [--out <file>]
//! repro fairness [bundles...] [--format jsonl|csv] [--out <file>]
//! repro hetero [mixes...] [--format jsonl|csv] [--out <file>]
//! repro checkpoint save <app> <file> [--cycles N] [--scale ...]
//! repro checkpoint restore <file> <app> [--sched <name>] [--pred <metric>]
//! repro checkpoint sweep [app] [--cycles N] [--scale ...] [--jobs N]
//! repro audit                       certification: every scheduler audited
//! repro audit campaign              fault-injection detection-coverage table
//! repro audit inject <spec>         inject one fault, exit with its class code
//!
//! experiments: config fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!              fig11 fig12 table5 table7 naive reset ablate tracesweep all
//!              (default: all, which is every experiment but ablate)
//! ```

use critmem::config::PredictorKind;
use critmem::experiments::{
    self, ablations, config_dump, fairness_frontier, fig1, fig10, fig11, fig12, fig3, fig4, fig5,
    fig6, fig7, fig8, fig9, hetero_study, naive, reset_study, stats_export, stream_replay,
    synth_replay, table5, table7, trace_sweep, Runner, Scale,
};
use critmem::journal::SweepJournal;
use critmem::{AgentMix, Checkpoint, Session};
use critmem_common::{SeriesExport, SimError};
use critmem_predict::CbpMetric;
use critmem_sched::SchedulerKind;
use critmem_trace::{ReplayConfig, Trace, TraceSource, TraceStream, TrafficProfile};

/// Every name the figure/table runner accepts.
const EXPERIMENTS: [&str; 19] = [
    "config",
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table5",
    "table7",
    "naive",
    "reset",
    "ablate",
    "tracesweep",
    "all",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale quick|standard|full] [--jobs N] [--journal <file> [--resume]]\n\
         \x20            [--warm-cycles N] [--no-skip-ahead] [experiments...]\n\
         \x20      repro trace capture <app> <file> [--scale ...]\n\
         \x20      repro trace replay <file> [--sched <name>] [--max-outstanding N]\n\
         \x20      repro trace stream <file> [--sched <name>] [--max-outstanding N] [--epoch N] [--window W]\n\
         \x20      repro trace profile <in.cmtr> <out.cmpf>\n\
         \x20      repro trace synth <profile.cmpf> --requests N [--seed S] [--sched <name>]\n\
         \x20                        [--max-outstanding N] [--epoch N] [--window W]\n\
         \x20      repro trace sweep [app] [--scale ...] [--jobs N]\n\
         \x20      repro stats [apps...] [--sched <name>] [--pred <metric>|none] [--epoch N]\n\
         \x20                  [--format jsonl|csv] [--out <file>] [--scale ...] [--jobs N]\n\
         \x20      repro fairness [bundles...] [--format jsonl|csv] [--out <file>]\n\
         \x20                     [--scale ...] [--jobs N]\n\
         \x20      repro hetero [mixes...] [--format jsonl|csv] [--out <file>]\n\
         \x20                   [--scale ...] [--jobs N]\n\
         \x20                   (a mix is agent-grammar, e.g. ooo:mcf*2+stream:2@1.5;\n\
         \x20                    default: the three standard hetero mixes)\n\
         \x20      repro checkpoint save <app> <file> [--cycles N] [--scale ...]\n\
         \x20      repro checkpoint restore <file> <app> [--sched <name>] [--pred <metric>|none]\n\
         \x20      repro checkpoint sweep [app] [--cycles N] [--scale ...] [--jobs N]\n\
         \x20      repro audit                       (certify auditors silent + byte-identical)\n\
         \x20      repro audit campaign              (inject every fault, require detection)\n\
         \x20      repro audit inject <spec>         (one fault, e.g. corrupt-sched@ch0,c5000)\n\
         experiments: {}\n\
         --jobs N: simulation worker threads (default: available cores; 1 = serial)\n\
         --no-skip-ahead: disable event-driven clock skip-ahead and per-core sleep\n\
         \x20                (steps every core every cycle; same results, slower)\n\
         --audit: attach the independent protocol/conservation auditors to every run\n\
         \x20        (results stay byte-identical; violations exit 4)\n\
         --journal <file>: record completed figure-sweep cells for crash recovery\n\
         --resume: reload a journal's completed cells, re-running only the missing ones\n\
         --warm-cycles N: share one baseline warmup checkpoint (snapshotted at cycle N)\n\
         \x20                across every non-sampling figure-sweep cell\n\
         exit codes: 0 ok, 2 configuration error, 3 watchdog (livelocked run),\n\
         \x20           4 audit violation, 1 other failure; a figure sweep, trace capture,\n\
         \x20           trace sweep, stats, fairness, hetero or checkpoint sweep with a\n\
         \x20           failed cell prints === Failed cells === and exits with the highest\n\
         \x20           code among them (trace capture then writes no file, and stats,\n\
         \x20           fairness and hetero write no --out file)",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// Prints a typed error and exits with its class's code (2 config,
/// 3 watchdog, 1 otherwise).
fn fail(err: SimError) -> ! {
    eprintln!("error: {err}");
    std::process::exit(err.exit_code());
}

/// [`fail`] for a replay of `file`. Everything a file replay reports as
/// a trace error (a torn or corrupt chunk found mid-replay, a bad
/// fingerprint, a record from a core the trace lacks) comes from the
/// file, so it is worded as reading the file at open is.
fn fail_replay(file: &str, err: SimError) -> ! {
    if let SimError::Trace(msg) = &err {
        eprintln!("cannot read {file}: {msg}");
        std::process::exit(err.exit_code());
    }
    fail(err)
}

/// The one exit path of every subcommand that runs cells on the
/// [`Runner`]. With every cell clean it exits 0; otherwise it prints
/// the `=== Failed cells ===` report on stdout and exits with the
/// highest exit code among the failed cells. `resumable` adds the
/// `--journal … --resume` hint, which only figure sweeps can act on.
fn finish(r: &Runner, resumable: bool) -> ! {
    eprintln!("{} distinct simulations executed", r.runs_executed());
    let failures = r.failures();
    if failures.is_empty() {
        std::process::exit(0);
    }
    println!("\n=== Failed cells ===");
    for f in failures {
        println!("{}: {}", f.label, f.error);
    }
    let hint = if resumable {
        " Re-run with --journal <file> --resume to retry only the missing cells."
    } else {
        ""
    };
    println!(
        "{} cell(s) failed; results that depend on them hold placeholder values \
         or are left out.{hint}",
        failures.len()
    );
    let code = failures.iter().map(|f| f.error.exit_code()).max();
    std::process::exit(code.unwrap_or(1));
}

/// Leaks an app name into the `&'static str` the workload tables use,
/// after validating it against the known app lists.
fn static_app(name: &str) -> &'static str {
    critmem_workloads::PARALLEL_APPS
        .iter()
        .find(|a| **a == name)
        .copied()
        .unwrap_or_else(|| {
            eprintln!(
                "unknown parallel app {name:?} (expected one of {:?})",
                critmem_workloads::PARALLEL_APPS
            );
            std::process::exit(2);
        })
}

fn trace_main(args: Vec<String>, mut r: Runner) -> ! {
    match args.first().map(String::as_str) {
        Some("capture") => {
            let [_, app, file] = args.as_slice() else {
                usage()
            };
            let app = static_app(app);
            let trace = r.capture(app);
            // A failed capture holds an empty placeholder: write nothing.
            if !r.has_failures() {
                trace.save(std::path::Path::new(file)).unwrap_or_else(|e| {
                    eprintln!("cannot write {file}: {e}");
                    std::process::exit(1);
                });
                println!(
                    "captured {} requests from {app} ({} instr/core) -> {file}",
                    trace.records.len(),
                    r.scale.instructions
                );
            }
            finish(&r, false);
        }
        Some("replay") => {
            let (file, sched, replay_cfg, requests, seed) =
                parse_replay_flags(args.into_iter().skip(1), r.audit);
            // Sampling flags belong to `trace stream`; the counts to `synth`.
            let sampled = replay_cfg.sample_epoch.is_some() || replay_cfg.sample_window.is_some();
            let (Some(file), None, None, false) = (file, requests, seed, sampled) else {
                usage()
            };
            let trace = Trace::load(std::path::Path::new(&file)).unwrap_or_else(|e| {
                eprintln!("cannot read {file}: {e}");
                std::process::exit(1);
            });
            let stats = critmem::replay(TraceSource::from(trace), sched, replay_cfg)
                .unwrap_or_else(|e| fail_replay(&file, e));
            println!(
                "replayed {} requests under {} in {} CPU cycles",
                stats.completed,
                sched.name(),
                stats.cpu_cycles
            );
            print_replay_summary(&stats);
            std::process::exit(0);
        }
        Some("stream") => {
            let (file, sched, replay_cfg, _, _) =
                parse_replay_flags(args.into_iter().skip(1), r.audit);
            let Some(file) = file else { usage() };
            let stream = TraceStream::open(std::path::Path::new(&file)).unwrap_or_else(|e| {
                eprintln!("cannot read {file}: {e}");
                std::process::exit(1);
            });
            let out =
                stream_replay(stream, sched, replay_cfg).unwrap_or_else(|e| fail_replay(&file, e));
            println!(
                "streamed {} requests ({} chunks) under {} in {} CPU cycles",
                out.records_read,
                out.chunks_read,
                sched.name(),
                out.stats.cpu_cycles
            );
            println!(
                "  {:.0} requests/sec wall, peak resident chunk memory {} B (cap {} B)",
                out.records_read as f64 / out.seconds.max(1e-9),
                out.peak_resident_bytes,
                critmem_trace::CHUNK_BYTES
            );
            print_replay_summary(&out.stats);
            std::process::exit(0);
        }
        Some("profile") => {
            let [_, input, output] = args.as_slice() else {
                usage()
            };
            let trace = Trace::load(std::path::Path::new(input)).unwrap_or_else(|e| {
                eprintln!("cannot read {input}: {e}");
                std::process::exit(1);
            });
            let profile = TrafficProfile::fit(&trace)
                .unwrap_or_else(|e| fail(SimError::Trace(e.to_string())));
            profile
                .save(std::path::Path::new(output))
                .unwrap_or_else(|e| {
                    eprintln!("cannot write {output}: {e}");
                    std::process::exit(1);
                });
            let active = profile.cores.iter().filter(|c| c.weight > 0.0).count();
            println!(
                "fitted {:?} profile from {} records: mean gap {:.1} cy, {active}/{} active cores -> {output}",
                profile.source,
                profile.records_fitted,
                profile.mean_gap,
                profile.cores.len()
            );
            std::process::exit(0);
        }
        Some("synth") => {
            let (file, sched, replay_cfg, requests, seed) =
                parse_replay_flags(args.into_iter().skip(1), r.audit);
            let (Some(file), Some(requests)) = (file, requests) else {
                usage()
            };
            let seed = seed.unwrap_or(42);
            let profile = TrafficProfile::load(std::path::Path::new(&file))
                .unwrap_or_else(|e| fail(SimError::Trace(e.to_string())));
            let out = synth_replay(&profile, seed, requests, sched, replay_cfg)
                .unwrap_or_else(|e| fail(e));
            println!(
                "synthesized {} requests (profile {:?}, seed {seed}) under {} in {} CPU cycles",
                out.generated,
                profile.source,
                sched.name(),
                out.stats.cpu_cycles
            );
            println!(
                "  {:.0} requests/sec wall ({:.1} s)",
                out.generated as f64 / out.seconds.max(1e-9),
                out.seconds
            );
            print_replay_summary(&out.stats);
            std::process::exit(0);
        }
        Some("sweep") => {
            let app = static_app(args.get(1).map(String::as_str).unwrap_or("swim"));
            let sweep = trace_sweep(&mut r, app);
            println!("{}", sweep.to_table());
            println!("{}", sweep.timing_summary());
            finish(&r, false);
        }
        _ => usage(),
    }
}

/// Parses the flag set shared by `trace replay`, `trace stream` and
/// `trace synth`: returns (file, scheduler, replay config, --requests,
/// --seed). The replay config carries the global `--audit` knob.
fn parse_replay_flags(
    it: impl Iterator<Item = String>,
    audit: bool,
) -> (
    Option<String>,
    SchedulerKind,
    ReplayConfig,
    Option<u64>,
    Option<u64>,
) {
    let mut file = None;
    let mut sched = SchedulerKind::FrFcfs;
    let mut cfg = ReplayConfig::default().with_audit(audit);
    let mut requests = None;
    let mut seed = None;
    let mut it = it.peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sched" => match it.next() {
                Some(s) => sched = s.parse().unwrap_or_else(|e| fail(e)),
                None => usage(),
            },
            "--max-outstanding" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg = cfg.with_max_outstanding(n),
                None => usage(),
            },
            "--epoch" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg = cfg.with_sampling(n),
                None => usage(),
            },
            "--window" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg = cfg.with_sample_window(n),
                None => usage(),
            },
            "--requests" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => requests = Some(n),
                None => usage(),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = Some(n),
                None => usage(),
            },
            f if file.is_none() => file = Some(f.to_string()),
            _ => usage(),
        }
    }
    (file, sched, cfg, requests, seed)
}

/// The latency/row-locality lines shared by every replay-flavored
/// subcommand.
fn print_replay_summary(stats: &critmem_trace::ReplayStats) {
    println!(
        "  mean read latency {:.0} cy, critical {:.0} cy ({} critical reads)",
        stats.mean_read_latency(),
        stats.mean_critical_read_latency(),
        stats.critical_reads
    );
    let hits = stats.row_hits();
    let total: u64 = stats
        .channels
        .iter()
        .map(|c| c.row_hits + c.row_misses + c.row_conflicts)
        .sum();
    println!(
        "  row hits {hits}/{total} ({:.1}%), throttle stalls {}, queue-full retries {}",
        100.0 * hits as f64 / total.max(1) as f64,
        stats.throttled_cycles,
        stats.queue_full_retries
    );
    if let Some(series) = &stats.series {
        println!(
            "  sampled series: {} rows x {} metrics (windowed online stats)",
            series.len(),
            series.schema().len()
        );
    }
}

/// The warm-start table: one shared warmup, every scheduler fanned out
/// from it (driven twice by [`Runner::run_parallel`]: plan + execute).
fn checkpoint_sweep_table(r: &mut Runner, app: &'static str) -> experiments::TextTable {
    let base = r.baseline(app);
    let mut t = experiments::TextTable::new(
        format!("Warm-started scheduler sweep — {app}"),
        &["cycles", "speedup vs FR-FCFS"],
    );
    t.row(
        SchedulerKind::FrFcfs.name(),
        vec![
            format!("{}", base.cycles),
            experiments::TextTable::ratio(1.0),
        ],
    );
    for sched in [SchedulerKind::CritCasRas, SchedulerKind::CasRasCrit] {
        let stats = r.parallel(app, sched, PredictorKind::cbp64(CbpMetric::MaxStallTime));
        t.row(
            sched.name(),
            vec![
                format!("{}", stats.cycles),
                experiments::TextTable::ratio(critmem::speedup(&base, &stats)),
            ],
        );
    }
    t
}

/// `repro checkpoint save|restore|sweep`. Save and restore build the
/// figure sweeps' parallel platform, so checkpoints written here
/// restore onto sweep cells.
fn checkpoint_main(args: Vec<String>, mut r: Runner) -> ! {
    match args.first().map(String::as_str) {
        Some("save") => {
            let mut app = None;
            let mut file = None;
            let mut cycles = 20_000u64;
            let mut it = args.into_iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--cycles" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(n) if n > 0 => cycles = n,
                        _ => usage(),
                    },
                    v if app.is_none() => app = Some(static_app(v)),
                    v if file.is_none() => file = Some(v.to_string()),
                    _ => usage(),
                }
            }
            let (Some(app), Some(file)) = (app, file) else {
                usage()
            };
            let ckpt = Session::new(r.parallel_cfg(), &AgentMix::Parallel(app))
                .checkpoint_at(cycles)
                .run_to_checkpoint()
                .unwrap_or_else(|e| fail(e));
            ckpt.save(std::path::Path::new(&file))
                .unwrap_or_else(|e| fail(e));
            println!(
                "checkpointed {app} at cycle {} ({} state bytes, {} instr/core target) -> {file}",
                ckpt.cycle(),
                ckpt.state_len(),
                r.scale.instructions
            );
            std::process::exit(0);
        }
        Some("restore") => {
            let mut file = None;
            let mut app = None;
            let mut sched = SchedulerKind::FrFcfs;
            let mut pred = PredictorKind::None;
            let mut it = args.into_iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--sched" => match it.next() {
                        Some(s) => sched = s.parse().unwrap_or_else(|e| fail(e)),
                        None => usage(),
                    },
                    "--pred" => match it.next() {
                        Some(s) => pred = s.parse().unwrap_or_else(|e| fail(e)),
                        None => usage(),
                    },
                    v if file.is_none() => file = Some(v.to_string()),
                    v if app.is_none() => app = Some(static_app(v)),
                    _ => usage(),
                }
            }
            let (Some(file), Some(app)) = (file, app) else {
                usage()
            };
            let ckpt = Checkpoint::load(std::path::Path::new(&file)).unwrap_or_else(|e| fail(e));
            let cfg = r.parallel_cfg().with_scheduler(sched).with_predictor(pred);
            let out = Session::from_checkpoint(&ckpt, cfg, &AgentMix::Parallel(app))
                .run()
                .unwrap_or_else(|e| fail(e));
            let mean_ipc: f64 = (0..out.stats.cores.len())
                .map(|c| out.stats.ipc(c))
                .sum::<f64>()
                / out.stats.cores.len().max(1) as f64;
            println!(
                "warm-started {app} from cycle {} under {} / {}: finished at cycle {} \
                 (mean IPC {mean_ipc:.3})",
                ckpt.cycle(),
                sched.name(),
                pred.name(),
                out.stats.cycles
            );
            std::process::exit(0);
        }
        Some("sweep") => {
            let mut app = "swim";
            let mut cycles = 20_000u64;
            let mut it = args.into_iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--cycles" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(n) if n > 0 => cycles = n,
                        _ => usage(),
                    },
                    v => app = static_app(v),
                }
            }
            r.warm_cycles = Some(cycles);
            let table = r.run_parallel(|r| checkpoint_sweep_table(r, app));
            println!("{table}");
            finish(&r, false);
        }
        _ => usage(),
    }
}

/// The `--format jsonl|csv` / `--out <file>` pair shared by the export
/// subcommands (`stats`, `fairness`, `hetero`).
#[derive(Default)]
struct ExportFlags {
    csv: bool,
    out: Option<String>,
}

impl ExportFlags {
    /// Records `flag`'s value, or exits with usage if it is missing or
    /// not a known format.
    fn set(&mut self, flag: &str, value: Option<String>) {
        match (flag, value.as_deref()) {
            ("--format", Some("jsonl")) => self.csv = false,
            ("--format", Some("csv")) => self.csv = true,
            ("--out", Some(_)) => self.out = value,
            _ => usage(),
        }
    }

    /// Writes `export` to the `--out` file, reporting `summary` on
    /// stderr, or prints it to stdout when no file was given. A failed
    /// cell leaves placeholders in `export`, so then no file is written.
    fn emit(&self, r: &Runner, export: &SeriesExport, summary: &str) {
        let text = if self.csv {
            export.to_csv()
        } else {
            export.to_jsonl()
        };
        match &self.out {
            Some(file) if r.has_failures() => {
                eprintln!("not writing {file}: a cell failed");
            }
            Some(file) => {
                std::fs::write(file, &text).unwrap_or_else(|e| {
                    eprintln!("cannot write {file}: {e}");
                    std::process::exit(1);
                });
                eprintln!("wrote {summary} -> {file}");
            }
            None => print!("{text}"),
        }
    }
}

fn stats_main(args: Vec<String>, mut r: Runner) -> ! {
    let mut apps: Vec<&'static str> = Vec::new();
    let mut sched = SchedulerKind::CasRasCrit;
    let mut pred = PredictorKind::cbp64(CbpMetric::MaxStallTime);
    let mut epoch = 10_000u64;
    let mut export_flags = ExportFlags::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sched" => match it.next() {
                Some(s) => sched = s.parse().unwrap_or_else(|e| fail(e)),
                None => usage(),
            },
            "--pred" => match it.next() {
                Some(s) => pred = s.parse().unwrap_or_else(|e| fail(e)),
                None => usage(),
            },
            "--epoch" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => epoch = n,
                _ => usage(),
            },
            flag @ ("--format" | "--out") => export_flags.set(flag, it.next()),
            app => apps.push(static_app(app)),
        }
    }
    if apps.is_empty() {
        apps = r.scale.apps.clone();
    }
    let export = stats_export(&mut r, &apps, sched, pred, epoch);
    let samples: usize = export.runs.iter().map(|r| r.series.len()).sum();
    export_flags.emit(
        &r,
        &export,
        &format!(
            "{} runs, {samples} samples, {} metrics/sample",
            export.runs.len(),
            export.runs.first().map_or(0, |r| r.series.schema().len())
        ),
    );
    finish(&r, false);
}

/// Validates a bundle name against the Table 4 bundle list, returning
/// its `&'static str` form.
fn static_bundle(name: &str) -> &'static str {
    critmem_workloads::BUNDLES
        .iter()
        .find(|b| b.name == name)
        .map(|b| b.name)
        .unwrap_or_else(|| {
            let known: Vec<&str> = critmem_workloads::BUNDLES.iter().map(|b| b.name).collect();
            eprintln!("unknown bundle {name:?} (expected one of {known:?})");
            std::process::exit(2);
        })
}

fn fairness_main(args: Vec<String>, mut r: Runner) -> ! {
    let mut bundles: Vec<&'static str> = Vec::new();
    let mut export_flags = ExportFlags::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            flag @ ("--format" | "--out") => export_flags.set(flag, it.next()),
            b => bundles.push(static_bundle(b)),
        }
    }
    if !bundles.is_empty() {
        r.scale.bundles = bundles;
    }
    let frontier = fairness_frontier(&mut r);
    println!("{}", frontier.to_table());
    let export = frontier.to_export();
    export_flags.emit(
        &r,
        &export,
        &format!(
            "{} schedulers x {} bundles",
            export.runs.len(),
            frontier.bundles.len()
        ),
    );
    finish(&r, false);
}

fn hetero_main(args: Vec<String>, mut r: Runner) -> ! {
    let mut mixes: Vec<(String, AgentMix)> = Vec::new();
    let mut export_flags = ExportFlags::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            flag @ ("--format" | "--out") => export_flags.set(flag, it.next()),
            spec => {
                // Grammar parse errors surface as typed
                // SimError::UnknownWorkload (exit code 2).
                let mix: AgentMix = spec.parse().unwrap_or_else(|e| fail(e));
                mixes.push((mix.to_string(), mix));
            }
        }
    }
    if mixes.is_empty() {
        mixes = experiments::default_mixes()
            .into_iter()
            .map(|s| {
                let mix: AgentMix = s.parse().expect("default mixes parse");
                (mix.to_string(), mix)
            })
            .collect();
    }
    let study = hetero_study(&mut r, &mixes);
    println!("{}", study.to_table());
    let export = study.to_export();
    export_flags.emit(
        &r,
        &export,
        &format!(
            "{} schedulers x {} mixes",
            export.runs.len(),
            study.mixes.len()
        ),
    );
    finish(&r, false);
}

/// `repro audit [campaign | inject <spec>]`: certification by
/// default, the fault-injection matrix with `campaign`, one targeted
/// fault with `inject`.
fn audit_main(args: Vec<String>) -> ! {
    match args.first().map(String::as_str) {
        None => {
            let cert = experiments::certify();
            println!("{}", cert.to_table());
            if cert.all_clean() {
                println!("all schedulers certified: zero violations, statistics byte-identical");
                std::process::exit(0);
            }
            eprintln!("certification FAILED: auditing perturbed a run or raised a violation");
            std::process::exit(1);
        }
        Some("campaign") => {
            let report = experiments::campaign();
            println!("{}", report.to_table());
            if report.all_detected() {
                println!(
                    "{}/{} faults detected (zero silent outcomes)",
                    report.rows.len(),
                    report.rows.len()
                );
                std::process::exit(0);
            }
            let silent = report
                .rows
                .iter()
                .filter(|r| r.detection == experiments::Detection::Silent)
                .count();
            eprintln!("campaign FAILED: {silent} fault(s) were silently absorbed");
            std::process::exit(1);
        }
        Some("inject") => {
            let Some(spec) = args.get(1) else { usage() };
            let row = experiments::inject(spec).unwrap_or_else(|e| fail(e));
            match row.detection {
                experiments::Detection::Silent => {
                    eprintln!("fault {} was NOT detected", row.spec);
                    std::process::exit(1);
                }
                d => {
                    println!(
                        "fault {} detected as {}: {}",
                        row.spec,
                        d.label(),
                        row.detail
                    );
                    std::process::exit(row.exit_code);
                }
            }
        }
        _ => usage(),
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    // One runner per invocation: the engine flags are set on it here
    // and every subcommand runs its cells on it.
    let mut r = Runner::new(Scale::standard());
    r.verbose = true;
    r.jobs = critmem::pool::default_jobs();
    let mut journal_path: Option<String> = None;
    let mut resume = false;
    let mut warm_cycles: Option<u64> = None;
    let mut selected: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--warm-cycles" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => warm_cycles = Some(n),
                _ => usage(),
            },
            "--scale" => match args.next().as_deref() {
                Some("quick") => r.scale = Scale::quick(),
                Some("standard") => r.scale = Scale::standard(),
                Some("full") => r.scale = Scale::full(),
                _ => usage(),
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => r.jobs = n,
                _ => usage(),
            },
            "--no-skip-ahead" => r.skip_ahead = false,
            "--audit" => r.audit = true,
            "--journal" => match args.next() {
                Some(f) => journal_path = Some(f),
                None => usage(),
            },
            "--resume" => resume = true,
            "--help" | "-h" => usage(),
            other => selected.push(other.to_string()),
        }
    }
    if resume && journal_path.is_none() {
        eprintln!("--resume requires --journal <file>");
        std::process::exit(2);
    }
    let subcommand: Option<fn(Vec<String>, Runner) -> !> =
        match selected.first().map(String::as_str) {
            Some("audit") => Some(|args, _| audit_main(args)),
            Some("trace") => Some(trace_main),
            Some("stats") => Some(stats_main),
            Some("checkpoint") => Some(checkpoint_main),
            Some("fairness") => Some(fairness_main),
            Some("hetero") => Some(hetero_main),
            _ => None,
        };
    if let Some(main) = subcommand {
        // Only the figure sweep below journals its cells and shares a
        // warmup across them.
        if journal_path.is_some() {
            eprintln!(
                "repro {}: --journal and --resume apply to figure sweeps only",
                selected[0]
            );
            std::process::exit(2);
        }
        if warm_cycles.is_some() {
            eprintln!(
                "repro {}: --warm-cycles applies to figure sweeps only",
                selected[0]
            );
            std::process::exit(2);
        }
        main(selected.split_off(1), r);
    }
    if let Some(bad) = selected.iter().find(|s| !EXPERIMENTS.contains(&s.as_str())) {
        eprintln!("unknown experiment or option: {bad}");
        usage();
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    let all = selected.iter().any(|s| s == "all");
    // `ablate` runs only when named: at standard scale its ocean
    // cache-line cell starves a write past the watchdog's age limit.
    let want = |name: &str| (all && name != "ablate") || selected.iter().any(|s| s == name);

    r.warm_cycles = warm_cycles;
    if let Some(path) = &journal_path {
        let path = std::path::Path::new(path);
        if resume && path.exists() {
            match SweepJournal::resume(path) {
                Ok((journal, entries)) => {
                    eprintln!(
                        "resumed {} completed cell(s) from {}",
                        entries.len(),
                        path.display()
                    );
                    r.preload(entries);
                    r.set_journal(journal);
                }
                Err(e) => fail(e),
            }
        } else {
            match SweepJournal::create(path) {
                Ok(journal) => r.set_journal(journal),
                Err(e) => fail(e),
            }
        }
    }
    println!("critmem repro — ISCA 2013 criticality-aware memory scheduling");
    println!(
        "scale: {} instructions/core, apps: {:?}",
        r.scale.instructions, r.scale.apps
    );

    if want("config") {
        println!("{}", config_dump());
    }
    if want("fig1") {
        println!("{}", r.run_parallel(fig1).to_table());
    }
    if want("fig3") {
        let (a, b) = r.run_parallel(fig3);
        println!("{}", a.to_table());
        println!("{}", b.to_table());
    }
    if want("fig4") {
        println!("{}", r.run_parallel(fig4).to_table());
    }
    if want("fig5") {
        println!("{}", r.run_parallel(fig5).to_table());
    }
    if want("fig6") {
        println!("{}", r.run_parallel(fig6).to_table());
    }
    if want("fig7") {
        println!("{}", r.run_parallel(fig7).to_table());
    }
    if want("fig8") {
        println!("{}", r.run_parallel(fig8).to_table());
    }
    if want("fig9") {
        println!("{}", r.run_parallel(fig9).to_table());
    }
    if want("fig10") {
        println!("{}", r.run_parallel(fig10).to_table());
    }
    if want("fig11") {
        println!("{}", r.run_parallel(fig11).to_table());
    }
    if want("fig12") {
        let f = r.run_parallel(fig12);
        println!("{}", f.to_table());
        println!(
            "max slowdown: TCM {:.3}, MaxStallTime {:.3} ({:+.1}% change)",
            f.max_slowdown_tcm,
            f.max_slowdown_crit,
            (f.max_slowdown_crit / f.max_slowdown_tcm - 1.0) * 100.0
        );
    }
    if want("table5") {
        println!("{}", r.run_parallel(table5).to_table());
    }
    if want("table7") {
        println!("{}", r.run_parallel(table7).to_table());
    }
    if want("naive") {
        println!("{}", r.run_parallel(naive).to_table());
    }
    if want("reset") {
        println!("{}", r.run_parallel(reset_study).to_table());
    }
    if want("ablate") {
        for table in r.run_parallel(ablations).to_tables() {
            println!("{table}");
        }
    }
    if want("tracesweep") {
        // `trace_sweep` drives `run_parallel` itself, one phase at a
        // time, so its wall-clock numbers stay meaningful.
        let sweep = trace_sweep(&mut r, "swim");
        println!("{}", sweep.to_table());
        println!("{}", sweep.timing_summary());
    }
    finish(&r, true);
}
