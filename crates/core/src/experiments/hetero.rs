//! The heterogeneous-mix study: sweep the scheduler zoo over agent
//! mixes that put latency-critical OoO cores on the same channels as
//! bandwidth-hungry streamers, PIM-style bulk engines, and
//! prefetch-dominated front-ends, and report — per scheduler, per mix —
//! the OoO weighted speedup, the per-class maximum slowdown, and how
//! many participants blew their QoS slowdown budget.
//!
//! Every mix runs through the multiprogrammed sweep Figure 12 and the
//! fairness frontier share (see [`crate::experiments::multiprog`]): the
//! Figure 12 platform with one core per `ooo` agent, and one slowdown
//! definition. An OoO core's slowdown is `IPC_alone / IPC_shared`; an
//! accelerator-class agent's is `finish_shared / finish_alone`, the
//! cycle at which it completed its fixed work-unit target against a run
//! where that single agent owns the platform. So `hetero bundle:AELV`
//! and `fairness AELV` score the same cells alike.
//!
//! Results export through [`SeriesExport`](critmem_common::SeriesExport)
//! exactly like the fairness frontier: one run per scheduler, one
//! sample row per mix (the `cycle` column holds the mix index), so the
//! serialized bytes are identical for any `--jobs`, `--no-skip-ahead`,
//! or `--audit` setting.

use crate::config::AgentMix;
use crate::experiments::fairness::frontier_schedulers;
use crate::experiments::harness::Runner;
use crate::experiments::multiprog::{Column, MixStudy};

/// The default mixes `repro hetero` sweeps when none are named: one
/// stream-saturated, one bulk-batched, and one drawing on all four
/// classes at once.
pub fn default_mixes() -> Vec<&'static str> {
    vec![
        "ooo:mcf*2+stream*2",
        "ooo:mcf*2+bulk*2",
        "ooo:mcf+ooo:art1+stream+bulk+prefetch",
    ]
}

/// The study's metrics: mix-averaged weighted speedup and per-class max
/// slowdowns, plus the QoS-budget violations totalled over all mixes.
static COLUMNS: [Column; 4] = [
    Column::new("weighted speedup", "weighted_speedup", "ratio", |p| {
        p.weighted_speedup
    }),
    Column::new("ooo max slowdown", "ooo_max_slowdown", "ratio", |p| {
        p.max_slowdown
    }),
    Column::new("agent max slowdown", "agent_max_slowdown", "ratio", |p| {
        p.agent_max_slowdown
    }),
    Column::new("QoS violations", "qos_violations", "count", |p| {
        p.qos_violations as f64
    }),
];

/// Runs the study over `mixes` (canonical grammar strings paired with
/// their parsed form): all `mixes × schedulers` cells fan out across
/// `--jobs` workers.
pub fn hetero_study(runner: &mut Runner, mixes: &[(String, AgentMix)]) -> MixStudy {
    let title = "Heterogeneous-mix sweep (mix averages)";
    let zoo = frontier_schedulers();
    MixStudy::run(runner, mixes, &zoo, title, "hetero", &COLUMNS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::Scale;
    use crate::experiments::MixPoint;
    use critmem_common::codec::{ByteReader, ByteWriter};
    use critmem_common::SeriesSet;

    fn small_runner() -> Runner {
        Runner::new(Scale {
            instructions: 1_000,
            apps: vec![],
            sweep_apps: vec![],
            bundles: vec![],
        })
    }

    fn parse_mixes(specs: &[&str]) -> Vec<(String, AgentMix)> {
        specs
            .iter()
            .map(|s| {
                let mix: AgentMix = s.parse().expect("grammar");
                (mix.to_string(), mix)
            })
            .collect()
    }

    #[test]
    fn study_covers_the_zoo_on_one_mix() {
        let mut r = small_runner();
        let mixes = parse_mixes(&["ooo:mcf+stream+bulk"]);
        let study = hetero_study(&mut r, &mixes);
        assert!(!r.has_failures(), "{:?}", r.failures());
        assert_eq!(study.mixes, vec!["ooo:mcf+stream+bulk".to_string()]);
        assert!(study.rows.len() >= 6, "zoo must span >= 6 schedulers");
        for (label, points) in &study.rows {
            assert_eq!(points.len(), 1, "{label}");
            let p = points[0];
            let (ws, os, ags) = (p.weighted_speedup, p.max_slowdown, p.agent_max_slowdown);
            assert!(ws > 0.0 && ws < 4.0, "{label}: ws {ws}");
            // Slowdowns can be enormous under FR-FCFS — an unthrottled
            // streamer starving a bulk engine's row misses is the
            // phenomenon this study exists to measure — so only sanity
            // (positive, finite) is asserted here.
            assert!(os >= 1.0 && os.is_finite(), "{label}: ooo slowdown {os}");
            assert!(
                ags > 0.0 && ags.is_finite(),
                "{label}: agent slowdown {ags}"
            );
        }
        let table = study.to_table().to_string();
        assert!(table.contains("Heterogeneous-mix sweep"));
    }

    #[test]
    fn export_round_trips_and_is_deterministic() {
        let mixes = parse_mixes(&["ooo:mcf+stream"]);
        let mut a = small_runner();
        let ea = hetero_study(&mut a, &mixes).to_export();
        let mut b = small_runner();
        b.jobs = 2;
        let eb = hetero_study(&mut b, &mixes).to_export();
        assert_eq!(
            ea.to_jsonl(),
            eb.to_jsonl(),
            "--jobs must not perturb the export"
        );
        for run in &ea.runs {
            let mut w = ByteWriter::new();
            run.series.encode(&mut w);
            let bytes = w.into_bytes();
            let decoded = SeriesSet::decode(&mut ByteReader::new(&bytes)).expect("lossless");
            assert_eq!(decoded, run.series);
            assert!(run.series.value(0, "hetero.weighted_speedup").is_some());
            assert!(run.series.value(0, "hetero.qos_violations").is_some());
        }
    }

    /// A bundle is one mix on one platform: the hetero study of
    /// `bundle:AELV` recalls the frontier's AELV cells instead of
    /// simulating them again, and scores them alike.
    #[test]
    fn bundle_mix_matches_the_fairness_frontier() {
        let mut r = Runner::new(Scale {
            instructions: 1_200,
            apps: vec![],
            sweep_apps: vec![],
            bundles: vec!["AELV"],
        });
        let frontier = crate::experiments::fairness_frontier(&mut r);
        let runs = r.runs_executed();
        let study = hetero_study(&mut r, &parse_mixes(&["bundle:AELV"]));
        assert_eq!(r.runs_executed(), runs, "the hetero study re-ran a cell");
        assert!(!r.has_failures(), "{:?}", r.failures());
        for (label, f) in &frontier.rows {
            let h = study.row(label).expect("same zoo")[0];
            let bits = |p: &MixPoint| [p.weighted_speedup.to_bits(), p.max_slowdown.to_bits()];
            assert_eq!(bits(&h), bits(&f[0]), "{label}");
        }
    }

    #[test]
    fn default_mixes_parse_and_pin_their_cores() {
        for s in default_mixes() {
            let mix: AgentMix = s.parse().expect("default mixes must parse");
            assert!(mix.ooo_count().unwrap() >= 1);
            assert!(mix.agent_count() >= 1);
            assert_eq!(mix.to_string(), s, "defaults are canonical spellings");
        }
    }
}
