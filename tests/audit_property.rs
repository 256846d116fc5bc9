//! Property: auditing is an observer, never a participant. Across
//! every scheduler, several seeds, and both engine modes (skip-ahead
//! on and off), an audited run must (a) raise no violation and (b)
//! export statistics byte-identical to the unaudited run's.

use critmem::experiments::audit_schedulers;
use critmem::{AgentMix, Session, SystemConfig};
use critmem_common::codec::ByteWriter;
use critmem_sched::SchedulerKind;

fn cfg(sched: SchedulerKind, seed_xor: u64, skip_ahead: bool) -> SystemConfig {
    let mut c = SystemConfig::multiprogrammed_baseline(250);
    c.max_cycles = 50_000_000;
    c.seed ^= seed_xor;
    c.scheduler = sched;
    c.skip_ahead = skip_ahead;
    c
}

fn stats_bytes(c: SystemConfig, audit: bool, what: &str) -> Vec<u8> {
    let out = Session::new(c, &AgentMix::Bundle("AELV"))
        .audit(audit)
        .run()
        .unwrap_or_else(|e| panic!("{what}: clean run raised {e}"));
    let mut w = ByteWriter::new();
    out.stats.encode(&mut w);
    w.into_bytes()
}

#[test]
fn audit_is_invisible_across_schedulers_seeds_and_engines() {
    for (name, sched) in audit_schedulers() {
        for seed_xor in 0..3u64 {
            let baseline = stats_bytes(
                cfg(sched, seed_xor, true),
                false,
                &format!("{name} seed^{seed_xor} unaudited"),
            );
            for (mode, skip_ahead) in [("serial", true), ("no-skip", false)] {
                let audited = stats_bytes(
                    cfg(sched, seed_xor, skip_ahead),
                    true,
                    &format!("{name} seed^{seed_xor} audited {mode}"),
                );
                assert_eq!(
                    baseline, audited,
                    "{name} seed^{seed_xor} {mode}: audited stats diverged from unaudited"
                );
            }
        }
    }
}
