//! Synthetic stand-ins for the paper's nine memory-intensive parallel
//! applications (Table 2).
//!
//! Real SPLASH-2 / NAS-OMP / SPEC-OMP / NU-MineBench binaries cannot be
//! executed here, so each app is modeled by the traits that drive the
//! paper's results (substitution recorded in DESIGN.md): memory
//! footprint, row-buffer locality, dependence structure (pointer
//! chasing for `art`), static-load population, store fraction, branch
//! predictability, and data sharing. Every stream is deterministic
//! given (app, core, seed).
//!
//! Each loop body mixes three classes of data, as real numerical codes
//! do: *hot* arrays far larger than the L2 (unit-stride, so one load in
//! eight misses to DRAM), *warm* structures around the size of an L2
//! share, and *resident* scalars/tables that live in the L1. The hot
//! fraction is sized so the 8-core suite pressures — but does not
//! hopelessly saturate — the quad-channel DDR3 system, which is the
//! regime the paper's evaluation operates in.

use crate::spec::{AddrPattern, AppSpec, DepSpec, OpClass, Phase, StaticOp};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Names of the nine parallel applications, in the paper's order.
pub const PARALLEL_APPS: [&str; 9] = [
    "art", "cg", "equake", "fft", "mg", "ocean", "radix", "scalparc", "swim",
];

fn load(pat: AddrPattern) -> StaticOp {
    StaticOp::new(OpClass::Load(pat))
}

fn store(pat: AddrPattern) -> StaticOp {
    StaticOp::new(OpClass::Store(pat))
}

fn alu() -> StaticOp {
    StaticOp::new(OpClass::IntAlu)
}

fn fp() -> StaticOp {
    StaticOp::new(OpClass::FpAlu)
}

fn fpmul() -> StaticOp {
    StaticOp::new(OpClass::FpMul)
}

fn branch() -> StaticOp {
    StaticOp::new(OpClass::Branch)
}

/// A *group* of `n` back-to-back independent hot stream loads over
/// distinct DRAM-sized arrays, with the consumers emitted after all
/// the loads. Because the loads are independent and unit-stride, their
/// DRAM misses arrive in aligned bursts: the oldest blocks the ROB
/// head while the rest complete in its shadow — the slack-rich miss
/// population the paper's mechanism exploits (only the burst leader
/// trains the CBP; the shadowed majority stays non-critical).
fn hot_group(ops: &mut Vec<StaticOp>, n: u16, region: u64) {
    for _ in 0..n {
        ops.push(load(AddrPattern::Stream { stride: 8, region }));
    }
    for k in 0..n {
        ops.push(fp().dep(DepSpec::Dist(n - k)));
    }
}

/// A warm load over an L2-share-sized structure, with one consumer.
fn warm_load(ops: &mut Vec<StaticOp>, region: u64) {
    ops.push(load(AddrPattern::Stream { stride: 8, region }));
    ops.push(fp().dep(DepSpec::PrevLoad));
}

/// An L1-resident table/scalar access: heavily consumed (3 direct
/// consumers), exactly the loads the CLPT flags — and exactly the
/// loads the memory scheduler never sees, because they hit in cache
/// (the paper's §5.3.3 "complementary load populations" explanation).
fn resident(ops: &mut Vec<StaticOp>) {
    ops.push(load(AddrPattern::Stream {
        stride: 8,
        region: 16 * KB,
    }));
    ops.push(alu().dep(DepSpec::PrevLoad));
    ops.push(alu().dep(DepSpec::Dist(2)));
    ops.push(alu().dep(DepSpec::Dist(3)));
}

/// Independent compute filler (instruction-level parallelism).
fn compute(ops: &mut Vec<StaticOp>, n: usize) {
    for i in 0..n {
        ops.push(if i % 3 == 0 {
            fpmul()
        } else if i % 3 == 1 {
            fp()
        } else {
            alu()
        });
    }
}

/// Looks up a parallel application spec by name. Returns `None` for
/// unknown names.
pub fn parallel_app(name: &str) -> Option<AppSpec> {
    let spec = match name {
        // SPEC-OMP art: self-organizing map over large dynamically
        // allocated neural nets addressed through two levels of
        // pointers — serialized dependent misses over the largest
        // footprint in the suite (§5.3.1), making it by far the most
        // memory-bound app.
        "art" => {
            // First-level pointer load, then the dependent second-level
            // load (the serial chase).
            let mut ops = vec![
                load(AddrPattern::Random { region: 12 * MB }),
                load(AddrPattern::Chase { region: 12 * MB }).dep(DepSpec::PrevLoad),
                fp().dep(DepSpec::PrevLoad),
                fpmul().dep(DepSpec::Dist(2)),
            ];
            // Weight vectors: cache-resident, unit stride.
            warm_load(&mut ops, 192 * KB);
            resident(&mut ops);
            resident(&mut ops);
            compute(&mut ops, 12);
            ops.push(store(AddrPattern::Stream {
                stride: 8,
                region: 128 * KB,
            }));
            ops.push(branch().dep(DepSpec::Dist(1)));
            AppSpec {
                name: "art",
                phases: vec![Phase {
                    ops,
                    iterations: u64::MAX,
                }],
                branch_accuracy: 0.99,
            }
        }
        // NAS cg: sparse matrix-vector — index-array streams feeding
        // indirect gathers over the vector.
        "cg" => {
            let mut ops = Vec::new();
            hot_group(&mut ops, 2, 6 * MB); // matrix value arrays
            ops.push(load(AddrPattern::Stream {
                stride: 8,
                region: 6 * MB,
            })); // column indices
            ops.push(load(AddrPattern::Random { region: 2 * MB }).dep(DepSpec::PrevLoad)); // x[col]
            ops.push(fp().dep(DepSpec::PrevLoad));
            ops.push(fp().dep(DepSpec::Dist(1)));
            resident(&mut ops);
            resident(&mut ops);
            compute(&mut ops, 10);
            ops.push(store(AddrPattern::Stream {
                stride: 8,
                region: 512 * KB,
            }));
            ops.push(alu());
            ops.push(branch());
            AppSpec {
                name: "cg",
                phases: vec![Phase {
                    ops,
                    iterations: u64::MAX,
                }],
                branch_accuracy: 0.985,
            }
        }
        // SPEC-OMP equake: unstructured-mesh earthquake model — mixed
        // streams and irregular accesses, fp heavy.
        "equake" => {
            let mut ops = Vec::new();
            hot_group(&mut ops, 2, 5 * MB);
            ops.push(load(AddrPattern::Random { region: 2 * MB }));
            ops.push(fpmul().dep(DepSpec::PrevLoad));
            ops.push(load(AddrPattern::SharedStream {
                stride: 8,
                region: MB,
            }));
            ops.push(fp().dep(DepSpec::PrevLoad));
            resident(&mut ops);
            resident(&mut ops);
            compute(&mut ops, 12);
            ops.push(store(AddrPattern::Stream {
                stride: 8,
                region: 2 * MB,
            }));
            ops.push(alu());
            ops.push(branch().dep(DepSpec::Dist(2)));
            AppSpec {
                name: "equake",
                phases: vec![Phase {
                    ops,
                    iterations: u64::MAX,
                }],
                branch_accuracy: 0.98,
            }
        }
        // SPLASH-2 fft: a butterfly phase whose large power-of-two
        // stride opens a new row every access (poor row locality, bank
        // conflicts), alternating with a friendly streaming transpose.
        "fft" => {
            let mut butterfly = Vec::new();
            butterfly.push(load(AddrPattern::Stream {
                stride: 4 * KB,
                region: 4 * MB,
            }));
            butterfly.push(fpmul().dep(DepSpec::PrevLoad));
            hot_group(&mut butterfly, 2, 4 * MB);
            butterfly.push(fp().deps(DepSpec::Dist(2), DepSpec::Dist(4)));
            resident(&mut butterfly);
            resident(&mut butterfly);
            compute(&mut butterfly, 12);
            butterfly.push(store(AddrPattern::Stream {
                stride: 8,
                region: 4 * MB,
            }));
            butterfly.push(branch());
            let mut transpose = Vec::new();
            hot_group(&mut transpose, 3, 4 * MB);
            resident(&mut transpose);
            compute(&mut transpose, 12);
            transpose.push(store(AddrPattern::Stream {
                stride: 8,
                region: 4 * MB,
            }));
            transpose.push(branch());
            AppSpec {
                name: "fft",
                phases: vec![
                    Phase {
                        ops: butterfly,
                        iterations: 400,
                    },
                    Phase {
                        ops: transpose,
                        iterations: 400,
                    },
                ],
                branch_accuracy: 0.99,
            }
        }
        // NAS mg: multigrid — long unit-stride sweeps over several
        // grids at different scales, plus shared coarse-grid data.
        "mg" => {
            let mut ops = Vec::new();
            hot_group(&mut ops, 2, 8 * MB);
            ops.push(load(AddrPattern::SharedStream {
                stride: 8,
                region: 2 * MB,
            }));
            ops.push(fp().dep(DepSpec::PrevLoad));
            resident(&mut ops);
            resident(&mut ops);
            compute(&mut ops, 12);
            ops.push(store(AddrPattern::Stream {
                stride: 8,
                region: 4 * MB,
            }));
            ops.push(branch());
            AppSpec {
                name: "mg",
                phases: vec![Phase {
                    ops,
                    iterations: u64::MAX,
                }],
                branch_accuracy: 0.99,
            }
        }
        // SPLASH-2 ocean: many-array stencil sweeps — by far the
        // largest static-load population in the suite (§5.3.1 notes
        // ~1,700 static critical loads). Most grid accesses are
        // unit-stride and warm; every sixth strides a full grid row.
        "ocean" => {
            let mut phases = Vec::new();
            for phase_idx in 0u64..3 {
                let mut ops = Vec::new();
                for g in 0..20 {
                    if g % 10 == 9 {
                        // Vertical neighbor: a grid row (2 KB) away —
                        // the DRAM-bound accesses of the stencil.
                        ops.push(load(AddrPattern::Stream {
                            stride: 2 * KB,
                            region: 4 * MB,
                        }));
                        ops.push(fp().dep(DepSpec::PrevLoad));
                    } else {
                        // Horizontal neighbors: same or adjacent line;
                        // per-array slices small enough that the whole
                        // stencil working set stays cache-resident.
                        warm_load(&mut ops, 16 * KB);
                        if g % 2 == 0 {
                            ops.push(fp().dep(DepSpec::Dist(1)));
                        }
                    }
                }
                compute(&mut ops, 10);
                ops.push(store(AddrPattern::Stream {
                    stride: 8,
                    region: 256 * KB,
                }));
                ops.push(alu());
                ops.push(branch().dep(DepSpec::Dist(1)));
                phases.push(Phase {
                    ops,
                    iterations: 300 + phase_idx * 100,
                });
            }
            AppSpec {
                name: "ocean",
                phases,
                branch_accuracy: 0.99,
            }
        }
        // SPLASH-2 radix: integer radix sort — sequential key reads,
        // L1-resident histogram updates, scattered permutation writes.
        "radix" => {
            let mut ops = Vec::new();
            hot_group(&mut ops, 2, 8 * MB); // key streams
            ops.push(alu().dep(DepSpec::Dist(1)));
            ops.push(load(AddrPattern::Random { region: 64 * KB })); // histogram
            ops.push(alu().dep(DepSpec::PrevLoad));
            resident(&mut ops);
            compute(&mut ops, 8);
            ops.push(store(AddrPattern::Random { region: 8 * MB })); // scatter
            ops.push(alu());
            ops.push(branch());
            AppSpec {
                name: "radix",
                phases: vec![Phase {
                    ops,
                    iterations: u64::MAX,
                }],
                branch_accuracy: 0.97,
            }
        }
        // NU-MineBench scalparc: decision-tree induction — attribute
        // scans (streams) plus irregular node lookups over the shared
        // tree.
        "scalparc" => {
            let mut ops = Vec::new();
            hot_group(&mut ops, 2, 6 * MB);
            ops.push(load(AddrPattern::Random { region: MB }));
            ops.push(alu().dep(DepSpec::PrevLoad));
            ops.push(branch().dep(DepSpec::Dist(1)));
            ops.push(load(AddrPattern::SharedRandom { region: MB }));
            ops.push(alu().dep(DepSpec::PrevLoad));
            resident(&mut ops);
            compute(&mut ops, 10);
            ops.push(store(AddrPattern::Stream {
                stride: 8,
                region: 512 * KB,
            }));
            AppSpec {
                name: "scalparc",
                phases: vec![Phase {
                    ops,
                    iterations: u64::MAX,
                }],
                branch_accuracy: 0.96,
            }
        }
        // SPEC-OMP swim: shallow-water model — textbook unit-stride fp
        // streaming over several large grids.
        "swim" => {
            let mut ops = Vec::new();
            hot_group(&mut ops, 4, 8 * MB);
            ops.push(fpmul().dep(DepSpec::Dist(2)));
            warm_load(&mut ops, 64 * KB);
            resident(&mut ops);
            compute(&mut ops, 14);
            ops.push(store(AddrPattern::Stream {
                stride: 8,
                region: 8 * MB,
            }));
            ops.push(store(AddrPattern::Stream {
                stride: 8,
                region: 256 * KB,
            }));
            ops.push(branch());
            AppSpec {
                name: "swim",
                phases: vec![Phase {
                    ops,
                    iterations: u64::MAX,
                }],
                branch_accuracy: 0.995,
            }
        }
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppThread;
    use critmem_cpu::{InstrKind, InstrSource};

    #[test]
    fn all_nine_apps_exist_and_validate() {
        for name in PARALLEL_APPS {
            let spec = parallel_app(name).unwrap_or_else(|| panic!("missing {name}"));
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name);
        }
    }

    #[test]
    fn unknown_app_is_none() {
        assert!(parallel_app("doom").is_none());
    }

    #[test]
    fn apps_have_realistic_load_fractions() {
        for name in PARALLEL_APPS {
            let spec = parallel_app(name).unwrap();
            let mut t = AppThread::new(&spec, 0, 7);
            let loads = (0..10_000)
                .filter(|_| matches!(t.next_instr().kind, InstrKind::Load { .. }))
                .count();
            assert!(
                (1_500..5_000).contains(&loads),
                "{name}: {loads} loads per 10k instructions"
            );
        }
    }

    #[test]
    fn art_has_serial_chase_dependences() {
        let spec = parallel_app("art").unwrap();
        let mut t = AppThread::new(&spec, 0, 7);
        let mut found_chase = false;
        let mut prev_was_load = false;
        for _ in 0..100 {
            let i = t.next_instr();
            if matches!(i.kind, InstrKind::Load { .. }) && prev_was_load && i.src1 == Some(1) {
                found_chase = true;
            }
            prev_was_load = matches!(i.kind, InstrKind::Load { .. });
        }
        assert!(found_chase, "art must chain load->load dependences");
    }

    #[test]
    fn ocean_has_large_static_load_population() {
        let spec = parallel_app("ocean").unwrap();
        let others: usize = parallel_app("swim").unwrap().static_loads();
        assert!(
            spec.static_loads() > 2 * others,
            "ocean should have far more static loads ({} vs {})",
            spec.static_loads(),
            others
        );
    }

    #[test]
    fn distinct_cores_produce_distinct_private_streams() {
        let spec = parallel_app("swim").unwrap();
        let mut a = AppThread::new(&spec, 0, 7);
        let mut b = AppThread::new(&spec, 5, 7);
        let first_load = |t: &mut AppThread| loop {
            if let InstrKind::Load { addr } = t.next_instr().kind {
                break addr;
            }
        };
        assert_ne!(first_load(&mut a), first_load(&mut b));
    }
}
