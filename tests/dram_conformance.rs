//! DDR3 protocol-conformance properties: bandwidth bounds, refresh
//! cadence, and timing-window checks on the controller's observable
//! behavior under randomized traffic.

use critmem_common::codec::ByteWriter;
use critmem_common::{crc32, AccessKind, ChannelId, CoreId, Criticality, MemRequest, SmallRng};
use critmem_dram::{AddressMapping, ChannelController, DramConfig, Fcfs, Interleaving};
use critmem_sched::SchedulerKind;

/// Drives random reads through one channel; returns (completions with
/// cycles, total cycles elapsed, stats snapshot fields).
fn drive_random(seeds: &[u64]) -> (Vec<(u64, u64)>, u64, u64) {
    let cfg = DramConfig::paper_baseline();
    let map = AddressMapping::new(cfg.org, Interleaving::Page);
    let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
    let mut to_send: Vec<MemRequest> = seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            // Channel-0 addresses: rows are 4 KB apart.
            let addr = (s % 2_048) * 4_096 + (s % 16) * 64;
            MemRequest::new(i as u64, addr, AccessKind::Read, CoreId((s % 8) as u8))
        })
        .collect();
    let total = to_send.len();
    let mut done = Vec::new();
    let mut cycles = 0u64;
    while done.len() < total && cycles < 2_000_000 {
        cycles += 1;
        if let Some(req) = to_send.pop() {
            let loc = map.locate(req.addr);
            if let Err(back) = ctl.enqueue(req, loc) {
                to_send.push(back); // queue full; retry next cycle
            }
        }
        for c in ctl.tick() {
            done.push((c.req.id, c.done_at));
        }
    }
    let refreshes = ctl.stats().refreshes;
    (done, cycles, refreshes)
}

#[test]
fn data_bus_bandwidth_is_never_exceeded() {
    // Each read occupies the bus for 4 DRAM cycles; N reads cannot
    // complete in fewer than 4N cycles on one channel.
    let seeds: Vec<u64> = (0..300).map(|i| i * 37 + 5).collect();
    let (done, cycles, _) = drive_random(&seeds);
    assert_eq!(done.len(), 300);
    assert!(
        cycles >= 4 * 300,
        "300 bursts in {cycles} cycles violates bus bandwidth"
    );
    // Completions are causally ordered in time.
    let max_done = done.iter().map(|&(_, d)| d).max().unwrap();
    assert!(max_done <= cycles + 20);
}

#[test]
fn refresh_cadence_matches_trefi() {
    // Idle channel for 10 * tREFI: each of the 4 ranks must have
    // refreshed about 10 times.
    let cfg = DramConfig::paper_baseline();
    let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
    let trefi = cfg.preset.timing.t_refi;
    for _ in 0..10 * trefi {
        ctl.tick();
    }
    let refreshes = ctl.stats().refreshes;
    let expect = 10 * 4; // 10 intervals x 4 ranks
    assert!(
        (refreshes as i64 - expect as i64).abs() <= 8,
        "expected ~{expect} refreshes, got {refreshes}"
    );
}

#[test]
fn row_hits_have_lower_latency_than_conflicts() {
    // Sixteen sequential lines in one row (after the opening ACT, all
    // row hits) versus sixteen different rows of one bank.
    let cfg = DramConfig::paper_baseline();
    let map = AddressMapping::new(cfg.org, Interleaving::Page);
    let service = |addrs: Vec<u64>| -> u64 {
        let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        for (i, a) in addrs.iter().enumerate() {
            ctl.enqueue(
                MemRequest::new(i as u64, *a, AccessKind::Read, CoreId(0)),
                map.locate(*a),
            )
            .unwrap();
        }
        let mut cycles = 0;
        let mut finished = 0;
        while finished < addrs.len() && cycles < 100_000 {
            cycles += 1;
            finished += ctl.tick().len();
        }
        cycles
    };
    let same_row: Vec<u64> = (0..16).map(|i| i * 64).collect();
    let conflicts: Vec<u64> = (0..16).map(|i| i * 128 * 1024).collect();
    let fast = service(same_row);
    let slow = service(conflicts);
    assert!(
        slow > fast * 2,
        "row conflicts ({slow}) should cost far more than row hits ({fast})"
    );
}

#[test]
fn bank_parallelism_beats_serial_banks() {
    let cfg = DramConfig::paper_baseline();
    let map = AddressMapping::new(cfg.org, Interleaving::Page);
    let service = |addrs: Vec<u64>| -> u64 {
        let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        for (i, a) in addrs.iter().enumerate() {
            ctl.enqueue(
                MemRequest::new(i as u64, *a, AccessKind::Read, CoreId(0)),
                map.locate(*a),
            )
            .unwrap();
        }
        let mut cycles = 0;
        let mut finished = 0;
        while finished < addrs.len() && cycles < 100_000 {
            cycles += 1;
            finished += ctl.tick().len();
        }
        cycles
    };
    // 8 requests spread across 8 banks (page interleave: +4 KB steps)
    // vs 8 row conflicts within one bank (+128 KB steps).
    let spread: Vec<u64> = (0..8).map(|i| i * 4 * 1024).collect();
    let serial: Vec<u64> = (0..8).map(|i| i * 128 * 1024).collect();
    let par = service(spread);
    let ser = service(serial);
    assert!(
        ser as f64 > par as f64 * 1.8,
        "bank-level parallelism should roughly halve service time ({par} vs {ser})"
    );
}

/// Checks one random read mix: it completes fully, never exceeds bus
/// bandwidth, and services nothing twice.
fn check_random_traffic(seeds: &[u64]) {
    let (done, cycles, _) = drive_random(seeds);
    assert_eq!(done.len(), seeds.len());
    assert!(cycles >= 4 * seeds.len() as u64);
    // Unique ids: nothing serviced twice.
    let mut ids: Vec<u64> = done.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), seeds.len());
}

/// Random read mixes always complete, never exceed bus bandwidth, and
/// refresh continues under load (8 seeded cases, formerly proptest).
#[test]
fn random_traffic_conserves_and_bounds() {
    let mut rng = SmallRng::seed_from_u64(0xD3A7_0001);
    for _ in 0..8 {
        let len = rng.gen_range_usize(50..150);
        let seeds: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000_000)).collect();
        check_random_traffic(&seeds);
    }
}

/// Services a request list through one audited channel (the shadow
/// protocol auditor recomputes every timing window independently) and
/// asserts the auditor stays silent; returns the service time.
fn audited_service(cfg: DramConfig, reqs: &[(u64, AccessKind)]) -> u64 {
    let map = AddressMapping::new(cfg.org, Interleaving::Page);
    let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
    ctl.enable_audit();
    for (i, (addr, kind)) in reqs.iter().enumerate() {
        ctl.enqueue(
            MemRequest::new(i as u64, *addr, *kind, CoreId(0)),
            map.locate(*addr),
        )
        .unwrap();
    }
    let mut cycles = 0;
    let mut finished = 0;
    while finished < reqs.len() && cycles < 100_000 {
        cycles += 1;
        finished += ctl.tick().len();
    }
    assert_eq!(finished, reqs.len(), "traffic must drain");
    ctl.finish_audit();
    assert!(
        ctl.take_audit_violation().is_none(),
        "auditor must stay silent on conforming traffic"
    );
    cycles
}

/// Single-line reads to `n` distinct banks of rank 0 (page
/// interleave: consecutive 4 KB rows walk the banks).
fn bank_sweep(n: u64) -> Vec<(u64, AccessKind)> {
    (0..n).map(|i| (i * 4 * 1024, AccessKind::Read)).collect()
}

/// tFAW is a rolling window over exactly four ACTs: with four banks
/// the window never binds (service time identical to a tFAW-disabled
/// device), while a fifth ACT must wait out the window.
#[test]
fn tfaw_binds_at_exactly_the_fifth_activate() {
    let with_faw = DramConfig::paper_baseline();
    let mut no_faw = with_faw;
    no_faw.preset.timing.t_faw = 0; // disabled (validated: 0 means off)
    assert!(with_faw.preset.timing.t_faw > 4 * with_faw.preset.timing.t_rrd);
    // Four ACTs: tRRD alone spaces them; the window holds 4, so tFAW
    // must not add a cycle.
    assert_eq!(
        audited_service(with_faw, &bank_sweep(4)),
        audited_service(no_faw, &bank_sweep(4)),
        "tFAW must be invisible at four activates"
    );
    // Five ACTs: the fifth must wait for the window to slide.
    let five_faw = audited_service(with_faw, &bank_sweep(5));
    let five_free = audited_service(no_faw, &bank_sweep(5));
    assert!(
        five_faw > five_free,
        "the fifth activate must pay the tFAW window ({five_faw} vs {five_free})"
    );
}

/// tRRD spaces ACTs to *different banks of the same rank*; shrinking
/// it must shrink a bank sweep's service time, and ACTs landing on a
/// different rank are not held by the first rank's window.
#[test]
fn trrd_spaces_activates_across_banks() {
    let base = DramConfig::paper_baseline();
    let mut tight = base;
    tight.preset.timing.t_rrd = 1; // t_faw (43) still >= 3 * t_rrd
    let spaced = audited_service(base, &bank_sweep(4));
    let packed = audited_service(tight, &bank_sweep(4));
    assert!(
        spaced > packed,
        "four same-rank ACTs must be tRRD-spaced ({spaced} vs {packed})"
    );
    // Split the same eight ACTs across two ranks: each rank's
    // tRRD/tFAW window now sees only four, so the split sweep must be
    // faster than eight ACTs hammering one rank.
    let map = AddressMapping::new(base.org, Interleaving::Page);
    let mut by_rank: Vec<Vec<u64>> = vec![Vec::new(); base.org.ranks_per_channel as usize];
    let mut addr = 0u64;
    while by_rank.iter().take(2).any(|v| v.len() < 4) && addr < 1 << 30 {
        let loc = map.locate(addr);
        let r = loc.rank.0 as usize;
        if r < 2 && by_rank[r].len() < 4 && !by_rank[r].contains(&(loc.bank.0 as u64)) {
            by_rank[r].push(addr);
        }
        addr += 4 * 1024;
    }
    let (r0, r1) = (by_rank[0].clone(), by_rank[1].clone());
    assert_eq!((r0.len(), r1.len()), (4, 4), "need 4 banks in each rank");
    let split: Vec<(u64, AccessKind)> = r0
        .iter()
        .zip(&r1)
        .flat_map(|(&a, &b)| [(a, AccessKind::Read), (b, AccessKind::Read)])
        .collect();
    let one_rank = audited_service(base, &bank_sweep(8));
    let two_ranks = audited_service(base, &split);
    assert!(
        two_ranks < one_rank,
        "per-rank ACT windows must not couple across ranks ({two_ranks} vs {one_rank})"
    );
}

/// tWTR separates a write burst from the next read CAS on the same
/// rank. The controller buffers writes behind reads, so the pair is
/// sequenced by hand: complete the write first, then enqueue a
/// same-row read the very next cycle — its CAS must wait out the
/// write→read turnaround, which vanishes on a tWTR-free device.
#[test]
fn twtr_separates_write_from_read() {
    let read_latency_after_write = |cfg: DramConfig| -> u64 {
        let map = AddressMapping::new(cfg.org, Interleaving::Page);
        let mut ctl = ChannelController::new(ChannelId(0), cfg, Box::new(Fcfs::new()));
        ctl.enable_audit();
        ctl.enqueue(
            MemRequest::new(0, 0, AccessKind::Write, CoreId(0)),
            map.locate(0),
        )
        .unwrap();
        let mut now = 0u64;
        let mut write_done = 0u64;
        while write_done == 0 && now < 100_000 {
            now += 1;
            if !ctl.tick().is_empty() {
                write_done = now;
            }
        }
        assert!(write_done > 0, "the buffered write must drain");
        ctl.enqueue(
            MemRequest::new(1, 64, AccessKind::Read, CoreId(0)),
            map.locate(64),
        )
        .unwrap();
        let mut read_done = 0u64;
        while read_done == 0 && now < 100_000 {
            now += 1;
            if !ctl.tick().is_empty() {
                read_done = now;
            }
        }
        assert!(read_done > 0, "the read must complete");
        ctl.finish_audit();
        assert!(
            ctl.take_audit_violation().is_none(),
            "auditor must stay silent on conforming write-read traffic"
        );
        read_done - write_done
    };
    let base = DramConfig::paper_baseline();
    let mut free = base;
    free.preset.timing.t_wtr = 0;
    let with_wtr = read_latency_after_write(base);
    let without = read_latency_after_write(free);
    assert!(
        with_wtr > without,
        "a same-row read behind a write must pay tWTR ({with_wtr} vs {without})"
    );
}

/// Historical shrunk counterexample from the proptest era, kept as an
/// explicit regression case.
#[test]
fn random_traffic_regression_case() {
    let seeds: Vec<u64> = vec![
        340305, 673967, 70043, 452625, 526179, 982033, 911739, 930820, 208686, 925944, 908912,
        820727, 896724, 280194, 194450, 958146, 725010, 538972, 596178, 731920, 410781, 927855,
        71657, 955985, 713116, 360120, 365962, 600724, 674749, 93715, 607629, 775639, 776268,
        529662, 416305, 139156, 267507, 738745, 684273, 380987, 824416, 100553, 204802, 869540,
        43898, 275999, 144141, 196949, 118583, 842576, 885190, 419852, 627943, 202245, 824751,
        969958, 80517, 487537, 481663, 583406, 750346, 164720, 190797, 88180, 664961, 726401,
        639903, 560351, 763593, 177872, 300655, 375149, 110792, 521412, 557791, 960124, 479951,
        854247, 526721, 608223,
    ];
    check_random_traffic(&seeds);
}

/// Drives one channel under `kind` with seeded mixed traffic: a 200
/// cycle starvation cap (so promotions happen), write bursts that cross
/// the drain watermarks, and refresh on. Returns the CRC-32 of the
/// controller's saved state followed by its encoded statistics.
fn controller_digest(kind: SchedulerKind) -> u32 {
    let mut cfg = DramConfig::paper_baseline();
    cfg.starvation_cap = 200;
    assert!(cfg.refresh_enabled);
    let map = AddressMapping::new(cfg.org, Interleaving::Page);
    let mut ctl = ChannelController::new(ChannelId(0), cfg, kind.build(8, 0));
    let mut rng = SmallRng::seed_from_u64(0x5EED_0019);
    let mut out = Vec::new();
    for id in 0..40_000u64 {
        // 2,000-cycle phases: light and saturating load, each read-heavy
        // and write-heavy.
        let phase = id / 2_000;
        let rate = [0.04, 0.3][phase as usize % 2];
        let write_share = [0.1, 0.7][(phase / 2) as usize % 2];
        if rng.gen_bool(rate) {
            let kind = if rng.gen_bool(write_share) {
                AccessKind::Write
            } else if rng.gen_bool(0.1) {
                AccessKind::Prefetch
            } else {
                AccessKind::Read
            };
            // Channel-0 addresses over 32 banks x 8 rows.
            let addr = rng.gen_range(0..256) * 4_096 + rng.gen_range(0..16) * 64;
            let crit = if rng.gen_bool(0.3) {
                Criticality::ranked(rng.gen_range(1..1_000))
            } else {
                Criticality::non_critical()
            };
            let core = CoreId(rng.gen_range(0..8) as u8);
            let req = MemRequest::new(id, addr, kind, core).with_criticality(crit);
            let _ = ctl.enqueue(req, map.locate(addr));
        }
        out.clear();
        ctl.tick_into(&mut out);
    }
    let stats = ctl.stats();
    assert!(stats.starvation_promotions > 0, "no promotion happened");
    assert!(stats.writes_completed > 1_000, "too few writes drained");
    assert!(stats.refreshes >= 16, "refresh did not run");
    let mut w = ByteWriter::new();
    ctl.save_state(&mut w);
    stats.encode(&mut w);
    crc32::checksum(&w.into_bytes())
}

/// Pins the controller's end state under three schedulers, so a change
/// to how candidates are built must leave every issued command, every
/// promotion and every statistic exactly as it was.
#[test]
fn controller_state_digests_are_pinned() {
    for (kind, want) in [
        (SchedulerKind::FrFcfs, 0x4716_dd76u32),
        (SchedulerKind::CasRasCrit, 0xd65a_ca2c),
        (SchedulerKind::DEFAULT_META, 0x1b0d_c396),
    ] {
        let got = controller_digest(kind);
        assert_eq!(got, want, "{} digest {got:#010x}", kind.name());
    }
}
