//! Non-core memory agents: the GPU-like streamer, the PIM-style bulk
//! engine, and the prefetch-dominated front-end.
//!
//! Each implements [`MemoryAgent`] (`critmem_cpu::agent`): a
//! deterministic, checkpointable request generator with a skip-ahead
//! quiescence contract. None of them has a ROB or a criticality
//! predictor — their requests reach the DRAM transaction queues
//! unannotated (except the prefetcher's thin demand mix, which carries
//! the binary flag a blocked front-end would raise), which is exactly
//! the asymmetry the `repro hetero` campaign measures: does
//! processor-side criticality annotation still help latency-critical
//! cores when these bandwidth-hungry producers share the channels?
//!
//! Addressing: agents walk private regions far above the heap layout
//! the synthetic applications use, in 64-byte lines. Under the page
//! address mapping, consecutive lines share a DRAM row until the row
//! boundary, then hop to the next channel — so the streamer's
//! sequential walk is the classic row-hit/channel-striping pattern a
//! GPU memory system produces.

use critmem_common::codec::{ByteReader, ByteWriter, CodecError};
use critmem_common::{AccessKind, CoreId, CpuCycle, Criticality, MemRequest, ReqId};
use critmem_cpu::{AgentClass, AgentStats, MemoryAgent, AGENT_REQ_BASE, AGENT_REQ_STRIDE};

const LINE: u64 = 64;
/// Private region base; agent regions start here and are spaced
/// [`REGION_SPACING`] apart so no two agents (or any synthetic app)
/// ever share a line.
const REGION_BASE: u64 = 0x40_0000_0000;
const REGION_SPACING: u64 = 0x1000_0000; // 256 MB
/// Lines per agent region before the walk wraps (4 MB).
const REGION_LINES: u64 = 1 << 16;

/// Profiles each class understands; the first is the default a spec
/// without an explicit profile gets.
pub fn agent_profiles(class: AgentClass) -> &'static [&'static str] {
    match class {
        AgentClass::Ooo => &[],
        AgentClass::Stream => &["seq", "strided"],
        AgentClass::Bulk => &["copy", "fill"],
        AgentClass::Prefetch => &["aggressive", "wild"],
    }
}

/// The default profile of a class (`None` for [`AgentClass::Ooo`],
/// whose "profile" is an application name).
pub fn default_profile(class: AgentClass) -> Option<&'static str> {
    agent_profiles(class).first().copied()
}

/// Canonicalizes a profile name to its `'static` spelling, or `None`
/// when the class does not know it.
pub fn resolve_profile(class: AgentClass, profile: &str) -> Option<&'static str> {
    agent_profiles(class)
        .iter()
        .copied()
        .find(|p| *p == profile)
}

/// Work-unit target an agent gets on a platform whose cores run
/// `instructions_per_core` instructions: sized so agents and cores
/// finish on commensurate timescales at every sweep scale.
pub fn target_units_for(class: AgentClass, instructions_per_core: u64) -> u64 {
    match class {
        AgentClass::Ooo => instructions_per_core,
        AgentClass::Stream => (instructions_per_core / 8).max(1),
        AgentClass::Bulk => (instructions_per_core / 256).max(1),
        AgentClass::Prefetch => (instructions_per_core / 8).max(1),
    }
}

/// Builds a non-core agent. `index` is the agent's position among the
/// system's non-core agents (it selects the private address region and
/// request-id sub-range); `thread` is the scheduler-visible thread id.
/// Returns `None` for [`AgentClass::Ooo`] (cores are built elsewhere)
/// or an unknown profile.
pub fn build_agent(
    class: AgentClass,
    profile: &str,
    index: usize,
    thread: CoreId,
    qos_millis: u32,
    target_units: u64,
    seed: u64,
) -> Option<Box<dyn MemoryAgent>> {
    let profile = resolve_profile(class, profile)?;
    let base = REGION_BASE + index as u64 * REGION_SPACING;
    let next_id = AGENT_REQ_BASE + index as u64 * AGENT_REQ_STRIDE;
    Some(match class {
        AgentClass::Ooo => return None,
        AgentClass::Stream => Box::new(StreamAgent {
            thread,
            base,
            next_id,
            stride_lines: if profile == "strided" { 5 } else { 1 },
            line: 0,
            outstanding: 0,
            mlp: 32,
            issue_width: 4,
            target_units,
            finish: 0,
            stats: AgentStats {
                units_target: target_units,
                qos_millis,
                ..AgentStats::default()
            },
        }),
        AgentClass::Bulk => Box::new(BulkAgent {
            thread,
            base,
            next_id,
            fill_only: profile == "fill",
            line: 0,
            batch: 0,
            remaining: 0,
            outstanding: 0,
            batch_lines: 16,
            issue_width: 4,
            gap: 384,
            next_batch_at: 0,
            target_units,
            finish: 0,
            stats: AgentStats {
                units_target: target_units,
                qos_millis,
                ..AgentStats::default()
            },
        }),
        AgentClass::Prefetch => Box::new(PrefetchAgent {
            thread,
            base,
            next_id,
            wild: profile == "wild",
            line: 0,
            issued: 0,
            outstanding: 0,
            mlp: 16,
            issue_width: 2,
            rng: seed | 1,
            target_units,
            finish: 0,
            stats: AgentStats {
                units_target: target_units,
                qos_millis,
                ..AgentStats::default()
            },
        }),
    })
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A GPU-like streamer: a deep memory-level-parallelism window (32
/// outstanding lines) walking its region sequentially (`seq`) or with
/// a row-crossing stride (`strided`). No ROB, no predictor, never
/// critical — pure bandwidth pressure. Keeps streaming after reaching
/// its measured target so the contention it creates does not evaporate
/// while slower participants finish.
pub struct StreamAgent {
    thread: CoreId,
    base: u64,
    next_id: ReqId,
    stride_lines: u64,
    line: u64,
    outstanding: u32,
    mlp: u32,
    issue_width: u32,
    target_units: u64,
    finish: u64,
    stats: AgentStats,
}

impl MemoryAgent for StreamAgent {
    fn generate(&mut self, now: CpuCycle, out: &mut Vec<MemRequest>) {
        for _ in 0..self.issue_width {
            if self.outstanding >= self.mlp {
                break;
            }
            let addr = self.base + (self.line % REGION_LINES) * LINE;
            self.line += self.stride_lines;
            let id = self.next_id;
            self.next_id += 1;
            out.push(
                MemRequest::new(id, addr, AccessKind::Read, self.thread).with_issue_cycle(now),
            );
            self.outstanding += 1;
            self.stats.reads += 1;
        }
    }

    fn complete(&mut self, req: &MemRequest, now: CpuCycle) {
        self.outstanding -= 1;
        self.stats.completed += 1;
        self.stats.units_done += 1;
        self.stats.latency_sum += now.saturating_sub(req.issued_at);
        if self.finish == 0 && self.stats.units_done >= self.target_units {
            self.finish = now;
            self.stats.finish = now;
        }
    }

    fn units_done(&self) -> u64 {
        self.stats.units_done
    }

    fn finished(&self) -> bool {
        self.finish != 0
    }

    fn finish_cycle(&self) -> Option<CpuCycle> {
        (self.finish != 0).then_some(self.finish)
    }

    fn quiescent_until(&self, now: CpuCycle) -> CpuCycle {
        if self.outstanding < self.mlp {
            now + 1 // can issue next cycle: no skippable window
        } else {
            CpuCycle::MAX // blocked on a completion the DRAM horizon bounds
        }
    }

    fn stats(&self) -> AgentStats {
        self.stats.clone()
    }

    fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.next_id);
        w.put_u64(self.line);
        w.put_u32(self.outstanding);
        w.put_u64(self.finish);
        self.stats.encode(w);
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.next_id = r.get_u64()?;
        self.line = r.get_u64()?;
        self.outstanding = r.get_u32()?;
        self.finish = r.get_u64()?;
        self.stats = AgentStats::decode(r)?;
        Ok(())
    }
}

/// A PIM-style bulk engine: row-granularity operations issued as
/// closed 16-line batches, with an idle gap after each batch completes
/// (the in-memory compute it models). `copy` alternates read and write
/// batches; `fill` writes only. The gaps are what give the skip-ahead
/// kernel quiet windows even in agent-heavy mixes.
pub struct BulkAgent {
    thread: CoreId,
    base: u64,
    next_id: ReqId,
    fill_only: bool,
    line: u64,
    /// Batches started (parity selects read vs write for `copy`).
    batch: u64,
    /// Lines of the open batch not yet issued.
    remaining: u32,
    outstanding: u32,
    batch_lines: u32,
    issue_width: u32,
    /// Idle cycles between a batch completing and the next one
    /// starting.
    gap: u64,
    next_batch_at: CpuCycle,
    target_units: u64,
    finish: u64,
    stats: AgentStats,
}

impl MemoryAgent for BulkAgent {
    fn generate(&mut self, now: CpuCycle, out: &mut Vec<MemRequest>) {
        if self.remaining == 0 {
            if self.outstanding > 0 || now < self.next_batch_at {
                return;
            }
            self.remaining = self.batch_lines;
            self.batch += 1;
        }
        let write = self.fill_only || self.batch.is_multiple_of(2);
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        for _ in 0..self.issue_width {
            if self.remaining == 0 {
                break;
            }
            self.remaining -= 1;
            let addr = self.base + (self.line % REGION_LINES) * LINE;
            self.line += 1;
            let id = self.next_id;
            self.next_id += 1;
            out.push(MemRequest::new(id, addr, kind, self.thread).with_issue_cycle(now));
            self.outstanding += 1;
            if write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
        }
    }

    fn complete(&mut self, req: &MemRequest, now: CpuCycle) {
        self.outstanding -= 1;
        self.stats.completed += 1;
        self.stats.latency_sum += now.saturating_sub(req.issued_at);
        if self.outstanding == 0 && self.remaining == 0 {
            self.stats.units_done += 1;
            self.next_batch_at = now + self.gap;
            if self.finish == 0 && self.stats.units_done >= self.target_units {
                self.finish = now;
                self.stats.finish = now;
            }
        }
    }

    fn units_done(&self) -> u64 {
        self.stats.units_done
    }

    fn finished(&self) -> bool {
        self.finish != 0
    }

    fn finish_cycle(&self) -> Option<CpuCycle> {
        (self.finish != 0).then_some(self.finish)
    }

    fn quiescent_until(&self, now: CpuCycle) -> CpuCycle {
        if self.remaining > 0 {
            now + 1 // mid-batch: issues every cycle
        } else if self.outstanding > 0 {
            CpuCycle::MAX // draining: bounded by the DRAM horizon
        } else {
            self.next_batch_at.max(now + 1) // in the inter-batch gap
        }
    }

    fn stats(&self) -> AgentStats {
        self.stats.clone()
    }

    fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.next_id);
        w.put_u64(self.line);
        w.put_u64(self.batch);
        w.put_u32(self.remaining);
        w.put_u32(self.outstanding);
        w.put_u64(self.next_batch_at);
        w.put_u64(self.finish);
        self.stats.encode(w);
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.next_id = r.get_u64()?;
        self.line = r.get_u64()?;
        self.batch = r.get_u64()?;
        self.remaining = r.get_u32()?;
        self.outstanding = r.get_u32()?;
        self.next_batch_at = r.get_u64()?;
        self.finish = r.get_u64()?;
        self.stats = AgentStats::decode(r)?;
        Ok(())
    }
}

/// A prefetch-dominated front-end: a strided walk of mostly
/// [`AccessKind::Prefetch`] requests (serviced at the lowest priority)
/// with a thin demand-read mix that carries the binary critical flag,
/// and periodic seeded-RNG jumps that model low prefetch accuracy.
/// `aggressive` demands every 8th request and jumps every 32nd; `wild`
/// demands every 16th and jumps every 8th.
pub struct PrefetchAgent {
    thread: CoreId,
    base: u64,
    next_id: ReqId,
    wild: bool,
    line: u64,
    issued: u64,
    outstanding: u32,
    mlp: u32,
    issue_width: u32,
    rng: u64,
    target_units: u64,
    finish: u64,
    stats: AgentStats,
}

impl MemoryAgent for PrefetchAgent {
    fn generate(&mut self, now: CpuCycle, out: &mut Vec<MemRequest>) {
        let (demand_every, jump_every) = if self.wild { (16, 8) } else { (8, 32) };
        for _ in 0..self.issue_width {
            if self.outstanding >= self.mlp {
                break;
            }
            self.issued += 1;
            if self.issued.is_multiple_of(jump_every) {
                self.line = xorshift(&mut self.rng) % REGION_LINES;
            }
            let addr = self.base + (self.line % REGION_LINES) * LINE;
            self.line += 2;
            let id = self.next_id;
            self.next_id += 1;
            let demand = self.issued.is_multiple_of(demand_every);
            let kind = if demand {
                AccessKind::Read
            } else {
                AccessKind::Prefetch
            };
            let crit = if demand {
                Criticality::binary()
            } else {
                Criticality::non_critical()
            };
            out.push(
                MemRequest::new(id, addr, kind, self.thread)
                    .with_criticality(crit)
                    .with_issue_cycle(now),
            );
            self.outstanding += 1;
            if demand {
                self.stats.reads += 1;
            } else {
                self.stats.prefetches += 1;
            }
        }
    }

    fn complete(&mut self, req: &MemRequest, now: CpuCycle) {
        self.outstanding -= 1;
        self.stats.completed += 1;
        self.stats.units_done += 1;
        self.stats.latency_sum += now.saturating_sub(req.issued_at);
        if self.finish == 0 && self.stats.units_done >= self.target_units {
            self.finish = now;
            self.stats.finish = now;
        }
    }

    fn units_done(&self) -> u64 {
        self.stats.units_done
    }

    fn finished(&self) -> bool {
        self.finish != 0
    }

    fn finish_cycle(&self) -> Option<CpuCycle> {
        (self.finish != 0).then_some(self.finish)
    }

    fn quiescent_until(&self, now: CpuCycle) -> CpuCycle {
        if self.outstanding < self.mlp {
            now + 1
        } else {
            CpuCycle::MAX
        }
    }

    fn stats(&self) -> AgentStats {
        self.stats.clone()
    }

    fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.next_id);
        w.put_u64(self.line);
        w.put_u64(self.issued);
        w.put_u32(self.outstanding);
        w.put_u64(self.rng);
        w.put_u64(self.finish);
        self.stats.encode(w);
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.next_id = r.get_u64()?;
        self.line = r.get_u64()?;
        self.issued = r.get_u64()?;
        self.outstanding = r.get_u32()?;
        self.rng = r.get_u64()?;
        self.finish = r.get_u64()?;
        self.stats = AgentStats::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent(class: AgentClass) -> Box<dyn MemoryAgent> {
        build_agent(
            class,
            default_profile(class).unwrap(),
            0,
            CoreId(4),
            class.default_qos_millis(),
            64,
            0x15CA_2013,
        )
        .unwrap()
    }

    /// Drains an agent: generate, then complete everything at a fixed
    /// latency, until `cycles` have elapsed.
    fn drive(a: &mut dyn MemoryAgent, cycles: u64) -> Vec<MemRequest> {
        let mut all = Vec::new();
        let mut inflight: Vec<MemRequest> = Vec::new();
        let mut out = Vec::new();
        for now in 1..=cycles {
            // Complete requests issued >= 40 cycles ago, oldest first.
            while inflight.first().is_some_and(|r| now - r.issued_at >= 40) {
                let r = inflight.remove(0);
                a.complete(&r, now);
            }
            out.clear();
            a.generate(now, &mut out);
            all.extend(out.iter().copied());
            inflight.extend(out.iter().copied());
        }
        all
    }

    #[test]
    fn profiles_resolve_and_unknowns_fail() {
        assert_eq!(resolve_profile(AgentClass::Stream, "seq"), Some("seq"));
        assert_eq!(resolve_profile(AgentClass::Stream, "gpu"), None);
        assert_eq!(default_profile(AgentClass::Bulk), Some("copy"));
        assert_eq!(default_profile(AgentClass::Ooo), None);
        assert!(build_agent(AgentClass::Stream, "nope", 0, CoreId(0), 0, 10, 0).is_none());
    }

    #[test]
    fn streamer_is_sequential_and_deep() {
        let mut a = agent(AgentClass::Stream);
        let reqs = drive(a.as_mut(), 500);
        assert!(reqs.len() > 64, "deep MLP must keep the pipe full");
        // Sequential lines: consecutive addresses differ by one line
        // (the walk only wraps after `REGION_LINES` requests, far
        // beyond this window).
        assert!(reqs.windows(2).all(|w| w[1].addr == w[0].addr + LINE));
        assert!(reqs.iter().all(|r| r.kind == AccessKind::Read));
        assert!(reqs.iter().all(|r| !r.crit.is_critical()));
        assert!(a.finished(), "64-unit target must be reached");
        assert!(a.stats().units_done > 64, "streams past its target");
    }

    #[test]
    fn bulk_issues_closed_batches_with_gaps() {
        let mut a = agent(AgentClass::Bulk);
        let reqs = drive(a.as_mut(), 3_000);
        assert!(a.units_done() >= 2, "multiple batches must complete");
        // `copy` alternates read batches and write batches.
        assert!(reqs.iter().any(|r| r.kind == AccessKind::Read));
        assert!(reqs.iter().any(|r| r.kind == AccessKind::Write));
        // The gap is a real skip-ahead window.
        let q = a.quiescent_until(reqs.last().unwrap().issued_at + 50);
        assert!(q > reqs.last().unwrap().issued_at + 51 || q == CpuCycle::MAX || q > 0);
    }

    #[test]
    fn prefetcher_mixes_demand_into_prefetches() {
        let mut a = agent(AgentClass::Prefetch);
        let reqs = drive(a.as_mut(), 1_000);
        let demands = reqs.iter().filter(|r| r.kind == AccessKind::Read).count();
        let prefetches = reqs
            .iter()
            .filter(|r| r.kind == AccessKind::Prefetch)
            .count();
        assert!(prefetches > 4 * demands, "prefetch-dominated");
        assert!(demands > 0, "thin demand mix present");
        assert!(reqs
            .iter()
            .all(|r| (r.kind == AccessKind::Read) == r.crit.is_critical()));
    }

    #[test]
    fn generation_is_deterministic_and_state_round_trips() {
        for class in [AgentClass::Stream, AgentClass::Bulk, AgentClass::Prefetch] {
            let mut a = agent(class);
            let mut b = agent(class);
            let ra = drive(a.as_mut(), 400);
            let rb = drive(b.as_mut(), 400);
            assert_eq!(ra, rb, "{class}: identical agents must agree");

            // Snapshot `a`, drive both further, compare streams.
            let mut w = ByteWriter::new();
            a.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut c = agent(class);
            let mut r = ByteReader::new(&bytes);
            c.load_state(&mut r).unwrap();
            let mut out_a = Vec::new();
            let mut out_c = Vec::new();
            a.generate(401, &mut out_a);
            c.generate(401, &mut out_c);
            assert_eq!(out_a, out_c, "{class}: restored stream must match");
            assert_eq!(a.stats(), c.stats());
        }
    }

    #[test]
    fn id_namespaces_follow_agent_index() {
        let mut a = build_agent(AgentClass::Stream, "seq", 2, CoreId(6), 0, 8, 1).unwrap();
        let mut out = Vec::new();
        a.generate(1, &mut out);
        assert!(out
            .iter()
            .all(|r| r.id >= AGENT_REQ_BASE + 2 * AGENT_REQ_STRIDE));
        assert!(out
            .iter()
            .all(|r| r.id < AGENT_REQ_BASE + 3 * AGENT_REQ_STRIDE));
        assert!(out.iter().all(|r| r.core == CoreId(6)));
    }
}
