//! The heterogeneous memory-agent abstraction.
//!
//! The paper's platform is homogeneous: every request producer is an
//! out-of-order [`Core`](crate::Core). ROADMAP item 3 asks what happens
//! to processor-side criticality annotation when latency-critical cores
//! share memory channels with bandwidth-hungry accelerator-class
//! producers — GPU-like streamers, PIM-style bulk engines, and
//! prefetch-dominated front-ends. [`MemoryAgent`] is the surface those
//! non-core producers present to the system model: a request producer
//! with deterministic state capture and a skip-ahead quiescence
//! contract. Its class and QoS budget travel in its spec and its
//! [`AgentStats`], not through the trait. Cores are not agents: their
//! requests reach memory through the cache hierarchy, and the system
//! drives them directly.
//!
//! The concrete non-core agents live in `critmem_workloads::agents`;
//! this module owns the trait, the [`AgentClass`] taxonomy, and the
//! [`AgentStats`] snapshot that rides in run statistics and sweep
//! journals.

use critmem_common::codec::{ByteReader, ByteWriter, CodecError};
use critmem_common::{CpuCycle, MemRequest, MetricVisitor, Observable};

/// Which kind of request producer an agent is. The class travels with
/// every spec and statistic, and class-aware schedulers (TCM's
/// bandwidth clustering, BLISS's blacklists) see it indirectly through
/// the per-thread request streams it shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentClass {
    /// An out-of-order core: latency-critical demand misses, annotated
    /// by the processor-side criticality predictor.
    Ooo,
    /// A GPU-like streamer: deep memory-level parallelism, sequential
    /// row-streaming bursts, no ROB, never criticality-annotated.
    Stream,
    /// A PIM-style bulk engine: row-granularity operations issued as
    /// closed batches with idle gaps between them.
    Bulk,
    /// A prefetch-dominated front-end: mostly low-priority prefetches
    /// with a thin, low-accuracy demand-read mix.
    Prefetch,
}

impl AgentClass {
    /// Grammar keyword (`ooo`, `stream`, `bulk`, `prefetch`).
    pub fn keyword(self) -> &'static str {
        match self {
            AgentClass::Ooo => "ooo",
            AgentClass::Stream => "stream",
            AgentClass::Bulk => "bulk",
            AgentClass::Prefetch => "prefetch",
        }
    }

    /// Parses a grammar keyword. Case-insensitive; `None` for unknown
    /// words.
    pub fn parse(word: &str) -> Option<Self> {
        Some(match word.to_ascii_lowercase().as_str() {
            "ooo" => AgentClass::Ooo,
            "stream" => AgentClass::Stream,
            "bulk" => AgentClass::Bulk,
            "prefetch" => AgentClass::Prefetch,
            _ => return None,
        })
    }

    /// Default QoS slowdown budget (in thousandths) a spec that does
    /// not name one inherits: how much slower than running alone this
    /// class tolerates before the run counts a budget violation.
    /// Latency-critical cores tolerate the least; bulk engines, built
    /// for throughput, the most.
    pub fn default_qos_millis(self) -> u32 {
        match self {
            AgentClass::Ooo => 3_000,
            AgentClass::Stream => 4_000,
            AgentClass::Bulk => 8_000,
            AgentClass::Prefetch => 8_000,
        }
    }

    /// Codec tag.
    fn to_tag(self) -> u8 {
        match self {
            AgentClass::Ooo => 0,
            AgentClass::Stream => 1,
            AgentClass::Bulk => 2,
            AgentClass::Prefetch => 3,
        }
    }

    /// Inverse of [`Self::to_tag`].
    fn from_tag(tag: u8, offset: usize) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => AgentClass::Ooo,
            1 => AgentClass::Stream,
            2 => AgentClass::Bulk,
            3 => AgentClass::Prefetch,
            n => {
                return Err(CodecError {
                    message: format!("unknown agent class tag {n}"),
                    offset,
                })
            }
        })
    }
}

impl std::fmt::Display for AgentClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Statistics snapshot of one non-core agent, carried in run statistics
/// and sweep-journal records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AgentStats {
    /// Demand reads issued.
    pub reads: u64,
    /// Writes issued.
    pub writes: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Requests completed (reads, writes, and prefetches).
    pub completed: u64,
    /// Work units finished (requests for streamers/prefetchers,
    /// batches for bulk engines).
    pub units_done: u64,
    /// Work-unit target that ends the agent's measured interval.
    pub units_target: u64,
    /// Sum over completed requests of their memory latency, in CPU
    /// cycles.
    pub latency_sum: u64,
    /// CPU cycle at which the unit target was reached; zero while
    /// unfinished.
    pub finish: u64,
    /// QoS slowdown budget in thousandths.
    pub qos_millis: u32,
}

impl AgentStats {
    /// Mean memory latency of completed requests, in CPU cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.completed as f64
        }
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut ByteWriter) {
        for v in [
            self.reads,
            self.writes,
            self.prefetches,
            self.completed,
            self.units_done,
            self.units_target,
            self.latency_sum,
            self.finish,
        ] {
            w.put_u64(v);
        }
        w.put_u32(self.qos_millis);
    }

    /// Deserializes journaled agent statistics.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(AgentStats {
            reads: r.get_u64()?,
            writes: r.get_u64()?,
            prefetches: r.get_u64()?,
            completed: r.get_u64()?,
            units_done: r.get_u64()?,
            units_target: r.get_u64()?,
            latency_sum: r.get_u64()?,
            finish: r.get_u64()?,
            qos_millis: r.get_u32()?,
        })
    }
}

impl critmem_common::Observable for AgentStats {
    /// Reports this agent's traffic metrics. The caller sets the
    /// component path (e.g. `agent.a0`) first.
    fn observe(&self, v: &mut dyn MetricVisitor) {
        v.counter("reads", "requests", self.reads);
        v.counter("writes", "requests", self.writes);
        v.counter("prefetches", "requests", self.prefetches);
        v.counter("completed", "requests", self.completed);
        v.counter("units_done", "units", self.units_done);
        v.gauge("mean_latency", "cpu-cycles", self.mean_latency());
    }
}

/// A memory-request producer that is not a core: a heterogeneous-mix
/// agent or a trace replay.
///
/// The system drives an agent with exactly three calls per active
/// cycle: [`MemoryAgent::generate`] to collect new requests (the system
/// owns id/thread stamping discipline only in so far as it routes
/// completions back by the request's `core` field — the agent stamps
/// its own ids from a disjoint namespace), [`MemoryAgent::complete`]
/// for every finished request, and [`MemoryAgent::quiescent_until`]
/// when deciding whether the skip-ahead kernel may batch-advance the
/// clock; [`MemoryAgent::admitted`] reports each enqueue attempt. The
/// `Any` bound lets a system's owner recover the concrete agent.
///
/// # Contracts
///
/// * **Determinism** — `generate` may depend only on the agent's own
///   serialized state and `now`; two agents built alike and fed alike
///   produce identical request streams.
/// * **Quiescence** — every cycle in `now + 1 ..
///   quiescent_until(now)` must be one where `generate` would produce
///   nothing, so skipping it is invisible. Completions need not be
///   accounted for: the DRAM event horizon already bounds them.
/// * **State capture** — `save_state`/`load_state` round-trip the full
///   mutable state, so a CMCK checkpoint restore resumes the exact
///   request stream.
pub trait MemoryAgent: std::any::Any {
    /// Produces the requests this agent issues at `now`, appending them
    /// to `out`. The agent throttles itself (memory-level-parallelism
    /// window, batch gaps); the system buffers whatever the DRAM
    /// queues cannot accept this cycle.
    fn generate(&mut self, now: CpuCycle, out: &mut Vec<MemRequest>);

    /// Notifies the agent that one of its requests finished at `now`.
    fn complete(&mut self, req: &MemRequest, now: CpuCycle);

    /// Reports one attempt at `now` to enqueue `req`, a request this
    /// agent generated: `accepted` is `false` when a full transaction
    /// queue bounced it. A bounced request waits in the system's
    /// overflow queue and is attempted again, in order, on a later
    /// cycle; requests queued behind it are not attempted meanwhile.
    /// The default ignores the report.
    fn admitted(&mut self, _req: &MemRequest, _accepted: bool, _now: CpuCycle) {}

    /// Scheduler threads this agent issues on: that many consecutive
    /// thread ids, whose completions all route back here. Default one.
    fn threads(&self) -> usize {
        1
    }

    /// Work units finished so far (the forward-progress measure the
    /// watchdog and the run-completion check use).
    fn units_done(&self) -> u64;

    /// Whether the agent has reached its work-unit target.
    fn finished(&self) -> bool;

    /// CPU cycle at which the target was reached, if it has been.
    fn finish_cycle(&self) -> Option<CpuCycle>;

    /// First future cycle at which [`Self::generate`] could produce a
    /// request. Must be at least `now + 1`; `now + 1` means "no
    /// skippable window". See the trait-level quiescence contract.
    fn quiescent_until(&self, now: CpuCycle) -> CpuCycle;

    /// Current statistics snapshot.
    fn stats(&self) -> AgentStats;

    /// Reports metrics for the observability registry. The caller sets
    /// the component path first.
    fn observe(&self, v: &mut dyn MetricVisitor) {
        self.stats().observe(v);
    }

    /// Serializes the full mutable state.
    fn save_state(&self, w: &mut ByteWriter);

    /// Restores state captured by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on a truncated or inconsistent stream.
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;
}

/// Base of the request-id namespace non-core agents stamp their
/// requests from. The cache hierarchy allocates ids from zero upward;
/// starting agents at `1 << 48` (and giving each agent its own `1 <<
/// 40` sub-range) keeps the two populations disjoint for the lifetime
/// of any run, which the request-conservation auditor relies on.
pub const AGENT_REQ_BASE: u64 = 1 << 48;

/// The id sub-range stride between agents.
pub const AGENT_REQ_STRIDE: u64 = 1 << 40;

/// Encodes an agent-class round-trip tag (exposed for the spec codec
/// in the system crate).
pub fn encode_agent_class(class: AgentClass, w: &mut ByteWriter) {
    w.put_u8(class.to_tag());
}

/// Decodes an agent-class tag.
///
/// # Errors
///
/// Fails on an unknown tag.
pub fn decode_agent_class(r: &mut ByteReader<'_>) -> Result<AgentClass, CodecError> {
    let at = r.position();
    AgentClass::from_tag(r.get_u8()?, at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_keywords_round_trip() {
        for c in [
            AgentClass::Ooo,
            AgentClass::Stream,
            AgentClass::Bulk,
            AgentClass::Prefetch,
        ] {
            assert_eq!(AgentClass::parse(c.keyword()), Some(c));
            assert_eq!(AgentClass::parse(&c.keyword().to_uppercase()), Some(c));
            let mut w = ByteWriter::new();
            encode_agent_class(c, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_agent_class(&mut r).unwrap(), c);
        }
        assert_eq!(AgentClass::parse("gpu"), None);
    }

    #[test]
    fn stats_round_trip() {
        let s = AgentStats {
            reads: 10,
            writes: 3,
            prefetches: 7,
            completed: 18,
            units_done: 18,
            units_target: 20,
            latency_sum: 5_400,
            finish: 0,
            qos_millis: 4_000,
        };
        let mut w = ByteWriter::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(AgentStats::decode(&mut r).unwrap(), s);
        assert!((s.mean_latency() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn default_budgets_order_by_latency_sensitivity() {
        assert!(AgentClass::Ooo.default_qos_millis() < AgentClass::Stream.default_qos_millis());
        assert!(AgentClass::Stream.default_qos_millis() <= AgentClass::Bulk.default_qos_millis());
    }

    #[test]
    fn agent_id_namespaces_are_disjoint() {
        // Four agents' sub-ranges must not overlap each other or the
        // hierarchy's zero-based ids even after billions of requests.
        for i in 0..4u64 {
            let base = AGENT_REQ_BASE + i * AGENT_REQ_STRIDE;
            assert!(base > u32::MAX as u64);
            assert!(base + AGENT_REQ_STRIDE <= AGENT_REQ_BASE + (i + 1) * AGENT_REQ_STRIDE);
        }
    }
}
