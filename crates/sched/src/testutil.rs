//! Shared helpers for scheduler unit tests.

#![allow(dead_code)]

use critmem_common::{AccessKind, BankId, ChannelId, CoreId, Criticality, MemRequest, RankId};
use critmem_dram::{
    Candidate, ChannelTiming, CommandKind, Direction, DramCommand, DramLocation, SchedContext,
    Transaction, DDR3_2133,
};

/// Timing-state factory for tests.
pub struct Timing;

impl Timing {
    /// A 4-rank x 8-bank DDR3-2133 channel timing state.
    pub fn default_timing() -> ChannelTiming {
        ChannelTiming::new(4, 8, DDR3_2133.timing)
    }
}

/// Builds a read transaction from `core` targeting `bank` with sequence
/// number `seq` (arrival cycle == seq).
pub fn mk_txn(core: u8, bank: u8, seq: u64) -> Transaction {
    mk_txn_at(core, bank, 0, seq, 0)
}

/// Builds a read transaction with explicit row and criticality.
pub fn mk_txn_at(core: u8, bank: u8, row: u32, seq: u64, crit_mag: u64) -> Transaction {
    let req = MemRequest::new(seq, 0, AccessKind::Read, CoreId(core))
        .with_criticality(Criticality::ranked(crit_mag));
    let loc = DramLocation {
        channel: ChannelId(0),
        rank: RankId(0),
        bank: BankId(bank),
        row,
        column: 0,
    };
    Transaction::new(req, loc, seq, seq)
}

/// Builds a candidate for queue entry `txn`.
pub fn mk_candidate(txn: usize, kind: CommandKind, row_hit: bool, crit_mag: u64) -> Candidate {
    Candidate {
        txn,
        cmd: DramCommand {
            kind,
            rank: RankId(0),
            bank: BankId(0),
            row: 0,
        },
        row_hit,
        crit: Criticality::ranked(crit_mag),
    }
}

/// Returns fresh timing state (paired with unit for legacy call sites).
pub fn ctx_with(_queue: &[Transaction]) -> (ChannelTiming, ()) {
    (Timing::default_timing(), ())
}

/// Builds a read-direction scheduling context at cycle 100.
pub fn mk_ctx<'a>(queue: &'a [Transaction], timing: &'a ChannelTiming) -> SchedContext<'a> {
    SchedContext {
        now: 100,
        channel: ChannelId(0),
        queue,
        timing,
        direction: Direction::Read,
    }
}
