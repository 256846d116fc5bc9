//! DRAM system configuration: organization (channels/ranks/banks/row
//! size) plus device preset and controller policies.

use crate::mapping::Interleaving;
use crate::timing::{DevicePreset, DDR3_2133};

/// Physical organization of the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramOrganization {
    /// Independent channels, each with its own controller (Table 3:
    /// four; two for the quad-core multiprogrammed runs).
    pub channels: u8,
    /// Ranks per channel (Table 3: quad-rank; Figure 8 sweeps 1/2/4).
    pub ranks_per_channel: u8,
    /// Banks per rank (8 for DDR3).
    pub banks_per_rank: u8,
    /// Row-buffer size in bytes (Table 3: 1 KB).
    pub row_bytes: u64,
    /// Transfer granularity — the L2 line size (64 B).
    pub line_bytes: u64,
}

impl DramOrganization {
    /// The paper's Table 3 baseline: 4 channels x 4 ranks x 8 banks,
    /// 1 KB rows, 64 B lines.
    pub fn paper_baseline() -> Self {
        DramOrganization {
            channels: 4,
            ranks_per_channel: 4,
            banks_per_rank: 8,
            row_bytes: 1_024,
            line_bytes: 64,
        }
    }

    /// Total banks within one channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks_per_channel as usize * self.banks_per_rank as usize
    }
}

impl Default for DramOrganization {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// Largest transaction queue a channel supports: the controller files
/// queue slots in 64-bit sets, one bit per slot.
pub const MAX_QUEUE_CAPACITY: usize = u64::BITS as usize;

/// Complete DRAM subsystem configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Physical organization.
    pub org: DramOrganization,
    /// Speed grade and timing set.
    pub preset: DevicePreset,
    /// Address interleaving policy.
    pub interleaving: Interleaving,
    /// Transaction-queue capacity per channel (Table 3: 64; at most
    /// [`MAX_QUEUE_CAPACITY`]).
    pub queue_capacity: usize,
    /// Write-drain high watermark: when this many writes are queued the
    /// controller switches to write mode.
    pub write_high_watermark: usize,
    /// Write-drain low watermark: write mode ends when the write count
    /// falls to this level.
    pub write_low_watermark: usize,
    /// Starvation cap in DRAM cycles: a request older than this is
    /// treated as maximally critical (§3.2: 6,000 cycles, "never
    /// reached" in the paper's experiments).
    pub starvation_cap: u64,
    /// Whether periodic refresh is modeled.
    pub refresh_enabled: bool,
}

impl DramConfig {
    /// The paper's baseline configuration (DDR3-2133, Table 3 values).
    pub fn paper_baseline() -> Self {
        DramConfig {
            org: DramOrganization::paper_baseline(),
            preset: DDR3_2133,
            interleaving: Interleaving::Page,
            queue_capacity: 64,
            write_high_watermark: 28,
            write_low_watermark: 12,
            starvation_cap: 6_000,
            refresh_enabled: true,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found (bad
    /// watermarks, invalid timing, zero-sized structures).
    pub fn validate(&self) -> Result<(), String> {
        self.preset.timing.validate()?;
        if self.queue_capacity == 0 {
            return Err("transaction queue capacity must be nonzero".into());
        }
        if self.queue_capacity > MAX_QUEUE_CAPACITY {
            return Err(format!(
                "transaction queue capacity ({}) exceeds the maximum of {MAX_QUEUE_CAPACITY}",
                self.queue_capacity
            ));
        }
        if self.write_high_watermark <= self.write_low_watermark {
            return Err(format!(
                "write high watermark ({}) must exceed low watermark ({})",
                self.write_high_watermark, self.write_low_watermark
            ));
        }
        if self.write_high_watermark >= self.queue_capacity {
            return Err(format!(
                "write high watermark ({}) must be below queue capacity ({})",
                self.write_high_watermark, self.queue_capacity
            ));
        }
        if self.org.channels == 0 || self.org.ranks_per_channel == 0 || self.org.banks_per_rank == 0
        {
            return Err("organization dimensions must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        DramConfig::paper_baseline().validate().unwrap();
    }

    #[test]
    fn baseline_matches_table3() {
        let c = DramConfig::paper_baseline();
        assert_eq!(c.org.channels, 4);
        assert_eq!(c.org.ranks_per_channel, 4);
        assert_eq!(c.org.banks_per_rank, 8);
        assert_eq!(c.org.row_bytes, 1_024);
        assert_eq!(c.queue_capacity, 64);
        assert_eq!(c.starvation_cap, 6_000);
        assert_eq!(c.org.banks_per_channel(), 32);
    }

    #[test]
    fn validation_catches_watermark_inversion() {
        let mut c = DramConfig::paper_baseline();
        c.write_high_watermark = 5;
        c.write_low_watermark = 10;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_queue() {
        let mut c = DramConfig::paper_baseline();
        c.queue_capacity = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_queue_above_slot_set_width() {
        let mut c = DramConfig::paper_baseline();
        c.queue_capacity = MAX_QUEUE_CAPACITY;
        c.validate().unwrap();
        c.queue_capacity = MAX_QUEUE_CAPACITY + 1;
        let err = c.validate().unwrap_err();
        assert!(
            err.contains("capacity (65) exceeds the maximum of 64"),
            "{err}"
        );
    }

    #[test]
    fn validation_catches_watermark_above_capacity() {
        let mut c = DramConfig::paper_baseline();
        c.write_high_watermark = 64;
        assert!(c.validate().is_err());
    }
}
