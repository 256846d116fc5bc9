//! Clock-domain crossing between the CPU core clock and the DRAM bus
//! clock.
//!
//! The whole system is stepped at CPU-cycle granularity (4.27 GHz in the
//! paper's configuration). The DRAM subsystem runs on the memory bus
//! clock (1,066 MHz for DDR3-2133). [`ClockDivider`] converts the fast
//! clock into ticks of the slow clock using integer error accumulation,
//! so non-integral ratios (e.g. 4.27 GHz : 800 MHz for DDR3-1600) are
//! handled exactly with no drift.

/// Generates ticks of a slow clock while being stepped by a fast clock.
///
/// Classic Bresenham-style accumulator: every fast-clock cycle adds
/// `slow_hz` to an accumulator; whenever the accumulator reaches
/// `fast_hz` the slow clock ticks once. Over any window of `fast_hz`
/// fast cycles exactly `slow_hz` slow ticks are produced.
///
/// # Examples
///
/// ```
/// use critmem_common::ClockDivider;
///
/// // 4 fast cycles per slow cycle, exactly.
/// let mut div = ClockDivider::new(1, 4);
/// let ticks: Vec<bool> = (0..8).map(|_| div.tick()).collect();
/// assert_eq!(ticks.iter().filter(|&&t| t).count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockDivider {
    slow_hz: u64,
    fast_hz: u64,
    acc: u64,
    slow_cycles: u64,
    fast_cycles: u64,
}

impl ClockDivider {
    /// Creates a divider producing `slow_hz` ticks per `fast_hz` steps.
    ///
    /// The two arguments only need to be in the correct *ratio*; passing
    /// frequencies in MHz is as good as Hz.
    ///
    /// # Panics
    ///
    /// Panics if either frequency is zero or if `slow_hz > fast_hz`.
    pub fn new(slow_hz: u64, fast_hz: u64) -> Self {
        assert!(
            slow_hz > 0 && fast_hz > 0,
            "clock frequencies must be nonzero"
        );
        assert!(
            slow_hz <= fast_hz,
            "slow clock ({slow_hz}) must not be faster than fast clock ({fast_hz})"
        );
        ClockDivider {
            slow_hz,
            fast_hz,
            acc: 0,
            slow_cycles: 0,
            fast_cycles: 0,
        }
    }

    /// Advances the fast clock by one cycle; returns `true` when the
    /// slow clock ticks on this fast cycle.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.fast_cycles += 1;
        self.acc += self.slow_hz;
        if self.acc >= self.fast_hz {
            self.acc -= self.fast_hz;
            self.slow_cycles += 1;
            true
        } else {
            false
        }
    }

    /// Advances the fast clock by `n` cycles at once; returns the number
    /// of slow-clock ticks produced over that window.
    ///
    /// Byte-identical to calling [`ClockDivider::tick`] `n` times: the
    /// accumulator invariant `acc < fast_hz` means each tick subtracts
    /// `fast_hz` at most once, so the closed form
    /// `ticks = (acc + n * slow_hz) / fast_hz` is exact.
    #[inline]
    pub fn advance(&mut self, n: u64) -> u64 {
        self.fast_cycles += n;
        let total = self.acc + n * self.slow_hz;
        let ticks = total / self.fast_hz;
        self.acc = total % self.fast_hz;
        self.slow_cycles += ticks;
        ticks
    }

    /// Number of fast cycles until the `ticks`-th future slow tick: the
    /// smallest `f` such that [`ClockDivider::advance`]`(f)` would return
    /// at least `ticks`. Returns 0 when `ticks` is 0 and `u64::MAX` when
    /// the product overflows (an "event at infinity" horizon).
    #[inline]
    pub fn fast_cycles_until(&self, ticks: u64) -> u64 {
        if ticks == 0 {
            return 0;
        }
        // Smallest f with acc + f * slow_hz >= ticks * fast_hz.
        let Some(need) = ticks.checked_mul(self.fast_hz) else {
            return u64::MAX;
        };
        (need - self.acc).div_ceil(self.slow_hz)
    }

    /// Number of slow-clock cycles elapsed so far.
    #[inline]
    pub fn slow_cycles(&self) -> u64 {
        self.slow_cycles
    }

    /// Number of fast-clock cycles elapsed so far.
    #[inline]
    pub fn fast_cycles(&self) -> u64 {
        self.fast_cycles
    }
}

impl crate::codec::Snapshot for ClockDivider {
    /// The frequencies come from the constructor; only the accumulator
    /// and the two cycle counters are mutable state.
    fn save_state(&self, w: &mut crate::codec::ByteWriter) {
        w.put_u64(self.acc);
        w.put_u64(self.slow_cycles);
        w.put_u64(self.fast_cycles);
    }

    fn load_state(
        &mut self,
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<(), crate::codec::CodecError> {
        self.acc = r.get_u64()?;
        self.slow_cycles = r.get_u64()?;
        self.fast_cycles = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_integer_ratio() {
        let mut d = ClockDivider::new(1_066, 4_264);
        // exactly 4:1
        for i in 1..=4_264u64 {
            let ticked = d.tick();
            assert_eq!(ticked, i % 4 == 0, "cycle {i}");
        }
        assert_eq!(d.slow_cycles(), 1_066);
    }

    #[test]
    fn ddr3_2133_under_4_27_ghz() {
        // 1,066 MHz under 4,270 MHz: ratio ≈ 4.006.
        let mut d = ClockDivider::new(1_066, 4_270);
        let mut ticks = 0u64;
        for _ in 0..42_70000 {
            if d.tick() {
                ticks += 1;
            }
        }
        assert_eq!(ticks, 1_066_000);
    }

    #[test]
    fn ddr3_1600_ratio_is_fractional() {
        // 800 MHz bus under 4,270 MHz core: 5.3375 CPU cycles per DRAM cycle.
        let mut d = ClockDivider::new(800, 4_270);
        for _ in 0..42_700 {
            d.tick();
        }
        assert_eq!(d.slow_cycles(), 800 * 42_700 / 4_270);
    }

    #[test]
    fn unit_ratio_ticks_every_cycle() {
        let mut d = ClockDivider::new(5, 5);
        assert!(d.tick());
        assert!(d.tick());
        assert_eq!(d.slow_cycles(), 2);
        assert_eq!(d.fast_cycles(), 2);
    }

    #[test]
    #[should_panic(expected = "must not be faster")]
    fn rejects_inverted_ratio() {
        let _ = ClockDivider::new(10, 5);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_frequency() {
        let _ = ClockDivider::new(0, 5);
    }

    /// Over any multiple of the fast frequency, the tick count is exact
    /// (seeded property sweep).
    #[test]
    fn no_drift() {
        let mut rng = crate::SmallRng::seed_from_u64(0xD1F7);
        for _ in 0..64 {
            let slow = rng.gen_range(1..5_000);
            let mult = rng.gen_range(1..8);
            let fast = slow + (slow % 97) + 1; // fast >= slow
            let mut d = ClockDivider::new(slow, fast);
            let mut ticks = 0u64;
            for _ in 0..fast * mult {
                if d.tick() {
                    ticks += 1;
                }
            }
            assert_eq!(ticks, slow * mult, "slow={slow} mult={mult}");
        }
    }

    /// `advance(n)` matches `n` individual ticks exactly — accumulator,
    /// counters, and tick total — across random fractional ratios and
    /// batch sizes (seeded property sweep).
    #[test]
    fn advance_matches_serial_ticks() {
        let mut rng = crate::SmallRng::seed_from_u64(0xADA7);
        for _ in 0..64 {
            let slow = rng.gen_range(1..5_000);
            let fast = slow + rng.gen_range(0..5_000);
            let mut serial = ClockDivider::new(slow, fast);
            let mut batched = ClockDivider::new(slow, fast);
            for _ in 0..32 {
                let n = rng.gen_range(0..10_000);
                let mut ticks = 0u64;
                for _ in 0..n {
                    ticks += u64::from(serial.tick());
                }
                assert_eq!(batched.advance(n), ticks, "slow={slow} fast={fast} n={n}");
                assert_eq!(batched, serial);
            }
        }
    }

    /// `fast_cycles_until(d)` is the exact first-crossing point: advancing
    /// that many fast cycles yields at least `d` ticks, one fewer does not.
    #[test]
    fn fast_cycles_until_is_tight() {
        let mut rng = crate::SmallRng::seed_from_u64(0xF1A5);
        for _ in 0..64 {
            let slow = rng.gen_range(1..5_000);
            let fast = slow + rng.gen_range(0..5_000);
            let mut d = ClockDivider::new(slow, fast);
            d.advance(rng.gen_range(0..1_000)); // random accumulator phase
            let want = rng.gen_range(1..100);
            let f = d.fast_cycles_until(want);
            let mut probe = d.clone();
            assert!(probe.advance(f) >= want);
            let mut probe = d.clone();
            assert!(probe.advance(f - 1) < want, "slow={slow} fast={fast}");
        }
        let d = ClockDivider::new(1_066, 4_270);
        assert_eq!(d.fast_cycles_until(0), 0);
        assert_eq!(d.fast_cycles_until(u64::MAX), u64::MAX);
    }

    /// The accumulator never produces two slow ticks without at least
    /// one intervening fast cycle when slow <= fast/2.
    #[test]
    fn ticks_are_spread() {
        let mut rng = crate::SmallRng::seed_from_u64(0x5B12);
        for _ in 0..64 {
            let slow = rng.gen_range(1..100);
            let extra = rng.gen_range(1..100);
            let fast = slow + extra;
            let mut d = ClockDivider::new(slow, fast);
            let mut prev = false;
            let mut consecutive = 0u32;
            for _ in 0..10_000 {
                let t = d.tick();
                if t && prev {
                    consecutive += 1;
                }
                prev = t;
            }
            if slow * 2 <= fast {
                assert_eq!(consecutive, 0, "slow={slow} fast={fast}");
            }
        }
    }
}
