//! Lightweight statistics primitives used throughout the evaluation:
//! running means and fixed-bucket histograms.
//!
//! These are deliberately simple — the simulator's hot loops increment
//! them billions of times, so every operation is a handful of integer
//! instructions.

use crate::codec::{ByteReader, ByteWriter, CodecError};

/// An online mean over `u64` samples (e.g. per-request latencies).
///
/// Stores sum and count; exact for the magnitudes the simulator
/// produces (sums stay far below 2^64).
///
/// # Examples
///
/// ```
/// use critmem_common::RunningMean;
/// let mut m = RunningMean::default();
/// m.record(10);
/// m.record(20);
/// assert_eq!(m.mean(), Some(15.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunningMean {
    sum: u64,
    count: u64,
}

impl RunningMean {
    /// Creates an empty mean.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        self.sum += sample;
        self.count += 1;
    }

    /// The mean, or `None` before any sample was recorded.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Total of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.sum);
        w.put_u64(self.count);
    }

    /// Deserializes a journaled mean.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(RunningMean {
            sum: r.get_u64()?,
            count: r.get_u64()?,
        })
    }
}

/// A histogram over power-of-two buckets: bucket *i* holds samples in
/// `[2^i, 2^(i+1))`, with bucket 0 holding 0 and 1.
///
/// Used for stall-time and latency distributions (Table 5 derives
/// counter bit-widths from the maximum observed values, which the
/// histogram also tracks exactly).
///
/// # Examples
///
/// ```
/// use critmem_common::Histogram;
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(5);
/// h.record(13_475);
/// assert_eq!(h.max(), Some(13_475));
/// assert_eq!(h.count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        let bucket = if sample < 2 {
            0
        } else {
            63 - sample.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += sample;
        self.max = self.max.max(sample);
        self.min = self.min.min(sample);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample, or `None` if empty.
    #[inline]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Smallest sample, or `None` if empty.
    #[inline]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Mean of all samples, or `None` if empty.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Raw bucket counts (bucket *i* covers `[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// The number of bits needed to store the largest observed value —
    /// the paper's Table 5 "Width" column.
    pub fn required_bits(&self) -> u32 {
        match self.max() {
            None | Some(0) => 1,
            Some(m) => 64 - m.leading_zeros(),
        }
    }

    /// Serializes for the sweep journal.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64_seq(&self.buckets);
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.max);
        w.put_u64(self.min);
    }

    /// Deserializes a journaled histogram.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream or a bucket count other than 64.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let raw = r.get_u64_seq()?;
        let buckets: [u64; 64] = raw.try_into().map_err(|v: Vec<u64>| CodecError {
            message: format!("histogram with {} buckets (expected 64)", v.len()),
            offset: r.position(),
        })?;
        Ok(Histogram {
            buckets,
            count: r.get_u64()?,
            sum: r.get_u64()?,
            max: r.get_u64()?,
            min: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_empty_is_none() {
        assert_eq!(RunningMean::new().mean(), None);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.buckets()[0], 2); // 0, 1
        assert_eq!(h.buckets()[1], 2); // 2, 3
        assert_eq!(h.buckets()[2], 1); // 4
    }

    #[test]
    fn histogram_required_bits_matches_paper_table5() {
        // Paper Table 5: max 13,475 -> 14 bits; 1,975,691 -> 21 bits;
        // 112,753,587 -> 27 bits.
        for (max, bits) in [
            (13_475u64, 14u32),
            (1_975_691, 21),
            (112_753_587, 27),
            (1, 1),
        ] {
            let mut h = Histogram::new();
            h.record(max);
            assert_eq!(h.required_bits(), bits, "max = {max}");
        }
    }

    #[test]
    fn histogram_empty_stats() {
        let h = Histogram::new();
        assert_eq!(h.max(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.required_bits(), 1);
    }

    fn random_samples(
        rng: &mut crate::SmallRng,
        bound: u64,
        min_len: u64,
        max_len: u64,
    ) -> Vec<u64> {
        let n = rng.gen_range(min_len..max_len);
        (0..n).map(|_| rng.gen_range(0..bound)).collect()
    }

    /// Seeded property sweep: recording never loses samples.
    #[test]
    fn histogram_total_preserved() {
        let mut rng = crate::SmallRng::seed_from_u64(0x4157);
        for _ in 0..64 {
            let samples = random_samples(&mut rng, 1_000_000, 0, 200);
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            assert_eq!(h.count(), samples.len() as u64);
            if let Some(max) = samples.iter().max() {
                assert_eq!(h.max(), Some(*max));
            }
            let bucket_total: u64 = h.buckets().iter().sum();
            assert_eq!(bucket_total, samples.len() as u64);
        }
    }
}
