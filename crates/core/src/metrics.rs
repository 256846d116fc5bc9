//! Evaluation metrics: speedups, averages, and the weighted-speedup /
//! maximum-slowdown metrics used for multiprogrammed workloads
//! (Snavely & Tullsen, as the paper does in §5.8.2).

use crate::system::RunStats;

/// Speedup of `variant` over `baseline` by total execution time.
pub fn speedup(baseline: &RunStats, variant: &RunStats) -> f64 {
    baseline.cycles as f64 / variant.cycles as f64
}

/// Geometric mean of a slice of positive ratios.
///
/// # Panics
///
/// Panics if the slice is empty or any value is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Which average a report uses (the paper reports arithmetic averages
/// of speedups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Average {
    /// Arithmetic mean.
    Arithmetic,
    /// Geometric mean.
    Geometric,
}

impl Average {
    /// Applies the average.
    pub fn apply(self, values: &[f64]) -> f64 {
        match self {
            Average::Arithmetic => mean(values),
            Average::Geometric => geomean(values),
        }
    }
}

/// Weighted speedup of a multiprogrammed run: `Σ IPC_shared / IPC_alone`.
///
/// `alone_ipc[i]` must be the IPC of application *i* running alone on
/// the baseline (PAR-BS) configuration, as the paper specifies.
///
/// # Panics
///
/// Panics if the lengths differ or any alone-IPC is non-positive.
pub fn weighted_speedup(shared: &RunStats, alone_ipc: &[f64]) -> f64 {
    assert_eq!(
        shared.cores.len(),
        alone_ipc.len(),
        "per-app IPC length mismatch"
    );
    shared
        .core_finish
        .iter()
        .enumerate()
        .map(|(i, _)| {
            assert!(alone_ipc[i] > 0.0, "alone IPC must be positive");
            shared.ipc(i) / alone_ipc[i]
        })
        .sum()
}

/// Per-application slowdowns of a multiprogrammed run:
/// `IPC_alone_i / IPC_shared_i`, in core order.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn slowdowns(shared: &RunStats, alone_ipc: &[f64]) -> Vec<f64> {
    assert_eq!(
        shared.cores.len(),
        alone_ipc.len(),
        "per-app IPC length mismatch"
    );
    (0..alone_ipc.len())
        .map(|i| alone_ipc[i] / shared.ipc(i))
        .collect()
}

/// Per-agent slowdowns of a run with accelerator-class agents:
/// `finish_shared_i / finish_alone_i`, in agent order. An agent has no
/// IPC, so its slowdown compares the cycle at which it reached its
/// fixed work-unit target beside the others with the cycle it reached
/// it alone.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn agent_slowdowns(shared: &RunStats, alone_finish: &[f64]) -> Vec<f64> {
    assert_eq!(
        shared.agents.len(),
        alone_finish.len(),
        "per-agent finish length mismatch"
    );
    shared
        .agents
        .iter()
        .zip(alone_finish)
        .map(|(a, &alone)| a.finish.max(1) as f64 / alone)
        .collect()
}

/// Maximum slowdown of a multiprogrammed run: `max_i IPC_alone / IPC_shared`
/// — TCM's fairness metric.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_slowdown(shared: &RunStats, alone_ipc: &[f64]) -> f64 {
    slowdowns(shared, alone_ipc).into_iter().fold(0.0, f64::max)
}

/// Harmonic speedup of a multiprogrammed run:
/// `N / Σ_i IPC_alone_i / IPC_shared_i` (Luo, Gummaraju & Franklin) —
/// the balanced performance–fairness metric: it rewards throughput but
/// collapses toward the slowest application, so a run that sacrifices
/// one application for the others scores poorly. Zero for a run
/// without applications (an agent-only mix).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn harmonic_speedup(shared: &RunStats, alone_ipc: &[f64]) -> f64 {
    let slowdowns = slowdowns(shared, alone_ipc);
    if slowdowns.is_empty() {
        return 0.0;
    }
    slowdowns.len() as f64 / slowdowns.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_known_value() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_known_value() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_rejects_empty() {
        let _ = geomean(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn averages_dispatch() {
        let v = [1.0, 4.0];
        assert!((Average::Arithmetic.apply(&v) - 2.5).abs() < 1e-12);
        assert!((Average::Geometric.apply(&v) - 2.0).abs() < 1e-12);
    }
}
