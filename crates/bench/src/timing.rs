//! Timing utilities for the harness: repeated-trial measurement, the
//! geometric mean the paper aggregates speedups with (Figure 2, Figures
//! 4–5), and a preconditioner wrapper that accumulates apply time (for the
//! Table VI "Apply" columns).

use mis2_solver::Preconditioner;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Time `f` over `trials` runs (at least one, after one untimed warmup
/// run); returns per-trial milliseconds.
fn time_trials<R>(trials: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    std::hint::black_box(f());
    (0..trials.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Median-of-trials milliseconds for `f` (after one warmup run).
pub fn time_ms<R>(trials: usize, f: impl FnMut() -> R) -> f64 {
    let mut samples = time_trials(trials, f);
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Mean-of-trials milliseconds (the paper's Table II averages 100 trials).
pub fn mean_ms<R>(trials: usize, f: impl FnMut() -> R) -> f64 {
    let samples = time_trials(trials, f);
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of strictly positive values (the paper's preferred
/// aggregate for speedups). Returns 0 for empty input.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Wraps a preconditioner and accumulates total apply wall time.
pub struct TimedPrecond<'a> {
    inner: &'a dyn Preconditioner,
    nanos: AtomicU64,
    applies: AtomicU64,
}

impl<'a> TimedPrecond<'a> {
    pub fn new(inner: &'a dyn Preconditioner) -> Self {
        TimedPrecond {
            inner,
            nanos: AtomicU64::new(0),
            applies: AtomicU64::new(0),
        }
    }

    /// Total seconds spent inside `apply`.
    pub fn apply_seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Number of applications.
    pub fn applies(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }
}

impl Preconditioner for TimedPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t = std::time::Instant::now();
        self.inner.apply(r, z);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.applies.fetch_add(1, Ordering::Relaxed);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_solver::Identity;

    #[test]
    fn timed_precond_counts() {
        let tp = TimedPrecond::new(&Identity);
        let r = vec![1.0; 100];
        let mut z = vec![0.0; 100];
        tp.apply(&r, &mut z);
        tp.apply(&r, &mut z);
        assert_eq!(tp.applies(), 2);
        assert!(tp.apply_seconds() >= 0.0);
        assert_eq!(z, r);
    }

    #[test]
    fn geomean_known() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn trials_count() {
        let samples = time_trials(5, || 1 + 1);
        assert_eq!(samples.len(), 5);
        assert_eq!(time_trials(0, || 1 + 1).len(), 1);
        assert!(samples.iter().all(|&ms| ms >= 0.0));
    }

    #[test]
    fn median_timing_positive() {
        let ms = time_ms(3, || (0..10_000u64).sum::<u64>());
        assert!(ms >= 0.0);
    }
}
