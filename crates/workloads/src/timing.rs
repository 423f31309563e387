//! JMH-like timing: warmup iterations, measurement iterations, and robust
//! statistics (median + Median Absolute Deviation), per the paper's §4.3
//! methodology (Georges et al. / Kalibera & Jones best practices, scaled to
//! a harness that runs in minutes rather than hours).

use std::time::Instant;

/// Measurement configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// Warmup iterations (discarded).
    pub warmup_iters: usize,
    /// Measured iterations.
    pub measure_iters: usize,
    /// Inner repetitions per iteration (amortizes timer overhead for
    /// nanosecond-scale operations).
    pub inner_reps: usize,
}

impl BenchOptions {
    /// Quick profile used by the table-printing binaries. The inner
    /// repetitions amortize timer overhead: a burst of 8 operations runs in
    /// hundreds of nanoseconds, far below `Instant::now` resolution.
    pub const QUICK: BenchOptions = BenchOptions {
        warmup_iters: 5,
        measure_iters: 11,
        inner_reps: 32,
    };

    /// Thorough profile (closer to the paper's 10 + 20 iterations).
    pub const THOROUGH: BenchOptions = BenchOptions {
        warmup_iters: 10,
        measure_iters: 20,
        inner_reps: 64,
    };
}

/// Robust summary of one benchmark's iteration times, in nanoseconds per
/// *inner repetition*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Median iteration time.
    pub median_ns: f64,
    /// Median absolute deviation.
    pub mad_ns: f64,
    /// Number of measured iterations.
    pub iters: usize,
}

impl Stats {
    /// Speedup of `self` relative to `baseline`: `baseline_median /
    /// self_median`, so > 1 means `self` is faster than `baseline`.
    pub fn ratio_to(&self, baseline: &Stats) -> f64 {
        baseline.median_ns / self.median_ns
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Runs `f` under `opts` and reports robust statistics. The closure's return
/// value is passed through [`std::hint::black_box`] so its computation
/// cannot be optimized away.
pub fn measure<R>(opts: &BenchOptions, mut f: impl FnMut() -> R) -> Stats {
    for _ in 0..opts.warmup_iters {
        std::hint::black_box(f());
    }
    let mut samples = Vec::with_capacity(opts.measure_iters);
    for _ in 0..opts.measure_iters {
        let start = Instant::now();
        for _ in 0..opts.inner_reps {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed().as_nanos() as f64 / opts.inner_reps as f64;
        samples.push(elapsed);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let med = median(&samples);
    let mut deviations: Vec<f64> = samples.iter().map(|s| (s - med).abs()).collect();
    deviations.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Stats {
        median_ns: med,
        mad_ns: median(&deviations),
        iters: samples.len(),
    }
}

/// Summary of a per-size ratio series: the box-plot-style numbers the
/// paper's Figures 4-6 visualize (median, quartiles, min/max of speedups
/// across all size data points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSummary {
    /// Smallest observed ratio.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median ratio.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observed ratio.
    pub max: f64,
}

impl RatioSummary {
    /// Summarizes a set of ratios (one per size/seed data point).
    ///
    /// # Panics
    ///
    /// Panics if `ratios` is empty.
    pub fn of(mut ratios: Vec<f64>) -> RatioSummary {
        assert!(!ratios.is_empty(), "no data points");
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| -> f64 {
            let idx = p * (ratios.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            if lo == hi {
                ratios[lo]
            } else {
                ratios[lo] + (ratios[hi] - ratios[lo]) * (idx - lo as f64)
            }
        };
        RatioSummary {
            min: ratios[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: *ratios.last().unwrap(),
        }
    }
}

impl std::fmt::Display for RatioSummary {
    /// Formats like the paper's prose: `×1.47 (q1 ×1.31, q3 ×1.62)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "x{:.2} [min x{:.2}, q1 x{:.2}, q3 x{:.2}, max x{:.2}]",
            self.median, self.min, self.q1, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_times() {
        let stats = measure(&BenchOptions::QUICK, || (0..1000u64).sum::<u64>());
        assert!(stats.median_ns > 0.0);
        assert_eq!(stats.iters, BenchOptions::QUICK.measure_iters);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_direction() {
        let fast = Stats {
            median_ns: 100.0,
            mad_ns: 0.0,
            iters: 1,
        };
        let slow = Stats {
            median_ns: 200.0,
            mad_ns: 0.0,
            iters: 1,
        };
        // fast relative to slow baseline: 2x speedup.
        assert!((fast.ratio_to(&slow) - 2.0).abs() < 1e-9);
        assert!((slow.ratio_to(&fast) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ratio_summary_quartiles() {
        let s = RatioSummary::of(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        let single = RatioSummary::of(vec![1.5]);
        assert_eq!(single.median, 1.5);
    }

    #[test]
    #[should_panic(expected = "no data points")]
    fn empty_summary_panics() {
        let _ = RatioSummary::of(vec![]);
    }
}
