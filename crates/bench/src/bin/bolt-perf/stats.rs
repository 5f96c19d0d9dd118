//! Order statistics and the noise-band regression classifier.

/// Samples a tail percentile must leave beyond it before it is reported
/// as measured rather than as an artefact of too few samples.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples: the
/// smallest rank with at least `p`% of the samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `p`-th percentile of ascending `sorted` samples: always
/// one of the samples, never an interpolation between two.
///
/// # Panics
///
/// On an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile. A tail percentile is only reported as measured when this
/// is at least [`MIN_BEYOND`].
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads agree with tools written against it.
/// `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3i64) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run noise band of one metric.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, set-up time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The wire name used in `BENCHMARK.json` and the run records.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a candidate set of runs compares with a baseline set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate median improves on the baseline by more than the
    /// baseline's own spread, or every candidate run beats every baseline
    /// run.
    Better,
    /// Within the bound, and not better beyond the noise band.
    Unchanged,
    /// The candidate median is worse than the baseline's by more than
    /// the metric's bound.
    WorseBeyondBound,
    /// The baseline's own quartile spread exceeds the bound (or there are
    /// too few baseline runs to know it): no call can be made.
    Unresolved,
}

impl Verdict {
    /// Human-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::WorseBeyondBound => "worse beyond bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies candidate runs `b` against baseline runs `a` of one metric
/// whose regression bound is `bound` (a share of the baseline median).
pub fn classify(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let wins = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_b_win = b.iter().all(|&y| a.iter().all(|&x| wins(y, x)));
    let Some(noise) = spread(a) else {
        return Verdict::Unresolved;
    };
    if noise > bound {
        return if all_b_win {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse > bound {
        Verdict::WorseBeyondBound
    } else if worse < 0.0 && (-worse > noise || all_b_win) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_samples_and_counts_the_tail() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 500.0);
        assert_eq!(nearest_rank(&sorted, 99.0), 990.0);
        assert_eq!(nearest_rank(&sorted, 100.0), 1000.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        // The ≥10-beyond rule: p99 needs at least 1,000 samples.
        assert_eq!(beyond(1000, 99.0), MIN_BEYOND);
        assert_eq!(beyond(1080, 99.0), 10);
        assert!(beyond(999, 99.0) < MIN_BEYOND);
        assert!(beyond(540, 99.0) < MIN_BEYOND);
        assert_eq!(beyond(0, 99.0), 0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn classify_covers_every_verdict() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Latency 20% higher with a 10% bound: a regression.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            classify(&base, &slow, Better::Lower, 0.10),
            Verdict::WorseBeyondBound
        );
        // The same numbers as throughput are an improvement.
        assert_eq!(
            classify(&base, &slow, Better::Higher, 0.10),
            Verdict::Better
        );
        // Inside the noise band: unchanged.
        let same = [100.2, 100.8, 99.1, 100.0, 99.9];
        assert_eq!(
            classify(&base, &same, Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // 5% worse with a 10% bound: tolerated.
        let bit_worse = [105.0, 105.5, 104.5, 105.2, 104.8];
        assert_eq!(
            classify(&base, &bit_worse, Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // A baseline noisier than the bound cannot call a regression...
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            classify(&noisy, &slow, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ...but a candidate beating every baseline run is still better.
        let fast = [10.0, 11.0, 12.0];
        assert_eq!(
            classify(&noisy, &fast, Better::Lower, 0.10),
            Verdict::Better
        );
        // One baseline run has no measurable spread.
        assert_eq!(
            classify(&[100.0], &same, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&[], &same, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
