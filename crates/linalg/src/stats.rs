//! Descriptive statistics and correlation measures.
//!
//! The content-based half of Bolt's hybrid recommender scores the similarity
//! between a new application and every previously-seen one with a *weighted*
//! Pearson correlation (paper §3.2, Eq. 1) whose weights are the top
//! singular values of the training matrix. This module implements that
//! measure along with plain Pearson, weighted means/covariances, percentile
//! estimation (for tail-latency reporting), and simple histograms (for the
//! paper's PDF plots).

use crate::{kernels, LinalgError};

/// Validates a fused weight sum: errors on an empty input, a zero or
/// denormal weight sum (no usable mass — dividing by it yields NaN or
/// garbage), or a non-finite weight sum (a NaN/∞ weight slipped in).
///
/// Centralizing this check is the "never a silent NaN" guarantee for
/// [`weighted_mean`], [`weighted_covariance`], and [`weighted_pearson`]:
/// previously a NaN weight produced `wsum = NaN ≠ 0.0`, sailed past the
/// zero check, and returned NaN to the caller.
fn check_wsum(wsum: f64, n: usize, op: &'static str) -> Result<(), LinalgError> {
    if n == 0 || wsum == 0.0 || wsum.is_subnormal() {
        return Err(LinalgError::InsufficientData {
            op,
            got: n,
            need: 1,
        });
    }
    if !wsum.is_finite() {
        return Err(LinalgError::NonFiniteInput { op });
    }
    Ok(())
}

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`LinalgError::InsufficientData`] if `xs` is empty.
pub fn mean(xs: &[f64]) -> Result<f64, LinalgError> {
    if xs.is_empty() {
        return Err(LinalgError::InsufficientData {
            op: "mean",
            got: 0,
            need: 1,
        });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance.
///
/// # Errors
///
/// Returns [`LinalgError::InsufficientData`] if `xs` is empty.
pub fn variance(xs: &[f64]) -> Result<f64, LinalgError> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics, matching the common "linear" method.
///
/// # Errors
///
/// * [`LinalgError::InsufficientData`] if `xs` is empty.
/// * [`LinalgError::NonFiniteInput`] if `xs` contains NaN (NaN cannot be
///   ordered) or `p` is outside `[0, 100]`.
///
/// # Example
///
/// ```
/// use bolt_linalg::stats::percentile;
///
/// # fn main() -> Result<(), bolt_linalg::LinalgError> {
/// let latencies = vec![1.0, 2.0, 3.0, 4.0, 100.0];
/// assert_eq!(percentile(&latencies, 50.0)?, 3.0);
/// assert_eq!(percentile(&latencies, 100.0)?, 100.0);
/// # Ok(())
/// # }
/// ```
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, LinalgError> {
    if xs.is_empty() {
        return Err(LinalgError::InsufficientData {
            op: "percentile",
            got: 0,
            need: 1,
        });
    }
    if !(0.0..=100.0).contains(&p) || xs.iter().any(|x| x.is_nan()) {
        return Err(LinalgError::NonFiniteInput { op: "percentile" });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return Ok(sorted[lo]);
    }
    let frac = rank - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Plain (unweighted) Pearson correlation coefficient.
///
/// Returns 0 when either input is constant (zero variance), which is the
/// behaviour the recommender wants: a flat profile carries no directional
/// similarity information.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if the slices differ in length.
/// * [`LinalgError::InsufficientData`] if fewer than 2 points.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64, LinalgError> {
    let n = xs.len();
    if n != ys.len() {
        return Err(LinalgError::DimensionMismatch {
            left: (n, 1),
            right: (ys.len(), 1),
            op: "pearson",
        });
    }
    if n < 2 {
        return Err(LinalgError::InsufficientData {
            op: "pearson",
            got: n,
            need: 2,
        });
    }
    let w = vec![1.0; n];
    weighted_pearson(xs, ys, &w)
}

/// Weighted mean `m(x; w) = Σ wᵢ xᵢ / Σ wᵢ`.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if lengths differ.
/// * [`LinalgError::InsufficientData`] if empty or the weight sum is zero
///   or denormal (no usable weight mass).
/// * [`LinalgError::NonFiniteInput`] if the weight sum is not finite.
pub fn weighted_mean(xs: &[f64], weights: &[f64]) -> Result<f64, LinalgError> {
    if xs.len() != weights.len() {
        return Err(LinalgError::DimensionMismatch {
            left: (xs.len(), 1),
            right: (weights.len(), 1),
            op: "weighted_mean",
        });
    }
    let (wsum, sx) = kernels::weighted_sum(xs, weights);
    check_wsum(wsum, xs.len(), "weighted_mean")?;
    Ok(sx / wsum)
}

/// Weighted covariance
/// `cov(x, y; w) = Σ wᵢ (xᵢ − m(x;w))(yᵢ − m(y;w)) / Σ wᵢ`.
///
/// # Errors
///
/// Same conditions as [`weighted_mean`].
pub fn weighted_covariance(xs: &[f64], ys: &[f64], weights: &[f64]) -> Result<f64, LinalgError> {
    if xs.len() != ys.len() || xs.len() != weights.len() {
        return Err(LinalgError::DimensionMismatch {
            left: (xs.len(), 1),
            right: (ys.len().max(weights.len()), 1),
            op: "weighted_covariance",
        });
    }
    let (wsum, sx, sy) = kernels::weighted_sums2(xs, ys, weights);
    check_wsum(wsum, xs.len(), "weighted_covariance")?;
    let mx = sx / wsum;
    let my = sy / wsum;
    Ok(kernels::weighted_comoment(xs, ys, weights, mx, my) / wsum)
}

/// Weighted Pearson correlation (paper Eq. 1):
///
/// `WP(A, B; σ) = cov(A, B; σ) / sqrt(cov(A, A; σ) · cov(B, B; σ))`
///
/// where the weights σ are the magnitudes of the retained similarity
/// concepts (singular values). With uniform weights this reduces exactly to
/// plain Pearson. Returns 0 when either input has zero weighted variance.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if lengths differ.
/// * [`LinalgError::InsufficientData`] if fewer than 2 points or all weights
///   are zero.
/// * [`LinalgError::NonFiniteInput`] if any input or weight is not finite or
///   a weight is negative.
///
/// # Example
///
/// ```
/// use bolt_linalg::stats::weighted_pearson;
///
/// # fn main() -> Result<(), bolt_linalg::LinalgError> {
/// let a = [1.0, 2.0, 3.0];
/// let b = [2.0, 4.0, 6.0];
/// let w = [5.0, 3.0, 1.0];
/// assert!((weighted_pearson(&a, &b, &w)? - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn weighted_pearson(xs: &[f64], ys: &[f64], weights: &[f64]) -> Result<f64, LinalgError> {
    if xs.len() != ys.len() || xs.len() != weights.len() {
        return Err(LinalgError::DimensionMismatch {
            left: (xs.len(), 1),
            right: (ys.len().max(weights.len()), 1),
            op: "weighted_pearson",
        });
    }
    if xs.len() < 2 {
        return Err(LinalgError::InsufficientData {
            op: "weighted_pearson",
            got: xs.len(),
            need: 2,
        });
    }
    if xs.iter().chain(ys).chain(weights).any(|v| !v.is_finite())
        || weights.iter().any(|&w| w < 0.0)
    {
        return Err(LinalgError::NonFiniteInput {
            op: "weighted_pearson",
        });
    }
    // One fused pass for (Σw, Σxw, Σyw) and one for the three second
    // moments, instead of three `weighted_covariance` calls that each
    // recompute the weight sum and means (~8 passes). Each accumulator's
    // add order matches the separate loops, so results are bit-identical.
    let (wsum, sx, sy) = kernels::weighted_sums2(xs, ys, weights);
    check_wsum(wsum, xs.len(), "weighted_pearson")?;
    let mx = sx / wsum;
    let my = sy / wsum;
    let (sxy, sxx, syy) = kernels::weighted_moments(xs, ys, weights, mx, my);
    let cxy = sxy / wsum;
    let cxx = sxx / wsum;
    let cyy = syy / wsum;
    let denom = (cxx * cyy).sqrt();
    if denom == 0.0 {
        return Ok(0.0);
    }
    // Clamp tiny floating-point excursions outside [-1, 1].
    Ok((cxy / denom).clamp(-1.0, 1.0))
}

/// A fixed-width histogram over a closed interval, used for the paper's PDF
/// plots (e.g. iterations-until-detection, Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, LinalgError> {
        if bins == 0 || lo >= hi || !lo.is_finite() || !hi.is_finite() {
            return Err(LinalgError::InvalidShape {
                reason: format!("bad histogram spec: [{lo}, {hi}] with {bins} bins"),
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Records a sample. Samples outside `[lo, hi]` are clamped into the
    /// first/last bin; NaN samples are ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let bins = self.counts.len();
        let span = self.hi - self.lo;
        let idx = (((x - self.lo) / span) * bins as f64).floor();
        let idx = (idx.max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The empirical PDF: each bin's fraction of the total (0 if empty).
    pub fn pdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// The center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert_eq!(variance(&xs).unwrap(), 4.0);
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 4.0);
        assert!((percentile(&xs, 50.0).unwrap() - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 75.0).unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_bad_inputs() {
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0], -1.0).is_err());
        assert!(percentile(&[1.0], 101.0).is_err());
        assert!(percentile(&[f64::NAN], 50.0).is_err());
    }

    #[test]
    fn pearson_perfect_correlations() {
        let a = [1.0, 2.0, 3.0];
        let up = [10.0, 20.0, 30.0];
        let down = [3.0, 2.0, 1.0];
        assert!((pearson(&a, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_input_is_zero() {
        let a = [1.0, 1.0, 1.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&a, &b).unwrap(), 0.0);
    }

    #[test]
    fn pearson_validates() {
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn weighted_mean_known_value() {
        let xs = [1.0, 3.0];
        let w = [3.0, 1.0];
        assert_eq!(weighted_mean(&xs, &w).unwrap(), 1.5);
        assert!(weighted_mean(&xs, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn weighted_pearson_uniform_weights_matches_plain() {
        let a = [1.0, 4.0, 2.0, 8.0, 5.0];
        let b = [2.0, 3.0, 1.0, 9.0, 4.0];
        let plain = pearson(&a, &b).unwrap();
        let weighted = weighted_pearson(&a, &b, &[2.5; 5]).unwrap();
        assert!((plain - weighted).abs() < 1e-12);
    }

    #[test]
    fn weighted_pearson_emphasizes_heavy_components() {
        // a and b agree on the first (heavy) component and disagree on the
        // light tail; the weighted correlation should exceed the plain one.
        let a = [10.0, 1.0, 2.0, 3.0];
        let b = [10.0, 3.0, 2.0, 1.0];
        let w = [100.0, 1.0, 1.0, 1.0];
        let heavy = weighted_pearson(&a, &b, &w).unwrap();
        let plain = pearson(&a, &b).unwrap();
        assert!(heavy > plain, "heavy {heavy} should exceed plain {plain}");
    }

    #[test]
    fn weighted_pearson_rejects_negative_weights() {
        assert!(matches!(
            weighted_pearson(&[1.0, 2.0], &[1.0, 2.0], &[1.0, -1.0]),
            Err(LinalgError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn zero_weight_sum_is_error_not_nan() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 1.0, 2.0];
        let zeros = [0.0; 3];
        assert!(matches!(
            weighted_mean(&a, &zeros),
            Err(LinalgError::InsufficientData { .. })
        ));
        assert!(matches!(
            weighted_covariance(&a, &b, &zeros),
            Err(LinalgError::InsufficientData { .. })
        ));
        assert!(matches!(
            weighted_pearson(&a, &b, &zeros),
            Err(LinalgError::InsufficientData { .. })
        ));
    }

    #[test]
    fn denormal_weight_sum_is_error_not_garbage() {
        // Individually denormal weights sum to a denormal: dividing by it
        // overflows or flushes and used to yield silently-wrong numbers.
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 1.0, 2.0];
        let tiny = [1e-320; 3];
        assert!((tiny.iter().sum::<f64>()).is_subnormal());
        assert!(matches!(
            weighted_mean(&a, &tiny),
            Err(LinalgError::InsufficientData { .. })
        ));
        assert!(matches!(
            weighted_covariance(&a, &b, &tiny),
            Err(LinalgError::InsufficientData { .. })
        ));
        assert!(matches!(
            weighted_pearson(&a, &b, &tiny),
            Err(LinalgError::InsufficientData { .. })
        ));
    }

    #[test]
    fn nan_weight_is_error_not_silent_nan() {
        // A NaN weight made wsum NaN, which passed the old `wsum == 0.0`
        // guard and leaked NaN through mean and covariance.
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 1.0, 2.0];
        let w = [1.0, f64::NAN, 1.0];
        assert!(matches!(
            weighted_mean(&a, &w),
            Err(LinalgError::NonFiniteInput { .. })
        ));
        assert!(matches!(
            weighted_covariance(&a, &b, &w),
            Err(LinalgError::NonFiniteInput { .. })
        ));
        // weighted_pearson already rejected non-finite weights up front.
        assert!(matches!(
            weighted_pearson(&a, &b, &w),
            Err(LinalgError::NonFiniteInput { .. })
        ));
        let winf = [1.0, f64::INFINITY, 1.0];
        assert!(matches!(
            weighted_mean(&a, &winf),
            Err(LinalgError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn weighted_pearson_in_unit_interval() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 1.0, 3.0, 2.0];
        let w = [1.0, 5.0, 2.0, 0.5];
        let r = weighted_pearson(&a, &b, &w).unwrap();
        assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn histogram_records_and_normalizes() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        for x in [0.5, 1.5, 2.5, 2.6, 9.9, -5.0, 50.0, f64::NAN] {
            h.record(x);
        }
        assert_eq!(h.total(), 7); // NaN ignored
        assert_eq!(h.counts()[0], 3); // 0.5, 1.5, and clamped -5.0
        assert_eq!(h.counts()[1], 2); // 2.5, 2.6 -> bin [2,4)
        assert_eq!(h.counts()[4], 2); // 9.9 and clamped 50.0
        let pdf = h.pdf();
        assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bin_center() {
        let h = Histogram::new(0.0, 10.0, 5).unwrap();
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    fn histogram_rejects_bad_spec() {
        assert!(Histogram::new(0.0, 10.0, 0).is_err());
        assert!(Histogram::new(5.0, 5.0, 3).is_err());
        assert!(Histogram::new(9.0, 1.0, 3).is_err());
    }

    #[test]
    fn empty_histogram_pdf_is_zero() {
        let h = Histogram::new(0.0, 1.0, 3).unwrap();
        assert_eq!(h.pdf(), vec![0.0, 0.0, 0.0]);
    }
}
