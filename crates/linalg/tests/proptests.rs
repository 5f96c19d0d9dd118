//! Property-based tests for the linear-algebra kernels.

use bolt_linalg::stats::{pearson, percentile, weighted_pearson, Histogram};
use bolt_linalg::svd::{energy_rank, Svd};
use bolt_linalg::Matrix;
use proptest::prelude::*;

/// Strategy for a small matrix with entries in a bounded range.
fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..6, 1usize..6).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("valid shape"))
    })
}

proptest! {
    #[test]
    fn svd_reconstruction_is_accurate(m in small_matrix()) {
        let svd = Svd::compute(&m).expect("svd converges on finite input");
        let back = svd.reconstruct().expect("reconstruct");
        let err = m.max_abs_diff(&back).expect("same shape");
        prop_assert!(err < 1e-7, "reconstruction error {err}");
    }

    #[test]
    fn svd_singular_values_nonnegative_sorted(m in small_matrix()) {
        let svd = Svd::compute(&m).expect("svd");
        let s = svd.singular_values();
        prop_assert!(s.iter().all(|&v| v >= 0.0));
        for w in s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn svd_frobenius_energy_preserved(m in small_matrix()) {
        // ||M||_F^2 == sum of squared singular values.
        let svd = Svd::compute(&m).expect("svd");
        let energy: f64 = svd.singular_values().iter().map(|s| s * s).sum();
        let frob2 = m.frobenius_norm().powi(2);
        prop_assert!((energy - frob2).abs() <= 1e-6 * (1.0 + frob2));
    }

    #[test]
    fn energy_rank_is_valid_and_monotone(
        sigma in proptest::collection::vec(0.0f64..50.0, 1..8),
    ) {
        let mut sigma = sigma;
        sigma.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let r50 = energy_rank(&sigma, 0.50);
        let r90 = energy_rank(&sigma, 0.90);
        let r100 = energy_rank(&sigma, 1.0);
        prop_assert!(r50 >= 1 && r100 <= sigma.len());
        prop_assert!(r50 <= r90 && r90 <= r100);
    }

    #[test]
    fn weighted_pearson_bounded(
        data in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0, 0.01f64..10.0), 2..12),
    ) {
        let xs: Vec<f64> = data.iter().map(|t| t.0).collect();
        let ys: Vec<f64> = data.iter().map(|t| t.1).collect();
        let ws: Vec<f64> = data.iter().map(|t| t.2).collect();
        let r = weighted_pearson(&xs, &ys, &ws).expect("valid input");
        prop_assert!((-1.0..=1.0).contains(&r), "correlation {r} out of range");
    }

    #[test]
    fn weighted_pearson_uniform_equals_plain(
        data in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..12),
        w in 0.1f64..10.0,
    ) {
        let xs: Vec<f64> = data.iter().map(|t| t.0).collect();
        let ys: Vec<f64> = data.iter().map(|t| t.1).collect();
        let ws = vec![w; xs.len()];
        let plain = pearson(&xs, &ys).expect("plain");
        let weighted = weighted_pearson(&xs, &ys, &ws).expect("weighted");
        prop_assert!((plain - weighted).abs() < 1e-9);
    }

    #[test]
    fn weighted_pearson_self_correlation_is_one(
        data in proptest::collection::vec((-50.0f64..50.0, 0.01f64..10.0), 2..12),
    ) {
        let xs: Vec<f64> = data.iter().map(|t| t.0).collect();
        let ws: Vec<f64> = data.iter().map(|t| t.1).collect();
        // Skip degenerate constant vectors (correlation defined as 0 there).
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assume!(xs.iter().any(|x| (x - m).abs() > 1e-6));
        let r = weighted_pearson(&xs, &xs, &ws).expect("valid");
        prop_assert!((r - 1.0).abs() < 1e-9, "self correlation {r}");
    }

    #[test]
    fn percentile_within_data_range(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..50),
        p in 0.0f64..=100.0,
    ) {
        let v = percentile(&xs, p).expect("valid");
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn percentile_monotone_in_p(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..30),
        p1 in 0.0f64..=100.0,
        p2 in 0.0f64..=100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo).expect("valid");
        let b = percentile(&xs, hi).expect("valid");
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn percentile_matches_linear_interpolation(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..30),
        p in 0.0f64..=100.0,
    ) {
        // Pin the interpolation scheme: rank = p/100 * (n-1), linear
        // blend between the two bracketing order statistics.
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let frac = rank - lo as f64;
        let expected = if lo + 1 < sorted.len() {
            sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
        } else {
            sorted[lo]
        };
        let got = percentile(&xs, p).expect("valid");
        prop_assert!(
            (got - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
            "percentile({p}) = {got}, expected {expected}"
        );
        // And the result is bracketed by the order statistics around it.
        let hi_idx = (lo + 1).min(sorted.len() - 1);
        prop_assert!(got >= sorted[lo] - 1e-9 && got <= sorted[hi_idx] + 1e-9);
    }

    #[test]
    fn histogram_clamps_out_of_range_samples(
        lo in -100.0f64..0.0,
        width in 1.0f64..100.0,
        bins in 1usize..16,
        raw in proptest::collection::vec((0u8..8, -1e9f64..1e9), 0..40),
    ) {
        let hi = lo + width;
        // Mix the specials in by selector: ±∞ and NaN alongside finite
        // samples far outside the histogram's range.
        let xs: Vec<f64> = raw
            .into_iter()
            .map(|(k, v)| match k {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => f64::NAN,
                _ => v,
            })
            .collect();
        let mut h = Histogram::new(lo, hi, bins).expect("valid spec");
        for &x in &xs {
            h.record(x);
        }
        // NaN is dropped; everything else lands in exactly one bin.
        let finite_or_inf = xs.iter().filter(|x| !x.is_nan()).count() as u64;
        prop_assert_eq!(h.total(), finite_or_inf);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), finite_or_inf);
        // Below-range samples (including -inf) clamp into the first bin,
        // above-range ones (including +inf) into the last.
        let below = xs.iter().filter(|&&x| x < lo && !x.is_nan()).count() as u64;
        let above = xs.iter().filter(|&&x| x >= hi && !x.is_nan()).count() as u64;
        prop_assert!(h.counts()[0] >= below, "first bin lost a clamped sample");
        prop_assert!(h.counts()[bins - 1] >= above, "last bin lost a clamped sample");
    }

    #[test]
    fn histogram_edges_land_in_terminal_bins(
        lo in -50.0f64..50.0,
        width in 0.5f64..100.0,
        bins in 2usize..16,
    ) {
        let hi = lo + width;
        let mut h = Histogram::new(lo, hi, bins).expect("valid spec");
        // x == hi falls outside every half-open bin; it must clamp into
        // the last one rather than panic or vanish.
        h.record(hi);
        h.record(lo);
        prop_assert_eq!(h.total(), 2);
        prop_assert_eq!(h.counts()[0], 1);
        prop_assert_eq!(h.counts()[bins - 1], 1);
    }

    #[test]
    fn matmul_associates_with_identity(m in small_matrix()) {
        let i = Matrix::identity(m.cols()).expect("identity");
        let p = m.matmul(&i).expect("matmul");
        prop_assert!(m.max_abs_diff(&p).expect("shape") < 1e-12);
    }

    #[test]
    fn transpose_is_involution(m in small_matrix()) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}
