//! Cache miss-rate curves (MRCs): the paper's §3.3 future-work signal.
//!
//! The paper closes its multi-co-resident discussion with: "We will
//! consider whether additional input signals, such as per-job cache miss
//! rate curves, can improve detection accuracy for the latter workloads."
//! This module implements that extension hook: every workload gets a
//! parametric last-level-cache miss-rate curve, and an adversary measuring
//! two or three points of a co-resident's MRC (by sweeping its own probe's
//! working set and watching the victim's pressure response) gains a
//! fingerprint dimension that static pressure vectors lack — two
//! applications with identical average LLC pressure but different reuse
//! patterns separate cleanly.
//!
//! The curve model is the classic two-regime form: a compulsory floor
//! plus a capacity term that falls off once the allocation covers the
//! working set,
//! `miss(a) = floor + (1 − floor) · (1 − a/knee)₊^shape` for `a < knee`.

use crate::profile::WorkloadProfile;
use crate::resource::{PressureVector, Resource};

/// A parametric last-level-cache miss-rate curve.
///
/// # Example
///
/// ```
/// use bolt_workloads::mrc::MissRateCurve;
///
/// let streaming = MissRateCurve::new(1.0, 0.85, 1.0); // no reuse: misses stay high
/// let resident  = MissRateCurve::new(0.4, 0.02, 2.0); // fits in 40% of the LLC
/// assert!(streaming.miss_rate(0.5) > resident.miss_rate(0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRateCurve {
    /// Fraction of the LLC at which the working set fits (`(0, 1]`); the
    /// miss rate reaches its floor here.
    knee: f64,
    /// Compulsory miss rate that no amount of cache removes (`[0, 1]`).
    floor: f64,
    /// Convexity of the approach to the knee (≥ 0.5; larger = sharper).
    shape: f64,
}

impl MissRateCurve {
    /// Creates a curve; parameters are clamped into their valid ranges.
    pub fn new(knee: f64, floor: f64, shape: f64) -> Self {
        MissRateCurve {
            knee: knee.clamp(0.05, 1.0),
            floor: floor.clamp(0.0, 1.0),
            shape: shape.max(0.5),
        }
    }

    /// The working-set knee as a fraction of the LLC.
    pub fn knee(&self) -> f64 {
        self.knee
    }

    /// The compulsory floor.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Miss rate in `[0, 1]` when the job holds `allocation` (fraction of
    /// the LLC, clamped to `[0, 1]`).
    pub fn miss_rate(&self, allocation: f64) -> f64 {
        let a = allocation.clamp(0.0, 1.0);
        if a >= self.knee {
            return self.floor;
        }
        let deficit = 1.0 - a / self.knee;
        self.floor + (1.0 - self.floor) * deficit.powf(self.shape)
    }

    /// Samples the curve at `points` evenly-spaced allocations in
    /// `(0, 1]` — the feature vector an MRC-aware matcher compares.
    ///
    /// `points == 0` is a contract violation: it trips a debug assertion,
    /// and in release builds returns an empty vector (there is nothing to
    /// sample).
    pub fn sample(&self, points: usize) -> Vec<f64> {
        debug_assert!(points > 0, "need at least one sample point");
        (1..=points)
            .map(|i| self.miss_rate(i as f64 / points as f64))
            .collect()
    }

    /// Root-mean-square distance between two curves over `points` samples
    /// — the similarity measure for MRC matching.
    ///
    /// `points == 0` is a contract violation: it trips a debug assertion,
    /// and in release builds returns `0.0` (zero samples cannot tell the
    /// curves apart) rather than dividing by zero.
    pub fn distance(&self, other: &MissRateCurve, points: usize) -> f64 {
        debug_assert!(points > 0, "need at least one sample point");
        if points == 0 {
            return 0.0;
        }
        let a = self.sample(points);
        let b = other.sample(points);
        let sq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        (sq / points as f64).sqrt()
    }
}

/// Derives a plausible MRC from a workload's pressure fingerprint:
///
/// * the knee tracks LLC pressure (a job filling the cache has a working
///   set at least that large);
/// * the floor tracks the streaming-ness of the job — high memory
///   bandwidth relative to LLC pressure means poor reuse and a high
///   compulsory floor;
/// * the shape sharpens for pointer-chasing profiles (high L2+LLC with
///   modest bandwidth).
pub fn derive_mrc(profile: &WorkloadProfile) -> MissRateCurve {
    derive_mrc_from_pressure(profile.reference_pressure())
}

/// [`derive_mrc`] from a bare pressure fingerprint — the form an observer
/// uses when all it holds is a (possibly channel-attenuated) pressure
/// vector rather than a full profile. Every derived parameter is produced
/// in-range here, without leaning on [`MissRateCurve::new`]'s clamps:
/// pressures in `[0, 100]` map to a knee in `[0.15, 1]`, a floor in
/// `[0.02, 0.77]`, and a shape in `[1, 3]`.
pub fn derive_mrc_from_pressure(p: &PressureVector) -> MissRateCurve {
    let llc = (p[Resource::Llc] / 100.0).clamp(0.0, 1.0);
    let membw = (p[Resource::MemBw] / 100.0).clamp(0.0, 1.0);
    let l2 = (p[Resource::L2] / 100.0).clamp(0.0, 1.0);

    let knee = (0.15 + 0.85 * llc).clamp(0.05, 1.0);
    // Streaming index: bandwidth demand not explained by cache footprint.
    // With membw and llc in [0, 1] the index stays in [0, 1], so the
    // floor lands in [0.02, 0.77] ⊂ [0, 1] by construction.
    let streaming = (membw - 0.5 * llc).clamp(0.0, 1.0);
    let floor = (0.02 + 0.75 * streaming).clamp(0.0, 1.0);
    let shape = (1.0 + 2.0 * (l2 + llc) / 2.0).max(0.5);
    MissRateCurve::new(knee, floor, shape)
}

/// The LLC-pressure response an observer measures at one step of a
/// cache-allocation sweep: when the observer's own probe occupies
/// `probe_alloc` of the LLC (fraction in `[0, 1]`), a co-resident emitting
/// `llc_pressure` points of cache pressure is squeezed into the remaining
/// `1 − probe_alloc` of the cache, and its refill traffic — the signal
/// the probe feels — scales with its miss rate there. Streaming tenants
/// (flat curves near 1) push back at every level; cache-resident tenants
/// stay quiet until the probe working set crosses their knee.
///
/// This is the *shared protocol* between the simulator's sweep primitive
/// and the recommender's expected-response curves: both sides must agree
/// on it for curve matching to mean anything.
pub fn sweep_response(curve: &MissRateCurve, llc_pressure: f64, probe_alloc: f64) -> f64 {
    let remaining = (1.0 - probe_alloc).clamp(0.0, 1.0);
    llc_pressure.clamp(0.0, 100.0) * curve.miss_rate(remaining)
}

/// True when two workloads are *indistinguishable* by average LLC pressure
/// (within `pressure_tol` points) yet *separable* by their MRCs (RMS curve
/// distance above `mrc_tol`) — the cases where the paper's future-work
/// signal pays for itself.
pub fn mrc_separates(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    pressure_tol: f64,
    mrc_tol: f64,
) -> bool {
    let dp = (a.reference_pressure()[Resource::Llc] - b.reference_pressure()[Resource::Llc]).abs();
    if dp > pressure_tol {
        return false;
    }
    derive_mrc(a).distance(&derive_mrc(b), 8) > mrc_tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{memcached, speccpu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn miss_rate_monotone_nonincreasing_in_allocation() {
        let curve = MissRateCurve::new(0.6, 0.05, 2.0);
        let mut prev = 1.1;
        for i in 0..=20 {
            let m = curve.miss_rate(i as f64 / 20.0);
            assert!(m <= prev + 1e-12, "miss rate must not rise with more cache");
            assert!((0.0..=1.0).contains(&m));
            prev = m;
        }
    }

    #[test]
    fn floor_reached_at_the_knee() {
        let curve = MissRateCurve::new(0.5, 0.1, 2.0);
        assert!((curve.miss_rate(0.5) - 0.1).abs() < 1e-12);
        assert!((curve.miss_rate(1.0) - 0.1).abs() < 1e-12);
        assert!(curve.miss_rate(0.0) > 0.9);
    }

    #[test]
    fn parameters_are_clamped() {
        let curve = MissRateCurve::new(5.0, -1.0, 0.0);
        assert_eq!(curve.knee(), 1.0);
        assert_eq!(curve.floor(), 0.0);
        assert!(curve.miss_rate(0.5) <= 1.0);
    }

    #[test]
    fn sample_and_distance() {
        let a = MissRateCurve::new(0.3, 0.05, 2.0);
        let b = MissRateCurve::new(0.9, 0.05, 2.0);
        assert_eq!(a.sample(8).len(), 8);
        assert!(a.distance(&b, 8) > 0.05);
        assert!(a.distance(&a, 8) < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at least one sample")]
    fn sample_rejects_zero_points_in_debug() {
        MissRateCurve::new(0.5, 0.1, 2.0).sample(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at least one sample")]
    fn distance_rejects_zero_points_in_debug() {
        let a = MissRateCurve::new(0.5, 0.1, 2.0);
        a.distance(&a, 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn zero_points_degrade_gracefully_in_release() {
        let a = MissRateCurve::new(0.5, 0.1, 2.0);
        assert!(a.sample(0).is_empty());
        assert_eq!(a.distance(&a, 0), 0.0);
    }

    #[test]
    fn sweep_response_reads_the_reuse_pattern() {
        let streaming = MissRateCurve::new(1.0, 0.85, 1.0);
        let resident = MissRateCurve::new(0.3, 0.02, 2.0);
        // Small probe: the resident tenant still fits and stays quiet,
        // the streaming tenant pushes back regardless.
        let quiet = sweep_response(&resident, 60.0, 0.2);
        let loud = sweep_response(&streaming, 60.0, 0.2);
        assert!(loud > quiet + 20.0, "streaming {loud} vs resident {quiet}");
        // Response grows (weakly) with the probe's working set, and is
        // bounded by the emitted pressure.
        let mut prev = -1.0;
        for i in 0..=10 {
            let r = sweep_response(&resident, 60.0, i as f64 / 10.0);
            assert!(
                r >= prev - 1e-12,
                "response must not fall as the probe grows"
            );
            assert!((0.0..=60.0 + 1e-12).contains(&r));
            prev = r;
        }
    }

    #[test]
    fn streaming_profiles_get_high_floors() {
        let mut rng = StdRng::seed_from_u64(7);
        // lbm streams memory with little reuse; mcf pointer-chases a
        // cache-resident structure.
        let lbm = speccpu::profile(&speccpu::Benchmark::Lbm, &mut rng);
        let mcf = speccpu::profile(&speccpu::Benchmark::Mcf, &mut rng);
        let lbm_mrc = derive_mrc(&lbm);
        let mcf_mrc = derive_mrc(&mcf);
        assert!(
            lbm_mrc.floor() > mcf_mrc.floor() + 0.1,
            "streaming lbm floor {} should exceed reuse-heavy mcf {}",
            lbm_mrc.floor(),
            mcf_mrc.floor()
        );
    }

    #[test]
    fn mrc_separates_same_pressure_different_reuse() {
        let mut rng = StdRng::seed_from_u64(9);
        // mcf (reuse) vs lbm (streaming) have similar LLC pressure around
        // 60-72 but very different curves.
        let mcf = speccpu::profile(&speccpu::Benchmark::Mcf, &mut rng);
        let lbm = speccpu::profile(&speccpu::Benchmark::Lbm, &mut rng);
        assert!(mrc_separates(&mcf, &lbm, 20.0, 0.05));
        // A job against itself never separates.
        assert!(!mrc_separates(&mcf, &mcf, 20.0, 0.05));
    }

    #[test]
    fn memcached_mrc_has_low_floor() {
        // A resident key-value store reuses its hot set heavily.
        let mut rng = StdRng::seed_from_u64(11);
        let mc = memcached::profile(&memcached::Variant::ReadHeavyKb, &mut rng);
        let curve = derive_mrc(&mc);
        assert!(curve.floor() < 0.3, "floor {}", curve.floor());
        assert!(curve.knee() > 0.5, "hot set sized with its LLC pressure");
    }
}
