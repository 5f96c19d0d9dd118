//! The cache-allocation-sweep probe: the MRC detection channel.
//!
//! The paper's §3.3 future-work hook: an adversary that steps its *own*
//! LLC working set through K allocation levels and watches the
//! co-residents' aggregate pressure response per level reads out the
//! shape of their miss-rate curves — cache *reuse* structure that the
//! ten time-averaged pressure dimensions cannot carry. Two tenants with
//! identical average LLC pressure but opposite reuse patterns produce
//! visibly different sweep responses, which is exactly the signal that
//! breaks otherwise-degenerate mixture decompositions.
//!
//! As with the pressure ramps in [`crate::Microbenchmark`], the
//! "execution" is mediated by the simulator
//! ([`bolt_sim::Cluster::cache_sweep_response`] carries the
//! sharing-domain physics and isolation attenuation) while this layer
//! adds the measurement protocol: per-level sample averaging and the
//! additive measurement noise of the ramp configuration.

use rand::Rng;

use bolt_sim::{Cluster, SimError, VmId};
use bolt_workloads::Resource;

use crate::microbench::RampConfig;

/// Emission samples averaged per allocation level (matching the pressure
/// ramp's short-term averaging).
const SWEEP_SAMPLES: usize = 3;

/// One full cache-allocation-sweep measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct MrcSweepReading {
    /// Co-resident response per allocation level: index `k` holds the
    /// aggregate pressure observed while the probe occupied
    /// `(k + 1) / points` of the LLC. Each value is in `[0, 100]`.
    pub response: Vec<f64>,
    /// Seconds of simulated time the sweep consumed.
    pub duration_s: f64,
}

/// Runs a K-point cache-allocation sweep from `observer`'s position at
/// time `t`: for each level the probe sizes its working set to
/// `(k + 1) / points` of the LLC, dwells, and records the co-residents'
/// averaged pressure response plus measurement noise.
///
/// `points == 0` is a contract violation: it trips a debug assertion and
/// returns an empty reading in release builds.
///
/// # Errors
///
/// Returns [`SimError::UnknownVm`] if `observer` is not placed.
pub fn measure_mrc_sweep<R: Rng>(
    cluster: &Cluster,
    observer: VmId,
    t: f64,
    points: usize,
    config: &RampConfig,
    rng: &mut R,
) -> Result<MrcSweepReading, SimError> {
    debug_assert!(points > 0, "need at least one sweep point");
    let noise_scale = cluster.isolation().measurement_noise(Resource::Llc) + config.base_noise;
    let mut response = Vec::with_capacity(points);
    let mut steps = 0usize;
    for k in 0..points {
        let alloc = (k + 1) as f64 / points as f64;
        // Short-term average over the co-residents' emission jitter, like
        // the pressure ramp's dwell.
        let mut level = 0.0;
        for s in 0..SWEEP_SAMPLES {
            steps += 1;
            let sample_t = t + (k * SWEEP_SAMPLES + s) as f64 * 0.02;
            level += cluster.cache_sweep_response(observer, alloc, sample_t, rng)?;
        }
        level /= SWEEP_SAMPLES as f64;
        let noise = noise_scale * (rng.gen::<f64>() * 2.0 - 1.0);
        response.push((level + noise).clamp(0.0, 100.0));
    }
    Ok(MrcSweepReading {
        response,
        duration_s: steps as f64 * config.dwell_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_sim::vm::VmRole;
    use bolt_sim::{IsolationConfig, ServerSpec};
    use bolt_workloads::catalog::speccpu;
    use bolt_workloads::{catalog, PressureVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn testbed(bench: &speccpu::Benchmark, seed: u64) -> (Cluster, VmId) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let adv = cluster
            .launch_on(
                0,
                catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng)
                    .with_vcpus(4),
                VmRole::Adversarial,
                0.0,
            )
            .unwrap();
        cluster
            .set_pressure_override(adv, Some(PressureVector::zero()))
            .unwrap();
        let victim = speccpu::profile(bench, &mut rng);
        cluster.launch_on(0, victim, VmRole::Friendly, 0.0).unwrap();
        (cluster, adv)
    }

    #[test]
    fn sweep_separates_streaming_from_resident_co_residents() {
        // lbm streams with almost no reuse; mcf pointer-chases a
        // cache-resident set. Their average LLC pressures are close, but
        // the sweep responses diverge at small probe allocations.
        let (lbm, adv_l) = testbed(&speccpu::Benchmark::Lbm, 0x3C);
        let (mcf, adv_m) = testbed(&speccpu::Benchmark::Mcf, 0x3C);
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let config = RampConfig::default();
        let a = measure_mrc_sweep(&lbm, adv_l, 10.0, 8, &config, &mut rng1).unwrap();
        let b = measure_mrc_sweep(&mcf, adv_m, 10.0, 8, &config, &mut rng2).unwrap();
        assert_eq!(a.response.len(), 8);
        assert!(a.duration_s > 0.0);
        // The streaming tenant responds loudly even to a small probe; the
        // resident one stays comparatively quiet there.
        assert!(
            a.response[0] > b.response[0] + 10.0,
            "streaming {} vs resident {} at the smallest allocation",
            a.response[0],
            b.response[0]
        );
    }

    #[test]
    fn sweep_is_deterministic_for_a_fixed_rng() {
        let (cluster, adv) = testbed(&speccpu::Benchmark::Mcf, 7);
        let config = RampConfig::default();
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let a = measure_mrc_sweep(&cluster, adv, 33.0, 6, &config, &mut r1).unwrap();
        let b = measure_mrc_sweep(&cluster, adv, 33.0, 6, &config, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn idle_host_sweeps_near_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let adv = cluster
            .launch_on(
                0,
                catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng)
                    .with_vcpus(4),
                VmRole::Adversarial,
                0.0,
            )
            .unwrap();
        cluster
            .set_pressure_override(adv, Some(PressureVector::zero()))
            .unwrap();
        let reading =
            measure_mrc_sweep(&cluster, adv, 0.0, 8, &RampConfig::default(), &mut rng).unwrap();
        for &v in &reading.response {
            assert!(v <= 2.5, "empty host should read only noise, got {v}");
        }
    }
}
