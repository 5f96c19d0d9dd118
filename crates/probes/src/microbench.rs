//! Tunable contentious microbenchmarks and the ramp measurement protocol.
//!
//! Bolt measures the pressure co-residents place on a shared resource by
//! running a microbenchmark of tunable intensity against it (paper §3.2,
//! after iBench): the benchmark raises its intensity from 0 to 100% until
//! its own performance drops below the value expected in isolation. If the
//! co-residents occupy `P`% of the resource, the benchmark first feels
//! degradation when its own demand crosses the remaining `100 − P`%, so the
//! knee of the ramp reveals `P`.
//!
//! In this reproduction the benchmark's "execution" is mediated by the
//! simulator: the visible co-resident pressure comes from
//! [`bolt_sim::Cluster::interference_on`] (already attenuated by the active
//! isolation config), and the ramp adds measurement noise and quantization
//! exactly where the real protocol would.

use rand::Rng;

use bolt_sim::{Cluster, SimError, VmId};
use bolt_workloads::Resource;

/// Configuration of the ramp protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampConfig {
    /// Intensity increment per step (percent). The knee can only be located
    /// to within one step, so smaller steps are more accurate but slower.
    pub step: f64,
    /// Seconds of (simulated) dwell per intensity step.
    pub dwell_s: f64,
    /// Extra zero-mean measurement noise (percentage points) on top of the
    /// isolation-config noise.
    pub base_noise: f64,
}

impl Default for RampConfig {
    fn default() -> Self {
        RampConfig {
            step: 5.0,
            dwell_s: 0.08,
            base_noise: 1.0,
        }
    }
}

/// One pressure measurement produced by a microbenchmark ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeReading {
    /// The resource that was probed.
    pub resource: Resource,
    /// Estimated co-resident pressure in `[0, 100]`.
    pub pressure: f64,
    /// Seconds of simulated time the ramp consumed.
    pub duration_s: f64,
}

/// A tunable contentious microbenchmark for one shared resource.
///
/// # Example
///
/// ```
/// use bolt_probes::Microbenchmark;
/// use bolt_workloads::Resource;
///
/// let bench = Microbenchmark::new(Resource::Llc);
/// assert_eq!(bench.resource(), Resource::Llc);
/// assert!(!bench.is_core_benchmark());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Microbenchmark {
    resource: Resource,
}

impl Microbenchmark {
    /// Creates the microbenchmark for `resource`.
    pub fn new(resource: Resource) -> Self {
        Microbenchmark { resource }
    }

    /// The full iBench-style suite: one benchmark per shared resource.
    pub fn suite() -> Vec<Microbenchmark> {
        Resource::ALL
            .iter()
            .map(|&r| Microbenchmark::new(r))
            .collect()
    }

    /// The probed resource.
    pub fn resource(&self) -> Resource {
        self.resource
    }

    /// True if this benchmark stresses a core-private resource (and thus
    /// reads zero when no co-resident shares a physical core).
    pub fn is_core_benchmark(&self) -> bool {
        self.resource.is_core()
    }

    /// Runs the ramp from `observer`'s position in the cluster at time `t`
    /// and reports the estimated co-resident pressure on this resource.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if `observer` is not placed.
    pub fn measure<R: Rng>(
        &self,
        cluster: &Cluster,
        observer: VmId,
        t: f64,
        config: &RampConfig,
        rng: &mut R,
    ) -> Result<ProbeReading, SimError> {
        // The benchmark dwells on the resource for many of the victim's
        // request/iteration cycles, so the pressure it contends against is
        // the short-term *average* emission, not one instantaneous sample.
        let mut true_pressure = 0.0;
        const EMISSION_SAMPLES: usize = 3;
        for k in 0..EMISSION_SAMPLES {
            let visible = cluster.interference_on(observer, t + k as f64 * 0.02, rng)?;
            true_pressure += visible[self.resource];
        }
        true_pressure /= EMISSION_SAMPLES as f64;
        let noise_scale = cluster.isolation().measurement_noise(self.resource) + config.base_noise;

        // A small adversarial VM cannot drive a host-wide resource to
        // saturation: its achievable intensity tops out with its vCPU
        // count (paper Fig. 10b — below 4 vCPUs "resources are
        // insufficient to create enough contention"). Low co-resident
        // pressure then never produces a knee and goes unmeasured.
        let vcpus = cluster.vm(observer)?.vcpus() as f64;
        let max_intensity = (30.0 + 20.0 * vcpus).min(100.0);

        // Ramp the benchmark's own intensity until it detects degradation:
        // at intensity x the combined demand is x + P (+ noise); crossing
        // 100 makes the benchmark's performance fall below its isolated
        // expectation.
        let mut steps = 0usize;
        let mut intensity = 0.0;
        let mut crossed_at = None;
        while intensity <= max_intensity {
            steps += 1;
            let noise = noise_scale * (rng.gen::<f64>() * 2.0 - 1.0);
            let demand = intensity + true_pressure + noise;
            if demand >= 100.0 {
                crossed_at = Some(intensity);
                break;
            }
            intensity += config.step;
        }

        // Refine the knee by bisection between the last quiet intensity
        // and the first degraded one. Each probe redraws measurement
        // noise, so the refinement also averages noise down — the knee
        // ends up far finer than the coarse step.
        let estimate = match crossed_at {
            None => 0.0, // never degraded: the resource is idle
            Some(hi0) => {
                let mut lo = (hi0 - config.step).max(0.0);
                let mut hi = hi0;
                for _ in 0..5 {
                    steps += 1;
                    let mid = (lo + hi) / 2.0;
                    let noise = noise_scale * (rng.gen::<f64>() * 2.0 - 1.0);
                    if mid + true_pressure + noise >= 100.0 {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                (100.0 - (lo + hi) / 2.0).clamp(0.0, 100.0)
            }
        };
        Ok(ProbeReading {
            resource: self.resource,
            pressure: estimate,
            duration_s: steps as f64 * config.dwell_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_sim::vm::VmRole;
    use bolt_sim::{IsolationConfig, ServerSpec};
    use bolt_workloads::{catalog, PressureVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x9B0)
    }

    /// Builds a 1-server cluster with an adversary and one victim emitting
    /// a fixed pressure vector.
    fn setup(victim_pressure: PressureVector) -> (Cluster, VmId) {
        let mut r = rng();
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let adv_profile = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut r);
        let adv = cluster
            .launch_on(0, adv_profile, VmRole::Adversarial, 0.0)
            .unwrap();
        let victim_profile = catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            bolt_workloads::DatasetScale::Medium,
            &mut r,
        );
        let victim = cluster
            .launch_on(0, victim_profile, VmRole::Friendly, 0.0)
            .unwrap();
        cluster
            .set_pressure_override(victim, Some(victim_pressure))
            .unwrap();
        (cluster, adv)
    }

    #[test]
    fn ramp_recovers_known_uncore_pressure() {
        let (cluster, adv) = setup(PressureVector::from_pairs(&[(Resource::MemBw, 60.0)]));
        let bench = Microbenchmark::new(Resource::MemBw);
        let mut r = rng();
        let config = RampConfig {
            base_noise: 0.5,
            ..RampConfig::default()
        };
        let reading = bench.measure(&cluster, adv, 0.0, &config, &mut r).unwrap();
        assert!(
            (reading.pressure - 60.0).abs() <= 8.0,
            "estimate {} should be near 60",
            reading.pressure
        );
    }

    #[test]
    fn idle_resource_reads_near_zero() {
        let (cluster, adv) = setup(PressureVector::from_pairs(&[(Resource::MemBw, 60.0)]));
        let bench = Microbenchmark::new(Resource::DiskBw);
        let mut r = rng();
        let reading = bench
            .measure(&cluster, adv, 0.0, &RampConfig::default(), &mut r)
            .unwrap();
        assert!(
            reading.pressure < 10.0,
            "idle disk read {}",
            reading.pressure
        );
    }

    #[test]
    fn core_benchmark_reads_only_float_leakage_without_core_sharing() {
        // Two 4-vCPU VMs on a 16-thread server spread onto distinct cores:
        // the only core-resource signal is scheduler-float leakage, a small
        // fraction of the victim's pressure.
        let (cluster, adv) = setup(PressureVector::from_pairs(&[(Resource::L1i, 90.0)]));
        let float = cluster.isolation().float_visibility();
        assert!(float > 0.0 && float < 0.3);
        let bench = Microbenchmark::new(Resource::L1i);
        let mut r = rng();
        let config = RampConfig {
            base_noise: 0.0,
            ..RampConfig::default()
        };
        let reading = bench.measure(&cluster, adv, 0.0, &config, &mut r).unwrap();
        assert!(
            reading.pressure <= 90.0 * float + 10.0,
            "reading {} should be bounded by float leakage",
            reading.pressure
        );
        assert!(
            reading.pressure < 45.0,
            "reading {} should be far below the victim's true 90",
            reading.pressure
        );
    }

    #[test]
    fn higher_pressure_detected_earlier_and_reported_larger() {
        let mut r = rng();
        let bench = Microbenchmark::new(Resource::NetBw);
        let config = RampConfig {
            base_noise: 0.5,
            ..RampConfig::default()
        };
        let (c_low, adv_low) = setup(PressureVector::from_pairs(&[(Resource::NetBw, 20.0)]));
        let (c_high, adv_high) = setup(PressureVector::from_pairs(&[(Resource::NetBw, 80.0)]));
        let low = bench
            .measure(&c_low, adv_low, 0.0, &config, &mut r)
            .unwrap();
        let high = bench
            .measure(&c_high, adv_high, 0.0, &config, &mut r)
            .unwrap();
        assert!(high.pressure > low.pressure + 30.0);
        assert!(
            high.duration_s < low.duration_s,
            "high pressure should knee sooner"
        );
    }

    #[test]
    fn duration_scales_with_steps() {
        let (cluster, adv) = setup(PressureVector::zero());
        let bench = Microbenchmark::new(Resource::Llc);
        let mut r = rng();
        let coarse = RampConfig {
            step: 20.0,
            base_noise: 0.0,
            ..RampConfig::default()
        };
        let fine = RampConfig {
            step: 2.0,
            base_noise: 0.0,
            ..RampConfig::default()
        };
        let a = bench.measure(&cluster, adv, 0.0, &coarse, &mut r).unwrap();
        let b = bench.measure(&cluster, adv, 0.0, &fine, &mut r).unwrap();
        assert!(b.duration_s > a.duration_s);
    }

    #[test]
    fn small_adversary_misses_low_pressure() {
        // A 1-vCPU adversary tops out at 50% intensity, so pressure below
        // ~50% never produces a knee and reads zero (Fig. 10b's effect).
        let mut r = rng();
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let adv_profile =
            catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut r).with_vcpus(1);
        let adv = cluster
            .launch_on(0, adv_profile, VmRole::Adversarial, 0.0)
            .unwrap();
        let victim_profile = catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            bolt_workloads::DatasetScale::Medium,
            &mut r,
        );
        let victim = cluster
            .launch_on(0, victim_profile, VmRole::Friendly, 0.0)
            .unwrap();
        cluster
            .set_pressure_override(
                victim,
                Some(PressureVector::from_pairs(&[(Resource::MemBw, 30.0)])),
            )
            .unwrap();
        let bench = Microbenchmark::new(Resource::MemBw);
        let config = RampConfig {
            base_noise: 0.0,
            ..RampConfig::default()
        };
        let reading = bench.measure(&cluster, adv, 0.0, &config, &mut r).unwrap();
        assert_eq!(
            reading.pressure, 0.0,
            "30% pressure is invisible to a 1-vCPU adversary"
        );
    }

    #[test]
    fn suite_covers_all_resources() {
        let suite = Microbenchmark::suite();
        assert_eq!(suite.len(), 10);
        let core = suite.iter().filter(|b| b.is_core_benchmark()).count();
        assert_eq!(core, 4);
    }
}
