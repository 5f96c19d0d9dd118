//! Shutter profiling: catching co-residents in low-load phases.
//!
//! When no co-resident shares a physical core with the adversary, core
//! benchmarks read zero and uncore pressure is the *sum* over all
//! co-residents — indistinguishable in a single measurement. Bolt's
//! shutter mode (paper §3.3, Fig. 3) takes many brief profiling windows
//! (10–50 ms) hoping to catch a moment when all but one co-resident idles:
//! that frame exposes a single application's fingerprint, and subtracting
//! it from the steady-state signal exposes the rest.
//!
//! The mode works for interactive services with intermittent low-load
//! phases and fails for steady analytics — a limitation this module's
//! tests reproduce.

use rand::Rng;

use bolt_sim::{Cluster, SimError, VmId};
use bolt_workloads::{PressureVector, Resource};

/// Configuration of the shutter mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShutterConfig {
    /// Number of brief profiling frames to take.
    pub frames: usize,
    /// Seconds between frame starts.
    pub interval_s: f64,
    /// Frame length in seconds (the paper uses 10–50 ms).
    pub frame_s: f64,
}

impl Default for ShutterConfig {
    fn default() -> Self {
        ShutterConfig {
            frames: 40,
            interval_s: 1.0,
            frame_s: 0.03,
        }
    }
}

/// The result of a shutter profiling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutterCapture {
    /// Every frame's observed uncore pressure vector.
    pub frames: Vec<PressureVector>,
    /// The frame with the lowest total uncore pressure — the best shot at
    /// a single co-resident's fingerprint.
    pub low_frame: PressureVector,
    /// The frame with the highest total uncore pressure — an estimate of
    /// the combined steady-state signal.
    pub high_frame: PressureVector,
    /// Total simulated seconds the capture took.
    pub duration_s: f64,
}

impl ShutterCapture {
    /// The residual signal: `high − low` per uncore resource, an estimate
    /// of the *other* co-residents once one has been isolated in the low
    /// frame.
    pub fn residual(&self) -> PressureVector {
        self.high_frame.saturating_sub(&self.low_frame)
    }

    /// Relative swing between the low and high frames in `(0, 1]`; values
    /// near zero mean the co-residents never idled (steady load) and the
    /// shutter learned nothing.
    pub fn swing(&self) -> f64 {
        let hi = self.high_frame.total();
        if hi == 0.0 {
            return 0.0;
        }
        ((hi - self.low_frame.total()) / hi).clamp(0.0, 1.0)
    }
}

/// Runs a shutter capture from `observer`'s position starting at `t`.
///
/// Only uncore resources are sampled (the mode exists precisely because
/// core resources read zero).
///
/// # Errors
///
/// * [`SimError::InvalidConfig`] if `config.frames` is zero, or if `t`,
///   `config.interval_s` or the last frame's start time is not finite
///   (a frame probed at a non-finite time reads NaN pressure, which the
///   frame ranking cannot order).
/// * [`SimError::UnknownVm`] if `observer` is not placed.
pub fn capture<R: Rng>(
    cluster: &Cluster,
    observer: VmId,
    t: f64,
    config: &ShutterConfig,
    rng: &mut R,
) -> Result<ShutterCapture, SimError> {
    if config.frames == 0 {
        return Err(SimError::InvalidConfig {
            reason: "shutter capture needs at least one frame".to_string(),
        });
    }
    let last_t = t + (config.frames - 1) as f64 * config.interval_s;
    if !(t.is_finite() && config.interval_s.is_finite() && last_t.is_finite()) {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "shutter capture needs finite frame times, got start {t}, interval {}, last frame {last_t}",
                config.interval_s
            ),
        });
    }
    let mut frames = Vec::with_capacity(config.frames);
    for i in 0..config.frames {
        let ft = t + i as f64 * config.interval_s;
        let visible = cluster.interference_on(observer, ft, rng)?;
        // Keep only the uncore components; core resources stay zero.
        let mut frame = PressureVector::zero();
        for r in Resource::UNCORE {
            frame[r] = visible[r];
        }
        frames.push(frame);
    }
    let low_frame = *frames
        .iter()
        .min_by(|a, b| a.total().partial_cmp(&b.total()).expect("finite totals"))
        .expect("at least one frame");
    let high_frame = *frames
        .iter()
        .max_by(|a, b| a.total().partial_cmp(&b.total()).expect("finite totals"))
        .expect("at least one frame");
    Ok(ShutterCapture {
        duration_s: config.frames as f64 * config.interval_s + config.frame_s,
        frames,
        low_frame,
        high_frame,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_sim::vm::VmRole;
    use bolt_sim::{IsolationConfig, ServerSpec};
    use bolt_workloads::{catalog, LoadPattern, WorkloadProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5117)
    }

    fn cluster_with(victims: Vec<WorkloadProfile>) -> (Cluster, VmId) {
        let mut r = rng();
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let adv = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut r);
        let adv_id = cluster.launch_on(0, adv, VmRole::Adversarial, 0.0).unwrap();
        for v in victims {
            cluster.launch_on(0, v, VmRole::Friendly, 0.0).unwrap();
        }
        (cluster, adv_id)
    }

    fn onoff_service(rng: &mut StdRng) -> WorkloadProfile {
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng).with_load(
            LoadPattern::OnOff {
                on_level: 0.9,
                off_level: 0.03,
                on_secs: 5.0,
                off_secs: 5.0,
            },
        )
    }

    fn steady_batch(rng: &mut StdRng) -> WorkloadProfile {
        catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            bolt_workloads::DatasetScale::Medium,
            rng,
        )
    }

    #[test]
    fn interactive_victims_show_large_swing() {
        let mut r = rng();
        let victims = vec![onoff_service(&mut r), steady_batch(&mut r)];
        let (cluster, adv) = cluster_with(victims);
        let cap = capture(&cluster, adv, 0.0, &ShutterConfig::default(), &mut r).unwrap();
        assert!(
            cap.swing() > 0.15,
            "on/off service should open a shutter window, swing {}",
            cap.swing()
        );
    }

    #[test]
    fn steady_victims_show_small_swing() {
        let mut r = rng();
        let victims = vec![steady_batch(&mut r), steady_batch(&mut r)];
        let (cluster, adv) = cluster_with(victims);
        let cap = capture(&cluster, adv, 0.0, &ShutterConfig::default(), &mut r).unwrap();
        assert!(
            cap.swing() < 0.35,
            "steady analytics leave little swing, got {}",
            cap.swing()
        );
    }

    #[test]
    fn low_frame_isolates_the_steady_resident() {
        // One on/off memcached + one steady Spark: the low frame (memcached
        // off) should look like Spark — memory-bandwidth heavy.
        let mut r = rng();
        let victims = vec![onoff_service(&mut r), steady_batch(&mut r)];
        let (cluster, adv) = cluster_with(victims);
        let cap = capture(&cluster, adv, 0.0, &ShutterConfig::default(), &mut r).unwrap();
        assert!(
            cap.low_frame[Resource::MemBw] > 30.0,
            "low frame should retain spark's memory signal: {}",
            cap.low_frame
        );
        // And the residual should carry memcached's network/LLC signal.
        let residual = cap.residual();
        assert!(residual.total() > 0.0);
    }

    #[test]
    fn frames_only_contain_uncore_components() {
        let mut r = rng();
        let victims = vec![onoff_service(&mut r); 3];
        let (cluster, adv) = cluster_with(victims);
        let cap = capture(&cluster, adv, 0.0, &ShutterConfig::default(), &mut r).unwrap();
        for f in &cap.frames {
            for res in Resource::CORE {
                assert_eq!(f[res], 0.0);
            }
        }
    }

    #[test]
    fn zero_frames_rejected() {
        let mut r = rng();
        let (cluster, adv) = cluster_with(vec![steady_batch(&mut r)]);
        let config = ShutterConfig {
            frames: 0,
            ..ShutterConfig::default()
        };
        assert!(matches!(
            capture(&cluster, adv, 0.0, &config, &mut r),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn non_finite_frame_times_rejected() {
        let mut r = rng();
        let (cluster, adv) = cluster_with(vec![steady_batch(&mut r)]);
        let default = ShutterConfig::default();
        let cases = [
            (f64::NAN, default),
            (f64::INFINITY, default),
            (
                0.0,
                ShutterConfig {
                    interval_s: f64::NAN,
                    ..default
                },
            ),
            (
                0.0,
                ShutterConfig {
                    interval_s: f64::NEG_INFINITY,
                    ..default
                },
            ),
            // Every input finite, but the last frame's start overflows.
            (
                f64::MAX,
                ShutterConfig {
                    interval_s: f64::MAX,
                    ..default
                },
            ),
        ];
        for (t, config) in cases {
            assert!(
                matches!(
                    capture(&cluster, adv, t, &config, &mut r),
                    Err(SimError::InvalidConfig { .. })
                ),
                "t {t}, {config:?}"
            );
        }
    }

    #[test]
    fn duration_accounts_all_frames() {
        let mut r = rng();
        let (cluster, adv) = cluster_with(vec![steady_batch(&mut r)]);
        let config = ShutterConfig {
            frames: 10,
            interval_s: 0.5,
            frame_s: 0.03,
        };
        let cap = capture(&cluster, adv, 0.0, &config, &mut r).unwrap();
        assert_eq!(cap.frames.len(), 10);
        assert!((cap.duration_s - 5.03).abs() < 1e-9);
    }
}
