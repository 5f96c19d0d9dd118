//! Sensitivity studies: the design-decision sweeps of paper Fig. 10.
//!
//! * **Profiling interval** (Fig. 10a): detection results go stale as
//!   victims change jobs; beyond ~30 s intervals accuracy drops rapidly,
//!   and at 5-minute intervals almost half the victims are misidentified.
//! * **Adversarial VM size** (Fig. 10b): below 4 vCPUs the adversary
//!   cannot generate enough contention to measure co-resident pressure;
//!   larger VMs also share cores more often, so accuracy keeps growing.
//! * **Number of benchmarks** (Fig. 10c): one benchmark cannot fingerprint
//!   a workload; beyond 3 the returns diminish.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bolt_probes::ProfilerConfig;
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, LeastLoaded, ServerSpec, VmId};
use bolt_workloads::{AppLabel, PressureVector, WorkloadProfile};

use crate::ctx::RunCtx;
use crate::detector::{Detector, DetectorConfig};
use crate::experiment::{fit_recommender, run_experiment, victim_set, ExperimentConfig};
use crate::parallel::{sweep, Parallelism};
use crate::telemetry::{Telemetry, TelemetryLog};
use crate::BoltError;

/// One sweep point: the swept parameter value and the measured accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub parameter: f64,
    /// Label-detection accuracy at that value.
    pub accuracy: f64,
}

/// Fig. 10b: accuracy as a function of the adversarial VM's vCPU count.
///
/// Points run serially; each point's inner experiment already fans its
/// victims out over `base.parallelism`, which scales better than
/// parallelizing the handful of points. Each point's experiment fits its
/// own recommender. The log is the points' [`run_experiment`] streams
/// concatenated in size order.
///
/// # Errors
///
/// Propagates [`BoltError`] from the underlying experiments.
pub fn adversary_size_sweep(
    base: &ExperimentConfig,
    sizes: &[u32],
    ctx: &RunCtx,
) -> Result<(Vec<SweepPoint>, TelemetryLog), BoltError> {
    experiment_sweep(sizes, ctx, |vcpus| {
        let config = ExperimentConfig {
            adversary_vcpus: vcpus,
            ..*base
        };
        (vcpus as f64, config)
    })
}

/// Fig. 10c: accuracy as a function of the number of profiling
/// benchmarks in the initial snapshot.
///
/// Like [`adversary_size_sweep`], points run serially, the inner
/// experiments carry the parallelism and each point fits its own
/// recommender. The log concatenates the points' streams in count order.
///
/// # Errors
///
/// Propagates [`BoltError`] from the underlying experiments.
pub fn benchmark_count_sweep(
    base: &ExperimentConfig,
    counts: &[usize],
    ctx: &RunCtx,
) -> Result<(Vec<SweepPoint>, TelemetryLog), BoltError> {
    experiment_sweep(counts, ctx, |n| {
        let config = ExperimentConfig {
            detector: DetectorConfig {
                profiler: ProfilerConfig {
                    initial_benchmarks: n,
                    ..base.detector.profiler
                },
                ..base.detector
            },
            ..*base
        };
        (n as f64, config)
    })
}

/// Runs one [`run_experiment`] per swept value, in order: `point` maps a
/// value to its parameter and experiment configuration.
fn experiment_sweep<T: Copy>(
    values: &[T],
    ctx: &RunCtx,
    point: impl Fn(T) -> (f64, ExperimentConfig),
) -> Result<(Vec<SweepPoint>, TelemetryLog), BoltError> {
    let mut points = Vec::with_capacity(values.len());
    let mut log = TelemetryLog::new();
    for &value in values {
        let (parameter, config) = point(value);
        let (results, point_log) = run_experiment(&config, &LeastLoaded, ctx)?;
        points.push(SweepPoint {
            parameter,
            accuracy: results.label_accuracy(),
        });
        log.extend(point_log.into_events());
    }
    Ok((points, log))
}

/// A victim VM cycling through consecutive jobs, for the staleness study
/// (and the Fig. 8 phase timeline).
pub struct PhasedVictim {
    /// The VM id.
    pub vm: VmId,
    /// The job schedule: `(start_time_s, label)` in increasing time order.
    pub schedule: Vec<(f64, AppLabel)>,
    /// The job profiles, index-aligned with `schedule`.
    pub profiles: Vec<WorkloadProfile>,
}

impl PhasedVictim {
    /// The label active at time `t` (the last schedule entry at or before
    /// `t`).
    pub fn active_label(&self, t: f64) -> &AppLabel {
        &self.schedule[self.active_index(t)].1
    }

    /// Index of the job active at time `t`.
    fn active_index(&self, t: f64) -> usize {
        let mut idx = 0;
        for (i, (start, _)) in self.schedule.iter().enumerate() {
            if *start <= t {
                idx = i;
            } else {
                break;
            }
        }
        idx
    }
}

/// Fig. 10a: accuracy as a function of the profiling interval, against a
/// victim that switches jobs every `job_duration_s` seconds on average.
///
/// At each multiple of the interval, the adversary re-detects; between
/// detections its belief is the last label seen. Accuracy is the fraction
/// of audit instants (1 Hz) at which that belief matches the job actually
/// running — exactly how stale detections lose value in the paper.
///
/// Each interval builds its own single-server scene with an RNG derived
/// from `seed` and the interval value, so intervals are independent and
/// fan out over `parallelism` with results identical to a serial run.
/// Every interval shares one training configuration, so the sweep fits
/// once, before fanning out, and every interval borrows its detector.
///
/// Telemetry: the fit records as unit 0; interval `i` records
/// its re-detections' pipeline spans and probe counts plus the victim's
/// job-swap trace events as unit `i`. The log concatenates them in that
/// order, so it is identical for any `parallelism`.
///
/// # Errors
///
/// Propagates [`BoltError`] from the simulator or detector.
pub fn profiling_interval_sweep(
    intervals_s: &[f64],
    job_duration_s: f64,
    horizon_s: f64,
    seed: u64,
    parallelism: Parallelism,
    ctx: &RunCtx,
) -> Result<(Vec<SweepPoint>, TelemetryLog), BoltError> {
    let base = ExperimentConfig::default();
    let mut prelude = ctx.unit(0);
    let recommender = fit_recommender(
        base.training_seed,
        &base.isolation,
        base.recommender,
        &mut prelude,
    )?;
    let detector = Detector::new(recommender, base.detector);
    let per_point: Result<Vec<_>, BoltError> =
        sweep(intervals_s, parallelism, |unit, &interval| {
            let mut telemetry = ctx.unit(unit);
            let point = interval_point(
                &base,
                &detector,
                interval,
                job_duration_s,
                horizon_s,
                seed,
                &mut telemetry,
            )?;
            Ok((point, telemetry.into_events()))
        })
        .into_iter()
        .collect();
    let mut points = Vec::with_capacity(intervals_s.len());
    let mut log = TelemetryLog::new();
    log.merge(prelude);
    for (point, events) in per_point? {
        points.push(point);
        log.extend(events);
    }
    Ok((points, log))
}

/// One interval of the staleness study: build the phased scene, audit at
/// 1 Hz, re-detect at every interval multiple.
#[allow(clippy::too_many_arguments)]
fn interval_point(
    base: &ExperimentConfig,
    detector: &Detector,
    interval: f64,
    job_duration_s: f64,
    horizon_s: f64,
    seed: u64,
    telemetry: &mut Telemetry,
) -> Result<SweepPoint, BoltError> {
    let mut rng = StdRng::seed_from_u64(seed ^ (interval as u64).wrapping_mul(0x9E37));
    let (mut cluster, adversary, victim) = phased_scene(
        base,
        job_duration_s,
        horizon_s,
        telemetry.is_enabled(),
        &mut rng,
    )?;
    telemetry.cluster_events(cluster.take_events());

    let mut correct = 0usize;
    let mut audited = 0usize;
    let mut belief: Option<AppLabel> = None;
    let mut next_detection = 0.0;
    let mut t = 0.0;
    while t < horizon_s {
        if t >= next_detection {
            // Bring the victim VM's workload up to date (it may have
            // switched jobs since the previous detection), then detect.
            let idx = victim.active_index(t);
            cluster.swap_profile(victim.vm, victim.profiles[idx].clone())?;
            telemetry.cluster_events(cluster.take_events());
            let d = detector.detect(&cluster, adversary, t, None, &mut rng, telemetry)?;
            belief = d.labels().next().cloned().or(belief);
            next_detection = t + interval;
        }
        let truth = victim.active_label(t);
        if let Some(b) = &belief {
            if b.matches(truth) {
                correct += 1;
            }
        }
        audited += 1;
        t += 1.0;
    }
    Ok(SweepPoint {
        parameter: interval,
        accuracy: correct as f64 / audited.max(1) as f64,
    })
}

/// Builds the phased-victim scene: one server, a quiet adversary, one
/// victim VM whose job changes over time. The cluster records its
/// lifecycle log when `record_events` is set.
fn phased_scene(
    base: &ExperimentConfig,
    job_duration_s: f64,
    horizon_s: f64,
    record_events: bool,
    rng: &mut StdRng,
) -> Result<(Cluster, VmId, PhasedVictim), BoltError> {
    let mut cluster = Cluster::new(1, ServerSpec::xeon(), base.isolation)?;
    if record_events {
        cluster.record_events();
    }
    let adv_profile = bolt_workloads::catalog::memcached::profile(
        &bolt_workloads::catalog::memcached::Variant::Mixed,
        rng,
    )
    .with_vcpus(base.adversary_vcpus);
    let adversary = cluster.launch_on(0, adv_profile, VmRole::Adversarial, 0.0)?;
    cluster.set_pressure_override(adversary, Some(PressureVector::zero()))?;

    // Draw the job sequence: diverse jobs, exponential-ish durations.
    let pool = victim_set(12, rng);
    let mut schedule = Vec::new();
    let mut profiles = Vec::new();
    let mut t = 0.0;
    while t < horizon_s {
        let job = pool[rng.gen_range(0..pool.len())].clone().with_vcpus(8);
        schedule.push((t, job.label().clone()));
        profiles.push(job);
        // Exponential holding time around the mean job duration.
        let u: f64 = rng.gen::<f64>().max(1e-9);
        t += -job_duration_s * u.ln();
    }
    let vm = cluster.launch_on(0, profiles[0].clone(), VmRole::Friendly, 0.0)?;

    Ok((
        cluster,
        adversary,
        PhasedVictim {
            vm,
            schedule,
            profiles,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ExperimentConfig {
        ExperimentConfig {
            servers: 6,
            victims: 12,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn adversary_size_matters_below_four_vcpus() {
        let (points, _) = adversary_size_sweep(&small(), &[1, 4], &RunCtx::new(false)).unwrap();
        assert_eq!(points.len(), 2);
        assert!(
            points[0].accuracy < points[1].accuracy,
            "1-vCPU adversary {p0} should underperform 4-vCPU {p1}",
            p0 = points[0].accuracy,
            p1 = points[1].accuracy
        );
    }

    #[test]
    fn single_benchmark_is_insufficient() {
        let (points, _) = benchmark_count_sweep(&small(), &[1, 3], &RunCtx::new(false)).unwrap();
        assert!(
            points[0].accuracy < points[1].accuracy + 1e-9,
            "1 benchmark {p0} should not beat 3 benchmarks {p1}",
            p0 = points[0].accuracy,
            p1 = points[1].accuracy
        );
    }

    #[test]
    fn stale_detections_lose_accuracy() {
        let (points, _) = profiling_interval_sweep(
            &[20.0, 300.0],
            60.0,
            600.0,
            0xF16A,
            Parallelism::Auto,
            &RunCtx::new(false),
        )
        .unwrap();
        assert!(
            points[0].accuracy > points[1].accuracy + 0.1,
            "20 s interval {p0} should clearly beat 300 s {p1}",
            p0 = points[0].accuracy,
            p1 = points[1].accuracy
        );
    }

    #[test]
    fn phased_victim_schedule_lookup() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = ExperimentConfig::default();
        let (_, _, victim) = phased_scene(&base, 60.0, 300.0, false, &mut rng).unwrap();
        assert!(!victim.schedule.is_empty());
        let first = victim.schedule[0].1.clone();
        assert!(victim.active_label(0.0).matches(&first));
    }
}
