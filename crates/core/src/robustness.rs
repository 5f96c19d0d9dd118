//! Robustness sweep: detection quality versus churn intensity.
//!
//! The paper's controlled experiment runs against a frozen cluster. Real
//! clouds churn — VMs arrive, depart, migrate, and hosts throttle — so this
//! module re-runs the §3.4 experiment at increasing chaos intensities and
//! reports, per intensity, how accuracy decays and how much of the decay
//! the detector *admits to* (degraded detections) versus hides (silent
//! mislabels). A robust detector degrades loudly: as intensity grows, the
//! silent-mislabel rate should stay below the degraded-detection rate.

use bolt_sim::{ChaosConfig, Scheduler};

use crate::ctx::RunCtx;
use crate::experiment::{run_experiment, ExperimentConfig, ExperimentResults};
use crate::telemetry::{Counter, TelemetryLog};
use crate::BoltError;

/// One row of the robustness sweep: the §3.4 experiment at one churn
/// intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// Chaos intensity in `[0, 1]` (0 = the frozen legacy cluster).
    pub intensity: f64,
    /// Label accuracy over all victims.
    pub label_accuracy: f64,
    /// Characteristics accuracy over all victims.
    pub characteristics_accuracy: f64,
    /// Fraction of hunts whose final detection carried a degradation flag.
    pub degraded_rate: f64,
    /// Fraction of hunts that mislabeled *without* any degradation flag.
    pub silent_mislabel_rate: f64,
    /// Mean final-detection confidence.
    pub mean_confidence: f64,
    /// Total chaos faults injected across all hunts.
    pub faults_injected: u64,
    /// Total measurement windows discarded by the validity screen.
    pub windows_discarded: u64,
    /// Total re-probes charged to the retry budget.
    pub retries: u64,
}

impl RobustnessPoint {
    fn from_results(
        intensity: f64,
        results: &ExperimentResults,
        log: &TelemetryLog,
    ) -> RobustnessPoint {
        RobustnessPoint {
            intensity,
            label_accuracy: results.label_accuracy(),
            characteristics_accuracy: results.characteristics_accuracy(),
            degraded_rate: results.degraded_rate(),
            silent_mislabel_rate: results.silent_mislabel_rate(),
            mean_confidence: results.mean_confidence(),
            faults_injected: log.counter_total(Counter::FaultsInjected),
            windows_discarded: log.counter_total(Counter::WindowsDiscarded),
            retries: log.counter_total(Counter::DetectionRetries),
        }
    }
}

/// Runs the controlled experiment once per churn intensity. Each point
/// uses `base` with its chaos block replaced by
/// [`ChaosConfig::with_intensity`] (intensity `0.0` maps to
/// [`ChaosConfig::none`], i.e. the exact legacy experiment). The
/// per-point fault plans derive from `base.seed`, so the sweep is fully
/// deterministic and thread-count invariant. Each point's experiment
/// fits its own recommender.
///
/// The per-point fault/retry tallies are read off the experiments'
/// counters, so every point records telemetry internally whatever
/// `ctx.telemetry` says; the returned log (when asked for) is the
/// point-by-point concatenation in intensity order.
///
/// # Errors
///
/// Propagates [`BoltError`] from [`run_experiment`].
pub fn churn_sweep<S: Scheduler>(
    base: &ExperimentConfig,
    scheduler: &S,
    intensities: &[f64],
    ctx: &RunCtx,
) -> Result<(Vec<RobustnessPoint>, TelemetryLog), BoltError> {
    let recording = RunCtx::new(true);
    let mut points = Vec::with_capacity(intensities.len());
    let mut log = TelemetryLog::new();
    for &intensity in intensities {
        let config = ExperimentConfig {
            chaos: ChaosConfig::with_intensity(intensity),
            ..*base
        };
        let (results, point_log) = run_experiment(&config, scheduler, &recording)?;
        points.push(RobustnessPoint::from_results(
            intensity, &results, &point_log,
        ));
        if ctx.telemetry {
            log.extend(point_log.into_events());
        }
    }
    Ok((points, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Parallelism;
    use bolt_sim::LeastLoaded;

    fn small_base() -> ExperimentConfig {
        ExperimentConfig {
            servers: 6,
            victims: 12,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn zero_intensity_point_matches_the_legacy_experiment() {
        let base = small_base();
        let (points, _) = churn_sweep(&base, &LeastLoaded, &[0.0], &RunCtx::new(false)).unwrap();
        let (legacy, _) = run_experiment(&base, &LeastLoaded, &RunCtx::new(false)).unwrap();
        let p = &points[0];
        assert_eq!(p.label_accuracy, legacy.label_accuracy());
        assert_eq!(
            p.characteristics_accuracy,
            legacy.characteristics_accuracy()
        );
        // No chaos → nothing is ever flagged; whatever the detector gets
        // wrong on a frozen cluster is its baseline (silent) error rate.
        assert_eq!(p.degraded_rate, 0.0);
        assert_eq!(p.silent_mislabel_rate, legacy.silent_mislabel_rate());
        assert_eq!(p.faults_injected, 0);
        assert_eq!(p.windows_discarded, 0);
        assert_eq!(p.retries, 0);
    }

    #[test]
    fn churn_injects_faults_and_degrades_loudly_not_silently() {
        let (points, _) = churn_sweep(
            &small_base(),
            &LeastLoaded,
            &[0.0, 1.0],
            &RunCtx::new(false),
        )
        .unwrap();
        let calm = &points[0];
        let stormy = &points[1];
        assert!(
            stormy.faults_injected > 0,
            "full intensity must inject faults"
        );
        // Raw accuracy may move either way at this scale: retries (with
        // honest probe-time accounting between windows) convert silent
        // mislabels into correct labels or loud degradations. The
        // robustness contract is about *silent* failures, asserted below.
        assert!(
            stormy.silent_mislabel_rate <= calm.silent_mislabel_rate + 1e-9,
            "churn must not add silent mislabels ({} -> {})",
            calm.silent_mislabel_rate,
            stormy.silent_mislabel_rate
        );
        assert!(stormy.degraded_rate > 0.0, "some hunts must degrade loudly");
        assert!(
            stormy.mean_confidence < calm.mean_confidence,
            "degradation must drain confidence ({} -> {})",
            calm.mean_confidence,
            stormy.mean_confidence
        );
        // The robustness contract: failures under churn are announced.
        assert!(
            stormy.silent_mislabel_rate <= stormy.degraded_rate + 1e-9,
            "silent mislabels ({}) must not outnumber degraded detections ({})",
            stormy.silent_mislabel_rate,
            stormy.degraded_rate
        );
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let serial = ExperimentConfig {
            parallelism: Parallelism::Serial,
            ..small_base()
        };
        let threaded = ExperimentConfig {
            parallelism: Parallelism::Threads(3),
            ..small_base()
        };
        let (p1, log1) = churn_sweep(&serial, &LeastLoaded, &[0.5], &RunCtx::new(true)).unwrap();
        let (p2, log2) = churn_sweep(&threaded, &LeastLoaded, &[0.5], &RunCtx::new(true)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(log1.normalized(), log2.normalized());
    }
}
