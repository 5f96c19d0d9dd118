//! The run context every driver borrows, and the fit memo that survives
//! only behind the bolt-perf benchmark's frozen forwarders.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bolt_recommender::{HybridRecommender, RecommenderConfig};
use bolt_sim::IsolationConfig;
use bolt_workloads::RESOURCE_COUNT;

use crate::experiment::fit_recommender;
use crate::telemetry::Telemetry;
use crate::BoltError;

/// The one choice a caller makes for a driver run: whether it records
/// telemetry.
///
/// Every driver — [`run_experiment`](crate::run_experiment), the three
/// [`sensitivity`](crate::sensitivity) sweeps,
/// [`churn_sweep`](crate::churn_sweep),
/// [`run_isolation_study`](crate::run_isolation_study),
/// [`run_user_study`](crate::run_user_study) and
/// [`run_service`](crate::run_service) — takes a `&RunCtx` and returns its
/// result together with a [`TelemetryLog`](crate::TelemetryLog). The log
/// is empty when `telemetry` is false. The result never depends on it:
/// recording draws no randomness. Each driver fits its recommender once
/// per run through [`fit_recommender`], before its units fan out, and
/// lends them the model.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCtx {
    /// Whether the run records and returns its telemetry stream.
    pub telemetry: bool,
}

impl RunCtx {
    /// A context that records telemetry when `telemetry` is set.
    pub fn new(telemetry: bool) -> Self {
        RunCtx { telemetry }
    }

    /// The recording handle for parallel unit `unit`: enabled for that
    /// unit when the run records telemetry, a no-op handle otherwise.
    pub fn unit(&self, unit: usize) -> Telemetry {
        Telemetry::for_unit_if(self.telemetry, unit)
    }
}

/// The inputs a fit is a pure function of, every `f64` by bit pattern:
/// the training seed fixes the catalog draw, the isolation attenuations
/// are all that [`observe_through`](crate::experiment::observe_through)
/// folds into it, and the config drives the fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FitKey {
    training_seed: u64,
    attenuations: [u64; RESOURCE_COUNT],
    config: [u64; 6],
}

impl FitKey {
    fn new(training_seed: u64, isolation: &IsolationConfig, config: RecommenderConfig) -> Self {
        // Exhaustive: a new config field does not compile until it is keyed.
        let RecommenderConfig {
            energy_fraction,
            match_threshold,
            weighted,
            noise_floor,
            pair_shortlist,
            mrc_tie_margin,
        } = config;
        FitKey {
            training_seed,
            attenuations: isolation.attenuation_array().map(f64::to_bits),
            config: [
                energy_fraction.to_bits(),
                match_threshold.to_bits(),
                u64::from(weighted),
                noise_floor.to_bits(),
                pair_shortlist as u64,
                mrc_tie_margin.to_bits(),
            ],
        }
    }
}

/// A thread-safe memo of fitted recommenders, keyed by the inputs that
/// determine the fit: the training seed, the isolation attenuations and
/// the [`RecommenderConfig`].
///
/// No driver uses it. It is kept, with [`shared_recommender`] and the
/// `build_testbed_cache`, `run_experiment_cache` and
/// `run_service_cache_telemetry` forwarders, because the bolt-perf
/// benchmark names them; delete all of them when that benchmark is next
/// revised.
#[derive(Debug, Default)]
pub struct FitCache {
    models: Mutex<HashMap<FitKey, Arc<HybridRecommender>>>,
}

impl FitCache {
    /// An empty memo.
    pub fn new() -> Self {
        FitCache::default()
    }
}

/// The model fitted for `(training_seed, isolation, recommender)`,
/// recalled from `cache` or, on a miss, built by [`fit_recommender`]
/// (which records the fit's span into `telemetry`). A hit records
/// nothing. [`HybridRecommender::fit`] draws no random numbers, so a
/// recalled model is byte-identical to a refit.
///
/// Two threads racing the same cold key both fit — wasted work, never
/// wrong output; the first model stored is the one later hits recall.
///
/// # Errors
///
/// Propagates numerical errors from training-set construction or the fit.
pub fn shared_recommender(
    training_seed: u64,
    isolation: &IsolationConfig,
    recommender: RecommenderConfig,
    cache: &FitCache,
    telemetry: &mut Telemetry,
) -> Result<Arc<HybridRecommender>, BoltError> {
    let key = FitKey::new(training_seed, isolation, recommender);
    if let Some(model) = cache.models.lock().expect("fit cache poisoned").get(&key) {
        return Ok(Arc::clone(model));
    }
    let model = fit_recommender(training_seed, isolation, recommender, telemetry)?;
    let mut models = cache.models.lock().expect("fit cache poisoned");
    Ok(Arc::clone(models.entry(key).or_insert(model)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_sim::Mechanisms;

    const SEED: u64 = 1;

    /// Recalls through `cache` and returns the model with the number of
    /// events the lookup recorded (a fit span on a miss, none on a hit).
    fn recall(
        cache: &FitCache,
        seed: u64,
        isolation: IsolationConfig,
        config: RecommenderConfig,
    ) -> (Arc<HybridRecommender>, usize) {
        let mut telemetry = Telemetry::for_unit(0);
        let model = shared_recommender(seed, &isolation, config, cache, &mut telemetry).unwrap();
        (model, telemetry.into_events().len())
    }

    fn defaults() -> (IsolationConfig, RecommenderConfig) {
        (
            IsolationConfig::cloud_default(),
            RecommenderConfig::default(),
        )
    }

    #[test]
    fn a_hit_returns_the_model_a_fresh_fit_builds() {
        let cache = FitCache::new();
        let (isolation, config) = defaults();
        let (first, cold) = recall(&cache, SEED, isolation, config);
        let (second, warm) = recall(&cache, SEED, isolation, config);
        assert_eq!(
            (cold, warm),
            (1, 0),
            "a miss fits once, a hit records nothing"
        );
        assert!(Arc::ptr_eq(&first, &second));
        let fresh = fit_recommender(SEED, &isolation, config, &mut Telemetry::disabled()).unwrap();
        // `Debug` prints every f64 in round-trip form, so equal strings are
        // equal bits (and tell `-0.0` from `0.0`).
        assert_eq!(format!("{second:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn every_fit_input_is_part_of_the_key() {
        let cache = FitCache::new();
        let (isolation, config) = defaults();
        let (base, _) = recall(&cache, SEED, isolation, config);
        let attenuated = IsolationConfig {
            mechanisms: Mechanisms::core_isolation_only(),
            ..isolation
        };
        let with = |change: fn(&mut RecommenderConfig)| {
            let mut config = config;
            change(&mut config);
            (SEED, isolation, config)
        };
        let changed = [
            (SEED + 1, isolation, config),
            (SEED, attenuated, config),
            with(|c| c.noise_floor += 1.0),
            with(|c| c.weighted = !c.weighted),
            with(|c| c.pair_shortlist = 7),
        ];
        for (seed, isolation, config) in changed {
            let (model, _) = recall(&cache, seed, isolation, config);
            assert!(
                !Arc::ptr_eq(&model, &base),
                "{seed} {isolation:?} {config:?}"
            );
            let (again, _) = recall(&cache, seed, isolation, config);
            assert!(
                Arc::ptr_eq(&model, &again),
                "{seed} {isolation:?} {config:?}"
            );
        }
    }

    #[test]
    fn threads_share_one_model() {
        let cache = FitCache::new();
        let (isolation, config) = defaults();
        let (warm, _) = recall(&cache, SEED, isolation, config);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let (model, _) = recall(&cache, SEED, isolation, config);
                    assert!(Arc::ptr_eq(&model, &warm));
                });
            }
        });
    }
}
