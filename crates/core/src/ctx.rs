//! The run context every driver borrows, and the fit memo it carries.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bolt_recommender::{HybridRecommender, RecommenderConfig};
use bolt_sim::IsolationConfig;
use bolt_workloads::RESOURCE_COUNT;

use crate::telemetry::Telemetry;
use crate::BoltError;

/// The two choices a caller makes for a driver run: which [`FitCache`]
/// the recommender trains (or is recalled) through, and whether the run
/// records telemetry.
///
/// Every driver — [`run_experiment`](crate::run_experiment), the three
/// [`sensitivity`](crate::sensitivity) sweeps,
/// [`churn_sweep`](crate::churn_sweep),
/// [`run_isolation_study`](crate::run_isolation_study),
/// [`run_user_study`](crate::run_user_study) and
/// [`run_service`](crate::run_service) — takes a `&RunCtx` and returns its
/// result together with a [`TelemetryLog`](crate::TelemetryLog). The log
/// is empty when `telemetry` is false. The result never depends on either
/// field: a recalled model is byte-identical to a refit (a fresh
/// [`FitCache`] trains once per key), and recording draws no randomness.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx<'a> {
    /// The cache fits go through. Share one across runs to train once.
    pub fit_cache: &'a FitCache,
    /// Whether the run records and returns its telemetry stream.
    pub telemetry: bool,
}

impl<'a> RunCtx<'a> {
    /// A context fitting through `fit_cache` that records telemetry when
    /// `telemetry` is set.
    pub fn new(fit_cache: &'a FitCache, telemetry: bool) -> Self {
        RunCtx {
            fit_cache,
            telemetry,
        }
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
/// [`HybridRecommender::fit`] draws no random numbers, so a recalled model
/// is byte-identical to a refit and the memo changes no output byte. Its
/// one caller is [`shared_recommender`](crate::experiment::shared_recommender),
/// which reports each lookup as a `fit-cache-hit` or `fit-cache-miss`.
/// Construct one per sweep (or per CLI invocation) and hand it to every
/// driver of the run.
///
/// # Determinism contract for parallel sweeps
///
/// Misses fit *outside* the lock, so distinct keys fit in parallel. The
/// hit/miss flag, however, feeds per-unit telemetry counters, and those
/// streams must be byte-identical across `Parallelism::{Serial,
/// Threads(n)}`. Callers that fan units out in parallel therefore either
/// **pre-warm** the shared keys on the calling thread (every unit
/// observes a hit) or use **per-unit-unique** keys (every unit observes a
/// miss); racing two units on a cold shared key would make the flags
/// scheduling-dependent. All in-tree sweeps follow this rule.
#[derive(Debug, Default)]
pub struct FitCache {
    models: Mutex<HashMap<FitKey, Arc<HybridRecommender>>>,
}

impl FitCache {
    /// An empty memo.
    pub fn new() -> Self {
        FitCache::default()
    }

    /// The model fitted for `(training_seed, isolation, config)`, running
    /// `fit` on a miss. The flag is `true` on a hit (nothing was built).
    ///
    /// Two threads racing the same cold key both fit — wasted work, never
    /// wrong output; the first model stored is the one later hits recall.
    pub(crate) fn get_or_fit(
        &self,
        training_seed: u64,
        isolation: &IsolationConfig,
        config: RecommenderConfig,
        fit: impl FnOnce() -> Result<HybridRecommender, BoltError>,
    ) -> Result<(Arc<HybridRecommender>, bool), BoltError> {
        let key = FitKey::new(training_seed, isolation, config);
        if let Some(model) = self.models.lock().expect("fit cache poisoned").get(&key) {
            return Ok((Arc::clone(model), true));
        }
        let model = Arc::new(fit()?);
        let mut models = self.models.lock().expect("fit cache poisoned");
        models.entry(key).or_insert_with(|| Arc::clone(&model));
        Ok((model, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{observed_training, shared_recommender};
    use crate::telemetry::{Counter, TelemetryLog};
    use bolt_recommender::TrainingData;
    use bolt_sim::Mechanisms;
    use bolt_workloads::training::training_set;

    const SEED: u64 = 1;

    /// Fits through `cache` and returns the model with the lookup's
    /// `[hits, misses]` as recorded in telemetry.
    fn fit(
        cache: &FitCache,
        seed: u64,
        isolation: IsolationConfig,
        config: RecommenderConfig,
    ) -> (Arc<HybridRecommender>, [u64; 2]) {
        let mut telemetry = Telemetry::for_unit(0);
        let model = shared_recommender(seed, &isolation, config, cache, &mut telemetry).unwrap();
        let log = TelemetryLog::from_events(telemetry.into_events());
        let counts = [Counter::FitCacheHit, Counter::FitCacheMiss].map(|c| log.counter_total(c));
        (model, counts)
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
        let (first, cold) = fit(&cache, SEED, isolation, config);
        let (second, warm) = fit(&cache, SEED, isolation, config);
        assert_eq!((cold, warm), ([0, 1], [1, 0]));
        assert!(Arc::ptr_eq(&first, &second));
        let data = TrainingData::from_examples(observed_training(&training_set(SEED), &isolation))
            .unwrap();
        let fresh = HybridRecommender::fit(data, config).unwrap();
        // `Debug` prints every f64 in round-trip form, so equal strings are
        // equal bits (and tell `-0.0` from `0.0`).
        assert_eq!(format!("{second:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn every_fit_input_is_part_of_the_key() {
        let cache = FitCache::new();
        let (isolation, config) = defaults();
        fit(&cache, SEED, isolation, config);
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
            let (_, counts) = fit(&cache, seed, isolation, config);
            assert_eq!(counts, [0, 1], "{seed} {isolation:?} {config:?}");
        }
    }

    #[test]
    fn threads_share_one_model() {
        let cache = FitCache::new();
        let (isolation, config) = defaults();
        // Pre-warm on this thread per the determinism contract.
        let (warm, _) = fit(&cache, SEED, isolation, config);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let (model, counts) = fit(&cache, SEED, isolation, config);
                    assert_eq!(counts, [1, 0]);
                    assert!(Arc::ptr_eq(&model, &warm));
                });
            }
        });
    }
}
