//! Deterministic fit cache: share one trained recommender everywhere.
//!
//! [`HybridRecommender::fit`] is a pure function of its inputs — the SVD
//! is deterministic and the PQ-completion stage seeds its own fixed-seed
//! RNG — so two fits over the same [`TrainingData`] and
//! [`RecommenderConfig`] produce byte-identical models. Sweeps exploit
//! none of that today: a 30-point sensitivity sweep pays for 30 identical
//! SVD+SGD trainings.
//!
//! [`FitCache`] closes the gap with content-addressed memoization:
//!
//! * [`Fingerprint`] — a 128-bit content hash of the training examples
//!   (labels, kinds, observed and reference pressures) plus every config
//!   field, built from two independently-seeded FNV-1a-64 streams via
//!   [`ContentHasher`]. The workspace has no serialization library, so
//!   the hash is hand-rolled over `f64::to_bits` and the raw label bytes.
//! * [`FitCache::fit`] — returns the cached `Arc<HybridRecommender>` on a
//!   fingerprint hit, trains (and inserts) on a miss. Because fits are
//!   pure, a hit is byte-identical to a refit; the cache can be dropped
//!   in anywhere without changing a single output byte.
//! * [`FitCache::training_data`] — the same memoization one level up:
//!   building the observed training set walks the full workload catalog,
//!   so sweeps key it by the inputs that actually feed it (training seed
//!   and isolation attenuations) and build it exactly once.
//! * [`FitCache::disabled`] — the escape hatch: every lookup misses,
//!   nothing is retained, behavior is exactly the pre-cache pipeline.
//!
//! # Determinism contract for parallel sweeps
//!
//! The cache itself is thread-safe (a std `Mutex` around the map; misses
//! train *outside* the lock so distinct fingerprints fit in parallel).
//! The returned hit/miss flag, however, feeds per-unit telemetry
//! counters, and those streams must be byte-identical across
//! `Parallelism::{Serial, Threads(n)}`. Callers that fan units out in
//! parallel therefore either **pre-warm** the shared keys on the calling
//! thread (every unit observes a hit) or use **per-unit-unique** keys
//! (every unit observes a miss); racing two units on a cold shared key
//! would make the flags scheduling-dependent. All in-tree sweeps follow
//! this rule.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use bolt_linalg::LinalgError;

use crate::dataset::TrainingData;
use crate::hybrid::{HybridRecommender, RecommenderConfig};

/// A 128-bit content fingerprint of a (training data, config) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
// A second, independent starting state for the high half of the
// fingerprint (FNV offset basis XOR-folded with an arbitrary odd salt),
// so the two 64-bit streams never collide in lockstep.
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15;

/// Incremental content hasher producing a [`Fingerprint`].
///
/// Two FNV-1a-64 accumulators over the same byte stream with different
/// offset bases; the pair forms the 128-bit fingerprint. FNV is not
/// cryptographic — the cache is a performance device keyed by trusted
/// in-process inputs, and 128 bits keep accidental collisions out of
/// reach for the handful of distinct configurations a sweep touches.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    lo: u64,
    hi: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        ContentHasher {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET_HI,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` (widened to `u64` so the hash is
    /// pointer-width-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` by its exact bit pattern — `-0.0` and `0.0` hash
    /// differently, `NaN` payloads are distinguished; content equality
    /// here means bit equality, which is what byte-identical refits need.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Finalizes the fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint((u128::from(self.hi) << 64) | u128::from(self.lo))
    }
}

/// Content fingerprint of a (training data, recommender config) pair —
/// the cache key under which a fitted [`HybridRecommender`] is stored.
pub fn fingerprint(data: &TrainingData, config: &RecommenderConfig) -> Fingerprint {
    let mut h = ContentHasher::new();
    h.write_usize(data.len());
    for e in data.examples() {
        h.write_str(e.label.family());
        h.write_str(e.label.variant());
        h.write_u8(e.label.scale() as u8);
        h.write_u8(e.kind as u8);
        for &v in e.pressure.as_slice() {
            h.write_f64(v);
        }
        for &v in e.reference.as_slice() {
            h.write_f64(v);
        }
    }
    hash_config(&mut h, config);
    h.finish()
}

/// Content fingerprint of a [`RecommenderConfig`] alone — the "same
/// config" half of [`FitCache::nearest`]'s lookup key.
pub fn config_fingerprint(config: &RecommenderConfig) -> Fingerprint {
    let mut h = ContentHasher::new();
    hash_config(&mut h, config);
    h.finish()
}

fn hash_config(h: &mut ContentHasher, config: &RecommenderConfig) {
    h.write_f64(config.energy_fraction);
    h.write_f64(config.match_threshold);
    h.write_u8(u8::from(config.weighted));
    h.write_f64(config.noise_floor);
    h.write_usize(config.pair_shortlist);
    h.write_f64(config.mrc_tie_margin);
    h.write_usize(config.sgd.factors);
    h.write_f64(config.sgd.learning_rate);
    h.write_f64(config.sgd.regularization);
    h.write_usize(config.sgd.max_epochs);
    h.write_f64(config.sgd.target_rmse);
    h.write_f64(config.sgd.init_scale);
}

/// How a [`FitCache::fit_warm`] lookup was satisfied.
///
/// Maps onto the plain [`FitCache::fit`] flag as `Hit ↔ true` and
/// `{Warm, Cold} ↔ false`; `Warm` additionally says the training was
/// seeded from a cached same-config neighbor via
/// [`HybridRecommender::refit_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitOutcome {
    /// Served from the cache; no training ran.
    Hit,
    /// Trained, warm-started from the nearest cached neighbor.
    Warm,
    /// Trained from scratch.
    Cold,
}

/// Hit/miss/eviction tallies for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitCacheStats {
    /// Model lookups answered from the cache.
    pub hits: u64,
    /// Model lookups that had to train.
    pub misses: u64,
    /// Models evicted to stay within capacity.
    pub evictions: u64,
    /// Training-set lookups answered from the cache.
    pub data_hits: u64,
    /// Training-set lookups that had to build the catalog.
    pub data_misses: u64,
}

impl FitCacheStats {
    /// Fraction of model lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct State {
    models: HashMap<Fingerprint, Arc<HybridRecommender>>,
    // Insertion order for FIFO eviction; a sweep revisits its handful of
    // configurations round-robin, so recency tracking buys nothing over
    // arrival order here.
    order: VecDeque<Fingerprint>,
    data: HashMap<u64, Arc<TrainingData>>,
    data_order: VecDeque<u64>,
    // Warm-start registry: (config fingerprint, caller's training-data
    // key, full model fingerprint) for every model inserted through
    // [`FitCache::fit_warm`]. Lets `nearest` find a same-config model
    // trained on nearby data without hashing anything.
    keys: Vec<(Fingerprint, u64, Fingerprint)>,
    stats: FitCacheStats,
}

/// Default model capacity: comfortably above the largest in-tree sweep
/// (the isolation study trains 21 distinct cells).
const DEFAULT_CAPACITY: usize = 64;

/// A thread-safe, deterministic cache of fitted [`HybridRecommender`]s
/// (and the training sets that feed them), shared across sweep points,
/// hunts, and `Parallelism::Threads(n)` workers.
///
/// Determinism contract: callers that fan units out in parallel pre-warm
/// shared keys on the calling thread, so the per-unit hit/miss flags (and
/// the telemetry they feed) never depend on scheduling. Construct one per
/// sweep (or per CLI invocation) and hand it to every driver of the run;
/// [`FitCache::disabled`] restores the train-every-time pipeline.
///
/// # Example
///
/// ```
/// use bolt_recommender::{FitCache, RecommenderConfig, TrainingData};
/// use bolt_workloads::training::training_set;
///
/// let cache = FitCache::new();
/// let data = TrainingData::from_profiles(&training_set(1)).unwrap();
/// let (first, hit) = cache.fit(&data, RecommenderConfig::default()).unwrap();
/// assert!(!hit);
/// let (second, hit) = cache.fit(&data, RecommenderConfig::default()).unwrap();
/// assert!(hit);
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// ```
#[derive(Debug)]
pub struct FitCache {
    inner: Option<Mutex<State>>,
    capacity: usize,
}

impl Default for FitCache {
    fn default() -> Self {
        FitCache::new()
    }
}

impl FitCache {
    /// An enabled cache with the default capacity.
    pub fn new() -> Self {
        FitCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled cache evicting FIFO beyond `capacity` models (and
    /// `capacity` training sets). A capacity of zero caches nothing but
    /// still tallies misses.
    pub fn with_capacity(capacity: usize) -> Self {
        FitCache {
            inner: Some(Mutex::new(State::default())),
            capacity,
        }
    }

    /// The escape hatch: every lookup misses and trains fresh, nothing
    /// is retained — exactly the pre-cache pipeline.
    pub fn disabled() -> Self {
        FitCache {
            inner: None,
            capacity: 0,
        }
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns the recommender trained on `(data, config)`, fitting on a
    /// miss. The flag is `true` on a cache hit (the fit was skipped).
    ///
    /// Training runs *outside* the map lock, so concurrent misses on
    /// distinct fingerprints train in parallel. Two threads racing the
    /// same cold fingerprint both train — wasted work, never wrong
    /// output, since fits are pure; the pre-warm rule of the determinism
    /// contract keeps that off in-tree sweep paths anyway.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from [`HybridRecommender::fit`] on a
    /// miss; hits cannot fail.
    pub fn fit(
        &self,
        data: &TrainingData,
        config: RecommenderConfig,
    ) -> Result<(Arc<HybridRecommender>, bool), LinalgError> {
        let Some(lock) = &self.inner else {
            return Ok((
                Arc::new(HybridRecommender::fit(data.clone(), config)?),
                false,
            ));
        };
        let key = fingerprint(data, &config);
        {
            let mut state = lock.lock().expect("fit cache poisoned");
            if let Some(model) = state.models.get(&key) {
                let model = Arc::clone(model);
                state.stats.hits += 1;
                return Ok((model, true));
            }
            state.stats.misses += 1;
        }
        let model = Arc::new(HybridRecommender::fit(data.clone(), config)?);
        let mut state = lock.lock().expect("fit cache poisoned");
        self.insert_model(&mut state, key, &model);
        Ok((model, false))
    }

    fn insert_model(&self, state: &mut State, key: Fingerprint, model: &Arc<HybridRecommender>) {
        if !state.models.contains_key(&key) && self.capacity > 0 {
            state.models.insert(key, Arc::clone(model));
            state.order.push_back(key);
            while state.order.len() > self.capacity {
                if let Some(old) = state.order.pop_front() {
                    state.models.remove(&old);
                    state.keys.retain(|&(_, _, m)| m != old);
                    state.stats.evictions += 1;
                }
            }
        }
    }

    /// The cached same-config model whose training-data key is closest to
    /// `data_key` (absolute distance on the caller's seed/attenuation key;
    /// ties go to the smaller key). Only models inserted through
    /// [`FitCache::fit_warm`] are candidates — plain [`FitCache::fit`]
    /// has no data key to register. Returns `None` when disabled or when
    /// no same-config model is cached.
    pub fn nearest(
        &self,
        config: &RecommenderConfig,
        data_key: u64,
    ) -> Option<Arc<HybridRecommender>> {
        let lock = self.inner.as_ref()?;
        let state = lock.lock().expect("fit cache poisoned");
        let cfg_fp = config_fingerprint(config);
        let mut best: Option<(u64, u64, Fingerprint)> = None;
        for &(c, k, m) in &state.keys {
            if c != cfg_fp || !state.models.contains_key(&m) {
                continue;
            }
            let dist = k.abs_diff(data_key);
            let better = match best {
                None => true,
                Some((bd, bk, _)) => dist < bd || (dist == bd && k < bk),
            };
            if better {
                best = Some((dist, k, m));
            }
        }
        best.and_then(|(_, _, m)| state.models.get(&m).map(Arc::clone))
    }

    /// [`FitCache::fit`] with warm-start support: on a miss with `warm`
    /// set, the model is trained by [`HybridRecommender::refit_from`]
    /// seeded from [`FitCache::nearest`]'s same-config neighbor (when one
    /// exists) instead of from scratch. Every model inserted through this
    /// entry point registers `data_key` so later calls can find it.
    ///
    /// With `warm = false` the trained model is byte-identical to
    /// [`FitCache::fit`]'s — the registry bookkeeping never feeds the
    /// training. With `warm = true` bit-exactness is explicitly *not*
    /// promised (the warm SGD path draws a different RNG stream); callers
    /// opt in per the flag-gating contract.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the underlying fit on a miss; hits
    /// cannot fail.
    pub fn fit_warm(
        &self,
        data: &TrainingData,
        config: RecommenderConfig,
        data_key: u64,
        warm: bool,
    ) -> Result<(Arc<HybridRecommender>, FitOutcome), LinalgError> {
        let Some(lock) = &self.inner else {
            return Ok((
                Arc::new(HybridRecommender::fit(data.clone(), config)?),
                FitOutcome::Cold,
            ));
        };
        let key = fingerprint(data, &config);
        {
            let mut state = lock.lock().expect("fit cache poisoned");
            if let Some(model) = state.models.get(&key) {
                let model = Arc::clone(model);
                state.stats.hits += 1;
                return Ok((model, FitOutcome::Hit));
            }
            state.stats.misses += 1;
        }
        let prior = if warm {
            self.nearest(&config, data_key)
        } else {
            None
        };
        let (model, outcome) = match prior {
            Some(prior) => (
                Arc::new(HybridRecommender::refit_from(&prior, data.clone(), config)?),
                FitOutcome::Warm,
            ),
            None => (
                Arc::new(HybridRecommender::fit(data.clone(), config)?),
                FitOutcome::Cold,
            ),
        };
        let mut state = lock.lock().expect("fit cache poisoned");
        self.insert_model(&mut state, key, &model);
        if self.capacity > 0 && state.models.contains_key(&key) {
            let cfg_fp = config_fingerprint(&config);
            if !state.keys.contains(&(cfg_fp, data_key, key)) {
                state.keys.push((cfg_fp, data_key, key));
            }
        }
        Ok((model, outcome))
    }

    /// Memoizes an expensive training-set construction under a
    /// caller-computed `key` (hash the inputs that actually determine the
    /// result — e.g. the training seed and the isolation attenuations —
    /// with a [`ContentHasher`]). Builds via `build` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates the error from `build` on a miss; nothing is cached on
    /// failure.
    pub fn training_data<F>(&self, key: u64, build: F) -> Result<Arc<TrainingData>, LinalgError>
    where
        F: FnOnce() -> Result<TrainingData, LinalgError>,
    {
        let Some(lock) = &self.inner else {
            return Ok(Arc::new(build()?));
        };
        {
            let mut state = lock.lock().expect("fit cache poisoned");
            if let Some(data) = state.data.get(&key) {
                let data = Arc::clone(data);
                state.stats.data_hits += 1;
                return Ok(data);
            }
            state.stats.data_misses += 1;
        }
        let data = Arc::new(build()?);
        let mut state = lock.lock().expect("fit cache poisoned");
        if !state.data.contains_key(&key) && self.capacity > 0 {
            state.data.insert(key, Arc::clone(&data));
            state.data_order.push_back(key);
            while state.data_order.len() > self.capacity {
                if let Some(old) = state.data_order.pop_front() {
                    state.data.remove(&old);
                }
            }
        }
        Ok(data)
    }

    /// A snapshot of the hit/miss/eviction tallies (all zero when
    /// disabled).
    pub fn stats(&self) -> FitCacheStats {
        self.inner
            .as_ref()
            .map(|lock| lock.lock().expect("fit cache poisoned").stats)
            .unwrap_or_default()
    }

    /// Number of models currently cached.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map(|lock| lock.lock().expect("fit cache poisoned").models.len())
            .unwrap_or(0)
    }

    /// True if no models are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached model and training set (tallies are kept).
    pub fn clear(&self) {
        if let Some(lock) = &self.inner {
            let mut state = lock.lock().expect("fit cache poisoned");
            state.models.clear();
            state.order.clear();
            state.data.clear();
            state.data_order.clear();
            state.keys.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_workloads::training::training_set;
    use bolt_workloads::Resource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_data() -> TrainingData {
        TrainingData::from_profiles(&training_set(1)[..12]).unwrap()
    }

    #[test]
    fn hit_returns_same_arc_and_tallies() {
        let cache = FitCache::new();
        let data = small_data();
        let cfg = RecommenderConfig::default();
        let (a, hit_a) = cache.fit(&data, cfg).unwrap();
        let (b, hit_b) = cache.fit(&data, cfg).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn config_changes_miss() {
        let cache = FitCache::new();
        let data = small_data();
        let cfg = RecommenderConfig::default();
        cache.fit(&data, cfg).unwrap();
        let other = RecommenderConfig {
            noise_floor: cfg.noise_floor + 1.0,
            ..cfg
        };
        let (_, hit) = cache.fit(&data, other).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn data_changes_miss() {
        let cache = FitCache::new();
        let cfg = RecommenderConfig::default();
        cache.fit(&small_data(), cfg).unwrap();
        let other = TrainingData::from_profiles(&training_set(2)[..12]).unwrap();
        let (_, hit) = cache.fit(&other, cfg).unwrap();
        assert!(!hit);
    }

    #[test]
    fn disabled_never_hits_and_retains_nothing() {
        let cache = FitCache::disabled();
        let data = small_data();
        let cfg = RecommenderConfig::default();
        let (_, h1) = cache.fit(&data, cfg).unwrap();
        let (_, h2) = cache.fit(&data, cfg).unwrap();
        assert!(!h1 && !h2);
        assert!(!cache.is_enabled());
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), FitCacheStats::default());
    }

    #[test]
    fn fifo_eviction_tallies() {
        let cache = FitCache::with_capacity(1);
        let data = small_data();
        let base = RecommenderConfig::default();
        cache.fit(&data, base).unwrap();
        let other = RecommenderConfig {
            noise_floor: 9.0,
            ..base
        };
        cache.fit(&data, other).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        // The first entry was evicted: refitting it misses again.
        let (_, hit) = cache.fit(&data, base).unwrap();
        assert!(!hit);
    }

    #[test]
    fn cached_model_is_byte_identical_to_fresh_fit() {
        let cache = FitCache::new();
        let data = small_data();
        let cfg = RecommenderConfig::default();
        cache.fit(&data, cfg).unwrap();
        let (cached, hit) = cache.fit(&data, cfg).unwrap();
        assert!(hit);
        let fresh = HybridRecommender::fit(data.clone(), cfg).unwrap();
        let pressure = data.example(0).pressure;
        let obs: Vec<(Resource, f64)> = Resource::ALL[..3]
            .iter()
            .map(|&r| (r, pressure.as_slice()[r.index()]))
            .collect();
        let a = cached
            .complete_collaborative(&obs, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let b = fresh
            .complete_collaborative(&obs, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn training_data_memoizes_by_key() {
        let cache = FitCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let data = cache
                .training_data(42, || {
                    builds += 1;
                    TrainingData::from_profiles(&training_set(1))
                })
                .unwrap();
            assert_eq!(data.len(), 120);
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.data_hits, stats.data_misses), (2, 1));
    }

    #[test]
    fn fingerprints_are_order_sensitive() {
        let mut a = ContentHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = ContentHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(ContentHasher::new().finish().as_u128(), 0);
    }

    #[test]
    fn fit_warm_off_path_is_byte_identical_to_fit() {
        // The flag-off contract: fit_warm(warm=false) must produce exactly
        // the model fit() produces — registry bookkeeping never leaks into
        // training.
        let cache = FitCache::new();
        let data = small_data();
        let cfg = RecommenderConfig::default();
        let (via_warm_api, outcome) = cache.fit_warm(&data, cfg, 0xAB, false).unwrap();
        assert_eq!(outcome, FitOutcome::Cold);
        let fresh = HybridRecommender::fit(data.clone(), cfg).unwrap();
        let pressure = data.example(0).pressure;
        let obs: Vec<(Resource, f64)> = Resource::ALL[..3]
            .iter()
            .map(|&r| (r, pressure.as_slice()[r.index()]))
            .collect();
        let a = via_warm_api
            .complete_collaborative(&obs, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let b = fresh
            .complete_collaborative(&obs, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        // Identical inputs hit regardless of the flag, and the plain fit
        // path shares the same map.
        let (_, outcome) = cache.fit_warm(&data, cfg, 0xAB, true).unwrap();
        assert_eq!(outcome, FitOutcome::Hit);
        let (_, hit) = cache.fit(&data, cfg).unwrap();
        assert!(hit);
    }

    #[test]
    fn fit_warm_seeds_from_the_nearest_same_config_neighbor() {
        let cache = FitCache::new();
        let cfg = RecommenderConfig::default();
        let near = small_data();
        let far = TrainingData::from_profiles(&training_set(2)[..12]).unwrap();
        let third = TrainingData::from_profiles(&training_set(3)[..12]).unwrap();
        cache.fit_warm(&near, cfg, 100, false).unwrap();
        cache.fit_warm(&far, cfg, 900, false).unwrap();
        // Key 150 is closest to 100: nearest must pick the first model.
        let neighbor = cache.nearest(&cfg, 150).unwrap();
        let (cached_100, outcome) = cache.fit_warm(&near, cfg, 100, false).unwrap();
        assert_eq!(outcome, FitOutcome::Hit);
        assert!(Arc::ptr_eq(&neighbor, &cached_100));
        // A warm miss trains via refit_from and still yields a usable model.
        let (warm_model, outcome) = cache.fit_warm(&third, cfg, 150, true).unwrap();
        assert_eq!(outcome, FitOutcome::Warm);
        let pressure = third.example(0).pressure;
        let obs: Vec<(Resource, f64)> = Resource::ALL[..3]
            .iter()
            .map(|&r| (r, pressure.as_slice()[r.index()]))
            .collect();
        let completed = warm_model
            .complete_collaborative(&obs, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert!(completed.as_slice().iter().all(|v| v.is_finite()));
        // A different config has no same-config neighbor: warm miss falls
        // back to a cold fit.
        let other_cfg = RecommenderConfig {
            noise_floor: cfg.noise_floor + 1.0,
            ..cfg
        };
        assert!(cache.nearest(&other_cfg, 100).is_none());
        let (_, outcome) = cache.fit_warm(&near, other_cfg, 100, true).unwrap();
        assert_eq!(outcome, FitOutcome::Cold);
        // Disabled cache: no neighbors, always cold.
        let off = FitCache::disabled();
        assert!(off.nearest(&cfg, 0).is_none());
        let (_, outcome) = off.fit_warm(&near, cfg, 0, true).unwrap();
        assert_eq!(outcome, FitOutcome::Cold);
    }

    #[test]
    fn threads_share_one_model() {
        let cache = FitCache::new();
        let data = small_data();
        let cfg = RecommenderConfig::default();
        // Pre-warm on this thread per the determinism contract.
        let (warm, _) = cache.fit(&data, cfg).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let (model, hit) = cache.fit(&data, cfg).unwrap();
                    assert!(hit);
                    assert!(Arc::ptr_eq(&model, &warm));
                });
            }
        });
        assert_eq!(cache.stats().hits, 4);
    }
}
