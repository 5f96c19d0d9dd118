//! Deterministic fit cache: share one trained recommender everywhere.
//!
//! [`HybridRecommender::fit`] is a pure function of its inputs — the SVD
//! is deterministic and the fit draws no random numbers — so two fits
//! over the same [`TrainingData`] and [`RecommenderConfig`] produce
//! byte-identical models. Without the cache a 30-point sensitivity sweep
//! pays for 30 identical SVD fits.
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
    h.write_f64(config.energy_fraction);
    h.write_f64(config.match_threshold);
    h.write_u8(u8::from(config.weighted));
    h.write_f64(config.noise_floor);
    h.write_usize(config.pair_shortlist);
    h.write_f64(config.mrc_tie_margin);
    h.finish()
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

#[derive(Debug, Default)]
struct State {
    models: HashMap<Fingerprint, Arc<HybridRecommender>>,
    // Insertion order for FIFO eviction; a sweep revisits its handful of
    // configurations round-robin, so recency tracking buys nothing over
    // arrival order here.
    order: VecDeque<Fingerprint>,
    data: HashMap<u64, Arc<TrainingData>>,
    data_order: VecDeque<u64>,
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
        if !state.models.contains_key(&key) && self.capacity > 0 {
            state.models.insert(key, Arc::clone(&model));
            state.order.push_back(key);
            while state.order.len() > self.capacity {
                if let Some(old) = state.order.pop_front() {
                    state.models.remove(&old);
                    state.stats.evictions += 1;
                }
            }
        }
        Ok((model, false))
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
            .recommend(&obs, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let b = fresh
            .recommend(&obs, &mut StdRng::seed_from_u64(7))
            .unwrap();
        // `Debug` prints every f64 in round-trip form, so equal strings
        // are equal bits (and tell `-0.0` from `0.0`).
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
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
