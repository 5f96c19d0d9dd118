//! Criterion bench for the fit cache: a multi-point sweep fitting through
//! one shared [`FitCache`] versus `FitCache::disabled()` (refit at every
//! point). Cache hits return the same `Arc`'d model a fresh fit would
//! produce bit-for-bit (property-tested in
//! `crates/recommender/src/cache.rs` and the core oracle suite), so the
//! wall-clock gap is pure amortization.
//!
//! The `fit_hit` / `fit_miss` pair isolates the per-call costs: a hit is
//! one fingerprint pass plus a map lookup; a miss is that plus the SVD
//! fit.

use bolt::RunCtx;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::FitCache;
use bolt_recommender::{fingerprint, RecommenderConfig, TrainingData};
use bolt_sim::LeastLoaded;
use bolt_workloads::training::training_set;

fn base() -> ExperimentConfig {
    // Small per-point detections, so the sweep cost profile matches the
    // regime the cache targets: training-dominated multi-point sweeps
    // (fig10's interval sweep re-fits per point without it).
    ExperimentConfig {
        servers: 4,
        victims: 3,
        ..ExperimentConfig::default()
    }
}

/// An eight-point mini-sweep over the experiment seed: every point shares
/// the training inputs, so the shared cache fits once and hits seven
/// times while the disabled cache refits at every point.
fn sweep(cache: &FitCache) -> usize {
    let mut total = 0;
    for seed in 1u64..=8 {
        let config = ExperimentConfig { seed, ..base() };
        let r = run_experiment(&config, &LeastLoaded, &RunCtx::new(cache, false))
            .expect("experiment runs")
            .0;
        total += r.records.len();
    }
    total
}

fn bench_fit_cache(c: &mut Criterion) {
    c.sample_size(10);
    c.bench_function("sweep_shared_cache", |b| {
        b.iter(|| {
            let cache = FitCache::new();
            black_box(sweep(black_box(&cache)))
        })
    });
    c.bench_function("sweep_cache_disabled", |b| {
        let cache = FitCache::disabled();
        b.iter(|| black_box(sweep(black_box(&cache))))
    });

    let data = TrainingData::from_profiles(&training_set(7)).expect("training data builds");
    let config = RecommenderConfig::default();
    c.bench_function("fit_hit", |b| {
        let cache = FitCache::new();
        cache.fit(&data, config).expect("warm fit");
        b.iter(|| {
            let (model, hit) = cache.fit(black_box(&data), config).expect("cached fit");
            assert!(hit);
            black_box(model.rank())
        })
    });
    c.bench_function("fit_miss", |b| {
        let cache = FitCache::disabled();
        b.iter(|| {
            let (model, _) = cache.fit(black_box(&data), config).expect("fresh fit");
            black_box(model.rank())
        })
    });
    c.bench_function("fingerprint", |b| {
        b.iter(|| black_box(fingerprint(black_box(&data), black_box(&config))))
    });
}

criterion_group!(benches, bench_fit_cache);
criterion_main!(benches);
