//! Criterion micro-benchmarks for the mixture-decomposition kernel: the
//! pruned pair search (shortlist K, the default) against the exhaustive
//! O(n²) search (`pair_shortlist = usize::MAX`, the exactness ablation).
//!
//! Two dictionary shapes matter: `decompose_mixture` searches the plain
//! 120-atom training dictionary (the default K = 128 covers it, so the
//! search is exact), while `decompose_with_core` searches the 3× larger
//! visibility-hypothesis dictionary — that is where the shortlist pays.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bolt_recommender::{HybridRecommender, RecommenderConfig, RecommenderStats, TrainingData};
use bolt_workloads::{training::training_set, Resource};

/// A two-tenant mixed observation over all ten dimensions, summed from two
/// training examples at fixed load scales (the §3.3 linearity assumption).
fn mixed_obs(rec: &HybridRecommender, a: usize, b: usize) -> Vec<(Resource, f64)> {
    let ea = rec.training_data().example(a).pressure;
    let eb = rec.training_data().example(b).pressure;
    Resource::ALL
        .iter()
        .map(|&r| (r, (0.9 * ea[r] + 0.6 * eb[r]).min(100.0)))
        .collect()
}

fn fit(pair_shortlist: usize) -> HybridRecommender {
    let data = TrainingData::from_profiles(&training_set(7)).expect("training data");
    let config = RecommenderConfig {
        pair_shortlist,
        ..RecommenderConfig::default()
    };
    HybridRecommender::fit(data, config).expect("fit")
}

fn bench_pair_pursuit(c: &mut Criterion) {
    let pruned = fit(RecommenderConfig::default().pair_shortlist);
    let exact = fit(usize::MAX);
    let obs = mixed_obs(&pruned, 3, 47);
    let core_obs: Vec<(Resource, f64)> =
        obs.iter().copied().filter(|&(r, _)| r.is_core()).collect();
    let uncore_obs: Vec<(Resource, f64)> =
        obs.iter().copied().filter(|&(r, _)| !r.is_core()).collect();

    // Both shapes run cold: no MRC curve, no warm shortlist.
    let mixture = |rec: &HybridRecommender| {
        let mut stats = RecommenderStats::default();
        let d = rec.decompose_mixture(black_box(&obs), 2, None, None, &mut stats);
        d.expect("decompose").len()
    };
    let joint = |rec: &HybridRecommender| {
        let mut stats = RecommenderStats::default();
        let (core, uncore) = (black_box(&core_obs), &uncore_obs);
        let d = rec.decompose_with_core(core, uncore, 0.35, 2, None, None, &mut stats);
        d.expect("decompose").len()
    };
    c.bench_function("pair_pursuit_mixture_default", |b| {
        b.iter(|| black_box(mixture(&pruned)))
    });
    c.bench_function("pair_pursuit_mixture_exhaustive", |b| {
        b.iter(|| black_box(mixture(&exact)))
    });
    c.bench_function("pair_pursuit_core_default", |b| {
        b.iter(|| black_box(joint(&pruned)))
    });
    c.bench_function("pair_pursuit_core_exhaustive", |b| {
        b.iter(|| black_box(joint(&exact)))
    });
}

criterion_group!(benches, bench_pair_pursuit);
criterion_main!(benches);
