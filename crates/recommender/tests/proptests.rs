//! Property-based tests for the hybrid recommender's invariants.

use std::sync::{Arc, OnceLock};

use bolt_recommender::{
    FitCache, HybridRecommender, RecommenderConfig, RecommenderStats, TrainingData,
};
use bolt_workloads::training::training_set;
use bolt_workloads::Resource;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The plain mixture decomposition: no MRC curve, no warm shortlist.
fn decompose(rec: &HybridRecommender, mix: &[(Resource, f64)], k: usize) -> Vec<(usize, f64, f64)> {
    let mut stats = RecommenderStats::default();
    rec.decompose_mixture(mix, k, None, None, &mut stats)
        .expect("decompose")
}

fn recommender() -> HybridRecommender {
    let data = TrainingData::from_profiles(&training_set(7)).expect("training data");
    HybridRecommender::fit(data, RecommenderConfig::default()).expect("fit")
}

/// A cache-hit model and an independently fitted model over the same
/// training inputs, fitted once for the whole property run.
fn cached_and_fresh() -> &'static (Arc<HybridRecommender>, HybridRecommender) {
    static MODELS: OnceLock<(Arc<HybridRecommender>, HybridRecommender)> = OnceLock::new();
    MODELS.get_or_init(|| {
        let data = TrainingData::from_profiles(&training_set(7)).expect("training data");
        let config = RecommenderConfig::default();
        let cache = FitCache::new();
        let (_, miss_hit) = cache.fit(&data, config).expect("warm fit");
        assert!(!miss_hit, "first fit must miss");
        let (cached, hit) = cache.fit(&data, config).expect("cached fit");
        assert!(hit, "second fit must hit");
        let fresh = HybridRecommender::fit(data, config).expect("fresh fit");
        (cached, fresh)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recommend_output_is_well_formed(
        seed in 0u64..500,
        v1 in 0.0f64..100.0,
        v2 in 0.0f64..100.0,
        v3 in 0.0f64..100.0,
    ) {
        let rec = recommender();
        let mut rng = StdRng::seed_from_u64(seed);
        let obs = [
            (Resource::Llc, v1),
            (Resource::MemBw, v2),
            (Resource::NetBw, v3),
        ];
        let out = rec.recommend(&obs, &mut rng).expect("recommend");
        prop_assert!(out.completed.is_valid());
        // Observations are pinned exactly.
        prop_assert!((out.completed[Resource::Llc] - v1).abs() < 1e-9);
        // Scores sorted and bounded; shares a distribution.
        for w in out.scores.windows(2) {
            prop_assert!(w[0].correlation >= w[1].correlation);
        }
        let mass: f64 = out.scores.iter().map(|s| s.share).sum();
        prop_assert!(out.scores.is_empty() || (mass - 1.0).abs() < 1e-6);
    }

    #[test]
    fn subspace_match_is_scale_invariant(
        seed in 0u64..500,
        scale in 0.2f64..1.0,
    ) {
        let rec = recommender();
        let rng = StdRng::seed_from_u64(seed);
        // Pick a random training example's core dims and scale them.
        let i = (seed as usize * 13) % rec.training_data().len();
        let p = rec.training_data().example(i).pressure;
        let full: Vec<(Resource, f64)> = Resource::CORE.iter().map(|&r| (r, p[r])).collect();
        let scaled: Vec<(Resource, f64)> =
            full.iter().map(|&(r, v)| (r, v * scale)).collect();
        // Skip degenerate all-zero core profiles.
        prop_assume!(full.iter().map(|&(_, v)| v).sum::<f64>() > 20.0);
        let a = rec.match_subspace(&full).expect("match full");
        let b = rec.match_subspace(&scaled).expect("match scaled");
        prop_assume!(!a.is_empty() && !b.is_empty());
        prop_assert_eq!(
            a[0].label.family(),
            b[0].label.family(),
            "scaling the observation must not change the matched family"
        );
        let _ = rng;
    }

    #[test]
    fn decomposition_components_are_significant(
        seed in 0u64..300,
        la in 0.3f64..1.0,
        lb in 0.3f64..1.0,
        i in 0usize..100,
        j in 0usize..100,
    ) {
        let rec = recommender();
        let n = rec.training_data().len();
        let (i, j) = (i % n, j % n);
        prop_assume!(i != j);
        let a = rec.training_data().example(i).pressure;
        let b = rec.training_data().example(j).pressure;
        let mix: Vec<(Resource, f64)> = Resource::UNCORE
            .iter()
            .map(|&r| (r, (la * a[r] + lb * b[r]).min(100.0)))
            .collect();
        prop_assume!(mix.iter().map(|&(_, v)| v).sum::<f64>() > 40.0);
        let comps = decompose(&rec, &mix, 3);
        prop_assert!(!comps.is_empty(), "a loud mixture must decompose into something");
        for &(_, lambda, explained) in &comps {
            prop_assert!((0.0..=1.05).contains(&lambda));
            prop_assert!((0.0..=1.0).contains(&explained));
        }
        let _ = seed;
    }

    #[test]
    fn cache_hit_model_matches_fresh_fit_bit_for_bit(
        seed in 0u64..500,
        la in 0.3f64..1.0,
        lb in 0.3f64..1.0,
        i in 0usize..120,
        j in 0usize..120,
    ) {
        // A model served from the fit cache must be indistinguishable from
        // one trained from scratch on the same inputs: identical mixture
        // decompositions and identical collaborative completions, bit for
        // bit, under arbitrary observations.
        let (cached, fresh) = cached_and_fresh();
        let n = cached.training_data().len();
        let (i, j) = (i % n, j % n);
        let a = cached.training_data().example(i).pressure;
        let b = cached.training_data().example(j).pressure;
        let mix: Vec<(Resource, f64)> = Resource::UNCORE
            .iter()
            .map(|&r| (r, (la * a[r] + lb * b[r]).min(100.0)))
            .collect();
        prop_assert_eq!(
            decompose(cached, &mix, 2),
            decompose(fresh, &mix, 2)
        );
        let obs: Vec<(Resource, f64)> = mix[..3].to_vec();
        let cc = cached
            .complete_collaborative(&obs, &mut StdRng::seed_from_u64(seed))
            .expect("cached completion");
        let cf = fresh
            .complete_collaborative(&obs, &mut StdRng::seed_from_u64(seed))
            .expect("fresh completion");
        prop_assert_eq!(cc.as_slice(), cf.as_slice());
    }

    #[test]
    fn pair_shortlist_of_n_equals_exhaustive_search(
        la in 0.3f64..1.0,
        lb in 0.3f64..1.0,
        i in 0usize..120,
        j in 0usize..120,
    ) {
        // K >= dictionary size must reproduce the exhaustive pair search
        // bit-for-bit: same iteration order, same tie-breaking, same
        // components. The joint core/uncore dictionary holds 3 hypotheses
        // per training example, so K = 3n covers both decomposition paths.
        let exact_k = fit_with_shortlist(3 * 120);
        let exhaustive = fit_with_shortlist(usize::MAX);
        let n = exact_k.training_data().len();
        let (i, j) = (i % n, j % n);
        let a = exact_k.training_data().example(i).pressure;
        let b = exact_k.training_data().example(j).pressure;
        let mix: Vec<(Resource, f64)> = Resource::ALL
            .iter()
            .map(|&r| (r, (la * a[r] + lb * b[r]).min(100.0)))
            .collect();
        let core: Vec<(Resource, f64)> =
            mix.iter().copied().filter(|&(r, _)| r.is_core()).collect();
        let uncore: Vec<(Resource, f64)> =
            mix.iter().copied().filter(|&(r, _)| !r.is_core()).collect();

        prop_assert_eq!(decompose(&exact_k, &mix, 2), decompose(&exhaustive, &mix, 2));
        let ca = exact_k
            .decompose_with_core(&core, &uncore, 0.35, 2, None, None, &mut Default::default())
            .expect("decompose");
        let cb = exhaustive
            .decompose_with_core(&core, &uncore, 0.35, 2, None, None, &mut Default::default())
            .expect("decompose");
        prop_assert_eq!(ca, cb);
    }
}

fn fit_with_shortlist(pair_shortlist: usize) -> HybridRecommender {
    let data = TrainingData::from_profiles(&training_set(7)).expect("training data");
    let config = RecommenderConfig {
        pair_shortlist,
        ..RecommenderConfig::default()
    };
    HybridRecommender::fit(data, config).expect("fit")
}
