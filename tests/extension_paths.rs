//! Integration tests for the extension paths: unseen application families
//! (PARSEC), the MRC future-work signal, and trace-backed experiment
//! debugging.

use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::{observe_through, observed_training};
use bolt::Telemetry;
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, TraceEvent};
use bolt_workloads::catalog::{self, parsec};
use bolt_workloads::mrc::{derive_mrc, mrc_separates};
use bolt_workloads::training::training_set;
use bolt_workloads::PressureVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn parsec_jobs_are_characterized_but_never_named() {
    let mut rng = StdRng::seed_from_u64(0x9A5C);
    let isolation = IsolationConfig::cloud_default();
    let data = TrainingData::from_examples(observed_training(&training_set(7), &isolation))
        .expect("training data");
    let rec = HybridRecommender::fit(data, RecommenderConfig::default()).expect("fit");
    let det = Detector::new(rec, DetectorConfig::default());

    let mut characterized = 0;
    let total = parsec::Benchmark::ALL.len();
    for bench in parsec::Benchmark::ALL {
        let victim = parsec::profile(&bench, &mut rng).with_vcpus(8);
        let truth_label = victim.label().clone();
        let truth_chars = bolt_workloads::ResourceCharacteristics::from_pressure(&observe_through(
            victim.base_pressure(),
            &isolation,
        ));
        let mut cluster = Cluster::new(1, ServerSpec::xeon(), isolation).expect("cluster");
        let adv = cluster
            .launch_on(
                0,
                catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng)
                    .with_vcpus(4),
                VmRole::Adversarial,
                0.0,
            )
            .expect("adversary");
        cluster
            .set_pressure_override(adv, Some(PressureVector::zero()))
            .expect("quiet");
        cluster
            .launch_on(0, victim, VmRole::Friendly, 0.0)
            .expect("victim");

        let mut hit = false;
        for i in 0..4 {
            let mut off = Telemetry::disabled();
            let d = det
                .detect(&cluster, adv, i as f64 * 20.0, None, &mut rng, &mut off)
                .expect("detect");
            assert!(
                !d.matches_family(&truth_label),
                "{bench:?} is not in the training set and cannot be named"
            );
            hit |= d.matches_characteristics(&truth_chars);
        }
        characterized += hit as usize;
    }
    assert!(
        characterized >= total - 1,
        "unseen parsec jobs should still be characterized: {characterized}/{total}"
    );
}

#[test]
fn mrc_separates_what_average_pressure_cannot() {
    // The §3.3 future-work signal: two SPEC jobs with close average LLC
    // pressure but opposite reuse behaviour.
    let mut rng = StdRng::seed_from_u64(0x3C5);
    let mcf = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng);
    let lbm = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Lbm, &mut rng);
    assert!(mrc_separates(&mcf, &lbm, 25.0, 0.05));
    let a = derive_mrc(&mcf);
    let b = derive_mrc(&lbm);
    // Curves are proper miss-rate functions.
    for alloc in [0.1, 0.3, 0.6, 1.0] {
        assert!((0.0..=1.0).contains(&a.miss_rate(alloc)));
        assert!((0.0..=1.0).contains(&b.miss_rate(alloc)));
    }
}

#[test]
fn mrc_example_verdict_is_pinned() {
    // Regression for the mrc_extension example: with its exact seed the
    // separation verdict is "yes", and the pressures the example prints
    // (reference, not base — base drifts with the sampled load level)
    // agree with what derive_mrc fits against.
    let mut rng = StdRng::seed_from_u64(0x3C);
    let mcf = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng);
    let lbm = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Lbm, &mut rng);
    assert!(
        mrc_separates(&mcf, &lbm, 25.0, 0.05),
        "the example's seed must keep separating mcf from lbm"
    );
    let llc = bolt_workloads::Resource::Llc;
    let gap = (mcf.reference_pressure()[llc] - lbm.reference_pressure()[llc]).abs();
    assert!(
        gap <= 25.0,
        "the example's premise — close average LLC pressure — must hold, gap {gap}"
    );
}

#[test]
fn trace_reconstructs_an_experiment_timeline() {
    let mut rng = StdRng::seed_from_u64(0x7A);
    let mut cluster =
        Cluster::new(2, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    let a = cluster
        .launch_on(
            0,
            catalog::hadoop::profile(
                &catalog::hadoop::Algorithm::WordCount,
                bolt_workloads::DatasetScale::Small,
                &mut rng,
            ),
            VmRole::Friendly,
            0.0,
        )
        .expect("launch a");
    let b = cluster
        .launch_pinned(
            1,
            catalog::spark::profile(
                &catalog::spark::Algorithm::KMeans,
                bolt_workloads::DatasetScale::Small,
                &mut rng,
            ),
            VmRole::Friendly,
            10.0,
            &mut rng,
        )
        .expect("launch b");
    cluster.migrate(a, 1).expect("migrate");
    cluster.terminate(b).expect("terminate");

    let events = cluster.take_events();
    assert_eq!(events.len(), 4);
    assert!(matches!(events[0], TraceEvent::Launch { server: 0, .. }));
    assert!(matches!(events[1], TraceEvent::Launch { server: 1, at, .. } if at == 10.0));
    assert!(matches!(
        events[2],
        TraceEvent::Migrate { from: 0, to: 1, .. }
    ));
    assert!(matches!(events[3], TraceEvent::Terminate { server: 1, .. }));
    // The rendered timeline mentions every VM.
    let text: String = events.iter().map(|e| e.describe() + "\n").collect();
    assert!(text.contains(&a.to_string()) && text.contains(&b.to_string()));
}
