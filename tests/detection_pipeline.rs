//! Cross-crate integration tests: the full detection pipeline from
//! workload catalog through simulator, probes, recommender, and detector.

use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::{observe_through, observed_training};
use bolt::Telemetry;
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, VmId};
use bolt_workloads::{catalog, training::training_set, PressureVector, WorkloadProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn detector(isolation: &IsolationConfig) -> Detector {
    let data = TrainingData::from_examples(observed_training(&training_set(7), isolation))
        .expect("training data");
    let rec = HybridRecommender::fit(data, RecommenderConfig::default()).expect("fit");
    Detector::new(rec, DetectorConfig::default())
}

fn host_with(victims: Vec<WorkloadProfile>, rng: &mut StdRng) -> (Cluster, VmId) {
    let isolation = IsolationConfig::cloud_default();
    let mut cluster = Cluster::new(1, ServerSpec::xeon(), isolation).expect("cluster");
    let adv = cluster
        .launch_on(
            0,
            catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng).with_vcpus(4),
            VmRole::Adversarial,
            0.0,
        )
        .expect("adversary placed");
    cluster
        .set_pressure_override(adv, Some(PressureVector::zero()))
        .expect("quiet adversary");
    for v in victims {
        cluster
            .launch_on(0, v, VmRole::Friendly, 0.0)
            .expect("victim placed");
    }
    (cluster, adv)
}

#[test]
fn end_to_end_single_victim_families_detected() {
    let mut rng = StdRng::seed_from_u64(0x1771);
    let isolation = IsolationConfig::cloud_default();
    let det = detector(&isolation);
    let victims: Vec<WorkloadProfile> = vec![
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng)
            .with_vcpus(8),
        catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            bolt_workloads::DatasetScale::Large,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::WordCount,
            bolt_workloads::DatasetScale::Large,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::webserver::profile(&catalog::webserver::Variant::Proxy, &mut rng).with_vcpus(8),
    ];
    let mut hits = 0;
    let total = victims.len();
    for victim in victims {
        let truth = victim.label().clone();
        let (cluster, adv) = host_with(vec![victim], &mut rng);
        let (d, _) = det
            .detect_until_telemetry(
                &cluster,
                adv,
                0.0,
                |d| d.matches_family(&truth),
                &mut rng,
                &mut Telemetry::disabled(),
            )
            .expect("detection runs");
        hits += d.matches_family(&truth) as usize;
    }
    assert!(
        hits >= total - 1,
        "single-victim family detection should be near-perfect: {hits}/{total}"
    );
}

#[test]
fn end_to_end_two_victims_both_usually_found() {
    let mut rng = StdRng::seed_from_u64(0x2772);
    let isolation = IsolationConfig::cloud_default();
    let det = detector(&isolation);
    // Production-sized tenants: together with the adversary they fill the
    // host, so at least one shares the adversary's physical cores. This
    // pair (cache-bound key-value store + disk-bound analytics) has
    // near-orthogonal fingerprints, so its mixture decomposes uniquely;
    // see EXPERIMENTS.md for the pairs that genuinely do not.
    let a = catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng)
        .with_vcpus(6);
    let b = catalog::hadoop::profile(
        &catalog::hadoop::Algorithm::WordCount,
        bolt_workloads::DatasetScale::Large,
        &mut rng,
    )
    .with_vcpus(6);
    let truth_a = a.label().clone();
    let truth_b = b.label().clone();
    let (cluster, adv) = host_with(vec![a, b], &mut rng);
    // Each victim must be found within a handful of iterations, chaining
    // each iteration's sweep as the next one's differencing baseline.
    let mut found_a = false;
    let mut found_b = false;
    let mut baseline: Option<Vec<(bolt_workloads::Resource, f64)>> = None;
    for i in 0..6 {
        let d = det
            .detect(
                &cluster,
                adv,
                i as f64 * 20.0,
                baseline.as_deref(),
                &mut rng,
                &mut Telemetry::disabled(),
            )
            .expect("detect");
        found_a |= d.matches_family(&truth_a);
        found_b |= d.matches_family(&truth_b);
        if !d.sweep.is_empty() {
            baseline = Some(d.sweep.clone());
        }
    }
    assert!(found_a, "memcached victim never identified");
    assert!(found_b, "hadoop victim never identified");
}

#[test]
fn characteristics_survive_unseen_applications() {
    // An application family absent from the training set cannot be named,
    // but its resource characteristics still match a trained neighbour.
    let mut rng = StdRng::seed_from_u64(0x3773);
    let isolation = IsolationConfig::cloud_default();
    let det = detector(&isolation);
    let unseen = catalog::userstudy::profile(catalog::userstudy::app(9), &mut rng) // MLPython
        .with_vcpus(8);
    let truth_chars = bolt_workloads::ResourceCharacteristics::from_pressure(&observe_through(
        unseen.base_pressure(),
        &isolation,
    ));
    let truth_label = unseen.label().clone();
    let (cluster, adv) = host_with(vec![unseen], &mut rng);
    let mut characterized = false;
    let mut named = false;
    for i in 0..6 {
        let mut off = Telemetry::disabled();
        let d = det
            .detect(&cluster, adv, i as f64 * 20.0, None, &mut rng, &mut off)
            .expect("detect");
        characterized |= d.matches_characteristics(&truth_chars);
        named |= d.matches_family(&truth_label);
    }
    assert!(
        !named,
        "mlpython is not in the training set and cannot be named"
    );
    assert!(characterized, "characteristics should still be recovered");
}

#[test]
fn isolation_reduces_what_the_probes_see() {
    // The same host under progressively stronger isolation exposes less
    // interference to the adversary's probes.
    let mut rng = StdRng::seed_from_u64(0x4774);
    let victim = catalog::spark::profile(
        &catalog::spark::Algorithm::KMeans,
        bolt_workloads::DatasetScale::Large,
        &mut rng,
    )
    .with_vcpus(8);

    let visible_total = |isolation: IsolationConfig, rng: &mut StdRng| -> f64 {
        let mut cluster = Cluster::new(1, ServerSpec::xeon(), isolation).expect("cluster");
        let adv = cluster
            .launch_on(
                0,
                catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng).with_vcpus(4),
                VmRole::Adversarial,
                0.0,
            )
            .expect("adversary");
        cluster
            .set_pressure_override(adv, Some(PressureVector::zero()))
            .expect("quiet");
        cluster
            .launch_on(0, victim.clone(), VmRole::Friendly, 0.0)
            .expect("victim");
        cluster
            .interference_on(adv, 30.0, rng)
            .expect("interference")
            .total()
    };

    let none = visible_total(IsolationConfig::cloud_default(), &mut rng);
    let full = visible_total(
        IsolationConfig {
            setting: bolt_sim::OsSetting::VirtualMachines,
            mechanisms: bolt_sim::Mechanisms {
                thread_pinning: true,
                net_bw_partitioning: true,
                mem_bw_partitioning: true,
                cache_partitioning: true,
                core_isolation: false,
            },
        },
        &mut rng,
    );
    let core = visible_total(
        IsolationConfig {
            setting: bolt_sim::OsSetting::VirtualMachines,
            mechanisms: bolt_sim::Mechanisms {
                thread_pinning: true,
                net_bw_partitioning: true,
                mem_bw_partitioning: true,
                cache_partitioning: true,
                core_isolation: true,
            },
        },
        &mut rng,
    );
    assert!(
        full < none,
        "the mechanism stack must hide pressure: {none} -> {full}"
    );
    assert!(
        core <= full,
        "core isolation must hide still more: {full} -> {core}"
    );
}

#[test]
fn detection_is_deterministic_for_fixed_seeds() {
    let isolation = IsolationConfig::cloud_default();
    let det = detector(&isolation);
    let run = || {
        let mut rng = StdRng::seed_from_u64(0x5775);
        let victim = catalog::cassandra::profile(&catalog::cassandra::Variant::Mixed, &mut rng)
            .with_vcpus(8);
        let (cluster, adv) = host_with(vec![victim], &mut rng);
        let mut off = Telemetry::disabled();
        let d = det
            .detect(&cluster, adv, 42.0, None, &mut rng, &mut off)
            .expect("detect");
        d.labels().map(ToString::to_string).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
