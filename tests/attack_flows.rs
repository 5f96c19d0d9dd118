//! Cross-crate integration tests for the §5 attack flows: detection feeds
//! attack crafting feeds simulated impact.

use bolt::attacks::coresidency::{hunt, CoResidencyConfig};
use bolt::attacks::dos::{craft_attack, naive_attack, run_dos, DosRunConfig};
use bolt::attacks::rfa::run_rfa;
use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::observed_training;
use bolt::Telemetry;
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, training::training_set, LoadPattern, PressureVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn detector(isolation: &IsolationConfig) -> Detector {
    let data = TrainingData::from_examples(observed_training(&training_set(7), isolation))
        .expect("training data");
    let rec = HybridRecommender::fit(data, RecommenderConfig::default()).expect("fit");
    Detector::new(rec, DetectorConfig::default())
}

#[test]
fn detect_then_dos_end_to_end() {
    // The full §5.1 loop: land next to a victim, detect it, craft the
    // attack from the *detected* profile, and degrade it without tripping
    // the migration monitor.
    let mut rng = StdRng::seed_from_u64(0xA77A);
    let isolation = IsolationConfig::cloud_default();
    let det = detector(&isolation);

    let mut cluster = Cluster::new(4, ServerSpec::xeon(), isolation).expect("cluster");
    let victim_profile =
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng)
            .with_vcpus(12)
            .with_load(LoadPattern::Constant { level: 0.7 });
    let baseline = victim_profile.base_latency_ms();
    let victim = cluster
        .launch_on(0, victim_profile, VmRole::Friendly, 0.0)
        .expect("victim placed");
    let attacker = cluster
        .launch_on(
            0,
            catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng)
                .with_vcpus(4),
            VmRole::Adversarial,
            0.0,
        )
        .expect("attacker placed");
    cluster
        .set_pressure_override(attacker, Some(PressureVector::zero()))
        .expect("quiet attacker");

    let mut off = Telemetry::disabled();
    let detection = det
        .detect(&cluster, attacker, 15.0, None, &mut rng, &mut off)
        .expect("detect");
    let primary = detection.primary().expect("victim detected");
    let attack = craft_attack(primary);

    let timeline = run_dos(
        &mut cluster,
        attacker,
        victim,
        attack,
        &DosRunConfig::default(),
        &mut rng,
        &mut Telemetry::disabled(),
    )
    .expect("dos runs");
    assert!(
        timeline.migration_at.is_none(),
        "the crafted attack must stay below the migration trigger"
    );
    assert!(
        timeline.final_amplification(baseline) > 3.0,
        "the crafted attack must keep hurting: {:.1}x",
        timeline.final_amplification(baseline)
    );
}

#[test]
fn naive_dos_is_defeated_by_migration() {
    let mut rng = StdRng::seed_from_u64(0xB77B);
    let mut cluster =
        Cluster::new(4, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    let victim_profile =
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng)
            .with_vcpus(12)
            .with_load(LoadPattern::Constant { level: 0.7 });
    let baseline = victim_profile.base_latency_ms();
    let victim = cluster
        .launch_on(0, victim_profile, VmRole::Friendly, 0.0)
        .expect("victim placed");
    let attacker = cluster
        .launch_on(
            0,
            catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng)
                .with_vcpus(4),
            VmRole::Adversarial,
            0.0,
        )
        .expect("attacker placed");
    let timeline = run_dos(
        &mut cluster,
        attacker,
        victim,
        naive_attack(),
        &DosRunConfig::default(),
        &mut rng,
        &mut Telemetry::disabled(),
    )
    .expect("dos runs");
    assert!(
        timeline.migration_at.is_some(),
        "naive DoS must trip the monitor"
    );
    assert!(
        timeline.final_amplification(baseline) < 2.0,
        "the migrated victim must recover"
    );
}

#[test]
fn rfa_all_three_paper_victims() {
    let mut rng = StdRng::seed_from_u64(0xC77C);
    let victims = vec![
        catalog::webserver::profile(&catalog::webserver::Variant::Dynamic, &mut rng).with_vcpus(8),
        catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::Svm,
            bolt_workloads::DatasetScale::Large,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            bolt_workloads::DatasetScale::Large,
            &mut rng,
        )
        .with_vcpus(8),
    ];
    for victim in victims {
        let name = victim.label().to_string();
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
        let beneficiary = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng);
        let mut off = Telemetry::disabled();
        let outcome =
            run_rfa(&mut cluster, 0, victim, beneficiary, &mut rng, &mut off).expect("rfa");
        assert!(
            outcome.victim_delta < -0.1,
            "{name}: victim should degrade, got {:+.2}",
            outcome.victim_delta
        );
        assert!(
            outcome.beneficiary_delta > 0.0,
            "{name}: mcf should improve, got {:+.2}",
            outcome.beneficiary_delta
        );
    }
}

#[test]
fn coresidency_hunt_eventually_confirms() {
    let mut rng = StdRng::seed_from_u64(0xD77D);
    let isolation = IsolationConfig::cloud_default();
    let mut cluster = Cluster::new(12, ServerSpec::xeon(), isolation).expect("cluster");
    let victim = cluster
        .launch_on(
            5,
            catalog::database::profile(&catalog::database::Variant::SqlOltp, &mut rng)
                .with_vcpus(8),
            VmRole::Friendly,
            0.0,
        )
        .expect("victim placed");
    for s in [1, 8] {
        let decoy = catalog::database::profile(&catalog::database::Variant::SqlOltp, &mut rng)
            .with_vcpus(8);
        cluster
            .launch_on(s, decoy, VmRole::Friendly, 0.0)
            .expect("decoy placed");
    }
    let det = detector(&isolation);
    let config = CoResidencyConfig {
        probes: 12,
        ..CoResidencyConfig::default()
    };
    let mut confirmed = None;
    for round in 0..6 {
        let outcome = hunt(
            &mut cluster,
            &det,
            victim,
            "mysql",
            &config,
            round as f64 * 150.0,
            &mut rng,
            &mut Telemetry::disabled(),
        )
        .expect("hunt runs");
        if let Some(server) = outcome.confirmed_server {
            confirmed = Some(server);
            break;
        }
    }
    assert_eq!(
        confirmed,
        Some(5),
        "the hunt must pinpoint the victim's host"
    );
}
