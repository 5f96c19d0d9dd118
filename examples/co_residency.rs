//! The §5.3 co-residency detection attack: locate a specific victim (a
//! SQL server) in a shared cluster with simultaneous probe launches, type
//! detection, and sender/receiver confirmation.
//!
//! Run with: `cargo run --example co_residency`

use bolt::attacks::coresidency::{hunt, placement_probability, CoResidencyConfig};
use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::observed_training;
use bolt::Telemetry;
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, training::training_set, DatasetScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let isolation = IsolationConfig::cloud_default();

    // A 40-server cluster (the paper's testbed). The target victim: one
    // SQL server. Seven other SQL servers and assorted tenants are decoys.
    let mut cluster = Cluster::new(40, ServerSpec::xeon(), isolation)?;
    let victim_profile =
        catalog::database::profile(&catalog::database::Variant::SqlOltp, &mut rng).with_vcpus(8);
    println!("target: {} on a hidden host", victim_profile.label());
    let victim = cluster.launch_on(11, victim_profile, VmRole::Friendly, 0.0)?;
    for s in [3, 7, 19, 23, 28, 31, 36] {
        let p = catalog::database::profile(&catalog::database::Variant::SqlOltp, &mut rng)
            .with_vcpus(8);
        cluster.launch_on(s, p, VmRole::Friendly, 0.0)?;
    }
    for s in [1, 5, 9, 13, 17, 21, 25, 29, 33, 37] {
        let p = catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            DatasetScale::Medium,
            &mut rng,
        )
        .with_vcpus(8);
        cluster.launch_on(s, p, VmRole::Friendly, 0.0)?;
    }

    let data = TrainingData::from_examples(observed_training(&training_set(7), &isolation))?;
    let recommender = HybridRecommender::fit(data, RecommenderConfig::default())?;
    let detector = Detector::new(recommender, DetectorConfig::default());

    let config = CoResidencyConfig::default();
    println!(
        "launching {} probes over {} servers: P(co-residency) = {:.2}",
        config.probes,
        cluster.server_count(),
        placement_probability(cluster.server_count(), 1, config.probes)
    );

    // Launch probe fleets until one lands next to the target — the
    // expected number of rounds is 1 / P(co-residency).
    let mut total_vms = 0;
    let mut total_time = 0.0;
    for round in 1..=8 {
        let outcome = hunt(
            &mut cluster,
            &detector,
            victim,
            "mysql",
            &config,
            round as f64 * 120.0,
            &mut rng,
            &mut Telemetry::disabled(),
        )?;
        total_vms += outcome.vms_used;
        total_time += outcome.elapsed_s;
        println!(
            "\nround {round}: probed servers {:?}\n         SQL-typed co-residents on {:?}",
            outcome.probed_servers, outcome.candidate_servers
        );
        match outcome.confirmed_server {
            Some(s) => {
                println!(
                    "receiver latency: {:.2} ms baseline -> {:.2} ms under sender contention",
                    outcome.baseline_latency_ms,
                    outcome.contended_latency_ms.unwrap_or(f64::NAN)
                );
                println!(
                    "confirmed: the target lives on server {s} ({:.1}x latency jump), \
                     {total_vms} adversarial VMs, {total_time:.0} simulated seconds total",
                    outcome.latency_ratio()
                );
                return Ok(());
            }
            None => println!("no probe landed next to the target — relaunching the fleet"),
        }
    }
    println!("target not located within the fleet budget");
    Ok(())
}
