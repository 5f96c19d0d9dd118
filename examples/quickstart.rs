//! Quickstart: land an adversarial VM next to a victim and identify it.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Pass `--telemetry <path>` to capture the detection pipeline's JSONL
//! telemetry trace.

use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::observed_training;
use bolt::telemetry::{telemetry_path_from_args, Telemetry, TelemetryLog};
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, training::training_set, PressureVector};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let telemetry_path = telemetry_path_from_args(std::env::args().skip(1));
    let mut telemetry = Telemetry::for_unit_if(telemetry_path.is_some(), 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // One Xeon-class host in a default public-cloud configuration (VMs, no
    // extra isolation).
    let isolation = IsolationConfig::cloud_default();
    let mut cluster = Cluster::new(1, ServerSpec::xeon(), isolation)?;

    // The adversarial VM: 4 vCPUs, quiet until it probes.
    let adversary = cluster.launch_on(
        0,
        catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng).with_vcpus(4),
        VmRole::Adversarial,
        0.0,
    )?;
    cluster.set_pressure_override(adversary, Some(PressureVector::zero()))?;

    // The victim: a production-sized memcached instance. The adversary
    // knows nothing about it.
    let victim = catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng)
        .with_vcpus(8);
    println!("victim (ground truth): {}", victim.label());
    println!("victim fingerprint:    {}", victim.base_pressure());
    cluster.launch_on(0, victim, VmRole::Friendly, 0.0)?;

    // Fit the hybrid recommender on the 120-application training set,
    // observed through the same isolation channel.
    let data = TrainingData::from_examples(observed_training(&training_set(7), &isolation))?;
    let recommender = HybridRecommender::fit(data, RecommenderConfig::default())?;
    let detector = Detector::new(recommender, DetectorConfig::default());

    // One detection iteration: probing + data mining. Bolt emits one
    // verdict per co-resident it believes it disentangled.
    let detection = detector.detect(&cluster, adversary, 20.0, None, &mut rng, &mut telemetry)?;
    println!(
        "\nprofiling cost: {:.1} simulated seconds",
        detection.duration_s
    );
    let primary = detection.primary().expect("a co-resident was detected");
    println!("similarity distribution of the primary verdict (top 5):");
    for score in primary.scores.iter().take(5) {
        println!(
            "  {:<35} correlation {:+.3}  share {:>5.1}%",
            score.label.to_string(),
            score.correlation,
            score.share * 100.0
        );
    }
    println!("\nBolt's verdicts (one per believed co-resident):");
    for (i, verdict) in detection.verdicts.iter().enumerate() {
        match verdict.label() {
            Some(label) => println!("  #{i}: looks like {label}"),
            None => println!("  #{i}: never seen anything like this"),
        }
    }
    println!(
        "primary resource characteristics: {}",
        primary.characteristics
    );
    if let Some(path) = telemetry_path {
        let log = TelemetryLog::from_events(telemetry.into_events());
        log.write_jsonl(&path)?;
        eprintln!("telemetry: {} events -> {}", log.len(), path.display());
    }
    Ok(())
}
