//! Fig. 8: tracking a victim VM through consecutive jobs. The victim
//! instance runs SPEC's `mcf`, then a Hadoop SVM, then a Spark job, then
//! memcached, then Cassandra; Bolt re-detects every 20 seconds and follows
//! the phase changes.
//!
//! Run with: `cargo run --example phase_tracking`
//!
//! Pass `--telemetry <path>` to capture a JSONL trace of every probe
//! sweep, shutter capture, and matrix-completion pass the detector runs
//! while following the phases.

use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::observed_training;
use bolt::telemetry::{telemetry_path_from_args, Phase, Telemetry, TelemetryLog};
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, training::training_set, DatasetScale, PressureVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let telemetry_path = telemetry_path_from_args(std::env::args().skip(1));
    let mut telemetry = Telemetry::for_unit_if(telemetry_path.is_some(), 0);
    let mut rng = StdRng::seed_from_u64(0xF18);
    let isolation = IsolationConfig::cloud_default();
    let mut cluster = Cluster::new(1, ServerSpec::xeon(), isolation)?;
    if telemetry_path.is_some() {
        cluster.record_events();
    }

    let adversary = cluster.launch_on(
        0,
        catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng).with_vcpus(4),
        VmRole::Adversarial,
        0.0,
    )?;
    cluster.set_pressure_override(adversary, Some(PressureVector::zero()))?;

    // The victim's job schedule (the Fig. 8 sequence), each phase ~90 s.
    let jobs = [
        catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng).with_vcpus(8),
        catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::Svm,
            DatasetScale::Medium,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::spark::profile(
            &catalog::spark::Algorithm::DataMining,
            DatasetScale::Medium,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng)
            .with_vcpus(8),
        catalog::cassandra::profile(&catalog::cassandra::Variant::Mixed, &mut rng).with_vcpus(8),
    ];
    let phase_s = 90.0;
    let victim = cluster.launch_on(0, jobs[0].clone(), VmRole::Friendly, 0.0)?;

    let data = TrainingData::from_examples(observed_training(&training_set(7), &isolation))?;
    let recommender = HybridRecommender::fit(data, RecommenderConfig::default())?;
    let detector = Detector::new(recommender, DetectorConfig::default());

    println!(
        "{:>7}  {:<28} {:<32}",
        "t (s)", "actually running", "Bolt's detection"
    );
    println!("{}", "-".repeat(72));
    let horizon = phase_s * jobs.len() as f64;
    let mut t = 0.0;
    while t < horizon {
        let phase = ((t / phase_s) as usize).min(jobs.len() - 1);
        cluster.swap_profile(victim, jobs[phase].clone())?;
        let clock = telemetry.begin();
        let d = detector.detect(&cluster, adversary, t, None, &mut rng, &mut telemetry)?;
        telemetry.span(Phase::DetectionIteration, t, d.duration_s, clock);
        let detected = d
            .label()
            .map(ToString::to_string)
            .unwrap_or_else(|| "(no match)".to_string());
        let truth = jobs[phase].label().to_string();
        let hit = d
            .label()
            .map(|l| l.same_family(jobs[phase].label()))
            .unwrap_or(false);
        println!(
            "{t:>7.0}  {:<28} {:<32}{}",
            truth,
            detected,
            if hit { "" } else { "  <- stale/miss" }
        );
        t += 20.0;
    }
    if let Some(path) = telemetry_path {
        telemetry.cluster_events(cluster.take_events());
        let log = TelemetryLog::from_events(telemetry.into_events());
        log.write_jsonl(&path)?;
        eprintln!("telemetry: {} events -> {}", log.len(), path.display());
    }
    Ok(())
}
