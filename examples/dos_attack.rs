//! The §5.1 internal DoS attack: detect a victim, craft targeted
//! contention, and compare against a naive CPU-saturating DoS under a
//! live-migration defense (Fig. 13).
//!
//! Run with: `cargo run --example dos_attack`
//!
//! Pass `--telemetry <path>` to capture a JSONL trace: the detection
//! pipeline plus both attack executions (unit 1 = Bolt, unit 2 = naive).

use bolt::attacks::dos::{craft_attack, naive_attack, run_dos, DosRunConfig};
use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::observed_training;
use bolt::telemetry::{telemetry_path_from_args, Telemetry, TelemetryLog};
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, VmId};
use bolt_workloads::{catalog, training::training_set, LoadPattern, PressureVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The attack scene; its cluster records its lifecycle log when `traced`.
fn scene(
    traced: bool,
    rng: &mut StdRng,
) -> Result<(Cluster, VmId, VmId, f64), Box<dyn std::error::Error>> {
    let mut cluster = Cluster::new(4, ServerSpec::xeon(), IsolationConfig::cloud_default())?;
    if traced {
        cluster.record_events();
    }
    let victim_profile =
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng)
            .with_vcpus(12)
            .with_load(LoadPattern::Constant { level: 0.7 });
    let baseline_ms = victim_profile.base_latency_ms();
    let victim = cluster.launch_on(0, victim_profile, VmRole::Friendly, 0.0)?;
    let attacker = cluster.launch_on(
        0,
        catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng).with_vcpus(4),
        VmRole::Adversarial,
        0.0,
    )?;
    cluster.set_pressure_override(attacker, Some(PressureVector::zero()))?;
    Ok((cluster, attacker, victim, baseline_ms))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let telemetry_path = telemetry_path_from_args(std::env::args().skip(1));
    let unit = |u: usize| Telemetry::for_unit_if(telemetry_path.is_some(), u);
    let mut rng = StdRng::seed_from_u64(7);
    let isolation = IsolationConfig::cloud_default();
    let data = TrainingData::from_examples(observed_training(&training_set(7), &isolation))?;
    let recommender = HybridRecommender::fit(data, RecommenderConfig::default())?;
    let detector = Detector::new(recommender, DetectorConfig::default());
    let defense = DosRunConfig::default();

    // --- Bolt's attack: detect first, then stress what the victim needs.
    let (mut cluster, attacker, victim, baseline) = scene(telemetry_path.is_some(), &mut rng)?;
    let mut bolt_telemetry = unit(1);
    let detection = detector.detect(
        &cluster,
        attacker,
        10.0,
        None,
        &mut rng,
        &mut bolt_telemetry,
    )?;
    println!(
        "detected co-resident: {:?} ({:?})",
        detection.label().map(ToString::to_string),
        detection.characteristics().map(ToString::to_string),
    );
    let primary = detection.primary().expect("a co-resident was detected");
    let attack = craft_attack(primary);
    println!("crafted contention:   {attack}");
    let bolt = run_dos(
        &mut cluster,
        attacker,
        victim,
        attack,
        &defense,
        &mut rng,
        &mut bolt_telemetry,
    )?;

    // --- The naive baseline: saturate compute, get migrated away.
    let (mut cluster2, attacker2, victim2, _) = scene(telemetry_path.is_some(), &mut rng)?;
    let mut naive_telemetry = unit(2);
    let naive = run_dos(
        &mut cluster2,
        attacker2,
        victim2,
        naive_attack(),
        &defense,
        &mut rng,
        &mut naive_telemetry,
    )?;

    println!("\n{:^8}|{:^26}|{:^26}", "t (s)", "Bolt attack", "naive DoS");
    println!(
        "{:^8}|{:^12}{:^14}|{:^12}{:^14}",
        "", "p99 (ms)", "host util %", "p99 (ms)", "host util %"
    );
    for i in (0..bolt.samples.len()).step_by(10) {
        let b = &bolt.samples[i];
        let n = &naive.samples[i];
        println!(
            "{:^8}|{:^12.2}{:^14.1}|{:^12.2}{:^14.1}{}",
            b.time_s,
            b.p99_latency_ms,
            b.cpu_utilization,
            n.p99_latency_ms,
            n.cpu_utilization,
            if n.migrating { "  <- migrating" } else { "" }
        );
    }
    println!(
        "\nBolt:  peak amplification {:.0}x, steady-state {:.0}x, migration triggered: {}",
        bolt.peak_amplification(baseline),
        bolt.final_amplification(baseline),
        bolt.migration_at.is_some()
    );
    println!(
        "naive: peak amplification {:.0}x, steady-state {:.0}x, migration at t={:?}s",
        naive.peak_amplification(baseline),
        naive.final_amplification(baseline),
        naive.migration_at
    );
    println!("\nThe naive attack trips the 70% utilization monitor and loses its victim;");
    println!("Bolt stays quiet on CPU and keeps degrading the victim indefinitely.");
    if let Some(path) = telemetry_path {
        let mut log = TelemetryLog::new();
        log.merge(bolt_telemetry);
        log.merge(naive_telemetry);
        log.write_jsonl(&path)?;
        eprintln!("telemetry: {} events -> {}", log.len(), path.display());
    }
    Ok(())
}
