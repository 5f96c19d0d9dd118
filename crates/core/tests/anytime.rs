//! Anytime-window contracts: off means byte-invisible, on saves probes,
//! the confidence threshold gates the early exit, and reported confidence
//! is monotone non-decreasing in the probe budget. Determinism across
//! thread counts is pinned by `tests/oracle.rs`.

use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::{run_experiment, ExperimentConfig, ExperimentResults};
use bolt::telemetry::Counter;
use bolt::{RunCtx, Telemetry, TelemetryLog};
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::LeastLoaded;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, VmId};
use bolt_workloads::catalog;
use bolt_workloads::training::training_set;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        servers: 6,
        victims: 12,
        seed,
        ..ExperimentConfig::default()
    }
}

/// One core-sharing host: the adversary plus a production-sized victim
/// whose 8 vCPUs guarantee shared physical cores, so the anytime window
/// keeps a usable core channel and never reaches the shutter fallback.
fn core_sharing_setup() -> (Cluster, VmId) {
    let mut r = StdRng::seed_from_u64(0xA117);
    let mut cluster =
        Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
    let adv = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut r);
    let adv_id = cluster.launch_on(0, adv, VmRole::Adversarial, 0.0).unwrap();
    cluster
        .set_pressure_override(adv_id, Some(bolt_workloads::PressureVector::zero()))
        .unwrap();
    let victim = catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut r)
        .with_vcpus(8);
    cluster.launch_on(0, victim, VmRole::Friendly, 0.0).unwrap();
    (cluster, adv_id)
}

fn fitted_detector(config: DetectorConfig) -> Detector {
    let data = TrainingData::from_profiles(&training_set(7)).unwrap();
    let rec = HybridRecommender::fit(data, RecommenderConfig::default()).unwrap();
    Detector::new(rec, config)
}

/// A recorded experiment run.
fn traced(config: &ExperimentConfig) -> (ExperimentResults, TelemetryLog) {
    run_experiment(config, &LeastLoaded, &RunCtx::new(true)).unwrap()
}

#[test]
fn anytime_off_is_byte_invisible() {
    // With the flag off, varying every anytime knob must not move a
    // byte: no extra RNG draw, no telemetry span, no counter.
    let base = small_config(0xA217);
    let decorated = ExperimentConfig {
        detector: DetectorConfig {
            confidence_threshold: 0.99,
            anytime_max_probes: 3,
            ..base.detector
        },
        ..base
    };
    assert!(!base.anytime && !base.detector.anytime);
    let a = traced(&base);
    let b = traced(&decorated);
    assert_eq!(a.0.records, b.0.records);
    assert_eq!(a.1.normalized().to_jsonl(), b.1.normalized().to_jsonl());
    let jsonl = a.1.to_jsonl();
    assert_eq!(a.1.counter_total(Counter::ProbesSaved), 0);
    assert!(
        !jsonl.contains("anytime-deepen") && !jsonl.contains("probes-saved"),
        "flag-off telemetry must not mention the anytime window"
    );
}

#[test]
fn anytime_hunts_save_probes() {
    // Thread-count invariance of anytime hunts is pinned by `oracle.rs`.
    let config = ExperimentConfig {
        anytime: true,
        ..small_config(0x3C6)
    };
    assert!(
        traced(&config).1.counter_total(Counter::ProbesSaved) > 0,
        "anytime hunts must actually save probes over the fixed window"
    );
}

#[test]
fn threshold_gates_the_early_exit() {
    // A reachable threshold lets the window stop the moment its verdict
    // is stable; an unreachable one (confidence is clamped to 1.0) forces
    // the full deepening loop. Same seed, same world — the only
    // difference is the exit test, so the low-threshold run can never
    // spend more probes.
    let (cluster, adv) = core_sharing_setup();
    let run = |threshold: f64| {
        let det = fitted_detector(DetectorConfig {
            anytime: true,
            confidence_threshold: threshold,
            ..DetectorConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(0xEA51);
        let mut off = Telemetry::disabled();
        det.detect(&cluster, adv, 100.0, None, &mut rng, &mut off)
            .unwrap()
    };
    let eager = run(0.0);
    let exhaustive = run(1.5);

    let eager_info = eager.anytime.expect("anytime detections carry stats");
    let exhaustive_info = exhaustive.anytime.expect("anytime detections carry stats");
    assert!(
        eager_info.converged,
        "a zero threshold must stop at the first stable verdict"
    );
    assert!(
        !exhaustive_info.converged,
        "an unreachable threshold must never report convergence"
    );
    assert!(
        eager_info.probes_used < exhaustive_info.probes_used,
        "early exit must save probes ({} vs {})",
        eager_info.probes_used,
        exhaustive_info.probes_used
    );
    assert!(!eager.verdicts.is_empty(), "the host is not idle");
}

#[test]
fn confidence_is_monotone_in_the_probe_budget() {
    // Budget-prefix determinism: the probe sequence under a budget of k
    // is a prefix of the sequence under any larger budget, and reported
    // confidence is the running maximum over evaluation rounds — so more
    // budget can never lower it. The threshold is unreachable to keep
    // every run from exiting early.
    let (cluster, adv) = core_sharing_setup();
    let mut last_confidence = -1.0;
    let mut last_probes = 0usize;
    for budget in [12, 14, 16, 20] {
        let det = fitted_detector(DetectorConfig {
            anytime: true,
            confidence_threshold: 1.5,
            anytime_max_probes: budget,
            ..DetectorConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(0xB07);
        let mut off = Telemetry::disabled();
        let d = det
            .detect(&cluster, adv, 60.0, None, &mut rng, &mut off)
            .unwrap();
        let info = d.anytime.expect("anytime detections carry stats");
        assert!(!info.converged);
        assert!(
            d.confidence >= last_confidence,
            "budget {budget}: confidence {} dropped below {}",
            d.confidence,
            last_confidence
        );
        assert!(
            info.probes_used >= last_probes,
            "budget {budget}: probes {} below {}",
            info.probes_used,
            last_probes
        );
        last_confidence = d.confidence;
        last_probes = info.probes_used;
    }
    assert!(
        last_confidence > 0.0,
        "the deepening loop must produce a confident verdict at full budget"
    );
}
