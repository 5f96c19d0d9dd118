//! Chaos-off invariance: with [`ChaosConfig::none`] the chaos engine must
//! be *byte-invisible* — the churn-aware entry points produce bit-identical
//! detections and telemetry to the legacy fixed-cluster paths, and the
//! experiment engine emits no fault counters and no chaos trace events.

use bolt::detector::{Detector, DetectorConfig, RetryPolicy};
use bolt::experiment::{
    build_testbed, fit_recommender, observed_training, run_experiment, ExperimentConfig,
    ExperimentResults, Testbed,
};
use bolt::telemetry::{Counter, Telemetry, TelemetryLog};
use bolt::{Parallelism, RunCtx};
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::{ChaosConfig, FaultPlan, LeastLoaded};
use bolt_workloads::training::training_set;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        servers: 6,
        victims: 10,
        seed,
        ..ExperimentConfig::default()
    }
}

/// A recorded experiment run.
fn traced(config: &ExperimentConfig) -> (ExperimentResults, TelemetryLog) {
    run_experiment(config, &LeastLoaded, &RunCtx::new(true)).expect("experiment runs")
}

fn testbed(config: &ExperimentConfig) -> Testbed {
    let recommender = fit_recommender(
        config.training_seed,
        &config.isolation,
        config.recommender,
        &mut Telemetry::disabled(),
    )
    .unwrap();
    build_testbed(config, &LeastLoaded, recommender).unwrap()
}

fn fitted_detector(config: &ExperimentConfig) -> Detector {
    let examples = observed_training(&training_set(config.training_seed), &config.isolation);
    let data = TrainingData::from_examples(examples).unwrap();
    let rec = HybridRecommender::fit(data, config.recommender).unwrap();
    Detector::new(rec, DetectorConfig::default())
}

#[test]
fn none_plan_detection_is_bit_identical_to_the_legacy_path() {
    let config = small_config(0xA5FA11);
    let testbed = testbed(&config);
    let detector = fitted_detector(&config);
    let adversary = testbed.adversaries[0];

    // Legacy fixed-cluster path.
    let mut rng1 = StdRng::seed_from_u64(77);
    let mut t1 = Telemetry::for_unit(1);
    let legacy = detector
        .detect(&testbed.cluster, adversary, 120.0, None, &mut rng1, &mut t1)
        .unwrap();

    // Churn path with an empty plan: same cluster state, same RNG seed.
    let mut live = testbed.cluster.snapshot();
    live.take_events(); // the snapshot starts with a clean trace
    let mut plan = FaultPlan::compile(&ChaosConfig::none(), 0xC4A0, 0, 0.0, 5000.0);
    let mut rng2 = StdRng::seed_from_u64(77);
    let mut t2 = Telemetry::for_unit(1);
    let churn = detector
        .detect_churn_telemetry(
            &mut live, &mut plan, 0, adversary, 120.0, None, &mut rng2, &mut t2,
        )
        .unwrap();

    assert_eq!(legacy, churn);
    let log1 = bolt::TelemetryLog::from_events(t1.into_events()).normalized();
    let log2 = bolt::TelemetryLog::from_events(t2.into_events()).normalized();
    assert_eq!(
        log1, log2,
        "an empty plan must not leave a telemetry fingerprint"
    );
}

#[test]
fn none_plan_hunt_loop_is_bit_identical_to_detect_until() {
    let config = small_config(0xBEEF);
    let testbed = testbed(&config);
    let detector = fitted_detector(&config);
    let adversary = testbed.adversaries[1];

    let mut off = Telemetry::disabled();
    let mut rng1 = StdRng::seed_from_u64(5);
    let (legacy, iters1) = detector
        .detect_until_telemetry(
            &testbed.cluster,
            adversary,
            30.0,
            |_| false,
            &mut rng1,
            &mut off,
        )
        .unwrap();

    let mut live = testbed.cluster.snapshot();
    live.take_events();
    let mut plan = FaultPlan::compile(&ChaosConfig::none(), 1, 1, 0.0, 5000.0);
    let mut rng2 = StdRng::seed_from_u64(5);
    let (churn, iters2) = detector
        .detect_until_churn_telemetry(
            &mut live,
            &mut plan,
            &RetryPolicy::default(),
            adversary,
            30.0,
            |_| false,
            &mut rng2,
            &mut off,
        )
        .unwrap();

    assert_eq!(legacy, churn);
    assert_eq!(iters1, iters2);
}

#[test]
fn chaos_off_experiment_telemetry_carries_no_chaos_artifacts() {
    let config = small_config(0xA5FA11);
    assert!(
        config.chaos.is_none(),
        "the default config must be chaos-off"
    );
    let (_, log) = traced(&config);
    assert!(!log.is_empty());
    assert_eq!(log.counter_total(Counter::FaultsInjected), 0);
    assert_eq!(log.counter_total(Counter::WindowsDiscarded), 0);
    assert_eq!(log.counter_total(Counter::DetectionRetries), 0);
    let jsonl = log.to_jsonl();
    assert!(!jsonl.contains("\"kind\":\"degrade\""));
    assert!(!jsonl.contains("\"kind\":\"probe-fault\""));
    assert!(!jsonl.contains("faults-injected"));
}

#[test]
fn mrc_channel_off_is_byte_invisible() {
    // With the channel off, varying the tie-break margin must not move a
    // byte: no extra RNG draw, no telemetry span, no counter.
    let base = small_config(0xA5FA11);
    let decorated = ExperimentConfig {
        recommender: RecommenderConfig {
            mrc_tie_margin: 0.5,
            ..base.recommender
        },
        ..base
    };
    assert!(!base.mrc_channel && !base.detector.mrc_channel);
    let a = traced(&base);
    let b = traced(&decorated);
    assert_eq!(a.0.records, b.0.records);
    assert_eq!(a.1.normalized().to_jsonl(), b.1.normalized().to_jsonl());
    let jsonl = a.1.to_jsonl();
    assert_eq!(a.1.counter_total(Counter::MrcProbePoints), 0);
    assert_eq!(a.1.counter_total(Counter::MrcTieBreaks), 0);
    assert!(
        !jsonl.contains("mrc-"),
        "channel-off telemetry must not mention the mrc channel"
    );
}

#[test]
fn mrc_hunts_sweep() {
    // Thread-count invariance of MRC hunts is pinned by `oracle.rs`.
    let config = ExperimentConfig {
        mrc_channel: true,
        ..small_config(0x3C5)
    };
    assert!(
        traced(&config).1.counter_total(Counter::MrcProbePoints) > 0,
        "channel-on hunts must actually sweep"
    );
}

proptest! {
    // Each case runs two full experiments; keep the count small and scale
    // up via PROPTEST_CASES when hunting.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn chaos_off_records_never_depend_on_the_chaos_fields(
        seed in 0u64..1_000_000,
        max_retries in 0usize..5,
        workers in 1usize..5,
    ) {
        // Varying every chaos-adjacent knob while the engine is off must
        // not move a single byte of the results.
        let base = ExperimentConfig {
            parallelism: Parallelism::Serial,
            ..small_config(seed)
        };
        let decorated = ExperimentConfig {
            parallelism: Parallelism::Threads(workers),
            retry: RetryPolicy {
                max_retries,
                initial_backoff_s: 99.0,
                backoff_mult: 3.0,
                probe_budget_s: 1.0,
                abort_on_exhaustion: true,
            },
            ..base
        };
        let a = traced(&base);
        let b = traced(&decorated);
        prop_assert_eq!(&a.0.records, &b.0.records);
        prop_assert_eq!(
            a.1.normalized().to_jsonl(),
            b.1.normalized().to_jsonl()
        );
    }
}
