//! Telemetry is an observer: every driver computes identical results with
//! recording on and off, and a run that did not ask for telemetry hands
//! back an empty log.
//!
//! One row per [`RunCtx`] driver, each at a small configuration. Every
//! driver fits once per run, so the recorded run also traces its fit. Each
//! row names JSONL fragments the recorded stream must carry.

use std::fmt::Debug;

use bolt::fingerprint::{family_heatmap, population};
use bolt::robustness::churn_sweep;
use bolt::sensitivity::{adversary_size_sweep, benchmark_count_sweep, profiling_interval_sweep};
use bolt::telemetry::{Counter, TelemetryLog};
use bolt::{
    run_experiment, run_isolation_study, run_service, run_user_study, BoltError, ExperimentConfig,
    Parallelism, RunCtx, ServiceConfig, Telemetry, UserStudyConfig,
};
use bolt_sim::LeastLoaded;
use bolt_workloads::Resource;

/// Runs `driver` with telemetry on and off and checks the contract.
fn row<T, F>(name: &str, fragments: &[&str], driver: F)
where
    T: PartialEq + Debug,
    F: Fn(&RunCtx) -> Result<(T, TelemetryLog), BoltError>,
{
    let (on, on_log) = driver(&RunCtx::new(true)).unwrap();
    let (off, off_log) = driver(&RunCtx::new(false)).unwrap();
    assert_eq!(on, off, "{name}: recording changed the result");
    assert!(off_log.is_empty(), "{name}: telemetry off still logged");
    let jsonl = on_log.to_jsonl();
    for fragment in fragments {
        assert!(jsonl.contains(fragment), "{name}: no {fragment} in the log");
    }
}

#[test]
fn every_driver_is_telemetry_invariant() {
    let base = ExperimentConfig {
        servers: 4,
        victims: 6,
        ..ExperimentConfig::default()
    };
    let probes = "\"probe-samples\"";
    row("run_experiment", &["\"recommender-fit\"", probes], |ctx| {
        run_experiment(&base, &LeastLoaded, ctx)
    });
    row("adversary_size_sweep", &[probes], |ctx| {
        adversary_size_sweep(&base, &[2], ctx)
    });
    row("benchmark_count_sweep", &[probes], |ctx| {
        benchmark_count_sweep(&base, &[2], ctx)
    });
    // The victim's job swaps land in the log as cluster events.
    let swaps = "\"kind\":\"swap-profile\"";
    row("profiling_interval_sweep", &[probes, swaps], |ctx| {
        profiling_interval_sweep(&[60.0], 60.0, 240.0, 0xF16A, Parallelism::Auto, ctx)
    });
    row("churn_sweep", &["\"faults-injected\""], |ctx| {
        churn_sweep(&base, &LeastLoaded, &[0.5], ctx)
    });
    row("run_isolation_study", &["\"detection-iteration\""], |ctx| {
        run_isolation_study(&base, ctx)
    });
    let study = UserStudyConfig {
        instances: 6,
        users: 3,
        jobs: 12,
        ..UserStudyConfig::default()
    };
    row("run_user_study", &[probes], |ctx| {
        run_user_study(&study, ctx)
    });
    let service = ServiceConfig {
        servers: 4,
        vms_per_server: 2,
        requests: 12,
        ..ServiceConfig::default()
    };
    row("run_service", &["\"service-request\""], |ctx| {
        run_service(&service, ctx)
    });
}

#[test]
fn family_heatmap_is_telemetry_invariant() {
    let profiles = population(100, 7);
    let heatmap = |telemetry: &mut Telemetry| {
        family_heatmap(
            &profiles,
            "memcached",
            Resource::L1i,
            Resource::Llc,
            4,
            telemetry,
        )
    };
    let mut on = Telemetry::for_unit(0);
    assert_eq!(heatmap(&mut on), heatmap(&mut Telemetry::disabled()));
    let log = TelemetryLog::from_events(on.into_events());
    assert_eq!(log.counter_total(Counter::ProbeSamples), 100);
    assert!(log.to_jsonl().contains("\"content-match\""));
}

/// Sweeps that fan their units out trace the same normalized stream at
/// any thread count. The interval sweep fits once, before fanning out, and
/// lends the model to every interval; each isolation cell fits inside its
/// own experiment and rolls up only that experiment's counters.
#[test]
fn parallel_sweeps_trace_the_same_at_any_thread_count() {
    let trace = |parallelism: Parallelism| {
        let base = ExperimentConfig {
            servers: 4,
            victims: 4,
            parallelism,
            ..ExperimentConfig::default()
        };
        let ctx = RunCtx::new(true);
        let (_, study) = run_isolation_study(&base, &ctx).unwrap();
        let intervals = [30.0, 60.0, 120.0];
        let (_, sweep) =
            profiling_interval_sweep(&intervals, 60.0, 240.0, 0xF16A, parallelism, &ctx).unwrap();
        [study, sweep].map(|log| log.normalized().to_jsonl())
    };
    let [serial_study, serial_sweep] = trace(Parallelism::Serial);
    let [threaded_study, threaded_sweep] = trace(Parallelism::Threads(3));
    assert_eq!(serial_sweep.matches("\"recommender-fit\"").count(), 1);
    assert!(serial_study.contains("\"detection-iteration\""));
    assert!(serial_study == threaded_study, "isolation study diverged");
    assert!(serial_sweep == threaded_sweep, "interval sweep diverged");
}
