//! The reference oracle: the whole optimised stack against the whole naive
//! stack, end to end, byte for byte.
//!
//! | optimisation layer                        | reference twin                  |
//! |-------------------------------------------|---------------------------------|
//! | unrolled kernels (`bolt_linalg::kernels`) | `kernels::reference`, in scope  |
//! | residency index + resident table          | full-arena scan, in scope       |
//! | cross-hunt sweep sharing                  | memo never consulted, in scope  |
//! | thread fan-out (`Threads(n)`)             | `Parallelism::Serial`           |
//!
//! "In scope" means inside `bolt_linalg::oracle::reference`, a thread-local
//! switch that exists only under the `oracle` feature (this crate's
//! dev-dependencies turn it on). The reference stack therefore runs
//! serially, on the calling thread: worker threads would not see it.
//!
//! One property draws a driver (`run_experiment`, `run_service`, or
//! `run_service` on the region preset) and a configuration, runs both
//! stacks, and demands byte-equal results and byte-equal normalized
//! telemetry. Every driver run fits once, so each stack's stream must
//! carry exactly one `recommender-fit` span.
//! Fixed draws add the benchmark configuration, the anytime window and the
//! MRC channel at fixed seeds, a stormy service and a 1,000-server region;
//! a last test compares the fitted recommender itself.

use bolt::experiment::{fit_recommender, run_experiment, ExperimentConfig};
use bolt::service::{run_service, ServiceConfig};
use bolt::{
    Counter, DetectorConfig, Parallelism, Phase, RegionConfig, RunCtx, Telemetry, TelemetryEvent,
    TelemetryLog,
};
use bolt_linalg::oracle;
use bolt_sim::{ChaosConfig, LeastLoaded, StormConfig};
use proptest::prelude::*;

/// Counters that count an optimisation itself, so the reference stack
/// cannot reproduce them. They are dropped before telemetry is compared;
/// every other event must match byte for byte.
///
/// - `sweeps-shared`: sweep-memo hits. In scope no query is memoized, so
///   the reference stack never consults the memo and records none.
const OPTIMISATION_COUNTERS: &[Counter] = &[Counter::SweepsShared];

/// A driver run; `parallelism` is set per stack.
#[derive(Debug)]
enum Job {
    Experiment(ExperimentConfig),
    Service(ServiceConfig),
}

/// A run's result in `Debug` form (`f64`'s `Debug` round-trips, so equal
/// strings mean equal bits), its normalized telemetry as JSONL without the
/// [`OPTIMISATION_COUNTERS`], and its number of `recommender-fit` spans.
struct Run {
    result: String,
    telemetry: String,
    fits: usize,
}

/// Runs `job`.
fn run(job: &Job, parallelism: Parallelism) -> Run {
    let ctx = RunCtx::new(true);
    let (result, log) = match *job {
        Job::Experiment(config) => {
            let config = ExperimentConfig {
                parallelism,
                ..config
            };
            let (results, log) =
                run_experiment(&config, &LeastLoaded, &ctx).expect("experiment runs");
            (format!("{:#?}", results.records), log)
        }
        Job::Service(config) => {
            let config = ServiceConfig {
                parallelism,
                ..config
            };
            let (report, log) = run_service(&config, &ctx).expect("service runs");
            (format!("{report:#?}"), log)
        }
    };
    let fits = log
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TelemetryEvent::Span {
                    phase: Phase::RecommenderFit,
                    ..
                }
            )
        })
        .count();
    let events = log.normalized().into_events().into_iter().filter(|e| {
        !matches!(e, TelemetryEvent::Count { counter, .. } if OPTIMISATION_COUNTERS.contains(counter))
    });
    Run {
        result,
        telemetry: TelemetryLog::from_events(events.collect()).to_jsonl(),
        fits,
    }
}

/// `fast` and `slow` are byte-equal; otherwise names the first line that
/// differs instead of dumping both outputs.
fn same(what: &str, fast: &str, slow: &str) -> Result<(), TestCaseError> {
    if fast == slow {
        return Ok(());
    }
    let (line, (a, b)) = (fast.lines().zip(slow.lines()).enumerate())
        .find(|(_, (a, b))| a != b)
        .unwrap_or((0, ("<one output is a prefix of the other>", "")));
    Err(TestCaseError::fail(format!(
        "{what} diverged at line {line}:\n  optimised: {a}\n  reference: {b}"
    )))
}

/// The differential at `threads` worker threads, plus one fit per run on
/// both stacks.
fn check(job: &Job, threads: usize) -> Result<(), TestCaseError> {
    let fast = run(job, Parallelism::Threads(threads));
    let slow = oracle::reference(|| run(job, Parallelism::Serial));
    same("result", &fast.result, &slow.result)?;
    same("telemetry", &fast.telemetry, &slow.telemetry)?;
    prop_assert_eq!(fast.fits, 1);
    prop_assert_eq!(slow.fits, 1);
    Ok(())
}

/// Fails a fixed (non-proptest) test with `result`'s message.
fn or_panic(context: &str, result: Result<(), TestCaseError>) {
    if let Err(TestCaseError::Fail(msg) | TestCaseError::Reject(msg)) = result {
        panic!("{context}: {msg}");
    }
}

proptest! {
    // Each case runs four full drivers in debug; scale up via
    // PROPTEST_CASES when hunting.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn optimised_stack_matches_the_reference_stack(
        (driver, seed) in (0u8..3, 0u64..1_000_000),
        (servers, region_servers, extra) in (2usize..6, 16usize..=500, 1usize..4),
        (chaos, storm) in (0u32..=4, 0u32..=4),
        (anytime, mrc) in (any::<bool>(), any::<bool>()),
        threads in (0usize..4).prop_map(|i| [1, 2, 3, 8][i]),
    ) {
        let chaos = ChaosConfig::with_intensity(f64::from(chaos) / 4.0);
        let job = if driver == 0 {
            Job::Experiment(ExperimentConfig {
                servers,
                victims: servers + extra,
                seed,
                chaos,
                anytime,
                mrc_channel: mrc,
                ..ExperimentConfig::default()
            })
        } else {
            let base = if driver == 1 {
                // Testbed victims take up to four vCPUs: two per host fit.
                let vms_per_server = extra.min(2);
                ServiceConfig { servers, vms_per_server, seed, ..ServiceConfig::default() }
            } else {
                let (servers, vms_per_server) = (region_servers, extra);
                let region = RegionConfig { servers, vms_per_server, seed, ..RegionConfig::default() };
                ServiceConfig::for_region(&region)
            };
            Job::Service(ServiceConfig {
                requests: 10,
                chaos,
                storm: StormConfig::with_intensity(f64::from(storm) / 4.0),
                detector: DetectorConfig { anytime, mrc_channel: mrc, ..base.detector },
                ..base
            })
        };
        check(&job, threads)?;
    }
}

/// Fixed draws: the `crit_run_experiment` benchmark configuration (8
/// servers, 16 victims, every option off) at three seeds, the anytime
/// window and the MRC channel each on at the scale of their own suites,
/// the unit-scale service under a full storm with chaos, and a
/// 1,000-server region under the `service_region` figure's storm, so
/// threaded lanes meet the reference stack at region scale on every run.
/// Six region requests keep the reference stack's full-arena scans inside
/// the time budget; the figure itself checks Serial against `Threads(3)`
/// at 1,000 to 4,000 servers.
#[test]
fn fixed_configurations_match_the_reference_stack() {
    let experiment = |servers, victims, seed| ExperimentConfig {
        servers,
        victims,
        seed,
        ..ExperimentConfig::default()
    };
    let bench = [ExperimentConfig::default().seed, 7, 20170417].map(|s| experiment(8, 16, s));
    let anytime = ExperimentConfig {
        anytime: true,
        ..experiment(6, 12, 0x3C6)
    };
    let mrc = ExperimentConfig {
        mrc_channel: true,
        ..experiment(6, 10, 0x3C5)
    };
    let stormy = ServiceConfig {
        servers: 4,
        vms_per_server: 2,
        requests: 24,
        arrival_rate_per_min: 5.0,
        storm: StormConfig::with_intensity(1.0),
        chaos: ChaosConfig::with_intensity(0.4),
        ..ServiceConfig::default()
    };
    let region = ServiceConfig {
        requests: 6,
        storm: StormConfig::with_intensity(0.4),
        ..ServiceConfig::for_region(&RegionConfig {
            servers: 1000,
            ..RegionConfig::default()
        })
    };
    let experiments = bench.into_iter().chain([anytime, mrc]).map(Job::Experiment);
    for job in experiments.chain([stormy, region].map(Job::Service)) {
        or_panic(&format!("{job:?}"), check(&job, 3));
    }
}

/// The fitted recommender, compared whole. Every field of the model feeds
/// the verdicts above, so this mostly localizes a failure: a non-bit-exact
/// SVD kernel shows up here as a model diff rather than as a verdict diff
/// several drivers later.
#[test]
fn fitted_model_matches_the_reference_fit() {
    let config = ExperimentConfig::default();
    let fit = || {
        let (seed, isolation) = (config.training_seed, &config.isolation);
        let model = fit_recommender(
            seed,
            isolation,
            config.recommender,
            &mut Telemetry::disabled(),
        );
        format!("{:#?}", model.expect("recommender fits"))
    };
    let fast = fit();
    or_panic(
        "default training set",
        same("fitted model", &fast, &oracle::reference(fit)),
    );
}
