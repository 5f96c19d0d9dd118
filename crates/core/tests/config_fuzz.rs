//! Config fuzz: no configuration a caller can build makes a driver panic
//! or hang.
//!
//! Each case draws small `ExperimentConfig`, `ServiceConfig`,
//! `RegionConfig`, `UserStudyConfig`, `DetectorConfig` and
//! `RecommenderConfig` values and runs one driver on them on a worker
//! thread. Every numeric field of those six configs, of the detector's
//! profiler (with its ramp) and shutter, and every field of the policy
//! structs (`ChaosConfig`, `StormConfig`, `RetryPolicy`, `BreakerConfig`)
//! is drawn: usually its normal value, sometimes one of the degenerate
//! values below. Half the cases start the chaos and storm dials from an
//! active mix, the other half from the disabled one. The driver must
//! return `Ok` or a typed `Err` within [`CASE_BOUND`]; a panic fails the
//! case, and a hang aborts the run.
//!
//! - `f64` fields: 0, −1, NaN, +∞, −∞, 1e300, and the tiny positives
//!   1e-300 and `f64::MIN_POSITIVE` (a step or rate that passes a
//!   "finite and > 0" check yet would loop ~10³⁰⁰ times).
//! - Sizes and loop counts (`usize`, `u32`): 0 and 1. A huge size would
//!   abort on allocation rather than panic, and a huge loop count only
//!   measures patience.
//! - Caps and capacities (`pair_shortlist`, `queue_capacity`,
//!   `adversary_vcpus`), and the sizes and loop counts a config bounds
//!   itself (`RegionConfig`'s `servers` and `steps`, `ServiceConfig`'s
//!   `requests`, `servers` and `vms_per_server`, `UserStudyConfig`'s
//!   `instances`, `users` and `jobs`, `DetectorConfig`'s
//!   `max_iterations`, shutter `frames` and `anytime_max_probes`, and
//!   `RetryPolicy::max_retries`): 0, 1 and their type's maximum.
//! - Seeds: 0 and the type's maximum.
//! - Flags: the opposite of the normal value.
//!
//! The policy structs are built field by field, without `..default`, so a
//! new field does not compile until the fuzz draws it.

use std::io::{self, Write};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::service::{run_service, ServiceConfig};
use bolt::{
    run_region, run_user_study, DetectorConfig, Parallelism, RegionConfig, RunCtx, UserStudyConfig,
};
use bolt::{BreakerConfig, RetryPolicy};
use bolt_probes::{ProfilerConfig, RampConfig, ShutterConfig};
use bolt_recommender::RecommenderConfig;
use bolt_sim::{ChaosConfig, LeastLoaded, StormConfig};
use proptest::prelude::*;

/// The degenerate `f64` values a field is drawn from.
const F64_SPECIALS: [f64; 8] = [
    0.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    1e-300,
    f64::MIN_POSITIVE,
];

/// One pick per field, consumed in order; a pick past the field's
/// degenerate values keeps the normal value. With picks in `0..PICKS`,
/// each `f64` field is degenerate with probability 8/64. A service case
/// draws 21 `f64` fields, so it perturbs a few of them; in a minority of
/// cases every perturbed value passes validation and the driver runs.
struct Picks(std::vec::IntoIter<u8>);

const PICKS: u8 = 64;

impl Picks {
    fn pick(&mut self) -> usize {
        usize::from(self.0.next().expect("enough picks for every field"))
    }

    fn real(&mut self, normal: f64) -> f64 {
        F64_SPECIALS.get(self.pick()).copied().unwrap_or(normal)
    }

    fn size(&mut self, normal: usize) -> usize {
        [0, 1].get(self.pick()).copied().unwrap_or(normal)
    }

    fn cap(&mut self, normal: usize) -> usize {
        [0, 1, usize::MAX]
            .get(self.pick())
            .copied()
            .unwrap_or(normal)
    }

    fn seed(&mut self, normal: u64) -> u64 {
        [0, u64::MAX].get(self.pick()).copied().unwrap_or(normal)
    }

    fn flag(&mut self, normal: bool) -> bool {
        normal ^ (self.pick() == 0)
    }
}

fn recommender(p: &mut Picks) -> RecommenderConfig {
    let d = RecommenderConfig::default();
    RecommenderConfig {
        energy_fraction: p.real(d.energy_fraction),
        match_threshold: p.real(d.match_threshold),
        noise_floor: p.real(d.noise_floor),
        pair_shortlist: p.cap(d.pair_shortlist),
        mrc_tie_margin: p.real(d.mrc_tie_margin),
        ..d
    }
}

fn detector(p: &mut Picks, d: DetectorConfig, anytime: bool, mrc: bool) -> DetectorConfig {
    let (ramp, shutter) = (d.profiler.ramp, d.shutter);
    DetectorConfig {
        interval_s: p.real(d.interval_s),
        max_iterations: p.cap(d.max_iterations),
        profiler: ProfilerConfig {
            initial_benchmarks: p.size(d.profiler.initial_benchmarks),
            ramp: RampConfig {
                step: p.real(ramp.step),
                dwell_s: p.real(ramp.dwell_s),
                base_noise: p.real(ramp.base_noise),
            },
        },
        shutter: ShutterConfig {
            frames: p.cap(shutter.frames),
            interval_s: p.real(shutter.interval_s),
            frame_s: p.real(shutter.frame_s),
        },
        confidence_threshold: p.real(d.confidence_threshold),
        anytime_max_probes: p.cap(d.anytime_max_probes),
        anytime,
        mrc_channel: mrc,
        ..d
    }
}

/// The chaos dial a case starts from: an active mix, or the disabled one.
fn chaos(p: &mut Picks, active: bool) -> ChaosConfig {
    let d = if active {
        ChaosConfig::with_intensity(0.8)
    } else {
        ChaosConfig::none()
    };
    ChaosConfig {
        intensity: p.real(d.intensity),
    }
}

/// The storm dial a case starts from: an active mix, or the disabled one.
fn storm(p: &mut Picks, active: bool) -> StormConfig {
    let d = if active {
        StormConfig::with_intensity(0.8)
    } else {
        StormConfig::none()
    };
    StormConfig {
        intensity: p.real(d.intensity),
    }
}

fn retry(p: &mut Picks) -> RetryPolicy {
    let d = RetryPolicy::default();
    RetryPolicy {
        max_retries: p.cap(d.max_retries),
        initial_backoff_s: p.real(d.initial_backoff_s),
        backoff_mult: p.real(d.backoff_mult),
        probe_budget_s: p.real(d.probe_budget_s),
        abort_on_exhaustion: p.flag(d.abort_on_exhaustion),
    }
}

fn breaker(p: &mut Picks) -> BreakerConfig {
    let d = BreakerConfig::default();
    BreakerConfig {
        fault_threshold: p.size(d.fault_threshold),
        cooldown_s: p.real(d.cooldown_s),
    }
}

fn experiment(p: &mut Picks, anytime: bool, mrc: bool, chaotic: bool) -> ExperimentConfig {
    let d = ExperimentConfig::default();
    ExperimentConfig {
        servers: p.size(2),
        victims: p.size(3),
        adversary_vcpus: [0, 1, u32::MAX]
            .get(p.pick())
            .copied()
            .unwrap_or(d.adversary_vcpus),
        seed: p.seed(d.seed),
        training_seed: p.seed(d.training_seed),
        detector: detector(p, d.detector, anytime, mrc),
        recommender: recommender(p),
        chaos: chaos(p, chaotic),
        retry: retry(p),
        parallelism: Parallelism::Serial,
        ..d
    }
}

fn service(p: &mut Picks, anytime: bool, mrc: bool, chaotic: bool) -> ServiceConfig {
    let d = ServiceConfig::default();
    ServiceConfig {
        servers: p.cap(3),
        vms_per_server: p.cap(1),
        requests: p.cap(4),
        arrival_rate_per_min: p.real(d.arrival_rate_per_min),
        deadline_s: p.real(d.deadline_s),
        queue_capacity: p.cap(d.queue_capacity),
        workers: p.size(2),
        nominal_service_s: p.real(d.nominal_service_s),
        seed: p.seed(d.seed),
        training_seed: p.seed(d.training_seed),
        duplicate_rate: p.real(0.2),
        detector: detector(p, d.detector, anytime, mrc),
        recommender: recommender(p),
        breaker: breaker(p),
        retry: retry(p),
        chaos: chaos(p, chaotic),
        storm: storm(p, chaotic),
        parallelism: Parallelism::Serial,
        ..d
    }
}

fn region(p: &mut Picks) -> RegionConfig {
    RegionConfig {
        servers: p.cap(20),
        vms_per_server: p.size(2),
        steps: p.cap(2),
        probes_per_step: p.size(8),
        churn_per_step: p.size(2),
        seed: p.seed(RegionConfig::default().seed),
    }
}

fn user_study(p: &mut Picks, anytime: bool, mrc: bool) -> UserStudyConfig {
    let d = UserStudyConfig::default();
    UserStudyConfig {
        instances: p.cap(2),
        users: p.cap(1),
        jobs: p.cap(2),
        manual_placement_rate: p.real(d.manual_placement_rate),
        seed: p.seed(d.seed),
        detector: detector(p, d.detector, anytime, mrc),
        recommender: recommender(p),
        parallelism: Parallelism::Serial,
    }
}

/// Wall-clock bound on one driver run. A normal case takes well under a
/// second in a debug build; a case still running after this is hung.
const CASE_BOUND: Duration = Duration::from_secs(10);

/// Runs `driver` on a worker thread, waits at most [`CASE_BOUND`] for it,
/// and returns whether it panicked. A hung worker cannot be stopped, and a
/// hang may be allocating without bound, so a timeout prints `config` and
/// aborts the whole test process at once.
fn panicked(config: &str, driver: impl FnOnce() + Send + 'static) -> bool {
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        driver();
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(CASE_BOUND) {
        // Straight to the process's stderr: the harness would hold an
        // `eprintln!` in its capture buffer, which the abort discards.
        let _ = writeln!(io::stderr(), "driver hung for {CASE_BOUND:?} on {config}");
        std::process::abort();
    }
    // A panic drops `done` without sending, so this join returns at once.
    worker.join().is_err()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_config_makes_a_driver_panic(
        driver in 0u8..4,
        (anytime, mrc, chaotic) in (any::<bool>(), any::<bool>(), any::<bool>()),
        picks in proptest::collection::vec(0u8..PICKS, 64),
    ) {
        let mut p = Picks(picks.into_iter());
        let ctx = RunCtx::new(false);
        // Each arm formats its config before the worker takes it.
        let (config, run): (String, Box<dyn FnOnce() + Send>) = match driver {
            0 => {
                let config = experiment(&mut p, anytime, mrc, chaotic);
                let run = move || drop(run_experiment(&config, &LeastLoaded, &ctx));
                (format!("{config:?}"), Box::new(run))
            }
            1 => {
                let config = service(&mut p, anytime, mrc, chaotic);
                (format!("{config:?}"), Box::new(move || drop(run_service(&config, &ctx))))
            }
            2 => {
                let config = region(&mut p);
                (format!("{config:?}"), Box::new(move || drop(run_region(&config))))
            }
            _ => {
                let config = user_study(&mut p, anytime, mrc);
                let run = move || drop(run_user_study(&config, &ctx));
                (format!("{config:?}"), Box::new(run))
            }
        };
        prop_assert!(!panicked(&config, run), "driver panicked on {}", config);
    }
}

/// `run_user_study` runs the driver-level detector check, which leaves the
/// profiler's ramp alone: a zero, negative or tiny ramp step reaches the
/// probes themselves, and they must reject it.
#[test]
fn user_study_rejects_a_non_positive_ramp_step() {
    for step in [0.0, -1.0, 1e-300] {
        let mut config = UserStudyConfig {
            instances: 2,
            users: 1,
            jobs: 2,
            ..UserStudyConfig::default()
        };
        config.detector.profiler.ramp.step = step;
        let failed = panicked(&format!("{config:?}"), move || {
            let outcome = run_user_study(&config, &RunCtx::new(false));
            assert!(outcome.is_err(), "step {step} ran: {outcome:?}");
        });
        assert!(!failed, "step {step}");
    }
}
