//! `detect-fixed` and `detect-anytime-churn`: the §3.4 controlled
//! experiment, one hunt at a time from outside the library.
//!
//! Each hunt sets up exactly what `run_experiment` does for one victim —
//! the same seed derivation, snapshot, fault plan and acceptance test —
//! and then calls the detector's own hunt loop (`detect_until_telemetry`,
//! or `detect_until_churn_telemetry` under chaos), so the records must
//! equal the library's. The operation is one detection iteration (one
//! recommender decision), timed from the acceptance test the loop calls
//! as each iteration ends: hunts end on the first correct verdict, so
//! hunt latency is bimodal (one iteration, or the six-iteration budget)
//! and its median jumps between the modes from seed to seed, while
//! iteration latency does not.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bolt::experiment::{build_testbed_cache, observe_through, shared_recommender, Testbed};
use bolt::parallel::split_seed;
use bolt::{
    run_experiment_cache, BoltError, Counter, Detection, ExperimentConfig, ExperimentRecord,
    FitCache, Parallelism, Telemetry, TelemetryEvent,
};
use bolt_sim::{ChaosConfig, FaultPlan, LeastLoaded, VmId};
use bolt_workloads::{AppLabel, PressureVector, ResourceCharacteristics};

use crate::calib::Job;
use crate::harness::{hunt_layers, median_ms, ratio, Counters, Ctx, Outcome, Passes, Res};
use crate::trace::{totals, Tracer, ROOT};

/// Chaos intensity of `detect-anytime-churn`.
const CHURN_INTENSITY: f64 = 0.5;

/// The experiment configurations of one pass: one per derived seed.
fn configs(ctx: &Ctx, churn: bool) -> Vec<ExperimentConfig> {
    (0..ctx.scale.detect_seeds)
        .map(|i| ExperimentConfig {
            servers: ctx.scale.detect_servers,
            victims: ctx.scale.detect_victims,
            seed: split_seed(ctx.seed, i as u64),
            parallelism: Parallelism::Serial,
            anytime: churn,
            chaos: if churn {
                ChaosConfig::with_intensity(CHURN_INTENSITY)
            } else {
                ChaosConfig::none()
            },
            ..ExperimentConfig::default()
        })
        .collect()
}

/// One hunt's outside timings and the library telemetry it recorded
/// (disabled when untraced).
struct Hunt {
    /// The private cluster copy a churn hunt runs on.
    snapshot: Option<(Instant, Duration)>,
    /// Wall time of each detection iteration, in order.
    iterations: Vec<Duration>,
    telemetry: Telemetry,
}

impl Hunt {
    fn new(traced: bool) -> Self {
        Hunt {
            snapshot: None,
            iterations: Vec::new(),
            telemetry: if traced {
                Telemetry::for_unit(0)
            } else {
                Telemetry::disabled()
            },
        }
    }
}

/// The experiment's acceptance test, which also times each detection
/// iteration: the hunt loop calls it once as every iteration ends (after
/// any windows it discarded and re-probed), so an iteration's time runs
/// from the previous call, or from the start of the hunt loop.
fn timed_accept<'a>(
    truth: &'a AppLabel,
    iterations: &'a mut Vec<Duration>,
) -> impl FnMut(&Detection) -> bool + 'a {
    let mut last = Instant::now();
    move |d| {
        let now = Instant::now();
        iterations.push(now - last);
        last = now;
        d.matches_label(truth)
    }
}

/// Hunts victim `idx` exactly as the library's experiment loop does:
/// `Detector::detect_until_telemetry` on the read-only testbed without
/// chaos, `Detector::detect_until_churn_telemetry` on a private snapshot
/// with its own fault plan under chaos.
fn hunt(
    config: &ExperimentConfig,
    testbed: &Testbed,
    victims_per_server: &[usize],
    idx: usize,
    victim: VmId,
    h: &mut Hunt,
) -> Result<ExperimentRecord, BoltError> {
    let mut rng = StdRng::seed_from_u64(split_seed(config.seed ^ 0x5EED, idx as u64));
    let state = testbed.cluster.vm(victim)?;
    let truth = state.profile.label().clone();
    let truth_pressure = *state.profile.base_pressure();
    let truth_characteristics = ResourceCharacteristics::from_pressure(&observe_through(
        &truth_pressure,
        &config.isolation,
    ));
    let server = state.server;
    let adversary = testbed.adversaries[server];
    let start_t = rng.gen::<f64>() * 200.0;
    let detector = &testbed.detector;
    let (detection, iterations) = if config.chaos.is_none() {
        detector.detect_until_telemetry(
            &testbed.cluster,
            adversary,
            start_t,
            timed_accept(&truth, &mut h.iterations),
            &mut rng,
            &mut h.telemetry,
        )?
    } else {
        let snap_start = Instant::now();
        let mut live = testbed.cluster.snapshot();
        h.snapshot = Some((snap_start, snap_start.elapsed()));
        let dcfg = detector.config();
        let horizon_s = dcfg.max_iterations.max(1) as f64 * (dcfg.interval_s + 120.0) + 600.0;
        let mut plan = FaultPlan::compile(
            &config.chaos,
            config.seed ^ 0xC4A0,
            idx as u64,
            start_t,
            horizon_s,
        );
        plan.protect(&[adversary, victim]);
        detector.detect_until_churn_telemetry(
            &mut live,
            &mut plan,
            &config.retry,
            adversary,
            start_t,
            timed_accept(&truth, &mut h.iterations),
            &mut rng,
            &mut h.telemetry,
        )?
    };

    Ok(ExperimentRecord {
        detected: detection.label().cloned(),
        label_correct: detection.matches_label(&truth),
        characteristics_correct: detection.matches_characteristics(&truth_characteristics),
        detected_characteristics: detection
            .characteristics()
            .cloned()
            .unwrap_or_else(|| ResourceCharacteristics::from_pressure(&PressureVector::zero())),
        truth,
        truth_pressure,
        truth_characteristics,
        iterations,
        co_residents: victims_per_server[server],
        dominant: truth_pressure.dominant(),
        confidence: detection.confidence,
        degraded: detection.degraded,
    })
}

/// Victim VMs per server, the `co_residents` convention of the records.
fn victims_per_server(testbed: &Testbed, servers: usize) -> Result<Vec<usize>, BoltError> {
    let mut counts = vec![0usize; servers];
    for &v in &testbed.victims {
        counts[testbed.cluster.vm(v)?.server] += 1;
    }
    Ok(counts)
}

fn fraction(records: &[&ExperimentRecord], pred: impl Fn(&ExperimentRecord) -> bool) -> f64 {
    ratio(
        records.iter().filter(|r| pred(r)).count() as f64,
        records.len() as f64,
    )
}

/// Records one traced hunt's spans: hunt ⊃ {sim.snapshot,
/// detection-iteration ⊃ library phases}.
fn trace_hunt(
    tracer: &mut Tracer,
    parent: u64,
    op: u64,
    start: Instant,
    wall: Duration,
    snapshot: Option<(Instant, Duration)>,
    events: &[TelemetryEvent],
) {
    let op = Some(op);
    let hunt_id = tracer.reserve();
    if let Some((s, d)) = snapshot {
        let id = tracer.reserve();
        tracer.finish(id, Some(hunt_id), "sim.snapshot", op, s, d, 1);
    }
    tracer.attach_library(hunt_id, events, |_| op);
    tracer.finish(hunt_id, Some(parent), "hunt", op, start, wall, 1);
}

pub fn run(ctx: &Ctx, churn: bool, tracer: &mut Tracer) -> Res<Outcome> {
    let mut out = Outcome::new(Job::Sort);
    let configs = configs(ctx, churn);
    let first = configs[0];

    // Set-up: a cold fit through a fresh cache, then every testbed.
    let mut fit_s = Vec::new();
    let mut build_s = Vec::new();
    let mut warm = None;
    for _ in 0..ctx.scale.setup_reps {
        // Drop the previous repetition first, so the memory peak holds one
        // set of testbeds, not two.
        drop(warm.take());
        let start = Instant::now();
        let cache = FitCache::new();
        shared_recommender(
            first.training_seed,
            &first.isolation,
            first.recommender,
            &cache,
            &mut Telemetry::disabled(),
        )?;
        let fitted = Instant::now();
        let testbeds = configs
            .iter()
            .map(|c| build_testbed_cache(c, &LeastLoaded, &cache))
            .collect::<Result<Vec<_>, _>>()?;
        let end = Instant::now();
        fit_s.push(fitted.duration_since(start).as_secs_f64());
        build_s.push(end.duration_since(fitted).as_secs_f64() / configs.len() as f64);
        out.setup(end.duration_since(start));
        warm = Some((cache, testbeds));
    }
    let (cache, mut testbeds) = warm.expect("at least one set-up repetition");

    // Timed passes. Every pass after the first rebuilds its testbeds, so
    // no pass inherits another's simulator caches.
    let mut reference: Vec<Vec<ExperimentRecord>> = Vec::new();
    let mut mismatched_passes = 0usize;
    let mut counters = Counters::default();
    let (mut traced_passes, mut traced_hunts) = (0u64, 0u64);
    let mut passes = Passes::new(ctx);
    while let Some(traced) = passes.next_pass(&mut out) {
        if passes.done() > 1 {
            testbeds.clear();
            testbeds = configs
                .iter()
                .map(|c| build_testbed_cache(c, &LeastLoaded, &cache))
                .collect::<Result<Vec<_>, _>>()?;
        }
        traced_passes += u64::from(traced);
        let mut pass_records = Vec::with_capacity(configs.len());
        for (k, (config, testbed)) in configs.iter().zip(&testbeds).enumerate() {
            let vps = victims_per_server(testbed, config.servers)?;
            let (seed_id, seed_start) = (if traced { tracer.reserve() } else { 0 }, Instant::now());
            let mut records = Vec::with_capacity(testbed.victims.len());
            for (idx, &victim) in testbed.victims.iter().enumerate() {
                let mut h = Hunt::new(traced);
                let start = Instant::now();
                let result = hunt(config, testbed, &vps, idx, victim, &mut h);
                let wall = start.elapsed();
                for &iteration in &h.iterations {
                    out.op(traced, iteration);
                }
                match result {
                    Ok(record) => records.push(record),
                    Err(e) => {
                        out.attempted += 1;
                        out.failed += 1;
                        eprintln!("hunt {idx} of seed {k} failed: {e}");
                    }
                }
                if traced {
                    let events = h.telemetry.into_events();
                    trace_hunt(
                        tracer,
                        seed_id,
                        (k * config.victims + idx) as u64,
                        start,
                        wall,
                        h.snapshot,
                        &events,
                    );
                    counters.add(&events);
                    traced_hunts += 1;
                }
            }
            if traced {
                tracer.finish(
                    seed_id,
                    Some(ROOT),
                    "seed",
                    None,
                    seed_start,
                    seed_start.elapsed(),
                    1,
                );
            }
            pass_records.push(records);
        }
        if reference.is_empty() {
            reference = pass_records;
        } else if pass_records != reference {
            mismatched_passes += 1;
        }
    }
    out.end_timed(&passes)?;

    // Correctness: the outside-driven records of the first seed are the
    // library's, and every pass reproduced the first.
    let library = run_experiment_cache(&first, &LeastLoaded, &cache)?;
    out.check(
        "records_match_run_experiment",
        library.records == reference[0],
        format!(
            "{} library records vs {} outside-driven",
            library.records.len(),
            reference[0].len()
        ),
    );
    out.check(
        "passes_identical",
        mismatched_passes == 0,
        format!("{mismatched_passes} passes differed from the first"),
    );

    if ctx.trace {
        let all: Vec<&ExperimentRecord> = reference.iter().flatten().collect();
        let totals = totals(tracer.spans());
        let hunts = traced_hunts as f64;
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        hunt_layers(&mut out, &totals, &counters, hunts);
        out.layer("recommender.fit_ms", median_ms(&fit_s));
        out.layer("sim.testbed_build_ms", median_ms(&build_s));
        out.layer(
            "detector.hunt_self_us",
            ratio(t("hunt").self_ns / 1e3, hunts),
        );
        out.layer(
            "sim.snapshot_us",
            ratio(
                t("sim.snapshot").wall_ns / 1e3,
                t("sim.snapshot").spans as f64,
            ),
        );
        out.layer(
            "detector.windows_discarded",
            ratio(
                counters.get(Counter::WindowsDiscarded),
                traced_passes as f64,
            ),
        );
        out.layer(
            "detector.label_accuracy",
            fraction(&all, |r| r.label_correct),
        );
        out.layer(
            "detector.chars_accuracy",
            fraction(&all, |r| r.characteristics_correct),
        );
        out.layer(
            "detector.silent_mislabel_rate",
            fraction(&all, |r| {
                !r.label_correct && r.detected.is_some() && r.degraded.is_none()
            }),
        );
        out.layer(
            "detector.degraded_rate",
            fraction(&all, |r| r.degraded.is_some()),
        );
    }
    Ok(out)
}
