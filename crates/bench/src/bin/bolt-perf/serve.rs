//! `serve-region`: the streaming detection service against a 2,000-server
//! region, one service run per derived seed, all sharing one warm fit
//! cache.
//!
//! A run is one closed-loop call into the service; inside it, arrivals
//! are open-loop in simulated time. The service always records telemetry,
//! so each request's wall time comes from its `service-request` span in
//! untraced and traced passes alike. Throughput divides the requests a
//! run offered by the run's whole wall time, which also covers what no
//! request span does: the service building its cluster inside the call
//! (the library offers no way to hand it a prebuilt one), and each
//! request dropping its region snapshot after its span has closed.

use std::time::Instant;

use bolt::experiment::shared_recommender;
use bolt::parallel::split_seed;
use bolt::{
    run_service_cache_telemetry, Counter, FitCache, Parallelism, Phase, RegionConfig,
    RequestOutcome, ServiceConfig, ServiceMetric, ServiceReport, Telemetry, TelemetryEvent,
};
use bolt_sim::StormConfig;

use crate::calib::Job;
use crate::harness::{hunt_layers, median_ms, ratio, Counters, Ctx, Outcome, Passes, Res};
use crate::region::build_region;
use crate::stats::nearest_rank;
use crate::trace::{totals, Tracer, ROOT};

/// Storm intensity of the request trace.
const STORM_INTENSITY: f64 = 0.4;

fn configs(ctx: &Ctx) -> Vec<ServiceConfig> {
    (0..ctx.scale.serve_seeds)
        .map(|i| {
            let region = RegionConfig {
                servers: ctx.scale.serve_servers,
                vms_per_server: ctx.scale.serve_vms_per_server,
                seed: split_seed(ctx.seed, i as u64),
                ..RegionConfig::default()
            };
            ServiceConfig {
                requests: ctx.scale.serve_requests,
                storm: StormConfig::with_intensity(STORM_INTENSITY),
                parallelism: Parallelism::Serial,
                ..ServiceConfig::for_region(&region)
            }
        })
        .collect()
}

/// Wall seconds of every executed request, in log order.
fn request_walls(events: &[TelemetryEvent]) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match *e {
            TelemetryEvent::Span {
                phase: Phase::ServiceRequest,
                wall_ns,
                ..
            } => Some(wall_ns as f64 / 1e9),
            _ => None,
        })
        .collect()
}

/// The deepest the admission queue got.
fn peak_queue_depth(events: &[TelemetryEvent]) -> f64 {
    events
        .iter()
        .filter_map(|e| match *e {
            TelemetryEvent::ServiceGauge {
                metric: ServiceMetric::QueueDepth,
                value,
                ..
            } => Some(value),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// Simulated arrival-to-outcome seconds of an executed request.
fn sim_latency(outcome: &RequestOutcome) -> Option<f64> {
    match *outcome {
        RequestOutcome::Completed { latency_s, .. }
        | RequestOutcome::Degraded { latency_s, .. }
        | RequestOutcome::TimedOut { latency_s } => Some(latency_s),
        RequestOutcome::Shed { .. } => None,
    }
}

/// The honesty contract against a calm twin: a verdict the stormy run
/// flags degraded never claims more confidence than the clean verdict the
/// same base request earns without storms. Returns the violations.
fn honesty_violations(stormy: &ServiceReport, calm: &ServiceReport, threshold: f64) -> usize {
    stormy
        .records
        .iter()
        .filter(|r| !r.from_storm)
        .filter(|r| {
            let RequestOutcome::Degraded { confidence, .. } = r.outcome else {
                return false;
            };
            calm.records
                .iter()
                .find(|c| c.arrival_s.to_bits() == r.arrival_s.to_bits())
                .is_some_and(|c| {
                    matches!(c.outcome, RequestOutcome::Completed { confidence: clean, .. }
                        if clean >= threshold && confidence > clean)
                })
        })
        .count()
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Res<Outcome> {
    let mut out = Outcome::new(Job::SortAndStream);
    let configs = configs(ctx);
    let first = configs[0];

    // Set-up: a cold fit through a fresh cache; the last one stays warm
    // for every service run.
    let mut warm = None;
    for _ in 0..ctx.scale.setup_reps {
        let start = Instant::now();
        let cache = FitCache::new();
        shared_recommender(
            first.training_seed,
            &first.isolation,
            first.recommender,
            &cache,
            &mut Telemetry::disabled(),
        )?;
        out.setup(start.elapsed());
        warm = Some(cache);
    }
    let cache = warm.expect("at least one set-up repetition");

    // The first pass's reports, plus the counters and queue peak of its
    // logs (folded as they arrive, so no log outlives its run).
    let mut reference: Vec<ServiceReport> = Vec::new();
    let mut pass_counters = Counters::default();
    let mut queue_peak = 0.0f64;
    let mut mismatched_runs = 0usize;
    let mut unbalanced = 0usize;
    let mut counters = Counters::default();
    let mut traced_runs = 0usize;
    let mut passes = Passes::new(ctx);
    while let Some(traced) = passes.next_pass(&mut out) {
        for (k, config) in configs.iter().enumerate() {
            let start = Instant::now();
            let result = run_service_cache_telemetry(config, &cache);
            let wall = start.elapsed();
            let (report, log) = match result {
                Ok(r) => r,
                Err(e) => {
                    out.attempted += 1;
                    out.failed += 1;
                    eprintln!("service run {k} failed: {e}");
                    continue;
                }
            };
            let events = log.into_events();
            out.batch(traced, report.offered as u64, wall, &request_walls(&events));
            out.failed +=
                (report.shed_at_admission + report.shed_after_admission + report.timed_out) as u64;
            unbalanced += usize::from(!report.balanced());
            if traced {
                traced_runs += 1;
                let run_id = tracer.reserve();
                // Requests are numbered within their run in the order
                // their spans close.
                let mut requests = 0u64;
                tracer.attach_library(run_id, &events, |phase| {
                    (phase == Phase::ServiceRequest).then(|| {
                        requests += 1;
                        requests - 1
                    })
                });
                tracer.finish(run_id, Some(ROOT), "service.run", None, start, wall, 1);
                counters.add(&events);
            }
            match reference.get(k) {
                None => {
                    pass_counters.add(&events);
                    queue_peak = queue_peak.max(peak_queue_depth(&events));
                    reference.push(report);
                }
                Some(r) => mismatched_runs += usize::from(*r != report),
            }
        }
    }
    out.end_timed(&passes)?;

    // Correctness: every run balances its books, passes replay the first,
    // and degraded verdicts stay honest against a storm-free twin.
    out.check(
        "reports_balanced",
        unbalanced == 0,
        format!("{unbalanced} runs broke admitted = completed + degraded + shed + timed out"),
    );
    out.check(
        "passes_identical",
        mismatched_runs == 0,
        format!("{mismatched_runs} runs differed from the first pass"),
    );
    let calm = ServiceConfig {
        storm: StormConfig::none(),
        ..first
    };
    let (calm_report, _) = run_service_cache_telemetry(&calm, &cache)?;
    let stormy = reference.first().ok_or("no service run succeeded")?;
    let violations = honesty_violations(stormy, &calm_report, first.detector.confidence_threshold);
    out.check(
        "honest_against_calm_twin",
        violations == 0 && calm_report.balanced(),
        format!("{violations} degraded verdicts outrank the calm twin"),
    );

    if ctx.trace {
        let totals = totals(tracer.spans());
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        let requests = t("service-request");
        let executed = requests.spans as f64;
        hunt_layers(&mut out, &totals, &counters, executed);
        let offered = out.traced_ops as f64;
        out.layer("recommender.fit_ms", median_ms(&out.setup_walls()));
        out.layer(
            "service.request_self_us",
            ratio(requests.self_ns / 1e3, requests.spans as f64),
        );
        out.layer(
            "service.run_self_ms",
            ratio(t("service.run").self_ns / 1e6, traced_runs as f64),
        );
        out.layer(
            "sim.sweeps_shared_per_request",
            ratio(counters.get(Counter::SweepsShared), offered),
        );
        out.layer(
            "service.events_per_request",
            ratio(counters.get(Counter::EventsProcessed), offered),
        );
        out.layer(
            "service.idle_skipped_s",
            ratio(counters.get(Counter::IdleSkipped), traced_runs as f64),
        );

        // Outcome tallies and simulated latency, pooled over one pass.
        let reports = &reference;
        let sum = |f: fn(&ServiceReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
        let admitted = sum(|r| r.admitted);
        out.layer("service.admitted", admitted);
        out.layer(
            "service.shed",
            sum(|r| r.shed_at_admission + r.shed_after_admission),
        );
        out.layer("service.degraded", sum(|r| r.degraded));
        out.layer("service.timed_out", sum(|r| r.timed_out));
        out.layer(
            "service.breaker_trips",
            pass_counters.get(Counter::BreakerTrips),
        );
        out.layer("service.queue_depth_peak", queue_peak);
        let records = reports.iter().flat_map(|r| &r.records);
        let mut sim: Vec<f64> = records
            .clone()
            .filter_map(|r| sim_latency(&r.outcome))
            .collect();
        sim.sort_by(f64::total_cmp);
        out.layer(
            "service.sim_latency_p99_s",
            if sim.is_empty() {
                0.0
            } else {
                nearest_rank(&sim, 99.0)
            },
        );
        let correct_clean = records
            .clone()
            .filter(|r| matches!(r.outcome, RequestOutcome::Completed { correct: true, .. }))
            .count() as f64;
        let silent = records
            .clone()
            .filter(|r| {
                matches!(
                    r.outcome,
                    RequestOutcome::Completed {
                        label: Some(_),
                        correct: false,
                        ..
                    }
                )
            })
            .count() as f64;
        let makespan: f64 = reports.iter().map(|r| r.makespan_s.max(1.0)).sum();
        out.layer(
            "service.goodput_per_min",
            ratio(correct_clean * 60.0, makespan),
        );
        out.layer(
            "detector.label_accuracy",
            ratio(correct_clean, sum(|r| r.completed)),
        );
        out.layer("detector.silent_mislabel_rate", ratio(silent, admitted));
        out.layer(
            "detector.degraded_rate",
            ratio(sum(|r| r.degraded), admitted),
        );

        // A region the service's size, built, snapshotted and the snapshot
        // dropped from outside: every service run builds one like it inside
        // the timed run, and every executed request takes one snapshot and
        // drops it after its `service-request` span has closed.
        let mut rng = rand::SeedableRng::seed_from_u64(first.seed);
        let build_start = Instant::now();
        let region = build_region(
            ctx.scale.serve_servers,
            ctx.scale.serve_vms_per_server,
            &mut rng,
        )?;
        out.layer("sim.region_build_s", build_start.elapsed().as_secs_f64());
        let (snaps, drops): (Vec<f64>, Vec<f64>) = (0..5)
            .map(|_| {
                let start = Instant::now();
                let copy = std::hint::black_box(region.snapshot());
                let copied = Instant::now();
                drop(copy);
                (
                    copied.duration_since(start).as_secs_f64(),
                    copied.elapsed().as_secs_f64(),
                )
            })
            .unzip();
        out.layer("sim.region_snapshot_ms", median_ms(&snaps));
        out.layer("sim.region_snapshot_drop_ms", median_ms(&drops));
    }
    Ok(out)
}
