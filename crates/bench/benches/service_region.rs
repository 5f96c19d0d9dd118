//! Region-scale service: the streaming detector serving a full region.
//!
//! The claim under reproduction is the region-scale contract of the
//! event-driven service, not a paper figure: a trace over thousands of
//! servers is served end-to-end with cost proportional to the number of
//! requests (the virtual clock jumps idle gaps instead of stepping
//! through them), co-arriving duplicate requests share batched probe
//! sweeps through the cross-hunt memo without changing a single verdict
//! byte, and the whole run — including the sweeps-shared counter — is
//! byte-identical between serial and threaded lane execution.

use bolt::report::Table;
use bolt::telemetry::telemetry_path_from_args;
use bolt::RunCtx;
use bolt::{
    run_service, Counter, FitCache, Parallelism, RegionConfig, ServiceConfig, TelemetryLog,
};
use bolt_bench::{emit, full_scale, write_telemetry};
use bolt_sim::StormConfig;

fn main() {
    let telemetry_path = telemetry_path_from_args(std::env::args().skip(1));
    let (server_points, requests): (&[usize], usize) = if full_scale() {
        (&[1000, 2000, 4000], 120)
    } else {
        (&[250, 1000, 2000], 40)
    };
    eprintln!(
        "serving {} requests against regions of {:?} servers...",
        requests, server_points
    );

    // One fit cache across every point: the training inputs never change,
    // so the recommender is fitted exactly once.
    let cache = FitCache::new();
    let mut table = Table::new(vec![
        "servers",
        "offered",
        "admitted",
        "completed",
        "degraded",
        "shed",
        "timed out",
        "goodput/min",
        "events",
        "idle skipped s",
        "sweeps shared",
    ]);
    let mut log = TelemetryLog::new();
    for &servers in server_points {
        let region = RegionConfig {
            servers,
            ..RegionConfig::default()
        };
        let config = ServiceConfig {
            requests,
            storm: StormConfig::with_intensity(0.4),
            ..ServiceConfig::for_region(&region)
        };
        let started = std::time::Instant::now();
        let (report, point_log) =
            run_service(&config, &RunCtx::new(&cache, true)).expect("region service runs");
        let wall = started.elapsed();
        assert!(report.balanced(), "count identity violated at {servers}");

        // Contract 1 — sweep sharing is byte-invisible: the same run
        // without the shared memo must produce the identical report.
        let unbatched = ServiceConfig {
            share_sweeps: false,
            ..config
        };
        let (plain_report, _) =
            run_service(&unbatched, &RunCtx::new(&cache, true)).expect("unbatched twin runs");
        assert_eq!(
            report, plain_report,
            "sweep sharing changed bytes at {servers} servers"
        );
        let shared = point_log.counter_total(Counter::SweepsShared);
        assert!(shared > 0, "no sweeps shared at {servers} servers");

        // Contract 2 — lane fan-out is byte-invisible, including the
        // sweeps-shared counter. The serial twin re-runs against the now
        // warm fit cache so both logs carry the same fit-cache events.
        let (report_s, log_s) =
            run_service(&config, &RunCtx::new(&cache, true)).expect("warm serial twin runs");
        let threaded = ServiceConfig {
            parallelism: Parallelism::Threads(3),
            ..config
        };
        let (report_t, log_t) =
            run_service(&threaded, &RunCtx::new(&cache, true)).expect("threaded twin runs");
        assert_eq!(report, report_s);
        assert_eq!(report, report_t, "threading changed bytes at {servers}");
        assert_eq!(
            log_s.normalized(),
            log_t.normalized(),
            "threading changed telemetry at {servers} servers"
        );

        eprintln!(
            "  {servers} servers: {} requests in {:.2}s wall, {} sweeps shared",
            report.offered,
            wall.as_secs_f64(),
            shared
        );
        table.row(vec![
            servers.to_string(),
            report.offered.to_string(),
            report.admitted.to_string(),
            report.completed.to_string(),
            report.degraded.to_string(),
            (report.shed_at_admission + report.shed_after_admission).to_string(),
            report.timed_out.to_string(),
            format!("{:.2}", report.goodput_per_min),
            point_log
                .counter_total(Counter::EventsProcessed)
                .to_string(),
            point_log.counter_total(Counter::IdleSkipped).to_string(),
            shared.to_string(),
        ]);
        log.extend(point_log.into_events());
    }
    emit(
        "service_region",
        "a region-scale trace is served with cost proportional to requests, sweeps shared across hunts, byte-identical at any thread count",
        &table,
    );

    write_telemetry(telemetry_path, &log);
}
