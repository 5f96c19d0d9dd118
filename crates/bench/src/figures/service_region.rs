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
use bolt::{
    run_service, BoltError, Counter, FitCache, Parallelism, RegionConfig, RunCtx, ServiceConfig,
};
use bolt_sim::StormConfig;

use crate::{Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let (server_points, requests) = scale.pick(([250, 1000, 2000], 40), ([1000, 2000, 4000], 120));

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
    let mut out = Output::default();
    for servers in server_points {
        let region = RegionConfig {
            servers,
            ..RegionConfig::default()
        };
        let config = ServiceConfig {
            requests,
            storm: StormConfig::with_intensity(0.4),
            ..ServiceConfig::for_region(&region)
        };
        let (report, point_log) = run_service(&config, &RunCtx::new(&cache, true))?;
        out.checks.push((
            format!("{servers} servers: every admitted request ends in exactly one outcome"),
            report.balanced(),
        ));

        // Contract 1 — co-arriving duplicates share sweeps. The oracle
        // suite's region draw checks that sharing moves no report byte.
        let shared = point_log.counter_total(Counter::SweepsShared);
        out.checks.push((
            format!("{servers} servers: {shared} sweeps shared"),
            shared > 0,
        ));

        // Contract 2 — lane fan-out is byte-invisible, including the
        // sweeps-shared counter. The serial twin re-runs against the now
        // warm fit cache so both logs carry the same fit-cache events.
        let (report_s, log_s) = run_service(&config, &RunCtx::new(&cache, true))?;
        let threaded = ServiceConfig {
            parallelism: Parallelism::Threads(3),
            ..config
        };
        let (report_t, log_t) = run_service(&threaded, &RunCtx::new(&cache, true))?;
        out.checks.push((
            format!("{servers} servers: serial and Threads(3) lanes agree on every report and telemetry byte"),
            report == report_s && report == report_t && log_s.normalized() == log_t.normalized(),
        ));

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
        out.telemetry.extend(point_log.into_events());
    }
    out.tables.push((
        "service_region".into(),
        "a region-scale trace is served with cost proportional to requests, sweeps shared across hunts, byte-identical at any thread count",
        table,
    ));
    Ok(out)
}
