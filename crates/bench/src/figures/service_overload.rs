//! Service overload: goodput, tail latency, and honest degradation versus
//! offered load.
//!
//! The streaming service runs the same offered-load trace at increasing
//! arrival rates, with request storms and churn chaos switched on. The
//! claim under reproduction is the overload contract, not a paper figure:
//! past saturation the admission controller sheds loudly instead of
//! queueing unboundedly, so p99 latency stays bounded by the deadline,
//! goodput plateaus near capacity instead of collapsing, and the silent
//! mislabels chaos adds stay at or below the announced degradation rate
//! at every load point.

use bolt::report::{pct, Table};
use bolt::{run_service, BoltError, RunCtx, ServiceConfig};
use bolt_sim::{ChaosConfig, StormConfig};

use crate::{Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    // Reduced is small enough to finish in seconds, large enough that
    // shed and timeout counts are not single-digit noise at the high rates.
    let (servers, requests) = scale.pick((4, 120), (8, 400));
    let base = ServiceConfig {
        servers,
        requests,
        ..ServiceConfig::default()
    };
    // Capacity is workers / nominal_service_s ≈ 3/min; the sweep crosses
    // it and keeps going to 3× saturation.
    let rates = [1.0, 2.0, 3.0, 4.5, 6.0, 9.0];

    let mut table = Table::new(vec![
        "rate/min",
        "offered",
        "admitted",
        "completed",
        "degraded",
        "shed",
        "timed out",
        "goodput/min",
        "p50 s",
        "p99 s",
        "degraded rate",
        "added silent",
    ]);
    let mut out = Output::default();
    let mut goodputs = Vec::new();
    let mut worst_p99 = 0.0_f64;
    let mut balanced = true;
    let mut honest = true;
    for rate in rates {
        let stormy = ServiceConfig {
            arrival_rate_per_min: rate,
            chaos: ChaosConfig::with_intensity(0.3),
            storm: StormConfig::with_intensity(0.5),
            ..base
        };
        let calm = ServiceConfig {
            chaos: ChaosConfig::none(),
            storm: StormConfig::none(),
            ..stormy
        };
        let (report, point_log) = run_service(&stormy, &RunCtx::new(true))?;
        let calm_report = run_service(&calm, &RunCtx::new(true))?.0;
        balanced &= report.balanced();

        // The calm twin's silent rate is the detector's intrinsic error
        // floor; the honesty contract bounds what chaos *adds* on top.
        let added_silent =
            (report.silent_mislabel_rate - calm_report.silent_mislabel_rate).max(0.0);
        honest &= added_silent <= report.degraded_rate + 1e-9;
        let latency = report.latency.unwrap_or_default();
        worst_p99 = worst_p99.max(latency.p99);
        goodputs.push(report.goodput_per_min);
        table.row(vec![
            format!("{rate:.1}"),
            report.offered.to_string(),
            report.admitted.to_string(),
            report.completed.to_string(),
            report.degraded.to_string(),
            (report.shed_at_admission + report.shed_after_admission).to_string(),
            report.timed_out.to_string(),
            format!("{:.2}", report.goodput_per_min),
            format!("{:.1}", latency.p50),
            format!("{:.1}", latency.p99),
            pct(report.degraded_rate),
            pct(added_silent),
        ]);
        out.telemetry.extend(point_log.into_events());
    }
    out.tables.push((
        "service_overload".into(),
        "past saturation the service sheds loudly: p99 stays bounded, goodput plateaus, failures are announced",
        table,
    ));

    // Overload contract, checked on the measured rows:
    //  0. Every admitted request terminates in exactly one outcome.
    out.checks.push((
        "every admitted request ends completed, degraded, shed or timed out at every rate".into(),
        balanced,
    ));
    //  1. p99 never exceeds the deadline — admitted work is either finished
    //     in time or honestly timed out, never silently queued past it.
    out.checks.push((
        format!(
            "p99 stays <= the {:.0}s deadline at every rate (worst {worst_p99:.1}s)",
            base.deadline_s,
        ),
        worst_p99 <= base.deadline_s + 1e-9,
    ));
    //  2. Goodput plateaus: at 3× saturation the service still delivers at
    //     least half its peak goodput instead of collapsing under the
    //     unshed backlog.
    let peak = goodputs.iter().cloned().fold(0.0_f64, f64::max);
    let last = *goodputs.last().expect("nonempty sweep");
    out.checks.push((
        format!(
            "goodput at 3x saturation: {last:.2}/min plateaus at >= half the peak {peak:.2}/min"
        ),
        last >= 0.5 * peak,
    ));
    //  3. Honesty: chaos-added silent mislabels <= announced degradation at
    //     every load point.
    out.checks.push((
        "added silent mislabels <= announced degradation at every rate".into(),
        honest,
    ));
    Ok(out)
}
