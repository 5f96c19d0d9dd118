//! Fig. 10: sensitivity of detection accuracy to (a) the profiling
//! interval, (b) the adversarial VM's size, and (c) the number of
//! profiling benchmarks.
//!
//! Paper: accuracy collapses for intervals beyond ~30 s (half the victims
//! misidentified at 5 minutes); adversaries below 4 vCPUs cannot generate
//! enough contention; one benchmark is insufficient while more than 3 have
//! diminishing returns.

use bolt::parallel::Parallelism;
use bolt::report::{pct, Table};
use bolt::sensitivity::{
    adversary_size_sweep, benchmark_count_sweep, profiling_interval_sweep, SweepPoint,
};
use bolt::{BoltError, FitCache, RunCtx};

use crate::{experiment, Output, Scale};

/// One sweep as a `parameter | paper | measured accuracy` table.
fn sweep_table(parameter: &str, paper: &[&str], points: &[SweepPoint]) -> Table {
    let mut table = Table::new(vec![parameter, "paper", "measured accuracy"]);
    for (i, p) in points.iter().enumerate() {
        table.row(vec![
            format!("{:.0}", p.parameter),
            paper.get(i).copied().unwrap_or("-").to_string(),
            pct(p.accuracy),
        ]);
    }
    table
}

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let mut out = Output::default();
    // One cache across all three sweeps: every point that shares training
    // inputs (all of fig10b/fig10c, and fig10a's phased scenes) reuses the
    // first point's trained recommender.
    let cache = FitCache::new();
    let base = experiment(scale.pick((10, 14), (24, 36)));

    // (a) profiling interval, against a victim switching jobs (~60 s).
    let intervals = [5.0, 20.0, 60.0, 120.0, 300.0];
    let (points, interval_log) = profiling_interval_sweep(
        &intervals,
        60.0,
        900.0,
        0xF16A,
        Parallelism::Auto,
        &RunCtx::new(&cache, true),
    )?;
    out.telemetry.extend(interval_log.into_events());
    out.tables.push((
        "fig10a_profiling_interval".into(),
        "accuracy drops rapidly beyond 30 s; ~50% at 5-minute intervals",
        sweep_table(
            "interval (s)",
            &["~90%", "~88%", "~75%", "~65%", "~50%"],
            &points,
        ),
    ));
    let short = points.first().map(|p| p.accuracy).unwrap_or(0.0);
    let long = points.last().map(|p| p.accuracy).unwrap_or(0.0);
    out.checks.push((
        format!(
            "interval shape: {} at {}s exceeds {} at {}s by 15 points",
            pct(short),
            intervals[0],
            pct(long),
            intervals[4],
        ),
        short > long + 0.15,
    ));

    // (b) adversarial VM size.
    let sizes = [1u32, 2, 4, 8];
    let (points, size_log) = adversary_size_sweep(&base, &sizes, &RunCtx::new(&cache, true))?;
    out.telemetry.extend(size_log.into_events());
    out.tables.push((
        "fig10b_adversary_size".into(),
        "below 4 vCPUs the adversary cannot create enough contention",
        sweep_table(
            "adversary vCPUs",
            &["~35%", "~60%", "~87%", "~90%"],
            &points,
        ),
    ));
    let accuracies: Vec<String> = points.iter().map(|p| pct(p.accuracy)).collect();
    out.checks.push((
        format!(
            "adversary-size accuracy {} never falls as vCPUs grow",
            accuracies.join(" -> ")
        ),
        points.windows(2).all(|w| w[0].accuracy <= w[1].accuracy),
    ));

    // (c) number of profiling benchmarks.
    let counts = [1usize, 2, 3, 5, 8];
    let (points, count_log) = benchmark_count_sweep(&base, &counts, &RunCtx::new(&cache, true))?;
    out.telemetry.extend(count_log.into_events());
    out.tables.push((
        "fig10c_benchmark_count".into(),
        "one benchmark is insufficient; beyond 3 the returns diminish",
        sweep_table(
            "benchmarks",
            &["~55%", "~87%", "~89%", "~90%", "~90%"],
            &points,
        ),
    ));
    Ok(out)
}
