//! Fig. 10: sensitivity of detection accuracy to (a) the profiling
//! interval, (b) the adversarial VM's size, and (c) the number of
//! profiling benchmarks.
//!
//! Paper: accuracy collapses for intervals beyond ~30 s (half the victims
//! misidentified at 5 minutes); adversaries below 4 vCPUs cannot generate
//! enough contention; one benchmark is insufficient while more than 3 have
//! diminishing returns.

use bolt::experiment::ExperimentConfig;
use bolt::parallel::Parallelism;
use bolt::report::{pct, Table};
use bolt::sensitivity::{adversary_size_sweep, benchmark_count_sweep, profiling_interval_sweep};
use bolt::telemetry::{telemetry_path_from_args, TelemetryLog};
use bolt::{FitCache, RunCtx};
use bolt_bench::{emit, full_scale, write_telemetry};

fn main() {
    let telemetry_path = telemetry_path_from_args(std::env::args().skip(1));
    let mut log = TelemetryLog::new();
    // One cache across all three sweeps: every point that shares training
    // inputs (all of fig10b/fig10c, and fig10a's phased scenes) reuses the
    // first point's trained recommender.
    let cache = FitCache::new();
    let base = if full_scale() {
        ExperimentConfig {
            servers: 24,
            victims: 36,
            ..ExperimentConfig::default()
        }
    } else {
        ExperimentConfig {
            servers: 10,
            victims: 14,
            ..ExperimentConfig::default()
        }
    };

    // (a) profiling interval, against a victim switching jobs (~60 s).
    eprintln!("sweeping profiling intervals...");
    let intervals = [5.0, 20.0, 60.0, 120.0, 300.0];
    let (points, interval_log) = profiling_interval_sweep(
        &intervals,
        60.0,
        900.0,
        0xF16A,
        Parallelism::Auto,
        &RunCtx::new(&cache, true),
    )
    .expect("interval sweep runs");
    log.extend(interval_log.into_events());
    let mut a = Table::new(vec!["interval (s)", "paper", "measured accuracy"]);
    let paper_a = ["~90%", "~88%", "~75%", "~65%", "~50%"];
    for (i, p) in points.iter().enumerate() {
        a.row(vec![
            format!("{:.0}", p.parameter),
            paper_a.get(i).copied().unwrap_or("-").to_string(),
            pct(p.accuracy),
        ]);
    }
    emit(
        "fig10a_profiling_interval",
        "accuracy drops rapidly beyond 30 s; ~50% at 5-minute intervals",
        &a,
    );
    let short = points.first().map(|p| p.accuracy).unwrap_or(0.0);
    let long = points.last().map(|p| p.accuracy).unwrap_or(0.0);
    println!(
        "interval shape: {} at {}s vs {} at {}s — {}",
        pct(short),
        intervals[0],
        pct(long),
        intervals[4],
        if short > long + 0.15 {
            "shape holds"
        } else {
            "MISMATCH"
        }
    );

    // (b) adversarial VM size.
    eprintln!("sweeping adversarial VM sizes...");
    let sizes = [1u32, 2, 4, 8];
    let (points, size_log) =
        adversary_size_sweep(&base, &sizes, &RunCtx::new(&cache, true)).expect("size sweep runs");
    log.extend(size_log.into_events());
    let mut b = Table::new(vec!["adversary vCPUs", "paper", "measured accuracy"]);
    let paper_b = ["~35%", "~60%", "~87%", "~90%"];
    for (i, p) in points.iter().enumerate() {
        b.row(vec![
            format!("{:.0}", p.parameter),
            paper_b.get(i).copied().unwrap_or("-").to_string(),
            pct(p.accuracy),
        ]);
    }
    emit(
        "fig10b_adversary_size",
        "below 4 vCPUs the adversary cannot create enough contention",
        &b,
    );

    // (c) number of profiling benchmarks.
    eprintln!("sweeping benchmark counts...");
    let counts = [1usize, 2, 3, 5, 8];
    let (points, count_log) = benchmark_count_sweep(&base, &counts, &RunCtx::new(&cache, true))
        .expect("count sweep runs");
    log.extend(count_log.into_events());
    let mut c = Table::new(vec!["benchmarks", "paper", "measured accuracy"]);
    let paper_c = ["~55%", "~87%", "~89%", "~90%", "~90%"];
    for (i, p) in points.iter().enumerate() {
        c.row(vec![
            format!("{:.0}", p.parameter),
            paper_c.get(i).copied().unwrap_or("-").to_string(),
            pct(p.accuracy),
        ]);
    }
    emit(
        "fig10c_benchmark_count",
        "one benchmark is insufficient; beyond 3 the returns diminish",
        &c,
    );

    let stats = cache.stats();
    eprintln!(
        "fit cache: {} hits / {} misses ({:.0}% hit rate), training sets {} hits / {} misses",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.data_hits,
        stats.data_misses,
    );

    write_telemetry(telemetry_path, &log);
}
