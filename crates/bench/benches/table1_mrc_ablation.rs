//! Table 1 ablation for the miss-rate-curve channel: the controlled
//! experiment with `mrc_channel` off (the paper baseline) vs on.
//!
//! The pressure-only decomposition hits a mixture-identifiability wall on
//! multi-tenant hosts (EXPERIMENTS.md): distinct pairs of training
//! profiles can sum to near-identical ten-dimensional signals. The cache
//! sweep adds a K-point curve that such ties rarely survive, so the win
//! should concentrate exactly where the wall is — multi-tenant label
//! accuracy — while the channel-off run stays byte-identical to the
//! shipped Table 1 baseline.

use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::report::{pct, Table};
use bolt::telemetry::Counter;
use bolt::{FitCache, RunCtx};
use bolt_bench::{emit, full_scale};
use bolt_sim::LeastLoaded;

fn base() -> ExperimentConfig {
    if full_scale() {
        ExperimentConfig::default() // 40 servers, 108 victims
    } else {
        ExperimentConfig {
            servers: 20,
            victims: 54,
            ..ExperimentConfig::default()
        }
    }
}

fn main() {
    let mut table = Table::new(vec![
        "configuration",
        "label accuracy",
        "multi-tenant accuracy",
        "mrc tie-breaks",
    ]);

    // The MRC channel only changes detection, not training, so the "on"
    // variant reuses the baseline's trained recommender through one cache.
    let cache = FitCache::new();
    let run = |name: &str, config: &ExperimentConfig, table: &mut Table| {
        eprintln!("running Table 1 variant: {name}...");
        let (results, log) =
            run_experiment(config, &LeastLoaded, &RunCtx::new(&cache, true)).expect("runs");
        let multi = results.multi_tenant_label_accuracy();
        table.row(vec![
            name.to_string(),
            pct(results.label_accuracy()),
            multi.map(pct).unwrap_or_else(|| "-".into()),
            log.counter_total(Counter::MrcTieBreaks).to_string(),
        ]);
        (results.label_accuracy(), multi.unwrap_or(0.0))
    };

    let (off_all, off_multi) = run("mrc channel off (baseline)", &base(), &mut table);
    let (on_all, on_multi) = run(
        "mrc channel on",
        &ExperimentConfig {
            mrc_channel: true,
            ..base()
        },
        &mut table,
    );

    emit(
        "table1_mrc_ablation",
        "the MRC channel breaks multi-tenant decomposition ties; accuracy must not regress",
        &table,
    );

    let multi_delta = (on_multi - off_multi) * 100.0;
    let all_delta = (on_all - off_all) * 100.0;
    println!(
        "multi-tenant delta: {multi_delta:+.1} points, aggregate delta: {all_delta:+.1} points — {}",
        if on_multi > off_multi {
            "the channel pays for itself"
        } else {
            "NO IMPROVEMENT (investigate the tie margin)"
        }
    );
}
