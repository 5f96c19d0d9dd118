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
use bolt::{BoltError, RunCtx};
use bolt_sim::LeastLoaded;

use crate::{experiment, Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let off = experiment(scale.pick((20, 54), (40, 108)));
    let on = ExperimentConfig {
        mrc_channel: true,
        ..off
    };

    let mut table = Table::new(vec![
        "configuration",
        "label accuracy",
        "multi-tenant accuracy",
        "mrc tie-breaks",
    ]);
    let mut run = |name: &str, config: &ExperimentConfig| -> Result<(f64, f64), BoltError> {
        let (results, log) = run_experiment(config, &LeastLoaded, &RunCtx::new(true))?;
        let multi = results.multi_tenant_label_accuracy();
        table.row(vec![
            name.to_string(),
            pct(results.label_accuracy()),
            multi.map(pct).unwrap_or_else(|| "-".into()),
            log.counter_total(Counter::MrcTieBreaks).to_string(),
        ]);
        Ok((results.label_accuracy(), multi.unwrap_or(0.0)))
    };
    let (off_all, off_multi) = run("mrc channel off (baseline)", &off)?;
    let (on_all, on_multi) = run("mrc channel on", &on)?;

    let mut out = Output::default();
    out.tables.push((
        "table1_mrc_ablation".into(),
        "the MRC channel breaks multi-tenant decomposition ties; accuracy must not regress",
        table,
    ));
    out.checks.push((
        format!(
            "label accuracy {} with the channel on > {} with it off",
            pct(on_all),
            pct(off_all),
        ),
        on_all > off_all,
    ));
    out.checks.push((
        format!(
            "multi-tenant delta: {:+.1} points, aggregate delta: {:+.1} points; the multi-tenant delta is positive",
            (on_multi - off_multi) * 100.0,
            (on_all - off_all) * 100.0,
        ),
        on_multi > off_multi,
    ));
    Ok(out)
}
