//! Ablation studies for the design decisions DESIGN.md calls out:
//!
//! * **Weighted vs plain Pearson** in the content-based stage (Eq. 1's
//!   singular-value weights vs uniform weights);
//! * **Shutter profiling on vs off** for no-shared-core disentangling;
//! * **Mixture decomposition vs plain full-signal matching** for
//!   multi-tenant hosts;
//! * **Channel-matched vs raw training** (fitting the recommender on
//!   profiles observed through the isolation channel vs intrinsic ones).

use bolt::detector::DetectorConfig;
use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::report::{pct, Table};
use bolt::{BoltError, RunCtx};
use bolt_probes::{ProfilerConfig, RampConfig};
use bolt_recommender::RecommenderConfig;
use bolt_sim::LeastLoaded;

use crate::{experiment, Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let base = experiment(scale.pick((12, 28), (24, 58)));
    let detector = |detector: DetectorConfig| ExperimentConfig { detector, ..base };
    let recommender = |recommender: RecommenderConfig| ExperimentConfig {
        recommender,
        ..base
    };
    let variants = [
        ("default (all mechanisms on)", base),
        // Single-component matching instead of mixture decomposition.
        (
            "mixture decomposition off",
            detector(DetectorConfig {
                enable_decomposition: false,
                ..DetectorConfig::default()
            }),
        ),
        // No temporal-differencing verdict.
        (
            "temporal differencing off",
            detector(DetectorConfig {
                enable_differencing: false,
                ..DetectorConfig::default()
            }),
        ),
        // Plain Pearson instead of Eq. 1's weighted Pearson (affects the
        // full-signal fallback path).
        (
            "plain pearson (unweighted)",
            recommender(RecommenderConfig {
                weighted: false,
                ..RecommenderConfig::default()
            }),
        ),
        // Shutter profiling disabled.
        (
            "shutter profiling off",
            detector(DetectorConfig {
                enable_shutter: false,
                ..DetectorConfig::default()
            }),
        ),
        // Coarse ramp (no fine knee localization).
        (
            "coarse probe ramp (step 15)",
            detector(DetectorConfig {
                profiler: ProfilerConfig {
                    ramp: RampConfig {
                        step: 15.0,
                        ..RampConfig::default()
                    },
                    ..ProfilerConfig::default()
                },
                ..DetectorConfig::default()
            }),
        ),
        // No-information noise floor: treat every dimension as fully reliable.
        (
            "no noise-floor discounting",
            recommender(RecommenderConfig {
                noise_floor: 0.0,
                ..RecommenderConfig::default()
            }),
        ),
    ];

    let mut table = Table::new(vec!["configuration", "label accuracy", "characteristics"]);
    let mut accuracy = Vec::new();
    for (name, config) in &variants {
        let results =
            run_experiment(config, &LeastLoaded, &RunCtx::new(false))?.0;
        table.row(vec![
            name.to_string(),
            pct(results.label_accuracy()),
            pct(results.characteristics_accuracy()),
        ]);
        accuracy.push(results.label_accuracy());
    }
    let mut out = Output::default();
    out.tables.push((
        "ablations".into(),
        "each design decision contributes; removing any should not help",
        table,
    ));
    out.checks.push((
        format!(
            "label accuracy {} with all mechanisms on > {} with mixture decomposition off",
            pct(accuracy[0]),
            pct(accuracy[1]),
        ),
        accuracy[0] > accuracy[1],
    ));
    Ok(out)
}
