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
use bolt::{FitCache, RunCtx};
use bolt_bench::{emit, full_scale};
use bolt_recommender::RecommenderConfig;
use bolt_sim::LeastLoaded;

fn base() -> ExperimentConfig {
    if full_scale() {
        ExperimentConfig {
            servers: 24,
            victims: 58,
            ..ExperimentConfig::default()
        }
    } else {
        ExperimentConfig {
            servers: 12,
            victims: 28,
            ..ExperimentConfig::default()
        }
    }
}

fn main() {
    let mut table = Table::new(vec!["configuration", "label accuracy", "characteristics"]);

    let run = |name: &str, config: &ExperimentConfig, table: &mut Table| {
        eprintln!("running ablation: {name}...");
        let results = run_experiment(config, &LeastLoaded, &RunCtx::new(&FitCache::new(), false))
            .expect("experiment runs")
            .0;
        table.row(vec![
            name.to_string(),
            pct(results.label_accuracy()),
            pct(results.characteristics_accuracy()),
        ]);
        results.label_accuracy()
    };

    let default = run("default (all mechanisms on)", &base(), &mut table);

    // Single-component matching instead of mixture decomposition.
    let no_decomp = run(
        "mixture decomposition off",
        &ExperimentConfig {
            detector: DetectorConfig {
                enable_decomposition: false,
                ..DetectorConfig::default()
            },
            ..base()
        },
        &mut table,
    );

    // No temporal-differencing verdict.
    let no_diff = run(
        "temporal differencing off",
        &ExperimentConfig {
            detector: DetectorConfig {
                enable_differencing: false,
                ..DetectorConfig::default()
            },
            ..base()
        },
        &mut table,
    );

    // Plain Pearson instead of Eq. 1's weighted Pearson (affects the
    // full-signal fallback path).
    let plain = run(
        "plain pearson (unweighted)",
        &ExperimentConfig {
            recommender: RecommenderConfig {
                weighted: false,
                ..RecommenderConfig::default()
            },
            ..base()
        },
        &mut table,
    );

    // Shutter profiling disabled.
    let no_shutter = run(
        "shutter profiling off",
        &ExperimentConfig {
            detector: DetectorConfig {
                enable_shutter: false,
                ..DetectorConfig::default()
            },
            ..base()
        },
        &mut table,
    );

    // Coarse ramp (no fine knee localization).
    let coarse = run(
        "coarse probe ramp (step 15)",
        &ExperimentConfig {
            detector: DetectorConfig {
                profiler: bolt_probes::ProfilerConfig {
                    ramp: bolt_probes::RampConfig {
                        step: 15.0,
                        ..bolt_probes::RampConfig::default()
                    },
                    ..bolt_probes::ProfilerConfig::default()
                },
                ..DetectorConfig::default()
            },
            ..base()
        },
        &mut table,
    );

    // No-information noise floor: treat every dimension as fully reliable.
    let no_floor = run(
        "no noise-floor discounting",
        &ExperimentConfig {
            recommender: RecommenderConfig {
                noise_floor: 0.0,
                ..RecommenderConfig::default()
            },
            ..base()
        },
        &mut table,
    );

    emit(
        "ablations",
        "each design decision contributes; removing any should not help",
        &table,
    );
    println!(
        "default {} vs no-decomposition {} / no-differencing {} / plain-pearson {} / no-shutter {} / coarse-ramp {} / no-floor {}",
        pct(default),
        pct(no_decomp),
        pct(no_diff),
        pct(plain),
        pct(no_shutter),
        pct(coarse),
        pct(no_floor)
    );
}
