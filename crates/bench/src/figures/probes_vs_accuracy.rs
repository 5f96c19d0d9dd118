//! The probes-vs-accuracy frontier of the anytime detector: the
//! controlled experiment with the fixed-shape window (baseline) against
//! the iterative-deepening window at a sweep of confidence thresholds.
//!
//! The anytime engine's claim (EXPERIMENTS.md) is that most detections
//! never needed the fixed window's full two-sweep budget: ordering
//! probes by expected information gain and stopping at a stable,
//! above-threshold verdict should cut the median probes-per-hunt by
//! well over 2x while holding Table-1 accuracy. The baseline row must
//! stay byte-identical to the shipped Table 1 numbers — the anytime
//! flag off means the fixed pipeline runs untouched.

use std::collections::BTreeMap;

use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::report::{pct, Table};
use bolt::telemetry::{Counter, TelemetryEvent, TelemetryLog};
use bolt::{BoltError, FitCache, RunCtx};
use bolt_sim::LeastLoaded;

use crate::{experiment, Output, Scale};

/// Per-hunt probe-sample totals (unit 0 is the training/fit unit, not a
/// hunt), sorted ascending for the median.
fn probes_per_hunt(log: &TelemetryLog) -> Vec<u64> {
    let mut per_unit: BTreeMap<usize, u64> = BTreeMap::new();
    for e in log.events() {
        if let TelemetryEvent::Count {
            counter: Counter::ProbeSamples,
            unit,
            delta,
            ..
        } = e
        {
            if *unit > 0 {
                *per_unit.entry(*unit).or_default() += delta;
            }
        }
    }
    let mut counts: Vec<u64> = per_unit.into_values().collect();
    counts.sort_unstable();
    counts
}

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let base = experiment(scale.pick((16, 40), (40, 108)));
    let mut table = Table::new(vec![
        "configuration",
        "label accuracy",
        "characteristics accuracy",
        "median probes/hunt",
        "mean probes/hunt",
        "probes saved",
    ]);

    // The anytime flag only changes detection, never training, so every
    // variant reuses the baseline's trained recommender through one cache.
    let cache = FitCache::new();
    let mut run = |name: &str, config: &ExperimentConfig| -> Result<(f64, u64), BoltError> {
        let (results, log) = run_experiment(config, &LeastLoaded, &RunCtx::new(&cache, true))?;
        let counts = probes_per_hunt(&log);
        let median = counts.get(counts.len() / 2).copied().unwrap_or(0);
        let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
        table.row(vec![
            name.to_string(),
            pct(results.label_accuracy()),
            pct(results.characteristics_accuracy()),
            median.to_string(),
            format!("{mean:.1}"),
            log.counter_total(Counter::ProbesSaved).to_string(),
        ]);
        Ok((results.label_accuracy(), median))
    };

    let (base_acc, base_median) = run("fixed window (baseline)", &base)?;
    let mut at_default = (0.0, 0);
    for threshold in [0.5, 0.7, 0.9] {
        let mut config = ExperimentConfig {
            anytime: true,
            ..base
        };
        config.detector.confidence_threshold = threshold;
        let point = run(&format!("anytime, threshold {threshold}"), &config)?;
        if threshold == 0.7 {
            at_default = point;
        }
    }

    let mut out = Output::default();
    out.tables.push((
        "probes_vs_accuracy".into(),
        "anytime deepening cuts median probes-per-hunt >=2x at equal Table-1 accuracy",
        table,
    ));

    let (any_acc, any_median) = at_default;
    let speedup = base_median as f64 / (any_median.max(1)) as f64;
    let acc_delta = (any_acc - base_acc) * 100.0;
    out.checks.push((
        format!(
            "median probes {base_median} -> {any_median} ({speedup:.1}x, at least 2x), label accuracy {acc_delta:+.1} points (above -1): the anytime window pays for itself"
        ),
        speedup >= 2.0 && acc_delta > -1.0,
    ));
    Ok(out)
}
