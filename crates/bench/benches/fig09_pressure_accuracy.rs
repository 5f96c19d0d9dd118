//! Fig. 9: detection accuracy as a function of the pressure victims place
//! in individual shared resources.
//!
//! Paper: very low and very high pressure carry the most detection value;
//! moderate pressure (the crowded middle of each resource's range) is
//! where classes overlap and accuracy dips.

use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::report::Table;
use bolt::{FitCache, RunCtx};
use bolt_bench::{emit, full_scale};
use bolt_sim::LeastLoaded;
use bolt_workloads::Resource;

fn main() {
    let config = if full_scale() {
        ExperimentConfig {
            servers: 40,
            victims: 108,
            ..ExperimentConfig::default()
        }
    } else {
        ExperimentConfig {
            servers: 20,
            victims: 54,
            ..ExperimentConfig::default()
        }
    };
    eprintln!(
        "running the controlled experiment ({} victims)...",
        config.victims
    );
    let results = run_experiment(&config, &LeastLoaded, &RunCtx::new(&FitCache::new(), false))
        .expect("experiment runs")
        .0;

    let resources = [
        Resource::L1i,
        Resource::Llc,
        Resource::Cpu,
        Resource::MemCap,
        Resource::NetBw,
        Resource::DiskBw,
    ];
    let width = 25.0;
    let mut table = Table::new(vec!["resource", "0-25%", "25-50%", "50-75%", "75-100%"]);
    for r in resources {
        let rows = results.accuracy_by_pressure(r, width);
        let mut cells = vec![r.to_string()];
        for bucket in 0..4 {
            let center = bucket as f64 * width + width / 2.0;
            let cell = rows
                .iter()
                .find(|&&(c, _, _)| (c - center).abs() < 1e-9)
                .map(|&(_, acc, n)| format!("{:.0}% (n={n})", acc * 100.0))
                .unwrap_or_else(|| "-".to_string());
            cells.push(cell);
        }
        table.row(cells);
    }
    emit(
        "fig09_pressure_accuracy",
        "very low and very high pressure detect best; the moderate middle dips",
        &table,
    );
}
