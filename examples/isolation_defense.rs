//! §6: how far today's isolation mechanisms go toward defeating
//! interference-based detection (Fig. 14), and what the secure
//! configuration costs.
//!
//! Run with: `cargo run --release --example isolation_defense`
//! (release strongly recommended — this runs 21 full detection
//! experiments).

use bolt::experiment::ExperimentConfig;
use bolt::isolation_study::run_isolation_study;
use bolt::report::{pct, Table};
use bolt::RunCtx;
use bolt_sim::OsSetting;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reduced-scale sweep so the example finishes quickly; the bench
    // `fig14_isolation` runs the full 40-server version.
    let base = ExperimentConfig {
        servers: 10,
        victims: 20,
        ..ExperimentConfig::default()
    };
    eprintln!("running 21 detection experiments (3 settings x 7 stacks)...");
    let study = run_isolation_study(&base, &RunCtx::new(false))?.0;

    let mut table = Table::new(vec!["isolation stack", "baremetal", "containers", "VMs"]);
    let stacks = [
        "none",
        "thread pinning",
        "+net bw partitioning",
        "+mem bw partitioning",
        "+cache partitioning",
        "+core isolation",
    ];
    for (i, stack) in stacks.iter().enumerate() {
        let row: Vec<String> = std::iter::once(stack.to_string())
            .chain(OsSetting::ALL.iter().map(|&s| {
                study
                    .accuracy(s, i)
                    .map(pct)
                    .unwrap_or_else(|| "-".to_string())
            }))
            .collect();
        table.row(row);
    }
    println!("{}", table.render());

    println!("core isolation alone (no other mechanisms):");
    for (setting, acc) in &study.core_isolation_only {
        println!("  {:<18} {}", setting.name(), pct(*acc));
    }
    let core_cell = study
        .cells
        .iter()
        .find(|c| c.stack == "+core isolation")
        .expect("core isolation cell exists");
    println!(
        "\nthe secure configuration costs {:.0}% execution time or {:.0}% utilization",
        (core_cell.performance_penalty - 1.0) * 100.0,
        core_cell.utilization_penalty * 100.0
    );
    println!("— and disk-heavy workloads remain detectable: no mechanism isolates disk.");
    Ok(())
}
