//! Fig. 4: coverage of the resource-characteristics space by the
//! 120-application training set.
//!
//! Paper: the training set covers the majority of the resource usage
//! space in the CPU × Memory and Network × Storage planes; growing it
//! further did not improve accuracy.

use bolt::report::Table;
use bolt::BoltError;
use bolt_workloads::training::{coverage, training_set};
use bolt_workloads::Resource;

use crate::{Output, Scale};

pub fn run(_scale: Scale) -> Result<Output, BoltError> {
    let set = training_set(7);
    let grid = 5;

    let planes = [
        ("cpu_x_membw", Resource::Cpu, Resource::MemBw),
        ("netbw_x_diskbw", Resource::NetBw, Resource::DiskBw),
    ];

    let mut table = Table::new(vec!["plane", "grid", "cells covered", "coverage"]);
    for (name, x, y) in planes {
        let c = coverage(&set, x, y, grid);
        table.row(vec![
            name.to_string(),
            format!("{grid}x{grid}"),
            format!("{:.0}/{}", c * (grid * grid) as f64, grid * grid),
            format!("{:.0}%", c * 100.0),
        ]);
    }
    let mut out = Output::default();
    out.tables.push((
        "fig04_training_coverage".into(),
        "training set covers the majority of the resource usage space",
        table,
    ));

    // The scatter itself, for plotting.
    let mut scatter = Table::new(vec!["label", "cpu", "membw", "netbw", "diskbw"]);
    for p in &set {
        let b = p.base_pressure();
        scatter.row(vec![
            p.label().to_string(),
            format!("{:.1}", b[Resource::Cpu]),
            format!("{:.1}", b[Resource::MemBw]),
            format!("{:.1}", b[Resource::NetBw]),
            format!("{:.1}", b[Resource::DiskBw]),
        ]);
    }
    out.tables.push((
        "fig04_training_scatter".into(),
        "the training set's points in both planes, for plotting",
        scatter,
    ));
    Ok(out)
}
