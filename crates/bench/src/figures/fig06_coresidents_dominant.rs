//! Fig. 6: detection accuracy (a) as a function of the number of
//! co-scheduled applications and (b) by the victim's dominant resource.
//!
//! Paper: accuracy exceeds 95% for 1–2 co-residents and falls to 67% at
//! 5; L1-i-, memory-bandwidth-, network- and disk-heavy workloads are the
//! easiest to detect, while L2 pressure is a poor indicator.

use bolt::experiment::run_experiment;
use bolt::report::{pct, Table};
use bolt::{BoltError, RunCtx};
use bolt_sim::LeastLoaded;

use crate::{experiment, Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    // Denser packing than Table 1's run so 3-5 co-resident hosts exist.
    let config = experiment(scale.pick((16, 44), (40, 108)));
    let results = run_experiment(&config, &LeastLoaded, &RunCtx::new(false))?.0;

    // (a) accuracy vs number of co-residents. The x-axis counts victim
    // VMs on the server *including the hunted victim* ("VMs on server",
    // the `ExperimentRecord::co_residents` convention), matching the
    // paper's "number of co-scheduled applications": rows start at 1 and
    // paper[n - 1] is the figure's value at x = n.
    let rows = results.accuracy_by_co_residents();
    let mut by_count = Table::new(vec!["co-residents", "paper", "measured", "samples"]);
    let paper = ["95%+", "95%+", "~78%", "~82%", "~67%"];
    for &(n, acc, samples) in &rows {
        let p = paper.get(n - 1).copied().unwrap_or("-");
        by_count.row(vec![
            n.to_string(),
            p.to_string(),
            pct(acc),
            samples.to_string(),
        ]);
    }
    let mut out = Output::default();
    out.tables.push((
        "fig06a_coresidents".into(),
        "accuracy decreases with co-residents: >95% at 1-2, 67% at 5",
        by_count,
    ));

    // (b) accuracy by dominant resource.
    let mut by_dom = Table::new(vec!["dominant resource", "measured accuracy", "samples"]);
    for (r, acc, samples) in results.accuracy_by_dominant() {
        by_dom.row(vec![r.to_string(), pct(acc), samples.to_string()]);
    }
    out.tables.push((
        "fig06b_dominant_resource".into(),
        "L1-i/MemBw/NetBw/DiskCap-dominant apps are easiest to detect",
        by_dom,
    ));

    // Shape check: the scorecard calls this row partial — the decline
    // holds end to end, not monotonically at every count.
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        out.checks.push((
            format!(
                "1 co-resident {} >= {} co-residents {} (monotone-ish decline)",
                pct(first.1),
                last.0,
                pct(last.1),
            ),
            first.1 >= last.1,
        ));
    }
    Ok(out)
}
