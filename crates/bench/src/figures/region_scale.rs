//! Region-scale scaling curve: per-probe neighbor-query work versus
//! region size.
//!
//! Not a paper figure — this pins the storage-layer contract behind the
//! region-scale work (see `DESIGN.md` § "Region-scale storage"): with the
//! per-server residency index, one interference probe visits only the
//! co-residents on that host, so `visits/probe` stays flat as the region
//! grows from tens to thousands of hosts. Under the old full-arena scan
//! it grew linearly with total VMs. The wall-clock side of the same claim
//! is timed by the `crit_region_scale` criterion bench.
//!
//! Every probe below is a first touch (distinct tenant × time pairs), so
//! the numbers measure the honest uncached walk, not aggregate-cache
//! hits.

use bolt::region::scaling_curve;
use bolt::report::Table;
use bolt::BoltError;

use crate::{Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    // Reduced is small enough for the default run; still two orders of
    // magnitude, which is what the flatness claim needs.
    let sizes = scale.pick([10, 100, 1000], [100, 1000, 10_000]);
    let points = scaling_curve(&sizes, 10, 0xB017)?;

    let mut table = Table::new(vec!["servers", "vms", "probes", "visits_per_probe"]);
    for p in &points {
        table.row(vec![
            p.servers.to_string(),
            p.vms.to_string(),
            p.probes.to_string(),
            format!("{:.2}", p.visits_per_probe),
        ]);
    }
    let mut out = Output::default();
    out.tables.push((
        "region_scale".into(),
        "per-probe neighbor-query cost is independent of region size",
        table,
    ));

    let first = points.first().expect("nonempty curve");
    let last = points.last().expect("nonempty curve");
    out.checks.push((
        format!(
            "{}x servers -> visits/probe {:.2} vs {:.2} is flat",
            last.servers / first.servers.max(1),
            first.visits_per_probe,
            last.visits_per_probe,
        ),
        (last.visits_per_probe - first.visits_per_probe).abs() < 1e-9,
    ));
    Ok(out)
}
