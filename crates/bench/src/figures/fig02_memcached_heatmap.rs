//! Fig. 2: probability that a co-scheduled application is memcached, as a
//! function of the pressure it places on resource pairs.
//!
//! Paper: very high L1-i plus high LLC pressure → memcached with high
//! probability; any disk traffic rules it out.

use bolt::fingerprint::{family_heatmap, population, FIG2_PAIRS};
use bolt::report::Table;
use bolt::telemetry::Telemetry;
use bolt::BoltError;
use bolt_workloads::Resource;

use crate::{Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let pop = population(scale.pick(600, 2000), 0xF162);
    let grid = 5;

    let mut out = Output::default();
    for (unit, (x, y)) in FIG2_PAIRS.into_iter().enumerate() {
        let mut telemetry = Telemetry::for_unit(unit);
        let map = family_heatmap(&pop, "memcached", x, y, grid, &mut telemetry);
        out.telemetry.merge(telemetry);
        let mut table = Table::new(vec![
            format!("{y} \\ {x}"),
            format!("{:.0}", map.center(0)),
            format!("{:.0}", map.center(1)),
            format!("{:.0}", map.center(2)),
            format!("{:.0}", map.center(3)),
            format!("{:.0}", map.center(4)),
        ]);
        for iy in (0..grid).rev() {
            let mut row = vec![format!("{:.0}", map.center(iy))];
            for ix in 0..grid {
                row.push(format!("{:.2}", map.at(ix, iy)));
            }
            table.row(row);
        }
        out.tables.push((
            format!("fig02_memcached_{x}_{y}"),
            "hot region at high L1-i x high LLC; zero everywhere disk is active",
            table,
        ));
    }

    // Headline checks: the high-L1i half of the map carries the memcached
    // mass (the LLC coordinate spreads with value size and load level, so
    // quadrants are compared in aggregate rather than single cells).
    let untraced = |x, y| family_heatmap(&pop, "memcached", x, y, grid, &mut Telemetry::disabled());
    let l1i_llc = untraced(FIG2_PAIRS[0].0, FIG2_PAIRS[0].1);
    let half = |lo: bool| -> f64 {
        let cols = if lo { 0..grid / 2 } else { grid / 2..grid };
        let mut sum = 0.0;
        let mut n = 0;
        for ix in cols {
            for iy in 0..grid {
                sum += l1i_llc.at(ix, iy);
                n += 1;
            }
        }
        sum / n as f64
    };
    let (hx, hy, hp) = l1i_llc.hottest();
    out.checks.push((
        format!(
            "hottest L1i x LLC cell: ({:.0}%, {:.0}%) with P={hp:.2}; high-L1i half mean {:.2} exceeds low half {:.2} by 0.1",
            l1i_llc.center(hx),
            l1i_llc.center(hy),
            half(false),
            half(true),
        ),
        half(false) > half(true) + 0.1,
    ));
    let disk = untraced(Resource::DiskBw, Resource::L2);
    out.checks.push((
        format!(
            "P(memcached | zero disk)={:.2} > P(memcached | heavy disk)={:.2}",
            disk.column_mean(0),
            disk.column_mean(grid - 1),
        ),
        disk.column_mean(0) > disk.column_mean(grid - 1),
    ));
    Ok(out)
}
