//! Fig. 2: probability that a co-scheduled application is memcached, as a
//! function of the pressure it places on resource pairs.
//!
//! Paper: very high L1-i plus high LLC pressure → memcached with high
//! probability; any disk traffic rules it out.

use bolt::fingerprint::{family_heatmap, population, FIG2_PAIRS};
use bolt::report::Table;
use bolt::telemetry::{telemetry_path_from_args, Telemetry, TelemetryLog};
use bolt_bench::{emit, full_scale, write_telemetry};

fn main() {
    let telemetry_path = telemetry_path_from_args(std::env::args().skip(1));
    let mut log = TelemetryLog::new();
    let n = if full_scale() { 2000 } else { 600 };
    eprintln!("building a {n}-instance population...");
    let pop = population(n, 0xF162);
    let grid = 5;

    for (unit, (x, y)) in FIG2_PAIRS.into_iter().enumerate() {
        let mut telemetry = Telemetry::for_unit_if(telemetry_path.is_some(), unit);
        let map = family_heatmap(&pop, "memcached", x, y, grid, &mut telemetry);
        log.merge(telemetry);
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
        emit(
            &format!("fig02_memcached_{x}_{y}"),
            "hot region at high L1-i x high LLC; zero everywhere disk is active",
            &table,
        );
    }

    // Headline checks: the high-L1i half of the map carries the memcached
    // mass (the LLC coordinate spreads with value size and load level, so
    // quadrants are compared in aggregate rather than single cells).
    let untraced = |x, y| family_heatmap(&pop, "memcached", x, y, grid, &mut Telemetry::disabled());
    let l1i_llc = untraced(FIG2_PAIRS[0].0, FIG2_PAIRS[0].1);
    let half = |lo: bool| -> f64 {
        let cols: Vec<usize> = if lo {
            (0..grid / 2).collect()
        } else {
            (grid / 2..grid).collect()
        };
        let mut sum = 0.0;
        let mut n = 0;
        for &ix in &cols {
            for iy in 0..grid {
                sum += l1i_llc.at(ix, iy);
                n += 1;
            }
        }
        sum / n as f64
    };
    let (hx, hy, hp) = l1i_llc.hottest();
    println!(
        "hottest L1i x LLC cell: ({:.0}%, {:.0}%) with P={hp:.2}; high-L1i half mean {:.2} vs low half {:.2} — {}",
        l1i_llc.center(hx),
        l1i_llc.center(hy),
        half(false),
        half(true),
        if half(false) > half(true) + 0.1 { "shape holds" } else { "MISMATCH" }
    );
    let disk = untraced(
        bolt_workloads::Resource::DiskBw,
        bolt_workloads::Resource::L2,
    );
    println!(
        "P(memcached | zero disk)={:.2} vs P(memcached | heavy disk)={:.2} — {}",
        disk.column_mean(0),
        disk.column_mean(grid - 1),
        if disk.column_mean(0) > disk.column_mean(grid - 1) {
            "shape holds"
        } else {
            "MISMATCH"
        }
    );

    write_telemetry(telemetry_path, &log);
}
