//! Fingerprint heatmaps: P(application class | resource-pressure pair).
//!
//! Figure 2 of the paper visualizes how strongly pairs of resource
//! pressures identify an application class: e.g. very high L1-i plus high
//! LLC pressure means "memcached" with high probability, while any disk
//! traffic at all rules it out. This module regenerates those maps
//! empirically, the way the paper derived them: from a *population* of
//! application instances (every catalog family, multiple variants,
//! dataset scales and input-load levels), each instance drops its
//! pressure pair into a grid cell, and a cell's probability is the
//! fraction of its occupants belonging to the target family (with
//! Laplace smoothing for sparse cells).

use rand::rngs::StdRng;
use rand::SeedableRng;

use bolt_workloads::{Resource, WorkloadProfile};

use crate::experiment::victim_set;
use crate::telemetry::{Counter, Phase, Telemetry};

/// The miss-rate-curve channel's contribution to a detection
/// fingerprint: the observed cache-allocation sweep, one co-resident
/// response per allocation level.
#[derive(Debug, Clone, PartialEq)]
pub struct MrcFingerprint {
    /// Response at level `k`, measured while the probe occupied
    /// `(k + 1) / points` of the LLC. Each value is in `[0, 100]`.
    pub points: Vec<f64>,
    /// Simulated seconds the sweep cost on top of the pressure probes.
    pub duration_s: f64,
}

impl MrcFingerprint {
    /// RMS distance to another sweep of the same length; sweeps of
    /// different lengths are incomparable and return `f64::INFINITY`.
    pub fn rms_distance(&self, other: &MrcFingerprint) -> f64 {
        if self.points.len() != other.points.len() || self.points.is_empty() {
            return f64::INFINITY;
        }
        let sum: f64 = self
            .points
            .iter()
            .zip(&other.points)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (sum / self.points.len() as f64).sqrt()
    }
}

/// A `grid × grid` probability map over one resource pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Resource on the x axis.
    pub x: Resource,
    /// Resource on the y axis.
    pub y: Resource,
    /// Grid resolution per axis.
    pub grid: usize,
    /// `grid × grid` probabilities, row-major with `y` varying by row
    /// (row 0 = lowest `y`).
    pub cells: Vec<f64>,
    /// Population count per cell (same layout).
    pub counts: Vec<u32>,
}

impl Heatmap {
    /// The probability at grid cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn at(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix < self.grid && iy < self.grid,
            "cell ({ix},{iy}) out of range"
        );
        self.cells[iy * self.grid + ix]
    }

    /// The pressure value at the center of grid index `i`.
    pub fn center(&self, i: usize) -> f64 {
        (i as f64 + 0.5) * 100.0 / self.grid as f64
    }

    /// The cell with the highest probability, as `(ix, iy, p)`.
    pub fn hottest(&self) -> (usize, usize, f64) {
        let mut best = (0, 0, 0.0);
        for iy in 0..self.grid {
            for ix in 0..self.grid {
                let p = self.at(ix, iy);
                if p > best.2 {
                    best = (ix, iy, p);
                }
            }
        }
        best
    }

    /// Mean probability over one column (fixed `x` index).
    pub fn column_mean(&self, ix: usize) -> f64 {
        (0..self.grid).map(|iy| self.at(ix, iy)).sum::<f64>() / self.grid as f64
    }
}

/// The resource pairs Fig. 2 plots.
pub const FIG2_PAIRS: [(Resource, Resource); 5] = [
    (Resource::L1i, Resource::Llc),
    (Resource::L1d, Resource::Cpu),
    (Resource::MemCap, Resource::MemBw),
    (Resource::DiskCap, Resource::NetBw),
    (Resource::DiskBw, Resource::L2),
];

/// Draws the instance population the heatmaps are estimated from: a
/// diverse set of application instances observed at several input-load
/// levels.
pub fn population(instances: usize, seed: u64) -> Vec<WorkloadProfile> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = victim_set(instances.div_ceil(2).max(1), &mut rng);
    let mut out = Vec::with_capacity(instances);
    // Busy-period observations (Fig. 2 maps measured pressure at
    // meaningful load; a map of idle services would collapse every family
    // into the low-pressure corner).
    'outer: for level in [1.0, 0.8] {
        for p in &base {
            if out.len() == instances {
                break 'outer;
            }
            out.push(p.at_load_level(level));
        }
    }
    out
}

/// Computes the probability heatmap for `family` over the `(x, y)` pair
/// from an instance population.
///
/// Laplace smoothing (`α = 1` pseudo-instance spread across families)
/// keeps empty cells near the base rate instead of hard zero.
///
/// The estimation pass records into `telemetry`: a [`Phase::ContentMatch`]
/// span covering the grid build (heatmap estimation is content matching
/// against a population rather than a training set) and one
/// [`Counter::ProbeSamples`] tick per instance observation dropped into
/// the grid.
///
/// # Panics
///
/// Panics if `grid` is zero or `profiles` is empty.
pub fn family_heatmap(
    profiles: &[WorkloadProfile],
    family: &str,
    x: Resource,
    y: Resource,
    grid: usize,
    telemetry: &mut Telemetry,
) -> Heatmap {
    let clock = telemetry.begin();
    assert!(grid > 0, "grid must be nonzero");
    assert!(!profiles.is_empty(), "population must be nonempty");
    let mut hits = vec![0u32; grid * grid];
    let mut totals = vec![0u32; grid * grid];
    let base_rate = profiles
        .iter()
        .filter(|p| p.label().family() == family)
        .count() as f64
        / profiles.len() as f64;
    for p in profiles {
        let px = p.base_pressure()[x];
        let py = p.base_pressure()[y];
        let ix = ((px / 100.0 * grid as f64) as usize).min(grid - 1);
        let iy = ((py / 100.0 * grid as f64) as usize).min(grid - 1);
        totals[iy * grid + ix] += 1;
        if p.label().family() == family {
            hits[iy * grid + ix] += 1;
        }
    }
    let cells = hits
        .iter()
        .zip(&totals)
        .map(|(&h, &n)| (h as f64 + base_rate) / (n as f64 + 1.0))
        .collect();
    telemetry.count(Counter::ProbeSamples, profiles.len() as u64);
    telemetry.span(Phase::ContentMatch, 0.0, 0.0, clock);
    Heatmap {
        x,
        y,
        grid,
        cells,
        counts: totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> Vec<WorkloadProfile> {
        population(600, 0xF162)
    }

    /// The heatmap over [`pop`], recording nothing.
    fn heatmap(family: &str, x: Resource, y: Resource, grid: usize) -> Heatmap {
        family_heatmap(&pop(), family, x, y, grid, &mut Telemetry::disabled())
    }

    #[test]
    fn memcached_hot_at_high_l1i_high_llc() {
        let map = heatmap("memcached", Resource::L1i, Resource::Llc, 4);
        // The Fig. 2 signature: the high-L1i/high-LLC corner is far hotter
        // than the low-low corner.
        let high = map.at(3, 3).max(map.at(2, 3)).max(map.at(3, 2));
        let low = map.at(0, 0);
        assert!(
            high > low + 0.2,
            "P(memcached | high L1i, high LLC)={high} vs low-corner {low}"
        );
    }

    #[test]
    fn disk_traffic_rules_out_memcached() {
        let p = pop();
        let mut off = Telemetry::disabled();
        let map = family_heatmap(&p, "memcached", Resource::DiskBw, Resource::L2, 4, &mut off);
        // memcached does zero disk I/O: any disk traffic above the first
        // column's range rules it out, so those columns sit at or below
        // the smoothed base rate while the zero-disk column rises above.
        let zero_disk = map.column_mean(0);
        let disk_active = (map.column_mean(1) + map.column_mean(2) + map.column_mean(3)) / 3.0;
        let base_rate = p
            .iter()
            .filter(|w| w.label().family() == "memcached")
            .count() as f64
            / p.len() as f64;
        assert!(
            zero_disk > disk_active + 0.02,
            "zero disk should look more like memcached: {zero_disk} vs {disk_active}"
        );
        assert!(
            disk_active <= base_rate + 0.02,
            "disk-active columns should carry no memcached evidence: {disk_active} vs base {base_rate}"
        );
    }

    #[test]
    fn hadoop_hot_at_high_disk() {
        let map = heatmap("hadoop", Resource::DiskBw, Resource::Cpu, 4);
        assert!(
            map.column_mean(2).max(map.column_mean(3)) > map.column_mean(0),
            "hadoop should occupy the disk-heavy columns"
        );
    }

    #[test]
    fn probabilities_are_probabilities_and_counts_cover_population() {
        let p = pop();
        let mut off = Telemetry::disabled();
        let map = family_heatmap(&p, "spark", Resource::MemBw, Resource::Llc, 5, &mut off);
        for &c in &map.cells {
            assert!((0.0..=1.0).contains(&c));
        }
        let total: u32 = map.counts.iter().sum();
        assert_eq!(total as usize, p.len());
    }

    #[test]
    fn heatmap_accessors() {
        let map = heatmap("hadoop", Resource::DiskBw, Resource::Cpu, 3);
        assert_eq!(map.cells.len(), 9);
        assert!((map.center(0) - 16.666).abs() < 0.01);
        let (_, _, hp) = map.hottest();
        assert!((0.0..=1.0).contains(&hp));
    }

    #[test]
    fn population_is_deterministic_and_sized() {
        let a = population(100, 7);
        let b = population(100, 7);
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.base_pressure(), y.base_pressure());
        }
    }
}
