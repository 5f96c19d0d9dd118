//! The ten shared resources Bolt profiles, and pressure vectors over them.
//!
//! The paper (§3.2) profiles pressure on exactly ten shared resources: the
//! L1 instruction and data caches, the L2 and last-level caches, memory
//! capacity and bandwidth, CPU (functional units), network bandwidth, and
//! disk capacity and bandwidth. Pressure is a percentage in `[0, 100]`: for
//! unconstrained resources 100% means occupying the entire capacity, for
//! partitioned resources 100% means occupying the entire partition.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of shared resources Bolt profiles.
pub const RESOURCE_COUNT: usize = 10;

/// One of the ten shared resources (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// L1 instruction cache (per physical core, shared by hyperthreads).
    L1i,
    /// L1 data cache (per physical core, shared by hyperthreads).
    L1d,
    /// L2 cache (per physical core, shared by hyperthreads).
    L2,
    /// Last-level cache (shared across the socket).
    Llc,
    /// Memory capacity.
    MemCap,
    /// Memory bandwidth.
    MemBw,
    /// CPU functional units (per physical core, shared by hyperthreads).
    Cpu,
    /// Network bandwidth.
    NetBw,
    /// Disk capacity.
    DiskCap,
    /// Disk bandwidth.
    DiskBw,
}

impl Resource {
    /// All ten resources, in the paper's canonical order.
    pub const ALL: [Resource; RESOURCE_COUNT] = [
        Resource::L1i,
        Resource::L1d,
        Resource::L2,
        Resource::Llc,
        Resource::MemCap,
        Resource::MemBw,
        Resource::Cpu,
        Resource::NetBw,
        Resource::DiskCap,
        Resource::DiskBw,
    ];

    /// The *core* resources: private to a physical core and contended only
    /// between hyperthreads scheduled on that core.
    pub const CORE: [Resource; 4] = [Resource::L1i, Resource::L1d, Resource::L2, Resource::Cpu];

    /// The *uncore* resources: shared host-wide (socket caches, memory,
    /// network and storage subsystems).
    pub const UNCORE: [Resource; 6] = [
        Resource::Llc,
        Resource::MemCap,
        Resource::MemBw,
        Resource::NetBw,
        Resource::DiskCap,
        Resource::DiskBw,
    ];

    /// This resource's index in [`Resource::ALL`] and in
    /// [`PressureVector`] storage.
    pub fn index(self) -> usize {
        Resource::ALL
            .iter()
            .position(|&r| r == self)
            .expect("resource present in ALL")
    }

    /// Builds a resource from its canonical index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= RESOURCE_COUNT`.
    pub fn from_index(i: usize) -> Resource {
        Resource::ALL[i]
    }

    /// True if this is a core (hyperthread-scoped) resource.
    pub fn is_core(self) -> bool {
        Resource::CORE.contains(&self)
    }

    /// True if this is an uncore (host-scoped) resource.
    pub fn is_uncore(self) -> bool {
        !self.is_core()
    }

    /// True for *capacity* resources (memory/disk capacity), which are hard
    /// partitioned per VM or container rather than time-shared.
    pub fn is_capacity(self) -> bool {
        matches!(self, Resource::MemCap | Resource::DiskCap)
    }

    /// Short display name matching the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            Resource::L1i => "L1-i",
            Resource::L1d => "L1-d",
            Resource::L2 => "L2",
            Resource::Llc => "LLC",
            Resource::MemCap => "MemCap",
            Resource::MemBw => "MemBw",
            Resource::Cpu => "CPU",
            Resource::NetBw => "NetBw",
            Resource::DiskCap => "DiskCap",
            Resource::DiskBw => "DiskBw",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A vector of pressure values (percent, `[0, 100]`), one per resource.
///
/// This is the unit of currency across the whole reproduction: workloads
/// generate pressure vectors, the simulator aggregates them per sharing
/// domain, probes estimate them, and the recommender matches them.
///
/// # Example
///
/// ```
/// use bolt_workloads::{PressureVector, Resource};
///
/// let mut p = PressureVector::zero();
/// p[Resource::Llc] = 78.0;
/// p[Resource::L1i] = 81.0;
/// assert_eq!(p.dominant(), Resource::L1i);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PressureVector([f64; RESOURCE_COUNT]);

impl PressureVector {
    /// The all-zero pressure vector.
    pub fn zero() -> Self {
        PressureVector([0.0; RESOURCE_COUNT])
    }

    /// Builds a pressure vector from raw values, clamping each into
    /// `[0, 100]` and mapping NaN to 0.
    pub fn from_raw(values: [f64; RESOURCE_COUNT]) -> Self {
        let mut v = values;
        for x in &mut v {
            *x = if x.is_nan() { 0.0 } else { x.clamp(0.0, 100.0) };
        }
        PressureVector(v)
    }

    /// Builds a pressure vector from `(resource, value)` pairs; unnamed
    /// resources are zero. Values are clamped into `[0, 100]`.
    pub fn from_pairs(pairs: &[(Resource, f64)]) -> Self {
        let mut v = PressureVector::zero();
        for &(r, x) in pairs {
            v[r] = x.clamp(0.0, 100.0);
        }
        v
    }

    /// The raw array of values in [`Resource::ALL`] order.
    pub fn as_array(&self) -> &[f64; RESOURCE_COUNT] {
        &self.0
    }

    /// The values as a slice (for feeding matrices/correlations).
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutable raw access in [`Resource::ALL`] order, for aggregation
    /// kernels that update all lanes in place. Unlike [`Self::from_raw`]
    /// this performs no clamping — callers own the `[0, 100]` invariant.
    pub fn as_mut_array(&mut self) -> &mut [f64; RESOURCE_COUNT] {
        &mut self.0
    }

    /// The resource with the highest pressure. Ties break toward the
    /// earlier resource in canonical order; an all-zero vector reports
    /// [`Resource::L1i`].
    pub fn dominant(&self) -> Resource {
        let mut best = 0;
        for i in 1..RESOURCE_COUNT {
            if self.0[i] > self.0[best] {
                best = i;
            }
        }
        Resource::from_index(best)
    }

    /// Resources ordered by descending pressure.
    pub fn ranked(&self) -> Vec<Resource> {
        let mut idx: Vec<usize> = (0..RESOURCE_COUNT).collect();
        idx.sort_by(|&a, &b| {
            self.0[b]
                .partial_cmp(&self.0[a])
                .expect("pressure is finite")
                .then(a.cmp(&b))
        });
        idx.into_iter().map(Resource::from_index).collect()
    }

    /// The top `n` resources by pressure.
    pub fn top(&self, n: usize) -> Vec<Resource> {
        self.ranked().into_iter().take(n).collect()
    }

    /// Elementwise saturating sum: `min(self + rhs, 100)` per resource.
    ///
    /// This is how co-resident pressure aggregates on a shared resource —
    /// demand beyond the capacity is invisible (the resource is simply
    /// saturated), which is one source of multi-tenant detection error.
    pub fn saturating_add(&self, rhs: &PressureVector) -> PressureVector {
        let mut out = [0.0; RESOURCE_COUNT];
        for (i, o) in out.iter_mut().enumerate() {
            *o = (self.0[i] + rhs.0[i]).min(100.0);
        }
        PressureVector(out)
    }

    /// Elementwise saturating difference: `max(self - rhs, 0)` per resource.
    pub fn saturating_sub(&self, rhs: &PressureVector) -> PressureVector {
        let mut out = [0.0; RESOURCE_COUNT];
        for (i, o) in out.iter_mut().enumerate() {
            *o = (self.0[i] - rhs.0[i]).max(0.0);
        }
        PressureVector(out)
    }

    /// Scales every component by `factor`, clamping back into `[0, 100]`.
    pub fn scaled(&self, factor: f64) -> PressureVector {
        let mut out = [0.0; RESOURCE_COUNT];
        for (i, o) in out.iter_mut().enumerate() {
            *o = (self.0[i] * factor).clamp(0.0, 100.0);
        }
        PressureVector(out)
    }

    /// Euclidean distance to another pressure vector.
    pub fn distance(&self, rhs: &PressureVector) -> f64 {
        self.0
            .iter()
            .zip(&rhs.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Sum of all components (a crude "total footprint" measure used by
    /// schedulers).
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// True if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&v| v == 0.0)
    }

    /// True if every component lies in `[0, 100]` (always holds for vectors
    /// built through the public constructors).
    pub fn is_valid(&self) -> bool {
        self.0.iter().all(|&v| (0.0..=100.0).contains(&v))
    }
}

impl Index<Resource> for PressureVector {
    type Output = f64;

    fn index(&self, r: Resource) -> &f64 {
        &self.0[r.index()]
    }
}

impl IndexMut<Resource> for PressureVector {
    fn index_mut(&mut self, r: Resource) -> &mut f64 {
        &mut self.0[r.index()]
    }
}

impl fmt::Display for PressureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = Resource::ALL
            .iter()
            .map(|&r| format!("{}={:.0}", r.short_name(), self[r]))
            .collect();
        write!(f, "{{{}}}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_index_roundtrip() {
        for (i, &r) in Resource::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Resource::from_index(i), r);
        }
    }

    #[test]
    fn core_uncore_partition_is_complete_and_disjoint() {
        for &r in &Resource::ALL {
            assert!(r.is_core() ^ r.is_uncore());
        }
        assert_eq!(
            Resource::CORE.len() + Resource::UNCORE.len(),
            RESOURCE_COUNT
        );
    }

    #[test]
    fn capacity_resources() {
        assert!(Resource::MemCap.is_capacity());
        assert!(Resource::DiskCap.is_capacity());
        assert!(!Resource::MemBw.is_capacity());
        assert!(!Resource::Llc.is_capacity());
    }

    #[test]
    fn short_names_match_paper_figures() {
        assert_eq!(Resource::L1i.to_string(), "L1-i");
        assert_eq!(Resource::Llc.to_string(), "LLC");
        assert_eq!(Resource::DiskBw.to_string(), "DiskBw");
    }

    #[test]
    fn from_raw_clamps_and_cleans() {
        let p =
            PressureVector::from_raw([-5.0, 150.0, f64::NAN, 50.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(p[Resource::L1i], 0.0);
        assert_eq!(p[Resource::L1d], 100.0);
        assert_eq!(p[Resource::L2], 0.0);
        assert_eq!(p[Resource::Llc], 50.0);
        assert!(p.is_valid());
    }

    #[test]
    fn from_pairs_sets_named_resources_only() {
        let p = PressureVector::from_pairs(&[(Resource::Cpu, 70.0), (Resource::NetBw, 120.0)]);
        assert_eq!(p[Resource::Cpu], 70.0);
        assert_eq!(p[Resource::NetBw], 100.0);
        assert_eq!(p[Resource::L1i], 0.0);
    }

    #[test]
    fn dominant_and_ranking() {
        let p = PressureVector::from_pairs(&[
            (Resource::Llc, 78.0),
            (Resource::L1i, 81.0),
            (Resource::Cpu, 40.0),
        ]);
        assert_eq!(p.dominant(), Resource::L1i);
        let top2 = p.top(2);
        assert_eq!(top2, vec![Resource::L1i, Resource::Llc]);
    }

    #[test]
    fn dominant_of_zero_vector_is_first_resource() {
        assert_eq!(PressureVector::zero().dominant(), Resource::L1i);
    }

    #[test]
    fn ranked_breaks_ties_canonically() {
        let p = PressureVector::from_pairs(&[(Resource::L1d, 50.0), (Resource::Cpu, 50.0)]);
        let ranked = p.ranked();
        // L1d precedes Cpu in canonical order.
        assert_eq!(ranked[0], Resource::L1d);
        assert_eq!(ranked[1], Resource::Cpu);
    }

    #[test]
    fn saturating_add_caps_at_hundred() {
        let a = PressureVector::from_pairs(&[(Resource::MemBw, 70.0)]);
        let b = PressureVector::from_pairs(&[(Resource::MemBw, 60.0)]);
        let s = a.saturating_add(&b);
        assert_eq!(s[Resource::MemBw], 100.0);
        assert_eq!(s[Resource::Cpu], 0.0);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = PressureVector::from_pairs(&[(Resource::MemBw, 10.0)]);
        let b = PressureVector::from_pairs(&[(Resource::MemBw, 60.0)]);
        assert_eq!(a.saturating_sub(&b)[Resource::MemBw], 0.0);
        assert_eq!(b.saturating_sub(&a)[Resource::MemBw], 50.0);
    }

    #[test]
    fn scaled_clamps() {
        let p = PressureVector::from_pairs(&[(Resource::Cpu, 60.0)]);
        assert_eq!(p.scaled(0.5)[Resource::Cpu], 30.0);
        assert_eq!(p.scaled(3.0)[Resource::Cpu], 100.0);
        assert_eq!(p.scaled(-1.0)[Resource::Cpu], 0.0);
    }

    #[test]
    fn distance_is_metric_like() {
        let a = PressureVector::from_pairs(&[(Resource::Cpu, 30.0)]);
        let b = PressureVector::from_pairs(&[(Resource::Cpu, 60.0)]);
        assert_eq!(a.distance(&b), 30.0);
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn total_and_is_zero() {
        assert!(PressureVector::zero().is_zero());
        let p = PressureVector::from_pairs(&[(Resource::Cpu, 30.0), (Resource::L2, 12.0)]);
        assert!(!p.is_zero());
        assert_eq!(p.total(), 42.0);
    }

    #[test]
    fn display_mentions_all_resources() {
        let s = PressureVector::zero().to_string();
        for r in Resource::ALL {
            assert!(s.contains(r.short_name()), "missing {r} in {s}");
        }
    }
}
