//! The profiling policy: which benchmarks to run, and when to add more.
//!
//! Bolt keeps profiling cheap (2–5 s per iteration): it randomly selects
//! *one core and one uncore* benchmark for a representative snapshot
//! (paper §3.2). If the core benchmark reads zero — nobody shares a
//! physical core with the adversary — a third benchmark on another uncore
//! resource is added. When the recommender later fails to match (all
//! correlations below 0.1) and the core reading was non-zero, an extra
//! *core* benchmark helps disentangle the co-runner on the shared core
//! (§3.3).
//!
//! Every measurement goes through the cluster's interference queries, so
//! probe batching is transparent here: when the snapshot under
//! measurement shares a sweep memo (region-scale service), a reading
//! another hunt already computed is returned byte-identically instead of
//! being re-scanned — the profiling policy neither knows nor cares.

use rand::seq::SliceRandom;
use rand::Rng;

use bolt_sim::{Cluster, SimError, VmId};
use bolt_workloads::Resource;

use crate::microbench::{Microbenchmark, ProbeReading, RampConfig};

/// Profiling policy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Benchmarks in the initial snapshot (paper default: 2 — one core,
    /// one uncore). Values above 2 add more uncore benchmarks; Fig. 10c
    /// sweeps this.
    pub initial_benchmarks: usize,
    /// The ramp protocol parameters.
    pub ramp: RampConfig,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            initial_benchmarks: 2,
            ramp: RampConfig::default(),
        }
    }
}

/// A sparse profiling snapshot: the probed resources and their estimated
/// pressures, plus the total simulated profiling cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Individual probe readings, in execution order.
    pub readings: Vec<ProbeReading>,
    /// Total simulated seconds spent profiling.
    pub duration_s: f64,
}

impl Snapshot {
    /// The readings as `(resource, pressure)` observation pairs.
    pub fn observations(&self) -> Vec<(Resource, f64)> {
        self.readings
            .iter()
            .map(|r| (r.resource, r.pressure))
            .collect()
    }

    /// The reading for `resource`, if it was probed.
    pub fn reading(&self, resource: Resource) -> Option<&ProbeReading> {
        self.readings.iter().find(|r| r.resource == resource)
    }

    /// True if a core resource was probed and read (essentially) zero —
    /// the signal that no co-resident shares a core with the adversary.
    pub fn core_reading_is_zero(&self) -> bool {
        self.readings
            .iter()
            .filter(|r| r.resource.is_core())
            .all(|r| r.pressure <= 5.0)
    }
}

/// The profiling driver bound to one adversarial VM.
#[derive(Debug, Clone)]
pub struct Profiler {
    config: ProfilerConfig,
}

impl Profiler {
    /// Creates a profiler with the given policy.
    pub fn new(config: ProfilerConfig) -> Self {
        Profiler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// Takes one profiling snapshot from `observer`'s position at time `t`:
    /// one random core benchmark, one random uncore benchmark, then extra
    /// uncore benchmarks per the configured count — plus one more uncore
    /// benchmark if the core read zero (paper §3.2).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if `observer` is not placed.
    pub fn snapshot<R: Rng>(
        &self,
        cluster: &Cluster,
        observer: VmId,
        t: f64,
        rng: &mut R,
    ) -> Result<Snapshot, SimError> {
        let mut core_pool: Vec<Resource> = Resource::CORE.to_vec();
        let mut uncore_pool: Vec<Resource> = Resource::UNCORE.to_vec();
        core_pool.shuffle(rng);
        uncore_pool.shuffle(rng);

        let mut plan: Vec<Resource> = Vec::new();
        let n = self.config.initial_benchmarks.max(1);
        if n == 1 {
            // Degenerate single-benchmark config (Fig. 10c's leftmost
            // point): a lone uncore probe.
            plan.push(uncore_pool[0]);
        } else {
            plan.push(core_pool[0]);
            let uncore_count = (n - 1).min(uncore_pool.len());
            plan.extend(uncore_pool.iter().take(uncore_count).copied());
        }

        let mut readings = Vec::with_capacity(plan.len() + 1);
        let mut duration = 0.0;
        let mut uncore_used = plan.iter().filter(|r| r.is_uncore()).count();
        for resource in &plan {
            let reading = Microbenchmark::new(*resource).measure(
                cluster,
                observer,
                t + duration,
                &self.config.ramp,
                rng,
            )?;
            duration += reading.duration_s;
            readings.push(reading);
        }

        // Zero core pressure: nobody shares our cores — spend the budget on
        // one more uncore resource instead.
        let snapshot_so_far = Snapshot {
            readings: readings.clone(),
            duration_s: duration,
        };
        if n > 1 && snapshot_so_far.core_reading_is_zero() && uncore_used < uncore_pool.len() {
            let extra = uncore_pool[uncore_used];
            uncore_used += 1;
            let reading = Microbenchmark::new(extra).measure(
                cluster,
                observer,
                t + duration,
                &self.config.ramp,
                rng,
            )?;
            duration += reading.duration_s;
            readings.push(reading);
        }
        let _ = uncore_used;

        Ok(Snapshot {
            readings,
            duration_s: duration,
        })
    }

    /// Probes one additional *core* benchmark not already in `snapshot` —
    /// the §3.3 move when the recommender cannot match a multi-tenant
    /// signal but a core is shared (hyperthreads are not shared between
    /// active instances, so core readings isolate the core-sharing
    /// co-runner).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if `observer` is not placed.
    pub fn extra_core_probe<R: Rng>(
        &self,
        cluster: &Cluster,
        observer: VmId,
        t: f64,
        snapshot: &mut Snapshot,
        rng: &mut R,
    ) -> Result<(), SimError> {
        let probed: Vec<Resource> = snapshot.readings.iter().map(|r| r.resource).collect();
        let mut candidates: Vec<Resource> = Resource::CORE
            .iter()
            .copied()
            .filter(|r| !probed.contains(r))
            .collect();
        candidates.shuffle(rng);
        if let Some(resource) = candidates.first() {
            let reading = Microbenchmark::new(*resource).measure(
                cluster,
                observer,
                t + snapshot.duration_s,
                &self.config.ramp,
                rng,
            )?;
            snapshot.duration_s += reading.duration_s;
            snapshot.readings.push(reading);
        }
        Ok(())
    }

    /// Probes one *named* resource and appends the reading to `snapshot`
    /// — the partial-sweep primitive of the anytime detector, which
    /// chooses the resource itself (by expected information gain) instead
    /// of drawing it from a shuffled pool. The measurement starts where
    /// the snapshot left off (`t + snapshot.duration_s`) and the
    /// snapshot's clock advances by the probe's cost.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if `observer` is not placed.
    pub fn probe_resource<R: Rng>(
        &self,
        cluster: &Cluster,
        observer: VmId,
        t: f64,
        resource: Resource,
        snapshot: &mut Snapshot,
        rng: &mut R,
    ) -> Result<(), SimError> {
        let reading = Microbenchmark::new(resource).measure(
            cluster,
            observer,
            t + snapshot.duration_s,
            &self.config.ramp,
            rng,
        )?;
        snapshot.duration_s += reading.duration_s;
        snapshot.readings.push(reading);
        Ok(())
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(ProfilerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_sim::vm::VmRole;
    use bolt_sim::{IsolationConfig, ServerSpec};
    use bolt_workloads::{catalog, PressureVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xF00D)
    }

    fn setup(n_victims: usize) -> (Cluster, VmId) {
        let mut r = rng();
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let adv_profile = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut r);
        let adv = cluster
            .launch_on(0, adv_profile, VmRole::Adversarial, 0.0)
            .unwrap();
        for _ in 0..n_victims {
            let v = catalog::spark::profile(
                &catalog::spark::Algorithm::KMeans,
                bolt_workloads::DatasetScale::Medium,
                &mut r,
            );
            cluster.launch_on(0, v, VmRole::Friendly, 0.0).unwrap();
        }
        (cluster, adv)
    }

    #[test]
    fn default_snapshot_has_core_and_uncore() {
        let (cluster, adv) = setup(1);
        let mut r = rng();
        let snap = Profiler::default()
            .snapshot(&cluster, adv, 0.0, &mut r)
            .unwrap();
        let cores = snap
            .readings
            .iter()
            .filter(|x| x.resource.is_core())
            .count();
        let uncores = snap
            .readings
            .iter()
            .filter(|x| x.resource.is_uncore())
            .count();
        assert_eq!(cores, 1);
        // One uncore benchmark, plus a second only if the core probe read
        // (near) zero — under scheduler-float leakage it may not.
        let expected_uncores = if snap.core_reading_is_zero() { 2 } else { 1 };
        assert_eq!(uncores, expected_uncores);
        assert!(snap.duration_s > 0.0);
    }

    #[test]
    fn extra_uncore_only_when_core_reads_zero() {
        // Four 4-vCPU victims force core sharing on a 16-thread host.
        let (mut cluster, adv) = setup(3);
        // Give victims hot core pressure so the shared-core reading is big.
        for id in cluster.vm_ids().collect::<Vec<_>>() {
            if id != adv {
                cluster
                    .set_pressure_override(
                        id,
                        Some(PressureVector::from_pairs(&[
                            (bolt_workloads::Resource::L1i, 85.0),
                            (bolt_workloads::Resource::L1d, 85.0),
                            (bolt_workloads::Resource::L2, 85.0),
                            (bolt_workloads::Resource::Cpu, 85.0),
                            (bolt_workloads::Resource::MemBw, 60.0),
                        ])),
                    )
                    .unwrap();
            }
        }
        let mut r = rng();
        let snap = Profiler::default()
            .snapshot(&cluster, adv, 0.0, &mut r)
            .unwrap();
        assert!(
            !snap.core_reading_is_zero(),
            "core must be shared at 16/16 threads"
        );
        assert_eq!(
            snap.readings.len(),
            2,
            "no extra probe when core pressure seen"
        );
    }

    #[test]
    fn single_benchmark_config_probes_one_uncore() {
        let (cluster, adv) = setup(1);
        let mut r = rng();
        let profiler = Profiler::new(ProfilerConfig {
            initial_benchmarks: 1,
            ramp: RampConfig::default(),
        });
        let snap = profiler.snapshot(&cluster, adv, 0.0, &mut r).unwrap();
        assert_eq!(snap.readings.len(), 1);
        assert!(snap.readings[0].resource.is_uncore());
    }

    #[test]
    fn many_benchmark_config_covers_more_uncore() {
        let (cluster, adv) = setup(1);
        let mut r = rng();
        let profiler = Profiler::new(ProfilerConfig {
            initial_benchmarks: 6,
            ramp: RampConfig::default(),
        });
        let snap = profiler.snapshot(&cluster, adv, 0.0, &mut r).unwrap();
        assert!(snap.readings.len() >= 6);
        // No duplicate resources.
        let mut seen: Vec<Resource> = snap.readings.iter().map(|x| x.resource).collect();
        seen.sort();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len());
    }

    #[test]
    fn extra_core_probe_appends_unprobed_core_resource() {
        let (cluster, adv) = setup(1);
        let mut r = rng();
        let profiler = Profiler::default();
        let mut snap = profiler.snapshot(&cluster, adv, 0.0, &mut r).unwrap();
        let before = snap.readings.len();
        profiler
            .extra_core_probe(&cluster, adv, 0.0, &mut snap, &mut r)
            .unwrap();
        assert_eq!(snap.readings.len(), before + 1);
        assert!(snap.readings.last().unwrap().resource.is_core());
    }

    #[test]
    fn observations_expose_pairs() {
        let (cluster, adv) = setup(1);
        let mut r = rng();
        let snap = Profiler::default()
            .snapshot(&cluster, adv, 0.0, &mut r)
            .unwrap();
        let obs = snap.observations();
        assert_eq!(obs.len(), snap.readings.len());
    }

    #[test]
    fn snapshot_duration_in_paper_range() {
        // Paper: profiling takes ~2-5 seconds for 2-3 benchmarks; our ramp
        // dwell yields durations in the same order of magnitude.
        let (cluster, adv) = setup(1);
        let mut r = rng();
        let snap = Profiler::default()
            .snapshot(&cluster, adv, 0.0, &mut r)
            .unwrap();
        assert!(
            (0.5..=10.0).contains(&snap.duration_s),
            "duration {} out of plausible range",
            snap.duration_s
        );
    }
}
