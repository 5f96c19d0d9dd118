//! Region-scale cluster driver: churn plus interference probing at
//! thousands of servers.
//!
//! The paper's controlled experiments run on tens of servers; a region of
//! a public cloud is 10k+ hosts with 100k+ tenants. This module stresses
//! the simulator at that scale and reports where the time goes. Two
//! storage-layer properties make the scale tractable (see
//! `DESIGN.md` § "Region-scale storage"):
//!
//! * the per-server residency index makes one interference probe cost
//!   O(co-residents on that host), independent of region size, and
//! * the deterministic aggregate cache memoizes repeated neighbor
//!   queries at the same simulated time, so steady-state sampling does
//!   not re-walk unchanged hosts.
//!
//! Tenants here are launched with [`WorkloadProfile::with_noise`] zeroed:
//! zero-noise profiles draw no per-query randomness, which is exactly the
//! regime where the aggregate cache may engage without perturbing any RNG
//! stream. Clusters with stochastic tenants simply fall back to the
//! uncached scan on the affected servers.
//!
//! [`WorkloadProfile::with_noise`]: bolt_workloads::WorkloadProfile::with_noise

use std::time::Instant;

use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, StorageStats, VmId};
use bolt_workloads::{catalog, DatasetScale, WorkloadProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::BoltError;
use crate::report::Table;
use crate::telemetry::{Counter, Telemetry};

/// Parameters for a region-scale run.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Hosts in the region.
    pub servers: usize,
    /// Tenants to land on each host (capacity permitting).
    pub vms_per_server: usize,
    /// Simulation steps to advance.
    pub steps: usize,
    /// Interference probes sampled per step.
    pub probes_per_step: usize,
    /// VMs terminated (and replaced) per step — region churn.
    pub churn_per_step: usize,
    /// RNG seed for tenant profiles and churn picks.
    pub seed: u64,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            servers: 1000,
            vms_per_server: 10,
            steps: 20,
            probes_per_step: 256,
            churn_per_step: 32,
            seed: 0xB017,
        }
    }
}

/// What a region-scale run measured.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Hosts simulated.
    pub servers: usize,
    /// Tenants placed at build time.
    pub vms: usize,
    /// Steps advanced.
    pub steps: usize,
    /// Interference probes issued across all steps.
    pub probes: u64,
    /// Wall-clock seconds spent building and populating the region.
    pub build_s: f64,
    /// Wall-clock seconds spent stepping (probes + churn).
    pub step_s: f64,
    /// Mean wall-clock nanoseconds per interference probe.
    pub ns_per_probe: f64,
    /// Mean neighbor candidates visited per probe (locality metric).
    pub visits_per_probe: f64,
    /// Storage-layer counters at the end of the run.
    pub storage: StorageStats,
}

impl RegionReport {
    /// The report as a two-column table for the CLI.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["metric", "value"]);
        t.row(vec!["servers".into(), self.servers.to_string()]);
        t.row(vec!["vms".into(), self.vms.to_string()]);
        t.row(vec!["steps".into(), self.steps.to_string()]);
        t.row(vec!["probes".into(), self.probes.to_string()]);
        t.row(vec!["build (s)".into(), format!("{:.3}", self.build_s)]);
        t.row(vec!["stepping (s)".into(), format!("{:.3}", self.step_s)]);
        t.row(vec![
            "ns / probe".into(),
            format!("{:.0}", self.ns_per_probe),
        ]);
        t.row(vec![
            "visits / probe".into(),
            format!("{:.2}", self.visits_per_probe),
        ]);
        t.row(vec![
            "arena slots (live/free)".into(),
            format!("{}/{}", self.storage.live_vms, self.storage.free_slots),
        ]);
        t.row(vec![
            "slots reused".into(),
            self.storage.slots_reused.to_string(),
        ]);
        t.row(vec![
            "residency ops".into(),
            self.storage.residency_ops.to_string(),
        ]);
        t.row(vec![
            "agg cache hit/miss".into(),
            format!("{}/{}", self.storage.agg_hits, self.storage.agg_misses),
        ]);
        t
    }
}

/// One measured point of the servers-versus-probe-cost scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Hosts in the region at this point.
    pub servers: usize,
    /// Tenants placed.
    pub vms: usize,
    /// First-touch (cache-miss) interference probes measured.
    pub probes: u64,
    /// Mean neighbor candidates visited per probe.
    pub visits_per_probe: f64,
}

/// A deterministic small-tenant profile for slot `i`.
///
/// Rotates through four catalog families, squeezes each onto one vCPU
/// (region tenants are small — the 100k-on-10k density target needs ten
/// per 16-thread host), and strips the stochastic noise term so the
/// deterministic aggregate path stays engaged; the profiles otherwise
/// keep their catalog pressure shapes.
pub(crate) fn tenant_profile<R: Rng>(i: usize, rng: &mut R) -> WorkloadProfile {
    let p = match i % 4 {
        0 => catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng),
        1 => catalog::speccpu::profile(&catalog::speccpu::Benchmark::Gobmk, rng),
        2 => catalog::spark::profile(&catalog::spark::Algorithm::KMeans, DatasetScale::Small, rng),
        _ => catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng),
    };
    p.with_noise(0.0).with_vcpus(1)
}

/// Builds a populated region: `servers` hosts, up to `vms_per_server`
/// zero-noise tenants each.
fn build_region(config: &RegionConfig, rng: &mut StdRng) -> Result<Cluster, BoltError> {
    let mut cluster = Cluster::new(
        config.servers,
        ServerSpec::xeon(),
        IsolationConfig::cloud_default(),
    )?;
    let core_iso = cluster.isolation().mechanisms.core_isolation;
    for server in 0..config.servers {
        for k in 0..config.vms_per_server {
            let profile = tenant_profile(server + k, rng);
            if !cluster.server(server)?.can_host(profile.vcpus(), core_iso) {
                break;
            }
            cluster.launch_on(server, profile, VmRole::Friendly, 0.0)?;
        }
    }
    Ok(cluster)
}

/// [`run_region_telemetry`] without telemetry.
///
/// Kept with this exact signature because the bolt-perf benchmark calls
/// it; delete it when that benchmark is next revised.
pub fn run_region(config: &RegionConfig) -> Result<RegionReport, BoltError> {
    run_region_telemetry(config, &mut Telemetry::disabled())
}

/// Runs the region scenario: build, then per step probe a deterministic
/// sample of tenants and churn a few (terminate + replace).
///
/// Records the storage-layer [`Counter`]s on `telemetry` so a `--telemetry`
/// trace shows arena occupancy, slot reuse, residency-index traffic, and
/// aggregate-cache effectiveness alongside the usual phases.
pub fn run_region_telemetry(
    config: &RegionConfig,
    telemetry: &mut Telemetry,
) -> Result<RegionReport, BoltError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let build_start = Instant::now();
    let mut cluster = build_region(config, &mut rng)?;
    let build_s = build_start.elapsed().as_secs_f64();
    let vms = cluster.vm_ids().count();

    let mut probes = 0u64;
    let step_start = Instant::now();
    for step in 0..config.steps {
        let t = step as f64 * 10.0;
        // Probe a deterministic stride of live tenants. Repeat visits at
        // the same `t` are aggregate-cache hits by design.
        let live: Vec<VmId> = cluster.vm_ids().collect();
        if !live.is_empty() {
            let stride = (live.len() / config.probes_per_step.max(1)).max(1);
            for id in live.iter().step_by(stride).take(config.probes_per_step) {
                let _ = cluster.interference_on(*id, t, &mut rng)?;
                probes += 1;
            }
        }
        // Churn: terminate a spread of tenants, land replacements via the
        // least-loaded rule. Exercises slot reuse and cache invalidation.
        for c in 0..config.churn_per_step.min(live.len()) {
            let victim = live[(c * 7919) % live.len()];
            if cluster.vm(victim).is_ok() {
                cluster.terminate(victim)?;
            }
            let profile = tenant_profile(step + c, &mut rng);
            if let Some(target) = cluster.least_loaded_server(profile.vcpus()) {
                cluster.launch_on(target, profile, VmRole::Friendly, t)?;
            }
        }
    }
    let step_s = step_start.elapsed().as_secs_f64();

    let storage = cluster.storage_stats();
    telemetry.count(Counter::ArenaVmsLive, storage.live_vms as u64);
    telemetry.count(Counter::ArenaSlotsReused, storage.slots_reused);
    telemetry.count(Counter::ResidencyIndexOps, storage.residency_ops);
    telemetry.count(Counter::AggregateCacheHit, storage.agg_hits);
    telemetry.count(Counter::AggregateCacheMiss, storage.agg_misses);
    telemetry.count(Counter::NeighborVisits, storage.neighbor_visits);

    Ok(RegionReport {
        servers: config.servers,
        vms,
        steps: config.steps,
        probes,
        build_s,
        step_s,
        ns_per_probe: if probes == 0 {
            0.0
        } else {
            step_s * 1e9 / probes as f64
        },
        visits_per_probe: if probes == 0 {
            0.0
        } else {
            storage.neighbor_visits as f64 / probes as f64
        },
        storage,
    })
}

/// Measures first-touch probe work at each region size.
///
/// Every probe pairs a distinct `(tenant, t)` so it misses the aggregate
/// cache and pays the full neighbor walk — the honest per-query cost.
/// With the residency index visits per probe stay flat as `servers`
/// grows; under the old full-arena scan they grew linearly. The counts
/// are deterministic; the `crit_region_scale` bench times the same probe.
pub fn scaling_curve(
    sizes: &[usize],
    vms_per_server: usize,
    seed: u64,
) -> Result<Vec<ScalePoint>, BoltError> {
    let mut points = Vec::with_capacity(sizes.len());
    for &servers in sizes {
        let config = RegionConfig {
            servers,
            vms_per_server,
            ..RegionConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = build_region(&config, &mut rng)?;
        let vms = cluster.vm_ids().count();
        let targets: Vec<VmId> = cluster.vms_on(0).to_vec();
        let before = cluster.storage_stats();

        let rounds = 64usize;
        let mut probes = 0u64;
        for round in 0..rounds {
            // A fresh t per round keeps every (tenant, t) pair unseen.
            let t = 1.0 + round as f64 * 0.125;
            for &id in &targets {
                let _ = cluster.interference_on(id, t, &mut rng)?;
                probes += 1;
            }
        }
        let after = cluster.storage_stats();
        points.push(ScalePoint {
            servers,
            vms,
            probes,
            visits_per_probe: if probes == 0 {
                0.0
            } else {
                (after.neighbor_visits - before.neighbor_visits) as f64 / probes as f64
            },
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_region_runs_and_reports() {
        let config = RegionConfig {
            servers: 8,
            vms_per_server: 4,
            steps: 3,
            probes_per_step: 8,
            churn_per_step: 2,
            seed: 7,
        };
        let report =
            run_region_telemetry(&config, &mut Telemetry::disabled()).expect("region runs");
        assert_eq!(report.servers, 8);
        assert!(report.vms >= 8, "tenants landed");
        assert!(report.probes > 0);
        // Churn recycled at least one arena slot and touched the index.
        assert!(report.storage.slots_reused > 0);
        assert!(report.storage.residency_ops > 0);
        // Deterministic tenants mean the aggregate cache engaged.
        assert!(report.storage.agg_hits + report.storage.agg_misses > 0);
    }

    #[test]
    fn region_probes_record_storage_counters() {
        let config = RegionConfig {
            servers: 4,
            vms_per_server: 2,
            steps: 2,
            probes_per_step: 4,
            churn_per_step: 1,
            seed: 11,
        };
        let mut telemetry = Telemetry::for_unit(0);
        let report = run_region_telemetry(&config, &mut telemetry).expect("region runs");
        let log = crate::telemetry::TelemetryLog::from_events(telemetry.into_events());
        assert_eq!(
            log.counter_total(Counter::ArenaVmsLive),
            report.storage.live_vms as u64
        );
        assert_eq!(
            log.counter_total(Counter::NeighborVisits),
            report.storage.neighbor_visits
        );
    }

    #[test]
    fn probe_visits_track_coresidents_not_region_size() {
        // The locality claim at test scale: quadrupling the region leaves
        // visits-per-probe unchanged.
        let points = scaling_curve(&[4, 16], 4, 3).expect("curve runs");
        assert_eq!(points.len(), 2);
        assert!(points[0].probes > 0 && points[1].probes > 0);
        assert_eq!(
            points[0].visits_per_probe, points[1].visits_per_probe,
            "visits per probe must not grow with servers"
        );
    }

    /// The storage counters of one fixed run, pinned: 200 servers stepped
    /// 10 times, so probes revisit hosts within a step and the aggregate
    /// cache both hits and misses. A change to the probe walks, the memo
    /// or placement that moves any counter fails here.
    #[test]
    fn region_storage_counters_are_pinned() {
        let config = RegionConfig {
            servers: 200,
            steps: 10,
            seed: 7,
            ..RegionConfig::default()
        };
        let report = run_region(&config).expect("region runs");
        assert_eq!((report.vms, report.probes), (2000, 2560));
        assert_eq!(
            report.storage,
            StorageStats {
                live_vms: 2000,
                arena_slots: 2000,
                free_slots: 0,
                slots_reused: 320,
                residency_ops: 2640,
                agg_hits: 5193,
                agg_misses: 20407,
                neighbor_visits: 204070,
            }
        );
    }

    #[test]
    fn region_run_is_deterministic() {
        let config = RegionConfig {
            servers: 6,
            vms_per_server: 3,
            steps: 2,
            probes_per_step: 6,
            churn_per_step: 2,
            seed: 21,
        };
        let mut off = Telemetry::disabled();
        let a = run_region_telemetry(&config, &mut off).expect("first run");
        let b = run_region_telemetry(&config, &mut off).expect("second run");
        assert_eq!(a.vms, b.vms);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.storage.slots_reused, b.storage.slots_reused);
        assert_eq!(a.storage.residency_ops, b.storage.residency_ops);
        assert_eq!(a.storage.neighbor_visits, b.storage.neighbor_visits);
    }
}
