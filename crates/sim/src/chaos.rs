//! Deterministic chaos engine: seeded fault injection for the cluster sim.
//!
//! Every accuracy number the harness reports is a best case if the world
//! freezes during a probe window. Real clouds churn: tenants arrive and
//! depart mid-measurement, providers live-migrate VMs away from contended
//! hosts (the migrate-on-contention defense of Zhang et al.), servers get
//! throttled, and probe samples get lost to hypervisor preemption. This
//! module injects exactly those dynamics — deterministically.
//!
//! # Determinism model
//!
//! A [`ChaosConfig`] is pure data. [`FaultPlan::compile`] turns it into a
//! concrete, time-sorted schedule of [`ChaosEvent`]s using only
//! `(config, seed, unit)` — the same splitmix64 per-unit seed derivation the
//! experiment engine uses — so a plan is a *pure function* of its inputs:
//! Serial and `Threads(n)` runs compile identical plans for identical units,
//! and replaying a run replays its faults. Probe-level faults
//! ([`FaultPlan::probe_fault`]) are stateless hashes of
//! `(seed, unit, window index)`, so they consume no RNG state and cannot be
//! perturbed by how many events happened to fire earlier.
//!
//! [`ChaosConfig::none`] compiles to an empty plan: applying it draws no
//! random numbers and touches nothing, keeping chaos-off runs byte-identical
//! to the pre-chaos code path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bolt_workloads::{catalog, DatasetScale, WorkloadProfile};

use crate::cluster::Cluster;
use crate::error::SimError;
use crate::trace::ProbeFaultKind;
use crate::vm::{VmId, VmRole};

/// Most events one compiled plan may schedule at full intensity, and most
/// steps one probe ramp may take. A config past it is a typo rather than a
/// workload (a near-endless horizon, a vanishing ramp step): running it
/// would allocate or loop without bound, so the `validate` methods and the
/// ramp reject it.
pub const MAX_PLAN_EVENTS: f64 = 1.0e6;

/// Victim VM arrivals per simulated minute at full intensity.
const ARRIVALS_PER_MIN: f64 = 0.6;
/// Victim VM departures per simulated minute at full intensity.
const DEPARTURES_PER_MIN: f64 = 0.5;
/// In-place workload swaps per simulated minute at full intensity.
const SWAPS_PER_MIN: f64 = 0.6;
/// Period of defensive migrate-on-contention checks, in seconds
/// (Zhang-style).
const MIGRATION_CHECK_S: f64 = 60.0;
/// CPU-utilization threshold (percent) above which a defensive migration
/// is triggered on the most contended server.
const MIGRATION_THRESHOLD: f64 = 70.0;
/// Maximum per-server capacity degradation factor injected at full
/// intensity, in `[0, 1)`.
const MAX_DEGRADATION: f64 = 0.35;
/// Probability that a probe window suffers a measurement fault at full
/// intensity.
const PROBE_FAULT_RATE: f64 = 0.25;
/// Salt mixed into the seed so chaos draws never alias experiment draws.
const CHAOS_SALT: u64 = 0xC4A05;

/// The chaos engine's one knob: a representative churn mix, tenant
/// arrivals and departures roughly every other minute, periodic
/// defensive migration checks, mild throttling and occasional lost
/// probes, whose rates all scale linearly with
/// [`ChaosConfig::intensity`]. An intensity of zero disables everything
/// ([`ChaosConfig::none`], also the default).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosConfig {
    /// Master dial in `[0, 1]`. Zero disables the engine entirely.
    pub intensity: f64,
}

impl ChaosConfig {
    /// The disabled configuration: compiles to an empty plan, injects
    /// nothing, and is guaranteed zero-cost.
    pub fn none() -> Self {
        ChaosConfig { intensity: 0.0 }
    }

    /// The churn mix at `intensity`, clamped to `[0, 1]` (NaN passes
    /// through, and [`ChaosConfig::validate`] rejects it).
    pub fn with_intensity(intensity: f64) -> Self {
        ChaosConfig {
            intensity: intensity.clamp(0.0, 1.0),
        }
    }

    /// Whether the engine is disabled.
    pub fn is_none(&self) -> bool {
        self.intensity <= 0.0
    }

    /// Rejects a config no plan over `horizon_s` can be compiled from.
    /// Call it before [`FaultPlan::compile`]: a near-endless horizon
    /// compiles into an endless schedule.
    ///
    /// The event count is taken at full intensity, the most a run can
    /// reach (a storm's churn burst raises the intensity up to 1).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the intensity is outside `[0, 1]`
    /// (NaN included), or an enabled config schedules more than
    /// `MAX_PLAN_EVENTS` (10⁶) events.
    pub fn validate(&self, horizon_s: f64) -> Result<(), SimError> {
        in_unit_interval("chaos", self.intensity)?;
        if self.is_none() {
            return Ok(());
        }
        let churn = (ARRIVALS_PER_MIN + DEPARTURES_PER_MIN + SWAPS_PER_MIN) * (horizon_s / 60.0);
        bounded_plan("chaos", churn + horizon_s / MIGRATION_CHECK_S)
    }
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// A new friendly VM arrives on the least-loaded server.
    Arrival,
    /// A chaos-launched tenant departs (skipped while none is alive, so
    /// the original testbed population is never destroyed by churn).
    Departure,
    /// A friendly, unprotected VM swaps its workload in place.
    Swap,
    /// Migrate-on-contention check: if the hottest server exceeds the
    /// configured utilization threshold, its hungriest unprotected VM is
    /// live-migrated to the least-loaded server.
    MigrationCheck,
    /// A server's effective capacity is throttled by `factor`.
    Degrade {
        /// Server index (taken modulo cluster size at apply time).
        server: usize,
        /// Degradation factor in `[0, 1)`.
        factor: f64,
    },
}

/// A scheduled fault: what happens, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedFault {
    /// Simulated time of the fault.
    pub at: f64,
    /// What is injected.
    pub kind: ChaosEvent,
}

/// A compiled, time-sorted fault schedule for one experiment unit.
///
/// Compile once per hunt with [`FaultPlan::compile`], then call
/// [`FaultPlan::apply_due`] as simulated time advances; the plan keeps a
/// cursor so each event fires exactly once. This is the same
/// next-event discipline the streaming service's virtual clock uses:
/// chaos is a pre-compiled event list consumed in time order, so a loop
/// that jumps between events (rather than stepping through time) fires
/// exactly the faults a dense replay would.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: Vec<PlannedFault>,
    cursor: usize,
    rng: StdRng,
    probe_rate: f64,
    fault_seed: u64,
    protected: Vec<VmId>,
    chaos_vms: Vec<VmId>,
}

impl FaultPlan {
    /// Compiles `config` into a concrete schedule covering
    /// `[start_s, start_s + horizon_s]`. Pure: the result depends only on
    /// the arguments. `unit` is the experiment unit index (the same index
    /// that derives the unit's detection RNG), so sibling units get
    /// decorrelated but individually reproducible plans. `config` should
    /// have passed [`ChaosConfig::validate`] for `horizon_s`.
    pub fn compile(
        config: &ChaosConfig,
        seed: u64,
        unit: u64,
        start_s: f64,
        horizon_s: f64,
    ) -> Self {
        let plan_seed = splitmix64(seed ^ CHAOS_SALT, unit);
        let mut plan = FaultPlan {
            events: Vec::new(),
            cursor: 0,
            rng: StdRng::seed_from_u64(plan_seed),
            probe_rate: (PROBE_FAULT_RATE * config.intensity).clamp(0.0, 1.0),
            fault_seed: splitmix64(seed ^ CHAOS_SALT, unit ^ 0x50_B0_17),
            protected: Vec::new(),
            chaos_vms: Vec::new(),
        };
        if config.is_none() || horizon_s <= 0.0 {
            return plan;
        }
        let minutes = horizon_s / 60.0;
        let rates = [
            (ChaosEvent::Arrival, ARRIVALS_PER_MIN),
            (ChaosEvent::Departure, DEPARTURES_PER_MIN),
            (ChaosEvent::Swap, SWAPS_PER_MIN),
        ];
        for (kind, per_min) in rates {
            let n = draw_count(&mut plan.rng, per_min * config.intensity * minutes);
            for _ in 0..n {
                let at = start_s + plan.rng.gen::<f64>() * horizon_s;
                plan.events.push(PlannedFault { at, kind });
            }
        }
        let mut at = start_s + MIGRATION_CHECK_S;
        while at <= start_s + horizon_s {
            plan.events.push(PlannedFault {
                at,
                kind: ChaosEvent::MigrationCheck,
            });
            // Far in the future the period rounds away and `at` stops
            // advancing: one check there, not an endless loop.
            let next = at + MIGRATION_CHECK_S;
            if next == at {
                break;
            }
            at = next;
        }
        let n = draw_count(&mut plan.rng, config.intensity * 2.0);
        for _ in 0..n {
            let at = start_s + plan.rng.gen::<f64>() * horizon_s;
            let server = plan.rng.gen_range(0..1024usize);
            let factor = plan.rng.gen::<f64>() * MAX_DEGRADATION * config.intensity;
            plan.events.push(PlannedFault {
                at,
                kind: ChaosEvent::Degrade { server, factor },
            });
        }
        // Stable order: by time, ties broken by insertion order so the
        // schedule is reproducible bit for bit.
        plan.events
            .sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap_or(std::cmp::Ordering::Equal));
        plan
    }

    /// Marks VMs the engine must never terminate, swap, or migrate — the
    /// probing adversary (the measuring instrument) and the hunted victim
    /// (the ground truth).
    pub fn protect(&mut self, vms: &[VmId]) {
        self.protected.extend_from_slice(vms);
    }

    /// The compiled schedule, for inspection.
    pub fn events(&self) -> &[PlannedFault] {
        &self.events
    }

    /// Whether the plan contains no scheduled events and no probe faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.probe_rate <= 0.0
    }

    /// Number of scheduled events not yet applied.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Applies every event scheduled at or before `t`, mutating `cluster`.
    /// Returns the number of faults actually injected (events that find no
    /// eligible target — a full cluster, no unprotected tenant — are
    /// skipped, not errors).
    pub fn apply_due(&mut self, cluster: &mut Cluster, t: f64) -> Result<u64, SimError> {
        let mut applied = 0u64;
        while self.cursor < self.events.len() && self.events[self.cursor].at <= t {
            let fault = self.events[self.cursor];
            self.cursor += 1;
            if self.apply_one(cluster, &fault)? {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Stateless probe-fault draw for measurement window `window`. Consumes
    /// no RNG state: the verdict is a pure hash of `(seed, unit, window)`.
    pub fn probe_fault(&self, window: u64) -> Option<ProbeFaultKind> {
        if self.probe_rate <= 0.0 {
            return None;
        }
        let h = splitmix64(self.fault_seed, window);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.probe_rate {
            return None;
        }
        Some(match h % 3 {
            0 => ProbeFaultKind::DroppedSample,
            1 => ProbeFaultKind::TruncatedSample,
            _ => ProbeFaultKind::Blackout,
        })
    }

    fn apply_one(&mut self, cluster: &mut Cluster, fault: &PlannedFault) -> Result<bool, SimError> {
        match fault.kind {
            ChaosEvent::Arrival => {
                let profile = self.draw_profile();
                match cluster.least_loaded_server(profile.vcpus()) {
                    Some(server) => {
                        let id = cluster.launch_on(server, profile, VmRole::Friendly, fault.at)?;
                        self.chaos_vms.push(id);
                        Ok(true)
                    }
                    None => Ok(false),
                }
            }
            ChaosEvent::Departure => match self.pick_chaos_tenant(cluster) {
                Some(id) => {
                    cluster.terminate(id)?;
                    self.chaos_vms.retain(|&v| v != id);
                    Ok(true)
                }
                None => Ok(false),
            },
            ChaosEvent::Swap => match self.pick_tenant(cluster) {
                Some(id) => {
                    let vcpus = cluster.vm(id)?.vcpus();
                    let profile = self.draw_profile().with_vcpus(vcpus);
                    cluster.swap_profile(id, profile)?;
                    Ok(true)
                }
                None => Ok(false),
            },
            ChaosEvent::MigrationCheck => self.defensive_migration(cluster, fault.at),
            ChaosEvent::Degrade { server, factor } => {
                let server = server % cluster.server_count();
                cluster.set_degradation(server, factor, fault.at)?;
                Ok(true)
            }
        }
    }

    /// Picks the oldest still-alive tenant the engine itself launched.
    /// Departures retire *only* these: churn must add and remove its own
    /// population, never delete the experiment's ground truth (terminating
    /// a testbed victim would make its neighbors' hunts easier, inverting
    /// the stress the engine exists to apply).
    fn pick_chaos_tenant(&mut self, cluster: &Cluster) -> Option<VmId> {
        while let Some(&id) = self.chaos_vms.first() {
            if cluster.vm(id).is_ok() {
                return Some(id);
            }
            self.chaos_vms.remove(0);
        }
        None
    }

    /// Picks any unprotected friendly VM (for in-place workload swaps).
    fn pick_tenant(&mut self, cluster: &Cluster) -> Option<VmId> {
        let candidates: Vec<VmId> = cluster
            .vm_ids()
            .filter(|&id| {
                !self.protected.contains(&id)
                    && cluster
                        .vm(id)
                        .map(|s| s.role == VmRole::Friendly)
                        .unwrap_or(false)
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..candidates.len());
        Some(candidates[idx])
    }

    /// Zhang-style migrate-on-contention: find the hottest server; if it
    /// exceeds the threshold, move its most CPU-hungry unprotected tenant
    /// to the least-loaded server.
    fn defensive_migration(&mut self, cluster: &mut Cluster, t: f64) -> Result<bool, SimError> {
        let mut hottest: Option<(usize, f64)> = None;
        for s in 0..cluster.server_count() {
            let util = cluster.cpu_utilization(s, t, &mut self.rng)?;
            if hottest.map(|(_, u)| util > u).unwrap_or(true) {
                hottest = Some((s, util));
            }
        }
        let (server, util) = match hottest {
            Some(h) => h,
            None => return Ok(false),
        };
        if util <= MIGRATION_THRESHOLD {
            return Ok(false);
        }
        let mover = cluster
            .vms_on(server)
            .iter()
            .copied()
            .filter(|&id| {
                !self.protected.contains(&id)
                    && cluster
                        .vm(id)
                        .map(|s| s.role == VmRole::Friendly)
                        .unwrap_or(false)
            })
            .max_by(|&a, &b| {
                let pa = cluster
                    .vm(a)
                    .map(|s| s.profile.base_pressure()[bolt_workloads::Resource::Cpu])
                    .unwrap_or(0.0);
                let pb = cluster
                    .vm(b)
                    .map(|s| s.profile.base_pressure()[bolt_workloads::Resource::Cpu])
                    .unwrap_or(0.0);
                pa.partial_cmp(&pb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.raw().cmp(&a.raw()))
            });
        let mover = match mover {
            Some(m) => m,
            None => return Ok(false),
        };
        let vcpus = cluster.vm(mover)?.vcpus();
        let target = cluster.least_loaded_server(vcpus).filter(|&s| s != server);
        match target {
            Some(to) => {
                cluster.migrate(mover, to)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Draws a fresh tenant workload from the catalog.
    fn draw_profile(&mut self) -> WorkloadProfile {
        let rng = &mut self.rng;
        let profile = match rng.gen_range(0..5u32) {
            0 => catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng),
            1 => catalog::hadoop::profile(
                &catalog::hadoop::Algorithm::WordCount,
                DatasetScale::Medium,
                rng,
            ),
            2 => catalog::spark::profile(
                &catalog::spark::Algorithm::KMeans,
                DatasetScale::Medium,
                rng,
            ),
            3 => catalog::cassandra::profile(&catalog::cassandra::Variant::Mixed, rng),
            4 => catalog::webserver::profile(&catalog::webserver::Variant::Static, rng),
            _ => unreachable!(),
        };
        let vcpus = [1u32, 2, 4][rng.gen_range(0..3usize)];
        profile.with_vcpus(vcpus)
    }
}

/// Request-storm bursts per simulated minute at full intensity.
const BURSTS_PER_MIN: f64 = 0.2;
/// Extra requests injected per burst at full intensity.
const BURST_SIZE: usize = 6;
/// Slow-probe stall windows per simulated minute at full intensity.
const STALLS_PER_MIN: f64 = 0.3;
/// Extra seconds a probe pays when it starts inside a stall window.
const STALL_S: f64 = 30.0;
/// Length of each stall window, in seconds.
const STALL_WINDOW_S: f64 = 60.0;
/// Burst-churn windows per simulated minute at full intensity.
const CHURN_BURSTS_PER_MIN: f64 = 0.2;
/// Multiplier applied to the chaos intensity inside a churn burst.
const CHURN_BURST_FACTOR: f64 = 3.0;
/// Length of each churn-burst window, in seconds.
const CHURN_BURST_S: f64 = 90.0;
/// Salt mixed into the seed so storm draws never alias chaos or
/// experiment draws.
const STORM_SALT: u64 = 0x57_08AA;

/// The service-layer fault injector's one knob: a representative storm
/// mix, a request burst roughly every five minutes, occasional
/// minute-long probe stalls and short windows where churn triples, whose
/// rates all scale linearly with [`StormConfig::intensity`]. Like
/// [`ChaosConfig`], this is pure data; zero intensity, the default,
/// disables everything.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StormConfig {
    /// Master dial in `[0, 1]`. Zero disables the injector entirely.
    pub intensity: f64,
}

impl StormConfig {
    /// The disabled configuration: compiles to an empty plan, injects
    /// nothing, and is guaranteed zero-cost.
    pub fn none() -> Self {
        StormConfig { intensity: 0.0 }
    }

    /// The storm mix at `intensity`, clamped to `[0, 1]` (NaN passes
    /// through, and [`StormConfig::validate`] rejects it).
    pub fn with_intensity(intensity: f64) -> Self {
        StormConfig {
            intensity: intensity.clamp(0.0, 1.0),
        }
    }

    /// Whether the injector is disabled.
    pub fn is_none(&self) -> bool {
        self.intensity <= 0.0
    }

    /// Rejects a config no plan over `horizon_s` can be compiled from.
    /// Call it before [`StormPlan::compile`]: a near-endless horizon
    /// compiles into an endless schedule. A burst counts as the requests
    /// it injects, and every count is taken at full intensity.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the intensity is outside `[0, 1]`
    /// (NaN included), or an enabled config schedules more than
    /// `MAX_PLAN_EVENTS` (10⁶) events.
    pub fn validate(&self, horizon_s: f64) -> Result<(), SimError> {
        in_unit_interval("storm", self.intensity)?;
        if self.is_none() {
            return Ok(());
        }
        let per_min = BURSTS_PER_MIN * BURST_SIZE as f64 + STALLS_PER_MIN + CHURN_BURSTS_PER_MIN;
        bounded_plan("storm", per_min * (horizon_s / 60.0))
    }
}

/// A compiled, time-sorted storm schedule covering `[0, horizon_s]`.
///
/// The sim layer stays request-agnostic: a burst is just `(at, extra)` — how
/// the service loop turns that into admissions is its business. Stalls and
/// churn bursts are half-open windows `[start, end)` queried by time, so the
/// plan holds no cursor and lookups are pure.
#[derive(Debug, Clone, PartialEq)]
pub struct StormPlan {
    bursts: Vec<(f64, usize)>,
    stalls: Vec<(f64, f64, f64)>,
    churn_bursts: Vec<(f64, f64, f64)>,
}

impl StormPlan {
    /// Compiles `config` into a concrete schedule covering `[0, horizon_s]`.
    /// Pure: the result depends only on the arguments, so Serial and
    /// `Threads(n)` service runs replay identical storms. `config` should
    /// have passed [`StormConfig::validate`] for `horizon_s`.
    pub fn compile(config: &StormConfig, seed: u64, horizon_s: f64) -> Self {
        let mut plan = StormPlan {
            bursts: Vec::new(),
            stalls: Vec::new(),
            churn_bursts: Vec::new(),
        };
        if config.is_none() || horizon_s <= 0.0 {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ STORM_SALT, 0));
        let minutes = horizon_s / 60.0;

        let n = draw_count(&mut rng, BURSTS_PER_MIN * config.intensity * minutes);
        for _ in 0..n {
            let at = rng.gen::<f64>() * horizon_s;
            let size = ((BURST_SIZE as f64) * config.intensity).round() as usize;
            if size > 0 {
                plan.bursts.push((at, size));
            }
        }
        let n = draw_count(&mut rng, STALLS_PER_MIN * config.intensity * minutes);
        for _ in 0..n {
            let start = rng.gen::<f64>() * horizon_s;
            plan.stalls.push((start, start + STALL_WINDOW_S, STALL_S));
        }
        let n = draw_count(&mut rng, CHURN_BURSTS_PER_MIN * config.intensity * minutes);
        for _ in 0..n {
            let start = rng.gen::<f64>() * horizon_s;
            plan.churn_bursts
                .push((start, start + CHURN_BURST_S, CHURN_BURST_FACTOR));
        }
        let by_start = |a: &(f64, f64, f64), b: &(f64, f64, f64)| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
        };
        plan.bursts
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        plan.stalls.sort_by(by_start);
        plan.churn_bursts.sort_by(by_start);
        plan
    }

    /// The scheduled request bursts as `(at_s, extra_requests)`, time-sorted.
    pub fn bursts(&self) -> &[(f64, usize)] {
        &self.bursts
    }

    /// Extra probe seconds paid by a probe starting at `t`, if `t` falls in
    /// a stall window. Overlapping windows sum.
    pub fn stall_at(&self, t: f64) -> Option<f64> {
        let total: f64 = self
            .stalls
            .iter()
            .filter(|&&(start, end, _)| t >= start && t < end)
            .map(|&(_, _, s)| s)
            .sum();
        (total > 0.0).then_some(total)
    }

    /// Churn-intensity multiplier in effect at `t`, if `t` falls in a
    /// churn-burst window. Overlapping windows take the max factor.
    pub fn churn_boost(&self, t: f64) -> Option<f64> {
        self.churn_bursts
            .iter()
            .filter(|&&(start, end, _)| t >= start && t < end)
            .map(|&(_, _, f)| f)
            .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty() && self.stalls.is_empty() && self.churn_bursts.is_empty()
    }
}

/// Expected-value count: `floor(expected)` plus a Bernoulli draw on the
/// fractional part, so small rates still fire sometimes.
fn draw_count(rng: &mut StdRng, expected: f64) -> usize {
    if expected <= 0.0 {
        return 0;
    }
    let base = expected.floor();
    let frac = expected - base;
    base as usize + usize::from(rng.gen::<f64>() < frac)
}

/// Rejects a master dial outside `[0, 1]`, NaN included.
fn in_unit_interval(injector: &str, intensity: f64) -> Result<(), SimError> {
    if (0.0..=1.0).contains(&intensity) {
        return Ok(());
    }
    Err(SimError::InvalidConfig {
        reason: format!(
            "{injector} intensity is {intensity}; injector intensities in [0, 1] scale the rates"
        ),
    })
}

/// Rejects a plan of more than [`MAX_PLAN_EVENTS`] expected events; a NaN
/// count (a NaN or infinite horizon) is rejected too.
fn bounded_plan(injector: &str, events: f64) -> Result<(), SimError> {
    if events <= MAX_PLAN_EVENTS {
        return Ok(());
    }
    Err(SimError::InvalidConfig {
        reason: format!(
            "{injector} plan would schedule {events:.3e} events, more than {MAX_PLAN_EVENTS:e}"
        ),
    })
}

/// The same splitmix64 finalizer the experiment engine uses for per-unit
/// seed derivation, duplicated here because `bolt-sim` sits below
/// `bolt-core` in the crate graph.
fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isolation::IsolationConfig;
    use crate::server::ServerSpec;
    use crate::trace::TraceEvent;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(n, ServerSpec::default(), IsolationConfig::default()).unwrap()
    }

    fn seeded(n: usize) -> Cluster {
        let mut c = cluster(n);
        c.record_events();
        let mut rng = StdRng::seed_from_u64(7);
        for s in 0..n {
            let p = catalog::spark::profile(
                &catalog::spark::Algorithm::KMeans,
                DatasetScale::Large,
                &mut rng,
            )
            .with_vcpus(8);
            c.launch_on(s, p, VmRole::Friendly, 0.0).unwrap();
        }
        c
    }

    #[test]
    fn none_compiles_to_an_empty_plan() {
        let plan = FaultPlan::compile(&ChaosConfig::none(), 0xA5FA11, 3, 0.0, 2000.0);
        assert!(plan.is_empty());
        assert_eq!(plan.events().len(), 0);
        assert_eq!(plan.probe_fault(0), None);
        assert_eq!(plan.probe_fault(17), None);
    }

    #[test]
    fn none_application_leaves_the_cluster_untouched() {
        let mut a = seeded(4);
        a.take_events(); // drop setup launches; only chaos output matters
        let b = a.snapshot();
        let mut plan = FaultPlan::compile(&ChaosConfig::none(), 1, 0, 0.0, 1000.0);
        let applied = plan.apply_due(&mut a, 1000.0).unwrap();
        assert_eq!(applied, 0);
        assert!(a.take_events().is_empty());
        assert_eq!(
            a.vm_ids().collect::<Vec<_>>(),
            b.vm_ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn plans_are_pure_functions_of_seed_and_unit() {
        let config = ChaosConfig::with_intensity(0.8);
        let a = FaultPlan::compile(&config, 42, 5, 100.0, 800.0);
        let b = FaultPlan::compile(&config, 42, 5, 100.0, 800.0);
        assert_eq!(a.events(), b.events());
        let c = FaultPlan::compile(&config, 42, 6, 100.0, 800.0);
        assert_ne!(a.events(), c.events(), "sibling units must decorrelate");
    }

    #[test]
    fn plan_events_are_time_sorted_within_the_window() {
        let config = ChaosConfig::with_intensity(1.0);
        let plan = FaultPlan::compile(&config, 9, 2, 50.0, 600.0);
        assert!(!plan.events().is_empty());
        for pair in plan.events().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for e in plan.events() {
            assert!(e.at >= 50.0 && e.at <= 650.0);
        }
    }

    #[test]
    fn replaying_a_plan_replays_the_same_faults() {
        let config = ChaosConfig::with_intensity(1.0);
        let run = |_: ()| {
            let mut c = seeded(4);
            let mut plan = FaultPlan::compile(&config, 0xFEED, 1, 0.0, 600.0);
            plan.apply_due(&mut c, 600.0).unwrap();
            c.take_events()
        };
        assert_eq!(run(()), run(()));
    }

    #[test]
    fn probe_faults_are_stateless_and_seed_dependent() {
        let config = ChaosConfig::with_intensity(1.0);
        let plan = FaultPlan::compile(&config, 7, 0, 0.0, 600.0);
        let verdicts: Vec<_> = (0..64).map(|w| plan.probe_fault(w)).collect();
        // Same plan asked again (no RNG consumed in between by probe_fault).
        let again: Vec<_> = (0..64).map(|w| plan.probe_fault(w)).collect();
        assert_eq!(verdicts, again);
        assert!(
            verdicts.iter().any(|v| v.is_some()),
            "rate 0.25 over 64 windows"
        );
        assert!(verdicts.iter().any(|v| v.is_none()));
    }

    #[test]
    fn protected_vms_survive_heavy_churn() {
        let mut c = seeded(3);
        let protected = c.vm_ids().next().unwrap();
        // 100 simulated minutes at full intensity: about 60 swaps and 50
        // departures against three resident tenants.
        let mut plan = FaultPlan::compile(&ChaosConfig::with_intensity(1.0), 3, 0, 0.0, 6000.0);
        let swaps = plan
            .events()
            .iter()
            .filter(|e| e.kind == ChaosEvent::Swap)
            .count();
        assert!(swaps >= 40, "{swaps} swaps");
        plan.protect(&[protected]);
        let label_before = c.vm(protected).unwrap().profile.label().clone();
        plan.apply_due(&mut c, 6000.0).unwrap();
        let state = c.vm(protected).expect("protected vm must survive");
        assert_eq!(state.profile.label(), &label_before);
    }

    #[test]
    fn arrivals_and_degradations_land_in_the_trace() {
        let mut c = seeded(2);
        // An hour at full intensity: about 36 arrivals and two throttles.
        let mut plan = FaultPlan::compile(&ChaosConfig::with_intensity(1.0), 11, 0, 0.0, 3600.0);
        let applied = plan.apply_due(&mut c, 3600.0).unwrap();
        assert!(applied > 0);
        assert_eq!(plan.remaining(), 0);
        let events = c.take_events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Launch {
                role: VmRole::Friendly,
                ..
            }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Degrade { .. })));
    }

    #[test]
    fn validate_rejects_configs_that_compile_without_bound() {
        let horizon = 3600.0;
        let active = ChaosConfig::with_intensity(0.8);
        assert_eq!(active.validate(horizon), Ok(()));
        assert_eq!(ChaosConfig::none().validate(f64::INFINITY), Ok(()));
        for intensity in [f64::NAN, -0.5, 1.5, f64::INFINITY] {
            let config = ChaosConfig { intensity };
            assert!(
                matches!(
                    config.validate(horizon),
                    Err(SimError::InvalidConfig { .. })
                ),
                "{config:?}"
            );
        }
        // A sane config over a near-endless horizon is unbounded.
        assert!(active.validate(1e300).is_err());
        assert!(active.validate(f64::INFINITY).is_err());

        let storm = StormConfig::with_intensity(0.8);
        assert_eq!(storm.validate(horizon), Ok(()));
        assert_eq!(StormConfig::none().validate(f64::INFINITY), Ok(()));
        for intensity in [f64::NAN, -0.5, 1.5, f64::INFINITY] {
            let bad = StormConfig { intensity };
            assert!(
                matches!(bad.validate(horizon), Err(SimError::InvalidConfig { .. })),
                "{bad:?}"
            );
        }
        assert!(storm.validate(1e300).is_err());
    }

    #[test]
    fn far_future_migration_checks_stop_when_time_stops_advancing() {
        // At t = 1e300 adding a 60 s period rounds away; the schedule
        // gets its one check there instead of looping forever.
        let config = ChaosConfig::with_intensity(0.8);
        assert_eq!(config.validate(600.0), Ok(()));
        let plan = FaultPlan::compile(&config, 1, 0, 1e300, 600.0);
        let checks = plan
            .events()
            .iter()
            .filter(|e| e.kind == ChaosEvent::MigrationCheck)
            .count();
        assert_eq!(checks, 1);
    }

    #[test]
    fn storm_none_compiles_to_an_empty_plan() {
        let plan = StormPlan::compile(&StormConfig::none(), 0xDEAD, 3600.0);
        assert!(plan.is_empty());
        assert_eq!(plan.bursts().len(), 0);
        assert_eq!(plan.stall_at(100.0), None);
        assert_eq!(plan.churn_boost(100.0), None);
    }

    #[test]
    fn storm_plans_are_pure_functions_of_their_seed() {
        let config = StormConfig::with_intensity(1.0);
        let a = StormPlan::compile(&config, 42, 3600.0);
        let b = StormPlan::compile(&config, 42, 3600.0);
        assert_eq!(a, b);
        let c = StormPlan::compile(&config, 43, 3600.0);
        assert_ne!(a, c, "different seeds must decorrelate");
    }

    #[test]
    fn storm_schedules_are_time_sorted_and_in_horizon() {
        let config = StormConfig::with_intensity(1.0);
        let plan = StormPlan::compile(&config, 9, 3600.0);
        assert!(!plan.is_empty(), "full intensity over an hour must fire");
        for pair in plan.bursts().windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        for &(at, size) in plan.bursts() {
            assert!((0.0..=3600.0).contains(&at));
            assert!(size > 0);
        }
    }

    #[test]
    fn stall_and_churn_windows_answer_by_time() {
        let config = StormConfig::with_intensity(1.0);
        let plan = StormPlan::compile(&config, 21, 7200.0);
        let stalled = (0..7200)
            .map(|t| plan.stall_at(t as f64))
            .filter(|s| s.is_some())
            .count();
        assert!(stalled > 0, "an hour-plus of full storms must stall probes");
        if let Some(s) = (0..7200).find_map(|t| plan.stall_at(t as f64)) {
            assert!(s > 0.0);
        }
        let boosted: Vec<f64> = (0..7200)
            .filter_map(|t| plan.churn_boost(t as f64))
            .collect();
        assert!(!boosted.is_empty());
        assert!(boosted.iter().all(|&f| f > 1.0));
    }

    #[test]
    fn storm_intensity_scales_the_schedule() {
        let heavy = StormPlan::compile(&StormConfig::with_intensity(1.0), 5, 36_000.0);
        let light = StormPlan::compile(&StormConfig::with_intensity(0.2), 5, 36_000.0);
        assert!(heavy.bursts().len() > light.bursts().len());
    }

    /// The fault mix at intensity 0.5, pinned event by event (kind, time
    /// bits, and a throttle's server and factor bits) together with the
    /// first 24 probe-fault verdicts, plus the per-kind and probe-fault
    /// counts of a ten-hour plan. Every rate, the check period, the
    /// degradation and the salt feed these, so a changed constant fails
    /// here and not only in a figure CSV. (The migration threshold acts
    /// when a check is applied, not in the plan.)
    #[test]
    fn half_intensity_fault_plan_is_pinned() {
        use ChaosEvent::{Arrival, Departure, MigrationCheck, Swap};
        let plan = FaultPlan::compile(&ChaosConfig::with_intensity(0.5), 42, 5, 100.0, 600.0);
        let degrade = ChaosEvent::Degrade {
            server: 283,
            factor: f64::from_bits(0x3fc4_584c_d2bb_4ae0),
        };
        let expected = [
            (MigrationCheck, 0x4064_0000_0000_0000),
            (degrade, 0x406a_a32e_5014_2540),
            (MigrationCheck, 0x406b_8000_0000_0000),
            (Departure, 0x4070_1082_b0e0_570e),
            (MigrationCheck, 0x4071_8000_0000_0000),
            (Arrival, 0x4072_7859_8ed4_52f2),
            (Arrival, 0x4074_0b11_b420_5122),
            (MigrationCheck, 0x4075_4000_0000_0000),
            (Swap, 0x4076_c3a9_03fb_afe2),
            (Departure, 0x4078_eea9_e8be_1a1a),
            (MigrationCheck, 0x4079_0000_0000_0000),
            (MigrationCheck, 0x407c_c000_0000_0000),
            (Swap, 0x407c_c70b_8e4b_3076),
            (Departure, 0x407d_05a4_1a5c_376e),
            (MigrationCheck, 0x4080_4000_0000_0000),
            (Swap, 0x4081_3c9c_db23_287a),
            (Arrival, 0x4081_63df_ea4a_b11c),
            (MigrationCheck, 0x4082_2000_0000_0000),
            (MigrationCheck, 0x4084_0000_0000_0000),
            (MigrationCheck, 0x4085_e000_0000_0000),
        ];
        let got: Vec<(ChaosEvent, u64)> = plan
            .events()
            .iter()
            .map(|e| (e.kind, e.at.to_bits()))
            .collect();
        assert_eq!(got, expected);
        let faulted: Vec<(u64, ProbeFaultKind)> = (0..24)
            .filter_map(|w| plan.probe_fault(w).map(|kind| (w, kind)))
            .collect();
        assert_eq!(
            faulted,
            [
                (6, ProbeFaultKind::Blackout),
                (9, ProbeFaultKind::Blackout),
                (10, ProbeFaultKind::TruncatedSample),
                (15, ProbeFaultKind::TruncatedSample),
            ]
        );

        // Ten hours resolve each rate to about 1%: a short plan's counts
        // can absorb a small rate change in one Bernoulli draw.
        let long = FaultPlan::compile(&ChaosConfig::with_intensity(0.5), 42, 5, 100.0, 36_000.0);
        let count =
            |kind: fn(&ChaosEvent) -> bool| long.events().iter().filter(|e| kind(&e.kind)).count();
        let counts = [
            count(|k| *k == Arrival),
            count(|k| *k == Departure),
            count(|k| *k == Swap),
            count(|k| *k == MigrationCheck),
            count(|k| matches!(k, ChaosEvent::Degrade { .. })),
        ];
        assert_eq!(counts, [180, 150, 180, 600, 1]);
        let faults = (0..10_000)
            .filter(|&w| long.probe_fault(w).is_some())
            .count();
        assert_eq!(faults, 1186);
    }

    /// The storm mix at intensity 0.5 over an hour, pinned window by
    /// window as raw bits, plus the counts of a hundred-hour plan, for the
    /// same reason as the fault plan above.
    #[test]
    fn half_intensity_storm_plan_is_pinned() {
        let plan = StormPlan::compile(&StormConfig::with_intensity(0.5), 42, 3600.0);
        let bursts: Vec<(u64, usize)> = plan
            .bursts
            .iter()
            .map(|&(at, n)| (at.to_bits(), n))
            .collect();
        assert_eq!(
            bursts,
            [
                (0x406a_4264_4291_ae40, 3),
                (0x4071_7e17_8a68_a99d, 3),
                (0x4092_df06_9d90_2c11, 3),
                (0x4098_b484_9122_d240, 3),
                (0x40a2_0a73_925b_2fdb, 3),
                (0x40aa_a173_18e5_7415, 3),
            ]
        );
        let bits = |windows: &[(f64, f64, f64)]| -> Vec<[u64; 3]> {
            windows
                .iter()
                .map(|&(a, b, c)| [a.to_bits(), b.to_bits(), c.to_bits()])
                .collect()
        };
        let stall = 0x403e_0000_0000_0000; // 30 s
        assert_eq!(
            bits(&plan.stalls),
            [
                [0x4036_a674_d3bd_874c, 0x4054_a99d_34ef_61d3, stall],
                [0x4080_44c4_1ac6_4732, 0x4082_24c4_1ac6_4732, stall],
                [0x408c_ea3b_c451_40a6, 0x408e_ca3b_c451_40a6, stall],
                [0x4090_42d2_5b9c_4381, 0x4091_32d2_5b9c_4381, stall],
                [0x4095_c910_db67_37ea, 0x4096_b910_db67_37ea, stall],
                [0x409c_b02c_b9a0_3d2e, 0x409d_a02c_b9a0_3d2e, stall],
                [0x409d_0eca_4022_564f, 0x409d_feca_4022_564f, stall],
                [0x40a1_461a_29d7_4eba, 0x40a1_be1a_29d7_4eba, stall],
                [0x40a8_d596_d127_4c1a, 0x40a9_4d96_d127_4c1a, stall],
            ]
        );
        let triple = 0x4008_0000_0000_0000; // 3.0
        assert_eq!(
            bits(&plan.churn_bursts),
            [
                [0x407f_cfc4_21f5_1edf, 0x4082_b7e2_10fa_8f70, triple],
                [0x4091_6191_5821_7d0c, 0x4092_c991_5821_7d0c, triple],
                [0x40a0_3027_6653_0fb7, 0x40a0_e427_6653_0fb7, triple],
                [0x40a3_31a9_0c96_8cec, 0x40a3_e5a9_0c96_8cec, triple],
                [0x40a4_2217_d101_9c15, 0x40a4_d617_d101_9c15, triple],
                [0x40a6_e0aa_0a3e_2399, 0x40a7_94aa_0a3e_2399, triple],
            ]
        );

        // A hundred hours resolve each rate to about 0.2%.
        let long = StormPlan::compile(&StormConfig::with_intensity(0.5), 42, 360_000.0);
        let counts = [
            long.bursts.len(),
            long.stalls.len(),
            long.churn_bursts.len(),
        ];
        assert_eq!(counts, [600, 900, 600]);
    }
}
