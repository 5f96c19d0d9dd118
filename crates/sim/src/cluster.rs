//! The cluster: VM lifecycle, contention physics, utilization, migration.
//!
//! This is the simulator's heart. Every workload on a server generates a
//! pressure vector over the ten shared resources; the cluster aggregates
//! those vectors per *sharing domain* — core-private resources (L1i/L1d/
//! L2/CPU) contend only between hyperthreads of the same physical core,
//! uncore resources (LLC/memory/network/disk) contend host-wide — and
//! attenuates them through the active isolation configuration. Probes and
//! victims both read contention through this one code path, so what Bolt
//! *measures* and what victims *suffer* stay consistent.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::Rng;

use bolt_linalg::{kernels, oracle};
use bolt_workloads::mrc;
use bolt_workloads::{
    perf, PressureVector, Resource, WorkloadKind, WorkloadProfile, RESOURCE_COUNT,
};

use crate::error::SimError;
use crate::isolation::IsolationConfig;
use crate::server::{Server, ServerSpec};
use crate::storage::{Memoized, Query, Stamp, SweepMemo, VmArena};
use crate::trace::TraceEvent;
use crate::vm::{VmId, VmRole, VmState};

/// A point-in-time view of the cluster's storage layer: arena occupancy,
/// residency-index activity, and how many neighbor candidates queries
/// have visited. Drivers export these through telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// Live VMs in the arena.
    pub live_vms: usize,
    /// Total arena slots ever allocated (live + free-listed).
    pub arena_slots: usize,
    /// Slots currently on the free list.
    pub free_slots: usize,
    /// Launches that recycled a churned slot.
    pub slots_reused: u64,
    /// Residency-index mutations (inserts + removals).
    pub residency_ops: u64,
    /// Always 0: the cluster keeps no instance aggregate cache. Kept only
    /// because the bolt-perf benchmark reads it; drop it when that
    /// benchmark is next revised.
    pub agg_hits: u64,
    /// Always 0, like [`StorageStats::agg_hits`] and for the same reason.
    pub agg_misses: u64,
    /// Neighbor candidates visited by interference/utilization/sweep
    /// queries. With the residency index this grows with co-residents
    /// per query, never with total cluster size.
    pub neighbor_visits: u64,
}

/// A running cluster of servers hosting VMs.
///
/// # Example
///
/// ```
/// use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
/// use bolt_sim::vm::VmRole;
/// use bolt_workloads::{catalog, DatasetScale};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bolt_sim::SimError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut cluster = Cluster::new(4, ServerSpec::xeon(), IsolationConfig::cloud_default())?;
/// let victim = catalog::hadoop::profile(
///     &catalog::hadoop::Algorithm::WordCount, DatasetScale::Small, &mut rng);
/// let id = cluster.launch_on(0, victim, VmRole::Friendly, 0.0)?;
/// assert_eq!(cluster.vm(id)?.server, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cluster {
    /// Placement state, shared copy-on-write between a cluster and its
    /// [`Cluster::snapshot`]s. Read it freely; write it only through
    /// [`Cluster::placement_mut`].
    placement: Arc<Placement>,
    isolation: IsolationConfig,
    /// The lifecycle log: `None` until [`Cluster::record_events`] turns it
    /// on, and then every lifecycle write appends to it.
    events: Option<Vec<TraceEvent>>,
    /// Neighbor candidates visited by queries (locality telemetry).
    neighbor_visits: AtomicU64,
    /// Cross-snapshot sweep memo ([`SweepMemo`]): probe queries answered
    /// once for every concurrent hunt sharing this handle. `None` until a
    /// driver attaches one via [`Cluster::share_sweeps`]; any mutation
    /// detaches it again (this instance's world diverged from the base
    /// placement the memo describes).
    shared: Option<Arc<SweepMemo>>,
}

/// Everything a snapshot freezes: which VM sits where, on which threads,
/// running what, on servers of what capacity. Cheap to share, O(placement)
/// to copy.
#[derive(Debug, Clone)]
struct Placement {
    /// Write a server's slots only through [`Placement::edit_server`].
    servers: Vec<Server>,
    /// Placement index: `by_free[f]` holds the servers with exactly `f`
    /// free threads, in ascending index order.
    by_free: Vec<BTreeSet<usize>>,
    vms: VmArena,
    next_id: u64,
    /// Per-server capacity degradation in `[0, 1)`; 0 means full capacity.
    /// Only the chaos engine sets this, so the vector stays all-zero (and
    /// the physics below stay branch-only, bit-identical) in chaos-off runs.
    degradation: Vec<f64>,
}

impl Cluster {
    /// Creates a cluster of `n` identical empty servers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `n` is zero or the spec is
    /// degenerate.
    pub fn new(n: usize, spec: ServerSpec, isolation: IsolationConfig) -> Result<Self, SimError> {
        if n == 0 {
            return Err(SimError::InvalidConfig {
                reason: "cluster needs at least one server".to_string(),
            });
        }
        let servers = (0..n)
            .map(|_| Server::new(spec))
            .collect::<Result<Vec<_>, _>>()?;
        let mut by_free = vec![BTreeSet::new(); spec.total_threads() as usize + 1];
        by_free[spec.total_threads() as usize] = (0..n).collect();
        Ok(Cluster {
            placement: Arc::new(Placement {
                servers,
                by_free,
                vms: VmArena::new(n),
                next_id: 0,
                degradation: vec![0.0; n],
            }),
            isolation,
            events: None,
            neighbor_visits: AtomicU64::new(0),
            shared: None,
        })
    }

    /// Makes room for `vms` more launches (their id table entries and,
    /// on a cluster that records its lifecycle log, their launch events)
    /// in one allocation each. A driver that builds a large cluster in one
    /// go calls it first: growing by doubling instead frees a trail of
    /// outgrown buffers, about as large in total as the final one, and
    /// other allocations then fragment the holes they leave. VM slots need
    /// no reserve: they grow by fixed pages.
    pub fn reserve(&mut self, vms: usize) {
        self.placement_mut().vms.reserve(vms);
        if let Some(log) = &mut self.events {
            log.reserve(vms);
        }
    }

    /// Turns the lifecycle log on: from now on every launch, termination,
    /// migration, profile swap and degradation of this cluster appends a
    /// [`TraceEvent`], and its later [`Cluster::snapshot`]s record too.
    /// Writes made before the call stay unrecorded. A driver calls it right
    /// after building the cluster, exactly when its telemetry will drain
    /// the log; a cluster nobody reads builds no events at all.
    pub fn record_events(&mut self) {
        self.events.get_or_insert_with(Vec::new);
    }

    /// Appends the event `make` builds, on a cluster that records its
    /// lifecycle log; on any other, `make` never runs.
    fn record(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(log) = &mut self.events {
            log.push(make());
        }
    }

    /// The only write path to the placement: unshares it first, so the
    /// first mutation after a [`Cluster::snapshot`] copies it once and
    /// every other instance sharing it keeps reading the old state.
    fn placement_mut(&mut self) -> &mut Placement {
        Arc::make_mut(&mut self.placement)
    }

    /// Detaches the shared sweep memo; called by every mutation that can
    /// change what a query observes. The memo is detached rather than
    /// cleared: other snapshots of the unmutated base cluster may still be
    /// reading it, while this instance's queries now answer for a diverged
    /// placement and must neither read nor publish.
    fn detach_sweep_memo(&mut self) {
        self.shared = None;
    }

    /// Attaches a cross-snapshot [`SweepMemo`]: until this instance next
    /// mutates, its deterministic probe queries consult (and publish to)
    /// `memo`, and [`Cluster::snapshot`]s inherit the handle. Results are
    /// byte-identical with or without a memo — only repeated co-resident
    /// walks are skipped; see [`SweepMemo`] for the argument.
    pub fn share_sweeps(&mut self, memo: Arc<SweepMemo>) {
        self.shared = Some(memo);
    }

    /// True when every resident of `server` emits deterministically
    /// (pressure override set, or zero profile noise), so query results
    /// are pure functions of cluster state and may be memoized. The
    /// stochastic path draws RNG per neighbor in a fixed order; caching
    /// it would skip draws and shift the stream, so it is excluded.
    ///
    /// Inside the test-only [`oracle`] scope nothing is cacheable and every
    /// query scans the whole arena in ascending-id order: the reference
    /// storage (the original global-map scan) the indexed paths must match.
    fn cacheable(&self, server: usize) -> bool {
        !oracle::enabled() && self.placement.vms.stochastic_on(server) == 0
    }

    /// Storage-layer instrumentation counters.
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats {
            live_vms: self.placement.vms.len(),
            arena_slots: self.placement.vms.slots(),
            free_slots: self.placement.vms.free_slots(),
            slots_reused: self.placement.vms.slots_reused,
            residency_ops: self.placement.vms.residency_ops,
            agg_hits: 0,
            agg_misses: 0,
            neighbor_visits: self.neighbor_visits.load(Ordering::Relaxed),
        }
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.placement.servers.len()
    }

    /// The active isolation configuration.
    pub fn isolation(&self) -> IsolationConfig {
        self.isolation
    }

    /// Replaces the isolation configuration of an already-populated
    /// cluster. Memo answers read the old attenuation, so the cluster
    /// detaches from its sweep memo.
    pub fn set_isolation(&mut self, isolation: IsolationConfig) {
        self.isolation = isolation;
        self.detach_sweep_memo();
    }

    /// Throttles a server's effective capacity by `factor` in `[0, 1)`
    /// (chaos injection: thermal capping, noisy maintenance daemons,
    /// oversubscription). A degraded server amplifies the contention every
    /// tenant on it experiences; `factor = 0` restores full capacity. A
    /// recording cluster logs the change as a [`TraceEvent::Degrade`].
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownServer`] for a bad server index.
    /// * [`SimError::InvalidConfig`] if `factor` is not in `[0, 1)`.
    pub fn set_degradation(&mut self, server: usize, factor: f64, at: f64) -> Result<(), SimError> {
        if server >= self.placement.servers.len() {
            return Err(SimError::UnknownServer {
                server,
                cluster_size: self.placement.servers.len(),
            });
        }
        if !(0.0..1.0).contains(&factor) {
            return Err(SimError::InvalidConfig {
                reason: format!("degradation factor {factor} outside [0, 1)"),
            });
        }
        self.placement_mut().degradation[server] = factor;
        self.record(|| TraceEvent::Degrade { server, factor, at });
        self.detach_sweep_memo();
        Ok(())
    }

    /// A server's current capacity degradation factor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownServer`] for a bad index.
    pub fn degradation_of(&self, server: usize) -> Result<f64, SimError> {
        self.placement
            .degradation
            .get(server)
            .copied()
            .ok_or(SimError::UnknownServer {
                server,
                cluster_size: self.placement.servers.len(),
            })
    }

    /// A server's slot state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownServer`] for an out-of-range index.
    pub fn server(&self, idx: usize) -> Result<&Server, SimError> {
        self.placement
            .servers
            .get(idx)
            .ok_or(SimError::UnknownServer {
                server: idx,
                cluster_size: self.placement.servers.len(),
            })
    }

    /// A placed VM's state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if the VM does not exist.
    pub fn vm(&self, id: VmId) -> Result<&VmState, SimError> {
        self.placement
            .vms
            .get(id)
            .ok_or(SimError::UnknownVm { vm: id })
    }

    /// All VM ids, in launch order. Borrows the arena instead of
    /// allocating: per-tick driver loops call this on every sweep.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.placement.vms.iter_ids()
    }

    /// VMs hosted on one server, sorted by ascending id — a borrow of the
    /// residency index, O(1) to obtain.
    pub fn vms_on(&self, server: usize) -> &[VmId] {
        self.placement.vms.on_server(server)
    }

    /// Launches a VM on a specific server.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownServer`] for a bad server index.
    /// * [`SimError::InsufficientCapacity`] if the server is full.
    pub fn launch_on(
        &mut self,
        server: usize,
        profile: WorkloadProfile,
        role: VmRole,
        at: f64,
    ) -> Result<VmId, SimError> {
        if server >= self.placement.servers.len() {
            return Err(SimError::UnknownServer {
                server,
                cluster_size: self.placement.servers.len(),
            });
        }
        let core_iso = self.isolation.mechanisms.core_isolation;
        let recording = self.events.is_some();
        let placement = self.placement_mut();
        let id = VmId(placement.next_id);
        let vcpus = profile.vcpus();
        let threads = placement
            .edit_server(server, |s| s.place(id, vcpus, core_iso))
            .map_err(at_server(server))?;
        placement.next_id += 1;
        let event = recording.then(|| TraceEvent::Launch {
            vm: id,
            role,
            server,
            threads: threads.clone(),
            label: profile.label().to_string(),
            at,
        });
        placement.vms.insert(
            id,
            VmState {
                profile,
                role,
                server,
                threads,
                launched_at: at,
                pressure_override: None,
            },
        );
        if let Some(event) = event {
            self.record(|| event);
        }
        self.detach_sweep_memo();
        Ok(id)
    }

    /// Launches a VM on a specific server with *user-pinned* (random)
    /// thread placement — the EC2 user-study setting where tenants pick
    /// their own cores. Not available under core isolation.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownServer`] / [`SimError::InsufficientCapacity`]
    ///   as for [`Cluster::launch_on`].
    /// * [`SimError::InvalidConfig`] if core isolation is active (isolated
    ///   placements must take whole cores).
    pub fn launch_pinned<R: Rng>(
        &mut self,
        server: usize,
        profile: WorkloadProfile,
        role: VmRole,
        at: f64,
        rng: &mut R,
    ) -> Result<VmId, SimError> {
        if self.isolation.mechanisms.core_isolation {
            return Err(SimError::InvalidConfig {
                reason: "user pinning is incompatible with core isolation".to_string(),
            });
        }
        if server >= self.placement.servers.len() {
            return Err(SimError::UnknownServer {
                server,
                cluster_size: self.placement.servers.len(),
            });
        }
        let recording = self.events.is_some();
        let placement = self.placement_mut();
        let id = VmId(placement.next_id);
        let vcpus = profile.vcpus();
        let threads = placement
            .edit_server(server, |s| s.place_pinned(id, vcpus, rng))
            .map_err(at_server(server))?;
        placement.next_id += 1;
        let event = recording.then(|| TraceEvent::Launch {
            vm: id,
            role,
            server,
            threads: threads.clone(),
            label: profile.label().to_string(),
            at,
        });
        placement.vms.insert(
            id,
            VmState {
                profile,
                role,
                server,
                threads,
                launched_at: at,
                pressure_override: None,
            },
        );
        if let Some(event) = event {
            self.record(|| event);
        }
        self.detach_sweep_memo();
        Ok(id)
    }

    /// Terminates a VM, freeing its threads. Idempotent-ish: terminating an
    /// unknown VM is an error so tests catch double-frees.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if the VM does not exist.
    pub fn terminate(&mut self, id: VmId) -> Result<(), SimError> {
        self.vm(id)?; // reject before unsharing: a failed write copies nothing
        let placement = self.placement_mut();
        let state = placement.vms.remove(id).expect("vm is live");
        placement.edit_server(state.server, |s| s.remove(id));
        self.record(|| TraceEvent::Terminate {
            vm: id,
            server: state.server,
        });
        self.detach_sweep_memo();
        Ok(())
    }

    /// Live-migrates a VM to another server (the paper's DoS defense: the
    /// cluster supports live migration with ~8 s of overhead, handled by
    /// the experiment driver).
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownVm`] / [`SimError::UnknownServer`] for bad ids.
    /// * [`SimError::InsufficientCapacity`] if the target is full; the VM
    ///   stays where it was.
    pub fn migrate(&mut self, id: VmId, to: usize) -> Result<(), SimError> {
        if to >= self.placement.servers.len() {
            return Err(SimError::UnknownServer {
                server: to,
                cluster_size: self.placement.servers.len(),
            });
        }
        let (from, vcpus) = {
            let state = self.vm(id)?;
            (state.server, state.vcpus())
        };
        let core_iso = self.isolation.mechanisms.core_isolation;
        if !self.placement.servers[to].can_host(vcpus, core_iso) {
            return Err(SimError::InsufficientCapacity {
                server: to,
                requested: vcpus,
                available: self.placement.servers[to].free_threads(),
            });
        }
        let placement = self.placement_mut();
        placement.edit_server(from, |s| s.remove(id));
        let threads = placement
            .edit_server(to, |s| s.place(id, vcpus, core_iso))
            .expect("capacity just checked");
        placement.vms.relocate(id, to, threads);
        self.record(|| TraceEvent::Migrate { vm: id, from, to });
        self.detach_sweep_memo();
        Ok(())
    }

    /// Replaces a VM's workload in place — the "consecutive jobs on one
    /// instance" pattern of the paper's Fig. 8 (users keep an instance and
    /// run different applications on it over time). The VM keeps its
    /// placement when the new job fits the same vCPU count; otherwise it
    /// is re-placed on the same server.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownVm`] if the VM does not exist.
    /// * [`SimError::InsufficientCapacity`] if a larger replacement does
    ///   not fit (the original VM keeps its profile and threads).
    pub fn swap_profile(&mut self, id: VmId, profile: WorkloadProfile) -> Result<(), SimError> {
        let (server, old_vcpus) = {
            let state = self.vm(id)?;
            (state.server, state.vcpus())
        };
        if profile.vcpus() == old_vcpus {
            self.record(|| TraceEvent::SwapProfile {
                vm: id,
                label: profile.label().to_string(),
            });
            self.placement_mut().vms.set_profile(id, profile, None);
            self.detach_sweep_memo();
            return Ok(());
        }
        let core_iso = self.isolation.mechanisms.core_isolation;
        let recording = self.events.is_some();
        let placement = self.placement_mut();
        let vcpus = profile.vcpus();
        let threads = placement
            .edit_server(server, |s| {
                // Put the old threads back verbatim if the new size does
                // not fit: re-placing the old size could itself fail (core
                // isolation may have been switched on since it landed).
                let before = s.clone();
                s.remove(id);
                let placed = s.place(id, vcpus, core_iso);
                if placed.is_err() {
                    *s = before;
                }
                placed
            })
            .map_err(at_server(server))?;
        let label = recording.then(|| profile.label().to_string());
        placement.vms.set_profile(id, profile, Some(threads));
        if let Some(label) = label {
            self.record(|| TraceEvent::SwapProfile { vm: id, label });
        }
        self.detach_sweep_memo();
        Ok(())
    }

    /// Sets (or clears, with `None`) a VM's pressure override. Attack
    /// programs and probes drive their contention this way.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if the VM does not exist.
    pub fn set_pressure_override(
        &mut self,
        id: VmId,
        pressure: Option<PressureVector>,
    ) -> Result<(), SimError> {
        self.vm(id)?;
        let live = self.placement_mut().vms.set_override(id, pressure);
        debug_assert!(live, "liveness checked above");
        self.detach_sweep_memo();
        Ok(())
    }

    /// The pressure a VM generates at time `t` (override, if set, else the
    /// profile's time-varying pressure with its load pattern and noise).
    fn generated_pressure<R: Rng>(
        &self,
        id: VmId,
        state: &VmState,
        t: f64,
        rng: &mut R,
    ) -> PressureVector {
        match state.pressure_override.as_deref() {
            Some(&p) => p,
            None => {
                let interference = self.neighbor_scan(id, state, t, rng, false);
                coupled_emission(state, &interference, t, rng)
            }
        }
    }

    /// The contention a VM experiences from its co-residents at time `t`,
    /// per resource, after isolation attenuation.
    ///
    /// Core resources only receive pressure from VMs sharing a physical
    /// core; uncore resources from every co-resident, with demand beyond
    /// capacity saturating at 100.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if the VM does not exist.
    pub fn interference_on<R: Rng>(
        &self,
        id: VmId,
        t: f64,
        rng: &mut R,
    ) -> Result<PressureVector, SimError> {
        let state = self.vm(id)?;
        // A coupled probe on a deterministic server reads a resident table,
        // whose core masks need a host of at most 64 cores.
        let table = self.cacheable(state.server)
            && self.placement.servers[state.server].spec().cores <= u64::BITS;
        let query = Query::Neighbors { id: id.raw() };
        Ok(self.memoized(state.server, query, (t.to_bits(), 0), || {
            if table {
                self.coupled_table_scan(id, state, t, rng)
            } else {
                self.neighbor_scan(id, state, t, rng, true)
            }
        }))
    }

    /// One step of a cache-allocation sweep: the aggregate LLC-pressure
    /// response `id` observes when its own probe working set occupies
    /// `probe_alloc` of the LLC (fraction in `[0, 1]`).
    ///
    /// The LLC is an uncore resource, so every same-server co-resident
    /// contributes regardless of core placement — the same sharing-domain
    /// physics as [`Cluster::interference_on`]. Each co-resident's
    /// contribution is its emitted LLC pressure at `t` scaled by its
    /// miss rate in the cache share the probe leaves it
    /// ([`mrc::sweep_response`]): streaming tenants push back at every
    /// allocation level, cache-resident tenants only once the probe
    /// crosses their working-set knee. Override-driven VMs (attack
    /// programs, quiesced adversaries) have no reuse structure behind
    /// their synthetic pressure and respond as pure streams. Isolation
    /// attenuation and server degradation apply exactly as for the
    /// pressure probes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if the VM does not exist, and
    /// [`SimError::InvalidConfig`] for a `probe_alloc` outside `[0, 1]`.
    pub fn cache_sweep_response<R: Rng>(
        &self,
        id: VmId,
        probe_alloc: f64,
        t: f64,
        rng: &mut R,
    ) -> Result<f64, SimError> {
        if !(0.0..=1.0).contains(&probe_alloc) {
            return Err(SimError::InvalidConfig {
                reason: format!("probe allocation {probe_alloc} outside [0, 1]"),
            });
        }
        let state = self.vm(id)?;
        let stamp = (t.to_bits(), probe_alloc.to_bits());
        Ok(
            self.memoized(state.server, Query::Sweep { id: id.raw() }, stamp, || {
                self.sweep_scan(id, state, probe_alloc, t, rng)
            }),
        )
    }

    /// The uncached LLC-sweep walk over the observer's co-residents.
    fn sweep_scan<R: Rng>(
        &self,
        id: VmId,
        state: &VmState,
        probe_alloc: f64,
        t: f64,
        rng: &mut R,
    ) -> f64 {
        let atten = self.isolation.attenuation(Resource::Llc);
        let mut total = 0.0;
        let candidates = self.candidates(state.server);
        self.count_visits(candidates.len());
        for &other_id in candidates.iter() {
            if other_id == id {
                continue;
            }
            let other = self.placement.vms.get(other_id).expect("candidate is live");
            if other.server != state.server {
                continue; // reference mode scans the whole arena
            }
            let response = match other.pressure_override.as_deref() {
                // Synthetic pressure has no working set: it misses at
                // every allocation, like a stream.
                Some(p) => p[Resource::Llc],
                None => {
                    let p = other.profile.pressure_at(t, 1.0, rng);
                    let curve = mrc::derive_mrc(&other.profile);
                    mrc::sweep_response(&curve, p[Resource::Llc], probe_alloc)
                }
            };
            total += response * atten;
        }
        let d = self.placement.degradation[state.server];
        if d > 0.0 {
            total = (total * (1.0 + d)).min(100.0);
        }
        total.min(100.0)
    }

    /// The memo protocol of every probe query about `server`. On a
    /// [`Cluster::cacheable`] server with a [`SweepMemo`] attached: consult
    /// it, else `scan` and publish the result. Elsewhere `scan` alone.
    fn memoized<V: Memoized>(
        &self,
        server: usize,
        query: Query,
        stamp: Stamp,
        scan: impl FnOnce() -> V,
    ) -> V {
        let Some(memo) = self.shared.as_deref().filter(|_| self.cacheable(server)) else {
            return scan();
        };
        if let Some(answer) = memo.get(query, stamp) {
            return V::from_answer(answer);
        }
        let v = scan();
        memo.put(query, stamp, v.into_answer());
        v
    }

    /// The candidates a walk over `server`'s residents visits: the
    /// residency index, or inside the test-only [`oracle`] scope the whole
    /// arena in ascending-id order (the walk then skips other servers).
    fn candidates(&self, server: usize) -> Cow<'_, [VmId]> {
        if oracle::enabled() {
            Cow::Owned(self.placement.vms.iter_ids().collect())
        } else {
            Cow::Borrowed(self.placement.vms.on_server(server))
        }
    }

    /// The neighbor walk: the attenuated cross-tenant pressure arriving at
    /// `state` from all co-residents, per resource, with or without the
    /// progress coupling (the uncoupled walk is what the coupling recurses
    /// into). Visits the observer's co-residents through the residency
    /// index, in ascending-id order — the same order (and the same RNG
    /// draw order) the old whole-cluster scan produced for this server.
    /// Stochastic servers, the reference scope and uncoupled queries take
    /// this walk; a coupled probe on a deterministic server takes
    /// [`Cluster::coupled_table_scan`].
    fn neighbor_scan<R: Rng>(
        &self,
        id: VmId,
        state: &VmState,
        t: f64,
        rng: &mut R,
        couple_progress: bool,
    ) -> PressureVector {
        let tpc = self.placement.servers[state.server].spec().threads_per_core;
        let candidates = self.candidates(state.server);
        self.count_visits(candidates.len());
        let mut sum = NeighborSum::new(&self.isolation);
        for &other_id in candidates.iter() {
            if other_id == id {
                continue;
            }
            let other = self.placement.vms.get(other_id).expect("candidate is live");
            if other.server != state.server {
                continue; // reference mode scans the whole arena
            }
            let p = if couple_progress {
                self.generated_pressure(other_id, other, t, rng)
            } else {
                raw_emission(other, t, rng)
            };
            sum.add_emission(p, share_a_core(state, other, tpc));
        }
        sum.finish(self.placement.degradation[state.server])
    }

    /// A coupled probe on a deterministic server. Each neighbor's coupled
    /// emission needs that neighbor's own raw interference, which walks
    /// the same residents again; those k inner walks read one
    /// [`Resident`] table instead of re-evaluating every resident k times,
    /// and each neighbor's coupled emission starts from the load-scaled
    /// pressure its entry keeps.
    ///
    /// The table is built first and dropped when this walk returns. Every
    /// walk counts the same visits as in [`Cluster::neighbor_scan`], so
    /// results, RNG stream (no deterministic resident draws) and storage
    /// counters are unchanged.
    fn coupled_table_scan<R: Rng>(
        &self,
        id: VmId,
        state: &VmState,
        t: f64,
        rng: &mut R,
    ) -> PressureVector {
        let tpc = self.placement.servers[state.server].spec().threads_per_core;
        let residents = self.placement.vms.on_server(state.server);
        self.count_visits(residents.len());
        let table = self.resident_table(residents, tpc, t, rng);
        let cores = core_mask(&state.threads, tpc);
        let mut sum = NeighborSum::new(&self.isolation);
        for (i, resident) in table.iter().enumerate() {
            if resident.id == id {
                continue;
            }
            let p = match resident.coupling {
                None => resident.operands.raw,
                Some((profile, scaled)) => {
                    let interference = self.table_scan(&table, i, state.server);
                    profile.emit(&scaled, perf::progress_rate(profile, &interference), rng)
                }
            };
            sum.add_emission(p, resident.cores & cores != 0);
        }
        sum.finish(self.placement.degradation[state.server])
    }

    /// Every resident's core mask, load-scaled pressure and raw emission
    /// at `t`, in residency-index order: the operands every inner walk
    /// folds.
    fn resident_table<R: Rng>(
        &self,
        residents: &[VmId],
        threads_per_core: u32,
        t: f64,
        rng: &mut R,
    ) -> Vec<Resident<'_>> {
        let fold = NeighborSum::new(&self.isolation);
        residents
            .iter()
            .map(|&id| {
                let state = self.placement.vms.get(id).expect("resident is live");
                let (coupling, raw) = match state.pressure_override.as_deref() {
                    Some(&p) => (None, p),
                    None => {
                        let scaled = state.profile.load_scaled_at(t);
                        let raw = state.profile.emit(&scaled, 1.0, rng);
                        (Some((&state.profile, scaled)), raw)
                    }
                };
                Resident {
                    id,
                    cores: core_mask(&state.threads, threads_per_core),
                    coupling,
                    operands: fold.operands(raw),
                }
            })
            .collect()
    }

    /// The uncoupled walk for the resident at `table[observer]`: the sum
    /// [`Cluster::neighbor_scan`] computes without progress coupling,
    /// bit for bit, in the same order.
    fn table_scan(&self, table: &[Resident], observer: usize, server: usize) -> PressureVector {
        self.count_visits(table.len());
        let cores = table[observer].cores;
        let mut sum = NeighborSum::new(&self.isolation);
        for (i, resident) in table.iter().enumerate() {
            if i != observer {
                sum.add(&resident.operands, resident.cores & cores != 0);
            }
        }
        sum.finish(self.placement.degradation[server])
    }

    /// Adds one walk's `candidates` to the neighbor-visit counter: one
    /// atomic add per walk, not one per candidate.
    fn count_visits(&self, candidates: usize) {
        self.neighbor_visits
            .fetch_add(candidates as u64, Ordering::Relaxed);
    }

    /// CPU utilization (percent) over the *occupied* hyperthreads of a
    /// server — what the migration monitor samples (paper §5.1: victims
    /// are migrated when utilization exceeds 70%).
    ///
    /// CPU contention inflates each tenant's own CPU demand (work takes
    /// more cycles under contention), which is why a naive compute-kernel
    /// DoS trips the monitor while Bolt's cache attack does not.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownServer`] for a bad index.
    pub fn cpu_utilization<R: Rng>(
        &self,
        server: usize,
        t: f64,
        rng: &mut R,
    ) -> Result<f64, SimError> {
        if server >= self.placement.servers.len() {
            return Err(SimError::UnknownServer {
                server,
                cluster_size: self.placement.servers.len(),
            });
        }
        Ok(self.utilization_scan(server, t, rng))
    }

    /// The uncached utilization walk over one server's residents.
    fn utilization_scan<R: Rng>(&self, server: usize, t: f64, rng: &mut R) -> f64 {
        let mut busy = 0.0;
        let mut occupied = 0u32;
        let candidates = self.candidates(server);
        self.count_visits(candidates.len());
        for &vm_id in candidates.iter() {
            let state = self.placement.vms.get(vm_id).expect("candidate is live");
            if state.server != server {
                continue; // reference mode scans the whole arena
            }
            // A stalled thread still burns its timeslice, so utilization
            // accounting deliberately skips the progress coupling.
            let own = raw_emission(state, t, rng)[Resource::Cpu];
            let contention = self.neighbor_scan(vm_id, state, t, rng, false)[Resource::Cpu];
            let mut effective = (own * (1.0 + 2.0 * contention / 100.0)).min(100.0);
            let d = self.placement.degradation[server];
            if d > 0.0 {
                effective = (effective * (1.0 + d)).min(100.0);
            }
            busy += effective * state.vcpus() as f64;
            occupied += state.vcpus();
        }
        if occupied == 0 {
            return 0.0;
        }
        busy / occupied as f64
    }

    /// The victim-side performance of a VM at time `t`: `(p99 latency in
    /// ms, slowdown factor)` for interactive workloads, `(base latency,
    /// slowdown)` for batch. Includes the isolation configuration's
    /// blanket performance penalty (e.g. core isolation's 34%).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownVm`] if the VM does not exist.
    pub fn performance_of<R: Rng>(
        &self,
        id: VmId,
        t: f64,
        rng: &mut R,
    ) -> Result<(f64, f64), SimError> {
        let state = self.vm(id)?;
        let interference = self.neighbor_scan(id, state, t, rng, false);
        let penalty = self.isolation.performance_penalty();
        match state.profile.kind() {
            WorkloadKind::Interactive => {
                let load = state.profile.load().level(t);
                let amp = perf::tail_latency_factor(&state.profile, &interference, load) * penalty;
                Ok((state.profile.base_latency_ms() * amp, amp))
            }
            WorkloadKind::Batch => {
                let s = perf::batch_slowdown_factor(&state.profile, &interference) * penalty;
                Ok((state.profile.base_latency_ms() * s, s))
            }
        }
    }

    /// The lifecycle events recorded so far, in order. Empty unless
    /// [`Cluster::record_events`] turned the log on (for this cluster or
    /// the one it was snapshotted from).
    pub fn events(&self) -> &[TraceEvent] {
        self.events.as_deref().unwrap_or_default()
    }

    /// Drains and returns the recorded lifecycle events; the log stays on
    /// if it was. Empty unless [`Cluster::record_events`] turned it on.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The cluster as observed at this instant, for read-only work (e.g.
    /// a detection pass) that proceeds while the original keeps evolving.
    ///
    /// Cost: O(1) to take and to drop. The snapshot *shares* the
    /// placement — servers, VMs, their residency index, the free-thread
    /// placement index and the degradation vector — with `self`
    /// copy-on-write: the first mutation on either side copies it once
    /// (O(placement)) and only that side moves on; the other keeps
    /// reading the old state. A snapshot that is only queried never
    /// copies.
    ///
    /// Per instance, as before: the isolation config (copied), the event
    /// log (the snapshot's starts empty — it is an append-only trace of
    /// the live cluster, and copying it would make snapshots O(history) —
    /// and records exactly when `self` records, so a traced driver's
    /// private snapshots trace their own writes), and the neighbor-visit
    /// counter (fresh: a new observation domain).
    /// The
    /// [`SweepMemo`] handle is inherited: the snapshot observes the same
    /// base placement, so published sweeps stay valid for it until it
    /// mutates (which detaches it).
    pub fn snapshot(&self) -> Cluster {
        Cluster {
            placement: Arc::clone(&self.placement),
            isolation: self.isolation,
            events: self.events.as_ref().map(|_| Vec::new()),
            neighbor_visits: AtomicU64::new(0),
            shared: self.shared.clone(),
        }
    }

    /// The server index with the most free threads (ties to the lowest
    /// index) that can host `vcpus`, or `None` if the cluster is full —
    /// the primitive behind the least-loaded scheduler and the migration
    /// defense's target choice.
    ///
    /// Cost: O(threads per server + log n) for n servers without core
    /// isolation — a walk over the empty free-thread buckets above the
    /// answer and one B-tree lookup; the region is never scanned. Under
    /// core isolation each candidate is also checked for whole free
    /// cores, so servers whose free threads are scattered across cores
    /// add one `can_host` check each.
    pub fn least_loaded_server(&self, vcpus: u32) -> Option<usize> {
        let core_iso = self.isolation.mechanisms.core_isolation;
        let placement = &*self.placement;
        // Most free threads first, lowest index first within a bucket: the
        // first server that can host is the scan's answer. Hosting needs
        // at least `vcpus` free threads in either mode, so emptier
        // buckets stop the walk.
        placement
            .by_free
            .iter()
            .enumerate()
            .rev()
            .take_while(|&(free, _)| free >= vcpus as usize)
            .flat_map(|(_, bucket)| bucket)
            .copied()
            .find(|&i| placement.servers[i].can_host(vcpus, core_iso))
    }
}

/// One resident of a coupled probe's table (see
/// [`Cluster::coupled_table_scan`]): its id, the physical cores it owns
/// hyperthreads of, and its raw emission at the probe's time, ready to
/// fold.
struct Resident<'a> {
    id: VmId,
    /// Bit `c` set for each physical core `c` the resident has a thread
    /// on ([`core_mask`]): two residents share a core when their masks
    /// intersect.
    cores: u64,
    /// Without a pressure override: the resident's profile and its
    /// load-scaled pressure at the probe's time, which its coupled
    /// emission starts from. `None` for an override, which is emitted
    /// as is.
    coupling: Option<(&'a WorkloadProfile, PressureVector)>,
    operands: FoldOperands,
}

/// A VM's emission at `t` with no progress coupling: its override, if
/// set, else its profile's pressure at full progress.
fn raw_emission<R: Rng>(state: &VmState, t: f64, rng: &mut R) -> PressureVector {
    match state.pressure_override.as_deref() {
        Some(&p) => p,
        None => state.profile.pressure_at(t, 1.0, rng),
    }
}

/// One-step RFA coupling: a victim stalled by `interference` exerts less
/// pressure on its non-critical resources.
fn coupled_emission<R: Rng>(
    state: &VmState,
    interference: &PressureVector,
    t: f64,
    rng: &mut R,
) -> PressureVector {
    let progress = perf::progress_rate(&state.profile, interference);
    state.profile.pressure_at(t, progress, rng)
}

/// The physical cores `threads` sit on, as a bitmask: bit `x / tpc` for
/// each thread `x`. Masks of two tenants intersect exactly when
/// [`share_a_core`] holds. Only for hosts of at most 64 cores: a larger
/// core index would shift past the mask.
fn core_mask(threads: &[usize], threads_per_core: u32) -> u64 {
    let tpc = threads_per_core as usize;
    threads.iter().fold(0, |mask, &x| mask | 1 << (x / tpc))
}

/// True when `a` and `b` own hyperthreads of one physical core — the
/// same answer as intersecting their [`VmState::cores`], without
/// allocating either list. One division per thread of `a`: each of `b`'s
/// threads is range-checked against the thread span of `a`'s core.
fn share_a_core(a: &VmState, b: &VmState, threads_per_core: u32) -> bool {
    let tpc = threads_per_core as usize;
    a.threads.iter().any(|&x| {
        let first = x - x % tpc;
        b.threads.iter().any(|&y| (first..first + tpc).contains(&y))
    })
}

/// One co-resident's emission as [`NeighborSum::add`] folds it. Each part
/// depends on the emission and the isolation config alone, not on the
/// observer, so a resident table computes them once per probe rather than
/// once per inner walk.
struct FoldOperands {
    /// The emission, all ten lanes: what a static core-sharer sees.
    raw: PressureVector,
    /// The emission with its core lanes zeroed: what everyone else sees.
    uncore: [f64; RESOURCE_COUNT],
    /// The emission's core-lane total, which ranks float candidates.
    core_total: f64,
    /// The core lanes that leak through scheduler float (`p·float·atten`).
    leak: PressureVector,
    /// The leak's core-lane total.
    leak_total: f64,
}

/// The running sum of one neighbor walk as one observer sees it.
struct NeighborSum {
    /// Attenuation depends only on the isolation config: hoisted once per
    /// walk instead of re-matched per neighbor lane.
    atten: [f64; RESOURCE_COUNT],
    float: f64,
    total: PressureVector,
    /// Scheduler-float candidate: without pinning, threads of
    /// non-core-sharing tenants occasionally land on the observer's
    /// sibling hyperthreads. The *loudest* (most CPU-hungry) neighbor
    /// dominates those co-schedulings, so only its core pressure leaks.
    float_candidate: Option<PressureVector>,
    /// The candidate's leak total, or -1 before the first candidate. A
    /// neighbor replaces the candidate when its *raw* core total exceeds
    /// this *leaked* one.
    candidate_total: f64,
    has_static_sharer: bool,
}

impl NeighborSum {
    fn new(isolation: &IsolationConfig) -> Self {
        NeighborSum {
            atten: isolation.attenuation_array(),
            float: isolation.float_visibility(),
            total: PressureVector::zero(),
            float_candidate: None,
            candidate_total: -1.0,
            has_static_sharer: false,
        }
    }

    /// The fold operands of emission `p` under this walk's isolation.
    fn operands(&self, p: PressureVector) -> FoldOperands {
        let core_sum = |v: &PressureVector| Resource::CORE.iter().map(|&r| v[r]).sum::<f64>();
        let mut uncore = *p.as_array();
        let mut leak = PressureVector::zero();
        for r in Resource::CORE {
            uncore[r.index()] = 0.0;
            leak[r] = p[r] * self.float * self.atten[r.index()];
        }
        FoldOperands {
            raw: p,
            uncore,
            core_total: core_sum(&p),
            leak,
            leak_total: core_sum(&leak),
        }
    }

    /// Adds one co-resident's emission `p`.
    fn add_emission(&mut self, p: PressureVector, shares_core: bool) {
        let operands = self.operands(p);
        self.add(&operands, shares_core);
    }

    /// Adds one co-resident's emission, given as its fold operands.
    fn add(&mut self, o: &FoldOperands, shares_core: bool) {
        self.has_static_sharer |= shares_core;
        // Core lanes are only visible from static core-sharers; folding
        // the zeroed copy with one fused multiply-accumulate-saturate over
        // all ten lanes reproduces the old per-lane math bit for bit
        // (0.0 · attenuation adds +0.0, as before).
        let visible = if shares_core {
            o.raw.as_array()
        } else {
            &o.uncore
        };
        kernels::sat_accum(self.total.as_mut_array(), visible, &self.atten, 100.0);

        if !shares_core && self.float > 0.0 && o.core_total > self.candidate_total {
            self.float_candidate = Some(o.leak);
            self.candidate_total = o.leak_total;
        }
    }

    /// The walk's result on a server with capacity degradation `d`.
    fn finish(self, d: f64) -> PressureVector {
        let mut total = self.total;
        // Float leakage only reaches us while our sibling hyperthreads are
        // otherwise idle; a static core-sharer occupies them.
        if !self.has_static_sharer {
            if let Some(leak) = self.float_candidate {
                total = total.saturating_add(&leak);
            }
        }
        // A throttled server has less effective capacity, so the same
        // co-resident demand fills more of it. The branch keeps the math
        // bit-identical when no degradation was ever injected.
        if d > 0.0 {
            kernels::sat_scale(total.as_mut_array(), 1.0 + d, 100.0);
        }
        total
    }
}

/// Stamps `server` into a [`Server`]-level capacity error, which cannot
/// know its own index.
fn at_server(server: usize) -> impl Fn(SimError) -> SimError {
    move |e| match e {
        SimError::InsufficientCapacity {
            requested,
            available,
            ..
        } => SimError::InsufficientCapacity {
            server,
            requested,
            available,
        },
        other => other,
    }
}

impl Placement {
    /// Applies `edit` to server `idx`'s slots and re-files the server in
    /// `by_free` if its free-thread count moved. Every write to a
    /// server's slots goes through here, so the index never goes stale.
    fn edit_server<T>(&mut self, idx: usize, edit: impl FnOnce(&mut Server) -> T) -> T {
        let server = &mut self.servers[idx];
        let was = server.free_threads() as usize;
        let out = edit(server);
        let now = server.free_threads() as usize;
        if now != was {
            let filed = self.by_free[was].remove(&idx);
            debug_assert!(filed, "server {idx} was filed under {was} free threads");
            self.by_free[now].insert(idx);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_workloads::{catalog, DatasetScale};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB017)
    }

    fn cluster(n: usize) -> Cluster {
        Cluster::new(n, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap()
    }

    fn hadoop(rng: &mut StdRng) -> WorkloadProfile {
        catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::WordCount,
            DatasetScale::Small,
            rng,
        )
    }

    fn memcached(rng: &mut StdRng) -> WorkloadProfile {
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng)
    }

    #[test]
    fn empty_cluster_rejected() {
        assert!(Cluster::new(0, ServerSpec::xeon(), IsolationConfig::cloud_default()).is_err());
    }

    #[test]
    fn launch_and_terminate_lifecycle() {
        let mut r = rng();
        let mut c = cluster(2);
        let profile = hadoop(&mut r);
        let vcpus = profile.vcpus();
        let id = c.launch_on(1, profile, VmRole::Friendly, 0.0).unwrap();
        assert_eq!(c.vm(id).unwrap().server, 1);
        assert_eq!(c.vm(id).unwrap().vcpus(), vcpus);
        assert_eq!(c.vms_on(1), vec![id]);
        c.terminate(id).unwrap();
        assert!(c.vm(id).is_err());
        assert!(matches!(c.terminate(id), Err(SimError::UnknownVm { .. })));
    }

    #[test]
    fn launch_on_bad_server_fails() {
        let mut r = rng();
        let mut c = cluster(2);
        assert!(matches!(
            c.launch_on(5, hadoop(&mut r), VmRole::Friendly, 0.0),
            Err(SimError::UnknownServer { .. })
        ));
    }

    #[test]
    fn capacity_error_carries_server_index() {
        let mut r = rng();
        let mut c = cluster(1);
        for _ in 0..4 {
            c.launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
                .unwrap();
        }
        match c.launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0) {
            Err(SimError::InsufficientCapacity { server, .. }) => assert_eq!(server, 0),
            other => panic!("expected capacity error, got {other:?}"),
        }
    }

    #[test]
    fn solo_vm_sees_zero_interference() {
        let mut r = rng();
        let mut c = cluster(1);
        let id = c
            .launch_on(0, memcached(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        let i = c.interference_on(id, 10.0, &mut r).unwrap();
        assert!(i.is_zero(), "solo VM should see no contention, got {i}");
    }

    #[test]
    fn colocated_vms_see_uncore_interference() {
        let mut r = rng();
        let mut c = cluster(1);
        let a = c
            .launch_on(0, memcached(&mut r), VmRole::Adversarial, 0.0)
            .unwrap();
        let _b = c
            .launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        let i = c.interference_on(a, 10.0, &mut r).unwrap();
        // Hadoop's disk traffic is uncore and fully visible.
        assert!(
            i[Resource::DiskBw] > 10.0,
            "expected disk contention, got {i}"
        );
    }

    #[test]
    fn core_interference_requires_core_sharing() {
        let mut r = rng();
        // Pin threads so the scheduler-float channel is closed and core
        // visibility comes from static sibling sharing alone.
        let isolation = IsolationConfig {
            setting: crate::isolation::OsSetting::VirtualMachines,
            mechanisms: crate::isolation::Mechanisms {
                thread_pinning: true,
                ..crate::isolation::Mechanisms::none()
            },
        };
        let mut c = Cluster::new(1, ServerSpec::xeon(), isolation).unwrap();
        // Two 4-vCPU VMs spread over 8 cores: no core sharing.
        let a = c
            .launch_on(0, memcached(&mut r), VmRole::Adversarial, 0.0)
            .unwrap();
        let b = c
            .launch_on(0, memcached(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        let i = c.interference_on(a, 5.0, &mut r).unwrap();
        assert_eq!(i[Resource::L1i], 0.0, "no core shared -> no L1i contention");

        // A third 4-vCPU VM and a fourth force sibling sharing.
        let _c3 = c
            .launch_on(0, memcached(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        let _c4 = c
            .launch_on(0, memcached(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        let i2 = c.interference_on(a, 5.0, &mut r).unwrap();
        assert!(
            i2[Resource::L1i] > 0.0,
            "core sharing at 16/16 threads must produce L1i contention"
        );
        let _ = b;
    }

    #[test]
    fn interference_saturates_at_100() {
        let mut r = rng();
        let mut c = cluster(1);
        let a = c
            .launch_on(0, memcached(&mut r), VmRole::Adversarial, 0.0)
            .unwrap();
        for _ in 0..3 {
            let id = c
                .launch_on(0, memcached(&mut r), VmRole::Friendly, 0.0)
                .unwrap();
            c.set_pressure_override(id, Some(PressureVector::from_raw([100.0; 10])))
                .unwrap();
        }
        let i = c.interference_on(a, 0.0, &mut r).unwrap();
        assert!(i.is_valid());
        assert_eq!(i[Resource::MemBw], 100.0);
    }

    #[test]
    fn pressure_override_replaces_profile_pressure() {
        let mut r = rng();
        let mut c = cluster(1);
        let a = c
            .launch_on(0, memcached(&mut r), VmRole::Adversarial, 0.0)
            .unwrap();
        let b = c
            .launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        c.set_pressure_override(
            b,
            Some(PressureVector::from_pairs(&[(Resource::NetBw, 90.0)])),
        )
        .unwrap();
        let i = c.interference_on(a, 0.0, &mut r).unwrap();
        assert!((i[Resource::NetBw] - 90.0).abs() < 1e-9);
        assert_eq!(
            i[Resource::DiskBw],
            0.0,
            "override suppresses profile pressure"
        );
        c.set_pressure_override(b, None).unwrap();
        let i2 = c.interference_on(a, 0.0, &mut r).unwrap();
        assert!(
            i2[Resource::DiskBw] > 0.0,
            "cleared override restores profile"
        );
    }

    #[test]
    fn migration_moves_vm_and_frees_source() {
        let mut r = rng();
        let mut c = cluster(2);
        let id = c
            .launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        c.migrate(id, 1).unwrap();
        assert_eq!(c.vm(id).unwrap().server, 1);
        assert_eq!(c.server(0).unwrap().used_threads(), 0);
        assert_eq!(c.server(1).unwrap().used_threads(), 4);
    }

    #[test]
    fn migration_to_full_server_fails_in_place() {
        let mut r = rng();
        let mut c = cluster(2);
        for _ in 0..4 {
            c.launch_on(1, hadoop(&mut r), VmRole::Friendly, 0.0)
                .unwrap();
        }
        let id = c
            .launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        assert!(c.migrate(id, 1).is_err());
        assert_eq!(
            c.vm(id).unwrap().server,
            0,
            "failed migration must not move the VM"
        );
    }

    #[test]
    fn utilization_zero_when_empty_and_rises_with_tenants() {
        let mut r = rng();
        let mut c = cluster(1);
        assert_eq!(c.cpu_utilization(0, 0.0, &mut r).unwrap(), 0.0);
        let id = c
            .launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        let u1 = c.cpu_utilization(0, 0.0, &mut r).unwrap();
        assert!(u1 > 10.0, "hadoop should keep cpus busy, got {u1}");
        // A compute-saturating attacker drives occupied-thread utilization up.
        let atk = c
            .launch_on(0, memcached(&mut r), VmRole::Adversarial, 0.0)
            .unwrap();
        c.set_pressure_override(
            atk,
            Some(PressureVector::from_pairs(&[(Resource::Cpu, 100.0)])),
        )
        .unwrap();
        let u2 = c.cpu_utilization(0, 0.0, &mut r).unwrap();
        assert!(u2 > u1, "attack should raise utilization: {u2} vs {u1}");
        let _ = id;
    }

    #[test]
    fn performance_degrades_under_targeted_contention() {
        let mut r = rng();
        let mut c = cluster(1);
        let victim = c
            .launch_on(0, memcached(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        let (lat0, _) = c.performance_of(victim, 10.0, &mut r).unwrap();
        let atk = c
            .launch_on(0, memcached(&mut r), VmRole::Adversarial, 0.0)
            .unwrap();
        c.set_pressure_override(
            atk,
            Some(PressureVector::from_pairs(&[
                (Resource::Llc, 100.0),
                (Resource::MemBw, 95.0),
            ])),
        )
        .unwrap();
        let (lat1, slow) = c.performance_of(victim, 10.0, &mut r).unwrap();
        assert!(
            lat1 > lat0 * 1.5,
            "latency should inflate: {lat0} -> {lat1}"
        );
        assert!(slow > 1.5);
    }

    /// Every kind of lifecycle write, on two servers: launch, pinned
    /// launch, degrade, migrate, same-size and resizing swaps, terminate.
    /// Returns the ids it launched.
    fn lifecycle_writes(c: &mut Cluster, r: &mut StdRng) -> [VmId; 2] {
        let a = c
            .launch_on(0, hadoop(r).with_vcpus(4), VmRole::Friendly, 1.0)
            .unwrap();
        let b = c
            .launch_pinned(1, memcached(r).with_vcpus(2), VmRole::Friendly, 2.0, r)
            .unwrap();
        c.set_degradation(1, 0.25, 3.0).unwrap();
        c.migrate(a, 1).unwrap();
        c.swap_profile(a, memcached(r).with_vcpus(4)).unwrap();
        c.swap_profile(b, hadoop(r).with_vcpus(6)).unwrap();
        c.terminate(b).unwrap();
        [a, b]
    }

    /// The lifecycle log is opt-in: a cluster that never turned it on
    /// builds no event for any write, and neither do its snapshots. A
    /// recording cluster logs every write, and its snapshots inherit the
    /// choice and log their own writes only.
    #[test]
    fn the_lifecycle_log_is_opt_in() {
        use crate::trace::TraceEvent;
        fn kinds(c: &Cluster) -> Vec<&'static str> {
            c.events()
                .iter()
                .map(|e| match e {
                    TraceEvent::Launch { .. } => "launch",
                    TraceEvent::Terminate { .. } => "terminate",
                    TraceEvent::Migrate { .. } => "migrate",
                    TraceEvent::SwapProfile { .. } => "swap-profile",
                    TraceEvent::Degrade { .. } => "degrade",
                    TraceEvent::ProbeFault { .. } => "probe-fault",
                })
                .collect()
        }
        let mut r = rng();
        let mut quiet = cluster(2);
        assert!(quiet.events.is_none());
        lifecycle_writes(&mut quiet, &mut r);
        assert!(quiet.events().is_empty());
        assert!(quiet.take_events().is_empty());
        let mut snap = quiet.snapshot();
        assert!(snap.events.is_none());
        lifecycle_writes(&mut snap, &mut r);
        assert!(snap.events().is_empty());

        let mut loud = cluster(2);
        loud.record_events();
        let [a, b] = lifecycle_writes(&mut loud, &mut r);
        let expected = [
            "launch",
            "launch",
            "degrade",
            "migrate",
            "swap-profile",
            "swap-profile",
            "terminate",
        ];
        assert_eq!(kinds(&loud), expected);
        assert!(matches!(loud.events()[0], TraceEvent::Launch { vm, server: 0, .. } if vm == a));
        assert!(
            matches!(loud.events()[1], TraceEvent::Launch { vm, at, .. } if vm == b && at == 2.0)
        );
        assert!(matches!(loud.events()[6], TraceEvent::Terminate { vm, server: 1 } if vm == b));

        let mut snap = loud.snapshot();
        assert!(
            snap.events().is_empty(),
            "a snapshot starts with an empty log"
        );
        lifecycle_writes(&mut snap, &mut r);
        assert_eq!(kinds(&snap), expected);
        assert_eq!(
            loud.events().len(),
            expected.len(),
            "the base log is untouched"
        );
        // Draining keeps the log on.
        assert_eq!(loud.take_events().len(), expected.len());
        loud.terminate(a).unwrap();
        assert_eq!(loud.events().len(), 1);
    }

    #[test]
    fn lifecycle_events_are_recorded_in_order() {
        use crate::trace::TraceEvent;
        let mut r = rng();
        let mut c = cluster(2);
        c.record_events();
        let id = c
            .launch_on(0, hadoop(&mut r), VmRole::Friendly, 5.0)
            .unwrap();
        c.migrate(id, 1).unwrap();
        c.swap_profile(id, memcached(&mut r)).unwrap();
        c.terminate(id).unwrap();
        let events = c.take_events();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0], TraceEvent::Launch { vm, server: 0, .. } if vm == id));
        assert!(matches!(events[1], TraceEvent::Migrate { vm, from: 0, to: 1 } if vm == id));
        assert!(matches!(events[2], TraceEvent::SwapProfile { vm, .. } if vm == id));
        assert!(matches!(events[3], TraceEvent::Terminate { vm, server: 1 } if vm == id));
        // Drained: the log is empty now.
        assert!(c.events().is_empty());
        for e in &events {
            assert!(!e.describe().is_empty());
        }
    }

    /// Guards the copy-on-write gain itself: a stray write on the
    /// read-only hunt path would silently put the full copy back.
    #[test]
    fn snapshots_share_placement_until_first_write() {
        let mut r = rng();
        let mut base = cluster(2);
        let a = base
            .launch_on(0, memcached(&mut r), VmRole::Adversarial, 0.0)
            .unwrap();
        let b = base
            .launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        let shared = |x: &Cluster, y: &Cluster| Arc::ptr_eq(&x.placement, &y.placement);
        let mut snap = base.snapshot();
        let mut other = base.snapshot();
        assert!(shared(&base, &snap) && shared(&base, &other));

        // Queries, draining the log, attaching a memo, per-instance
        // settings and rejected writes all leave the placement shared.
        for c in [&base, &snap] {
            c.interference_on(a, 1.0, &mut r).unwrap();
            c.cache_sweep_response(a, 0.5, 1.0, &mut r).unwrap();
            c.cpu_utilization(0, 1.0, &mut r).unwrap();
            c.performance_of(b, 1.0, &mut r).unwrap();
            c.least_loaded_server(4);
            c.storage_stats();
        }
        base.take_events();
        snap.share_sweeps(Arc::new(SweepMemo::new()));
        snap.set_isolation(IsolationConfig::cloud_default());
        assert!(snap.terminate(VmId(99)).is_err());
        assert!(snap.set_pressure_override(VmId(99), None).is_err());
        assert!(snap
            .launch_on(7, hadoop(&mut r), VmRole::Friendly, 0.0)
            .is_err());
        assert!(snap.set_degradation(0, 2.0, 0.0).is_err());
        assert!(shared(&base, &snap) && shared(&base, &other));

        // The first write unshares only the writer; the others keep
        // sharing and still read the old state.
        snap.migrate(b, 1).unwrap();
        assert!(!shared(&base, &snap));
        assert!(shared(&base, &other));
        assert_eq!(snap.vm(b).unwrap().server, 1);
        assert_eq!(base.vm(b).unwrap().server, 0);
        assert_eq!(other.vms_on(0), &[a, b]);

        // A sole owner writes in place: no second copy.
        let owned = Arc::as_ptr(&snap.placement);
        snap.terminate(a).unwrap();
        assert_eq!(Arc::as_ptr(&snap.placement), owned);
        other.set_degradation(1, 0.5, 2.0).unwrap();
        assert!(!shared(&base, &other));
        assert_eq!(base.degradation_of(1).unwrap(), 0.0);
        assert!(base.vm(a).is_ok());
    }

    /// A swap that does not fit leaves the VM on its exact threads and
    /// the placement index untouched — even when core isolation, switched
    /// on after the VM landed, would refuse to re-place its old size.
    #[test]
    fn failed_swap_keeps_threads_under_a_later_isolation_switch() {
        let mut r = rng();
        let mut c = cluster(1);
        let small = c
            .launch_on(0, memcached(&mut r).with_vcpus(1), VmRole::Friendly, 0.0)
            .unwrap();
        for _ in 0..7 {
            c.launch_on(0, memcached(&mut r).with_vcpus(2), VmRole::Friendly, 0.0)
                .unwrap();
        }
        // Every core now holds a thread of some VM: no whole core is free.
        let mut isolation = c.isolation();
        isolation.mechanisms.core_isolation = true;
        c.set_isolation(isolation);
        c.record_events();
        let before = (c.vm(small).unwrap().threads.clone(), c.events().len());
        assert!(matches!(
            c.swap_profile(small, hadoop(&mut r).with_vcpus(4)),
            Err(SimError::InsufficientCapacity { server: 0, .. })
        ));
        assert_eq!(
            (c.vm(small).unwrap().threads.clone(), c.events().len()),
            before
        );
        assert_eq!(c.server(0).unwrap().free_threads(), 1);
        assert_eq!(c.least_loaded_server(1), None, "no whole core is free");
    }

    #[test]
    fn least_loaded_prefers_emptier_server() {
        let mut r = rng();
        let mut c = cluster(3);
        c.launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        c.launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        c.launch_on(1, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        assert_eq!(c.least_loaded_server(4), Some(2));
    }

    #[test]
    fn least_loaded_ties_break_to_lowest_index() {
        let mut r = rng();
        // All servers equally free: the documented tie-break picks index 0.
        let c = cluster(3);
        assert_eq!(c.least_loaded_server(4), Some(0));
        // Load server 0 so servers 1 and 2 tie: the lowest index of the
        // tied pair wins, not the last one `max_by_key` would keep.
        let mut c = cluster(3);
        c.launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
            .unwrap();
        assert_eq!(c.least_loaded_server(4), Some(1));
    }

    #[test]
    fn least_loaded_none_when_full() {
        let mut r = rng();
        let mut c = cluster(1);
        for _ in 0..4 {
            c.launch_on(0, hadoop(&mut r), VmRole::Friendly, 0.0)
                .unwrap();
        }
        for core_isolation in [false, true] {
            let mut isolation = c.isolation();
            isolation.mechanisms.core_isolation = core_isolation;
            c.set_isolation(isolation);
            for vcpus in 1..=17 {
                assert_eq!(c.least_loaded_server(vcpus), None, "{vcpus} vcpus");
            }
            assert_eq!(c.least_loaded_server(0), Some(0));
        }
    }

    /// The fold as it was written before the operands were split out: it
    /// masks the core lanes and sums the candidate's leak on every call.
    /// The reference the fold-ready [`NeighborSum`] must match bit for bit.
    fn reference_fold(
        walk: &[(PressureVector, bool)],
        atten: &[f64; RESOURCE_COUNT],
        float: f64,
        d: f64,
    ) -> (PressureVector, Option<PressureVector>) {
        let mut total = PressureVector::zero();
        let mut candidate: Option<PressureVector> = None;
        let mut has_static_sharer = false;
        for &(p, shares_core) in walk {
            has_static_sharer |= shares_core;
            let mut visible = *p.as_array();
            if !shares_core {
                for r in Resource::CORE {
                    visible[r.index()] = 0.0;
                }
            }
            kernels::sat_accum(total.as_mut_array(), &visible, atten, 100.0);
            if !shares_core && float > 0.0 {
                let core_total: f64 = Resource::CORE.iter().map(|&r| p[r]).sum();
                let best_total = candidate
                    .as_ref()
                    .map(|c| Resource::CORE.iter().map(|&r| c[r]).sum::<f64>())
                    .unwrap_or(-1.0);
                if core_total > best_total {
                    let mut leak = PressureVector::zero();
                    for r in Resource::CORE {
                        leak[r] = p[r] * float * atten[r.index()];
                    }
                    candidate = Some(leak);
                }
            }
        }
        if !has_static_sharer {
            if let Some(leak) = candidate {
                total = total.saturating_add(&leak);
            }
        }
        if d > 0.0 {
            kernels::sat_scale(total.as_mut_array(), 1.0 + d, 100.0);
        }
        (total, candidate)
    }

    fn bits(v: &PressureVector) -> Vec<u64> {
        v.as_array().iter().map(|x| x.to_bits()).collect()
    }

    /// Folding operands precomputed in a table, folding emissions as they
    /// arrive, and the reference fold give the same bits: totals and float
    /// candidates alike. Walks mix random lanes, all-zero core lanes,
    /// repeated emissions (equal core totals), emissions whose raw core
    /// total equals an earlier leak total (the candidate test's tie),
    /// random share masks, float 0 and > 0, and degradation.
    #[test]
    fn fold_ready_operands_match_the_reference_fold() {
        let mut r = rng();
        let mut ties = 0;
        for case in 0..3000 {
            let float = [0.0, 0.18, 0.5, r.gen_range(0.0..1.0)][case % 4];
            let atten: [f64; RESOURCE_COUNT] = if case % 3 == 0 {
                [1.0; RESOURCE_COUNT]
            } else {
                std::array::from_fn(|_| r.gen::<f64>())
            };
            let d = [0.0, 0.0, 0.3][case % 3];
            let sharer_rate = [0.0, 0.2, 0.6][(case / 4) % 3];
            let mut walk: Vec<(PressureVector, bool)> = Vec::new();
            for _ in 0..r.gen_range(0..12usize) {
                let roll = r.gen_range(0..10u32);
                let p = if roll == 0 && !walk.is_empty() {
                    walk[r.gen_range(0..walk.len())].0
                } else if roll == 1 && !walk.is_empty() {
                    // Raw core total equal to an earlier emission's leak.
                    let e = walk[r.gen_range(0..walk.len())].0;
                    let leak: f64 = Resource::CORE
                        .iter()
                        .map(|&c| e[c] * float * atten[c.index()])
                        .sum();
                    ties += 1;
                    PressureVector::from_pairs(&[(Resource::L1i, leak), (Resource::Llc, 40.0)])
                } else {
                    let mut p =
                        PressureVector::from_raw(std::array::from_fn(|_| r.gen_range(0.0..100.0)));
                    if roll == 2 {
                        for c in Resource::CORE {
                            p[c] = 0.0;
                        }
                    }
                    p
                };
                walk.push((p, r.gen_bool(sharer_rate)));
            }

            let fresh = || {
                let mut sum = NeighborSum::new(&IsolationConfig::cloud_default());
                sum.atten = atten;
                sum.float = float;
                sum
            };
            let builder = fresh();
            let table: Vec<FoldOperands> = walk.iter().map(|&(p, _)| builder.operands(p)).collect();
            let mut tabled = fresh();
            let mut on_the_fly = fresh();
            for (o, &(p, shares_core)) in table.iter().zip(&walk) {
                tabled.add(o, shares_core);
                on_the_fly.add_emission(p, shares_core);
            }
            let (expected, expected_candidate) = reference_fold(&walk, &atten, float, d);
            for sum in [tabled, on_the_fly] {
                let candidate = sum.float_candidate;
                assert_eq!(
                    candidate.as_ref().map(bits),
                    expected_candidate.as_ref().map(bits),
                    "case {case}: float candidate"
                );
                assert_eq!(bits(&sum.finish(d)), bits(&expected), "case {case}: total");
            }
        }
        assert!(ties > 100, "walks exercise the candidate tie ({ties})");
    }

    /// The candidate test compares a neighbor's raw core total with the
    /// candidate's leaked total, so at float 0.18 a neighbor with core
    /// total 30 replaces one with core total 100 (leaked: 18). A fold that
    /// ranked raw against raw, or took ties, would keep the other leak.
    #[test]
    fn float_candidate_ranks_raw_against_leaked_totals() {
        let mut sum = NeighborSum::new(&IsolationConfig::cloud_default());
        sum.atten = [1.0; RESOURCE_COUNT];
        sum.float = 0.5;
        let loud = PressureVector::from_pairs(&[(Resource::L1i, 100.0)]);
        sum.add_emission(loud, false);
        assert_eq!(sum.candidate_total, 50.0);
        // Raw 50 ties the leaked 50: the candidate stays.
        sum.add_emission(PressureVector::from_pairs(&[(Resource::Cpu, 50.0)]), false);
        assert_eq!(sum.float_candidate, Some(loud.scaled(0.5)));
        // Raw 60 beats the leaked 50, though 60 < 100 raw.
        let quiet = PressureVector::from_pairs(&[(Resource::L2, 60.0)]);
        sum.add_emission(quiet, false);
        assert_eq!(sum.float_candidate, Some(quiet.scaled(0.5)));
    }
}
