//! Region-scale VM storage: a slot arena, a per-server residency index,
//! and a memo cache for deterministic pressure aggregates.
//!
//! The cluster used to keep every VM in one global `BTreeMap<VmId,
//! VmState>`, so each neighbor query walked the whole region and filtered
//! by server — O(total VMs) per probe sample. [`VmArena`] replaces that
//! map with a dense `Vec`-backed arena (ids stay stable, churned slots go
//! on a free list) plus a per-server residency index: `server -> sorted
//! Vec<VmId>`. Neighbor queries now cost O(co-residents on one server).
//!
//! The index deliberately keeps each server's resident list sorted by
//! ascending [`VmId`]: the old `BTreeMap` iterated VMs in ascending-id
//! order, so the co-resident subsequence a query visits — and therefore
//! the order of every floating-point accumulation and every RNG draw —
//! is bit-identical to the old scan.
//!
//! `AggCache` memoizes *whole query results* (per observer, per time)
//! rather than algebraic partial sums: per-step saturation
//! (`saturating_add` clamps at 100 after each neighbor) and float
//! non-associativity make a shared sum-minus-self aggregate impossible to
//! keep bit-exact, while a memo of the finished vector is exact by
//! construction. The cluster only consults the cache on servers whose
//! residents are all deterministic (pressure override set, or a
//! zero-noise profile); the stochastic `pressure_at` path draws RNG per
//! neighbor and must keep its exact draw order, so it never sees the
//! cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bolt_workloads::PressureVector;

use crate::vm::{VmId, VmState};

/// Sentinel for "this id has no slot" in [`VmArena::slot_of`].
const NO_SLOT: u32 = u32::MAX;

/// Dense struct-of-arrays VM storage with a per-server residency index.
#[derive(Debug, Clone)]
pub(crate) struct VmArena {
    /// Slot-indexed VM state; `None` marks a free (churned) slot.
    state: Vec<Option<VmState>>,
    /// Raw id -> slot, or [`NO_SLOT`]. Ids are monotonic and never reused,
    /// so this grows with total launches; each entry is 4 bytes.
    slot_of: Vec<u32>,
    /// Free slots, reused LIFO so hot churn stays cache-resident.
    free: Vec<u32>,
    /// Live VM count.
    live: usize,
    /// Residency index: server -> resident VM ids, sorted ascending.
    resident: Vec<Vec<VmId>>,
    /// Per-server count of *stochastic* residents (no pressure override
    /// and a noisy profile). Zero means every query against this server
    /// is a pure function of cluster state and may be memoized.
    stochastic: Vec<u32>,
    /// How many launches reused a churned slot (telemetry).
    pub(crate) slots_reused: u64,
    /// Residency-index mutations: inserts + removals (telemetry).
    pub(crate) residency_ops: u64,
}

/// True if this VM's emitted pressure depends on the RNG stream.
fn is_stochastic(state: &VmState) -> bool {
    state.pressure_override.is_none() && state.profile.noise() > 0.0
}

impl VmArena {
    pub(crate) fn new(servers: usize) -> Self {
        VmArena {
            state: Vec::new(),
            slot_of: Vec::new(),
            free: Vec::new(),
            live: 0,
            resident: vec![Vec::new(); servers],
            stochastic: vec![0; servers],
            slots_reused: 0,
            residency_ops: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (live + free).
    pub(crate) fn slots(&self) -> usize {
        self.state.len()
    }

    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    pub(crate) fn get(&self, id: VmId) -> Option<&VmState> {
        let slot = *self.slot_of.get(id.raw() as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        self.state[slot as usize].as_ref()
    }

    /// All live ids in ascending (= launch) order.
    pub(crate) fn iter_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.slot_of
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != NO_SLOT)
            .map(|(raw, _)| VmId::from_raw(raw as u64))
    }

    /// The VMs resident on `server`, sorted by ascending id. Out-of-range
    /// servers host nothing.
    pub(crate) fn on_server(&self, server: usize) -> &[VmId] {
        self.resident.get(server).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Stochastic-resident count for `server` (see [`VmArena::stochastic`]).
    pub(crate) fn stochastic_on(&self, server: usize) -> u32 {
        self.stochastic.get(server).copied().unwrap_or(0)
    }

    /// Inserts a freshly-launched VM. The id must be new.
    pub(crate) fn insert(&mut self, id: VmId, state: VmState) {
        let raw = id.raw() as usize;
        if raw >= self.slot_of.len() {
            self.slot_of.resize(raw + 1, NO_SLOT);
        }
        debug_assert_eq!(self.slot_of[raw], NO_SLOT, "id reuse");
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots_reused += 1;
                s
            }
            None => {
                self.state.push(None);
                (self.state.len() - 1) as u32
            }
        };
        self.slot_of[raw] = slot;
        self.index_add(id, &state);
        self.state[slot as usize] = Some(state);
        self.live += 1;
    }

    /// Removes a VM, returning its state and recycling its slot.
    pub(crate) fn remove(&mut self, id: VmId) -> Option<VmState> {
        let raw = id.raw() as usize;
        let slot = *self.slot_of.get(raw)?;
        if slot == NO_SLOT {
            return None;
        }
        let state = self.state[slot as usize].take().expect("slot maps a VM");
        self.slot_of[raw] = NO_SLOT;
        self.free.push(slot);
        self.live -= 1;
        self.index_remove(id, &state);
        Some(state)
    }

    /// Moves a VM to another server with a fresh thread assignment.
    pub(crate) fn relocate(&mut self, id: VmId, to: usize, threads: Vec<usize>) {
        let slot = self.slot_of[id.raw() as usize];
        let state = self.state[slot as usize].as_mut().expect("vm is live");
        let stochastic = is_stochastic(state);
        let from = state.server;
        state.server = to;
        state.threads = threads;
        // Remove from the old server's index, insert into the new one.
        let pos = self.resident[from].binary_search(&id).expect("indexed");
        self.resident[from].remove(pos);
        let pos = self.resident[to].binary_search(&id).unwrap_err();
        self.resident[to].insert(pos, id);
        self.residency_ops += 2;
        if stochastic {
            self.stochastic[from] -= 1;
            self.stochastic[to] += 1;
        }
    }

    /// Replaces a VM's workload profile (and, if re-placed, its threads).
    pub(crate) fn set_profile(
        &mut self,
        id: VmId,
        profile: bolt_workloads::WorkloadProfile,
        threads: Option<Vec<usize>>,
    ) {
        let slot = self.slot_of[id.raw() as usize];
        let state = self.state[slot as usize].as_mut().expect("vm is live");
        let was = is_stochastic(state);
        state.profile = profile;
        if let Some(t) = threads {
            state.threads = t;
        }
        let now = is_stochastic(state);
        let server = state.server;
        self.stochastic_delta(server, was, now);
    }

    /// Restores a VM's thread assignment (failed-swap rollback).
    pub(crate) fn set_threads(&mut self, id: VmId, threads: Vec<usize>) {
        let slot = self.slot_of[id.raw() as usize];
        let state = self.state[slot as usize].as_mut().expect("vm is live");
        state.threads = threads;
    }

    /// Sets or clears a VM's pressure override. Returns `false` for an
    /// unknown id.
    pub(crate) fn set_override(&mut self, id: VmId, pressure: Option<PressureVector>) -> bool {
        let Some(&slot) = self.slot_of.get(id.raw() as usize) else {
            return false;
        };
        if slot == NO_SLOT {
            return false;
        }
        let state = self.state[slot as usize].as_mut().expect("slot maps a VM");
        let was = is_stochastic(state);
        state.pressure_override = pressure;
        let now = is_stochastic(state);
        let server = state.server;
        self.stochastic_delta(server, was, now);
        true
    }

    fn stochastic_delta(&mut self, server: usize, was: bool, now: bool) {
        if was && !now {
            self.stochastic[server] -= 1;
        } else if !was && now {
            self.stochastic[server] += 1;
        }
    }

    fn index_add(&mut self, id: VmId, state: &VmState) {
        // New launches carry the highest id so far, so this is a push;
        // binary search keeps the index correct for any insertion order.
        let list = &mut self.resident[state.server];
        let pos = list.binary_search(&id).unwrap_err();
        list.insert(pos, id);
        self.residency_ops += 1;
        if is_stochastic(state) {
            self.stochastic[state.server] += 1;
        }
    }

    fn index_remove(&mut self, id: VmId, state: &VmState) {
        let list = &mut self.resident[state.server];
        let pos = list.binary_search(&id).expect("indexed");
        list.remove(pos);
        self.residency_ops += 1;
        if is_stochastic(state) {
            self.stochastic[state.server] -= 1;
        }
    }
}

/// Memo cache for deterministic pressure aggregates.
///
/// Entries are keyed by observer (raw id or server index) and hold the
/// query time's bit pattern alongside the finished result, so a probe
/// that re-samples at the same `t` hits while any time advance naturally
/// misses and overwrites — the map stays bounded by the number of
/// observers, never by the number of distinct times. Every cluster
/// mutation (launch, terminate, migrate, profile swap, pressure
/// override, degradation, isolation change) clears the cache outright.
#[derive(Debug, Default)]
pub(crate) struct AggCache {
    /// (raw id, couple_progress) -> (t bits, interference vector).
    neighbors: HashMap<(u64, bool), (u64, PressureVector)>,
    /// (raw id, physical core) -> (t bits, per-core interference).
    per_core: HashMap<(u64, usize), (u64, PressureVector)>,
    /// raw id -> (t bits, probe_alloc bits, LLC sweep response).
    sweep: HashMap<u64, (u64, u64, f64)>,
    /// server -> (t bits, CPU utilization).
    utilization: HashMap<usize, (u64, f64)>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl AggCache {
    /// Drops every memo (a cluster mutation invalidated them all). The
    /// hit/miss counters survive: they are cumulative telemetry.
    pub(crate) fn invalidate(&mut self) {
        self.neighbors.clear();
        self.per_core.clear();
        self.sweep.clear();
        self.utilization.clear();
    }

    pub(crate) fn get_neighbors(
        &mut self,
        id: u64,
        couple: bool,
        t_bits: u64,
    ) -> Option<PressureVector> {
        match self.neighbors.get(&(id, couple)) {
            Some(&(tb, v)) if tb == t_bits => {
                self.hits += 1;
                Some(v)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn put_neighbors(&mut self, id: u64, couple: bool, t_bits: u64, v: PressureVector) {
        self.neighbors.insert((id, couple), (t_bits, v));
    }

    pub(crate) fn get_per_core(
        &mut self,
        id: u64,
        core: usize,
        t_bits: u64,
    ) -> Option<PressureVector> {
        match self.per_core.get(&(id, core)) {
            Some(&(tb, v)) if tb == t_bits => {
                self.hits += 1;
                Some(v)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn put_per_core(&mut self, id: u64, core: usize, t_bits: u64, v: PressureVector) {
        self.per_core.insert((id, core), (t_bits, v));
    }

    pub(crate) fn get_sweep(&mut self, id: u64, t_bits: u64, alloc_bits: u64) -> Option<f64> {
        match self.sweep.get(&id) {
            Some(&(tb, ab, v)) if tb == t_bits && ab == alloc_bits => {
                self.hits += 1;
                Some(v)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn put_sweep(&mut self, id: u64, t_bits: u64, alloc_bits: u64, v: f64) {
        self.sweep.insert(id, (t_bits, alloc_bits, v));
    }

    pub(crate) fn get_utilization(&mut self, server: usize, t_bits: u64) -> Option<f64> {
        match self.utilization.get(&server) {
            Some(&(tb, v)) if tb == t_bits => {
                self.hits += 1;
                Some(v)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn put_utilization(&mut self, server: usize, t_bits: u64, v: f64) {
        self.utilization.insert(server, (t_bits, v));
    }
}

/// A cross-snapshot probe-sweep memo: batched probe scheduling for
/// concurrent hunts against one base cluster.
///
/// `AggCache` is private to one `Cluster` instance and keeps only the
/// *latest* result per observer, so two hunts running on separate
/// snapshots of the same base cluster re-walk identical co-resident sets
/// even when they issue byte-identical queries. A `SweepMemo` is the
/// sharing layer above that: the service attaches one `Arc<SweepMemo>` to
/// the base cluster, every snapshot inherits the handle, and the first
/// hunt to finish a `(observer, time)` probe query publishes the result
/// for every later hunt targeting the same server.
///
/// Determinism contract (same as the aggregate cache, see the module
/// docs): the memo is consulted only behind the `cacheable(server)` gate,
/// where query results are pure functions of the key and no RNG is drawn,
/// so a hit returns exactly the bytes the scan would have produced.
/// Additionally, a snapshot that *mutates* (chaos churn, migration,
/// degradation) detaches from the memo outright — its world has diverged
/// from the base placement, so it neither reads nor publishes entries.
///
/// Unlike `AggCache`, entries are keyed by the full `(observer, time[,
/// core/alloc])` tuple and never overwritten: the map is bounded by the
/// number of *distinct* probe queries a run issues, which is what makes
/// the sharing accounting exact — `shared() = lookups() - distinct()`
/// counts every consult that was (or raced with) a repeat of an already
/// computed query, independent of thread schedule.
#[derive(Debug, Default)]
pub struct SweepMemo {
    /// (raw id, couple_progress, t bits) -> interference vector.
    neighbors: Mutex<HashMap<(u64, bool, u64), PressureVector>>,
    /// (raw id, physical core, t bits) -> per-core interference.
    per_core: Mutex<HashMap<(u64, usize, u64), PressureVector>>,
    /// (raw id, t bits, probe_alloc bits) -> LLC sweep response.
    sweep: Mutex<HashMap<(u64, u64, u64), f64>>,
    /// Total consults (hit or miss). A racy duplicate compute counts the
    /// same as the serial-order hit it would have been.
    lookups: AtomicU64,
    /// Consults from *top-level* probe queries only (couple-progress
    /// neighbor walks, per-core walks, LLC sweeps). Unlike `lookups`,
    /// which also counts the nested non-coupled consults a cache miss
    /// recurses into (and a hit short-circuits), this is a pure function
    /// of the query trace — the basis of the `sweeps-shared` telemetry
    /// counter's thread-count invariance.
    query_lookups: AtomicU64,
}

impl SweepMemo {
    /// An empty memo.
    pub fn new() -> Self {
        SweepMemo::default()
    }

    pub(crate) fn get_neighbors(
        &self,
        id: u64,
        couple: bool,
        t_bits: u64,
    ) -> Option<PressureVector> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if couple {
            self.query_lookups.fetch_add(1, Ordering::Relaxed);
        }
        self.neighbors
            .lock()
            .expect("sweep memo lock poisoned")
            .get(&(id, couple, t_bits))
            .copied()
    }

    pub(crate) fn put_neighbors(&self, id: u64, couple: bool, t_bits: u64, v: PressureVector) {
        self.neighbors
            .lock()
            .expect("sweep memo lock poisoned")
            .insert((id, couple, t_bits), v);
    }

    pub(crate) fn get_per_core(&self, id: u64, core: usize, t_bits: u64) -> Option<PressureVector> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.query_lookups.fetch_add(1, Ordering::Relaxed);
        self.per_core
            .lock()
            .expect("sweep memo lock poisoned")
            .get(&(id, core, t_bits))
            .copied()
    }

    pub(crate) fn put_per_core(&self, id: u64, core: usize, t_bits: u64, v: PressureVector) {
        self.per_core
            .lock()
            .expect("sweep memo lock poisoned")
            .insert((id, core, t_bits), v);
    }

    pub(crate) fn get_sweep(&self, id: u64, t_bits: u64, alloc_bits: u64) -> Option<f64> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.query_lookups.fetch_add(1, Ordering::Relaxed);
        self.sweep
            .lock()
            .expect("sweep memo lock poisoned")
            .get(&(id, t_bits, alloc_bits))
            .copied()
    }

    pub(crate) fn put_sweep(&self, id: u64, t_bits: u64, alloc_bits: u64, v: f64) {
        self.sweep
            .lock()
            .expect("sweep memo lock poisoned")
            .insert((id, t_bits, alloc_bits), v);
    }

    /// Total memo consults so far (hits and misses alike).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Distinct probe queries published so far. Every consulted key ends
    /// up in exactly one map entry (the first missing consult computes and
    /// publishes it; a racy duplicate publish overwrites with identical
    /// bytes), so this is schedule-independent.
    pub fn distinct(&self) -> u64 {
        let n = self
            .neighbors
            .lock()
            .expect("sweep memo lock poisoned")
            .len();
        let c = self
            .per_core
            .lock()
            .expect("sweep memo lock poisoned")
            .len();
        let s = self.sweep.lock().expect("sweep memo lock poisoned").len();
        (n + c + s) as u64
    }

    /// Probe sweeps served from (or concurrently duplicated against) the
    /// memo instead of re-walking co-residents: `lookups - distinct`.
    /// Exact under a serial schedule; under concurrent lanes a racy
    /// double-compute inflates `lookups` through the nested non-coupled
    /// consults a hit would have skipped, so prefer [`shared_sweeps`] for
    /// anything compared across thread counts.
    ///
    /// [`shared_sweeps`]: SweepMemo::shared_sweeps
    pub fn shared(&self) -> u64 {
        self.lookups().saturating_sub(self.distinct())
    }

    /// Top-level probe queries answered from (or concurrently duplicated
    /// against) the memo — the thread-count-invariant sharing count behind
    /// the service's `sweeps-shared` telemetry counter.
    ///
    /// Both terms are pure functions of the query trace: each hunt
    /// consults the memo exactly once per distinct top-level key it needs
    /// (its snapshot-local `AggCache` absorbs repeats, and is back-filled
    /// identically on a memo hit or miss), and the set of keys ever
    /// published is the union of the hunts' key sets regardless of which
    /// lane computed each entry first.
    pub fn shared_sweeps(&self) -> u64 {
        let coupled = self
            .neighbors
            .lock()
            .expect("sweep memo lock poisoned")
            .keys()
            .filter(|k| k.1)
            .count();
        let c = self
            .per_core
            .lock()
            .expect("sweep memo lock poisoned")
            .len();
        let s = self.sweep.lock().expect("sweep memo lock poisoned").len();
        let distinct_queries = (coupled + c + s) as u64;
        self.query_lookups
            .load(Ordering::Relaxed)
            .saturating_sub(distinct_queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmRole;
    use bolt_workloads::{catalog, DatasetScale, Resource};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn state(server: usize, noisy: bool) -> VmState {
        let mut rng = StdRng::seed_from_u64(7);
        let profile = catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::WordCount,
            DatasetScale::Small,
            &mut rng,
        );
        assert!(profile.noise() > 0.0, "catalog profiles carry noise");
        VmState {
            profile,
            role: VmRole::Friendly,
            server,
            threads: vec![0, 2],
            launched_at: 0.0,
            pressure_override: if noisy {
                None
            } else {
                Some(PressureVector::from_pairs(&[(Resource::Cpu, 10.0)]))
            },
        }
    }

    #[test]
    fn slots_are_reused_ids_are_not() {
        let mut arena = VmArena::new(2);
        arena.insert(VmId::from_raw(0), state(0, true));
        arena.insert(VmId::from_raw(1), state(1, true));
        assert_eq!(arena.slots(), 2);
        arena.remove(VmId::from_raw(0)).unwrap();
        assert_eq!(arena.free_slots(), 1);
        arena.insert(VmId::from_raw(2), state(0, true));
        // The churned slot was recycled; no new slot was allocated.
        assert_eq!(arena.slots(), 2);
        assert_eq!(arena.slots_reused, 1);
        assert_eq!(arena.len(), 2);
        assert!(arena.get(VmId::from_raw(0)).is_none());
        assert!(arena.get(VmId::from_raw(2)).is_some());
    }

    #[test]
    fn residency_index_stays_sorted_through_churn() {
        let mut arena = VmArena::new(3);
        for raw in 0..6 {
            arena.insert(VmId::from_raw(raw), state((raw % 3) as usize, true));
        }
        assert_eq!(arena.on_server(0), &[VmId::from_raw(0), VmId::from_raw(3)]);
        arena.relocate(VmId::from_raw(1), 0, vec![4]);
        assert_eq!(
            arena.on_server(0),
            &[VmId::from_raw(0), VmId::from_raw(1), VmId::from_raw(3)]
        );
        arena.remove(VmId::from_raw(0)).unwrap();
        assert_eq!(arena.on_server(0), &[VmId::from_raw(1), VmId::from_raw(3)]);
        assert_eq!(arena.on_server(1), &[VmId::from_raw(4)]);
        assert!(arena.on_server(99).is_empty());
        let ids: Vec<u64> = arena.iter_ids().map(|v| v.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5], "ascending launch order");
    }

    #[test]
    fn stochastic_counts_track_overrides_and_swaps() {
        let mut arena = VmArena::new(1);
        let id = VmId::from_raw(0);
        arena.insert(id, state(0, true));
        assert_eq!(arena.stochastic_on(0), 1);
        // An override makes the VM deterministic.
        assert!(arena.set_override(id, Some(PressureVector::zero())));
        assert_eq!(arena.stochastic_on(0), 0);
        assert!(arena.set_override(id, None));
        assert_eq!(arena.stochastic_on(0), 1);
        // Swapping to a zero-noise profile also flips the count.
        let quiet = arena.get(id).unwrap().profile.clone().with_noise(0.0);
        arena.set_profile(id, quiet, None);
        assert_eq!(arena.stochastic_on(0), 0);
        arena.remove(id).unwrap();
        assert_eq!(arena.stochastic_on(0), 0);
        assert!(!arena.set_override(id, None), "gone VMs report unknown");
    }

    #[test]
    fn agg_cache_hits_only_on_matching_time() {
        let mut cache = AggCache::default();
        let v = PressureVector::from_pairs(&[(Resource::Llc, 5.0)]);
        assert_eq!(cache.get_neighbors(3, true, 100), None);
        cache.put_neighbors(3, true, 100, v);
        assert_eq!(cache.get_neighbors(3, true, 100), Some(v));
        assert_eq!(cache.get_neighbors(3, true, 200), None, "time advanced");
        assert_eq!(cache.get_neighbors(3, false, 100), None, "flavor differs");
        cache.invalidate();
        assert_eq!(cache.get_neighbors(3, true, 100), None, "mutation clears");
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 4);
    }
}
