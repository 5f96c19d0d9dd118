//! Region-scale VM storage: a slot arena, a per-server residency index,
//! and the shared memo for deterministic probe queries.
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
//! Deterministic probe queries are memoized through one protocol. A
//! [`Query`] names what a probe asks of whom (neighbor interference,
//! per-core interference, an LLC sweep), a [`Stamp`] decides whether a
//! stored answer is current (the query time's bits, plus the probe
//! allocation's for a sweep), and one map, the [`SweepMemo`] shared by
//! the snapshots of one base cluster, holds every [`Answer`] under its
//! `(query, stamp)` key. The cluster runs the lookup → scan → publish
//! sequence in one helper. The keys are a few internal integers, so they
//! hash with [`KeyHasher`] rather than SipHash. A `Cluster` keeps no memo
//! of its own: the walks a probe recurses into, and utilization, scan
//! every time.
//!
//! The memo keeps *whole query results* rather than algebraic partial
//! sums: per-step saturation (`saturating_add` clamps at 100 after each
//! neighbor) and float non-associativity make a shared sum-minus-self
//! aggregate impossible to keep bit-exact, while a memo of the finished
//! vector is exact by construction. The cluster only consults it on
//! servers whose residents are all deterministic (pressure override set,
//! or a zero-noise profile); the stochastic `pressure_at` path draws RNG
//! per neighbor and must keep its exact draw order, so it never sees a
//! memo.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

    /// Room for `additional` more launches without reallocating.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.state.reserve(additional);
        self.slot_of.reserve(additional);
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

/// One memoizable probe query: what a probe asks, and of whom. Whether a
/// memo entry answers it is decided by its [`Stamp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Query {
    /// Coupled interference on VM `id` (raw id).
    Neighbors { id: u64 },
    /// Interference on VM `id` through one of its physical cores. A
    /// `u32`, like `ServerSpec::cores`, keeps the key at 16 bytes.
    PerCore { id: u64, core: u32 },
    /// The LLC cache-sweep response VM `id` observes.
    Sweep { id: u64 },
}

/// Hashes the fields alone: a derived hash also writes the discriminant,
/// one more hasher write on every lookup of the probe hot path. Kinds
/// whose fields hash alike share a bucket, and `Eq` tells them apart.
impl Hash for Query {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Query::Neighbors { id } | Query::Sweep { id } => state.write_u64(id),
            Query::PerCore { id, core } => {
                state.write_u64(id);
                state.write_u32(core);
            }
        }
    }
}

/// A multiply-rotate hasher for the memo keys: one rotate, xor and
/// multiply per written integer. Every key is a few integers the simulator
/// makes itself (VM ids, core indices, the bits of a probe's time and
/// allocation), never outside input, so SipHash's protection
/// against crafted collisions buys nothing here.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by memo keys, hashed with [`KeyHasher`].
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// What decides whether a memo entry answers a [`Query`]: the query
/// time's bit pattern, then the probe allocation's bit pattern for an LLC
/// sweep (0 for every other query).
pub(crate) type Stamp = (u64, u64);

/// A memoized query result as the memo stores it: a pressure vector, or
/// a scalar response in lane 0. With no tag, an entry stays as small as a
/// bare vector.
pub(crate) type Answer = PressureVector;

/// A result type a [`Query`] answers with. Each query kind always answers
/// with the same type, so an entry reads back as what was stored.
pub(crate) trait Memoized: Copy {
    fn into_answer(self) -> Answer;
    fn from_answer(answer: Answer) -> Self;
}

impl Memoized for PressureVector {
    fn into_answer(self) -> Answer {
        self
    }

    fn from_answer(answer: Answer) -> Self {
        answer
    }
}

impl Memoized for f64 {
    fn into_answer(self) -> Answer {
        let mut answer = PressureVector::zero();
        answer.as_mut_array()[0] = self;
        answer
    }

    fn from_answer(answer: Answer) -> Self {
        answer.as_array()[0]
    }
}

/// A cross-snapshot probe-sweep memo: batched probe scheduling for
/// concurrent hunts against one base cluster.
///
/// Two hunts running on separate snapshots of the same base cluster would
/// re-walk identical co-resident sets whenever they issue byte-identical
/// queries. The service attaches one `Arc<SweepMemo>` to the base
/// cluster, every snapshot inherits the handle, and the first hunt to
/// finish a probe query publishes the result for every later hunt
/// targeting the same server. Only the queries a probe issues itself
/// reach the memo: the uncoupled walks a coupled probe recurses into are
/// scanned (a shared hit skips them anyway), and utilization is not a
/// probe query.
///
/// Determinism contract (see the module docs): the memo is consulted only
/// behind the `cacheable(server)` gate, where query results are pure
/// functions of the key and no RNG is drawn, so a hit returns exactly the
/// bytes the scan would have produced. Additionally, a snapshot that
/// *mutates* (chaos churn, migration, degradation) detaches from the memo
/// outright — its world has diverged from the base placement, so it
/// neither reads nor publishes entries.
///
/// Entries are keyed by the full `(query, stamp)` pair and never
/// overwritten with different bytes: the map is bounded by the number of
/// *distinct* probe queries a run issues, which is what makes the sharing
/// accounting exact. Nothing is evicted.
#[derive(Debug, Default)]
pub struct SweepMemo {
    answers: Mutex<KeyMap<(Query, Stamp), Answer>>,
    /// Total consults (hit or miss). Every probe query on a deterministic
    /// server of an attached snapshot consults once, a repeat at the same
    /// stamp included, and a racy duplicate compute counts the same as the
    /// serial-order hit it would have been. So this is a pure function of
    /// the hunts' query traces — the basis of the `sweeps-shared`
    /// telemetry counter's thread-count invariance.
    lookups: AtomicU64,
}

impl SweepMemo {
    /// An empty memo.
    pub fn new() -> Self {
        SweepMemo::default()
    }

    fn answers(&self) -> MutexGuard<'_, KeyMap<(Query, Stamp), Answer>> {
        self.answers.lock().expect("sweep memo lock poisoned")
    }

    /// The published answer to `query` at `stamp`; counts the consult.
    pub(crate) fn get(&self, query: Query, stamp: Stamp) -> Option<Answer> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.answers().get(&(query, stamp)).copied()
    }

    pub(crate) fn put(&self, query: Query, stamp: Stamp, answer: Answer) {
        self.answers().insert((query, stamp), answer);
    }

    /// Total memo consults so far (hits and misses alike), one per probe
    /// query in each attached hunt's trace.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Distinct probe queries published so far. Every consulted key ends
    /// up in exactly one map entry (the first missing consult computes and
    /// publishes it; a racy duplicate publish overwrites with identical
    /// bytes), so this is schedule-independent.
    pub fn distinct(&self) -> u64 {
        self.answers().len() as u64
    }

    /// Probe queries answered from (or concurrently duplicated against)
    /// the memo — the thread-count-invariant sharing count behind the
    /// service's `sweeps-shared` telemetry counter.
    ///
    /// Both terms are pure functions of the query trace: each hunt
    /// consults the memo once per probe query in its trace (a repeat at
    /// the same stamp consults again, hit or not), and the set of keys
    /// ever published is the union of the hunts' key sets regardless of
    /// which lane computed each entry first.
    pub fn shared_sweeps(&self) -> u64 {
        self.lookups().saturating_sub(self.distinct())
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

    /// A reserved arena takes its launches in the buffers it reserved.
    #[test]
    fn reserved_launches_do_not_reallocate() {
        let mut arena = VmArena::new(4);
        arena.reserve(40);
        let (state_buf, slot_buf) = (arena.state.as_ptr(), arena.slot_of.as_ptr());
        for raw in 0..40 {
            arena.insert(VmId::from_raw(raw), state(raw as usize % 4, true));
        }
        assert_eq!(arena.slots(), 40);
        assert_eq!(arena.state.as_ptr(), state_buf);
        assert_eq!(arena.slot_of.as_ptr(), slot_buf);
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
}
