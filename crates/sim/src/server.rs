//! A physical server: core/hyperthread topology and slot accounting.
//!
//! The controlled experiment runs on 8-core, 2-way hyperthreaded
//! Xeon-class servers (paper §3.4): 16 hardware threads per host.
//! Applications may share a physical core but each vCPU (hardware thread)
//! is dedicated to a single application — the placement invariant both the
//! least-loaded and Quasar schedulers preserve.

use crate::error::SimError;
use crate::vm::VmId;

/// Static description of a server's topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerSpec {
    /// Physical cores per socket.
    pub cores: u32,
    /// Hardware threads per core (2 = hyperthreading).
    pub threads_per_core: u32,
}

impl ServerSpec {
    /// The paper's testbed server: 8 cores, 2-way hyperthreaded.
    pub fn xeon() -> Self {
        ServerSpec {
            cores: 8,
            threads_per_core: 2,
        }
    }

    /// An EC2 `c3.8xlarge`-style host: 32 vCPUs (16 cores × 2 threads).
    pub fn c3_8xlarge() -> Self {
        ServerSpec {
            cores: 16,
            threads_per_core: 2,
        }
    }

    /// Total hardware threads.
    pub fn total_threads(&self) -> u32 {
        self.cores * self.threads_per_core
    }
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec::xeon()
    }
}

/// A server's slot state: which VM (if any) owns each hardware thread.
#[derive(Debug, Clone)]
pub struct Server {
    spec: ServerSpec,
    slots: Vec<Option<VmId>>,
}

impl Server {
    /// Creates an empty server with the given topology.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the spec has zero cores or
    /// zero threads per core.
    pub fn new(spec: ServerSpec) -> Result<Self, SimError> {
        if spec.cores == 0 || spec.threads_per_core == 0 {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "server needs nonzero topology, got {} cores x {} threads",
                    spec.cores, spec.threads_per_core
                ),
            });
        }
        Ok(Server {
            spec,
            slots: vec![None; spec.total_threads() as usize],
        })
    }

    /// The topology.
    pub fn spec(&self) -> ServerSpec {
        self.spec
    }

    /// Number of unoccupied hardware threads.
    pub fn free_threads(&self) -> u32 {
        self.slots.iter().filter(|s| s.is_none()).count() as u32
    }

    /// Number of occupied hardware threads.
    pub fn used_threads(&self) -> u32 {
        self.spec.total_threads() - self.free_threads()
    }

    /// Number of physical cores with no occupant on any thread.
    pub fn free_whole_cores(&self) -> u32 {
        let tpc = self.spec.threads_per_core as usize;
        (0..self.spec.cores as usize)
            .filter(|&c| {
                self.slots[c * tpc..(c + 1) * tpc]
                    .iter()
                    .all(Option::is_none)
            })
            .count() as u32
    }

    /// How many threads a `vcpus`-sized VM would actually consume under the
    /// active placement policy (core isolation rounds up to whole cores).
    pub fn threads_needed(&self, vcpus: u32, core_isolation: bool) -> u32 {
        if core_isolation {
            let tpc = self.spec.threads_per_core;
            vcpus.div_ceil(tpc) * tpc
        } else {
            vcpus
        }
    }

    /// True if the server can host a `vcpus`-sized VM.
    pub fn can_host(&self, vcpus: u32, core_isolation: bool) -> bool {
        if core_isolation {
            self.free_whole_cores() * self.spec.threads_per_core >= self.threads_needed(vcpus, true)
        } else {
            self.free_threads() >= vcpus
        }
    }

    /// Places a VM, returning the global hyperthread slots it received.
    ///
    /// Placement spreads across physical cores first (one thread per core),
    /// then fills sibling threads — mimicking the Linux scheduler's
    /// preference — so cross-VM core sharing arises naturally once a host
    /// is more than half full. Under `core_isolation`, the VM instead
    /// receives whole cores (both siblings), never sharing a core with
    /// another VM.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InsufficientCapacity`] if the server cannot host
    /// the VM, and [`SimError::InvalidConfig`] if `vcpus` is zero.
    pub fn place(
        &mut self,
        vm: VmId,
        vcpus: u32,
        core_isolation: bool,
    ) -> Result<Vec<usize>, SimError> {
        if vcpus == 0 {
            return Err(SimError::InvalidConfig {
                reason: "vm must have at least one vcpu".to_string(),
            });
        }
        if !self.can_host(vcpus, core_isolation) {
            return Err(SimError::InsufficientCapacity {
                server: usize::MAX, // caller rewrites with the real index
                requested: vcpus,
                available: if core_isolation {
                    self.free_whole_cores() * self.spec.threads_per_core
                } else {
                    self.free_threads()
                },
            });
        }

        let tpc = self.spec.threads_per_core as usize;
        let mut chosen = Vec::with_capacity(vcpus as usize);

        if core_isolation {
            let cores_needed = vcpus.div_ceil(self.spec.threads_per_core) as usize;
            let mut taken = 0;
            for c in 0..self.spec.cores as usize {
                if taken == cores_needed {
                    break;
                }
                if self.slots[c * tpc..(c + 1) * tpc]
                    .iter()
                    .all(Option::is_none)
                {
                    for s in 0..tpc {
                        chosen.push(c * tpc + s);
                    }
                    taken += 1;
                }
            }
        } else {
            // Pass 1: first sibling of each core, emptiest cores first.
            'outer: for sibling in 0..tpc {
                for c in 0..self.spec.cores as usize {
                    let slot = c * tpc + sibling;
                    if self.slots[slot].is_none() {
                        chosen.push(slot);
                        if chosen.len() == vcpus as usize {
                            break 'outer;
                        }
                    }
                }
            }
        }

        for &s in &chosen {
            self.slots[s] = Some(vm);
        }
        Ok(chosen)
    }

    /// Places a VM on `vcpus` hardware threads chosen *uniformly at
    /// random* among the free slots — the paper's user-study setting,
    /// where users pin their jobs to cores of their own choosing rather
    /// than deferring to a spreading scheduler. Random pinning makes
    /// sibling sharing with other tenants far more common than spreading.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Server::place`] (without core isolation).
    pub fn place_pinned<R: rand::Rng>(
        &mut self,
        vm: VmId,
        vcpus: u32,
        rng: &mut R,
    ) -> Result<Vec<usize>, SimError> {
        if vcpus == 0 {
            return Err(SimError::InvalidConfig {
                reason: "vm must have at least one vcpu".to_string(),
            });
        }
        if self.free_threads() < vcpus {
            return Err(SimError::InsufficientCapacity {
                server: usize::MAX,
                requested: vcpus,
                available: self.free_threads(),
            });
        }
        let mut free: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect();
        // Fisher-Yates partial shuffle for the first `vcpus` picks.
        for i in 0..vcpus as usize {
            let j = rng.gen_range(i..free.len());
            free.swap(i, j);
        }
        let chosen: Vec<usize> = free[..vcpus as usize].to_vec();
        for &s in &chosen {
            self.slots[s] = Some(vm);
        }
        Ok(chosen)
    }

    /// Frees every slot owned by `vm`. Idempotent.
    pub fn remove(&mut self, vm: VmId) {
        for s in &mut self.slots {
            if *s == Some(vm) {
                *s = None;
            }
        }
    }

    /// The VMs occupying threads on this server.
    pub fn tenants(&self) -> Vec<VmId> {
        let mut v: Vec<VmId> = self.slots.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The VM occupying a specific global thread slot.
    pub fn occupant(&self, slot: usize) -> Option<VmId> {
        self.slots.get(slot).copied().flatten()
    }

    /// The set of *other* VMs that share at least one physical core with
    /// `vm` (i.e. own the sibling hyperthread of one of `vm`'s threads).
    pub fn core_neighbors(&self, vm: VmId) -> Vec<VmId> {
        let tpc = self.spec.threads_per_core as usize;
        let mut out = Vec::new();
        for (slot, &owner) in self.slots.iter().enumerate() {
            if owner != Some(vm) {
                continue;
            }
            let core = slot / tpc;
            for s in core * tpc..(core + 1) * tpc {
                if let Some(other) = self.slots[s] {
                    if other != vm && !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The VMs owning at least one hyperthread of physical core `core`,
    /// sorted by ascending id. At most `threads_per_core` entries, so
    /// per-core neighbor queries cost O(siblings) instead of a scan over
    /// every VM in the cluster.
    pub fn core_occupants(&self, core: usize) -> Vec<VmId> {
        let tpc = self.spec.threads_per_core as usize;
        let mut out: Vec<VmId> = self
            .slots
            .get(core * tpc..(core + 1) * tpc)
            .unwrap_or(&[])
            .iter()
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The physical cores where `vm` and `other` both own a hyperthread.
    pub fn shared_cores(&self, vm: VmId, other: VmId) -> Vec<usize> {
        let tpc = self.spec.threads_per_core as usize;
        let mut cores = Vec::new();
        for c in 0..self.spec.cores as usize {
            let core_slots = &self.slots[c * tpc..(c + 1) * tpc];
            let has_vm = core_slots.contains(&Some(vm));
            let has_other = core_slots.contains(&Some(other));
            if has_vm && has_other {
                cores.push(c);
            }
        }
        cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServerSpec::xeon()).unwrap()
    }

    #[test]
    fn xeon_topology() {
        let s = ServerSpec::xeon();
        assert_eq!(s.total_threads(), 16);
        assert_eq!(ServerSpec::c3_8xlarge().total_threads(), 32);
    }

    #[test]
    fn zero_topology_rejected() {
        assert!(Server::new(ServerSpec {
            cores: 0,
            threads_per_core: 2
        })
        .is_err());
    }

    #[test]
    fn placement_spreads_across_cores_first() {
        let mut s = server();
        let threads = s.place(VmId(1), 4, false).unwrap();
        // One thread on each of the first four cores (sibling 0).
        assert_eq!(threads, vec![0, 2, 4, 6]);
    }

    #[test]
    fn second_vm_fills_remaining_first_siblings_then_shares_cores() {
        let mut s = server();
        s.place(VmId(1), 4, false).unwrap();
        let threads = s.place(VmId(2), 6, false).unwrap();
        // Cores 4..8 sibling 0 first, then siblings of cores 0..2.
        assert_eq!(threads, vec![8, 10, 12, 14, 1, 3]);
        // VM 2 now shares cores 0 and 1 with VM 1.
        assert_eq!(s.shared_cores(VmId(1), VmId(2)), vec![0, 1]);
        assert_eq!(s.core_neighbors(VmId(1)), vec![VmId(2)]);
    }

    #[test]
    fn capacity_enforced() {
        let mut s = server();
        s.place(VmId(1), 16, false).unwrap();
        assert_eq!(s.free_threads(), 0);
        assert!(matches!(
            s.place(VmId(2), 1, false),
            Err(SimError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn zero_vcpus_rejected() {
        let mut s = server();
        assert!(matches!(
            s.place(VmId(1), 0, false),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn core_isolation_allocates_whole_cores() {
        let mut s = server();
        // 7 vCPUs round up to 4 whole cores = 8 threads (paper §6 example).
        let threads = s.place(VmId(1), 7, true).unwrap();
        assert_eq!(threads.len(), 8);
        assert_eq!(s.free_whole_cores(), 4);
        // A second isolated VM never shares a core with the first.
        let t2 = s.place(VmId(2), 3, true).unwrap();
        assert_eq!(t2.len(), 4);
        assert!(s.shared_cores(VmId(1), VmId(2)).is_empty());
    }

    #[test]
    fn core_isolation_capacity_check() {
        let mut s = server();
        s.place(VmId(1), 13, true).unwrap(); // 7 cores
        assert!(!s.can_host(3, true)); // needs 2 cores, only 1 free
        assert!(s.can_host(2, true));
    }

    #[test]
    fn remove_is_idempotent_and_frees_slots() {
        let mut s = server();
        s.place(VmId(1), 8, false).unwrap();
        s.remove(VmId(1));
        s.remove(VmId(1));
        assert_eq!(s.free_threads(), 16);
        assert!(s.tenants().is_empty());
    }

    #[test]
    fn tenants_and_occupants() {
        let mut s = server();
        s.place(VmId(3), 2, false).unwrap();
        s.place(VmId(9), 2, false).unwrap();
        assert_eq!(s.tenants(), vec![VmId(3), VmId(9)]);
        assert_eq!(s.occupant(0), Some(VmId(3)));
        assert_eq!(s.occupant(15), None);
    }

    #[test]
    fn core_occupants_lists_sibling_owners_in_id_order() {
        let mut s = server();
        s.place(VmId(1), 4, false).unwrap(); // sibling 0 of cores 0..4
        s.place(VmId(2), 6, false).unwrap(); // cores 4..8, then siblings of 0..2
        assert_eq!(s.core_occupants(0), vec![VmId(1), VmId(2)]);
        assert_eq!(s.core_occupants(2), vec![VmId(1)]);
        assert_eq!(s.core_occupants(4), vec![VmId(2)]);
        assert!(s.core_occupants(99).is_empty());
    }

    #[test]
    fn pinned_placement_uses_random_free_slots() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9);
        let mut s = server();
        let threads = s.place_pinned(VmId(1), 6, &mut rng).unwrap();
        assert_eq!(threads.len(), 6);
        let mut sorted = threads.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "no duplicate slots");
        assert_eq!(s.used_threads(), 6);
        // A second pinned VM only gets remaining free slots.
        let t2 = s.place_pinned(VmId(2), 10, &mut rng).unwrap();
        assert!(t2.iter().all(|t| !threads.contains(t)));
        assert_eq!(s.free_threads(), 0);
        assert!(matches!(
            s.place_pinned(VmId(3), 1, &mut rng),
            Err(SimError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn pinned_placement_rejects_zero_vcpus() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9);
        let mut s = server();
        assert!(matches!(
            s.place_pinned(VmId(1), 0, &mut rng),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn no_core_sharing_when_half_full() {
        let mut s = server();
        s.place(VmId(1), 4, false).unwrap();
        s.place(VmId(2), 4, false).unwrap();
        // 8 threads over 8 cores: no sibling pairs in use.
        assert!(s.shared_cores(VmId(1), VmId(2)).is_empty());
    }
}
