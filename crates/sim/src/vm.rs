//! Virtual machine identity and state.

use std::fmt;

use bolt_workloads::WorkloadProfile;

/// An opaque, cluster-unique VM identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub(crate) u64);

impl VmId {
    /// The raw numeric id (stable for the lifetime of the cluster).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from a raw value, e.g. when decoding a serialized
    /// telemetry trace. Live ids are assigned by [`crate::Cluster`]; a
    /// reconstructed id only identifies a VM within the trace it came from.
    pub fn from_raw(raw: u64) -> Self {
        VmId(raw)
    }

    /// Builds an id from a raw value, for tests that drive [`crate::Server`]
    /// directly. Real ids are assigned by [`crate::Cluster`].
    #[doc(hidden)]
    pub fn from_raw_for_tests(raw: u64) -> Self {
        VmId(raw)
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// The role a VM plays in an experiment — friendly VMs run victim
/// workloads; adversarial VMs host Bolt's probes and attack programs
/// (paper §3.1 threat model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmRole {
    /// A normal tenant running one or more applications.
    Friendly,
    /// An adversarial Bolt VM.
    Adversarial,
}

/// A placed VM: its workload, role, server, and hyperthread assignment.
#[derive(Debug, Clone)]
pub struct VmState {
    /// The workload this VM runs (an adversarial VM's "workload" is the
    /// pressure its probes/attack programs currently generate).
    pub profile: WorkloadProfile,
    /// Friendly or adversarial.
    pub role: VmRole,
    /// Index of the hosting server.
    pub server: usize,
    /// Global hyperthread slots occupied on that server
    /// (`core * threads_per_core + sibling`).
    pub threads: Vec<usize>,
    /// Time (seconds) at which the VM was launched.
    pub launched_at: f64,
    /// Externally-imposed pressure override: when set, the VM emits exactly
    /// this vector instead of its profile's time-varying pressure. Attack
    /// programs drive their contention this way.
    pub pressure_override: Option<bolt_workloads::PressureVector>,
}

impl VmState {
    /// Number of vCPUs (hyperthreads) this VM occupies.
    pub fn vcpus(&self) -> u32 {
        self.threads.len() as u32
    }

    /// The physical cores (on its server) this VM touches, given the
    /// server's threads-per-core.
    pub fn cores(&self, threads_per_core: u32) -> Vec<usize> {
        let mut cores: Vec<usize> = self
            .threads
            .iter()
            .map(|&t| t / threads_per_core as usize)
            .collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_workloads::{catalog, DatasetScale};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> WorkloadProfile {
        let mut rng = StdRng::seed_from_u64(1);
        catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::WordCount,
            DatasetScale::Small,
            &mut rng,
        )
    }

    #[test]
    fn vm_id_display() {
        assert_eq!(VmId(7).to_string(), "vm-7");
        assert_eq!(VmId(7).raw(), 7);
    }

    #[test]
    fn cores_deduplicates_siblings() {
        let state = VmState {
            profile: profile(),
            role: VmRole::Friendly,
            server: 0,
            threads: vec![0, 1, 2, 5],
            launched_at: 0.0,
            pressure_override: None,
        };
        // threads 0,1 -> core 0; 2 -> core 1; 5 -> core 2 (2 threads/core).
        assert_eq!(state.cores(2), vec![0, 1, 2]);
        assert_eq!(state.vcpus(), 4);
    }
}
