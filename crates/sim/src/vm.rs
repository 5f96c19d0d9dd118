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

    /// Rebuilds an id from a raw value. Live ids are assigned by
    /// [`crate::Cluster`]; a rebuilt id only identifies a VM within the
    /// cluster or trace its raw value came from.
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
    /// programs drive their contention this way. Boxed: only adversaries
    /// and attack programs set it, so most tenants carry 8 bytes, not 88.
    pub pressure_override: Option<Box<bolt_workloads::PressureVector>>,
}

impl VmState {
    /// Number of vCPUs (hyperthreads) this VM occupies.
    pub fn vcpus(&self) -> u32 {
        self.threads.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_id_display() {
        assert_eq!(VmId(7).to_string(), "vm-7");
        assert_eq!(VmId(7).raw(), 7);
    }

    /// The arena holds one `VmState` per tenant slot, so its size is the
    /// region's memory bill: each 8 bytes cost region-churn (100,000
    /// tenants) about 0.8 MB. A new inline field fails here; box what few
    /// tenants set, as `pressure_override` is.
    #[test]
    fn vm_state_layout_stays_compact() {
        assert!(
            std::mem::size_of::<VmState>() <= 360,
            "VmState grew to {} bytes",
            std::mem::size_of::<VmState>()
        );
    }
}
