//! Cluster event tracing: an append-only log of VM lifecycle events.
//!
//! Experiments that place, migrate, and retire dozens of VMs are hard to
//! debug from end-state alone; a cluster can record every lifecycle action
//! in order, and drivers drain the log ([`crate::Cluster::take_events`])
//! to print or serialize a timeline. The chaos engine ([`crate::chaos`])
//! emits its injected faults into the same stream, so a churned run's
//! timeline reads as one ordered history.
//!
//! Recording is opt-in: a cluster keeps no log until
//! [`crate::Cluster::record_events`] turns it on, and its snapshots
//! inherit that choice. Each driver turns it on exactly when its telemetry
//! is enabled, before its first launch, so a traced run's timeline is
//! complete while an untraced one builds no events at all (a region of
//! 100,000 tenants would otherwise keep one launch event, label string and
//! thread list per tenant that nothing reads).

use crate::vm::{VmId, VmRole};

/// The kind of probe-level fault injected into a measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeFaultKind {
    /// One probe sample was lost (the reading never arrives).
    DroppedSample,
    /// One probe sample was cut short (the reading is attenuated).
    TruncatedSample,
    /// The whole measurement window is lost (hypervisor preemption,
    /// steal-time burst): no usable samples at all.
    Blackout,
}

impl ProbeFaultKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ProbeFaultKind::DroppedSample => "dropped-sample",
            ProbeFaultKind::TruncatedSample => "truncated-sample",
            ProbeFaultKind::Blackout => "blackout",
        }
    }
}

/// One recorded cluster event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A VM was launched.
    Launch {
        /// The new VM.
        vm: VmId,
        /// Friendly or adversarial.
        role: VmRole,
        /// Hosting server.
        server: usize,
        /// Hyperthread slots received.
        threads: Vec<usize>,
        /// The workload's label.
        label: String,
        /// Simulated launch time.
        at: f64,
    },
    /// A VM was terminated.
    Terminate {
        /// The departed VM.
        vm: VmId,
        /// The server it vacated.
        server: usize,
    },
    /// A VM was live-migrated.
    Migrate {
        /// The moved VM.
        vm: VmId,
        /// Source server.
        from: usize,
        /// Destination server.
        to: usize,
    },
    /// A VM's workload was swapped in place (consecutive jobs on one
    /// instance, Fig. 8).
    SwapProfile {
        /// The VM whose job changed.
        vm: VmId,
        /// The new workload's label.
        label: String,
    },
    /// A server's effective capacity was throttled (chaos injection:
    /// thermal capping, a noisy maintenance daemon, oversubscription).
    Degrade {
        /// The throttled server.
        server: usize,
        /// Degradation factor in `[0, 1)`; 0 restores full capacity.
        factor: f64,
        /// Simulated time of the throttle change.
        at: f64,
    },
    /// A probe-level measurement fault was injected against an observer.
    ProbeFault {
        /// The observing (probing) VM whose window was faulted.
        vm: VmId,
        /// What kind of fault.
        kind: ProbeFaultKind,
        /// Simulated time of the fault.
        at: f64,
    },
}

impl TraceEvent {
    /// The VM this event concerns, if it concerns one ([`TraceEvent::Degrade`]
    /// is a server-level event).
    pub fn vm(&self) -> Option<VmId> {
        match self {
            TraceEvent::Launch { vm, .. }
            | TraceEvent::Terminate { vm, .. }
            | TraceEvent::Migrate { vm, .. }
            | TraceEvent::SwapProfile { vm, .. }
            | TraceEvent::ProbeFault { vm, .. } => Some(*vm),
            TraceEvent::Degrade { .. } => None,
        }
    }

    /// A compact single-line rendering for timeline dumps.
    pub fn describe(&self) -> String {
        match self {
            TraceEvent::Launch {
                vm,
                role,
                server,
                label,
                at,
                ..
            } => format!("t={at:.0}s launch {vm} ({role:?}) on server {server}: {label}"),
            TraceEvent::Terminate { vm, server } => {
                format!("terminate {vm} on server {server}")
            }
            TraceEvent::Migrate { vm, from, to } => {
                format!("migrate {vm}: server {from} -> {to}")
            }
            TraceEvent::SwapProfile { vm, label } => {
                format!("swap {vm} -> {label}")
            }
            TraceEvent::Degrade { server, factor, at } => {
                format!("t={at:.0}s degrade server {server} by {factor:.2}")
            }
            TraceEvent::ProbeFault { vm, kind, at } => {
                format!("t={at:.0}s probe fault on {vm}: {}", kind.as_str())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_is_informative() {
        let e = TraceEvent::Migrate {
            vm: VmId::from_raw(3),
            from: 0,
            to: 7,
        };
        let s = e.describe();
        assert!(s.contains("vm-3") && s.contains('7'));
        assert_eq!(e.vm().map(|v| v.raw()), Some(3));
    }

    #[test]
    fn degrade_concerns_no_vm() {
        let e = TraceEvent::Degrade {
            server: 2,
            factor: 0.25,
            at: 40.0,
        };
        assert_eq!(e.vm(), None);
        assert!(e.describe().contains("server 2"));
    }

    #[test]
    fn probe_fault_concerns_its_observer() {
        let e = TraceEvent::ProbeFault {
            vm: VmId::from_raw(5),
            kind: ProbeFaultKind::Blackout,
            at: 12.0,
        };
        assert_eq!(e.vm().map(|v| v.raw()), Some(5));
        assert!(e.describe().contains("blackout"));
    }
}
