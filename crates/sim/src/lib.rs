//! Discrete-time cloud testbed simulator for the Bolt reproduction.
//!
//! The paper evaluates Bolt on a 40-server virtualized cluster and on 200
//! EC2 instances. This crate is the substitute testbed: servers with an
//! explicit core/hyperthread topology ([`server`]), VMs pinned to hardware
//! threads ([`vm`]), a cluster with launch/terminate/migrate mechanics and
//! the contention physics that makes interference-based profiling possible
//! ([`cluster`]), the isolation mechanisms of the paper's §6 ([`isolation`]),
//! and the two schedulers of §3.4 ([`scheduler`]).
//!
//! The core modeling decision: pressure on *core-private* resources
//! (L1i/L1d/L2/CPU) is only visible between hyperthreads of the same
//! physical core, while *uncore* resources (LLC, memory, network, disk)
//! contend host-wide with demand saturating at capacity. Probes and victims
//! read contention through the same code path, so what Bolt measures and
//! what victims suffer stay physically consistent.
//!
//! # Example
//!
//! ```
//! use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
//! use bolt_sim::vm::VmRole;
//! use bolt_workloads::{catalog, Resource};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), bolt_sim::SimError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut cluster = Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default())?;
//! let adversary = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng);
//! let victim = catalog::cassandra::profile(&catalog::cassandra::Variant::WriteHeavy, &mut rng);
//! let adv = cluster.launch_on(0, adversary, VmRole::Adversarial, 0.0)?;
//! cluster.launch_on(0, victim, VmRole::Friendly, 0.0)?;
//! // The adversary can observe the victim's disk traffic through contention.
//! let seen = cluster.interference_on(adv, 5.0, &mut rng)?;
//! assert!(seen[Resource::DiskBw] > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
mod error;
pub mod isolation;
pub mod scheduler;
pub mod server;
mod storage;
pub mod trace;
pub mod vm;

pub use chaos::{
    ChaosConfig, ChaosEvent, FaultPlan, PlannedFault, StormConfig, StormPlan, MAX_PLAN_EVENTS,
};
pub use cluster::{Cluster, StorageStats};
pub use error::SimError;
pub use isolation::{IsolationConfig, Mechanisms, OsSetting};
pub use scheduler::{LeastLoaded, Quasar, Scheduler};
pub use server::{Server, ServerSpec};
pub use storage::SweepMemo;
pub use trace::{ProbeFaultKind, TraceEvent};
pub use vm::{VmId, VmRole, VmState};
