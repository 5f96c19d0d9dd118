//! Isolation mechanisms and their effect on cross-tenant contention.
//!
//! Section 6 of the paper evaluates how far today's isolation stack goes
//! toward defeating interference-based detection: three OS-level settings
//! (baremetal, Linux containers, virtual machines) crossed with five
//! resource-specific mechanisms (thread pinning, network bandwidth
//! partitioning via qdisc/HTB, memory bandwidth isolation, LLC partitioning
//! via Intel CAT, and core isolation). Each mechanism *attenuates* the
//! cross-tenant pressure that remains visible — and felt — on the resources
//! it isolates; none of them touches disk, which is why disk-heavy
//! workloads stay detectable even under the full stack (the residual ~14%).

use bolt_workloads::Resource;

/// The OS-level virtualization setting (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsSetting {
    /// Bare-metal Linux: no capacity constraints, the scheduler may float
    /// threads across cores.
    Baremetal,
    /// Linux containers (lxc) with cpuset cgroups and memory limits.
    Containers,
    /// Full virtual machines with partitioned memory.
    VirtualMachines,
}

impl OsSetting {
    /// All settings in the order Fig. 14 plots them.
    pub const ALL: [OsSetting; 3] = [
        OsSetting::Baremetal,
        OsSetting::Containers,
        OsSetting::VirtualMachines,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OsSetting::Baremetal => "baremetal",
            OsSetting::Containers => "containers",
            OsSetting::VirtualMachines => "virtual machines",
        }
    }
}

/// The stackable resource-isolation mechanisms of Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mechanisms {
    /// Pin application threads to physical cores (removes OS-scheduler
    /// context-switch noise from core-resource measurements).
    pub thread_pinning: bool,
    /// Egress network bandwidth partitioning (qdisc + HTB).
    pub net_bw_partitioning: bool,
    /// Memory bandwidth isolation (scheduler-enforced in the paper, since
    /// no commercial partitioning mechanism existed).
    pub mem_bw_partitioning: bool,
    /// Last-level cache partitioning (Intel CAT).
    pub cache_partitioning: bool,
    /// Core isolation: an application may share physical cores only with
    /// its own threads.
    pub core_isolation: bool,
}

impl Mechanisms {
    /// No isolation at all.
    pub fn none() -> Self {
        Mechanisms::default()
    }

    /// The full Fig. 14 stack, in cumulative order: each step adds one
    /// mechanism on top of the previous ones. Returns the 6 stacks
    /// `[none, +pinning, +net, +mem, +cache, +core]`.
    pub fn cumulative_stacks() -> [Mechanisms; 6] {
        let none = Mechanisms::none();
        let pin = Mechanisms {
            thread_pinning: true,
            ..none
        };
        let net = Mechanisms {
            net_bw_partitioning: true,
            ..pin
        };
        let mem = Mechanisms {
            mem_bw_partitioning: true,
            ..net
        };
        let cache = Mechanisms {
            cache_partitioning: true,
            ..mem
        };
        let core = Mechanisms {
            core_isolation: true,
            ..cache
        };
        [none, pin, net, mem, cache, core]
    }

    /// Core isolation alone (the paper notes it allows 46% accuracy by
    /// itself).
    pub fn core_isolation_only() -> Self {
        Mechanisms {
            core_isolation: true,
            ..Mechanisms::none()
        }
    }

    /// Human-readable name of the topmost mechanism in a cumulative stack.
    pub fn stack_name(&self) -> &'static str {
        if self.core_isolation {
            "+core isolation"
        } else if self.cache_partitioning {
            "+cache partitioning"
        } else if self.mem_bw_partitioning {
            "+mem bw partitioning"
        } else if self.net_bw_partitioning {
            "+net bw partitioning"
        } else if self.thread_pinning {
            "thread pinning"
        } else {
            "none"
        }
    }
}

/// A complete isolation configuration: OS setting plus mechanism stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsolationConfig {
    /// The OS-level setting.
    pub setting: OsSetting,
    /// The active mechanisms.
    pub mechanisms: Mechanisms,
}

impl IsolationConfig {
    /// The default public-cloud baseline: virtual machines with no extra
    /// mechanisms (the §3 threat model).
    pub fn cloud_default() -> Self {
        IsolationConfig {
            setting: OsSetting::VirtualMachines,
            mechanisms: Mechanisms::none(),
        }
    }

    /// How much cross-tenant pressure on `resource` remains visible (and
    /// felt), as a factor in `[0, 1]`.
    ///
    /// 1.0 = fully shared; 0.0 = perfectly isolated. Partitioning is
    /// modeled as strong but imperfect (CAT leaves a small overlap from
    /// shared metadata/prefetchers; HTB shapes egress but not ingress
    /// bursts), matching the paper's finding that the full stack still
    /// leaks ~50% accuracy.
    pub fn attenuation(&self, resource: Resource) -> f64 {
        let m = &self.mechanisms;
        let mut factor: f64 = 1.0;

        // OS setting: containers and VMs constrain memory/disk capacity, so
        // cross-tenant capacity pressure is mostly invisible.
        if resource.is_capacity() {
            factor *= match self.setting {
                OsSetting::Baremetal => 1.0,
                OsSetting::Containers => 0.25,
                OsSetting::VirtualMachines => 0.15,
            };
        }

        // Resource-specific mechanisms.
        match resource {
            Resource::NetBw if m.net_bw_partitioning => factor *= 0.05,
            Resource::MemBw if m.mem_bw_partitioning => factor *= 0.08,
            Resource::Llc if m.cache_partitioning => factor *= 0.04,
            // Core isolation eliminates cross-tenant core sharing, so no
            // foreign pressure reaches core-private resources at all.
            Resource::L1i | Resource::L1d | Resource::L2 | Resource::Cpu if m.core_isolation => {
                factor = 0.0
            }
            _ => {}
        }
        factor
    }

    /// All ten attenuation factors in [`Resource::ALL`] order.
    ///
    /// [`Self::attenuation`] is a pure function of the configuration, so
    /// aggregation loops hoist this array once per scan instead of
    /// recomputing the match per neighbor per lane.
    pub fn attenuation_array(&self) -> [f64; bolt_workloads::RESOURCE_COUNT] {
        let mut a = [0.0; bolt_workloads::RESOURCE_COUNT];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = self.attenuation(Resource::from_index(i));
        }
        a
    }

    /// Additive measurement noise (percentage points of pressure) on
    /// `resource`, reflecting OS-scheduler churn. Thread pinning removes
    /// most of it; baremetal without pinning is the noisiest (threads float
    /// freely).
    pub fn measurement_noise(&self, resource: Resource) -> f64 {
        if !resource.is_core() {
            return 0.0;
        }
        if self.mechanisms.thread_pinning {
            return 1.0;
        }
        match self.setting {
            OsSetting::Baremetal => 3.0,
            OsSetting::Containers => 2.5,
            OsSetting::VirtualMachines => 2.0,
        }
    }

    /// The fraction of a co-resident's *core-resource* pressure that leaks
    /// to other tenants through scheduler thread-floating, even without
    /// statically shared cores. Unpinned threads migrate across cores, so
    /// every tenant occasionally lands on another tenant's sibling
    /// hyperthread — a signal channel that thread pinning (and core
    /// isolation) closes. This is why adding pinning *reduces* Bolt's
    /// accuracy in Fig. 14, with baremetal leaking the most.
    pub fn float_visibility(&self) -> f64 {
        if self.mechanisms.thread_pinning || self.mechanisms.core_isolation {
            return 0.0;
        }
        match self.setting {
            OsSetting::Baremetal => 0.55,
            OsSetting::Containers => 0.25,
            OsSetting::VirtualMachines => 0.18,
        }
    }

    /// The average execution-time penalty factor applied to every workload
    /// under this configuration. Core isolation forces an application's
    /// own threads to contend with each other (paper: 34% average
    /// slowdown); the other mechanisms cost little.
    pub fn performance_penalty(&self) -> f64 {
        if self.mechanisms.core_isolation {
            1.34
        } else if self.mechanisms.cache_partitioning {
            1.03
        } else {
            1.0
        }
    }

    /// The fraction of cluster capacity lost to this configuration (core
    /// isolation rounds allocations up to whole cores; the paper reports a
    /// 45% utilization drop when users overprovision instead).
    pub fn utilization_penalty(&self) -> f64 {
        if self.mechanisms.core_isolation {
            0.45
        } else {
            0.0
        }
    }
}

impl Default for IsolationConfig {
    fn default() -> Self {
        IsolationConfig::cloud_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cloud_has_full_core_visibility() {
        let c = IsolationConfig::cloud_default();
        assert_eq!(c.attenuation(Resource::L1i), 1.0);
        assert_eq!(c.attenuation(Resource::Llc), 1.0);
        assert_eq!(c.attenuation(Resource::NetBw), 1.0);
    }

    #[test]
    fn vm_setting_constrains_capacity_resources() {
        let c = IsolationConfig::cloud_default();
        assert!(c.attenuation(Resource::MemCap) < 0.5);
        assert!(c.attenuation(Resource::DiskCap) < 0.5);
        let b = IsolationConfig {
            setting: OsSetting::Baremetal,
            mechanisms: Mechanisms::none(),
        };
        assert_eq!(b.attenuation(Resource::MemCap), 1.0);
    }

    #[test]
    fn mechanisms_attenuate_their_resources_only() {
        let c = IsolationConfig {
            setting: OsSetting::Containers,
            mechanisms: Mechanisms {
                cache_partitioning: true,
                ..Mechanisms::none()
            },
        };
        assert!(c.attenuation(Resource::Llc) <= 0.1);
        assert_eq!(c.attenuation(Resource::L1i), 1.0);
        assert_eq!(c.attenuation(Resource::NetBw), 1.0);
    }

    #[test]
    fn core_isolation_zeroes_core_resources() {
        let c = IsolationConfig {
            setting: OsSetting::VirtualMachines,
            mechanisms: Mechanisms::core_isolation_only(),
        };
        for r in Resource::CORE {
            assert_eq!(c.attenuation(r), 0.0, "{r}");
        }
        // Disk is never isolated — the residual detection channel.
        assert_eq!(c.attenuation(Resource::DiskBw), 1.0);
    }

    #[test]
    fn cumulative_stacks_attenuation_is_monotone_nonincreasing() {
        for setting in OsSetting::ALL {
            let mut prev: Option<f64> = None;
            for mech in Mechanisms::cumulative_stacks() {
                let c = IsolationConfig {
                    setting,
                    mechanisms: mech,
                };
                let total: f64 = Resource::ALL.iter().map(|&r| c.attenuation(r)).sum();
                if let Some(p) = prev {
                    assert!(
                        total <= p + 1e-12,
                        "stack {} increased visibility under {:?}",
                        mech.stack_name(),
                        setting
                    );
                }
                prev = Some(total);
            }
        }
    }

    #[test]
    fn pinning_cuts_measurement_noise() {
        let unpinned = IsolationConfig {
            setting: OsSetting::Baremetal,
            mechanisms: Mechanisms::none(),
        };
        let pinned = IsolationConfig {
            setting: OsSetting::Baremetal,
            mechanisms: Mechanisms {
                thread_pinning: true,
                ..Mechanisms::none()
            },
        };
        assert!(
            pinned.measurement_noise(Resource::L1i) < unpinned.measurement_noise(Resource::L1i)
        );
        assert_eq!(unpinned.measurement_noise(Resource::NetBw), 0.0);
    }

    #[test]
    fn core_isolation_costs_performance_and_utilization() {
        let c = IsolationConfig {
            setting: OsSetting::Containers,
            mechanisms: Mechanisms::core_isolation_only(),
        };
        assert!((c.performance_penalty() - 1.34).abs() < 1e-9);
        assert!((c.utilization_penalty() - 0.45).abs() < 1e-9);
        assert_eq!(IsolationConfig::cloud_default().performance_penalty(), 1.0);
    }

    #[test]
    fn stack_names_are_distinct() {
        let names: Vec<&str> = Mechanisms::cumulative_stacks()
            .iter()
            .map(|m| m.stack_name())
            .collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
