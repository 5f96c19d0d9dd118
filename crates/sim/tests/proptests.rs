//! Property-based tests for the simulator's placement and contention
//! invariants.

use bolt_sim::vm::VmRole;
use bolt_sim::{
    ChaosConfig, Cluster, FaultPlan, IsolationConfig, Mechanisms, OsSetting, Server, ServerSpec,
    TraceEvent,
};
use bolt_workloads::{catalog, Resource};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn vm_id_stream() -> impl Iterator<Item = bolt_sim::VmId> {
    // Placement tests drive Server directly; ids only need uniqueness.
    (0u64..).map(|_| unreachable!())
}

proptest! {
    #[test]
    fn placement_never_double_books_threads(
        sizes in proptest::collection::vec(1u32..6, 1..8),
    ) {
        let mut server = Server::new(ServerSpec::xeon()).expect("server");
        let mut placed = Vec::new();
        let mut used = std::collections::HashSet::new();
        for (i, &vcpus) in sizes.iter().enumerate() {
            let id = {
                // Fabricate ids via the public cluster API instead.
                let _ = vm_id_stream;
                // Server::place takes any VmId; build through a cluster
                // so ids are real.
                bolt_sim::VmId::from_raw(i as u64)
            };
            if server.can_host(vcpus, false) {
                let threads = server.place(id, vcpus, false).expect("fits");
                prop_assert_eq!(threads.len(), vcpus as usize);
                for t in threads {
                    prop_assert!(used.insert(t), "thread {t} double-booked");
                }
                placed.push(id);
            }
        }
        let total: u32 = server.used_threads();
        prop_assert_eq!(total as usize, used.len());
    }

    #[test]
    fn core_isolation_never_shares_cores(
        sizes in proptest::collection::vec(1u32..6, 1..6),
    ) {
        let mut server = Server::new(ServerSpec::xeon()).expect("server");
        let mut ids = Vec::new();
        for (i, &vcpus) in sizes.iter().enumerate() {
            let id = bolt_sim::VmId::from_raw(i as u64);
            if server.can_host(vcpus, true) {
                server.place(id, vcpus, true).expect("fits");
                ids.push(id);
            }
        }
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                prop_assert!(
                    server.shared_cores(a, b).is_empty(),
                    "core isolation must prevent sharing"
                );
            }
        }
    }

    #[test]
    fn interference_is_always_valid_pressure(
        seed in 0u64..300,
        victims in 1usize..4,
        t in 0.0f64..1000.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cluster = Cluster::new(
            1,
            ServerSpec::xeon(),
            IsolationConfig::cloud_default(),
        )
        .expect("cluster");
        let adv = cluster
            .launch_on(
                0,
                catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng),
                VmRole::Adversarial,
                0.0,
            )
            .expect("adversary");
        for _ in 0..victims {
            let v = catalog::spark::profile(
                &catalog::spark::Algorithm::KMeans,
                bolt_workloads::DatasetScale::Medium,
                &mut rng,
            );
            if cluster.launch_on(0, v, VmRole::Friendly, 0.0).is_err() {
                break;
            }
        }
        let seen = cluster.interference_on(adv, t, &mut rng).expect("interference");
        prop_assert!(seen.is_valid());
    }

    #[test]
    fn isolation_attenuation_is_a_factor(
        setting_idx in 0usize..3,
        pin in any::<bool>(),
        net in any::<bool>(),
        mem in any::<bool>(),
        cache in any::<bool>(),
        core in any::<bool>(),
    ) {
        let config = IsolationConfig {
            setting: OsSetting::ALL[setting_idx],
            mechanisms: Mechanisms {
                thread_pinning: pin,
                net_bw_partitioning: net,
                mem_bw_partitioning: mem,
                cache_partitioning: cache,
                core_isolation: core,
            },
        };
        for r in Resource::ALL {
            let a = config.attenuation(r);
            prop_assert!((0.0..=1.0).contains(&a), "attenuation {a} out of range for {r}");
        }
        prop_assert!(config.performance_penalty() >= 1.0);
        prop_assert!((0.0..1.0).contains(&config.utilization_penalty()));
        prop_assert!(config.float_visibility() >= 0.0 && config.float_visibility() < 1.0);
    }

    #[test]
    fn trace_events_reference_previously_launched_vms(
        seed in 0u64..300,
        ops in proptest::collection::vec((0u8..4, 0usize..64), 1..40),
    ) {
        // Drive a random launch/terminate/migrate/swap schedule, then
        // check the trace invariant: every Terminate, Migrate, and
        // SwapProfile names a VM some earlier Launch introduced.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cluster = Cluster::new(
            4,
            ServerSpec::xeon(),
            IsolationConfig::cloud_default(),
        )
        .expect("cluster");
        cluster.record_events();
        let mut live: Vec<bolt_sim::VmId> = Vec::new();
        for (op, pick) in ops {
            match op {
                0 => {
                    let p = catalog::memcached::profile(
                        &catalog::memcached::Variant::Mixed,
                        &mut rng,
                    );
                    if let Some(s) = cluster.least_loaded_server(p.vcpus()) {
                        let id = cluster
                            .launch_on(s, p, VmRole::Friendly, 0.0)
                            .expect("server reported capacity");
                        live.push(id);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let id = live.remove(pick % live.len());
                        cluster.terminate(id).expect("vm is live");
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let id = live[pick % live.len()];
                        let state = cluster.vm(id).expect("vm is live");
                        let (from, vcpus) = (state.server, state.vcpus());
                        if let Some(target) =
                            cluster.least_loaded_server(vcpus).filter(|&s| s != from)
                        {
                            cluster.migrate(id, target).expect("target has room");
                        }
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let id = live[pick % live.len()];
                        let p = catalog::memcached::profile(
                            &catalog::memcached::Variant::ReadHeavyKb,
                            &mut rng,
                        );
                        let _ = cluster.swap_profile(id, p);
                    }
                }
            }
        }
        let mut launched = std::collections::HashSet::new();
        for event in cluster.events() {
            match event {
                TraceEvent::Launch { vm, .. } => {
                    prop_assert!(launched.insert(*vm), "VM launched twice");
                }
                other => prop_assert!(
                    other.vm().map(|v| launched.contains(&v)).unwrap_or(true),
                    "`{}` refers to a VM the trace never launched",
                    other.describe()
                ),
            }
        }
    }

    #[test]
    fn utilization_bounded(
        seed in 0u64..200,
        t in 0.0f64..500.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cluster = Cluster::new(
            1,
            ServerSpec::xeon(),
            IsolationConfig::cloud_default(),
        )
        .expect("cluster");
        for _ in 0..3 {
            let v = catalog::hadoop::profile(
                &catalog::hadoop::Algorithm::Svm,
                bolt_workloads::DatasetScale::Medium,
                &mut rng,
            );
            let _ = cluster.launch_on(0, v, VmRole::Friendly, 0.0);
        }
        let u = cluster.cpu_utilization(0, t, &mut rng).expect("utilization");
        prop_assert!((0.0..=100.0).contains(&u), "utilization {u} out of range");
    }

    #[test]
    fn chaos_none_is_inert_for_any_seed(
        seed in any::<u64>(),
        unit in 0u64..64,
        start in 0.0f64..500.0,
        horizon in 0.0f64..2000.0,
    ) {
        // `ChaosConfig::none()` must compile to an empty plan whose
        // application draws no randomness, mutates nothing, and records
        // no trace events — for every seed, unit, and window.
        let plan = FaultPlan::compile(&ChaosConfig::none(), seed, unit, start, horizon);
        prop_assert!(plan.is_empty());
        prop_assert_eq!(plan.remaining(), 0);
        for w in 0..16 {
            prop_assert_eq!(plan.probe_fault(w), None);
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut cluster = Cluster::new(
            2,
            ServerSpec::xeon(),
            IsolationConfig::cloud_default(),
        )
        .expect("cluster");
        cluster.record_events();
        let p = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng);
        let vm = cluster.launch_on(0, p, VmRole::Friendly, 0.0).expect("fits");
        let before = cluster.take_events();
        prop_assert_eq!(before.len(), 1);

        let mut plan = plan;
        let applied = plan.apply_due(&mut cluster, start + horizon).expect("inert");
        prop_assert_eq!(applied, 0);
        prop_assert!(cluster.events().is_empty(), "none() must record nothing");
        prop_assert_eq!(cluster.vm_ids().collect::<Vec<_>>(), vec![vm]);
        prop_assert_eq!(cluster.degradation_of(0).expect("server 0"), 0.0);
    }
}
