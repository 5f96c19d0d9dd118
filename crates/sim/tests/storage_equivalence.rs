//! Storage-layer equivalence: the arena + residency index + resident
//! table + shared sweep memo must be observationally identical to the old
//! full-scan storage.
//!
//! Inside the test-only `bolt_linalg::oracle::reference` scope (the
//! `oracle` feature, which this crate's dev-dependencies turn on) every
//! cluster query walks the whole arena in ascending-id order with the
//! shared sweep memo bypassed — the exact
//! behaviour of the original `BTreeMap` storage. These tests drive an
//! indexed cluster normally and a reference cluster inside that scope
//! through the same random churn (launches, terminations, migrations,
//! profile swaps, pressure overrides, degradation, and compiled chaos
//! plans) and require every
//! observable — interference, cache-sweep response, utilization,
//! performance, the trace, and the state of the shared RNG stream — to
//! match bit for bit.
//!
//! A separate regression pins the locality contract: a probe's
//! neighbor-visit count depends only on its own host's population, never
//! on the rest of the region.
//!
//! Snapshots share their base's placement copy-on-write; a further
//! property drives a base and its snapshot through independent,
//! interleaved schedules and checks each against a fresh replay of its
//! own history, so no write on one side can leak into the other.
//!
//! `Cluster::least_loaded_server` answers from a free-thread index; a
//! last property checks it against the linear scan it replaced, written
//! here over the public per-server API, after every placement write.

use bolt_linalg::oracle;
use bolt_sim::vm::VmRole;
use bolt_sim::{
    ChaosConfig, Cluster, FaultPlan, IsolationConfig, ServerSpec, StorageStats, SweepMemo, VmId,
};
use bolt_workloads::{catalog, DatasetScale, PressureVector, WorkloadProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SERVERS: usize = 4;

/// A catalog profile for op slot `i`: half the families keep their
/// stochastic noise (exercising the stochastic walk), half are zeroed
/// (exercising the deterministic walks: resident table and sweep memo).
fn profile(i: usize, rng: &mut StdRng) -> WorkloadProfile {
    match i % 4 {
        0 => catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng),
        1 => catalog::speccpu::profile(&catalog::speccpu::Benchmark::Gobmk, rng).with_noise(0.0),
        2 => catalog::spark::profile(&catalog::spark::Algorithm::KMeans, DatasetScale::Small, rng),
        _ => catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng)
            .with_noise(0.0),
    }
}

/// One op schedule's running state: its own RNG stream and the VMs it
/// launched and has not terminated. Cloning it forks the schedule, so two
/// clusters sharing a history can continue along different schedules.
#[derive(Clone)]
struct Schedule {
    rng: StdRng,
    live: Vec<VmId>,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule {
            rng: StdRng::seed_from_u64(seed),
            live: Vec::new(),
        }
    }

    /// Applies `ops` to `cluster`, numbering them from `first` (the number
    /// picks the profile family and the event time).
    fn run(&mut self, cluster: &mut Cluster, ops: &[(u8, usize)], first: usize) {
        for (k, &op) in ops.iter().enumerate() {
            self.step(cluster, first + k, op);
        }
    }

    /// Applies op number `i`: launch, terminate, migrate, swap, override
    /// or degrade, picking its target from `pick`.
    fn step(&mut self, cluster: &mut Cluster, i: usize, (op, pick): (u8, usize)) {
        let live = &mut self.live;
        match op {
            0..=2 => {
                let p = profile(i, &mut self.rng);
                if let Some(s) = cluster.least_loaded_server(p.vcpus()) {
                    let id = cluster
                        .launch_on(s, p, VmRole::Friendly, i as f64)
                        .expect("server reported capacity");
                    live.push(id);
                }
            }
            3 => {
                if !live.is_empty() {
                    let id = live.remove(pick % live.len());
                    cluster.terminate(id).expect("vm is live");
                }
            }
            4 => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    let state = cluster.vm(id).expect("vm is live");
                    let (from, vcpus) = (state.server, state.vcpus());
                    if let Some(to) = cluster.least_loaded_server(vcpus).filter(|&s| s != from) {
                        cluster.migrate(id, to).expect("target has room");
                    }
                }
            }
            5 => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    let _ = cluster.swap_profile(id, profile(i + 1, &mut self.rng));
                }
            }
            6 => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    let o = if pick % 2 == 0 {
                        Some(PressureVector::from_raw(
                            [(pick % 90) as f64; bolt_workloads::RESOURCE_COUNT],
                        ))
                    } else {
                        None
                    };
                    cluster.set_pressure_override(id, o).expect("vm is live");
                }
            }
            _ => {
                let factor = (pick % 10) as f64 / 20.0;
                cluster
                    .set_degradation(pick % SERVERS, factor, i as f64)
                    .expect("server index in range");
            }
        }
    }
}

/// Applies one op schedule to `cluster` with its own RNG stream, and
/// returns the VMs it left live.
fn apply_ops(cluster: &mut Cluster, ops: &[(u8, usize)], seed: u64) -> Vec<VmId> {
    let mut schedule = Schedule::new(seed);
    schedule.run(cluster, ops, 0);
    schedule.live
}

/// Every observable of `c` at time `t`, one labelled line each: the live
/// set, every VM's interference, cache-sweep responses at two allocations
/// (at one `t`, so a memo that ignored the allocation would answer the
/// second from the first), performance, every server's utilization and
/// residency, and the query RNG's next draw. Each `f64` is written as its raw bits, so
/// equal lines mean equal bits, NaN payloads included. All queries share
/// one RNG seeded from `seed`: if a storage skipped or reordered a single
/// draw, every later line diverges.
fn observe(c: &Cluster, t: f64, seed: u64) -> Vec<String> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let ids: Vec<VmId> = c.vm_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = vec![format!("live VMs: {ids:?}")];
    for &id in &ids {
        let live = "vm is live";
        let i = c.interference_on(id, t, &mut rng).expect(live);
        let s =
            [0.5, 0.25].map(|alloc| c.cache_sweep_response(id, alloc, t, &mut rng).expect(live));
        let p = c.performance_of(id, t, &mut rng).expect(live);
        let i = bits(i.as_slice());
        lines.push(format!("interference on {id:?} at t={t}: {i:?}"));
        lines.push(format!("sweep responses of {id:?}: {:?}", bits(&s)));
        lines.push(format!("performance of {id:?}: {:?}", bits(&[p.0, p.1])));
    }
    for server in 0..SERVERS {
        let u = c.cpu_utilization(server, t, &mut rng).expect("in range");
        lines.push(format!("utilization of server {server}: {}", u.to_bits()));
        lines.push(format!(
            "residents of server {server}: {:?}",
            c.vms_on(server)
        ));
    }
    lines.push(format!("query RNG stream: {}", rng.gen::<u64>()));
    lines
}

/// Compares two [`observe`] results line by line, naming the first
/// observable that diverged.
fn assert_same_observations(a: &[String], b: &[String]) {
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x, y, "observable diverged");
    }
    assert_eq!(a.len(), b.len(), "observation counts diverged");
}

/// Every observable of `a` and `b` at time `t`, compared bit for bit.
fn assert_observables_match(a: &Cluster, b: &Cluster, t: f64, seed: u64) {
    assert_same_observations(&observe(a, t, seed), &observe(b, t, seed));
}

/// Observes `indexed` normally and `reference` inside the
/// oracle scope (full-arena scan, no memo), and compares.
fn assert_matches_reference(indexed: &Cluster, reference: &Cluster, t: f64, seed: u64) {
    let reference = oracle::reference(|| observe(reference, t, seed));
    assert_same_observations(&observe(indexed, t, seed), &reference);
}

/// Everything a copy-on-write leak between two clusters could show
/// through: the trace, each VM's full state, each server's slots and
/// degradation, the storage counters, and (via
/// [`assert_observables_match`]) the live set, residency, every query
/// result and the query-RNG stream state afterwards.
fn assert_same_state(a: &Cluster, b: &Cluster, t: f64, seed: u64) {
    assert_eq!(a.events(), b.events(), "traces diverged");
    for id in a.vm_ids() {
        assert_eq!(
            format!("{:?}", a.vm(id).expect("vm is live")),
            format!("{:?}", b.vm(id).expect("vm is live on both")),
            "state of {id:?} diverged"
        );
    }
    for server in 0..SERVERS {
        assert_eq!(
            format!("{:?}", a.server(server).expect("in range")),
            format!("{:?}", b.server(server).expect("in range")),
            "slots of server {server} diverged"
        );
        assert_eq!(
            a.degradation_of(server).expect("in range").to_bits(),
            b.degradation_of(server).expect("in range").to_bits(),
            "degradation of server {server} diverged"
        );
    }
    assert_eq!(a.storage_stats(), b.storage_stats(), "storage diverged");
    assert_observables_match(a, b, t, seed);
    assert_eq!(
        a.storage_stats(),
        b.storage_stats(),
        "query counters diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed storage and the reference full scan agree on every
    /// observable after any churn schedule.
    #[test]
    fn indexed_storage_matches_reference_scan(
        seed in 0u64..500,
        ops in proptest::collection::vec((0u8..8, 0usize..64), 1..40),
        t in 0.0f64..500.0,
    ) {
        let isolation = IsolationConfig::cloud_default();
        let mut indexed = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        let mut reference = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        indexed.record_events();
        reference.record_events();

        apply_ops(&mut indexed, &ops, seed);
        oracle::reference(|| apply_ops(&mut reference, &ops, seed));
        prop_assert_eq!(indexed.events(), reference.events(), "traces diverged");
        // On an empty cluster only launches and degradations write (every
        // other op needs a live VM), and the first of either always
        // succeeds: a schedule with one must leave a trace to compare.
        let writes = ops.iter().any(|&(op, _)| op <= 2 || op >= 7);
        prop_assert_eq!(indexed.events().is_empty(), !writes, "trace recorded nothing");

        assert_matches_reference(&indexed, &reference, t, seed ^ 0xC0FFEE);
        // Query twice: the second pass walks the indexed cluster again
        // and must still match the reference rescans.
        assert_matches_reference(&indexed, &reference, t, seed ^ 0xC0FFEE);
    }

    /// Chaos plans (the churn engine behind the robustness suite) apply
    /// identically to both storages.
    #[test]
    fn chaos_churn_is_storage_agnostic(
        seed in 0u64..200,
        intensity in 0.1f64..1.0,
    ) {
        let isolation = IsolationConfig::cloud_default();
        let mut indexed = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        let mut reference = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        indexed.record_events();
        reference.record_events();

        let ops: Vec<(u8, usize)> = (0..12).map(|i| (0u8, i)).collect();
        apply_ops(&mut indexed, &ops, seed);
        oracle::reference(|| apply_ops(&mut reference, &ops, seed));

        let config = ChaosConfig::with_intensity(intensity);
        let mut plan_a = FaultPlan::compile(&config, seed, 0, 0.0, 300.0);
        let mut plan_b = FaultPlan::compile(&config, seed, 0, 0.0, 300.0);
        for step in 1..=5 {
            let t = step as f64 * 60.0;
            let na = plan_a.apply_due(&mut indexed, t).expect("plan applies");
            let nb = oracle::reference(|| plan_b.apply_due(&mut reference, t)).expect("plan applies");
            prop_assert_eq!(na, nb, "fault application diverged");
            assert_matches_reference(&indexed, &reference, t, seed ^ 0xBEEF);
        }
        prop_assert_eq!(indexed.events(), reference.events(), "traces diverged");
        prop_assert!(!indexed.events().is_empty(), "the launches must be traced");
    }

    /// A snapshot and its base stay independent in both directions: after
    /// each runs its own churn schedule, interleaved op by op, each is
    /// observationally equal to a fresh cluster that replayed the shared
    /// history plus only its own schedule.
    #[test]
    fn snapshots_stay_independent_in_both_directions(
        seed in 0u64..500,
        history in proptest::collection::vec((0u8..8, 0usize..64), 0..30),
        base_ops in proptest::collection::vec((0u8..8, 0usize..64), 0..30),
        snap_ops in proptest::collection::vec((0u8..8, 0usize..64), 0..30),
        turns in proptest::collection::vec(any::<bool>(), 60),
        t in 0.0f64..500.0,
    ) {
        let isolation = IsolationConfig::cloud_default();
        // Recording clusters: the snapshot inherits the log, so its trace
        // must match its replay's too.
        let fresh = || {
            let mut c = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
            c.record_events();
            c
        };
        let first = history.len();

        let mut base = fresh();
        let mut schedule = Schedule::new(seed);
        schedule.run(&mut base, &history, 0);
        let mut snap = base.snapshot();

        // `turns[k]` says which side takes step k; a finished side yields.
        let (mut on_base, mut on_snap) = (schedule.clone(), schedule);
        let (mut b, mut s) = (0, 0);
        for &base_turn in &turns {
            if b < base_ops.len() && (base_turn || s == snap_ops.len()) {
                on_base.step(&mut base, first + b, base_ops[b]);
                b += 1;
            } else if s < snap_ops.len() {
                on_snap.step(&mut snap, first + s, snap_ops[s]);
                s += 1;
            }
        }
        prop_assert_eq!((b, s), (base_ops.len(), snap_ops.len()), "every op ran");

        // The snapshot's trace starts empty, so its replay drops the
        // history's events before running its own schedule.
        let replay = |ops: &[(u8, usize)], keep_history_events: bool| {
            let mut c = fresh();
            let mut schedule = Schedule::new(seed);
            schedule.run(&mut c, &history, 0);
            if !keep_history_events {
                c.take_events();
            }
            schedule.run(&mut c, ops, first);
            c
        };
        assert_same_state(&base, &replay(&base_ops, true), t, seed ^ 0xBA5E);
        assert_same_state(&snap, &replay(&snap_ops, false), t, seed ^ 0x5AAB);
    }
}

/// One tenant of a deterministic host: profile family, vCPUs, and an
/// optional uniform pressure override.
type HostTenant = (usize, u32, Option<f64>);

/// A region whose server 0 holds `tenants`, every one deterministic (zero
/// noise, or an override), and whose other servers stay empty, so the
/// reference's whole-arena scans visit exactly that host's residents.
/// The cacheable gate is open on server 0, so a coupled probe there
/// takes the resident-table walk.
fn deterministic_host(
    isolation: IsolationConfig,
    tenants: &[HostTenant],
    degradation: f64,
    seed: u64,
) -> Cluster {
    deterministic_host_on(ServerSpec::xeon(), isolation, tenants, degradation, seed)
}

/// [`deterministic_host`] on servers of `spec`.
fn deterministic_host_on(
    spec: ServerSpec,
    isolation: IsolationConfig,
    tenants: &[HostTenant],
    degradation: f64,
    seed: u64,
) -> Cluster {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Cluster::new(SERVERS, spec, isolation).expect("cluster");
    for (i, &(family, vcpus, level)) in tenants.iter().enumerate() {
        let p = profile(family, &mut rng).with_noise(0.0).with_vcpus(vcpus);
        let id = c
            .launch_on(0, p, VmRole::Friendly, i as f64)
            .expect("the host has room");
        let o = level.map(|l| PressureVector::from_raw([l; bolt_workloads::RESOURCE_COUNT]));
        c.set_pressure_override(id, o).expect("vm is live");
    }
    c.set_degradation(0, degradation, 0.0)
        .expect("factor in range");
    c
}

/// Probes every tenant of a [`deterministic_host`] cold and then warm,
/// each on a fresh snapshot (zeroed counters), and compares with the same
/// probe on `reference` inside the oracle scope: the bits, the query-RNG
/// stream, and `storage_stats()`. The cold probe's counters, neighbor
/// visits included, must equal the reference's outright. No memo is
/// attached, so the warm probe walks again: the same bits, and exactly
/// twice the cold probe's neighbor visits. Then every observable, cold
/// and warm, as in the churn properties.
fn assert_table_path_matches_reference(indexed: &Cluster, reference: &Cluster, t: f64, seed: u64) {
    let bits = |v: PressureVector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for &id in indexed.vms_on(0) {
        let snap = indexed.snapshot();
        let mut rng = StdRng::seed_from_u64(seed);
        let cold = snap.interference_on(id, t, &mut rng).expect("probe");
        let cold_stats = snap.storage_stats();
        let warm = snap.interference_on(id, t, &mut rng).expect("probe");
        let warm_stats = snap.storage_stats();

        let ref_snap = reference.snapshot();
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let expected =
            oracle::reference(|| ref_snap.interference_on(id, t, &mut ref_rng)).expect("probe");
        let ref_stats = ref_snap.storage_stats();

        assert_eq!(bits(cold), bits(expected), "cold probe of {id:?}");
        assert_eq!(bits(warm), bits(expected), "warm probe of {id:?}");
        assert_eq!(
            rng.gen::<u64>(),
            ref_rng.gen::<u64>(),
            "query RNG stream after probing {id:?}"
        );
        assert_eq!(cold_stats, ref_stats, "cold storage stats of {id:?}");
        assert_eq!(
            warm_stats,
            StorageStats {
                neighbor_visits: 2 * cold_stats.neighbor_visits,
                ..cold_stats
            },
            "warm storage stats of {id:?}"
        );
    }
    assert_matches_reference(indexed, reference, t, seed);
    assert_matches_reference(indexed, reference, t, seed);
}

/// Core isolation: whole cores per tenant, the float channel closed.
fn core_isolated() -> IsolationConfig {
    let mut isolation = IsolationConfig::cloud_default();
    isolation.mechanisms.core_isolation = true;
    isolation
}

/// The resident-table walk, fixed cases: ten tenants on a cloud-default
/// host (scheduler float visible, the two 2-vCPU tenants push the last
/// ones onto shared cores, two overrides, one degraded run), and eight
/// on a core-isolated host.
#[test]
fn resident_table_matches_reference_on_deterministic_hosts() {
    let shared: Vec<HostTenant> = (0..10)
        .map(|i| {
            let vcpus = if i == 3 || i == 6 { 2 } else { 1 };
            let level = match i {
                2 => Some(35.0),
                7 => Some(80.0),
                _ => None,
            };
            (i, vcpus, level)
        })
        .collect();
    assert!(IsolationConfig::cloud_default().float_visibility() > 0.0);
    for degradation in [0.0, 0.3] {
        let host =
            |seed| deterministic_host(IsolationConfig::cloud_default(), &shared, degradation, seed);
        let (indexed, reference) = (host(21), host(21));
        let sharers = indexed.vms_on(0).iter().filter(|&&id| {
            let tenant = indexed.vm(id).expect("live");
            // `thread ^ 1` is the other hyperthread of a 2-way Xeon core.
            tenant.threads.iter().any(|&thread| {
                let sibling = indexed.server(0).expect("server 0").occupant(thread ^ 1);
                sibling.is_some_and(|o| o != id)
            })
        });
        assert!(sharers.count() >= 2, "the host has core-sharers");
        assert_table_path_matches_reference(&indexed, &reference, 4321.25, 5);
    }

    let isolated: Vec<HostTenant> = (0..8)
        .map(|i| (i, 1 + (i % 2) as u32, (i == 4).then_some(60.0)))
        .collect();
    let (indexed, reference) = (
        deterministic_host(core_isolated(), &isolated, 0.0, 22),
        deterministic_host(core_isolated(), &isolated, 0.0, 22),
    );
    assert_eq!(indexed.vms_on(0).len(), 8);
    assert_table_path_matches_reference(&indexed, &reference, 777.5, 6);
}

/// A 96-core host has more cores than the resident table's core masks
/// hold, so its coupled probes must take a walk that tests core sharing
/// another way. The spreading placement fills every core's first
/// hyperthread before any second one: a 64-vCPU tenant takes cores 0–63,
/// eight tenants and a 16-vCPU one the first threads of cores 64–95, a
/// second 64-vCPU tenant the second threads of cores 0–63, and ten more
/// tenants the second threads of cores 64–82, sharing those cores with
/// the first eight and the 16-vCPU tenant. A mask that wrapped core 64
/// onto core 0 would show the tenants there the big tenants' core
/// pressure.
#[test]
fn wide_host_beyond_the_core_mask_matches_reference() {
    let spec = ServerSpec {
        cores: 96,
        threads_per_core: 2,
    };
    let mut tenants: Vec<HostTenant> = vec![(0, 64, None)];
    tenants.extend((1..=8).map(|i| (i, 2, (i == 5).then_some(45.0))));
    tenants.push((1, 16, None));
    tenants.push((2, 64, Some(20.0)));
    tenants.extend((0..10).map(|i| (i, 1 + (i % 3) as u32, None)));
    for degradation in [0.0, 0.3] {
        let host = |seed| {
            deterministic_host_on(
                spec,
                IsolationConfig::cloud_default(),
                &tenants,
                degradation,
                seed,
            )
        };
        let (indexed, reference) = (host(23), host(23));
        assert_eq!(indexed.vms_on(0).len(), tenants.len());
        let high_sharers = indexed.vms_on(0).iter().filter(|&&id| {
            indexed.vm(id).expect("live").threads.iter().any(|&thread| {
                let sibling = indexed.server(0).expect("server 0").occupant(thread ^ 1);
                thread >= 128 && sibling.is_some_and(|o| o != id)
            })
        });
        assert!(high_sharers.count() >= 10, "tenants share cores past 63");
        assert_table_path_matches_reference(&indexed, &reference, 1618.5, 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The resident-table walk on random deterministic hosts: 8–16
    /// tenants (some on 2 vCPUs, so later ones share cores) under the
    /// cloud default, or 8 under core isolation; random families,
    /// overrides, degradation and probe time.
    #[test]
    fn resident_table_matches_reference_on_random_hosts(
        seed in 0u64..500,
        isolate in any::<bool>(),
        extra in 0usize..=8,
        wide in 0usize..=8,
        families in proptest::collection::vec(0usize..4, 16),
        levels in proptest::collection::vec((0u8..5, 0.0f64..100.0), 16),
        degraded in any::<bool>(),
        degradation in 0.0f64..0.9,
        t in 0.0f64..5000.0,
    ) {
        // Under core isolation every tenant takes a whole core: 8 fit.
        // Otherwise `n` tenants, the first `wide` of those that still fit
        // on 2 vCPUs, never more than the host's 16 threads.
        let n = if isolate { 8 } else { 8 + extra };
        let wide = if isolate { wide } else { wide.min(16 - n) };
        let tenants: Vec<HostTenant> = (0..n)
            .map(|i| {
                // One tenant in five runs on an override.
                let (pick, level) = levels[i];
                (families[i], if i < wide { 2 } else { 1 }, (pick == 0).then_some(level))
            })
            .collect();
        let isolation = if isolate { core_isolated() } else { IsolationConfig::cloud_default() };
        let degradation = if degraded { degradation } else { 0.0 };
        let indexed = deterministic_host(isolation, &tenants, degradation, seed);
        let reference = deterministic_host(isolation, &tenants, degradation, seed);
        prop_assert_eq!(indexed.vms_on(0).len(), n);
        assert_table_path_matches_reference(&indexed, &reference, t, seed ^ 0x7AB1E);
    }
}

/// Locality regression: probing a tenant visits only its own host's
/// co-residents — packing the *other* servers must not change the visit
/// count. Under the old full-arena scan, `visits(b)` grew with every
/// extra tenant anywhere in the region.
#[test]
fn neighbor_visits_ignore_other_servers() {
    let build = |other_servers_tenants: usize| -> (Cluster, VmId) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = Cluster::new(
            SERVERS,
            ServerSpec::xeon(),
            IsolationConfig::cloud_default(),
        )
        .expect("cluster");
        let observer = c
            .launch_on(0, profile(1, &mut rng), VmRole::Adversarial, 0.0)
            .expect("fits");
        for k in 0..3 {
            c.launch_on(0, profile(k, &mut rng), VmRole::Friendly, 0.0)
                .expect("fits");
        }
        for server in 1..SERVERS {
            for k in 0..other_servers_tenants {
                // One-vCPU tenants so eight of them pack onto each host.
                c.launch_on(
                    server,
                    profile(k, &mut rng).with_vcpus(1),
                    VmRole::Friendly,
                    0.0,
                )
                .expect("fits");
            }
        }
        (c, observer)
    };

    let visits = |tenants_elsewhere: usize| -> u64 {
        let (c, observer) = build(tenants_elsewhere);
        let mut rng = StdRng::seed_from_u64(1);
        let before = c.storage_stats().neighbor_visits;
        c.interference_on(observer, 42.0, &mut rng)
            .expect("probe runs");
        c.storage_stats().neighbor_visits - before
    };

    let sparse = visits(0);
    let packed = visits(8);
    assert!(sparse > 0, "the probe visited its own co-residents");
    assert_eq!(
        sparse, packed,
        "a probe's visit count must not depend on other servers' tenants"
    );
}

/// Snapshots start with an empty trace and leave the original's trace
/// alone — pinned here because detection snapshots cross threads and an
/// O(history) copy (or a shared buffer) would be a scaling regression.
#[test]
fn snapshot_takes_empty_event_buffer() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut c =
        Cluster::new(2, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    c.record_events();
    let vm = c
        .launch_on(0, profile(0, &mut rng), VmRole::Friendly, 0.0)
        .expect("fits");
    c.migrate(vm, 1).expect("room on server 1");

    let snap = c.snapshot();
    assert!(
        snap.events().is_empty(),
        "snapshot must not copy the event log"
    );
    assert_eq!(c.events().len(), 2, "original trace untouched");
    assert_eq!(
        snap.vm_ids().collect::<Vec<_>>(),
        c.vm_ids().collect::<Vec<_>>(),
        "snapshot carries the placement"
    );

    // A snapshot of a drained cluster is empty too, and draining the
    // original after snapshotting does not reach into the snapshot.
    let drained = c.take_events();
    assert_eq!(drained.len(), 2);
    assert!(c.snapshot().events().is_empty());
    assert!(snap.events().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cross-snapshot sweep memo is byte-invisible: a cluster whose
    /// snapshots publish and reuse shared sweeps produces exactly the
    /// observables (and query-RNG stream state) of one that recomputes
    /// every query, through arbitrary churn before the attach and another
    /// mutation (which detaches the memo) after it.
    #[test]
    fn shared_sweep_memo_is_byte_invisible(
        seed in 0u64..500,
        ops in proptest::collection::vec((0u8..8, 0usize..64), 1..40),
        t in 0.0f64..500.0,
    ) {
        let isolation = IsolationConfig::cloud_default();
        let mut plain = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        let mut memod = Cluster::new(SERVERS, ServerSpec::xeon(), isolation).expect("cluster");
        apply_ops(&mut plain, &ops, seed);
        apply_ops(&mut memod, &ops, seed);

        let memo = std::sync::Arc::new(SweepMemo::new());
        memod.share_sweeps(std::sync::Arc::clone(&memo));

        // Two rounds of snapshots: round 0 publishes every deterministic
        // query, round 1 answers them from the memo. Both must match the
        // memo-less cluster bit for bit.
        for round in 0..2u64 {
            let a = plain.snapshot();
            let b = memod.snapshot();
            assert_observables_match(&a, &b, t, seed ^ 0x5EE9 ^ round);
        }

        // A mutation detaches the memo; stale entries must not serve.
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let p = profile(3, &mut rng).with_vcpus(1);
        let mut rng2 = StdRng::seed_from_u64(seed ^ 1);
        let q = profile(3, &mut rng2).with_vcpus(1);
        if let (Some(sa), Some(sb)) =
            (plain.least_loaded_server(p.vcpus()), memod.least_loaded_server(q.vcpus()))
        {
            plain.launch_on(sa, p, VmRole::Friendly, t).expect("fits");
            memod.launch_on(sb, q, VmRole::Friendly, t).expect("fits");
            assert_observables_match(&plain, &memod, t + 0.5, seed ^ 0xDE7A);
        }
    }
}

/// Sharing accounting is exact and mutation detaches: two snapshots
/// issuing the same deterministic query cost one co-resident walk plus
/// one memo hit, and a mutated snapshot stops consulting entirely.
#[test]
fn sweep_memo_counts_shared_queries_and_detaches_on_mutation() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut c =
        Cluster::new(2, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    let observer = c
        .launch_on(
            0,
            profile(0, &mut rng).with_vcpus(1),
            VmRole::Adversarial,
            0.0,
        )
        .expect("fits");
    c.set_pressure_override(observer, Some(PressureVector::zero()))
        .expect("vm is live");
    for k in 0..3 {
        // Zero-noise tenants: the whole server is deterministic, so the
        // cacheable gate (and with it the memo) engages.
        c.launch_on(
            0,
            profile(k, &mut rng).with_noise(0.0).with_vcpus(1),
            VmRole::Friendly,
            0.0,
        )
        .expect("fits");
    }
    let memo = std::sync::Arc::new(SweepMemo::new());
    c.share_sweeps(std::sync::Arc::clone(&memo));

    let t = 12.5;
    let a = c.snapshot();
    let b = c.snapshot();
    // Cold query: the probe consults once, misses and publishes its one
    // entry. The uncoupled walks its couple-progress recursion makes (one
    // per deterministic neighbor) are scanned and never reach the memo.
    let va = a.interference_on(observer, t, &mut rng).expect("probe");
    let cold_lookups = memo.lookups();
    let published = memo.distinct();
    assert_eq!(cold_lookups, 1, "a cold probe consults once");
    assert_eq!(published, 1, "a cold probe publishes exactly one entry");
    // Warm identical query from a sibling snapshot: exactly one consult
    // (the hit short-circuits the recursion), nothing new
    // published, and the bytes match the cold computation.
    let vb = b.interference_on(observer, t, &mut rng).expect("probe");
    assert_eq!(va, vb, "memo hit must return the computed bytes");
    assert_eq!(
        memo.lookups(),
        cold_lookups + 1,
        "warm query costs one consult"
    );
    assert_eq!(memo.distinct(), published, "warm query publishes nothing");
    assert_eq!(
        memo.lookups() - memo.distinct(),
        1,
        "the one warm consult was shared"
    );

    // Utilization is a monitor's query, not a probe's: it never reaches
    // the memo (server 1 is empty, so no nested neighbor walk does either).
    assert_eq!(b.cpu_utilization(1, t, &mut rng).expect("in range"), 0.0);
    assert_eq!(
        memo.lookups(),
        cold_lookups + 1,
        "utilization never consults"
    );
    assert_eq!(memo.distinct(), published, "utilization never publishes");

    // Mutating a snapshot detaches it: no further consults or publishes.
    let mut mutated = c.snapshot();
    let extra = mutated
        .launch_on(1, profile(5, &mut rng).with_vcpus(1), VmRole::Friendly, 1.0)
        .expect("fits");
    mutated.terminate(extra).expect("vm is live");
    let _ = mutated
        .interference_on(observer, t, &mut rng)
        .expect("probe");
    assert_eq!(
        memo.lookups(),
        cold_lookups + 1,
        "a diverged snapshot must not consult"
    );
    assert_eq!(
        memo.distinct(),
        published,
        "a diverged snapshot must not publish"
    );

    // Each probe kind counts toward `shared_sweeps`: so far the one
    // shared coupled probe; then an LLC sweep, computed on one snapshot
    // and repeated on its sibling.
    assert_eq!(memo.shared_sweeps(), 1);
    let sweep = a
        .cache_sweep_response(observer, 0.5, t, &mut rng)
        .expect("sweep");
    assert_eq!(memo.shared_sweeps(), 1, "a cold query shares nothing");
    let sweep_b = b
        .cache_sweep_response(observer, 0.5, t, &mut rng)
        .expect("sweep");
    assert_eq!(sweep_b, sweep);
    assert_eq!(memo.shared_sweeps(), 2, "the sweep was shared");
}

/// A snapshot keeps no memo of its own: probing the same observer twice
/// at one `t` consults the shared memo twice, publishes once, and reads
/// back the bits it computed.
#[test]
fn a_repeated_probe_consults_the_shared_memo_again() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut c =
        Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    let ids: Vec<VmId> = (0..4)
        .map(|k| {
            let p = profile(k, &mut rng).with_noise(0.0).with_vcpus(1);
            c.launch_on(0, p, VmRole::Friendly, 0.0).expect("fits")
        })
        .collect();
    let memo = std::sync::Arc::new(SweepMemo::new());
    c.share_sweeps(std::sync::Arc::clone(&memo));

    let snap = c.snapshot();
    let (lookups, distinct) = (memo.lookups(), memo.distinct());
    let first = snap.interference_on(ids[0], 7.5, &mut rng).expect("probe");
    let second = snap.interference_on(ids[0], 7.5, &mut rng).expect("probe");
    assert_eq!(
        first
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        second
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        "the repeat reads back the computed bits"
    );
    assert_eq!(memo.lookups(), lookups + 2, "each probe consults");
    assert_eq!(memo.distinct(), distinct + 1, "one entry is published");
    assert_eq!(memo.shared_sweeps(), 1, "the repeat counts as shared");
}

/// The linear scan `least_loaded_server` replaced, over the public
/// `server(i)` API only: the most free threads among servers that can
/// host `vcpus`, ties to the lowest index. Free threads and whole free
/// cores are recounted from the slots, so the oracle shares no state
/// with the index or the servers' free-thread counters.
fn least_loaded_scan(cluster: &Cluster, vcpus: u32) -> Option<usize> {
    let core_iso = cluster.isolation().mechanisms.core_isolation;
    let mut best: Option<(usize, usize)> = None;
    for i in 0..cluster.server_count() {
        let server = cluster.server(i).expect("in range");
        let spec = server.spec();
        let tpc = spec.threads_per_core as usize;
        let free_slot = |slot: usize| server.occupant(slot).is_none();
        let free = (0..spec.total_threads() as usize)
            .filter(|&t| free_slot(t))
            .count();
        let whole_cores = (0..spec.cores as usize)
            .filter(|&c| (c * tpc..(c + 1) * tpc).all(free_slot))
            .count();
        let fits = if core_iso {
            whole_cores * tpc >= (vcpus as usize).div_ceil(tpc) * tpc
        } else {
            free >= vcpus as usize
        };
        if fits && best.is_none_or(|(_, most)| free > most) {
            best = Some((i, free));
        }
    }
    best.map(|(i, _)| i)
}

/// Every request size the index must answer like the scan: empty, the
/// region's VM sizes, a whole Xeon, and one thread more than a Xeon has.
const PLACEMENT_SIZES: [u32; 7] = [0, 1, 2, 4, 8, 16, 17];

fn assert_least_loaded_matches_scan(cluster: &Cluster, context: &str) {
    for vcpus in PLACEMENT_SIZES {
        assert_eq!(
            cluster.least_loaded_server(vcpus),
            least_loaded_scan(cluster, vcpus),
            "least_loaded_server({vcpus}) left the scan after {context}"
        );
    }
}

/// One placement write: least-loaded and explicit launches, pinned
/// launches (rejected under core isolation), terminations, migrations,
/// profile swaps that may not fit, and core-isolation toggles. Sizes
/// up to a whole Xeon spread servers over every free-thread bucket.
fn placement_step(cluster: &mut Cluster, live: &mut Vec<VmId>, (op, pick): (u8, usize), i: usize) {
    let mut rng = StdRng::seed_from_u64(i as u64 ^ (pick as u64) << 8);
    let vcpus = 1 + (pick % 16) as u32;
    let p = profile(i, &mut rng).with_vcpus(1 + (pick % 8) as u32);
    let server = pick % cluster.server_count();
    match op {
        0 => {
            if let Some(s) = cluster.least_loaded_server(p.vcpus()) {
                live.push(
                    cluster
                        .launch_on(s, p, VmRole::Friendly, 0.0)
                        .expect("fits"),
                );
            }
        }
        1 => {
            if let Ok(id) = cluster.launch_on(server, p.with_vcpus(vcpus), VmRole::Friendly, 0.0) {
                live.push(id);
            }
        }
        2 => {
            if let Ok(id) = cluster.launch_pinned(server, p, VmRole::Friendly, 0.0, &mut rng) {
                live.push(id);
            }
        }
        3 | 4 if !live.is_empty() => {
            let id = live.remove(pick % live.len());
            cluster.terminate(id).expect("vm is live");
        }
        5 if !live.is_empty() => {
            let id = live[pick % live.len()];
            let _ = cluster.migrate(id, server);
        }
        6 if !live.is_empty() => {
            let id = live[pick % live.len()];
            let _ = cluster.swap_profile(id, p.with_vcpus(vcpus));
        }
        7 => {
            let mut isolation = cluster.isolation();
            isolation.mechanisms.core_isolation ^= true;
            cluster.set_isolation(isolation);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed `least_loaded_server` returns the linear scan's server
    /// for every request size after every placement write, on a cluster
    /// and on a snapshot of it while either side writes.
    #[test]
    fn least_loaded_index_matches_linear_scan(
        servers in 1usize..7,
        ops in proptest::collection::vec((0u8..8, 0usize..256), 1..80),
        sides in proptest::collection::vec(any::<bool>(), 80),
        split in 0usize..80,
    ) {
        let mut sides_live = vec![(
            Cluster::new(servers, ServerSpec::xeon(), IsolationConfig::cloud_default())
                .expect("cluster"),
            Vec::new(),
        )];
        assert_least_loaded_matches_scan(&sides_live[0].0, "construction");
        for (i, &op) in ops.iter().enumerate() {
            if i == split {
                let snapshot = (sides_live[0].0.snapshot(), sides_live[0].1.clone());
                sides_live.push(snapshot);
            }
            let side = usize::from(sides[i]) % sides_live.len();
            let (cluster, live) = &mut sides_live[side];
            placement_step(cluster, live, op, i);
            for (k, (cluster, _)) in sides_live.iter().enumerate() {
                let context = format!("op {i} {op:?} on side {side} (checking side {k})");
                assert_least_loaded_matches_scan(cluster, &context);
            }
        }
    }
}
