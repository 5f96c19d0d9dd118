//! Edge cases the chaos engine exercises: migrations to full or unknown
//! servers, terminations mid-probe, and profile swaps during an open probe
//! window must all fail with `SimError`s — never panic — and the trace must
//! stay consistent (no event for an operation that did not happen).

use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, SimError, TraceEvent, VmId};
use bolt_workloads::{catalog, DatasetScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cluster that records its lifecycle log: these edges are about the
/// trace as much as the state.
fn cluster(n: usize) -> Cluster {
    let mut c =
        Cluster::new(n, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    c.record_events();
    c
}

fn big_profile(rng: &mut StdRng) -> bolt_workloads::WorkloadProfile {
    catalog::spark::profile(&catalog::spark::Algorithm::KMeans, DatasetScale::Large, rng)
        .with_vcpus(ServerSpec::xeon().total_threads())
}

#[test]
fn migrate_to_unknown_server_fails_without_a_trace_event() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut c = cluster(2);
    let p = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng);
    let vm = c.launch_on(0, p, VmRole::Friendly, 0.0).expect("fits");
    let events_before = c.events().len();

    let err = c.migrate(vm, 99).expect_err("server 99 does not exist");
    assert!(matches!(err, SimError::UnknownServer { server: 99, .. }));
    assert_eq!(c.vm(vm).expect("still placed").server, 0);
    assert_eq!(
        c.events().len(),
        events_before,
        "a failed migration must not be traced"
    );
}

#[test]
fn migrate_to_full_server_fails_in_place() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut c = cluster(2);
    // Fill server 1 completely.
    c.launch_on(1, big_profile(&mut rng), VmRole::Friendly, 0.0)
        .expect("fits empty server");
    let p = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng);
    let vm = c.launch_on(0, p, VmRole::Friendly, 0.0).expect("fits");
    let events_before = c.events().len();

    let err = c.migrate(vm, 1).expect_err("server 1 is full");
    assert!(matches!(
        err,
        SimError::InsufficientCapacity { server: 1, .. }
    ));
    assert_eq!(c.vm(vm).expect("still placed").server, 0);
    assert!(
        !c.events()[events_before..]
            .iter()
            .any(|e| matches!(e, TraceEvent::Migrate { .. })),
        "a failed migration must not be traced"
    );
}

#[test]
fn terminate_mid_probe_invalidates_the_observer_not_the_process() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut c = cluster(1);
    let victim = catalog::cassandra::profile(&catalog::cassandra::Variant::Mixed, &mut rng);
    let vm = c.launch_on(0, victim, VmRole::Friendly, 0.0).expect("fits");

    // Probe window opens: one contention read succeeds...
    let _ = c.interference_on(vm, 10.0, &mut rng).expect("vm is live");
    // ...the VM departs mid-window...
    c.terminate(vm).expect("vm is live");
    // ...and the next read fails cleanly instead of panicking.
    let err = c
        .interference_on(vm, 30.0, &mut rng)
        .expect_err("vm departed mid-probe");
    assert_eq!(err, SimError::UnknownVm { vm });

    // Double-terminate is also a clean error, and traced exactly once.
    assert_eq!(c.terminate(vm), Err(SimError::UnknownVm { vm }));
    let terminations = c
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Terminate { .. }))
        .count();
    assert_eq!(terminations, 1);
}

#[test]
fn swap_during_open_probe_window_rolls_back_on_failure() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut c = cluster(1);
    let small =
        catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng).with_vcpus(2);
    let vm = c.launch_on(0, small, VmRole::Friendly, 0.0).expect("fits");
    // Occupy the rest of the server so a grow-swap cannot be re-placed.
    c.launch_on(
        0,
        big_profile(&mut rng).with_vcpus(ServerSpec::xeon().total_threads() - 2),
        VmRole::Friendly,
        0.0,
    )
    .expect("fits remainder");
    let label_before = c.vm(vm).expect("placed").profile.label().clone();
    let events_before = c.events().len();

    let grown = big_profile(&mut rng); // needs every thread: cannot fit
    let err = c.swap_profile(vm, grown).expect_err("no room to grow");
    assert!(matches!(
        err,
        SimError::InsufficientCapacity { server: 0, .. }
    ));

    // The old placement and profile must be fully restored, with no
    // SwapProfile event for the swap that did not happen.
    let state = c.vm(vm).expect("restored");
    assert_eq!(state.server, 0);
    assert_eq!(state.profile.label(), &label_before);
    assert!(
        !c.events()[events_before..]
            .iter()
            .any(|e| matches!(e, TraceEvent::SwapProfile { .. })),
        "a failed swap must not be traced"
    );
    // The probe window can keep reading the restored VM.
    let _ = c.interference_on(vm, 60.0, &mut rng).expect("vm restored");
}

#[test]
fn swap_of_unknown_vm_is_a_clean_error() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut c = cluster(1);
    let ghost = VmId::from_raw(1234);
    let p = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng);
    assert_eq!(
        c.swap_profile(ghost, p),
        Err(SimError::UnknownVm { vm: ghost })
    );
    assert!(c.events().is_empty());
}

#[test]
fn degradation_edges_are_clean_errors_and_amplify_contention() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut c = cluster(2);
    assert!(matches!(
        c.set_degradation(7, 0.2, 0.0),
        Err(SimError::UnknownServer { server: 7, .. })
    ));
    assert!(matches!(
        c.set_degradation(0, 1.5, 0.0),
        Err(SimError::InvalidConfig { .. })
    ));
    assert!(matches!(
        c.set_degradation(0, -0.1, 0.0),
        Err(SimError::InvalidConfig { .. })
    ));

    let victim = catalog::spark::profile(
        &catalog::spark::Algorithm::KMeans,
        DatasetScale::Large,
        &mut rng,
    )
    .with_vcpus(8);
    let observer =
        catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng).with_vcpus(4);
    c.launch_on(0, victim, VmRole::Friendly, 0.0).expect("fits");
    let obs = c
        .launch_on(0, observer, VmRole::Adversarial, 0.0)
        .expect("fits");

    let mut r1 = StdRng::seed_from_u64(99);
    let before = c.interference_on(obs, 50.0, &mut r1).expect("live");
    c.set_degradation(0, 0.4, 25.0).expect("valid");
    let mut r2 = StdRng::seed_from_u64(99);
    let after = c.interference_on(obs, 50.0, &mut r2).expect("live");

    let sum = |p: &bolt_workloads::PressureVector| {
        bolt_workloads::Resource::ALL
            .iter()
            .map(|&r| p[r])
            .sum::<f64>()
    };
    assert!(
        sum(&after) > sum(&before),
        "a throttled server must amplify observed contention ({} vs {})",
        sum(&after),
        sum(&before)
    );
    assert!(c
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::Degrade { server: 0, .. })));
    // Snapshots carry degradation with them.
    let snap = c.snapshot();
    assert_eq!(snap.degradation_of(0).expect("server 0"), 0.4);
}
