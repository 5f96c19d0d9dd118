//! Criterion bench for the region-scale storage layer: one interference
//! probe, and one least-loaded placement query, at 100, 1000, and 10000
//! servers; one probe at 4, 10 and 16 tenants per server; and one region
//! step's 256 probes spread across 10000 servers.
//!
//! The per-server residency index makes a probe walk only its host's
//! co-residents, so the three `probe/*` timings should agree within
//! noise (the PR gate is ±20%) even though the largest region holds 100x
//! the tenants of the smallest. No sweep memo is attached, so every
//! probe walks its host — this measures the walk. Each iteration probes
//! at a fresh simulated time but one observer again and again, so that
//! host's tenants stay in cache.
//!
//! The free-thread placement index makes `least_loaded_server` skip the
//! region scan, so the three `least_loaded_server/*` timings should be
//! flat too. The query's answer is the region's last server, the one a
//! linear scan finds only after visiting every other.
//!
//! The `probe_tenants/*` group holds the region at 100 servers and
//! varies the tenants per server, k, instead. A probe couples each
//! neighbor's emission to that neighbor's own interference, so it makes
//! one inner walk over the k residents per neighbor. The per-probe
//! resident table evaluates each resident's pressure once, so a probe
//! makes k load-scaled pressure evaluations where re-evaluating every
//! resident in every inner walk made k(k−1). Each table entry also
//! carries its fold operands (masked core lanes, core and float-leak
//! totals) and a core mask, so what still grows with k² is one ten-lane
//! saturating accumulate, one scalar comparison and one AND per
//! inner-walk read of the table.
//!
//! `probe_region_step/10000_servers` is the cold probe as the
//! `region-churn` workload issues it: per iteration, one tenant leaves
//! and one lands, then 256 probes spaced evenly across the region at one
//! fresh `t`, each on a host whose lines the previous probes did not
//! touch. The time is per iteration, churn included: divide by 256 for
//! one probe. This is where reading a cold host shows, which the warm
//! `probe/*` case hides.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, VmId};
use bolt_workloads::catalog;
use rand::rngs::StdRng;
use rand::SeedableRng;

const VMS_PER_SERVER: usize = 10;

/// A region of `servers` hosts with `tenants` one-vCPU zero-noise tenants
/// each (deterministic profiles keep the probe on the RNG-free path).
fn region(servers: usize, tenants: usize) -> (Cluster, VmId) {
    let mut rng = StdRng::seed_from_u64(0xB017);
    let mut cluster = Cluster::new(
        servers,
        ServerSpec::xeon(),
        IsolationConfig::cloud_default(),
    )
    .expect("cluster builds");
    let mut observer = None;
    for server in 0..servers {
        for k in 0..tenants {
            let variant = if (server + k) % 2 == 0 {
                catalog::memcached::Variant::Mixed
            } else {
                catalog::memcached::Variant::ReadHeavyKb
            };
            let profile = catalog::memcached::profile(&variant, &mut rng)
                .with_noise(0.0)
                .with_vcpus(1);
            let id = cluster
                .launch_on(server, profile, VmRole::Friendly, 0.0)
                .expect("tenant fits");
            if server == 0 && k == 0 {
                observer = Some(id);
            }
        }
    }
    (cluster, observer.expect("server 0 is populated"))
}

/// Times one first-touch probe of `observer` as `name`.
fn bench_probe(c: &mut Criterion, name: &str, cluster: &Cluster, observer: VmId) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut tick = 0u64;
    c.bench_function(name, |b| {
        b.iter(|| {
            // A fresh t per probe: always a first touch, never a memo.
            tick += 1;
            let t = 1.0 + tick as f64 * 1e-3;
            black_box(
                cluster
                    .interference_on(black_box(observer), t, &mut rng)
                    .expect("probe runs"),
            )
        })
    });
}

/// Probes spread across the region per `probe_region_step` iteration, as
/// a region-churn step makes.
const PROBES_PER_STEP: usize = 256;

/// Times one churn and one step's spread probes as
/// `probe_region_step/{servers}_servers`.
fn bench_region_step(c: &mut Criterion, servers: usize) {
    let (mut cluster, observer) = region(servers, VMS_PER_SERVER);
    let newcomer = cluster.vm(observer).expect("live").profile.clone();
    let spacing = servers / PROBES_PER_STEP;
    let mut rng = StdRng::seed_from_u64(2);
    let mut tick = 0usize;
    c.bench_function(&format!("probe_region_step/{servers}_servers"), |b| {
        b.iter(|| {
            tick += 1;
            let t = 1.0 + tick as f64 * 1e-3;
            // A tenant off the probed hosts leaves, and a newcomer takes
            // its thread, as in a step's churn.
            let host = (tick * spacing + spacing / 2) % servers;
            let leaving = cluster.vms_on(host)[0];
            cluster.terminate(leaving).expect("tenant is live");
            cluster
                .launch_on(host, newcomer.clone(), VmRole::Friendly, t)
                .expect("the freed thread fits");
            for k in 0..PROBES_PER_STEP {
                let residents = cluster.vms_on(k * spacing);
                let id = residents[k % residents.len()];
                black_box(
                    cluster
                        .interference_on(id, t, &mut rng)
                        .expect("probe runs"),
                );
            }
        })
    });
}

fn bench_region_scale(c: &mut Criterion) {
    c.sample_size(10);
    for servers in [100usize, 1000, 10_000] {
        let (mut cluster, observer) = region(servers, VMS_PER_SERVER);
        bench_probe(c, &format!("probe/{servers}_servers"), &cluster, observer);

        // One tenant leaves the last server: it alone has the most free
        // threads, so it is every query's answer.
        let leaving = *cluster.vms_on(servers - 1).last().expect("populated");
        cluster.terminate(leaving).expect("tenant is live");
        c.bench_function(&format!("least_loaded_server/{servers}_servers"), |b| {
            b.iter(|| black_box(cluster.least_loaded_server(black_box(1))))
        });
        assert_eq!(cluster.least_loaded_server(1), Some(servers - 1));
    }
    bench_region_step(c, 10_000);
    // 16 one-vCPU tenants fill a Xeon's 16 hyperthreads.
    for tenants in [4usize, 10, 16] {
        let (cluster, observer) = region(100, tenants);
        let name = format!("probe_tenants/{tenants}_per_server");
        bench_probe(c, &name, &cluster, observer);
    }
}

criterion_group!(benches, bench_region_scale);
criterion_main!(benches);
