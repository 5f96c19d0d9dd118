//! Criterion bench for the region-scale storage layer: one interference
//! probe, and one least-loaded placement query, at 100, 1000, and 10000
//! servers; and one probe at 4, 10 and 16 tenants per server.
//!
//! The per-server residency index makes a probe walk only its host's
//! co-residents, so the three `probe/*` timings should agree within
//! noise (the PR gate is ±20%) even though the largest region holds 100x
//! the tenants of the smallest. Each iteration probes at a fresh
//! simulated time so the aggregate cache never serves a hit — this
//! measures the walk, not the memo.
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
//! makes 2k−1 pressure evaluations where re-evaluating every resident
//! in every inner walk made k(k−1). Each table entry also carries its
//! fold operands (masked core lanes, core and float-leak totals), so
//! what still grows with k² is one ten-lane saturating accumulate and
//! one scalar comparison per inner-walk read of the table.

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
    // 16 one-vCPU tenants fill a Xeon's 16 hyperthreads.
    for tenants in [4usize, 10, 16] {
        let (cluster, observer) = region(100, tenants);
        let name = format!("probe_tenants/{tenants}_per_server");
        bench_probe(c, &name, &cluster, observer);
    }
}

criterion_group!(benches, bench_region_scale);
criterion_main!(benches);
