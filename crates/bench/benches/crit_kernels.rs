//! Criterion micro-benchmarks for the performance claims:
//!
//! * the recommender's end-to-end detection latency (paper: 95th
//!   percentile 80 ms — ours runs far faster since the matrices are tiny
//!   and native);
//! * the SVD behind it, and the bit-exact primitive kernels against
//!   their scalar references;
//! * one simulated probe ramp.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bolt_linalg::svd::Svd;
use bolt_probes::{Microbenchmark, RampConfig};
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, training::training_set, Resource};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_recommender(c: &mut Criterion) {
    let data = TrainingData::from_profiles(&training_set(7)).expect("training data");
    let rec = HybridRecommender::fit(data, RecommenderConfig::default()).expect("fit");
    let obs = [
        (Resource::L1i, 80.0),
        (Resource::Llc, 76.0),
        (Resource::DiskBw, 0.0),
    ];
    c.bench_function("recommender_end_to_end", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let v = rec.recommend(black_box(&obs), &mut rng).expect("recommend");
            black_box(v.scores.len())
        })
    });
    c.bench_function("recommender_subspace_match", |b| {
        let core_obs = [
            (Resource::L1i, 80.0),
            (Resource::L1d, 42.0),
            (Resource::L2, 30.0),
            (Resource::Cpu, 35.0),
        ];
        b.iter(|| {
            let v = rec.match_subspace(black_box(&core_obs)).expect("match");
            black_box(v.len())
        })
    });
}

fn bench_kernels(c: &mut Criterion) {
    let data = TrainingData::from_profiles(&training_set(7)).expect("training data");
    c.bench_function("svd_120x10", |b| {
        b.iter(|| {
            let svd = Svd::compute(black_box(data.matrix())).expect("svd");
            black_box(svd.singular_values()[0])
        })
    });
}

/// Deterministic sign/magnitude-mixed series for the primitive-kernel
/// comparisons (no RNG so every run benches identical data).
fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as f64).mul_add(0.618_033_988_749, 0.25);
            (x - x.floor() - 0.5) * 100.0
        })
        .collect()
}

/// Scalar-reference vs bit-exact-unrolled dot product, plus the fused
/// weighted-moment reduction, at the sizes production paths actually see
/// (concept rows ~10, pressure series ~64, and 1k/64k to expose the
/// memory-bandwidth ceiling).
fn bench_primitives(c: &mut Criterion) {
    use bolt_linalg::kernels::{self, reference};
    for n in [8usize, 64, 1024, 65_536] {
        let a = series(n);
        let b = series(n + 1)[1..].to_vec();
        c.bench_function(&format!("dot_scalar_{n}"), |bench| {
            bench.iter(|| black_box(reference::dot(black_box(&a), black_box(&b))))
        });
        c.bench_function(&format!("dot_bitexact_{n}"), |bench| {
            bench.iter(|| black_box(kernels::dot(black_box(&a), black_box(&b))))
        });
    }
    // The weighted-Pearson interior: three covariance passes (old shape)
    // vs one fused moments pass (new shape) over a telemetry-sized series.
    let n = 256;
    let xs = series(n);
    let ys = series(n + 3)[3..].to_vec();
    let ws: Vec<f64> = series(n).iter().map(|v| v.abs() / 100.0 + 0.01).collect();
    c.bench_function("wpearson_moments_scalar_256", |bench| {
        bench.iter(|| {
            let (wsum, sx, sy) = reference::weighted_sums2(&xs, &ys, &ws);
            let (mx, my) = (sx / wsum, sy / wsum);
            black_box(reference::weighted_moments(
                black_box(&xs),
                black_box(&ys),
                &ws,
                mx,
                my,
            ))
        })
    });
    c.bench_function("wpearson_moments_fused_256", |bench| {
        bench.iter(|| {
            let (wsum, sx, sy) = kernels::weighted_sums2(&xs, &ys, &ws);
            let (mx, my) = (sx / wsum, sy / wsum);
            black_box(kernels::weighted_moments(
                black_box(&xs),
                black_box(&ys),
                &ws,
                mx,
                my,
            ))
        })
    });
    // The cluster-aggregation inner loop: saturating pressure accumulation
    // over the 10-lane resource vector, batched as one scan over 64 VMs.
    let atten = [0.85f64; 10];
    let vm_pressures: Vec<[f64; 10]> = (0..64)
        .map(|i| {
            let s = series(10 + i)[i..].to_vec();
            let mut p = [0.0; 10];
            for (slot, v) in p.iter_mut().zip(&s) {
                *slot = v.abs();
            }
            p
        })
        .collect();
    c.bench_function("pressure_accum_scalar_64vms", |bench| {
        bench.iter(|| {
            let mut total = [0.0f64; 10];
            for p in &vm_pressures {
                reference::sat_accum(&mut total, black_box(p), &atten, 100.0);
            }
            black_box(total[0])
        })
    });
    c.bench_function("pressure_accum_kernel_64vms", |bench| {
        bench.iter(|| {
            let mut total = [0.0f64; 10];
            for p in &vm_pressures {
                kernels::sat_accum(&mut total, black_box(p), &atten, 100.0);
            }
            black_box(total[0])
        })
    });
}

fn bench_probe_ramp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut cluster =
        Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
    let adv = cluster
        .launch_on(
            0,
            catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng),
            VmRole::Adversarial,
            0.0,
        )
        .expect("adversary placed");
    cluster
        .launch_on(
            0,
            catalog::spark::profile(
                &catalog::spark::Algorithm::KMeans,
                bolt_workloads::DatasetScale::Medium,
                &mut rng,
            ),
            VmRole::Friendly,
            0.0,
        )
        .expect("victim placed");
    let bench = Microbenchmark::new(Resource::MemBw);
    let config = RampConfig::default();
    c.bench_function("probe_ramp_membw", |b| {
        b.iter(|| {
            let r = bench
                .measure(&cluster, adv, 10.0, &config, &mut rng)
                .expect("measure");
            black_box(r.pressure)
        })
    });
}

criterion_group!(
    benches,
    bench_recommender,
    bench_kernels,
    bench_primitives,
    bench_probe_ramp
);
criterion_main!(benches);
