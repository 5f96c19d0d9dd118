//! Criterion bench for the parallel experiment engine: the Table 1
//! harness (a small controlled experiment) at `Parallelism::Serial`
//! versus `Parallelism::Auto`. Per-victim RNG derivation makes the two
//! configurations produce byte-identical records (property-tested in
//! `crates/core/tests/parallel_determinism.rs`), so any wall-clock gap is
//! pure scheduling win.
//!
//! `run_experiment_serial` runs with telemetry off — the recorder is a
//! `None` branch per call site — and `run_experiment_serial_telemetry_on`
//! bounds the cost of full recording on the same configuration.

use bolt::RunCtx;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::parallel::Parallelism;
use bolt_sim::LeastLoaded;

fn config(parallelism: Parallelism) -> ExperimentConfig {
    ExperimentConfig {
        servers: 8,
        victims: 16,
        parallelism,
        ..ExperimentConfig::default()
    }
}

/// One run of the bench configuration, its fit included.
fn run(cfg: &ExperimentConfig, telemetry: bool) -> usize {
    let ctx = RunCtx::new(telemetry);
    let (r, log) = run_experiment(black_box(cfg), &LeastLoaded, &ctx).expect("experiment runs");
    r.records.len() + log.len()
}

fn bench_run_experiment(c: &mut Criterion) {
    c.sample_size(10);
    c.bench_function("run_experiment_serial", |b| {
        let cfg = config(Parallelism::Serial);
        b.iter(|| black_box(run(&cfg, false)))
    });
    c.bench_function("run_experiment_auto", |b| {
        let cfg = config(Parallelism::Auto);
        b.iter(|| black_box(run(&cfg, false)))
    });
    c.bench_function("run_experiment_serial_telemetry_on", |b| {
        let cfg = config(Parallelism::Serial);
        b.iter(|| black_box(run(&cfg, true)))
    });
}

criterion_group!(benches, bench_run_experiment);
criterion_main!(benches);
