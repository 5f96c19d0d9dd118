//! End-to-end pin: the unrolled kernels change wall-clock only.
//!
//! Runs the full experiment pipeline twice at the benchmark configuration —
//! once with the production kernels and once with every kernel rerouted to
//! its naive scalar reference (`kernels::force_reference`) — and demands
//! byte-identical records and normalized telemetry. It pins the kernels
//! themselves; `crates/bench/tests/figures.rs` pins the 35 committed
//! `bench_results/` CSVs they feed, byte for byte, so a kernel change that
//! moved an output bit would fail both.

use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::parallel::Parallelism;
use bolt::{FitCache, RunCtx};
use bolt_linalg::kernels;
use bolt_sim::LeastLoaded;

/// The crit_run_experiment benchmark configuration, at two seeds.
fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        servers: 8,
        victims: 16,
        seed,
        parallelism: Parallelism::Serial,
        ..ExperimentConfig::default()
    }
}

#[test]
fn unrolled_kernels_are_invisible_end_to_end() {
    for seed in [ExperimentConfig::default().seed, 7, 20170417] {
        let cfg = config(seed);

        kernels::force_reference(false);
        let (fast, fast_log) =
            run_experiment(&cfg, &LeastLoaded, &RunCtx::new(&FitCache::new(), true))
                .expect("kernel run succeeds");

        kernels::force_reference(true);
        let (slow, slow_log) =
            run_experiment(&cfg, &LeastLoaded, &RunCtx::new(&FitCache::new(), true))
                .expect("reference run succeeds");
        kernels::force_reference(false);

        assert_eq!(
            fast.records, slow.records,
            "records diverged at seed {seed}: a kernel is not bit-exact"
        );
        assert_eq!(
            fast_log.normalized(),
            slow_log.normalized(),
            "telemetry diverged at seed {seed}: a kernel is not bit-exact"
        );
    }
}
