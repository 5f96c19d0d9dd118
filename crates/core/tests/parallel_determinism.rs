//! Property tests for the parallel experiment engine's determinism
//! claims: thread count must never change results, only wall-clock.

use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::parallel::{sweep, Parallelism};
use bolt::{FitCache, RunCtx};
use bolt_sim::LeastLoaded;
use proptest::prelude::*;

proptest! {
    // Each case runs three full experiments; keep the count small and
    // scale up via PROPTEST_CASES when hunting.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn thread_count_never_changes_experiment_records(
        seed in 0u64..1_000_000,
        servers in 4usize..7,
        victims in 6usize..10,
    ) {
        let config = |parallelism| ExperimentConfig {
            servers,
            victims,
            seed,
            parallelism,
            ..ExperimentConfig::default()
        };
        let run = |parallelism| {
            let cache = FitCache::new();
            let ctx = RunCtx::new(&cache, false);
            run_experiment(&config(parallelism), &LeastLoaded, &ctx).expect("experiment runs").0
        };
        let serial = run(Parallelism::Serial);
        let one = run(Parallelism::Threads(1));
        let two = run(Parallelism::Threads(2));
        let eight = run(Parallelism::Threads(8));
        prop_assert_eq!(&serial.records, &one.records);
        prop_assert_eq!(&serial.records, &two.records);
        prop_assert_eq!(&serial.records, &eight.records);
    }

    #[test]
    fn fit_cache_preserves_thread_count_invariance(
        seed in 0u64..1_000_000,
        servers in 4usize..7,
        victims in 6usize..10,
    ) {
        // With a shared cache (warm or cold), thread count must still
        // never change a byte: records, telemetry event streams, and the
        // cache's hit/miss accounting all have to match the serial run.
        let config = |parallelism| ExperimentConfig {
            servers,
            victims,
            seed,
            parallelism,
            ..ExperimentConfig::default()
        };
        let run = |parallelism, cache: &FitCache, telemetry| {
            let ctx = RunCtx::new(cache, telemetry);
            run_experiment(&config(parallelism), &LeastLoaded, &ctx).expect("experiment runs")
        };
        let serial_cache = FitCache::new();
        let (serial, serial_log) = run(Parallelism::Serial, &serial_cache, true);
        let threaded_cache = FitCache::new();
        let (threaded, threaded_log) = run(Parallelism::Threads(3), &threaded_cache, true);
        prop_assert_eq!(&serial.records, &threaded.records);
        prop_assert_eq!(serial_log.normalized(), threaded_log.normalized());
        prop_assert_eq!(serial_cache.stats(), threaded_cache.stats());
        // A warm cache changes wall-clock only: re-running against the
        // already-populated serial cache reproduces the records again.
        let (warm, _) = run(Parallelism::Threads(2), &serial_cache, false);
        prop_assert_eq!(&serial.records, &warm.records);
        prop_assert_eq!(serial_cache.stats().hits, 1);
        // Disabling the cache must not change results either.
        let (uncached, _) = run(Parallelism::Serial, &FitCache::disabled(), false);
        prop_assert_eq!(&serial.records, &uncached.records);
    }
}

proptest! {
    #[test]
    fn sweep_is_an_order_preserving_map(
        items in proptest::collection::vec(0u64..1_000_000, 0..40),
        workers in 1usize..12,
    ) {
        let f = |idx: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ idx as u64;
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        let threaded = sweep(&items, Parallelism::Threads(workers), f);
        prop_assert_eq!(serial, threaded);
    }
}
