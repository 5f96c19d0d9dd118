//! Honesty properties of the streaming service loop: every offered request
//! terminates in exactly one outcome, the admitted count conserves across
//! outcomes, and degraded verdicts never outrank the clean verdict the
//! same request earns on a calm cluster. That thread fan-out moves no
//! bytes is pinned, with every other optimisation, by `tests/oracle.rs`.

use bolt::service::{run_service, RequestOutcome, ServiceConfig, ShedReason};
use bolt::{FitCache, Parallelism, RunCtx};
use bolt_sim::{ChaosConfig, StormConfig};
use proptest::prelude::*;

fn small_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        servers: 3,
        vms_per_server: 2,
        requests: 12,
        seed,
        parallelism: Parallelism::Serial,
        ..ServiceConfig::default()
    }
}

proptest! {
    // Each case runs two full service loops; keep the count small and
    // scale up via PROPTEST_CASES when hunting.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn admitted_requests_terminate_exactly_once_and_honestly(
        seed in 0u64..1_000_000,
        rate_decis in 20u32..120,
        chaos_pct in 30u32..=100,
    ) {
        let calm = ServiceConfig {
            arrival_rate_per_min: f64::from(rate_decis) / 10.0,
            ..small_config(seed)
        };
        let stormy = ServiceConfig {
            chaos: ChaosConfig::with_intensity(f64::from(chaos_pct) / 100.0),
            storm: StormConfig::with_intensity(f64::from(chaos_pct) / 100.0),
            ..calm
        };

        let run = |config| run_service(config, &RunCtx::new(&FitCache::new(), false)).unwrap().0;
        let calm_report = run(&calm);
        let stormy_report = run(&stormy);

        for report in [&calm_report, &stormy_report] {
            // Totality: one terminal record per offered request, dense in
            // trace order — nothing vanishes, nothing terminates twice.
            prop_assert_eq!(report.records.len(), report.offered);
            for (i, r) in report.records.iter().enumerate() {
                prop_assert_eq!(r.id, i);
            }
            // Conservation: admission partitions the offered load, and
            // every admitted request lands in exactly one executed bucket.
            prop_assert_eq!(report.offered, report.admitted + report.shed_at_admission);
            prop_assert!(report.balanced(), "count identity violated: {:?}", report);
            let executed_sheds = report
                .records
                .iter()
                .filter(|r| {
                    matches!(
                        r.outcome,
                        RequestOutcome::Shed { reason: ShedReason::BreakerOpen }
                    )
                })
                .count();
            prop_assert_eq!(executed_sheds, report.shed_after_admission);
        }

        // Honest degradation: a verdict flagged degraded under chaos never
        // reports more confidence than the clean verdict the same request
        // (matched by arrival tick — the base trace draws are storm-
        // invariant) earns on the calm cluster.
        for stormy_rec in stormy_report.records.iter().filter(|r| !r.from_storm) {
            let RequestOutcome::Degraded { confidence: degraded_conf, .. } = &stormy_rec.outcome
            else {
                continue;
            };
            let calm_rec = calm_report
                .records
                .iter()
                .find(|r| r.arrival_s.to_bits() == stormy_rec.arrival_s.to_bits());
            let Some(calm_rec) = calm_rec else { continue };
            if let RequestOutcome::Completed { confidence, .. } = &calm_rec.outcome {
                if *confidence >= calm.detector.confidence_threshold {
                    prop_assert!(
                        degraded_conf <= confidence,
                        "degraded verdict ({}) outranks the calm clean verdict ({})",
                        degraded_conf,
                        confidence
                    );
                }
            }
        }
    }
}
