//! The run context every driver borrows.

use bolt_recommender::FitCache;

use crate::telemetry::Telemetry;

/// The two choices a caller makes for a driver run: which [`FitCache`]
/// the recommender trains (or is recalled) through, and whether the run
/// records telemetry.
///
/// Every driver — [`run_experiment`](crate::run_experiment), the three
/// [`sensitivity`](crate::sensitivity) sweeps,
/// [`churn_sweep`](crate::churn_sweep),
/// [`run_isolation_study`](crate::run_isolation_study),
/// [`run_user_study`](crate::run_user_study) and
/// [`run_service`](crate::run_service) — takes a `&RunCtx` and returns its
/// result together with a [`TelemetryLog`](crate::TelemetryLog). The log
/// is empty when `telemetry` is false. The result never depends on either
/// field: a cache hit is byte-identical to a refit
/// ([`FitCache::disabled`] trains every time), and recording draws no
/// randomness.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx<'a> {
    /// The cache fits go through. Share one across runs to train once.
    pub fit_cache: &'a FitCache,
    /// Whether the run records and returns its telemetry stream.
    pub telemetry: bool,
}

impl<'a> RunCtx<'a> {
    /// A context fitting through `fit_cache` that records telemetry when
    /// `telemetry` is set.
    pub fn new(fit_cache: &'a FitCache, telemetry: bool) -> Self {
        RunCtx {
            fit_cache,
            telemetry,
        }
    }

    /// The recording handle for parallel unit `unit`: enabled for that
    /// unit when the run records telemetry, a no-op handle otherwise.
    pub fn unit(&self, unit: usize) -> Telemetry {
        Telemetry::for_unit_if(self.telemetry, unit)
    }
}
