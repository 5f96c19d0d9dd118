//! Robustness: detection quality versus cluster churn intensity.
//!
//! The paper's §3.4 experiment runs against a frozen testbed; this figure
//! re-runs it while the chaos engine injects VM arrivals, departures,
//! profile swaps, defensive migrations, capacity degradation, and probe
//! faults at increasing intensity. The claim under reproduction is the
//! robustness contract, not a paper figure: accuracy decays gracefully
//! with churn, and the decay is *announced* — the silent-mislabel rate
//! stays at or below the degraded-detection rate instead of the detector
//! confidently mislabeling through the noise.

use bolt::report::{pct, Table};
use bolt::robustness::churn_sweep;
use bolt::{BoltError, FitCache, RunCtx};
use bolt_sim::LeastLoaded;

use crate::{experiment, Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    // Reduced: the testbed the robustness unit tests pin, small enough
    // to finish in minutes, large enough that the decay shape is not
    // drowned by single-victim granularity.
    let base = experiment(scale.pick((6, 12), (24, 48)));

    let intensities = [0.0, 0.25, 0.5, 0.75, 1.0];
    // Churn never perturbs the training inputs, so one cache turns the
    // five-intensity sweep into a single recommender fit.
    let (points, telemetry) = churn_sweep(
        &base,
        &LeastLoaded,
        &intensities,
        &RunCtx::new(&FitCache::new(), true),
    )?;

    let mut table = Table::new(vec![
        "intensity",
        "accuracy",
        "degraded",
        "silent mislabel",
        "mean confidence",
        "faults",
        "discarded",
        "retries",
    ]);
    for p in &points {
        table.row(vec![
            format!("{:.2}", p.intensity),
            pct(p.label_accuracy),
            pct(p.degraded_rate),
            pct(p.silent_mislabel_rate),
            format!("{:.3}", p.mean_confidence),
            p.faults_injected.to_string(),
            p.windows_discarded.to_string(),
            p.retries.to_string(),
        ]);
    }
    let mut out = Output {
        telemetry,
        ..Output::default()
    };
    out.tables.push((
        "robustness_churn".into(),
        "accuracy decays gracefully with churn; failures are flagged, not silent",
        table,
    ));

    // Raw accuracy may move either way under churn — retries re-measure
    // windows the frozen run accepted at face value, which can *raise* it.
    // The robustness contract is about silent failures instead: the
    // frozen-cluster silent rate is the detector's baseline error, and
    // the contract bounds what churn *adds* on top of it.
    let calm = &points[0];
    let stormy = points.last().expect("nonempty sweep");
    let added_silent = (stormy.silent_mislabel_rate - calm.silent_mislabel_rate).max(0.0);
    out.checks.push((
        format!(
            "accuracy {} -> {} at full intensity ({} faults); full churn adds +{} silent mislabels over the calm baseline <= {} degraded detections",
            pct(calm.label_accuracy),
            pct(stormy.label_accuracy),
            stormy.faults_injected,
            pct(added_silent),
            pct(stormy.degraded_rate),
        ),
        added_silent <= stormy.degraded_rate + 1e-9,
    ));
    Ok(out)
}
