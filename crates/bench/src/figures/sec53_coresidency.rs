//! §5.3: VM co-residency detection on the 40-node cluster. The victim is
//! a SQL server (one VM); 7 other SQL VMs and assorted tenants are decoys.
//!
//! Paper: 10 simultaneous senders; 3 SQL-typed VMs detected in the sample
//! set; receiver latency 8.16 ms → 26.14 ms (~3.2x) under co-resident
//! contention; detection in 6 s with 11 adversarial VMs.

use bolt::attacks::coresidency::{hunt, placement_probability, CoResidencyConfig};
use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::observed_training;
use bolt::report::Table;
use bolt::{BoltError, Telemetry};
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, training::training_set, DatasetScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Output, Scale};

pub fn run(_scale: Scale) -> Result<Output, BoltError> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let isolation = IsolationConfig::cloud_default();
    let mut cluster = Cluster::new(40, ServerSpec::xeon(), isolation)?;

    // The target + 7 SQL decoys + other tenants.
    let victim = cluster.launch_on(
        11,
        catalog::database::profile(&catalog::database::Variant::SqlOltp, &mut rng).with_vcpus(8),
        VmRole::Friendly,
        0.0,
    )?;
    for s in [3, 7, 19, 23, 28, 31, 36] {
        let p = catalog::database::profile(&catalog::database::Variant::SqlOltp, &mut rng)
            .with_vcpus(8);
        cluster.launch_on(s, p, VmRole::Friendly, 0.0)?;
    }
    for s in [1, 5, 9, 13, 17, 21, 25, 29, 33, 37] {
        let p = catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            DatasetScale::Medium,
            &mut rng,
        )
        .with_vcpus(8);
        cluster.launch_on(s, p, VmRole::Friendly, 0.0)?;
    }

    let data = TrainingData::from_examples(observed_training(&training_set(7), &isolation))?;
    let recommender = HybridRecommender::fit(data, RecommenderConfig::default())?;
    let detector = Detector::new(recommender, DetectorConfig::default());
    let config = CoResidencyConfig::default();

    // Fleets relaunch until confirmed (expected rounds = 1 / P).
    let mut rounds = 0;
    let mut total_vms = 0;
    let mut total_time = 0.0;
    let mut confirmed = None;
    let mut last = None;
    for round in 0..12 {
        rounds += 1;
        let outcome = hunt(
            &mut cluster,
            &detector,
            victim,
            "mysql",
            &config,
            round as f64 * 120.0,
            &mut rng,
            &mut Telemetry::disabled(),
        )?;
        total_vms += outcome.vms_used;
        total_time += outcome.elapsed_s;
        confirmed = outcome.confirmed_server;
        last = Some(outcome);
        if confirmed.is_some() {
            break;
        }
    }
    let outcome = last.expect("at least one round ran");

    let mut table = Table::new(vec!["metric", "paper", "measured"]);
    table.row(vec![
        "P(probe lands next to any SQL VM)".into(),
        "~0.9 (8 SQL VMs)".into(),
        format!("{:.2}", placement_probability(40, 8, config.probes)),
    ]);
    table.row(vec![
        "SQL-typed VMs in last sample set".into(),
        "3".into(),
        outcome.candidate_servers.len().to_string(),
    ]);
    table.row(vec![
        "receiver latency baseline".into(),
        "8.16 ms".into(),
        format!("{:.2} ms", outcome.baseline_latency_ms),
    ]);
    table.row(vec![
        "receiver latency under contention".into(),
        "26.14 ms (~3.2x)".into(),
        outcome
            .contended_latency_ms
            .map(|v| format!("{v:.2} ms ({:.1}x)", outcome.latency_ratio()))
            .unwrap_or_else(|| "-".into()),
    ]);
    table.row(vec![
        "victim host confirmed".into(),
        "yes".into(),
        format!("{confirmed:?} (truth: server 11)"),
    ]);
    table.row(vec![
        "adversarial VMs used".into(),
        "11".into(),
        format!("{total_vms} over {rounds} fleet(s)"),
    ]);
    table.row(vec![
        "time to confirmation".into(),
        "6 s".into(),
        format!("{total_time:.0} simulated s"),
    ]);
    let mut out = Output::default();
    out.tables.push((
        "sec53_coresidency".into(),
        "the victim's host is pinpointed via a ~3x receiver-latency jump",
        table,
    ));
    out.checks.push((
        format!("confirmed = {confirmed:?} is the victim's server 11"),
        confirmed == Some(11),
    ));
    Ok(out)
}
