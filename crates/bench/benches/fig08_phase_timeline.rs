//! Fig. 8: workload phase detection. A victim VM runs consecutive jobs —
//! SPEC's mcf, a Mahout/Hadoop SVM, a Spark data-mining job, memcached,
//! Cassandra — and Bolt's periodic detection follows each transition
//! within a few iterations.

use bolt::detector::{Detector, DetectorConfig};
use bolt::experiment::observed_training;
use bolt::report::Table;
use bolt::Telemetry;
use bolt_bench::emit;
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, training::training_set, DatasetScale, PressureVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(0xF18);
    let isolation = IsolationConfig::cloud_default();
    let mut cluster = Cluster::new(1, ServerSpec::xeon(), isolation).expect("cluster");
    let adversary = cluster
        .launch_on(
            0,
            catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng)
                .with_vcpus(4),
            VmRole::Adversarial,
            0.0,
        )
        .expect("adversary placed");
    cluster
        .set_pressure_override(adversary, Some(PressureVector::zero()))
        .expect("quiet adversary");

    let jobs = [
        catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng).with_vcpus(8),
        catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::Svm,
            DatasetScale::Medium,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::spark::profile(
            &catalog::spark::Algorithm::DataMining,
            DatasetScale::Medium,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng)
            .with_vcpus(8),
        catalog::cassandra::profile(&catalog::cassandra::Variant::Mixed, &mut rng).with_vcpus(8),
    ];
    let phase_s = 90.0;
    let victim = cluster
        .launch_on(0, jobs[0].clone(), VmRole::Friendly, 0.0)
        .expect("victim placed");

    let data = TrainingData::from_examples(observed_training(&training_set(7), &isolation))
        .expect("training data");
    let recommender = HybridRecommender::fit(data, RecommenderConfig::default()).expect("fit");
    let detector = Detector::new(recommender, DetectorConfig::default());

    let mut table = Table::new(vec!["t (s)", "running", "detected", "family hit"]);
    let mut hits = 0usize;
    let mut samples = 0usize;
    let horizon = phase_s * jobs.len() as f64;
    let mut t = 0.0;
    while t < horizon {
        let phase = ((t / phase_s) as usize).min(jobs.len() - 1);
        cluster
            .swap_profile(victim, jobs[phase].clone())
            .expect("swap works");
        let mut off = Telemetry::disabled();
        let d = detector
            .detect(&cluster, adversary, t, None, &mut rng, &mut off)
            .expect("detect");
        let hit = d
            .label()
            .map(|l| l.same_family(jobs[phase].label()))
            .unwrap_or(false);
        hits += hit as usize;
        samples += 1;
        table.row(vec![
            format!("{t:.0}"),
            jobs[phase].label().to_string(),
            d.label()
                .map(ToString::to_string)
                .unwrap_or_else(|| "(none)".into()),
            if hit { "yes" } else { "no" }.to_string(),
        ]);
        t += 20.0;
    }
    emit(
        "fig08_phase_timeline",
        "job changes are captured within a few seconds of each transition",
        &table,
    );
    println!(
        "family hit rate across the timeline: {:.0}% ({hits}/{samples}) — {}",
        hits as f64 / samples as f64 * 100.0,
        if hits as f64 / samples as f64 > 0.6 {
            "shape holds"
        } else {
            "MISMATCH"
        }
    );
}
