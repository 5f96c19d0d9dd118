//! Table 2: resource-freeing attacks against three victims with `mcf` as
//! the beneficiary.
//!
//! Paper: Apache webserver −64% QPS (mcf +24%, via CPU), Hadoop SVM −36%
//! execution time (mcf +16%, via network bandwidth), Spark k-means −52%
//! (mcf +38%, via memory bandwidth).

use bolt::attacks::rfa::run_rfa;
use bolt::report::Table;
use bolt::Telemetry;
use bolt_bench::emit;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, DatasetScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(0x2FA);

    let victims: Vec<(&str, &str, &str, bolt_workloads::WorkloadProfile)> = vec![
        (
            "apache webserver",
            "-64% (QPS)",
            "+24%",
            catalog::webserver::profile(&catalog::webserver::Variant::Dynamic, &mut rng)
                .with_vcpus(8),
        ),
        (
            "hadoop (svm)",
            "-36% (exec)",
            "+16%",
            catalog::hadoop::profile(
                &catalog::hadoop::Algorithm::Svm,
                DatasetScale::Large,
                &mut rng,
            )
            .with_vcpus(8),
        ),
        (
            "spark (k-means)",
            "-52% (exec)",
            "+38%",
            catalog::spark::profile(
                &catalog::spark::Algorithm::KMeans,
                DatasetScale::Large,
                &mut rng,
            )
            .with_vcpus(8),
        ),
    ];

    let mut table = Table::new(vec![
        "victim",
        "paper victim",
        "measured victim",
        "paper mcf",
        "measured mcf",
        "target resource",
    ]);
    let mut all_hold = true;
    for (name, paper_v, paper_b, profile) in victims {
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).expect("cluster");
        let beneficiary = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng);
        let mut off = Telemetry::disabled();
        let outcome =
            run_rfa(&mut cluster, 0, profile, beneficiary, &mut rng, &mut off).expect("rfa runs");
        all_hold &= outcome.victim_delta < -0.1 && outcome.beneficiary_delta > 0.0;
        table.row(vec![
            name.to_string(),
            paper_v.to_string(),
            format!("{:+.0}%", outcome.victim_delta * 100.0),
            paper_b.to_string(),
            format!("{:+.0}%", outcome.beneficiary_delta * 100.0),
            outcome.target_resource.to_string(),
        ]);
    }
    emit(
        "table2_rfa",
        "every victim degrades markedly; mcf improves by double digits on its best target",
        &table,
    );
    println!(
        "victims degrade and mcf benefits in every row: {}",
        if all_hold { "shape holds" } else { "MISMATCH" }
    );
}
