//! The §5.2 resource-freeing attack: a helper saturates the victim's
//! dominant resource, the victim stalls, and the beneficiary (`mcf`)
//! reclaims what the victim released (Table 2).
//!
//! Run with: `cargo run --example rfa_attack`

use bolt::attacks::rfa::run_rfa;
use bolt::Telemetry;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, DatasetScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(0x2FA);

    println!(
        "{:<22} {:>14} {:>16} {:>14}",
        "victim", "victim perf", "beneficiary", "target"
    );
    println!("{}", "-".repeat(70));

    // The three Table 2 victims, each hunted on a fresh host.
    let victims = vec![
        catalog::webserver::profile(&catalog::webserver::Variant::Dynamic, &mut rng).with_vcpus(8),
        catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::Svm,
            DatasetScale::Large,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            DatasetScale::Large,
            &mut rng,
        )
        .with_vcpus(8),
    ];

    for victim in victims {
        let mut cluster = Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default())?;
        let beneficiary = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng);
        let name = victim.label().to_string();
        let mut off = Telemetry::disabled();
        let outcome = run_rfa(&mut cluster, 0, victim, beneficiary, &mut rng, &mut off)?;
        println!(
            "{:<22} {:>+13.0}% {:>+15.0}% {:>14}",
            name,
            outcome.victim_delta * 100.0,
            outcome.beneficiary_delta * 100.0,
            outcome.target_resource.to_string()
        );
    }

    println!("\nNegative victim numbers are lost QPS (webserver) or added execution");
    println!("time (analytics); positive beneficiary numbers are mcf's speedup from");
    println!("the resources the stalled victim released.");
    Ok(())
}
