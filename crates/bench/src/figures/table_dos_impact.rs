//! §5.1 aggregate DoS impact: Bolt's targeted attack against the full
//! victim population of the controlled experiment.
//!
//! Paper: execution time degrades 2.2x on average and up to 9.8x; tail
//! latency of interactive victims increases 8-140x.

use bolt::attacks::dos::craft_attack_from_profile;
use bolt::report::Table;
use bolt::BoltError;
use bolt_linalg::stats::percentile;
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
use bolt_workloads::{catalog, perf, LoadPattern, WorkloadKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let mut rng = StdRng::seed_from_u64(0xD051);
    let profiles = bolt::experiment::victim_set(scale.pick(54, 108), &mut rng);

    let mut tail_factors = Vec::new();
    let mut slowdowns = Vec::new();
    for profile in profiles {
        // One victim + the attacker per host: the attack is crafted from
        // the victim's (detected) profile, as §5.1 prescribes.
        let mut cluster = Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default())?;
        let profile = profile
            .with_vcpus(12)
            .with_load(LoadPattern::Constant { level: 0.7 });
        let attack = craft_attack_from_profile(profile.base_pressure());
        let kind = profile.kind();
        let victim = cluster.launch_on(0, profile, VmRole::Friendly, 0.0)?;
        let attacker_profile =
            catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng)
                .with_vcpus(4);
        let attacker = cluster.launch_on(0, attacker_profile, VmRole::Adversarial, 0.0)?;
        cluster.set_pressure_override(attacker, Some(attack))?;

        let felt = cluster.interference_on(victim, 50.0, &mut rng)?;
        let state = cluster.vm(victim)?;
        match kind {
            WorkloadKind::Interactive => {
                tail_factors.push(perf::tail_latency_factor(&state.profile, &felt, 0.7));
            }
            WorkloadKind::Batch => {
                slowdowns.push(perf::batch_slowdown_factor(&state.profile, &felt));
            }
        }
    }

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let max = |xs: &[f64]| xs.iter().cloned().fold(0.0, f64::max);
    let mut table = Table::new(vec!["metric", "paper", "measured"]);
    table.row(vec![
        "batch slowdown, mean".into(),
        "2.2x".into(),
        format!("{:.1}x", mean(&slowdowns)),
    ]);
    table.row(vec![
        "batch slowdown, max".into(),
        "9.8x".into(),
        format!("{:.1}x", max(&slowdowns)),
    ]);
    table.row(vec![
        "tail amplification, p10".into(),
        "8x (low end)".into(),
        format!("{:.0}x", percentile(&tail_factors, 10.0).unwrap_or(0.0)),
    ]);
    table.row(vec![
        "tail amplification, max".into(),
        "140x".into(),
        format!("{:.0}x", max(&tail_factors)),
    ]);
    let mut out = Output::default();
    out.tables.push((
        "table_dos_impact".into(),
        "2.2x mean / 9.8x max batch slowdown; 8-140x tail amplification",
        table,
    ));
    out.checks.push((
        format!(
            "batch {} victims slow down {:.1}x on average (above 1.3x), interactive {} victims up to {:.0}x (above 20x)",
            slowdowns.len(),
            mean(&slowdowns),
            tail_factors.len(),
            max(&tail_factors),
        ),
        mean(&slowdowns) > 1.3 && max(&tail_factors) > 20.0,
    ));
    Ok(out)
}
