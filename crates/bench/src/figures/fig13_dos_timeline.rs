//! Fig. 13: tail latency and host CPU utilization under Bolt's targeted
//! DoS vs a naive compute-saturating DoS, with the live-migration defense
//! armed (70% utilization trigger, 8 s migration overhead).
//!
//! Paper: both attacks degrade the victim similarly until t=80 s, when the
//! naive attack's utilization trips the monitor and its victim is migrated
//! to a fresh host and recovers; Bolt keeps utilization low and keeps
//! hurting the victim beyond that point.

use bolt::attacks::dos::{craft_attack_from_profile, naive_attack, run_dos, DosRunConfig};
use bolt::report::Table;
use bolt::{BoltError, Telemetry};
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, VmId};
use bolt_workloads::{catalog, LoadPattern, PressureVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Output, Scale};

fn scene(rng: &mut StdRng) -> Result<(Cluster, VmId, VmId, f64), BoltError> {
    let mut cluster = Cluster::new(4, ServerSpec::xeon(), IsolationConfig::cloud_default())?;
    let victim_profile =
        catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng)
            .with_vcpus(12)
            .with_load(LoadPattern::Constant { level: 0.7 });
    let baseline = victim_profile.base_latency_ms();
    let victim = cluster.launch_on(0, victim_profile, VmRole::Friendly, 0.0)?;
    let attacker = cluster.launch_on(
        0,
        catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng).with_vcpus(4),
        VmRole::Adversarial,
        0.0,
    )?;
    cluster.set_pressure_override(attacker, Some(PressureVector::zero()))?;
    Ok((cluster, attacker, victim, baseline))
}

pub fn run(_scale: Scale) -> Result<Output, BoltError> {
    let mut rng = StdRng::seed_from_u64(0xD05);
    let defense = DosRunConfig::default();

    let (mut c1, a1, v1, baseline) = scene(&mut rng)?;
    let victim_pressure = *c1.vm(v1)?.profile.base_pressure();
    let mut off = Telemetry::disabled();
    let bolt = run_dos(
        &mut c1,
        a1,
        v1,
        craft_attack_from_profile(&victim_pressure),
        &defense,
        &mut rng,
        &mut off,
    )?;

    let (mut c2, a2, v2, _) = scene(&mut rng)?;
    let naive = run_dos(
        &mut c2,
        a2,
        v2,
        naive_attack(),
        &defense,
        &mut rng,
        &mut off,
    )?;

    let mut table = Table::new(vec![
        "t (s)",
        "bolt p99 (ms)",
        "bolt util %",
        "naive p99 (ms)",
        "naive util %",
        "naive state",
    ]);
    for i in (0..bolt.samples.len()).step_by(5) {
        let b = &bolt.samples[i];
        let n = &naive.samples[i];
        table.row(vec![
            format!("{:.0}", b.time_s),
            format!("{:.2}", b.p99_latency_ms),
            format!("{:.0}", b.cpu_utilization),
            format!("{:.2}", n.p99_latency_ms),
            format!("{:.0}", n.cpu_utilization),
            if n.migrating {
                "migrating".into()
            } else {
                String::new()
            },
        ]);
    }
    let mut out = Output::default();
    out.tables.push((
        "fig13_dos_timeline".into(),
        "naive DoS trips the 70% monitor (~t=80 s) and loses its victim; Bolt stays below it",
        table,
    ));

    let mut summary = Table::new(vec!["attack", "peak amp", "steady-state amp", "migration"]);
    summary.row(vec![
        "bolt".into(),
        format!("{:.0}x", bolt.peak_amplification(baseline)),
        format!("{:.0}x", bolt.final_amplification(baseline)),
        format!("{:?}", bolt.migration_at),
    ]);
    summary.row(vec![
        "naive".into(),
        format!("{:.0}x", naive.peak_amplification(baseline)),
        format!("{:.0}x", naive.final_amplification(baseline)),
        format!("{:?}", naive.migration_at),
    ]);
    out.tables.push((
        "fig13_summary".into(),
        "tail latency increases up to 140x under Bolt",
        summary,
    ));

    out.checks.push((
        format!(
            "crossover: naive migrated at {:?}, Bolt never ({:?}); Bolt's steady-state amplification {:.0}x exceeds twice naive's {:.0}x",
            naive.migration_at,
            bolt.migration_at,
            bolt.final_amplification(baseline),
            naive.final_amplification(baseline),
        ),
        bolt.migration_at.is_none()
            && naive.migration_at.is_some()
            && bolt.final_amplification(baseline) > naive.final_amplification(baseline) * 2.0,
    ));
    Ok(out)
}
