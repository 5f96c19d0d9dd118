//! The internal (host-based) denial-of-service attack of paper §5.1.
//!
//! Bolt combines the same tunable microbenchmarks it profiles with into a
//! custom contentious program: it configures each benchmark for the
//! victim's most critical resources at an intensity *above* the pressure
//! measured during detection, while keeping CPU usage low. The result
//! degrades the victim dramatically (tail latency up to 140×) without
//! tripping utilization-triggered defenses like live migration — unlike a
//! naive DoS that saturates compute and gets its victim migrated away.

use rand::Rng;

use bolt_recommender::Recommendation;
use bolt_sim::{Cluster, VmId};
use bolt_workloads::{PressureVector, Resource};

use crate::detector::Detection;
use crate::telemetry::{Counter, Phase, Telemetry};
use crate::BoltError;

/// How far above the victim's measured pressure the attack drives each
/// targeted resource (paper: "a higher intensity than what memcached can
/// tolerate").
const OVERSHOOT: f64 = 1.3;

/// How many of the victim's critical resources the attack targets.
const TARGET_RESOURCES: usize = 3;

/// CPU pressure the crafted attack allows itself — low enough to stay
/// under migration monitors (duty-cycled cache/network kernels).
const ATTACK_CPU_BUDGET: f64 = 15.0;

/// Floor on the attack intensity for a targeted resource: merely matching
/// a lightly-loaded victim's pressure would not saturate anything.
const MIN_TARGET_INTENSITY: f64 = 85.0;

/// Crafts the contention vector for a Bolt DoS against a detected victim:
/// the victim's top critical resources at `OVERSHOOT`× their estimated
/// pressure (floored at saturation-grade intensity), everything else
/// idle, CPU capped at the stealth budget.
pub fn craft_attack(recommendation: &Recommendation) -> PressureVector {
    craft_attack_from_profile(&recommendation.completed)
}

/// [`craft_attack`] gated on detection quality: a DoS aimed at a
/// misidentified victim wastes the attacker's stealth budget on the wrong
/// resources (and may light up a monitor for nothing), so the attack is
/// refused outright when the detection is degraded — churn contaminated
/// the window, the probe budget ran out — or its confidence sits below
/// `min_confidence`. The caller's recourse is to re-fingerprint, exactly
/// as the paper's attacker re-probes before striking.
///
/// # Errors
///
/// Returns [`BoltError::DetectionAborted`] when the detection is degraded,
/// under-confident, or carries no verdict at all.
pub fn craft_attack_guarded(
    detection: &Detection,
    min_confidence: f64,
) -> Result<PressureVector, BoltError> {
    if let Some(reason) = detection.degraded {
        return Err(BoltError::DetectionAborted {
            reason: format!("refusing to craft DoS from a degraded detection: {reason}"),
        });
    }
    if detection.confidence < min_confidence {
        return Err(BoltError::DetectionAborted {
            reason: format!(
                "detection confidence {:.2} below the attack floor {:.2}",
                detection.confidence, min_confidence
            ),
        });
    }
    match detection.primary() {
        Some(verdict) => Ok(craft_attack(verdict)),
        None => Err(BoltError::DetectionAborted {
            reason: "no co-resident verdict to target".to_string(),
        }),
    }
}

/// Same as [`craft_attack`] but from a raw pressure estimate.
pub fn craft_attack_from_profile(victim_pressure: &PressureVector) -> PressureVector {
    let mut attack = PressureVector::zero();
    let mut targeted = 0;
    for r in victim_pressure.ranked() {
        if targeted == TARGET_RESOURCES {
            break;
        }
        // Stressing CPU would light up the very signal migration monitors
        // watch, and capacity resources are partitioned per tenant — a
        // co-resident cannot squeeze them. Skip both.
        if r == Resource::Cpu || r.is_capacity() {
            continue;
        }
        if victim_pressure[r] <= 0.0 {
            break;
        }
        attack[r] = (victim_pressure[r] * OVERSHOOT)
            .max(MIN_TARGET_INTENSITY)
            .clamp(0.0, 100.0);
        targeted += 1;
    }
    attack[Resource::Cpu] = ATTACK_CPU_BUDGET;
    attack
}

/// The naive DoS baseline: a compute-intensive kernel saturating the
/// adversary's CPUs (and nothing else in particular).
pub fn naive_attack() -> PressureVector {
    PressureVector::from_pairs(&[
        (Resource::Cpu, 100.0),
        (Resource::L1d, 40.0),
        (Resource::L2, 30.0),
    ])
}

/// One sample of the Fig. 13 timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DosSample {
    /// Simulated time (seconds since attack start).
    pub time_s: f64,
    /// Victim p99 latency (milliseconds).
    pub p99_latency_ms: f64,
    /// Host CPU utilization (percent) on the victim's current server.
    pub cpu_utilization: f64,
    /// True while the victim is mid-migration (unavailable).
    pub migrating: bool,
}

/// The result of a DoS timeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct DosTimeline {
    /// Per-second samples.
    pub samples: Vec<DosSample>,
    /// Time at which the migration defense fired, if it did.
    pub migration_at: Option<f64>,
}

impl DosTimeline {
    /// The peak latency amplification over the uncontended baseline.
    pub fn peak_amplification(&self, baseline_ms: f64) -> f64 {
        self.samples
            .iter()
            .map(|s| s.p99_latency_ms / baseline_ms)
            .fold(0.0, f64::max)
    }

    /// Mean latency amplification over the final quarter of the timeline —
    /// the steady state after any migration completed.
    pub fn final_amplification(&self, baseline_ms: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 1.0;
        }
        let tail = &self.samples[n - n / 4..];
        let sum: f64 = tail.iter().map(|s| s.p99_latency_ms / baseline_ms).sum();
        sum / tail.len() as f64
    }
}

/// Configuration of the Fig. 13 DoS-vs-defense run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DosRunConfig {
    /// Attack duration in seconds (Fig. 13 shows 120 s).
    pub horizon_s: f64,
    /// Utilization threshold that triggers migration (paper: 70%).
    pub migration_threshold: f64,
    /// Migration overhead in seconds (paper: 8 s for the memcached VM).
    pub migration_overhead_s: f64,
    /// Seconds of *sustained* over-threshold utilization before the
    /// defense commits to a migration — production defenses do not react
    /// to one-second spikes, which is why the paper's naive attacker only
    /// loses its victim at t = 80 s.
    pub sustained_s: f64,
}

impl Default for DosRunConfig {
    fn default() -> Self {
        DosRunConfig {
            horizon_s: 120.0,
            migration_threshold: 70.0,
            migration_overhead_s: 8.0,
            sustained_s: 75.0,
        }
    }
}

/// Runs a DoS attack against `victim` with the given contention vector and
/// the live-migration defense armed: utilization is sampled every second,
/// and when it exceeds the threshold the victim is moved to the least
/// loaded host (performance degrades further during the move, then
/// recovers).
///
/// Records into `telemetry` an [`Phase::AttackExecution`] span over the
/// whole run, one [`Counter::MigrationsTriggered`] tick whenever the
/// defense moves the victim, a [`Counter::ProbeSamples`] total for the
/// per-second utilization samples, and the cluster's migration events
/// (drained only when telemetry is enabled).
///
/// # Errors
///
/// Propagates [`BoltError`] for unknown VMs; a failed migration (full
/// cluster) leaves the victim in place, as in a real operator's retry loop.
#[allow(clippy::too_many_arguments)]
pub fn run_dos<R: Rng>(
    cluster: &mut Cluster,
    attacker: VmId,
    victim: VmId,
    attack: PressureVector,
    config: &DosRunConfig,
    rng: &mut R,
    telemetry: &mut Telemetry,
) -> Result<DosTimeline, BoltError> {
    let attack_clock = telemetry.begin();
    cluster.set_pressure_override(attacker, Some(attack))?;
    let mut samples = Vec::with_capacity(config.horizon_s as usize);
    let mut migration_at: Option<f64> = None;
    let mut migration_done: Option<f64> = None;
    let mut over_threshold_since: Option<f64> = None;

    let mut t = 0.0;
    while t < config.horizon_s {
        let server = cluster.vm(victim)?.server;
        let util = cluster.cpu_utilization(server, t, rng)?;
        let migrating =
            matches!((migration_at, migration_done), (Some(s), Some(d)) if t >= s && t < d);

        let (mut latency, _) = cluster.performance_of(victim, t, rng)?;
        if migrating {
            // Mid-migration the victim is effectively unavailable; latency
            // keeps degrading (paper: "while during migration performance
            // continues to degrade").
            latency *= 2.0;
        }

        samples.push(DosSample {
            time_s: t,
            p99_latency_ms: latency,
            cpu_utilization: util,
            migrating,
        });

        // The defense samples utilization every second and reacts once the
        // exceedance has been sustained.
        if migration_at.is_none() {
            if util > config.migration_threshold {
                let since = *over_threshold_since.get_or_insert(t);
                if t - since >= config.sustained_s {
                    let vcpus = cluster.vm(victim)?.vcpus();
                    if let Some(target) =
                        cluster.least_loaded_server(vcpus).filter(|&s| s != server)
                    {
                        migration_at = Some(t);
                        migration_done = Some(t + config.migration_overhead_s);
                        cluster.migrate(victim, target)?;
                        telemetry.count(Counter::MigrationsTriggered, 1);
                    }
                }
            } else {
                over_threshold_since = None;
            }
        }
        t += 1.0;
    }

    cluster.set_pressure_override(attacker, None)?;
    telemetry.count(Counter::ProbeSamples, samples.len() as u64);
    telemetry.span(Phase::AttackExecution, 0.0, config.horizon_s, attack_clock);
    if telemetry.is_enabled() {
        telemetry.cluster_events(cluster.take_events());
    }
    Ok(DosTimeline {
        samples,
        migration_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_sim::vm::VmRole;
    use bolt_sim::{IsolationConfig, ServerSpec};
    use bolt_workloads::catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD05)
    }

    fn setup() -> (Cluster, VmId, VmId, f64) {
        let mut r = rng();
        let mut cluster =
            Cluster::new(4, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        // The victim service occupies most of the host (Fig. 1's "N vCPU"
        // victim) and carries steady daytime load — the regime where a DoS
        // matters.
        let victim_profile =
            catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut r)
                .with_vcpus(12)
                .with_load(bolt_workloads::LoadPattern::Constant { level: 0.7 });
        let baseline = victim_profile.base_latency_ms();
        let victim = cluster
            .launch_on(0, victim_profile, VmRole::Friendly, 0.0)
            .unwrap();
        let adv_profile = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut r);
        let attacker = cluster
            .launch_on(0, adv_profile, VmRole::Adversarial, 0.0)
            .unwrap();
        cluster
            .set_pressure_override(attacker, Some(PressureVector::zero()))
            .unwrap();
        (cluster, attacker, victim, baseline)
    }

    #[test]
    fn crafted_attack_targets_critical_resources_with_low_cpu() {
        let victim = PressureVector::from_pairs(&[
            (Resource::L1i, 81.0),
            (Resource::Llc, 78.0),
            (Resource::NetBw, 50.0),
            (Resource::Cpu, 35.0),
        ]);
        let attack = craft_attack_from_profile(&victim);
        assert_eq!(attack[Resource::L1i], 100.0); // 81 * 1.3 clamped
        assert!(attack[Resource::Llc] > 90.0);
        assert!(attack[Resource::Cpu] <= 20.0, "attack must stay CPU-quiet");
        assert_eq!(attack[Resource::DiskBw], 0.0);
    }

    #[test]
    fn guarded_crafting_refuses_degraded_or_shaky_detections() {
        use crate::detector::DegradedReason;
        let fake = |confidence: f64, degraded: Option<DegradedReason>| {
            let completed = PressureVector::from_pairs(&[
                (Resource::Llc, 80.0),
                (Resource::MemBw, 70.0),
                (Resource::NetBw, 45.0),
            ]);
            Detection {
                verdicts: vec![bolt_recommender::Recommendation {
                    scores: vec![],
                    completed,
                    characteristics: bolt_workloads::ResourceCharacteristics::from_pressure(
                        &completed,
                    ),
                }],
                sweep: vec![],
                snapshot: bolt_probes::Snapshot {
                    readings: vec![],
                    duration_s: 10.0,
                },
                duration_s: 10.0,
                used_shutter: false,
                confidence,
                degraded,
                mrc: None,
                anytime: None,
            }
        };

        let clean = fake(0.9, None);
        let attack = craft_attack_guarded(&clean, 0.6).unwrap();
        assert!(attack[Resource::Llc] > 90.0);
        assert!(attack[Resource::Cpu] <= 20.0);

        let shaky = fake(0.3, None);
        let err = craft_attack_guarded(&shaky, 0.6).unwrap_err();
        assert!(matches!(err, BoltError::DetectionAborted { .. }));
        assert!(err.to_string().contains("0.30"));

        let churned = fake(0.9, Some(DegradedReason::ChurnDetected));
        let err = craft_attack_guarded(&churned, 0.6).unwrap_err();
        assert!(err.to_string().contains("churn"));

        let mut idle = fake(1.0, None);
        idle.verdicts.clear();
        assert!(matches!(
            craft_attack_guarded(&idle, 0.6),
            Err(BoltError::DetectionAborted { .. })
        ));
    }

    #[test]
    fn crafted_attack_never_stresses_cpu_as_target() {
        let victim = PressureVector::from_pairs(&[
            (Resource::Cpu, 90.0),
            (Resource::L1d, 60.0),
            (Resource::L2, 55.0),
        ]);
        let attack = craft_attack_from_profile(&victim);
        assert!(attack[Resource::Cpu] <= 20.0);
        assert!(attack[Resource::L1d] > 70.0);
    }

    #[test]
    fn bolt_attack_degrades_victim_without_migration() {
        let (mut cluster, attacker, victim, baseline) = setup();
        let mut r = rng();
        let victim_pressure = *cluster.vm(victim).unwrap().profile.base_pressure();
        let attack = craft_attack_from_profile(&victim_pressure);
        let timeline = run_dos(
            &mut cluster,
            attacker,
            victim,
            attack,
            &DosRunConfig::default(),
            &mut r,
            &mut Telemetry::disabled(),
        )
        .unwrap();
        assert!(
            timeline.migration_at.is_none(),
            "Bolt's low-utilization attack must not trip the 70% monitor"
        );
        let amp = timeline.final_amplification(baseline);
        assert!(amp > 3.0, "steady-state amplification {amp} too weak");
    }

    #[test]
    fn naive_attack_triggers_migration_and_victim_recovers() {
        let (mut cluster, attacker, victim, baseline) = setup();
        let mut r = rng();
        let timeline = run_dos(
            &mut cluster,
            attacker,
            victim,
            naive_attack(),
            &DosRunConfig::default(),
            &mut r,
            &mut Telemetry::disabled(),
        )
        .unwrap();
        assert!(
            timeline.migration_at.is_some(),
            "CPU-saturating attack must trip the monitor"
        );
        // After migration the victim sits alone on a fresh host: latency
        // returns to nominal.
        let final_amp = timeline.final_amplification(baseline);
        assert!(
            final_amp < 2.0,
            "victim should recover after migration, got {final_amp}x"
        );
        assert_ne!(
            cluster.vm(victim).unwrap().server,
            0,
            "victim must have moved"
        );
    }

    #[test]
    fn bolt_outlasts_naive_beyond_migration_point() {
        // The Fig. 13 punchline: past the migration time, Bolt keeps
        // hurting while the naive attack's victim has recovered.
        let mut r = rng();
        let (mut c1, a1, v1, baseline) = setup();
        let victim_pressure = *c1.vm(v1).unwrap().profile.base_pressure();
        let bolt = run_dos(
            &mut c1,
            a1,
            v1,
            craft_attack_from_profile(&victim_pressure),
            &DosRunConfig::default(),
            &mut r,
            &mut Telemetry::disabled(),
        )
        .unwrap();
        let (mut c2, a2, v2, _) = setup();
        let naive = run_dos(
            &mut c2,
            a2,
            v2,
            naive_attack(),
            &DosRunConfig::default(),
            &mut r,
            &mut Telemetry::disabled(),
        )
        .unwrap();
        assert!(bolt.final_amplification(baseline) > naive.final_amplification(baseline) * 2.0);
    }

    #[test]
    fn timeline_samples_every_second() {
        let (mut cluster, attacker, victim, _) = setup();
        let mut r = rng();
        let config = DosRunConfig {
            horizon_s: 30.0,
            ..DosRunConfig::default()
        };
        let timeline = run_dos(
            &mut cluster,
            attacker,
            victim,
            naive_attack(),
            &config,
            &mut r,
            &mut Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(timeline.samples.len(), 30);
    }
}
