//! VM co-residency detection (paper §5.3).
//!
//! A targeted attacker wants to find where a *specific* victim service
//! lives. The launch strategy: the adversary starts `n` probe VMs
//! simultaneously on random hosts; with `k` victim VMs among `N` servers,
//! the chance at least one probe lands next to a victim is
//! `P(f) = 1 − (1 − k/N)ⁿ`. Each probe runs Bolt's detection to find
//! co-residents of the victim's *type* (e.g. SQL servers). The candidates
//! are then confirmed with a sender/receiver pair: the co-resident sender
//! injects contention on the victim's sensitive resources while an
//! external receiver pings the victim over its public protocol — if the
//! receiver's latency jumps (≈3× in the paper), the sender shares the
//! victim's host.

use rand::seq::SliceRandom;
use rand::Rng;

use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, VmId};
use bolt_workloads::{catalog, PressureVector};

use crate::detector::Detector;
use crate::telemetry::{Phase, Telemetry};
use crate::BoltError;

/// The analytic placement probability `P(f) = 1 − (1 − k/N)ⁿ`.
///
/// # Panics
///
/// Panics if `servers` is zero or `victim_vms > servers`.
pub fn placement_probability(servers: usize, victim_vms: usize, probes: usize) -> f64 {
    assert!(servers > 0, "need at least one server");
    assert!(victim_vms <= servers, "more victim VMs than servers");
    1.0 - (1.0 - victim_vms as f64 / servers as f64).powi(probes as i32)
}

/// Outcome of one co-residency hunt.
#[derive(Debug, Clone, PartialEq)]
pub struct CoResidencyOutcome {
    /// Probe VMs launched.
    pub probes_launched: usize,
    /// The servers the probes landed on.
    pub probed_servers: Vec<usize>,
    /// Servers where detection flagged a co-resident of the target type.
    pub candidate_servers: Vec<usize>,
    /// The server confirmed by the sender/receiver check, if any.
    pub confirmed_server: Option<usize>,
    /// Receiver latency before contention (ms).
    pub baseline_latency_ms: f64,
    /// Receiver latency during sender contention on the confirmed host
    /// (ms); `None` if no candidate confirmed.
    pub contended_latency_ms: Option<f64>,
    /// Total simulated seconds from probe instantiation to confirmation.
    pub elapsed_s: f64,
    /// Total adversarial VMs used (probes + the external receiver).
    pub vms_used: usize,
}

impl CoResidencyOutcome {
    /// The latency amplification the receiver observed on the confirmed
    /// host (1.0 when nothing was confirmed).
    pub fn latency_ratio(&self) -> f64 {
        match self.contended_latency_ms {
            Some(c) if self.baseline_latency_ms > 0.0 => c / self.baseline_latency_ms,
            _ => 1.0,
        }
    }
}

/// Configuration of the co-residency hunt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoResidencyConfig {
    /// Probe VMs to launch simultaneously (paper: 10).
    pub probes: usize,
    /// Receiver latency ratio above which co-residency is confirmed
    /// (paper observes ≈3.2×; threshold 2.0 is comfortably below).
    pub confirm_ratio: f64,
    /// vCPUs per probe VM.
    pub probe_vcpus: u32,
    /// Minimum detection confidence for a probe's verdict to become a
    /// confirmation candidate. Zero (the default) disables the gate;
    /// under churn, a positive floor drops degraded or shaky verdicts so
    /// the sender/receiver rounds — a full round trip each — are not
    /// wasted confirming phantoms. Skipped hosts get re-probed by the
    /// next fleet.
    pub min_confidence: f64,
}

impl Default for CoResidencyConfig {
    fn default() -> Self {
        CoResidencyConfig {
            probes: 10,
            confirm_ratio: 2.0,
            probe_vcpus: 4,
            min_confidence: 0.0,
        }
    }
}

/// Runs the full §5.3 attack: launch probes on random distinct servers,
/// detect co-residents matching `target_family`, then confirm candidates
/// with the sender/receiver protocol against `target_vm` (the true victim
/// — used only to read the receiver-visible latency, as the external ping
/// would).
///
/// Records into `telemetry` the detection pipeline events of every
/// probe's profiling pass, an [`Phase::AttackExecution`] span over the
/// whole hunt, and the probe fleet's launch/terminate events: an enabled
/// `telemetry` turns the cluster's lifecycle log on first (see
/// [`Cluster::record_events`]) and drains it at the end, together with
/// whatever the caller's own writes logged before.
///
/// # Errors
///
/// Returns [`BoltError::InvalidExperiment`] if more probes than servers
/// are requested; propagates simulator errors.
#[allow(clippy::too_many_arguments)]
pub fn hunt<R: Rng>(
    cluster: &mut Cluster,
    detector: &Detector,
    target_vm: VmId,
    target_family: &str,
    config: &CoResidencyConfig,
    start_t: f64,
    rng: &mut R,
    telemetry: &mut Telemetry,
) -> Result<CoResidencyOutcome, BoltError> {
    let hunt_clock = telemetry.begin();
    if telemetry.is_enabled() {
        cluster.record_events();
    }
    if config.probes > cluster.server_count() {
        return Err(BoltError::InvalidExperiment {
            reason: format!(
                "{} probes exceed {} servers",
                config.probes,
                cluster.server_count()
            ),
        });
    }

    // Launch probes simultaneously on random distinct servers (avoiding
    // probe-probe co-residency, as the paper prescribes). Full hosts are
    // skipped — the provider would not place a new instance there either.
    let mut servers: Vec<usize> = (0..cluster.server_count()).collect();
    servers.shuffle(rng);
    let mut probes: Vec<(usize, VmId)> = Vec::with_capacity(config.probes);
    let mut elapsed = start_t;
    for &s in &servers {
        if probes.len() == config.probes {
            break;
        }
        if !cluster.server(s)?.can_host(config.probe_vcpus, false) {
            continue;
        }
        let profile = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng)
            .with_vcpus(config.probe_vcpus);
        let id = cluster.launch_on(s, profile, VmRole::Adversarial, 0.0)?;
        cluster.set_pressure_override(id, Some(PressureVector::zero()))?;
        probes.push((s, id));
    }

    // Detection pass: every probe profiles its own host *concurrently*
    // (they are independent VMs on distinct servers), so the pass costs
    // the slowest probe's duration, not the sum.
    let mut candidates = Vec::new();
    let mut slowest = 0.0f64;
    for &(server, probe) in &probes {
        let detection = detector.detect(cluster, probe, elapsed, None, rng, telemetry)?;
        slowest = slowest.max(detection.duration_s);
        // Degraded or shaky fingerprints are not worth a confirmation
        // round; the host stays unconfirmed and a later fleet retries it.
        if config.min_confidence > 0.0
            && (detection.degraded.is_some() || detection.confidence < config.min_confidence)
        {
            continue;
        }
        // The verdict matching the target's type carries the co-resident's
        // estimated profile, which the confirmation sender will stress.
        let matching = detection.verdicts.iter().find(|v| {
            v.label()
                .map(|l| l.family() == target_family)
                .unwrap_or(false)
        });
        if let Some(verdict) = matching {
            candidates.push((server, probe, verdict.completed));
        }
    }

    elapsed += slowest;

    // Confirmation pass: baseline receiver latency, then per-candidate
    // contention.
    let (baseline_latency, _) = cluster.performance_of(target_vm, elapsed, rng)?;
    let mut confirmed = None;
    let mut contended_latency = None;
    for &(server, probe, victim_estimate) in &candidates {
        let attack = crate::attacks::dos::craft_attack_from_profile(&victim_estimate);
        cluster.set_pressure_override(probe, Some(attack))?;
        elapsed += 1.0; // one receiver round trip under contention
        let (lat, _) = cluster.performance_of(target_vm, elapsed, rng)?;
        cluster.set_pressure_override(probe, Some(PressureVector::zero()))?;
        if lat / baseline_latency >= config.confirm_ratio {
            confirmed = Some(server);
            contended_latency = Some(lat);
            break;
        }
    }

    // Retire the probe fleet (the adversary pays per instance-hour; and a
    // relaunched fleet must not collide with a stale one).
    let probes_launched = probes.len();
    let probed_servers: Vec<usize> = probes.iter().map(|&(s, _)| s).collect();
    for (_, probe) in probes {
        cluster.terminate(probe)?;
    }

    telemetry.span(
        Phase::AttackExecution,
        start_t,
        elapsed - start_t,
        hunt_clock,
    );
    if telemetry.is_enabled() {
        telemetry.cluster_events(cluster.take_events());
    }

    Ok(CoResidencyOutcome {
        probes_launched,
        probed_servers,
        candidate_servers: candidates.iter().map(|&(s, _, _)| s).collect(),
        confirmed_server: confirmed,
        baseline_latency_ms: baseline_latency,
        contended_latency_ms: contended_latency,
        elapsed_s: elapsed - start_t,
        vms_used: probes_launched + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
    use bolt_sim::{IsolationConfig, ServerSpec};
    use bolt_workloads::training::training_set;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn placement_probability_matches_formula() {
        assert!((placement_probability(40, 1, 10) - (1.0 - 0.975f64.powi(10))).abs() < 1e-12);
        assert_eq!(placement_probability(10, 10, 1), 1.0);
        assert_eq!(placement_probability(10, 0, 5), 0.0);
        // More probes, higher probability.
        assert!(placement_probability(40, 8, 10) > placement_probability(40, 8, 5));
    }

    #[test]
    #[should_panic(expected = "server")]
    fn placement_probability_rejects_zero_servers() {
        placement_probability(0, 0, 1);
    }

    fn detector() -> Detector {
        // Channel-matched training: the recommender is fitted on profiles
        // observed through the same isolation channel the probes see.
        let examples = crate::experiment::observed_training(
            &training_set(7),
            &IsolationConfig::cloud_default(),
        );
        let data = TrainingData::from_examples(examples).unwrap();
        let rec = HybridRecommender::fit(data, RecommenderConfig::default()).unwrap();
        Detector::new(rec, crate::detector::DetectorConfig::default())
    }

    /// Builds the §5.3 scene: a SQL victim on one host, other SQL servers
    /// and misc workloads elsewhere.
    fn scene(rng: &mut StdRng) -> (Cluster, VmId) {
        let mut cluster =
            Cluster::new(12, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let victim_profile =
            catalog::database::profile(&catalog::database::Variant::SqlOltp, rng).with_vcpus(8);
        let victim = cluster
            .launch_on(0, victim_profile, VmRole::Friendly, 0.0)
            .unwrap();
        // Other SQL servers on hosts 1-3.
        for s in 1..4 {
            let p =
                catalog::database::profile(&catalog::database::Variant::SqlOltp, rng).with_vcpus(8);
            cluster.launch_on(s, p, VmRole::Friendly, 0.0).unwrap();
        }
        // Noise tenants elsewhere.
        for s in 4..10 {
            let p = catalog::spark::profile(
                &catalog::spark::Algorithm::KMeans,
                bolt_workloads::DatasetScale::Medium,
                rng,
            )
            .with_vcpus(8);
            cluster.launch_on(s, p, VmRole::Friendly, 0.0).unwrap();
        }
        (cluster, victim)
    }

    /// Hunts the scene's SQL victim from `start_t`, recording nothing.
    fn hunt_sql(
        cluster: &mut Cluster,
        det: &Detector,
        victim: VmId,
        config: &CoResidencyConfig,
        start_t: f64,
        rng: &mut StdRng,
    ) -> Result<CoResidencyOutcome, BoltError> {
        let mut off = Telemetry::disabled();
        hunt(
            cluster, det, victim, "mysql", config, start_t, rng, &mut off,
        )
    }

    #[test]
    fn hunt_confirms_the_victims_host_within_a_few_fleets() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let (mut cluster, victim) = scene(&mut rng);
        let det = detector();
        // Probe every server so a probe definitely lands on host 0; a
        // fleet can still miss a victim caught in a low-traffic phase, so
        // relaunch at later times like a real attacker would.
        let config = CoResidencyConfig {
            probes: 12,
            ..CoResidencyConfig::default()
        };
        let mut confirmed = None;
        for round in 0..6 {
            let outcome = hunt_sql(
                &mut cluster,
                &det,
                victim,
                &config,
                round as f64 * 150.0,
                &mut rng,
            )
            .unwrap();
            assert_eq!(outcome.probed_servers.len(), 12);
            if outcome.confirmed_server.is_some() {
                assert!(
                    outcome.latency_ratio() >= 2.0,
                    "confirmation requires a clear latency jump, got {:.2}x",
                    outcome.latency_ratio()
                );
                confirmed = outcome.confirmed_server;
                break;
            }
        }
        assert_eq!(confirmed, Some(0), "the hunt must locate the victim's host");
    }

    #[test]
    fn unreachable_confidence_floor_drops_every_candidate() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let (mut cluster, victim) = scene(&mut rng);
        let det = detector();
        let config = CoResidencyConfig {
            probes: 12,
            min_confidence: 1.1, // confidence is clamped to [0, 1]
            ..CoResidencyConfig::default()
        };
        let outcome = hunt_sql(&mut cluster, &det, victim, &config, 0.0, &mut rng).unwrap();
        assert!(outcome.candidate_servers.is_empty());
        assert!(outcome.confirmed_server.is_none());
        assert_eq!(outcome.latency_ratio(), 1.0);
    }

    #[test]
    fn hunt_with_too_many_probes_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let (mut cluster, victim) = scene(&mut rng);
        let det = detector();
        let config = CoResidencyConfig {
            probes: 99,
            ..CoResidencyConfig::default()
        };
        assert!(matches!(
            hunt_sql(&mut cluster, &det, victim, &config, 0.0, &mut rng),
            Err(BoltError::InvalidExperiment { .. })
        ));
    }

    #[test]
    fn hunt_reports_resource_costs() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let (mut cluster, victim) = scene(&mut rng);
        let det = detector();
        let config = CoResidencyConfig {
            probes: 12,
            ..CoResidencyConfig::default()
        };
        let outcome = hunt_sql(&mut cluster, &det, victim, &config, 0.0, &mut rng).unwrap();
        assert_eq!(outcome.probes_launched, 12);
        assert_eq!(outcome.vms_used, 13);
        assert!(outcome.elapsed_s > 0.0);
    }
}
