//! The resource-freeing attack (RFA) of paper §5.2.
//!
//! An RFA modifies a victim's workload so it yields resources to the
//! adversary. The adversarial VM runs two components: the *beneficiary*
//! (the program whose performance the attacker wants to improve — the
//! paper uses `mcf`) and the *helper* (a program that saturates the
//! victim's critical resource). The victim stalls on that resource,
//! makes less progress, and its pressure on *other* resources drops —
//! freeing them up for the beneficiary.
//!
//! Bolt makes the attack practical by identifying the victim's dominant
//! resource automatically; the helper then saturates exactly that.

use rand::Rng;

use bolt_sim::vm::VmRole;
use bolt_sim::Cluster;
use bolt_workloads::{perf, PressureVector, Resource, WorkloadKind, WorkloadProfile};

use crate::detector::Detection;
use crate::telemetry::{Phase, Telemetry};
use crate::BoltError;

/// Builds the helper contention vector: saturate the victim's dominant
/// resource (and only it — the helper must not collide with the
/// beneficiary's own critical resources).
pub fn helper_pressure(victim_dominant: Resource) -> PressureVector {
    PressureVector::from_pairs(&[(victim_dominant, 95.0)])
}

/// Picks the helper's target resource from a detection, gated on its
/// quality. An RFA helper saturating the *wrong* resource slows the
/// beneficiary down instead of speeding it up (it contends with its own
/// side), so a degraded or under-confident fingerprint aborts the attack
/// plan — the attacker should re-fingerprint instead.
///
/// # Errors
///
/// Returns [`BoltError::DetectionAborted`] when the detection is degraded,
/// its confidence sits below `min_confidence`, or it carries no verdict.
pub fn plan_helper_target(
    detection: &Detection,
    min_confidence: f64,
) -> Result<Resource, BoltError> {
    if let Some(reason) = detection.degraded {
        return Err(BoltError::DetectionAborted {
            reason: format!("refusing to plan RFA from a degraded detection: {reason}"),
        });
    }
    if detection.confidence < min_confidence {
        return Err(BoltError::DetectionAborted {
            reason: format!(
                "detection confidence {:.2} below the RFA floor {:.2}",
                detection.confidence, min_confidence
            ),
        });
    }
    match detection.primary() {
        Some(verdict) => Ok(verdict.completed.dominant()),
        None => Err(BoltError::DetectionAborted {
            reason: "no co-resident verdict to free resources from".to_string(),
        }),
    }
}

/// The measured impact of one RFA run (one Table 2 row).
#[derive(Debug, Clone, PartialEq)]
pub struct RfaOutcome {
    /// The victim's family label.
    pub victim: String,
    /// The resource the helper saturated.
    pub target_resource: Resource,
    /// Victim performance change: negative = degradation. For interactive
    /// victims this is the relative QPS change; for batch victims the
    /// relative execution-time change mapped to a rate (−0.36 = 36% slower
    /// ⇒ reported as −36%).
    pub victim_delta: f64,
    /// Beneficiary performance change: positive = improvement in execution
    /// time.
    pub beneficiary_delta: f64,
}

/// Runs one RFA: places the victim, the beneficiary, and the helper on one
/// host, measures the beneficiary's slowdown with the helper off and on,
/// and the victim's degradation.
///
/// Records into `telemetry` an [`Phase::AttackExecution`] span over the
/// run, a gauge of the helper's pressure on the victim's dominant
/// resource, and the cluster's launch/terminate events: an enabled
/// `telemetry` turns the cluster's lifecycle log on first (see
/// [`Cluster::record_events`]) and drains it at the end, together with
/// whatever the caller's own writes logged before.
///
/// # Errors
///
/// Propagates [`BoltError`] from the simulator.
pub fn run_rfa<R: Rng>(
    cluster: &mut Cluster,
    server: usize,
    victim_profile: WorkloadProfile,
    beneficiary_profile: WorkloadProfile,
    rng: &mut R,
    telemetry: &mut Telemetry,
) -> Result<RfaOutcome, BoltError> {
    let attack_clock = telemetry.begin();
    if telemetry.is_enabled() {
        cluster.record_events();
    }
    let victim_kind = victim_profile.kind();
    let victim_family = victim_profile.label().family().to_string();
    let victim_dominant = victim_profile.base_pressure().dominant();
    let victim_load = victim_profile.load().level(50.0);

    let victim = cluster.launch_on(server, victim_profile, VmRole::Friendly, 0.0)?;
    let beneficiary = cluster.launch_on(server, beneficiary_profile, VmRole::Adversarial, 0.0)?;
    // The helper is a third VM slot on the same host (part of the
    // adversary's footprint).
    let mut r2 = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x42);
    let helper_profile = bolt_workloads::catalog::speccpu::profile(
        &bolt_workloads::catalog::speccpu::Benchmark::Gobmk,
        &mut r2,
    )
    .with_vcpus(4);
    let helper = cluster.launch_on(server, helper_profile, VmRole::Adversarial, 0.0)?;

    // Phase 1: helper idle. Measure baseline for both parties.
    cluster.set_pressure_override(helper, Some(PressureVector::zero()))?;
    let t = 50.0;
    let victim_interference_before = cluster.interference_on(victim, t, rng)?;
    let victim_state_pressure_before = {
        let state = cluster.vm(victim)?;
        let progress = perf::progress_rate(&state.profile, &victim_interference_before);
        state.profile.pressure_at(t, progress, rng)
    };

    // Phase 2: helper saturates the victim's dominant resource.
    cluster.set_pressure_override(helper, Some(helper_pressure(victim_dominant)))?;
    let victim_interference_after = cluster.interference_on(victim, t, rng)?;
    let victim_state_pressure_after = {
        let state = cluster.vm(victim)?;
        let progress = perf::progress_rate(&state.profile, &victim_interference_after);
        state.profile.pressure_at(t, progress, rng)
    };

    // Victim degradation, by kind.
    let victim_state = cluster.vm(victim)?;
    let victim_delta = match victim_kind {
        WorkloadKind::Interactive => {
            let before = perf::qps_loss(
                &victim_state.profile,
                &victim_interference_before,
                victim_load,
            );
            let after = perf::qps_loss(
                &victim_state.profile,
                &victim_interference_after,
                victim_load,
            );
            -(after - before)
        }
        WorkloadKind::Batch => {
            let before =
                perf::batch_slowdown_factor(&victim_state.profile, &victim_interference_before);
            let after =
                perf::batch_slowdown_factor(&victim_state.profile, &victim_interference_after);
            -((after - before) / after)
        }
    };

    // Beneficiary improvement. The beneficiary and helper are coordinated
    // components of the adversary (the paper runs them inside one VM), so
    // the beneficiary's performance is driven by the *victim's* pressure
    // alone: the helper duty-cycles around it. As the victim stalls, its
    // pressure on the beneficiary's resources relaxes.
    let beneficiary_state = cluster.vm(beneficiary)?;
    let before =
        perf::batch_slowdown_factor(&beneficiary_state.profile, &victim_state_pressure_before);
    let after =
        perf::batch_slowdown_factor(&beneficiary_state.profile, &victim_state_pressure_after);
    let beneficiary_delta = (before - after) / before;

    // Clean up the experiment's VMs so the cluster can be reused.
    cluster.terminate(victim)?;
    cluster.terminate(beneficiary)?;
    cluster.terminate(helper)?;

    let helper_vector = helper_pressure(victim_dominant);
    telemetry.gauge(victim_dominant, helper_vector[victim_dominant]);
    telemetry.span(Phase::AttackExecution, 0.0, t, attack_clock);
    if telemetry.is_enabled() {
        telemetry.cluster_events(cluster.take_events());
    }

    Ok(RfaOutcome {
        victim: victim_family,
        target_resource: victim_dominant,
        victim_delta,
        beneficiary_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_sim::{IsolationConfig, ServerSpec};
    use bolt_workloads::catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x2FA)
    }

    fn cluster() -> Cluster {
        Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap()
    }

    fn mcf(r: &mut StdRng) -> WorkloadProfile {
        catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, r)
    }

    #[test]
    fn helper_targets_single_resource() {
        let h = helper_pressure(Resource::NetBw);
        assert_eq!(h[Resource::NetBw], 95.0);
        assert_eq!(h[Resource::Cpu], 0.0);
        assert_eq!(h.top(1), vec![Resource::NetBw]);
    }

    #[test]
    fn helper_target_planning_gates_on_detection_quality() {
        use crate::detector::DegradedReason;
        let completed =
            PressureVector::from_pairs(&[(Resource::MemBw, 85.0), (Resource::Llc, 60.0)]);
        let mut detection = Detection {
            verdicts: vec![bolt_recommender::Recommendation {
                scores: vec![],
                completed,
                characteristics: bolt_workloads::ResourceCharacteristics::from_pressure(&completed),
            }],
            sweep: vec![],
            snapshot: bolt_probes::Snapshot {
                readings: vec![],
                duration_s: 10.0,
            },
            duration_s: 10.0,
            used_shutter: false,
            confidence: 0.9,
            degraded: None,
            mrc: None,
            anytime: None,
        };
        assert_eq!(
            plan_helper_target(&detection, 0.6).unwrap(),
            Resource::MemBw
        );

        detection.confidence = 0.2;
        assert!(matches!(
            plan_helper_target(&detection, 0.6),
            Err(BoltError::DetectionAborted { .. })
        ));

        detection.confidence = 0.9;
        detection.degraded = Some(DegradedReason::BudgetExhausted);
        let err = plan_helper_target(&detection, 0.6).unwrap_err();
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn rfa_on_spark_frees_resources_for_mcf() {
        // Table 2's third row: memory-bound Spark k-means victim, mcf
        // beneficiary, memory-bandwidth helper.
        let mut r = rng();
        let mut c = cluster();
        let victim = catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            bolt_workloads::DatasetScale::Large,
            &mut r,
        )
        .with_vcpus(8);
        let mut off = Telemetry::disabled();
        let outcome = run_rfa(&mut c, 0, victim, mcf(&mut r), &mut r, &mut off).unwrap();
        assert_eq!(outcome.target_resource, Resource::MemBw);
        assert!(
            outcome.victim_delta < -0.15,
            "victim should degrade markedly, got {}",
            outcome.victim_delta
        );
        assert!(
            outcome.beneficiary_delta > 0.02,
            "beneficiary should improve, got {}",
            outcome.beneficiary_delta
        );
    }

    #[test]
    fn rfa_on_webserver_costs_qps() {
        let mut r = rng();
        let mut c = cluster();
        let victim = catalog::webserver::profile(&catalog::webserver::Variant::Dynamic, &mut r)
            .with_vcpus(8);
        let mut off = Telemetry::disabled();
        let outcome = run_rfa(&mut c, 0, victim, mcf(&mut r), &mut r, &mut off).unwrap();
        assert!(
            outcome.victim_delta < -0.1,
            "webserver QPS should fall, got {}",
            outcome.victim_delta
        );
    }

    #[test]
    fn rfa_cleans_up_its_vms() {
        let mut r = rng();
        let mut c = cluster();
        let before = c.vm_ids().count();
        let victim = catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::Svm,
            bolt_workloads::DatasetScale::Medium,
            &mut r,
        );
        let mut off = Telemetry::disabled();
        run_rfa(&mut c, 0, victim, mcf(&mut r), &mut r, &mut off).unwrap();
        assert_eq!(c.vm_ids().count(), before);
    }
}
