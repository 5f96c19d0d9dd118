//! Performance models: tail latency for interactive services and slowdown
//! for batch jobs under resource contention.
//!
//! Bolt's attacks are evaluated by their effect on victim performance:
//! the internal DoS increases memcached tail latency by up to 140× (paper
//! §5.1, Fig. 13), and the RFA slows batch victims by 36–52% (Table 2).
//! These models translate *contention on the victim's sensitive resources*
//! into those observable effects using a queueing-flavoured formulation:
//! contention raises the effective utilization of the victim's bottleneck,
//! and latency explodes as the bottleneck saturates.

use crate::profile::WorkloadProfile;
use crate::resource::{PressureVector, Resource};

/// How strongly contention couples into effective utilization. Calibrated
/// so that a fully-contended critical resource pushes an interactive victim
/// deep into saturation (≫10× tail amplification, up to ~140×).
const CONTENTION_GAIN: f64 = 0.95;

/// Upper bound on tail-latency amplification, mirroring the paper's
/// observed ceiling of ~140× before requests simply time out.
const MAX_TAIL_AMPLIFICATION: f64 = 150.0;

/// The contention-weighted pressure an interfering vector exerts on a
/// victim, normalized to `[0, 1]`.
///
/// Each resource's interference is weighted by the victim's sensitivity to
/// that resource, so a cache-hungry attack hurts a cache-sensitive victim
/// far more than an equally intense disk attack would.
pub fn weighted_contention(profile: &WorkloadProfile, interference: &PressureVector) -> f64 {
    let sens = profile.sensitivity();
    let mut num = 0.0;
    let mut den = 0.0;
    for r in Resource::ALL {
        let s = sens[r] / 100.0;
        num += s * (interference[r] / 100.0);
        den += s;
    }
    if den == 0.0 {
        0.0
    } else {
        (num / den).clamp(0.0, 1.0)
    }
}

/// The *peak* contention across the victim's three most critical resources,
/// normalized to `[0, 1]`. A targeted attack saturating just the single
/// most sensitive resource should be devastating even though the average
/// across all ten resources is low — this term captures that.
pub fn critical_contention(profile: &WorkloadProfile, interference: &PressureVector) -> f64 {
    let critical = profile.sensitivity().top(3);
    critical
        .iter()
        .map(|&r| (interference[r] / 100.0) * (profile.sensitivity()[r] / 100.0))
        .fold(0.0, f64::max)
        .clamp(0.0, 1.0)
}

/// Tail-latency amplification factor (≥ 1) for an interactive workload
/// under `interference`, at input load `load` in `[0, 1]`.
///
/// Uses an M/M/1-style blowup: the victim's effective utilization is its
/// own load plus the contention coupled in from co-residents; p99 latency
/// scales like `1 / (1 - ρ)` and is capped at
/// 150× (requests effectively timing out).
///
/// # Example
///
/// ```
/// use bolt_workloads::{catalog, perf, PressureVector, Resource};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let victim = catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng);
/// let quiet = PressureVector::zero();
/// assert!((perf::tail_latency_factor(&victim, &quiet, 0.5) - 1.0).abs() < 0.01);
/// let attack = PressureVector::from_pairs(&[(Resource::L1i, 95.0), (Resource::Llc, 95.0)]);
/// assert!(perf::tail_latency_factor(&victim, &attack, 0.5) > 5.0);
/// ```
pub fn tail_latency_factor(
    profile: &WorkloadProfile,
    interference: &PressureVector,
    load: f64,
) -> f64 {
    let load = load.clamp(0.0, 1.0);
    let avg = weighted_contention(profile, interference);
    let mut peak = critical_contention(profile, interference);
    // CPU saturation starves an interactive service's threads regardless
    // of which resource it nominally bottlenecks on — a compute-kernel
    // DoS wrecks a key-value store's tail even though CPU is not among
    // its top critical resources.
    let starvation = 0.8 * interference[Resource::Cpu] / 100.0;
    peak = peak.max(starvation);
    // Blend: the bottleneck dominates, the average adds background drag.
    let contention = (0.75 * peak + 0.25 * avg).clamp(0.0, 1.0);
    // Effective utilization of the victim's bottleneck resource. Base load
    // occupies up to 60% of headroom so the uncontended service is
    // comfortably provisioned (the paper's victims are provisioned for
    // peak).
    let rho = (0.6 * load + CONTENTION_GAIN * contention).min(0.999);
    let rho0 = 0.6 * load;
    let amplification = (1.0 - rho0) / (1.0 - rho);
    amplification.clamp(1.0, MAX_TAIL_AMPLIFICATION)
}

/// Execution-time slowdown factor (≥ 1) for a batch workload under
/// `interference`.
///
/// Batch jobs degrade more gently than tails: slowdown is linear-ish in
/// weighted contention with superlinear growth as the critical resource
/// saturates (a fully-saturated critical resource roughly triples
/// runtime; combined with background drag the paper's worst case is ~9.8×).
pub fn batch_slowdown_factor(profile: &WorkloadProfile, interference: &PressureVector) -> f64 {
    let avg = weighted_contention(profile, interference);
    let peak = critical_contention(profile, interference);
    let s = 1.0 + 1.6 * avg + 2.4 * peak * peak + 6.0 * peak.powi(6);
    s.max(1.0)
}

/// The *progress rate* in `(0, 1]` of a workload under interference: the
/// reciprocal of its slowdown. Used for the RFA pressure-coupling loop —
/// a victim making less progress exerts less pressure on its non-critical
/// resources.
pub fn progress_rate(profile: &WorkloadProfile, interference: &PressureVector) -> f64 {
    1.0 / batch_slowdown_factor(profile, interference)
}

/// Throughput degradation (fraction of baseline QPS lost, in `[0, 1)`) for
/// an interactive workload: as latency inflates, the service completes
/// fewer requests within its SLA window.
pub fn qps_loss(profile: &WorkloadProfile, interference: &PressureVector, load: f64) -> f64 {
    let amp = tail_latency_factor(profile, interference, load);
    // Map amplification to lost throughput: 1x -> 0 loss, 10x -> ~67% loss,
    // saturating toward 95%.
    let loss = 1.0 - 1.0 / (0.3 * amp + 0.7);
    loss.clamp(0.0, 0.95)
}

/// A summarized performance observation for one victim at one instant —
/// the record the attack experiments aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// Simulated time of the sample (seconds).
    pub time_s: f64,
    /// p99 latency in milliseconds (interactive) at this instant.
    pub p99_latency_ms: f64,
    /// Slowdown factor relative to the uncontended baseline.
    pub slowdown: f64,
    /// Host CPU utilization in percent at this instant.
    pub host_cpu_utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{AppLabel, DatasetScale};
    use crate::load::LoadPattern;
    use crate::profile::{sensitivity_from_pressure, WorkloadKind};

    fn victim() -> WorkloadProfile {
        let base = PressureVector::from_pairs(&[
            (Resource::L1i, 81.0),
            (Resource::Llc, 78.0),
            (Resource::Cpu, 35.0),
            (Resource::NetBw, 45.0),
            (Resource::MemCap, 40.0),
        ]);
        WorkloadProfile::new(
            AppLabel::new("memcached", "read-heavy", DatasetScale::Medium),
            WorkloadKind::Interactive,
            base,
            sensitivity_from_pressure(&base),
            LoadPattern::steady(),
            0.0,
            0.5,
            60.0,
            4,
        )
    }

    #[test]
    fn no_interference_means_no_amplification() {
        let f = tail_latency_factor(&victim(), &PressureVector::zero(), 0.5);
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn targeted_attack_amplifies_tail_dramatically() {
        let attack = PressureVector::from_pairs(&[(Resource::L1i, 100.0), (Resource::Llc, 100.0)]);
        let f = tail_latency_factor(&victim(), &attack, 0.5);
        assert!(f > 8.0, "targeted attack should blow up the tail, got {f}");
        assert!(f <= MAX_TAIL_AMPLIFICATION);
    }

    #[test]
    fn untargeted_attack_hurts_less_than_targeted() {
        let targeted = PressureVector::from_pairs(&[(Resource::L1i, 90.0), (Resource::Llc, 90.0)]);
        let untargeted =
            PressureVector::from_pairs(&[(Resource::DiskBw, 90.0), (Resource::DiskCap, 90.0)]);
        let ft = tail_latency_factor(&victim(), &targeted, 0.5);
        let fu = tail_latency_factor(&victim(), &untargeted, 0.5);
        assert!(ft > 3.0 * fu, "targeted {ft} vs untargeted {fu}");
    }

    #[test]
    fn amplification_monotone_in_interference() {
        let v = victim();
        let mut prev = 0.0;
        for level in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let attack =
                PressureVector::from_pairs(&[(Resource::L1i, level), (Resource::Llc, level)]);
            let f = tail_latency_factor(&v, &attack, 0.5);
            assert!(f >= prev, "amplification should not decrease: {f} < {prev}");
            prev = f;
        }
    }

    #[test]
    fn higher_load_amplifies_more() {
        let attack = PressureVector::from_pairs(&[(Resource::L1i, 70.0)]);
        let lo = tail_latency_factor(&victim(), &attack, 0.1);
        let hi = tail_latency_factor(&victim(), &attack, 0.9);
        assert!(hi > lo);
    }

    #[test]
    fn batch_slowdown_bounded_and_monotone() {
        let v = victim();
        let mut prev = 0.0;
        for level in [0.0, 30.0, 60.0, 90.0, 100.0] {
            let attack =
                PressureVector::from_pairs(&[(Resource::L1i, level), (Resource::Llc, level)]);
            let s = batch_slowdown_factor(&v, &attack);
            assert!(
                (1.0..15.0).contains(&s),
                "slowdown {s} out of plausible range"
            );
            assert!(s >= prev);
            prev = s;
        }
        // Full pressure on critical resources yields a multi-x slowdown.
        assert!(
            prev > 2.0,
            "saturated critical resource should slow >2x, got {prev}"
        );
    }

    #[test]
    fn progress_rate_is_reciprocal_slowdown() {
        let attack = PressureVector::from_pairs(&[(Resource::L1i, 80.0)]);
        let s = batch_slowdown_factor(&victim(), &attack);
        let p = progress_rate(&victim(), &attack);
        assert!((p * s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qps_loss_in_range_and_monotone() {
        let quiet = qps_loss(&victim(), &PressureVector::zero(), 0.5);
        assert!(quiet < 0.05);
        let attack = PressureVector::from_pairs(&[(Resource::L1i, 100.0), (Resource::Llc, 100.0)]);
        let loud = qps_loss(&victim(), &attack, 0.5);
        assert!(loud > 0.5 && loud <= 0.95);
    }

    #[test]
    fn weighted_contention_ignores_resources_victim_does_not_care_about() {
        let v = victim();
        let disk_attack = PressureVector::from_pairs(&[(Resource::DiskBw, 100.0)]);
        let cache_attack = PressureVector::from_pairs(&[(Resource::L1i, 100.0)]);
        assert!(weighted_contention(&v, &cache_attack) > weighted_contention(&v, &disk_attack));
    }

    #[test]
    fn max_amplification_reachable_under_total_saturation() {
        let attack = PressureVector::from_raw([100.0; 10]);
        let f = tail_latency_factor(&victim(), &attack, 1.0);
        assert!(
            f > 100.0,
            "total saturation at peak load should approach the cap, got {f}"
        );
    }
}
