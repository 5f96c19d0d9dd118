//! Workload profiles: the per-application resource fingerprint.
//!
//! A [`WorkloadProfile`] bundles everything the simulator and detector need
//! to know about one application instance: its label, the *base* pressure it
//! places on each of the ten shared resources at full load, the resources it
//! is *sensitive* to (which is what the DoS and RFA attacks exploit), its
//! kind (interactive vs. batch), the load pattern it follows, and the noise
//! level of its pressure signal.

use rand::Rng;

use crate::label::{AppLabel, ResourceCharacteristics};
use crate::load::LoadPattern;
use crate::resource::{PressureVector, Resource, RESOURCE_COUNT};

/// Whether a workload is latency-critical or throughput-oriented, which
/// selects the performance model the simulator applies to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Latency-critical service (key-value store, webserver, database):
    /// interference shows up as tail-latency amplification.
    Interactive,
    /// Batch/analytics job: interference shows up as execution-time
    /// slowdown.
    Batch,
}

/// A complete application fingerprint.
///
/// # Example
///
/// ```
/// use bolt_workloads::catalog;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng);
/// // memcached's instruction-cache pressure is its signature (paper Fig. 2).
/// assert!(p.base_pressure()[bolt_workloads::Resource::L1i] > 60.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    label: AppLabel,
    kind: WorkloadKind,
    base_pressure: PressureVector,
    sensitivity: PressureVector,
    load: LoadPattern,
    noise: f64,
    base_latency_ms: f64,
    base_runtime_s: f64,
    vcpus: u32,
    /// For derived profiles (e.g. a load-scaled training instance), the
    /// original full-load fingerprint; `None` when `base_pressure` is
    /// already the reference.
    reference_pressure: Option<PressureVector>,
}

impl WorkloadProfile {
    /// Creates a profile.
    ///
    /// * `base_pressure` — pressure at load level 1.0.
    /// * `sensitivity` — per-resource sensitivity in `[0, 100]`; higher
    ///   means contention on that resource hurts this workload more.
    /// * `noise` — relative standard deviation of the pressure signal
    ///   (0.05 = 5% jitter), clamped to `[0, 0.5]`.
    /// * `base_latency_ms` — uncontended p99 latency for interactive
    ///   workloads (ignored for batch).
    /// * `base_runtime_s` — uncontended completion time for batch workloads
    ///   (ignored for interactive).
    /// * `vcpus` — hardware threads the workload occupies.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: AppLabel,
        kind: WorkloadKind,
        base_pressure: PressureVector,
        sensitivity: PressureVector,
        load: LoadPattern,
        noise: f64,
        base_latency_ms: f64,
        base_runtime_s: f64,
        vcpus: u32,
    ) -> Self {
        WorkloadProfile {
            label,
            kind,
            base_pressure,
            sensitivity,
            load,
            noise: noise.clamp(0.0, 0.5),
            base_latency_ms: base_latency_ms.max(0.01),
            base_runtime_s: base_runtime_s.max(0.1),
            vcpus: vcpus.max(1),
            reference_pressure: None,
        }
    }

    /// The full-load reference fingerprint: for derived profiles (e.g. a
    /// load-scaled training instance) the original base pressure, otherwise
    /// [`WorkloadProfile::base_pressure`] itself.
    pub fn reference_pressure(&self) -> &PressureVector {
        self.reference_pressure
            .as_ref()
            .unwrap_or(&self.base_pressure)
    }

    /// The application label.
    pub fn label(&self) -> &AppLabel {
        &self.label
    }

    /// Interactive or batch.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Pressure at full load.
    pub fn base_pressure(&self) -> &PressureVector {
        &self.base_pressure
    }

    /// Per-resource sensitivity to contention.
    pub fn sensitivity(&self) -> &PressureVector {
        &self.sensitivity
    }

    /// The load pattern this workload follows.
    pub fn load(&self) -> &LoadPattern {
        &self.load
    }

    /// Relative noise of the pressure signal.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Uncontended p99 latency in milliseconds (interactive workloads).
    pub fn base_latency_ms(&self) -> f64 {
        self.base_latency_ms
    }

    /// Uncontended completion time in seconds (batch workloads).
    pub fn base_runtime_s(&self) -> f64 {
        self.base_runtime_s
    }

    /// Hardware threads (vCPUs) the workload occupies.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// The ground-truth resource characteristics (dominant + critical
    /// resources), derived from the base pressure.
    pub fn characteristics(&self) -> ResourceCharacteristics {
        ResourceCharacteristics::from_pressure(&self.base_pressure)
    }

    /// The instantaneous pressure this workload generates at time `t`,
    /// scaled by its load pattern and perturbed by multiplicative noise.
    ///
    /// `progress` in `[0, 1]` models the RFA coupling (§5.2): a workload
    /// stalled on its critical resource makes less progress and therefore
    /// exerts proportionally less pressure on its *other* resources. Pass
    /// `1.0` for an unimpeded workload.
    pub fn pressure_at<R: Rng>(&self, t: f64, progress: f64, rng: &mut R) -> PressureVector {
        let level = self.load.level(t);
        let progress = progress.clamp(0.0, 1.0);
        let mut vals = [0.0; RESOURCE_COUNT];
        let critical = self.base_pressure.dominant();
        for (i, &r) in Resource::ALL.iter().enumerate() {
            let mut v = self.base_pressure[r] * level;
            // Capacity resources (memory/disk footprint) do not scale with
            // instantaneous load: a memcached at low QPS still holds its
            // dataset resident.
            if r.is_capacity() {
                v = self.base_pressure[r];
            }
            // A stalled workload keeps hammering the resource it is stalled
            // on but relaxes everywhere else.
            if r != critical {
                v *= progress;
            }
            if self.noise > 0.0 && v > 0.0 {
                let jitter = 1.0 + self.noise * (rng.gen::<f64>() * 2.0 - 1.0);
                v *= jitter;
            }
            vals[i] = v.clamp(0.0, 100.0);
        }
        PressureVector::from_raw(vals)
    }

    /// Returns a copy with a different load pattern.
    pub fn with_load(mut self, load: LoadPattern) -> Self {
        self.load = load;
        self
    }

    /// Returns a copy whose *base* pressure is this profile observed at a
    /// fixed load `level` (capacity resources stay resident, everything
    /// else scales), running at constant load.
    ///
    /// The training set uses this to include the same service at several
    /// input-load points — the paper's training set varies "input load
    /// patterns" within each application type, which is what lets the
    /// recommender match a victim caught in a low-traffic phase.
    pub fn at_load_level(&self, level: f64) -> Self {
        let level = level.clamp(0.0, 1.0);
        let mut base = self.base_pressure.scaled(level);
        for r in Resource::ALL {
            if r.is_capacity() {
                base[r] = self.base_pressure[r];
            }
        }
        WorkloadProfile {
            base_pressure: base,
            load: LoadPattern::Constant { level: 1.0 },
            reference_pressure: Some(*self.reference_pressure()),
            ..self.clone()
        }
    }

    /// Returns a copy with a different vCPU allocation.
    pub fn with_vcpus(mut self, vcpus: u32) -> Self {
        self.vcpus = vcpus.max(1);
        self
    }

    /// Returns a copy with a different relative noise (clamped to
    /// `[0, 0.5]` like the constructor). Region-scale sweeps model their
    /// background tenants with `with_noise(0.0)` so every emission is a
    /// pure function of time and the simulator can memoize per-server
    /// aggregates; a zero-noise profile draws nothing from the RNG.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise.clamp(0.0, 0.5);
        self
    }
}

/// Applies bounded multiplicative jitter to a pressure vector — used by the
/// catalog so two instances of the same application class differ slightly.
pub(crate) fn jitter_pressure<R: Rng>(
    base: &PressureVector,
    rel: f64,
    rng: &mut R,
) -> PressureVector {
    let mut vals = [0.0; RESOURCE_COUNT];
    for (i, &r) in Resource::ALL.iter().enumerate() {
        let j = 1.0 + rel * (rng.gen::<f64>() * 2.0 - 1.0);
        vals[i] = (base[r] * j).clamp(0.0, 100.0);
    }
    PressureVector::from_raw(vals)
}

/// Default sensitivity derivation: an application is most sensitive to the
/// resources it uses most heavily, with a floor so that even lightly-used
/// resources carry some sensitivity.
pub(crate) fn sensitivity_from_pressure(p: &PressureVector) -> PressureVector {
    let mut vals = [0.0; RESOURCE_COUNT];
    for (i, &r) in Resource::ALL.iter().enumerate() {
        vals[i] = (p[r] * 0.9 + 5.0).clamp(0.0, 100.0);
    }
    PressureVector::from_raw(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::DatasetScale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_profile(noise: f64) -> WorkloadProfile {
        let base = PressureVector::from_pairs(&[
            (Resource::L1i, 80.0),
            (Resource::Llc, 70.0),
            (Resource::Cpu, 40.0),
            (Resource::MemCap, 50.0),
        ]);
        WorkloadProfile::new(
            AppLabel::new("memcached", "read-heavy", DatasetScale::Medium),
            WorkloadKind::Interactive,
            base,
            sensitivity_from_pressure(&base),
            LoadPattern::steady(),
            noise,
            0.5,
            60.0,
            4,
        )
    }

    #[test]
    fn pressure_at_full_load_matches_base_without_noise() {
        let p = test_profile(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let got = p.pressure_at(0.0, 1.0, &mut rng);
        assert_eq!(got, *p.base_pressure());
    }

    #[test]
    fn pressure_scales_with_load_except_capacity() {
        let base = PressureVector::from_pairs(&[(Resource::Cpu, 60.0), (Resource::MemCap, 50.0)]);
        let p = WorkloadProfile::new(
            AppLabel::new("x", "y", DatasetScale::Small),
            WorkloadKind::Interactive,
            base,
            sensitivity_from_pressure(&base),
            LoadPattern::Constant { level: 0.5 },
            0.0,
            1.0,
            60.0,
            2,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let got = p.pressure_at(0.0, 1.0, &mut rng);
        assert!((got[Resource::Cpu] - 30.0).abs() < 1e-9);
        // Capacity stays resident regardless of load.
        assert!((got[Resource::MemCap] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn stalled_workload_relaxes_noncritical_pressure() {
        let p = test_profile(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let full = p.pressure_at(0.0, 1.0, &mut rng);
        let stalled = p.pressure_at(0.0, 0.3, &mut rng);
        // Critical resource (L1i, the dominant one) unchanged.
        assert_eq!(stalled[Resource::L1i], full[Resource::L1i]);
        // Non-critical, non-capacity pressure shrinks.
        assert!(stalled[Resource::Cpu] < full[Resource::Cpu]);
        assert!(stalled[Resource::Llc] < full[Resource::Llc]);
    }

    #[test]
    fn noise_perturbs_but_stays_valid() {
        let p = test_profile(0.2);
        let mut rng = StdRng::seed_from_u64(42);
        let a = p.pressure_at(0.0, 1.0, &mut rng);
        let b = p.pressure_at(0.0, 1.0, &mut rng);
        assert_ne!(a, b, "noise should vary samples");
        assert!(a.is_valid() && b.is_valid());
        // Jitter is bounded: within 20% of base.
        assert!((a[Resource::L1i] - 80.0).abs() <= 80.0 * 0.2 + 1e-9);
    }

    #[test]
    fn characteristics_derived_from_base() {
        let p = test_profile(0.0);
        let c = p.characteristics();
        assert_eq!(c.dominant, Resource::L1i);
    }

    #[test]
    fn constructor_clamps_degenerate_arguments() {
        let base = PressureVector::zero();
        let p = WorkloadProfile::new(
            AppLabel::new("a", "b", DatasetScale::Small),
            WorkloadKind::Batch,
            base,
            base,
            LoadPattern::steady(),
            9.0,  // noise too high -> clamped to 0.5
            -1.0, // latency floor
            0.0,  // runtime floor
            0,    // vcpus floor
        );
        assert_eq!(p.noise(), 0.5);
        assert!(p.base_latency_ms() > 0.0);
        assert!(p.base_runtime_s() > 0.0);
        assert_eq!(p.vcpus(), 1);
    }

    #[test]
    fn with_load_and_vcpus_builders() {
        let p = test_profile(0.0)
            .with_load(LoadPattern::Constant { level: 0.2 })
            .with_vcpus(8);
        assert_eq!(p.vcpus(), 8);
        assert_eq!(p.load(), &LoadPattern::Constant { level: 0.2 });
    }

    #[test]
    fn at_load_level_scales_all_but_capacity() {
        let p = test_profile(0.0);
        let low = p.at_load_level(0.5);
        assert!((low.base_pressure()[Resource::L1i] - 40.0).abs() < 1e-9);
        // Capacity stays resident.
        assert_eq!(low.base_pressure()[Resource::MemCap], 50.0);
        // Runs at constant full level of its (scaled) base.
        assert_eq!(low.load().level(123.0), 1.0);
        // Level clamped.
        let over = p.at_load_level(2.0);
        assert_eq!(over.base_pressure()[Resource::L1i], 80.0);
    }

    #[test]
    fn sensitivity_tracks_pressure_with_floor() {
        let base = PressureVector::from_pairs(&[(Resource::NetBw, 90.0)]);
        let s = sensitivity_from_pressure(&base);
        assert!(s[Resource::NetBw] > 80.0);
        assert!(s[Resource::L1i] >= 5.0); // the floor
    }
}
