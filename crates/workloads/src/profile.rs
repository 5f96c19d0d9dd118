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
    /// `sensitivity.top(3)`, ranked once here: the contention model reads
    /// it on every call, and no method changes `sensitivity` after `new`.
    critical: [Resource; 3],
    /// `base_pressure.dominant()`, kept beside it: the resource a stalled
    /// workload keeps hammering. Set in `new`, recomputed wherever
    /// `base_pressure` changes.
    dominant: Resource,
    load: LoadPattern,
    noise: f64,
    base_latency_ms: f64,
    base_runtime_s: f64,
    vcpus: u32,
    /// For derived profiles (e.g. a load-scaled training instance), the
    /// original full-load fingerprint; `None` when `base_pressure` is
    /// already the reference. Boxed: only derived training profiles set
    /// it, and inline it would cost every tenant 80 bytes.
    reference_pressure: Option<Box<PressureVector>>,
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
        let ranked = sensitivity.ranked_array();
        WorkloadProfile {
            label,
            kind,
            base_pressure,
            sensitivity,
            critical: [ranked[0], ranked[1], ranked[2]],
            dominant: base_pressure.dominant(),
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
            .as_deref()
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

    /// The three resources this workload is most sensitive to, most
    /// sensitive first (ties in canonical order): `sensitivity().top(3)`.
    pub fn critical(&self) -> &[Resource; 3] {
        &self.critical
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
    ///
    /// The two steps, [`WorkloadProfile::load_scaled_at`] then
    /// [`WorkloadProfile::emit`], are public so a caller that emits one
    /// workload's pressure at one `t` under several progress rates scales
    /// it by the load pattern once.
    pub fn pressure_at<R: Rng>(&self, t: f64, progress: f64, rng: &mut R) -> PressureVector {
        self.emit(&self.load_scaled_at(t), progress, rng)
    }

    /// The base pressure scaled by the load level at `t`. Capacity
    /// resources (memory/disk footprint) do not scale with instantaneous
    /// load: a memcached at low QPS still holds its dataset resident.
    /// Not clamped: [`WorkloadProfile::emit`] clamps after coupling and
    /// noise, as one evaluation always has.
    pub fn load_scaled_at(&self, t: f64) -> PressureVector {
        let level = self.load.level(t);
        let mut scaled = self.base_pressure;
        for (v, r) in scaled.as_mut_array().iter_mut().zip(Resource::ALL) {
            if !r.is_capacity() {
                *v *= level;
            }
        }
        scaled
    }

    /// The pressure emitted from a [`WorkloadProfile::load_scaled_at`]
    /// vector at `progress`: progress coupling, then noise (drawn from
    /// `rng` only for a noisy profile and a nonzero lane), then the clamp
    /// to `[0, 100]`.
    pub fn emit<R: Rng>(
        &self,
        scaled: &PressureVector,
        progress: f64,
        rng: &mut R,
    ) -> PressureVector {
        let progress = progress.clamp(0.0, 1.0);
        let mut vals = *scaled.as_array();
        for (v, r) in vals.iter_mut().zip(Resource::ALL) {
            // A stalled workload keeps hammering the resource it is stalled
            // on but relaxes everywhere else.
            if r != self.dominant {
                *v *= progress;
            }
            if self.noise > 0.0 && *v > 0.0 {
                let jitter = 1.0 + self.noise * (rng.gen::<f64>() * 2.0 - 1.0);
                *v *= jitter;
            }
            *v = v.clamp(0.0, 100.0);
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
            dominant: base.dominant(),
            load: LoadPattern::Constant { level: 1.0 },
            reference_pressure: Some(Box::new(*self.reference_pressure())),
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

    /// Every tenant carries one profile, so its size is the region's
    /// memory bill: each 8 bytes cost region-churn (100,000 tenants)
    /// about 0.8 MB. A new inline field fails here; box what few
    /// profiles set, as `reference_pressure` is.
    #[test]
    fn profile_layout_stays_compact() {
        assert!(
            std::mem::size_of::<WorkloadProfile>() <= 304,
            "WorkloadProfile grew to {} bytes",
            std::mem::size_of::<WorkloadProfile>()
        );
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
    fn critical_is_the_top_three_sensitivities() {
        use crate::catalog::{parsec, userstudy};
        let mut rng = StdRng::seed_from_u64(9);
        let mut profiles = crate::training::training_set(3);
        profiles.extend(
            parsec::Benchmark::ALL
                .iter()
                .map(|b| parsec::profile(b, &mut rng)),
        );
        profiles.extend(
            userstudy::APPS
                .iter()
                .map(|a| userstudy::profile(a, &mut rng)),
        );
        // Ties rank in canonical order: an all-zero sensitivity, and a
        // three-way tie with a fourth resource above it.
        let tied = PressureVector::from_pairs(&[
            (Resource::Cpu, 50.0),
            (Resource::L1d, 50.0),
            (Resource::DiskBw, 50.0),
            (Resource::NetBw, 70.0),
        ]);
        for sensitivity in [PressureVector::zero(), tied] {
            let p = WorkloadProfile::new(
                AppLabel::new("tie", "case", DatasetScale::Small),
                WorkloadKind::Batch,
                tied,
                sensitivity,
                LoadPattern::steady(),
                0.0,
                1.0,
                60.0,
                1,
            );
            profiles.push(p);
        }
        for p in &profiles {
            assert_eq!(
                p.critical().to_vec(),
                p.sensitivity().top(3),
                "{}",
                p.label()
            );
        }
        let n = profiles.len();
        assert_eq!(
            profiles[n - 2].critical(),
            &[Resource::L1i, Resource::L1d, Resource::L2]
        );
        assert_eq!(
            profiles[n - 1].critical(),
            &[Resource::NetBw, Resource::L1d, Resource::Cpu]
        );
    }

    /// `pressure_at` as one function, as it was written before the split
    /// into `load_scaled_at` and `emit`: the reference the two steps must
    /// match bit for bit, draw for draw.
    fn one_step_pressure_at<R: Rng>(
        p: &WorkloadProfile,
        t: f64,
        progress: f64,
        rng: &mut R,
    ) -> PressureVector {
        let level = p.load().level(t);
        let progress = progress.clamp(0.0, 1.0);
        let mut vals = [0.0; RESOURCE_COUNT];
        let critical = p.base_pressure().dominant();
        for (i, &r) in Resource::ALL.iter().enumerate() {
            let mut v = p.base_pressure()[r] * level;
            if r.is_capacity() {
                v = p.base_pressure()[r];
            }
            if r != critical {
                v *= progress;
            }
            if p.noise() > 0.0 && v > 0.0 {
                let jitter = 1.0 + p.noise() * (rng.gen::<f64>() * 2.0 - 1.0);
                v *= jitter;
            }
            vals[i] = v.clamp(0.0, 100.0);
        }
        PressureVector::from_raw(vals)
    }

    /// Every catalog profile: the training set (load-levelled instances
    /// included, and every variant of the families it draws from), PARSEC
    /// and the user study.
    fn catalog_profiles() -> Vec<WorkloadProfile> {
        use crate::catalog::{parsec, userstudy};
        let mut rng = StdRng::seed_from_u64(9);
        let mut profiles = crate::training::training_set(3);
        profiles.extend(
            parsec::Benchmark::ALL
                .iter()
                .map(|b| parsec::profile(b, &mut rng)),
        );
        profiles.extend(
            userstudy::APPS
                .iter()
                .map(|a| userstudy::profile(a, &mut rng)),
        );
        profiles
    }

    /// Every catalog label (each constructor's every variant, plus the
    /// training set's load-levelled clones) borrows its names and is the
    /// label `AppLabel::new` builds from them: equal, hashed alike and
    /// printed alike.
    #[test]
    fn catalog_labels_borrow_their_names_and_equal_new() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |l: &AppLabel| {
            let mut h = DefaultHasher::new();
            l.hash(&mut h);
            h.finish()
        };
        for p in catalog_profiles() {
            let label = p.label();
            let owned = AppLabel::new(label.family(), label.variant(), label.scale());
            assert_eq!(*label, owned);
            assert_eq!(hash(label), hash(&owned), "{label}");
            assert_eq!(label.to_string(), owned.to_string());
            assert!(label.borrows_its_names(), "{label} owns its names");
            assert!(label.clone().borrows_its_names(), "a clone of {label} owns");
            assert!(!owned.borrows_its_names());
        }
    }

    /// The split emission (`load_scaled_at` then `emit`, and
    /// `pressure_at`, which calls them) equals the one-step evaluation bit
    /// for bit and leaves the RNG where it left it: every catalog profile,
    /// noisy and quiet, on its own load pattern and on a diurnal one, at
    /// progress 0, 0.37, 1 and 1.5 (clamped to 1).
    #[test]
    fn split_emission_matches_the_one_step_evaluation() {
        let bits = |v: PressureVector| v.as_array().map(f64::to_bits);
        let diurnal = LoadPattern::Diurnal {
            low: 0.2,
            high: 0.9,
            phase: 0.3,
        };
        let mut noisy = 0;
        for base in catalog_profiles() {
            noisy += usize::from(base.noise() > 0.0);
            let quiet = base.clone().with_noise(0.0);
            let profiles = [
                quiet.clone(),
                quiet.with_load(diurnal.clone()),
                base.clone().with_load(diurnal.clone()),
                base,
            ];
            for (k, p) in profiles.iter().enumerate() {
                for (i, progress) in [0.0, 0.37, 1.0, 1.5].into_iter().enumerate() {
                    let t = 1_234.5 * (k * 4 + i) as f64;
                    let seed = (k * 4 + i) as u64;
                    let mut reference = StdRng::seed_from_u64(seed);
                    let expected = one_step_pressure_at(p, t, progress, &mut reference);
                    let mut split = StdRng::seed_from_u64(seed);
                    let scaled = p.load_scaled_at(t);
                    let got = p.emit(&scaled, progress, &mut split);
                    let mut whole = StdRng::seed_from_u64(seed);
                    let joined = p.pressure_at(t, progress, &mut whole);
                    let context = format!("{} at progress {progress}", p.label());
                    assert_eq!(bits(got), bits(expected), "{context}");
                    assert_eq!(bits(joined), bits(expected), "{context}");
                    let next = reference.gen::<u64>();
                    assert_eq!(split.gen::<u64>(), next, "{context}: RNG stream");
                    assert_eq!(whole.gen::<u64>(), next, "{context}: RNG stream");
                }
            }
        }
        assert!(noisy > 100, "most catalog profiles carry noise ({noisy})");
    }

    /// The stored dominant is the base pressure's after construction and
    /// after every builder, including `at_load_level`, which can move it
    /// (capacity lanes stay resident while the rest scale down).
    #[test]
    fn stored_dominant_tracks_the_base_pressure() {
        let check = |p: &WorkloadProfile| {
            assert_eq!(p.dominant, p.base_pressure().dominant(), "{}", p.label());
        };
        for p in catalog_profiles() {
            check(&p);
            check(&p.at_load_level(0.3));
            check(&p.clone().with_load(LoadPattern::Constant { level: 0.4 }));
            check(&p.clone().with_vcpus(3));
            check(&p.clone().with_noise(0.0));
        }
        let full = test_profile(0.1);
        let half = full.at_load_level(0.5);
        check(&half);
        assert_eq!(full.dominant, Resource::L1i);
        assert_eq!(half.dominant, Resource::MemCap, "L1i 40 < MemCap 50");
    }

    #[test]
    fn sensitivity_tracks_pressure_with_floor() {
        let base = PressureVector::from_pairs(&[(Resource::NetBw, 90.0)]);
        let s = sensitivity_from_pressure(&base);
        assert!(s[Resource::NetBw] > 80.0);
        assert!(s[Resource::L1i] >= 5.0); // the floor
    }
}
