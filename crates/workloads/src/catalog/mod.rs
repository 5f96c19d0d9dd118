//! The application catalog: parameterized generators for every workload
//! family the paper's experiments use.
//!
//! Each submodule models one application family from the evaluation
//! (§3.4, §4): the *shape* of each family's pressure fingerprint follows the
//! paper's observations — e.g. memcached shows very high L1-i and high LLC
//! pressure with zero disk traffic (Fig. 2), Hadoop is disk- and
//! CPU-heavy, Spark is memory-bound, webservers are instruction-footprint
//! and network heavy. Within a family, variants (algorithm, dataset scale,
//! rd:wr mix, load level) shift the fingerprint, which is exactly what lets
//! the recommender tell `hadoop:wordcount:S` from `hadoop:recommender:L`
//! (Fig. 5).

pub mod cassandra;
pub mod database;
pub mod hadoop;
pub mod memcached;
pub mod parsec;
pub mod spark;
pub mod speccpu;
pub mod userstudy;
pub mod webserver;

use rand::Rng;

use crate::label::{AppLabel, DatasetScale};
use crate::load::LoadPattern;
use crate::profile::{jitter_pressure, sensitivity_from_pressure, WorkloadKind, WorkloadProfile};
use crate::resource::PressureVector;

/// Relative jitter applied between instances of the same variant, so that
/// two launches of the same job never produce identical fingerprints.
pub(crate) const INSTANCE_JITTER: f64 = 0.06;

/// Shared construction helper for catalog modules. The label borrows
/// `family` and `variant`, so a catalog profile's label allocates nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_profile<R: Rng>(
    family: &'static str,
    variant: &'static str,
    scale: DatasetScale,
    kind: WorkloadKind,
    base: PressureVector,
    load: LoadPattern,
    noise: f64,
    base_latency_ms: f64,
    base_runtime_s: f64,
    vcpus: u32,
    rng: &mut R,
) -> WorkloadProfile {
    let scaled = scale_capacity(&base, scale);
    let jittered = jitter_pressure(&scaled, INSTANCE_JITTER, rng);
    let sensitivity = sensitivity_from_pressure(&jittered);
    WorkloadProfile::new(
        AppLabel::from_static(family, variant, scale),
        kind,
        jittered,
        sensitivity,
        load,
        noise,
        base_latency_ms,
        base_runtime_s,
        vcpus,
    )
}

/// Applies the dataset-scale factor to the capacity- and bandwidth-style
/// components of a fingerprint: bigger datasets mean bigger working sets
/// (LLC, memory/disk capacity) and more data motion (memory/disk/network
/// bandwidth), while core-private cache behaviour is mostly code-driven.
fn scale_capacity(base: &PressureVector, scale: DatasetScale) -> PressureVector {
    use crate::resource::Resource;
    let f = scale.pressure_factor();
    let mut out = *base;
    for r in [
        Resource::Llc,
        Resource::MemCap,
        Resource::MemBw,
        Resource::DiskCap,
        Resource::DiskBw,
        Resource::NetBw,
    ] {
        out[r] = (base[r] * f).clamp(0.0, 100.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Resource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scale_capacity_shrinks_small_datasets() {
        let base = PressureVector::from_pairs(&[(Resource::MemCap, 80.0), (Resource::L1i, 60.0)]);
        let small = scale_capacity(&base, DatasetScale::Small);
        let large = scale_capacity(&base, DatasetScale::Large);
        assert!(small[Resource::MemCap] < large[Resource::MemCap]);
        // Core-private cache pressure unaffected by dataset scale.
        assert_eq!(small[Resource::L1i], large[Resource::L1i]);
    }

    #[test]
    fn build_profile_produces_valid_fingerprints() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = PressureVector::from_pairs(&[(Resource::Cpu, 70.0)]);
        let p = build_profile(
            "test",
            "v",
            DatasetScale::Medium,
            WorkloadKind::Batch,
            base,
            LoadPattern::steady(),
            0.05,
            1.0,
            120.0,
            2,
            &mut rng,
        );
        assert!(p.base_pressure().is_valid());
        assert!(p.sensitivity().is_valid());
        assert_eq!(p.label().family(), "test");
    }

    #[test]
    fn instances_of_same_variant_differ_slightly() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = memcached::profile(&memcached::Variant::ReadHeavyKb, &mut rng);
        let b = memcached::profile(&memcached::Variant::ReadHeavyKb, &mut rng);
        assert_ne!(a.base_pressure(), b.base_pressure());
        // ... but stay close (same class).
        assert!(a.base_pressure().distance(b.base_pressure()) < 40.0);
    }
}
