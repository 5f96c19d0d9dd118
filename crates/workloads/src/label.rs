//! Application labels and the paper's two notions of "correct detection".
//!
//! Table 1 counts a detection as correct when Bolt identifies the framework
//! or service *and* the algorithm or user-load characteristics. The user
//! study (Fig. 12) separately counts "correctly identifying app name" and
//! "correctly identifying app characteristics" — Bolt cannot name an
//! application family it has never trained on, but it can still recover the
//! resources the application is sensitive to.

use std::fmt;

use crate::{PressureVector, Resource};

/// Coarse dataset/input scale, one of the per-family variation axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetScale {
    /// Small input (fits in caches / single wave of tasks).
    Small,
    /// Medium input.
    Medium,
    /// Large input (working set far exceeds the LLC, long job).
    Large,
}

impl DatasetScale {
    /// All scales, smallest first.
    pub const ALL: [DatasetScale; 3] = [
        DatasetScale::Small,
        DatasetScale::Medium,
        DatasetScale::Large,
    ];

    /// A multiplicative factor applied to capacity-style pressure.
    pub fn pressure_factor(self) -> f64 {
        match self {
            DatasetScale::Small => 0.55,
            DatasetScale::Medium => 0.8,
            DatasetScale::Large => 1.0,
        }
    }

    /// Single-letter code used in workload names (paper Fig. 5 uses
    /// `Hadoop:wordCount:S`).
    pub fn code(self) -> &'static str {
        match self {
            DatasetScale::Small => "S",
            DatasetScale::Medium => "M",
            DatasetScale::Large => "L",
        }
    }
}

impl fmt::Display for DatasetScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A structured application label: `family:variant:scale`.
///
/// `family` is the framework or service (e.g. `hadoop`, `memcached`),
/// `variant` the algorithm or load characteristics (e.g. `svm`,
/// `read-heavy-kb`), matching the granularity at which the paper scores
/// label correctness.
///
/// # Example
///
/// ```
/// use bolt_workloads::label::{AppLabel, DatasetScale};
///
/// let a = AppLabel::new("hadoop", "wordcount", DatasetScale::Small);
/// let b = AppLabel::new("hadoop", "wordcount", DatasetScale::Large);
/// assert!(a.matches(&b)); // same family + variant; scale may differ
/// assert_eq!(a.to_string(), "hadoop:wordcount:S");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AppLabel {
    family: String,
    variant: String,
    scale: DatasetScale,
}

impl AppLabel {
    /// Creates a label. Family and variant are lowercased for robust
    /// matching.
    pub fn new(family: &str, variant: &str, scale: DatasetScale) -> Self {
        AppLabel {
            family: family.to_lowercase(),
            variant: variant.to_lowercase(),
            scale,
        }
    }

    /// The framework or service name.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The algorithm or load-characteristics name.
    pub fn variant(&self) -> &str {
        &self.variant
    }

    /// The dataset scale.
    pub fn scale(&self) -> DatasetScale {
        self.scale
    }

    /// Paper-grade label match: family and variant agree (dataset scale is
    /// a characteristic, not part of the name).
    pub fn matches(&self, other: &AppLabel) -> bool {
        self.family == other.family && self.variant == other.variant
    }

    /// Weaker family-only match (used in diagnostics: misclassified jobs
    /// are often confused with workloads of the same family).
    pub fn same_family(&self, other: &AppLabel) -> bool {
        self.family == other.family
    }
}

impl fmt::Display for AppLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.family, self.variant, self.scale)
    }
}

/// The resource characteristics of an application, as Bolt reports them:
/// the dominant resource plus the set of resources the application is most
/// sensitive to.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceCharacteristics {
    /// The resource with the highest pressure.
    pub dominant: Resource,
    /// The top resources by pressure, highest first (length ≥ 1).
    pub critical: Vec<Resource>,
}

impl ResourceCharacteristics {
    /// How many critical resources a characteristics report carries.
    pub const CRITICAL_COUNT: usize = 3;

    /// Derives characteristics from a pressure vector.
    pub fn from_pressure(p: &PressureVector) -> Self {
        ResourceCharacteristics {
            dominant: p.dominant(),
            critical: p.top(Self::CRITICAL_COUNT),
        }
    }

    /// The paper's "correctly identifying app characteristics" criterion:
    /// each side's dominant resource appears among the other's critical
    /// resources (exact dominant equality is too strict when two resources
    /// run neck and neck, e.g. LLC at 63% vs memory bandwidth at 66%),
    /// and at least two of the three critical resources overlap.
    pub fn matches(&self, other: &ResourceCharacteristics) -> bool {
        if !other.critical.contains(&self.dominant) || !self.critical.contains(&other.dominant) {
            return false;
        }
        let overlap = self
            .critical
            .iter()
            .filter(|r| other.critical.contains(r))
            .count();
        overlap >= 2.min(self.critical.len()).min(other.critical.len())
    }
}

impl fmt::Display for ResourceCharacteristics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let crit: Vec<&str> = self.critical.iter().map(|r| r.short_name()).collect();
        write!(
            f,
            "dominant={} critical=[{}]",
            self.dominant,
            crit.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_matching_ignores_scale_and_case() {
        let a = AppLabel::new("Hadoop", "SVM", DatasetScale::Small);
        let b = AppLabel::new("hadoop", "svm", DatasetScale::Large);
        assert!(a.matches(&b));
        assert!(a.same_family(&b));
    }

    #[test]
    fn label_mismatch_on_variant() {
        let a = AppLabel::new("hadoop", "svm", DatasetScale::Small);
        let b = AppLabel::new("hadoop", "kmeans", DatasetScale::Small);
        assert!(!a.matches(&b));
        assert!(a.same_family(&b));
    }

    #[test]
    fn label_display_format() {
        let a = AppLabel::new("memcached", "read-heavy-kb", DatasetScale::Medium);
        assert_eq!(a.to_string(), "memcached:read-heavy-kb:M");
    }

    #[test]
    fn scale_factors_monotone() {
        assert!(DatasetScale::Small.pressure_factor() < DatasetScale::Medium.pressure_factor());
        assert!(DatasetScale::Medium.pressure_factor() < DatasetScale::Large.pressure_factor());
        assert!(DatasetScale::Large.pressure_factor() <= 1.0);
    }

    #[test]
    fn characteristics_from_pressure() {
        let p = PressureVector::from_pairs(&[
            (Resource::L1i, 81.0),
            (Resource::Llc, 78.0),
            (Resource::NetBw, 40.0),
            (Resource::Cpu, 25.0),
        ]);
        let c = ResourceCharacteristics::from_pressure(&p);
        assert_eq!(c.dominant, Resource::L1i);
        assert_eq!(
            c.critical,
            vec![Resource::L1i, Resource::Llc, Resource::NetBw]
        );
    }

    #[test]
    fn characteristics_match_requires_dominant_agreement() {
        // Each side's dominant must appear among the other's criticals:
        // here b's dominant (DiskBw) is nowhere in a's criticals.
        let a = ResourceCharacteristics {
            dominant: Resource::L1i,
            critical: vec![Resource::L1i, Resource::Llc, Resource::NetBw],
        };
        let b = ResourceCharacteristics {
            dominant: Resource::DiskBw,
            critical: vec![Resource::DiskBw, Resource::L1i, Resource::NetBw],
        };
        assert!(!a.matches(&b));
        // Neck-and-neck dominants that sit in each other's critical sets
        // DO match (LLC at 63% vs MemBw at 66% is the same application).
        let c = ResourceCharacteristics {
            dominant: Resource::Llc,
            critical: vec![Resource::Llc, Resource::L1i, Resource::NetBw],
        };
        assert!(a.matches(&c));
    }

    #[test]
    fn characteristics_match_with_partial_critical_overlap() {
        let a = ResourceCharacteristics {
            dominant: Resource::L1i,
            critical: vec![Resource::L1i, Resource::Llc, Resource::NetBw],
        };
        let b = ResourceCharacteristics {
            dominant: Resource::L1i,
            critical: vec![Resource::L1i, Resource::Llc, Resource::Cpu],
        };
        assert!(a.matches(&b));
    }

    #[test]
    fn characteristics_mismatch_with_disjoint_tail() {
        let a = ResourceCharacteristics {
            dominant: Resource::DiskBw,
            critical: vec![Resource::DiskBw, Resource::DiskCap, Resource::Cpu],
        };
        let b = ResourceCharacteristics {
            dominant: Resource::DiskBw,
            critical: vec![Resource::DiskBw, Resource::NetBw, Resource::MemBw],
        };
        // Only one of three critical resources overlaps.
        assert!(!a.matches(&b));
    }
}
