//! Training data handling: the matrix of previously-seen workloads.

use bolt_linalg::{LinalgError, Matrix};
use bolt_workloads::{
    AppLabel, PressureVector, ResourceCharacteristics, WorkloadKind, WorkloadProfile,
    RESOURCE_COUNT,
};

/// One training example: a previously-seen application's label and full
/// pressure fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingExample {
    /// The application label.
    pub label: AppLabel,
    /// Interactive or batch.
    pub kind: WorkloadKind,
    /// The pressure fingerprint as observed when this example was
    /// collected (possibly at partial input load).
    pub pressure: PressureVector,
    /// The application's full-load reference fingerprint, used for
    /// characteristics reporting and attack crafting; equals `pressure`
    /// for examples collected at full load.
    pub reference: PressureVector,
}

impl TrainingExample {
    /// The example's ground-truth resource characteristics (derived from
    /// the full-load reference).
    pub fn characteristics(&self) -> ResourceCharacteristics {
        ResourceCharacteristics::from_pressure(&self.reference)
    }
}

/// The training dataset: examples plus their dense pressure matrix
/// (applications × resources), the "previously seen workloads" the
/// recommender projects new signals against.
#[derive(Debug, Clone)]
pub struct TrainingData {
    examples: Vec<TrainingExample>,
    matrix: Matrix,
}

impl TrainingData {
    /// Builds the dataset from workload profiles.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InsufficientData`] if `profiles` has fewer
    /// than two entries (correlation needs at least two rows to compare).
    pub fn from_profiles(profiles: &[WorkloadProfile]) -> Result<Self, LinalgError> {
        let examples: Vec<TrainingExample> = profiles
            .iter()
            .map(|p| TrainingExample {
                label: p.label().clone(),
                kind: p.kind(),
                pressure: *p.base_pressure(),
                reference: *p.reference_pressure(),
            })
            .collect();
        TrainingData::from_examples(examples)
    }

    /// Builds the dataset from already-prepared examples — the path used
    /// when training profiles have been passed through an observation
    /// channel (e.g. the isolation config's attenuation), so the training
    /// matrix matches what the probes can actually see.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InsufficientData`] if fewer than two
    /// examples are given.
    pub fn from_examples(examples: Vec<TrainingExample>) -> Result<Self, LinalgError> {
        if examples.len() < 2 {
            return Err(LinalgError::InsufficientData {
                op: "training data",
                got: examples.len(),
                need: 2,
            });
        }
        let rows: Vec<Vec<f64>> = examples
            .iter()
            .map(|e| e.pressure.as_slice().to_vec())
            .collect();
        let matrix = Matrix::from_rows(&rows)?;
        Ok(TrainingData { examples, matrix })
    }

    /// Number of training examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// True if there are no examples (cannot occur for a constructed
    /// dataset, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// The examples.
    pub fn examples(&self) -> &[TrainingExample] {
        &self.examples
    }

    /// One example by row index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn example(&self, i: usize) -> &TrainingExample {
        &self.examples[i]
    }

    /// The dense `len() × RESOURCE_COUNT` pressure matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Number of resources (columns); always [`RESOURCE_COUNT`].
    pub fn resources(&self) -> usize {
        RESOURCE_COUNT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_workloads::training::training_set;

    #[test]
    fn builds_from_training_set() {
        let profiles = training_set(1);
        let data = TrainingData::from_profiles(&profiles).unwrap();
        assert_eq!(data.len(), 120);
        assert!(!data.is_empty());
        assert_eq!(data.matrix().shape(), (120, RESOURCE_COUNT));
        assert_eq!(data.example(0).label, *profiles[0].label());
    }

    #[test]
    fn rejects_tiny_datasets() {
        let profiles = training_set(1);
        assert!(TrainingData::from_profiles(&profiles[..1]).is_err());
        assert!(TrainingData::from_profiles(&[]).is_err());
    }

    #[test]
    fn matrix_rows_match_examples() {
        let profiles = training_set(2);
        let data = TrainingData::from_profiles(&profiles[..10]).unwrap();
        for i in 0..data.len() {
            assert_eq!(data.matrix().row(i), data.example(i).pressure.as_slice());
        }
    }

    #[test]
    fn characteristics_derive_from_pressure() {
        let profiles = training_set(3);
        let data = TrainingData::from_profiles(&profiles).unwrap();
        let e = data.example(0);
        assert_eq!(e.characteristics().dominant, e.pressure.dominant());
    }
}
