use std::error::Error;
use std::fmt;

use bolt_linalg::LinalgError;
use bolt_sim::SimError;

/// Errors produced by the Bolt detection and attack pipelines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BoltError {
    /// A simulator operation failed.
    Sim(SimError),
    /// A numerical kernel failed.
    Linalg(LinalgError),
    /// An experiment was configured inconsistently (e.g. more victims than
    /// the cluster can hold, zero iterations).
    InvalidExperiment {
        /// Human-readable description.
        reason: String,
    },
    /// A churn-robust detection gave up: the retry/backoff budget was
    /// exhausted (or confidence stayed below an attack's floor) before a
    /// clean measurement window was found.
    DetectionAborted {
        /// Human-readable description of what ran out.
        reason: String,
    },
}

impl fmt::Display for BoltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoltError::Sim(e) => write!(f, "simulator error: {e}"),
            BoltError::Linalg(e) => write!(f, "numerical error: {e}"),
            BoltError::InvalidExperiment { reason } => {
                write!(f, "invalid experiment: {reason}")
            }
            BoltError::DetectionAborted { reason } => {
                write!(f, "detection aborted: {reason}")
            }
        }
    }
}

impl Error for BoltError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BoltError::Sim(e) => Some(e),
            BoltError::Linalg(e) => Some(e),
            BoltError::InvalidExperiment { .. } | BoltError::DetectionAborted { .. } => None,
        }
    }
}

impl From<SimError> for BoltError {
    fn from(e: SimError) -> Self {
        BoltError::Sim(e)
    }
}

impl From<LinalgError> for BoltError {
    fn from(e: LinalgError) -> Self {
        BoltError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_and_displays_sources() {
        let e: BoltError = SimError::UnknownServer {
            server: 9,
            cluster_size: 2,
        }
        .into();
        assert!(e.to_string().contains("simulator"));
        assert!(e.source().is_some());

        let e: BoltError = LinalgError::NonFiniteInput { op: "svd" }.into();
        assert!(e.to_string().contains("numerical"));

        let e = BoltError::InvalidExperiment {
            reason: "zero victims".to_string(),
        };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("zero victims"));

        let e = BoltError::DetectionAborted {
            reason: "probe budget exhausted after 4 retries".to_string(),
        };
        assert!(e.source().is_none());
        let s = e.to_string();
        assert!(s.contains("detection aborted") && s.contains("4 retries"));
    }
}
