use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// A matrix was constructed from rows of unequal length, or with zero
    /// rows/columns where at least one element is required.
    InvalidShape {
        /// Human-readable description of the shape problem.
        reason: String,
    },
    /// Two operands have incompatible dimensions for the requested
    /// operation (e.g. a product of a 2×3 with a 2×3).
    DimensionMismatch {
        /// Dimensions of the left-hand operand as `(rows, cols)`.
        left: (usize, usize),
        /// Dimensions of the right-hand operand as `(rows, cols)`.
        right: (usize, usize),
        /// The operation that was attempted.
        op: &'static str,
    },
    /// An iterative algorithm failed to converge within its iteration
    /// budget.
    NoConvergence {
        /// The algorithm that failed to converge.
        algorithm: &'static str,
        /// Number of iterations/sweeps performed before giving up.
        iterations: usize,
    },
    /// The input contained NaN or infinite values where finite values are
    /// required.
    NonFiniteInput {
        /// The operation that rejected the input.
        op: &'static str,
    },
    /// Not enough observed entries to run the requested estimation (e.g.
    /// matrix completion on an empty mask, correlation of length-0 vectors).
    InsufficientData {
        /// The operation that rejected the input.
        op: &'static str,
        /// How many data points were provided.
        got: usize,
        /// How many data points are required at minimum.
        need: usize,
    },
    /// A tuning parameter lies outside its valid range (e.g. an energy
    /// fraction outside `(0, 1]`, or NaN).
    InvalidParameter {
        /// The parameter that was rejected.
        param: &'static str,
        /// Human-readable description of the valid range and the value.
        reason: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::InvalidShape { reason } => {
                write!(f, "invalid matrix shape: {reason}")
            }
            LinalgError::DimensionMismatch { left, right, op } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            LinalgError::NonFiniteInput { op } => {
                write!(f, "non-finite value in input to {op}")
            }
            LinalgError::InsufficientData { op, got, need } => write!(
                f,
                "insufficient data for {op}: got {got} points, need at least {need}"
            ),
            LinalgError::InvalidParameter { param, reason } => {
                write!(f, "invalid {param}: {reason}")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::InvalidShape {
            reason: "ragged rows".to_string(),
        };
        assert_eq!(e.to_string(), "invalid matrix shape: ragged rows");

        let e = LinalgError::DimensionMismatch {
            left: (2, 3),
            right: (2, 3),
            op: "matmul",
        };
        assert!(e.to_string().contains("matmul"));
        assert!(e.to_string().contains("2x3"));

        let e = LinalgError::NoConvergence {
            algorithm: "jacobi svd",
            iterations: 64,
        };
        assert!(e.to_string().contains("64"));

        let e = LinalgError::InsufficientData {
            op: "pearson",
            got: 1,
            need: 2,
        };
        assert!(e.to_string().contains("pearson"));

        let e = LinalgError::InvalidParameter {
            param: "energy fraction",
            reason: "must lie in (0, 1], got NaN".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "invalid energy fraction: must lie in (0, 1], got NaN"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
