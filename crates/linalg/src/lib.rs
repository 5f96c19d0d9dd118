//! Dense linear algebra and statistics kernels for the Bolt reproduction.
//!
//! Bolt's application-detection pipeline (ASPLOS 2017, §3.2) rests on three
//! numerical building blocks, all implemented here from scratch:
//!
//! * [`Matrix`] — a small dense row-major matrix type with the operations the
//!   recommender needs (products, transposes, norms, row/column views).
//! * [`svd::Svd`] — singular value decomposition via one-sided Jacobi
//!   rotations, used by the collaborative-filtering stage to extract
//!   *similarity concepts* from the application × resource pressure matrix.
//! * [`stats`] — descriptive statistics plus the plain and *weighted* Pearson
//!   correlation of the paper's Eq. 1, where weights are singular values.
//!
//! The crate has no dependencies and no randomness: every routine is a pure
//! function of its inputs, so experiments reproduce bit-for-bit.
//!
//! # Example
//!
//! ```
//! use bolt_linalg::{Matrix, svd::Svd};
//!
//! # fn main() -> Result<(), bolt_linalg::LinalgError> {
//! let m = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 3.0]])?;
//! let svd = Svd::compute(&m)?;
//! assert!((svd.singular_values()[0] - 4.0).abs() < 1e-9);
//! assert!((svd.singular_values()[1] - 2.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod matrix;

pub mod kernels;
pub mod oracle;
pub mod stats;
pub mod svd;

pub use error::LinalgError;
pub use matrix::Matrix;
