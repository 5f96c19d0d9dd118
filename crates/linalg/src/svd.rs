//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! Bolt's collaborative-filtering stage factors the application × resource
//! pressure matrix `M` as `M = U Σ Vᵀ` (paper §3.2). The singular values
//! σᵢ are *similarity concepts* — the largest capture the strongest
//! correlations between applications (e.g. "compute-bound", "network and
//! disk traffic move together") and the smallest are discarded by the
//! energy-based rank truncation implemented in [`energy_rank`].
//!
//! One-sided Jacobi is a good fit here: the matrices are tiny (hundreds of
//! rows, ~10 columns), the algorithm is simple to verify, and it computes
//! small singular values to high relative accuracy.

use crate::{kernels, LinalgError, Matrix};

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 128;

/// Convergence threshold on the cosine of the angle between column pairs.
const TOL: f64 = 1e-12;

/// A thin singular value decomposition `M = U Σ Vᵀ`.
///
/// For an `m × n` input with `k = min(m, n)`, `U` is `m × k` with
/// orthonormal columns, `Σ` is the vector of `k` non-negative singular
/// values in non-increasing order, and `V` is `n × k` with orthonormal
/// columns.
///
/// # Example
///
/// ```
/// use bolt_linalg::{Matrix, svd::Svd};
///
/// # fn main() -> Result<(), bolt_linalg::LinalgError> {
/// let m = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]])?;
/// let svd = Svd::compute(&m)?;
/// assert!((svd.singular_values()[0] - 2.0).abs() < 1e-9);
/// let back = svd.reconstruct()?;
/// assert!(m.max_abs_diff(&back)? < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    sigma: Vec<f64>,
    v: Matrix,
}

impl Svd {
    /// Computes the thin SVD of `m` by one-sided Jacobi orthogonalization.
    ///
    /// The algorithm repeatedly applies plane rotations to pairs of columns
    /// of a working copy of `m` until all pairs are numerically orthogonal;
    /// the column norms are then the singular values.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NonFiniteInput`] if `m` contains NaN or infinities.
    /// * [`LinalgError::NoConvergence`] if orthogonalization does not
    ///   converge within the internal sweep budget (practically unreachable
    ///   for finite inputs).
    pub fn compute(m: &Matrix) -> Result<Self, LinalgError> {
        if !m.is_finite() {
            return Err(LinalgError::NonFiniteInput { op: "svd" });
        }
        // One-sided Jacobi works on the tall orientation; transpose wide
        // inputs and swap U/V at the end.
        if m.rows() < m.cols() {
            let t = Svd::compute(&m.transpose())?;
            return Ok(Svd {
                u: t.v,
                sigma: t.sigma,
                v: t.u,
            });
        }

        let rows = m.rows();
        let cols = m.cols();
        let mut a = m.clone(); // working matrix, becomes U * Σ
        let mut v = Matrix::identity(cols)?;

        let mut converged = false;
        let mut sweeps = 0;
        while !converged && sweeps < MAX_SWEEPS {
            converged = true;
            sweeps += 1;
            for p in 0..cols.saturating_sub(1) {
                for q in (p + 1)..cols {
                    // Gram entries for the (p, q) column pair, fused into
                    // one strided pass over the rows.
                    let (alpha, beta, gamma) = kernels::gram_strided(a.as_slice(), cols, p, q);
                    if gamma.abs() <= TOL * (alpha * beta).sqrt() || gamma == 0.0 {
                        continue;
                    }
                    converged = false;
                    // Rotation that zeroes the off-diagonal Gram entry.
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    kernels::rotate_pair_strided(a.as_mut_slice(), cols, p, q, c, s);
                    kernels::rotate_pair_strided(v.as_mut_slice(), cols, p, q, c, s);
                }
            }
        }
        if !converged {
            return Err(LinalgError::NoConvergence {
                algorithm: "one-sided jacobi svd",
                iterations: sweeps,
            });
        }

        // Column norms of the rotated matrix are the singular values.
        let mut order: Vec<usize> = (0..cols).collect();
        let norms: Vec<f64> = (0..cols)
            .map(|c| kernels::col_sq_norm_strided(a.as_slice(), cols, c).sqrt())
            .collect();
        order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("finite norms"));

        let mut u = Matrix::zeros(rows, cols)?;
        let mut vv = Matrix::zeros(cols, cols)?;
        let mut sigma = Vec::with_capacity(cols);
        for (dst, &src) in order.iter().enumerate() {
            let n = norms[src];
            sigma.push(n);
            for r in 0..rows {
                // Columns with zero norm get a zero U column; they carry no
                // energy so downstream truncation always drops them.
                u[(r, dst)] = if n > 0.0 { a[(r, src)] / n } else { 0.0 };
            }
            for r in 0..cols {
                vv[(r, dst)] = v[(r, src)];
            }
        }

        Ok(Svd { u, sigma, v: vv })
    }

    /// The left singular vectors, one column per singular value.
    ///
    /// Row `i` of `U` is application *i*'s coordinates in similarity-concept
    /// space — the representation the recommender's weighted Pearson
    /// matching operates on.
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// The singular values in non-increasing order.
    pub fn singular_values(&self) -> &[f64] {
        &self.sigma
    }

    /// The right singular vectors, one column per singular value.
    ///
    /// Row `j` of `V` captures how resource *j* correlates with each
    /// similarity concept.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Reconstructs the original matrix as `U Σ Vᵀ`.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the underlying products (cannot occur
    /// for a decomposition produced by [`Svd::compute`]).
    pub fn reconstruct(&self) -> Result<Matrix, LinalgError> {
        self.reconstruct_rank(self.sigma.len())
    }

    /// Reconstructs a rank-`r` approximation `U_r Σ_r V_rᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `r` is zero or exceeds the
    /// number of singular values.
    pub fn reconstruct_rank(&self, r: usize) -> Result<Matrix, LinalgError> {
        if r == 0 || r > self.sigma.len() {
            return Err(LinalgError::InvalidShape {
                reason: format!("rank {r} out of range 1..={}", self.sigma.len()),
            });
        }
        let mut out = Matrix::zeros(self.u.rows(), self.v.rows())?;
        for k in 0..r {
            let s = self.sigma[k];
            if s == 0.0 {
                continue;
            }
            for i in 0..self.u.rows() {
                let uis = self.u[(i, k)] * s;
                if uis == 0.0 {
                    continue;
                }
                for j in 0..self.v.rows() {
                    out[(i, j)] += uis * self.v[(j, k)];
                }
            }
        }
        Ok(out)
    }

    /// Row `i` of `U` scaled by the first `r` singular values: application
    /// *i*'s weighted concept-space coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `r` exceeds the number of singular
    /// values.
    pub fn concept_row(&self, i: usize, r: usize) -> Vec<f64> {
        assert!(
            r <= self.sigma.len(),
            "rank {r} exceeds {}",
            self.sigma.len()
        );
        (0..r).map(|k| self.u[(i, k)]).collect()
    }
}

/// The smallest rank `r` whose leading singular values retain at least
/// `fraction` of the total energy `Σ σᵢ²`.
///
/// The paper keeps the `r` largest singular values such that 90% of the
/// total energy is preserved (§3.2, footnote 1); call with
/// `fraction = 0.90` for that behaviour. Returns at least 1, and at most
/// `sigma.len()`.
///
/// # Panics
///
/// Panics if `sigma` is empty or `fraction` is not in `(0, 1]`.
///
/// # Example
///
/// ```
/// use bolt_linalg::svd::energy_rank;
///
/// // 9² + 3² = 90, total = 9² + 3² + 1² = 91; two values keep ~98.9%.
/// assert_eq!(energy_rank(&[9.0, 3.0, 1.0], 0.90), 2);
/// ```
pub fn energy_rank(sigma: &[f64], fraction: f64) -> usize {
    assert!(!sigma.is_empty(), "sigma must be nonempty");
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1], got {fraction}"
    );
    let total: f64 = sigma.iter().map(|s| s * s).sum();
    if total == 0.0 {
        return 1;
    }
    let mut acc = 0.0;
    for (i, s) in sigma.iter().enumerate() {
        acc += s * s;
        if acc >= fraction * total {
            return i + 1;
        }
    }
    sigma.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthonormal_columns(m: &Matrix, tol: f64) {
        for a in 0..m.cols() {
            for b in a..m.cols() {
                let dot: f64 = (0..m.rows()).map(|r| m[(r, a)] * m[(r, b)]).sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!(
                    (dot - expect).abs() < tol,
                    "columns {a},{b}: dot {dot}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 7.0]]).unwrap();
        let svd = Svd::compute(&m).unwrap();
        assert!((svd.singular_values()[0] - 7.0).abs() < 1e-10);
        assert!((svd.singular_values()[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn symmetric_matrix_known_values() {
        // Eigenvalues of [[3,1],[1,3]] are 4 and 2.
        let m = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let svd = Svd::compute(&m).unwrap();
        assert!((svd.singular_values()[0] - 4.0).abs() < 1e-10);
        assert!((svd.singular_values()[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_input_tall() {
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
            vec![2.0, 1.0, 0.5],
        ])
        .unwrap();
        let svd = Svd::compute(&m).unwrap();
        let back = svd.reconstruct().unwrap();
        assert!(m.max_abs_diff(&back).unwrap() < 1e-9);
        assert_orthonormal_columns(svd.u(), 1e-9);
        assert_orthonormal_columns(svd.v(), 1e-9);
    }

    #[test]
    fn reconstruction_matches_input_wide() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.5]]).unwrap();
        let svd = Svd::compute(&m).unwrap();
        let back = svd.reconstruct().unwrap();
        assert!(m.max_abs_diff(&back).unwrap() < 1e-9);
        assert_eq!(svd.singular_values().len(), 2);
    }

    #[test]
    fn singular_values_sorted_nonincreasing() {
        let m = Matrix::from_rows(&[
            vec![0.2, 9.0, 1.0],
            vec![4.0, 0.1, 2.0],
            vec![1.0, 1.0, 8.0],
        ])
        .unwrap();
        let svd = Svd::compute(&m).unwrap();
        let s = svd.singular_values();
        for w in s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(s.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn rank_deficient_matrix() {
        // Second row is 2x the first: rank 1.
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        let svd = Svd::compute(&m).unwrap();
        assert!(svd.singular_values()[1] < 1e-10);
        let back = svd.reconstruct_rank(1).unwrap();
        assert!(m.max_abs_diff(&back).unwrap() < 1e-9);
    }

    #[test]
    fn zero_matrix_is_handled() {
        let m = Matrix::zeros(3, 2).unwrap();
        let svd = Svd::compute(&m).unwrap();
        assert!(svd.singular_values().iter().all(|&s| s == 0.0));
        let back = svd.reconstruct().unwrap();
        assert!(back.max_abs_diff(&m).unwrap() < 1e-12);
    }

    #[test]
    fn low_rank_truncation_error_bounded_by_dropped_energy() {
        let m = Matrix::from_rows(&[
            vec![10.0, 0.0, 0.1],
            vec![0.0, 5.0, 0.2],
            vec![0.1, 0.2, 0.5],
        ])
        .unwrap();
        let svd = Svd::compute(&m).unwrap();
        let r2 = svd.reconstruct_rank(2).unwrap();
        let err = m.sub(&r2).unwrap().frobenius_norm();
        // Eckart–Young: the rank-2 error equals the dropped singular value.
        assert!((err - svd.singular_values()[2]).abs() < 1e-9);
    }

    #[test]
    fn nan_input_rejected() {
        let mut m = Matrix::zeros(2, 2).unwrap();
        m[(0, 0)] = f64::NAN;
        assert!(matches!(
            Svd::compute(&m),
            Err(LinalgError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn reconstruct_rank_validates_range() {
        let m = Matrix::identity(2).unwrap();
        let svd = Svd::compute(&m).unwrap();
        assert!(svd.reconstruct_rank(0).is_err());
        assert!(svd.reconstruct_rank(3).is_err());
    }

    #[test]
    fn energy_rank_thresholds() {
        assert_eq!(energy_rank(&[9.0, 3.0, 1.0], 0.90), 2);
        assert_eq!(energy_rank(&[9.0, 3.0, 1.0], 0.999), 3);
        assert_eq!(energy_rank(&[5.0], 0.90), 1);
        // Degenerate all-zero spectrum still returns a valid rank.
        assert_eq!(energy_rank(&[0.0, 0.0], 0.90), 1);
        // A totally dominant first value needs only rank 1.
        assert_eq!(energy_rank(&[100.0, 0.1, 0.1], 0.90), 1);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn energy_rank_rejects_bad_fraction() {
        energy_rank(&[1.0], 1.5);
    }

    #[test]
    fn concept_row_extracts_u_prefix() {
        let m = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let svd = Svd::compute(&m).unwrap();
        let row = svd.concept_row(0, 1);
        assert_eq!(row.len(), 1);
        assert!((row[0].abs() - 1.0).abs() < 1e-10);
    }
}
