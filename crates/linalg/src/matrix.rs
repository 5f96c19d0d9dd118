use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{kernels, LinalgError};

/// A dense, row-major matrix of `f64` values.
///
/// This is a deliberately small matrix type: the Bolt recommender operates on
/// matrices of roughly 120 applications × 10 resources, so the implementation
/// favors clarity and numerical robustness over cache blocking or SIMD.
///
/// # Example
///
/// ```
/// use bolt_linalg::Matrix;
///
/// # fn main() -> Result<(), bolt_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = a.transpose();
/// let p = a.matmul(&b)?;
/// assert_eq!(p[(0, 0)], 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidShape {
                reason: format!("matrix dimensions must be nonzero, got {rows}x{cols}"),
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `n` is zero.
    pub fn identity(n: usize) -> Result<Self, LinalgError> {
        let mut m = Matrix::zeros(n, n)?;
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        Ok(m)
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if there are no rows, the first
    /// row is empty, or the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::InvalidShape {
                reason: "matrix must have at least one row".to_string(),
            });
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(LinalgError::InvalidShape {
                reason: "matrix must have at least one column".to_string(),
            });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::InvalidShape {
                    reason: format!("row {i} has {} columns, expected {ncols}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidShape {
                reason: format!("matrix dimensions must be nonzero, got {rows}x{cols}"),
            });
        }
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidShape {
                reason: format!(
                    "buffer has {} elements, expected {} for a {rows}x{cols} matrix",
                    data.len(),
                    rows * cols
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// A view of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer (for strided
    /// kernels that update columns in place).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix {
            rows: self.cols,
            cols: self.rows,
            data: vec![0.0; self.data.len()],
        };
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix {
            rows: self.rows,
            cols: rhs.cols,
            data: vec![0.0; self.rows * rhs.cols],
        };
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                // Sparse-ish inputs (identity blocks, zero-padded factors)
                // skip whole row updates; adding 0.0·x is also not a no-op
                // for -0.0 entries, so the skip is semantic, not just fast.
                if a == 0.0 {
                    continue;
                }
                kernels::axpy(out_row, a, &rhs.data[k * rhs.cols..(k + 1) * rhs.cols]);
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        Ok((0..self.rows)
            .map(|r| kernels::dot(self.row(r), v))
            .collect())
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "sub",
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by `s`, in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// The Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f64 {
        kernels::sq_norm(&self.data).sqrt()
    }

    /// The largest absolute difference between corresponding entries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Result<f64, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "max_abs_diff",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// True if every entry is finite (neither NaN nor infinite).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            let row: Vec<String> = self.row(r).iter().map(|v| format!("{v:>10.4}")).collect();
            writeln!(f, "[{}]", row.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3).unwrap();
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(matches!(
            Matrix::zeros(0, 3),
            Err(LinalgError::InvalidShape { .. })
        ));
        assert!(matches!(
            Matrix::zeros(3, 0),
            Err(LinalgError::InvalidShape { .. })
        ));
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::InvalidShape { .. })
        ));
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidShape { .. }));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::InvalidShape { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let p = a.matmul(&b).unwrap();
        assert_eq!(p[(0, 0)], 19.0);
        assert_eq!(p[(0, 1)], 22.0);
        assert_eq!(p[(1, 0)], 43.0);
        assert_eq!(p[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3).unwrap();
        let b = Matrix::zeros(2, 3).unwrap();
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2).unwrap();
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sub_and_max_abs_diff() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.5, 4.0]]).unwrap();
        let d = a.sub(&b).unwrap();
        assert_eq!(d.as_slice(), &[0.5, -2.0]);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 2.0);
    }

    #[test]
    fn row_access() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2).unwrap();
        let _ = a[(2, 0)];
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2).unwrap();
        assert!(a.is_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2).unwrap();
        assert!(!format!("{a}").is_empty());
    }

    #[test]
    fn scale_multiplies_all_entries() {
        let mut a = Matrix::from_rows(&[vec![1.0, -2.0]]).unwrap();
        a.scale(3.0);
        assert_eq!(a.as_slice(), &[3.0, -6.0]);
    }
}
