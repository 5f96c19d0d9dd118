//! PQ matrix factorization with stochastic gradient descent.
//!
//! The collaborative-filtering stage of Bolt's recommender only observes a
//! *sparse* pressure signal: two or three of the ten shared resources are
//! profiled per iteration (paper §3.2). The missing entries are recovered by
//! factoring the partially-observed matrix `M ≈ P Qᵀ` and minimizing the
//! regularized squared error over the observed cells with SGD — the
//! "PQ-reconstruction with stochastic gradient descent" step of the paper.

use std::cell::RefCell;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{kernels, LinalgError, Matrix};

/// Reusable SGD work buffers: the flat factor matrices, the epoch
/// shuffle order, and the observation staging area.
///
/// Every public entry point in this module borrows one thread-local
/// scratch instance, so repeated trainings and fold-ins on one thread
/// allocate nothing after warm-up. Buffers are `clear()`ed and refilled
/// with exactly the iterators the allocating code used, so values,
/// update order, and therefore results are bit-identical to fresh
/// allocations.
#[derive(Debug, Default)]
struct SgdScratch {
    p: Vec<f64>,
    q: Vec<f64>,
    order: Vec<usize>,
    obs: Vec<Observation>,
}

thread_local! {
    static SCRATCH: RefCell<SgdScratch> = RefCell::new(SgdScratch::default());
}

/// Runs `f` with the thread-local scratch. A reentrant call (an `Rng`
/// implementation that itself trains, say) falls back to fresh buffers
/// rather than panicking on the second borrow.
fn with_scratch<T>(f: impl FnOnce(&mut SgdScratch) -> T) -> T {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SgdScratch::default()),
    })
}

/// An observed cell of a partially-known matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Row index (application).
    pub row: usize,
    /// Column index (resource).
    pub col: usize,
    /// Observed value.
    pub value: f64,
}

/// Hyperparameters for SGD matrix completion.
///
/// The defaults are tuned for Bolt's regime — matrices of at most a few
/// hundred rows and ~10 columns whose entries live in `[0, 100]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Number of latent factors (the inner dimension of `P Qᵀ`).
    pub factors: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength on the factor matrices.
    pub regularization: f64,
    /// Maximum number of passes over the observed entries.
    pub max_epochs: usize,
    /// Stop early once the RMSE over observed entries falls below this.
    pub target_rmse: f64,
    /// Scale used to initialize factor entries (uniform in `[0, scale)`).
    pub init_scale: f64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            factors: 4,
            learning_rate: 0.002,
            regularization: 0.02,
            max_epochs: 400,
            target_rmse: 0.5,
            init_scale: 3.0,
        }
    }
}

/// The result of an SGD matrix-completion run.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The completed (fully dense) matrix `P Qᵀ`.
    pub completed: Matrix,
    /// Root-mean-square error over the observed entries at termination.
    pub rmse: f64,
    /// Number of epochs actually run.
    pub epochs: usize,
}

/// Completes a partially-observed `rows × cols` matrix from `observations`
/// by factoring it as `P Qᵀ` and training with SGD.
///
/// Deterministic for a fixed `rng` state. Entries of the completed matrix
/// are *not* clamped; callers with bounded domains (e.g. pressure in
/// `[0, 100]`) should clamp on their side.
///
/// # Errors
///
/// * [`LinalgError::InvalidShape`] if `rows`, `cols`, or
///   `config.factors` is zero.
/// * [`LinalgError::InsufficientData`] if `observations` is empty.
/// * [`LinalgError::InvalidShape`] if an observation indexes outside the
///   matrix.
/// * [`LinalgError::NonFiniteInput`] if an observed value is not finite.
///
/// # Example
///
/// ```
/// use bolt_linalg::sgd::{complete, Observation, SgdConfig};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bolt_linalg::LinalgError> {
/// // A rank-1 matrix with one missing cell: [[1, 2], [2, ?]].
/// let obs = vec![
///     Observation { row: 0, col: 0, value: 1.0 },
///     Observation { row: 0, col: 1, value: 2.0 },
///     Observation { row: 1, col: 0, value: 2.0 },
/// ];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let config = SgdConfig { factors: 1, max_epochs: 4000, target_rmse: 1e-4, ..SgdConfig::default() };
/// let result = complete(2, 2, &obs, &config, &mut rng)?;
/// assert!(result.rmse < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn complete<R: Rng>(
    rows: usize,
    cols: usize,
    observations: &[Observation],
    config: &SgdConfig,
    rng: &mut R,
) -> Result<Completion, LinalgError> {
    with_scratch(|scratch| {
        complete_inner(
            &mut scratch.p,
            &mut scratch.q,
            &mut scratch.order,
            rows,
            cols,
            observations,
            config,
            rng,
        )
    })
}

/// [`complete`] against caller-provided factor/order buffers (the scratch
/// fields, destructured so `complete_row` can stage observations in the
/// same scratch without a second borrow).
#[allow(clippy::too_many_arguments)]
fn complete_inner<R: Rng>(
    p: &mut Vec<f64>,
    q: &mut Vec<f64>,
    order: &mut Vec<usize>,
    rows: usize,
    cols: usize,
    observations: &[Observation],
    config: &SgdConfig,
    rng: &mut R,
) -> Result<Completion, LinalgError> {
    if rows == 0 || cols == 0 {
        return Err(LinalgError::InvalidShape {
            reason: format!("completion target must be nonempty, got {rows}x{cols}"),
        });
    }
    if config.factors == 0 {
        return Err(LinalgError::InvalidShape {
            reason: "factor count must be nonzero".to_string(),
        });
    }
    if observations.is_empty() {
        return Err(LinalgError::InsufficientData {
            op: "sgd completion",
            got: 0,
            need: 1,
        });
    }
    for o in observations {
        if o.row >= rows || o.col >= cols {
            return Err(LinalgError::InvalidShape {
                reason: format!(
                    "observation at ({}, {}) outside {rows}x{cols} matrix",
                    o.row, o.col
                ),
            });
        }
        if !o.value.is_finite() {
            return Err(LinalgError::NonFiniteInput {
                op: "sgd completion",
            });
        }
    }

    let k = config.factors;
    // Factor matrices stored as flat row-major [row * k + f]. The buffers
    // are refilled with the same draws, in the same order, as a fresh
    // allocation would make — results are bit-identical.
    p.clear();
    p.extend((0..rows * k).map(|_| rng.gen::<f64>() * config.init_scale));
    q.clear();
    q.extend((0..cols * k).map(|_| rng.gen::<f64>() * config.init_scale));

    order.clear();
    order.extend(0..observations.len());
    let mut rmse = f64::INFINITY;
    let mut epochs = 0;
    for _ in 0..config.max_epochs {
        epochs += 1;
        order.shuffle(rng);
        let mut sq_err = 0.0;
        for &idx in order.iter() {
            let o = &observations[idx];
            let pr = o.row * k;
            let qr = o.col * k;
            let pred = kernels::dot(&p[pr..pr + k], &q[qr..qr + k]);
            let err = o.value - pred;
            sq_err += err * err;
            kernels::sgd_step(
                &mut p[pr..pr + k],
                &mut q[qr..qr + k],
                err,
                config.learning_rate,
                config.regularization,
            );
        }
        rmse = (sq_err / observations.len() as f64).sqrt();
        if !rmse.is_finite() {
            // Diverged (learning rate too high for this data); restart with
            // smaller factors would be a caller decision — report as
            // non-convergence.
            return Err(LinalgError::NoConvergence {
                algorithm: "sgd matrix completion",
                iterations: epochs,
            });
        }
        if rmse <= config.target_rmse {
            break;
        }
    }

    let mut completed = Matrix::zeros(rows, cols)?;
    for r in 0..rows {
        for c in 0..cols {
            completed[(r, c)] = kernels::dot(&p[r * k..r * k + k], &q[c * k..c * k + k]);
        }
    }
    Ok(Completion {
        completed,
        rmse,
        epochs,
    })
}

/// Convenience wrapper: completes a single sparse row against a fully-known
/// reference matrix.
///
/// This is the shape of Bolt's online problem — the training matrix of
/// previously-seen applications is dense, and one new row (the victim's
/// profile) has only 2–3 observed entries. All dense entries plus the
/// observed entries of the new row become observations, and the returned
/// vector is the completed new row.
///
/// # Errors
///
/// Same conditions as [`complete`]; additionally
/// [`LinalgError::InsufficientData`] if `observed` is empty or
/// [`LinalgError::InvalidShape`] if an observed index exceeds the column
/// count of `reference`.
pub fn complete_row<R: Rng>(
    reference: &Matrix,
    observed: &[(usize, f64)],
    config: &SgdConfig,
    rng: &mut R,
) -> Result<Vec<f64>, LinalgError> {
    if observed.is_empty() {
        return Err(LinalgError::InsufficientData {
            op: "sgd row completion",
            got: 0,
            need: 1,
        });
    }
    let rows = reference.rows() + 1;
    let cols = reference.cols();
    with_scratch(|scratch| {
        let SgdScratch { p, q, order, obs } = scratch;
        obs.clear();
        obs.reserve(reference.rows() * cols + observed.len());
        for r in 0..reference.rows() {
            for c in 0..cols {
                obs.push(Observation {
                    row: r,
                    col: c,
                    value: reference[(r, c)],
                });
            }
        }
        for &(c, v) in observed {
            if c >= cols {
                return Err(LinalgError::InvalidShape {
                    reason: format!("observed column {c} outside {cols}-column matrix"),
                });
            }
            obs.push(Observation {
                row: rows - 1,
                col: c,
                value: v,
            });
        }
        let completion = complete_inner(p, q, order, rows, cols, obs, config, rng)?;
        Ok(completion.completed.row(rows - 1).to_vec())
    })
}

/// A trained PQ factorization of a dense reference matrix, supporting
/// *fold-in* of new sparse rows.
///
/// This is the online shape of Bolt's completion problem: the training
/// matrix of previously-seen applications is dense and fixed, so `P` and
/// `Q` are trained once; each new victim contributes a sparse row whose
/// latent factors are solved against the frozen `Q` in a handful of SGD
/// steps — milliseconds instead of a full retrain.
#[derive(Debug, Clone)]
pub struct PqModel {
    q: Vec<f64>, // cols × factors, row-major
    cols: usize,
    factors: usize,
    regularization: f64,
    rmse: f64,
}

impl PqModel {
    /// Trains `P Qᵀ ≈ matrix` on a fully-dense reference matrix and keeps
    /// the item factors `Q`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`complete`].
    pub fn train<R: Rng>(
        matrix: &Matrix,
        config: &SgdConfig,
        rng: &mut R,
    ) -> Result<Self, LinalgError> {
        with_scratch(|scratch| {
            let SgdScratch { p, order, obs, .. } = scratch;
            obs.clear();
            obs.reserve(matrix.rows() * matrix.cols());
            for r in 0..matrix.rows() {
                for c in 0..matrix.cols() {
                    obs.push(Observation {
                        row: r,
                        col: c,
                        value: matrix[(r, c)],
                    });
                }
            }
            let (q, rmse) = train_q(p, order, matrix.rows(), matrix.cols(), obs, config, rng)?;
            Ok(PqModel {
                q,
                cols: matrix.cols(),
                factors: config.factors,
                regularization: config.regularization,
                rmse,
            })
        })
    }

    /// [`PqModel::train`] warm-started from a previously trained model:
    /// the item factors `Q` are seeded from `prior` instead of random
    /// initialization, so on nearby training data the epoch loop reaches
    /// `target_rmse` in far fewer passes. Falls back to cold training when
    /// the shapes disagree (`prior` trained on a different column count or
    /// factor rank).
    ///
    /// Not bit-compatible with [`PqModel::train`]: the warm path skips the
    /// `Q` initialization draws, so the RNG stream diverges. Callers that
    /// need byte-identical outputs must use the cold path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`complete`].
    pub fn train_warm<R: Rng>(
        matrix: &Matrix,
        config: &SgdConfig,
        prior: &PqModel,
        rng: &mut R,
    ) -> Result<Self, LinalgError> {
        let warm = (prior.cols == matrix.cols() && prior.factors == config.factors)
            .then_some(prior.q.as_slice());
        if warm.is_none() {
            return PqModel::train(matrix, config, rng);
        }
        with_scratch(|scratch| {
            let SgdScratch { p, order, obs, .. } = scratch;
            obs.clear();
            obs.reserve(matrix.rows() * matrix.cols());
            for r in 0..matrix.rows() {
                for c in 0..matrix.cols() {
                    obs.push(Observation {
                        row: r,
                        col: c,
                        value: matrix[(r, c)],
                    });
                }
            }
            let (q, rmse) = train_q_seeded(
                p,
                order,
                matrix.rows(),
                matrix.cols(),
                obs,
                config,
                warm,
                rng,
            )?;
            Ok(PqModel {
                q,
                cols: matrix.cols(),
                factors: config.factors,
                regularization: config.regularization,
                rmse,
            })
        })
    }

    /// Number of latent factors.
    pub fn factors(&self) -> usize {
        self.factors
    }

    /// Training RMSE over the reference matrix.
    pub fn rmse(&self) -> f64 {
        self.rmse
    }

    /// Folds in one sparse row: solves the row's latent factors against the
    /// frozen `Q` using its observed entries, then predicts every column.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InsufficientData`] if `observed` is empty.
    /// * [`LinalgError::InvalidShape`] if a column index is out of range.
    /// * [`LinalgError::NonFiniteInput`] if a value is not finite.
    pub fn fold_in<R: Rng>(
        &self,
        observed: &[(usize, f64)],
        rng: &mut R,
    ) -> Result<Vec<f64>, LinalgError> {
        if observed.is_empty() {
            return Err(LinalgError::InsufficientData {
                op: "pq fold-in",
                got: 0,
                need: 1,
            });
        }
        for &(c, v) in observed {
            if c >= self.cols {
                return Err(LinalgError::InvalidShape {
                    reason: format!("fold-in column {c} outside {}-column model", self.cols),
                });
            }
            if !v.is_finite() {
                return Err(LinalgError::NonFiniteInput { op: "pq fold-in" });
            }
        }
        let k = self.factors;
        with_scratch(|scratch| {
            // Fold-in runs once per probe window, so its k-length latent
            // row is the hottest allocation in the module — stage it in
            // the scratch.
            let p = &mut scratch.p;
            p.clear();
            p.extend((0..k).map(|_| rng.gen::<f64>() * 0.1));
            // Dedicated epochs on the new row only; Q stays frozen.
            let lr = 0.05;
            for _ in 0..400 {
                for &(c, v) in observed {
                    let qr = c * k;
                    let q_row = &self.q[qr..qr + k];
                    let pred = kernels::dot(&p[..k], q_row);
                    let err = v - pred;
                    kernels::fold_step(&mut p[..k], q_row, err, lr, self.regularization);
                }
            }
            Ok((0..self.cols)
                .map(|c| kernels::dot(&p[..k], &self.q[c * k..c * k + k]))
                .collect())
        })
    }
}

/// Trains both factor matrices on observations and returns `Q` plus the
/// final RMSE (shared by [`complete`]-style training and [`PqModel`]).
///
/// `p` and `order` are scratch buffers; `q` is freshly allocated because
/// the caller keeps it (it becomes the [`PqModel`]'s item factors).
fn train_q<R: Rng>(
    p: &mut Vec<f64>,
    order: &mut Vec<usize>,
    rows: usize,
    cols: usize,
    observations: &[Observation],
    config: &SgdConfig,
    rng: &mut R,
) -> Result<(Vec<f64>, f64), LinalgError> {
    train_q_seeded(p, order, rows, cols, observations, config, None, rng)
}

/// [`train_q`] with an optional warm seed for `Q`. With `warm_q = None`
/// the draw order is exactly the cold path's (`P` first, then `Q`), so
/// cold callers stay byte-identical; a warm seed skips the `Q` draws.
#[allow(clippy::too_many_arguments)]
fn train_q_seeded<R: Rng>(
    p: &mut Vec<f64>,
    order: &mut Vec<usize>,
    rows: usize,
    cols: usize,
    observations: &[Observation],
    config: &SgdConfig,
    warm_q: Option<&[f64]>,
    rng: &mut R,
) -> Result<(Vec<f64>, f64), LinalgError> {
    if rows == 0 || cols == 0 || config.factors == 0 {
        return Err(LinalgError::InvalidShape {
            reason: "pq training needs nonzero dimensions and factors".to_string(),
        });
    }
    if observations.is_empty() {
        return Err(LinalgError::InsufficientData {
            op: "pq training",
            got: 0,
            need: 1,
        });
    }
    let k = config.factors;
    p.clear();
    p.extend((0..rows * k).map(|_| rng.gen::<f64>() * config.init_scale));
    let mut q: Vec<f64> = match warm_q {
        Some(w) if w.len() == cols * k => w.to_vec(),
        _ => (0..cols * k)
            .map(|_| rng.gen::<f64>() * config.init_scale)
            .collect(),
    };
    order.clear();
    order.extend(0..observations.len());
    let mut rmse = f64::INFINITY;
    for _ in 0..config.max_epochs {
        order.shuffle(rng);
        let mut sq = 0.0;
        for &i in order.iter() {
            let o = &observations[i];
            let pr = o.row * k;
            let qr = o.col * k;
            let pred = kernels::dot(&p[pr..pr + k], &q[qr..qr + k]);
            let err = o.value - pred;
            sq += err * err;
            kernels::sgd_step(
                &mut p[pr..pr + k],
                &mut q[qr..qr + k],
                err,
                config.learning_rate,
                config.regularization,
            );
        }
        rmse = (sq / observations.len() as f64).sqrt();
        if !rmse.is_finite() {
            return Err(LinalgError::NoConvergence {
                algorithm: "pq training",
                iterations: config.max_epochs,
            });
        }
        if rmse <= config.target_rmse {
            break;
        }
    }
    Ok((q, rmse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x0b017)
    }

    #[test]
    fn recovers_exact_rank_one_matrix() {
        // M = [1,2,3]ᵀ [2,4,6] scaled: observations of a rank-1 structure.
        let full = [[2.0, 4.0, 6.0], [4.0, 8.0, 12.0], [6.0, 12.0, 18.0]];
        let mut obs = Vec::new();
        for (r, row) in full.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                // Leave out the (2,2) corner.
                if (r, c) != (2, 2) {
                    obs.push(Observation {
                        row: r,
                        col: c,
                        value: v,
                    });
                }
            }
        }
        let config = SgdConfig {
            factors: 2,
            max_epochs: 5000,
            target_rmse: 1e-3,
            learning_rate: 0.01,
            ..SgdConfig::default()
        };
        let result = complete(3, 3, &obs, &config, &mut rng()).unwrap();
        assert!(result.rmse < 0.05, "rmse {}", result.rmse);
        let predicted = result.completed[(2, 2)];
        assert!(
            (predicted - 18.0).abs() < 2.0,
            "predicted corner {predicted}, expected ~18"
        );
    }

    #[test]
    fn warm_training_starts_from_prior_factors() {
        let mut m = Matrix::zeros(6, 5).unwrap();
        for r in 0..6 {
            for c in 0..5 {
                m[(r, c)] = (r as f64 + 1.0) * (c as f64 + 1.0);
            }
        }
        let config = SgdConfig {
            factors: 2,
            max_epochs: 4000,
            target_rmse: 0.05,
            learning_rate: 0.01,
            ..SgdConfig::default()
        };
        let prior = PqModel::train(&m, &config, &mut rng()).unwrap();
        assert!(prior.rmse() <= 0.05, "prior rmse {}", prior.rmse());
        // Nearby data: warm-started training must still converge to target.
        let mut near = m.clone();
        for r in 0..6 {
            for c in 0..5 {
                near[(r, c)] *= 1.02;
            }
        }
        let warm = PqModel::train_warm(&near, &config, &prior, &mut rng()).unwrap();
        assert!(warm.rmse() <= 0.05, "warm rmse {}", warm.rmse());
        let fold = warm.fold_in(&[(0, 2.04), (3, 8.16)], &mut rng()).unwrap();
        assert!(fold.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn warm_training_with_mismatched_shape_equals_cold() {
        let mut m = Matrix::zeros(4, 3).unwrap();
        for r in 0..4 {
            for c in 0..3 {
                m[(r, c)] = (r * 3 + c) as f64 + 1.0;
            }
        }
        let config = SgdConfig {
            factors: 3,
            max_epochs: 50,
            ..SgdConfig::default()
        };
        // Prior trained at a different rank cannot seed Q; the fallback
        // must be byte-identical to a cold train from the same RNG state.
        let prior = PqModel::train(
            &m,
            &SgdConfig {
                factors: 2,
                max_epochs: 50,
                ..SgdConfig::default()
            },
            &mut rng(),
        )
        .unwrap();
        let warm = PqModel::train_warm(&m, &config, &prior, &mut rng()).unwrap();
        let cold = PqModel::train(&m, &config, &mut rng()).unwrap();
        assert_eq!(warm.q, cold.q);
        assert_eq!(warm.rmse(), cold.rmse());
    }

    #[test]
    fn empty_observations_rejected() {
        let config = SgdConfig::default();
        assert!(matches!(
            complete(2, 2, &[], &config, &mut rng()),
            Err(LinalgError::InsufficientData { .. })
        ));
    }

    #[test]
    fn out_of_bounds_observation_rejected() {
        let config = SgdConfig::default();
        let obs = [Observation {
            row: 5,
            col: 0,
            value: 1.0,
        }];
        assert!(matches!(
            complete(2, 2, &obs, &config, &mut rng()),
            Err(LinalgError::InvalidShape { .. })
        ));
    }

    #[test]
    fn non_finite_observation_rejected() {
        let config = SgdConfig::default();
        let obs = [Observation {
            row: 0,
            col: 0,
            value: f64::NAN,
        }];
        assert!(matches!(
            complete(2, 2, &obs, &config, &mut rng()),
            Err(LinalgError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn zero_factors_rejected() {
        let config = SgdConfig {
            factors: 0,
            ..SgdConfig::default()
        };
        let obs = [Observation {
            row: 0,
            col: 0,
            value: 1.0,
        }];
        assert!(matches!(
            complete(2, 2, &obs, &config, &mut rng()),
            Err(LinalgError::InvalidShape { .. })
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let obs = [
            Observation {
                row: 0,
                col: 0,
                value: 1.0,
            },
            Observation {
                row: 0,
                col: 1,
                value: 2.0,
            },
            Observation {
                row: 1,
                col: 0,
                value: 3.0,
            },
        ];
        let config = SgdConfig {
            max_epochs: 50,
            ..SgdConfig::default()
        };
        let a = complete(2, 2, &obs, &config, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = complete(2, 2, &obs, &config, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.rmse, b.rmse);
    }

    #[test]
    fn scratch_reuse_is_bit_exact_across_call_shapes() {
        // The thread-local scratch must never leak state between calls:
        // results computed on a warm scratch (after larger, differently
        // shaped problems) must be bit-identical to results from a fresh
        // thread whose scratch was never touched.
        let reference =
            Matrix::from_rows(&[vec![10.0, 20.0, 30.0, 40.0], vec![40.0, 30.0, 20.0, 10.0]])
                .unwrap();
        let config = SgdConfig {
            max_epochs: 60,
            ..SgdConfig::default()
        };
        let run = |reference: &Matrix, config: &SgdConfig| {
            let completion = complete_row(
                reference,
                &[(0usize, 10.0), (1usize, 20.0)],
                config,
                &mut StdRng::seed_from_u64(11),
            )
            .unwrap();
            let model = PqModel::train(reference, config, &mut StdRng::seed_from_u64(12)).unwrap();
            let folded = model
                .fold_in(&[(0, 10.0), (1, 20.0)], &mut StdRng::seed_from_u64(13))
                .unwrap();
            (completion, model.rmse(), folded)
        };
        let fresh = {
            let reference = reference.clone();
            std::thread::spawn(move || run(&reference, &config))
                .join()
                .unwrap()
        };
        // Warm this thread's scratch with a bigger problem first.
        let big = Matrix::from_rows(&(0..12).map(|r| vec![r as f64 + 1.0; 9]).collect::<Vec<_>>())
            .unwrap();
        let _ = PqModel::train(&big, &config, &mut rng()).unwrap();
        let warm = run(&reference, &config);
        assert_eq!(fresh, warm);
    }

    #[test]
    fn early_stop_when_target_rmse_reached() {
        let obs = [
            Observation {
                row: 0,
                col: 0,
                value: 1.0,
            },
            Observation {
                row: 1,
                col: 1,
                value: 1.0,
            },
        ];
        let config = SgdConfig {
            target_rmse: 1e9, // trivially satisfied after one epoch
            max_epochs: 100,
            ..SgdConfig::default()
        };
        let result = complete(2, 2, &obs, &config, &mut rng()).unwrap();
        assert_eq!(result.epochs, 1);
    }

    #[test]
    fn complete_row_predicts_missing_resources() {
        // Reference: two "application" rows over 4 "resources"; the new row
        // is proportional to row 0, observed at columns 0 and 1 only.
        let reference =
            Matrix::from_rows(&[vec![10.0, 20.0, 30.0, 40.0], vec![40.0, 30.0, 20.0, 10.0]])
                .unwrap();
        let observed = [(0usize, 10.0), (1usize, 20.0)];
        let config = SgdConfig {
            factors: 2,
            max_epochs: 6000,
            learning_rate: 0.005,
            target_rmse: 0.05,
            ..SgdConfig::default()
        };
        let row = complete_row(&reference, &observed, &config, &mut rng()).unwrap();
        assert_eq!(row.len(), 4);
        // The completed row should look much more like row 0 than row 1.
        let d0: f64 = row
            .iter()
            .zip(reference.row(0))
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        let d1: f64 = row
            .iter()
            .zip(reference.row(1))
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        assert!(
            d0 < d1,
            "completed row should resemble its generator: d0={d0} d1={d1}"
        );
    }

    #[test]
    fn pq_model_folds_in_proportional_row() {
        // Reference rows span two orthogonal "styles"; a new row observed
        // only on columns 0-1 and proportional to row 0 should complete
        // toward row 0's remaining columns.
        let reference = Matrix::from_rows(&[
            vec![10.0, 20.0, 30.0, 40.0],
            vec![40.0, 30.0, 20.0, 10.0],
            vec![12.0, 22.0, 33.0, 44.0],
            vec![44.0, 33.0, 22.0, 11.0],
        ])
        .unwrap();
        let config = SgdConfig {
            factors: 2,
            max_epochs: 4000,
            learning_rate: 0.003,
            target_rmse: 0.5,
            ..SgdConfig::default()
        };
        let model = PqModel::train(&reference, &config, &mut rng()).unwrap();
        assert!(model.rmse() < 5.0, "training rmse {}", model.rmse());
        let row = model.fold_in(&[(0, 10.0), (1, 20.0)], &mut rng()).unwrap();
        assert_eq!(row.len(), 4);
        // Observed entries honored approximately.
        assert!((row[0] - 10.0).abs() < 5.0, "row[0]={}", row[0]);
        assert!((row[1] - 20.0).abs() < 5.0, "row[1]={}", row[1]);
        // Unobserved entries lean toward the generator's shape (ascending).
        assert!(
            row[3] > row[0],
            "completion should rise like row 0: {row:?}"
        );
    }

    #[test]
    fn pq_fold_in_validates_inputs() {
        let reference = Matrix::identity(3).unwrap();
        let config = SgdConfig {
            max_epochs: 10,
            ..SgdConfig::default()
        };
        let model = PqModel::train(&reference, &config, &mut rng()).unwrap();
        assert!(matches!(
            model.fold_in(&[], &mut rng()),
            Err(LinalgError::InsufficientData { .. })
        ));
        assert!(matches!(
            model.fold_in(&[(7, 1.0)], &mut rng()),
            Err(LinalgError::InvalidShape { .. })
        ));
        assert!(matches!(
            model.fold_in(&[(0, f64::NAN)], &mut rng()),
            Err(LinalgError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn pq_model_exposes_factors() {
        let reference = Matrix::identity(4).unwrap();
        let config = SgdConfig {
            factors: 3,
            max_epochs: 5,
            ..SgdConfig::default()
        };
        let model = PqModel::train(&reference, &config, &mut rng()).unwrap();
        assert_eq!(model.factors(), 3);
    }

    #[test]
    fn complete_row_validates_inputs() {
        let reference = Matrix::identity(3).unwrap();
        let config = SgdConfig::default();
        assert!(matches!(
            complete_row(&reference, &[], &config, &mut rng()),
            Err(LinalgError::InsufficientData { .. })
        ));
        assert!(matches!(
            complete_row(&reference, &[(9, 1.0)], &config, &mut rng()),
            Err(LinalgError::InvalidShape { .. })
        ));
    }
}
