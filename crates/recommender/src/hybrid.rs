//! The hybrid recommender: collaborative filtering + content-based matching.
//!
//! Paper §3.2 ("Practical data mining"): the sparse probe signal is fed to
//! a hybrid recommender using feature augmentation. First a collaborative-
//! filtering stage recovers the victim's pressure on the resources that
//! were *not* profiled — matrix factorization with SVD plus
//! PQ-reconstruction trained by SGD, here SGD over the frozen SVD concept
//! basis (`solve_concept_coords`). The SVD's singular values are
//! *similarity concepts*; only the largest, preserving 90% of the total
//! energy, are kept. Then a content-based stage scores the victim against
//! every previously-seen application with a *weighted Pearson* correlation
//! (Eq. 1) over concept space, weighting each concept by its singular
//! value. The output is a distribution of similarity scores — e.g. 65%
//! memcached, 18% Spark/PageRank, 10% Hadoop/SVM...

use rand::Rng;

use bolt_linalg::kernels;
use bolt_linalg::stats::{pearson, weighted_pearson};
use bolt_linalg::svd::{energy_rank, Svd};
use bolt_linalg::LinalgError;
use bolt_workloads::mrc;
use bolt_workloads::{AppLabel, PressureVector, Resource, ResourceCharacteristics, RESOURCE_COUNT};

use crate::dataset::TrainingData;

/// Epoch count of the frozen-basis SGD completion
/// (`solve_concept_coords`); also the multiplier behind
/// [`RecommenderStats::sgd_iterations`].
const SGD_EPOCHS: u64 = 600;

/// Recommender configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecommenderConfig {
    /// Fraction of spectral energy the retained similarity concepts must
    /// preserve (paper: 90%).
    pub energy_fraction: f64,
    /// Below this best-correlation the recommender declares "no match" —
    /// either an unseen application type or entangled co-residents
    /// (paper §3.3 uses 0.1).
    pub match_threshold: f64,
    /// Use the weighted Pearson of Eq. 1; `false` falls back to plain
    /// Pearson (the ablation baseline).
    pub weighted: bool,
    /// Measurement-noise floor (percentage points) of the probes. A
    /// resource whose cross-tenant signal variance sits at or below this
    /// floor — e.g. the residual leakage of a partitioned cache — carries
    /// no usable information and is discounted Wiener-style in all
    /// matching weights.
    pub noise_floor: f64,
    /// Shortlist size `K` for the mixture-decomposition pair search: the
    /// exhaustive O(n²) pair loop runs only over the `K` atoms with the
    /// lowest single-atom fit error. The true pair members each explain a
    /// large share of the summed signal, so they sit near the top of the
    /// single-fit ranking; the far tail only burns quadratic work.
    /// `K >= n` recovers the exact exhaustive search (the ablation
    /// switch). The default (128) covers the whole 120-app training
    /// dictionary, so plain mixture decompositions stay exact; only the
    /// 3-hypothesis dictionary of the joint core/uncore search is pruned.
    pub pair_shortlist: usize,
    /// Near-degeneracy slack for the MRC tie-break, as a fraction of the
    /// observed signal energy: when an MRC sweep is supplied to the
    /// decomposition, every candidate mixture whose weighted fit error is
    /// within `mrc_tie_margin × total_energy` of the best fit is treated
    /// as near-degenerate, and the winner among them is re-ranked by RMS
    /// cache-sweep-curve distance instead of fit error alone. `0.0`
    /// disables re-ranking (the curve never overrides the pressure fit).
    pub mrc_tie_margin: f64,
}

impl Default for RecommenderConfig {
    fn default() -> Self {
        RecommenderConfig {
            energy_fraction: 0.90,
            match_threshold: 0.1,
            weighted: true,
            noise_floor: 2.0,
            pair_shortlist: 128,
            mrc_tie_margin: 0.02,
        }
    }
}

impl RecommenderConfig {
    /// Rejects parameters no fit can use, so a bad config is a typed error
    /// at the door rather than a panic mid-fit (`energy_rank` asserts the
    /// energy range) or NaN matching weights that later break a sort.
    fn check(&self) -> Result<(), LinalgError> {
        let fraction = self.energy_fraction;
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(LinalgError::InvalidParameter {
                param: "energy fraction",
                reason: format!("must lie in (0, 1], got {fraction}"),
            });
        }
        let floor = self.noise_floor;
        if !(floor.is_finite() && floor >= 0.0) {
            return Err(LinalgError::InvalidParameter {
                param: "noise floor",
                reason: format!("must be finite and non-negative, got {floor}"),
            });
        }
        Ok(())
    }
}

/// Work counters accumulated across recommender invocations: how many
/// SGD coordinate updates the completion stage ran, and whether each
/// pair-pursuit decomposition used the pruned shortlist or fell back to
/// the exact `K = n` search. Deterministic for a fixed input, so safe to
/// fold into a telemetry stream that must be thread-count-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecommenderStats {
    /// Individual SGD coordinate updates in [`HybridRecommender::recommend`]'s
    /// completion stage (epochs × observed entries).
    pub sgd_iterations: u64,
    /// Pair searches that ran over the pruned single-fit shortlist.
    pub shortlist_hits: u64,
    /// Pair searches that ran the exact exhaustive loop.
    pub exact_searches: u64,
    /// Decompositions where the MRC curve distance overruled the
    /// pressure-only selection among near-degenerate candidates.
    pub mrc_tie_breaks: u64,
}

impl RecommenderStats {
    /// Folds another invocation's counters into this one.
    pub fn merge(&mut self, other: RecommenderStats) {
        self.sgd_iterations += other.sgd_iterations;
        self.shortlist_hits += other.shortlist_hits;
        self.exact_searches += other.exact_searches;
        self.mrc_tie_breaks += other.mrc_tie_breaks;
    }
}

/// Which atom dictionary a warm shortlist was built over. Atom indices
/// are only comparable across refinement rounds when the dictionary
/// layout is unchanged; a path or float-regime switch invalidates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DictTag {
    /// Uncore-only dictionary (one atom per training example).
    UncoreOnly,
    /// Joint core/uncore dictionary, two hypotheses per example.
    Joint,
    /// Joint dictionary with the scheduler-float hypothesis (three
    /// hypotheses per example).
    JointWithFloat,
}

/// Carry-over state for iterative-deepening decomposition: the pruned
/// atom shortlist of the previous refinement round. A fresh (or
/// dictionary-switched) state makes the next decomposition search the
/// full dictionary, exactly like a decomposition without one; afterwards
/// each round refines among the previous round's survivors only, which
/// is what keeps per-probe re-decomposition affordable.
#[derive(Debug, Clone, Default)]
pub struct WarmShortlist {
    atoms: Vec<usize>,
    tag: Option<DictTag>,
}

impl WarmShortlist {
    /// A fresh, empty warm state.
    pub fn new() -> Self {
        WarmShortlist::default()
    }

    /// Number of atoms carried over from the previous round.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when no shortlist is carried (the next search is full).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Tags the state with the dictionary about to be searched, clearing
    /// the carried shortlist when the layout changed.
    fn enter(&mut self, tag: DictTag) {
        if self.tag != Some(tag) {
            self.atoms.clear();
            self.tag = Some(tag);
        }
    }
}

/// One entry of the similarity distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityScore {
    /// Index of the training example.
    pub index: usize,
    /// The matched label.
    pub label: AppLabel,
    /// Raw correlation in `[-1, 1]`.
    pub correlation: f64,
    /// Share of the normalized positive-correlation mass in `[0, 1]`.
    pub share: f64,
}

/// The recommender's verdict for one profiling snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Similarity scores, highest correlation first.
    pub scores: Vec<SimilarityScore>,
    /// The victim's completed (dense) pressure estimate.
    pub completed: PressureVector,
    /// Resource characteristics derived from the completed estimate.
    pub characteristics: ResourceCharacteristics,
}

impl Recommendation {
    /// The best match, if its correlation clears the threshold used at
    /// recommendation time. `None` means "never seen anything like this"
    /// (or an entangled multi-tenant signal, §3.3).
    pub fn best(&self) -> Option<&SimilarityScore> {
        self.scores.first()
    }

    /// The best-matching label if one cleared the threshold.
    pub fn label(&self) -> Option<&AppLabel> {
        self.scores.first().map(|s| &s.label)
    }
}

/// The fitted hybrid recommender.
///
/// # Example
///
/// ```
/// use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
/// use bolt_workloads::{training::training_set, Resource};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bolt_linalg::LinalgError> {
/// let data = TrainingData::from_profiles(&training_set(7))?;
/// let rec = HybridRecommender::fit(data, RecommenderConfig::default())?;
/// // A sparse probe of a memcached-looking victim.
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let obs = [(Resource::L1i, 80.0), (Resource::Llc, 76.0), (Resource::DiskBw, 0.0)];
/// let verdict = rec.recommend(&obs, &mut rng)?;
/// assert!(verdict.best().is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HybridRecommender {
    data: TrainingData,
    svd: Svd,
    /// Column means of the training matrix: the SVD runs on the
    /// *standardized* matrix so the similarity concepts capture variation
    /// between applications rather than the grand-mean profile.
    col_means: Vec<f64>,
    /// Column standard deviations (floored away from zero) used for the
    /// standardization.
    col_stds: Vec<f64>,
    /// Per-resource information value `Σₖ (σₖ V[j,k])² · wiener(j)`,
    /// precomputed at fit time — every subspace match and mixture
    /// decomposition reads these, so they must not be re-derived per
    /// detection iteration.
    info_weights: [f64; RESOURCE_COUNT],
    rank: usize,
    config: RecommenderConfig,
}

impl HybridRecommender {
    /// Fits the recommender: computes the SVD of the column-standardized
    /// training matrix and selects the similarity-concept rank by the
    /// energy criterion.
    ///
    /// Standardization matters twice over: an uncentered pressure matrix
    /// has one giant singular value pointing at the average profile (which
    /// would satisfy the 90%-energy criterion with a single uninformative
    /// concept), and unequal per-resource variances would let one noisy
    /// resource dominate the concept basis.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidParameter`] if
    /// `config.energy_fraction` is not in `(0, 1]` or `config.noise_floor`
    /// is not finite and non-negative, and propagates [`LinalgError`] from
    /// the SVD (non-finite training data).
    pub fn fit(data: TrainingData, config: RecommenderConfig) -> Result<Self, LinalgError> {
        config.check()?;
        let m = data.matrix();
        let n = m.rows() as f64;
        let col_means: Vec<f64> = (0..m.cols())
            .map(|c| (0..m.rows()).map(|r| m[(r, c)]).sum::<f64>() / n)
            .collect();
        let col_stds: Vec<f64> = (0..m.cols())
            .map(|c| {
                let var = (0..m.rows())
                    .map(|r| (m[(r, c)] - col_means[c]).powi(2))
                    .sum::<f64>()
                    / n;
                var.sqrt().max(1e-6)
            })
            .collect();
        let mut standardized = m.clone();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                standardized[(r, c)] = (m[(r, c)] - col_means[c]) / col_stds[c];
            }
        }
        let svd = Svd::compute(&standardized)?;
        // Weighted Pearson needs enough concept dimensions to be
        // meaningful; keep at least 3.
        let rank = energy_rank(svd.singular_values(), config.energy_fraction)
            .max(3)
            .min(svd.singular_values().len());
        // Information value of each resource dimension: how much of the
        // retained concepts' energy loads on it, discounted by the Wiener
        // reliability of the channel (signal variance over signal-plus-
        // noise variance) so partitioned-dead resources cannot masquerade
        // as evidence.
        let mut info_weights = [0.0; RESOURCE_COUNT];
        let sigma = svd.singular_values();
        let v = svd.v();
        for (j, w) in info_weights.iter_mut().enumerate() {
            let concept: f64 = (0..rank).map(|k| (sigma[k] * v[(j, k)]).powi(2)).sum();
            let var = col_stds[j] * col_stds[j];
            let noise = config.noise_floor * config.noise_floor;
            *w = concept * (var / (var + noise));
        }
        Ok(HybridRecommender {
            data,
            svd,
            col_means,
            col_stds,
            info_weights,
            rank,
            config,
        })
    }

    /// The retained similarity-concept count.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The training data this recommender was fitted on.
    pub fn training_data(&self) -> &TrainingData {
        &self.data
    }

    /// The singular values (similarity-concept magnitudes), strongest
    /// first. The §3.2 "system insights" analysis reads resource value for
    /// detection out of these and of [`Self::concept_resource_loading`].
    pub fn concept_magnitudes(&self) -> &[f64] {
        self.svd.singular_values()
    }

    /// How strongly resource `r` loads on similarity concept `k` (the
    /// V-matrix entry) — large magnitudes mean the resource carries much
    /// of that concept's information.
    ///
    /// # Panics
    ///
    /// Panics if `k >= RESOURCE_COUNT`.
    pub fn concept_resource_loading(&self, r: Resource, k: usize) -> f64 {
        self.svd.v()[(r.index(), k)]
    }

    /// Runs the full pipeline on a sparse probe signal: SGD completion of
    /// the unprofiled resources, projection into concept space, weighted
    /// Pearson scoring against every training example.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InsufficientData`] if `observations` is empty.
    /// * [`LinalgError::NonFiniteInput`] if an observed value is not
    ///   finite.
    pub fn recommend<R: Rng>(
        &self,
        observations: &[(Resource, f64)],
        rng: &mut R,
    ) -> Result<Recommendation, LinalgError> {
        self.recommend_with_stats(observations, rng, &mut RecommenderStats::default())
    }

    /// [`HybridRecommender::recommend`], additionally accumulating work
    /// counters (SGD iterations) into `stats`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HybridRecommender::recommend`].
    pub fn recommend_with_stats<R: Rng>(
        &self,
        observations: &[(Resource, f64)],
        rng: &mut R,
        stats: &mut RecommenderStats,
    ) -> Result<Recommendation, LinalgError> {
        let obs: Vec<(usize, f64)> = observations.iter().map(|&(r, v)| (r.index(), v)).collect();
        if obs.is_empty() {
            return Err(LinalgError::InsufficientData {
                op: "recommend",
                got: 0,
                need: 1,
            });
        }
        for &(_, v) in &obs {
            if !v.is_finite() {
                return Err(LinalgError::NonFiniteInput { op: "recommend" });
            }
        }
        let w = self.solve_concept_coords(&obs, rng);
        stats.sgd_iterations += SGD_EPOCHS * obs.len() as u64;

        // Reconstruct the dense profile from the concept coordinates:
        // unobserved resources default toward the training column means
        // (regularization pulls w toward zero), then clamp into the valid
        // pressure domain and pin the actually-probed entries to their
        // measured values — measurements outrank estimates.
        let v = self.svd.v();
        let mut vals = [0.0; RESOURCE_COUNT];
        for (j, val) in vals.iter_mut().enumerate() {
            let recon: f64 = (0..self.rank).map(|k| w[k] * v[(j, k)]).sum();
            *val = (self.col_means[j] + self.col_stds[j] * recon).clamp(0.0, 100.0);
        }
        for &(i, v) in &obs {
            vals[i] = v.clamp(0.0, 100.0);
        }
        let completed = PressureVector::from_raw(vals);

        let scores = self.score_profile(&completed)?;
        // Characteristics must be reported at *full load*: a victim caught
        // in a low-traffic phase has its non-capacity pressure uniformly
        // shrunk, which would misrank capacity vs. bandwidth resources.
        // Estimate the current load level through the best match (whose
        // own level relative to its full-load reference is known) and
        // descale the completed profile before ranking.
        let characteristics = match scores.first() {
            Some(best) => {
                let full = self.descale_to_full_load(&completed, best.index, observations);
                ResourceCharacteristics::from_pressure(&full)
            }
            None => ResourceCharacteristics::from_pressure(&completed),
        };
        Ok(Recommendation {
            characteristics,
            completed,
            scores,
        })
    }

    /// Descales a completed (observed-load) profile to a full-load
    /// estimate: non-capacity pressure is divided by the estimated total
    /// load level, capacity pressure stays resident.
    fn descale_to_full_load(
        &self,
        completed: &PressureVector,
        best_index: usize,
        observations: &[(Resource, f64)],
    ) -> PressureVector {
        let ex = self.data.example(best_index);
        // The training instance's own level relative to its reference.
        let (mut num, mut den) = (0.0, 0.0);
        for r in Resource::ALL {
            if !r.is_capacity() {
                num += ex.pressure[r];
                den += ex.reference[r];
            }
        }
        let inst_level = if den > 0.0 {
            (num / den).clamp(0.05, 1.0)
        } else {
            1.0
        };
        // The victim's level relative to the instance.
        let lambda = self.estimate_scale(best_index, observations).max(0.05);
        let total = (inst_level * lambda).clamp(0.05, 1.0);
        let mut full = *completed;
        for r in Resource::ALL {
            if !r.is_capacity() {
                full[r] = (completed[r] / total).clamp(0.0, 100.0);
            }
        }
        full
    }

    /// Scores a *dense* pressure profile against the training set (the
    /// content-based stage on its own; also used to score shutter-derived
    /// residual profiles).
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the correlation computation.
    pub fn score_profile(
        &self,
        profile: &PressureVector,
    ) -> Result<Vec<SimilarityScore>, LinalgError> {
        let sigma = &self.svd.singular_values()[..self.rank];
        let u_new = self.project(profile);

        let mut raw: Vec<(usize, f64)> = Vec::with_capacity(self.data.len());
        for i in 0..self.data.len() {
            let u_row = self.svd.concept_row(i, self.rank);
            let corr = if self.config.weighted {
                weighted_pearson(&u_new, &u_row, sigma)?
            } else {
                pearson(&u_new, &u_row)?
            };
            raw.push((i, corr));
        }
        raw.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite correlations"));

        // Keep matches above threshold; normalize positive mass to shares.
        let kept: Vec<(usize, f64)> = raw
            .into_iter()
            .filter(|&(_, c)| c >= self.config.match_threshold)
            .collect();
        let mass: f64 = kept.iter().map(|&(_, c)| c.max(0.0)).sum();
        Ok(kept
            .into_iter()
            .map(|(index, correlation)| SimilarityScore {
                label: self.data.example(index).label.clone(),
                index,
                correlation,
                share: if mass > 0.0 {
                    correlation.max(0.0) / mass
                } else {
                    0.0
                },
            })
            .collect())
    }

    /// Scores every training example against a *partial* observation, in
    /// the observed dimensions only — the §3.3 move that identifies the
    /// core-sharing co-runner from core readings alone (hyperthreads are
    /// never shared between instances, so core readings carry exactly one
    /// application's signal).
    ///
    /// Similarity is the weighted cosine between standardized deviations
    /// over the observed dimensions, each resource weighted by its
    /// information value `Σₖ (σₖ V[j,k])²` over the retained concepts —
    /// the §3.2 insight that some resources leak more than others.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InsufficientData`] with fewer than 2 observed
    ///   dimensions.
    /// * [`LinalgError::NonFiniteInput`] for non-finite values.
    pub fn match_subspace(
        &self,
        observations: &[(Resource, f64)],
    ) -> Result<Vec<SimilarityScore>, LinalgError> {
        let raw = self.subspace_raw(observations)?;
        let kept: Vec<(usize, f64)> = raw
            .into_iter()
            .filter(|&(_, c)| c >= self.config.match_threshold)
            .collect();
        let mass: f64 = kept.iter().map(|&(_, c)| c.max(0.0)).sum();
        Ok(kept
            .into_iter()
            .map(|(index, correlation)| SimilarityScore {
                label: self.data.example(index).label.clone(),
                index,
                correlation,
                share: if mass > 0.0 {
                    correlation.max(0.0) / mass
                } else {
                    0.0
                },
            })
            .collect())
    }

    /// The unfiltered, sorted `(index, similarity)` list behind
    /// [`HybridRecommender::match_subspace`].
    fn subspace_raw(
        &self,
        observations: &[(Resource, f64)],
    ) -> Result<Vec<(usize, f64)>, LinalgError> {
        if observations.len() < 2 {
            return Err(LinalgError::InsufficientData {
                op: "subspace match",
                got: observations.len(),
                need: 2,
            });
        }
        for &(_, v) in observations {
            if !v.is_finite() {
                return Err(LinalgError::NonFiniteInput {
                    op: "subspace match",
                });
            }
        }
        let dims: Vec<usize> = observations.iter().map(|&(r, _)| r.index()).collect();
        let weights: Vec<f64> = dims.iter().map(|&j| self.information_weight(j)).collect();

        // Shape-based comparison: an application observed at input load ℓ
        // emits ≈ ℓ × its full-load pressure, so matching must be
        // scale-invariant. Normalize every vector to unit norm over the
        // observed dimensions ("shape"), then center by the mean training
        // shape to restore contrast in the positive orthant.
        let m = self.data.matrix();
        let shapes: Vec<Vec<f64>> = (0..self.data.len())
            .map(|i| normalize(&dims.iter().map(|&j| m[(i, j)]).collect::<Vec<f64>>()))
            .collect();
        let mean_shape: Vec<f64> = (0..dims.len())
            .map(|d| shapes.iter().map(|s| s[d]).sum::<f64>() / shapes.len() as f64)
            .collect();
        let obs_shape = normalize(&observations.iter().map(|&(_, v)| v).collect::<Vec<f64>>());

        let centered_obs: Vec<f64> = obs_shape
            .iter()
            .zip(&mean_shape)
            .map(|(a, b)| a - b)
            .collect();
        let mut raw: Vec<(usize, f64)> = Vec::with_capacity(self.data.len());
        for (i, shape) in shapes.iter().enumerate() {
            let centered: Vec<f64> = shape.iter().zip(&mean_shape).map(|(a, b)| a - b).collect();
            let num: f64 = (0..dims.len())
                .map(|d| weights[d] * centered_obs[d] * centered[d])
                .sum();
            let na: f64 = (0..dims.len())
                .map(|d| weights[d] * centered_obs[d] * centered_obs[d])
                .sum();
            let nb: f64 = (0..dims.len())
                .map(|d| weights[d] * centered[d] * centered[d])
                .sum();
            let denom = (na * nb).sqrt();
            let sim = if denom > 0.0 {
                (num / denom).clamp(-1.0, 1.0)
            } else {
                0.0
            };
            raw.push((i, sim));
        }
        raw.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite similarity"));
        Ok(raw)
    }

    /// The information value of resource dimension `j`, precomputed at fit
    /// time (see the `info_weights` field).
    fn information_weight(&self, j: usize) -> f64 {
        self.info_weights[j]
    }

    /// Per-resource information values, indexed by
    /// [`Resource::index`]: how much retained-concept energy loads on
    /// each dimension, discounted by its Wiener channel reliability.
    /// The anytime detector orders candidate probes by these weights —
    /// the same weights every subspace match and decomposition applies —
    /// so "expected information gain" and "fit influence" agree.
    pub fn information_weights(&self) -> [f64; RESOURCE_COUNT] {
        self.info_weights
    }

    /// Decomposes a (possibly mixed) observation into up to
    /// `max_components` known applications by greedy matching pursuit:
    /// repeatedly find the training example and load scale `λ ∈ [0, 1.2]`
    /// that best explain the remaining signal in weighted least squares,
    /// subtract, and continue while the residual stays substantial.
    ///
    /// This operationalizes the paper's §3.3 assumption that co-resident
    /// pressure adds linearly in bandwidth-style resources: the summed
    /// signal of two tenants matches *no* single application well, but
    /// decomposes cleanly into two.
    ///
    /// * `mrc_observed` — an optional observed cache-allocation sweep (one
    ///   response per allocation level). When present, near-degenerate
    ///   candidate mixtures — within [`RecommenderConfig::mrc_tie_margin`]
    ///   of the best fit error — are re-ranked by RMS distance between
    ///   their expected sweep-response curves and the observation. `None`
    ///   (or an empty sweep) leaves the plain decomposition untouched.
    /// * `warm` — a warm-started shortlist for iterative deepening: when it
    ///   carries the atom shortlist of a previous refinement round over the
    ///   *same* dictionary, the single-fit ranking runs over those atoms
    ///   alone instead of the full dictionary, and this round's pruned
    ///   shortlist is written back for the next. `None`, an empty shortlist
    ///   or a path-switched one searches the full dictionary.
    /// * `stats` — records whether the pair search ran pruned or exact, and
    ///   how many MRC tie-breaks fired.
    ///
    /// Returns `(example index, scale, explained fraction)` per component,
    /// first component first.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InsufficientData`] with fewer than 2 observations.
    /// * [`LinalgError::NonFiniteInput`] for non-finite values.
    pub fn decompose_mixture(
        &self,
        observations: &[(Resource, f64)],
        max_components: usize,
        mrc_observed: Option<&[f64]>,
        warm: Option<&mut WarmShortlist>,
        stats: &mut RecommenderStats,
    ) -> Result<Vec<(usize, f64, f64)>, LinalgError> {
        let warm = warm.map(|w| {
            w.enter(DictTag::UncoreOnly);
            &mut w.atoms
        });
        validate_obs(observations)?;
        let dims: Vec<usize> = observations.iter().map(|&(r, _)| r.index()).collect();
        let weights: Vec<f64> = dims.iter().map(|&j| self.information_weight(j)).collect();
        let target: Vec<f64> = observations.iter().map(|&(_, v)| v).collect();
        let m = self.data.matrix();
        let n = self.data.len();
        // One flat row-major atom buffer instead of n little Vecs.
        let indices: Vec<usize> = (0..n).collect();
        let mut values: Vec<f64> = Vec::with_capacity(n * dims.len());
        for i in 0..n {
            values.extend(dims.iter().map(|&j| m[(i, j)]));
        }
        let mrc = self.mrc_context(mrc_observed);
        Ok(pair_pursuit_warm(
            &weights,
            &target,
            &indices,
            &values,
            self.config.pair_shortlist,
            max_components,
            mrc.as_ref(),
            warm,
            stats,
        ))
    }

    /// Joint decomposition with *visibility hypotheses*: the adversary
    /// observes core-resource pressure only from co-residents sharing its
    /// physical cores, so every candidate application enters the search
    /// twice — once as a core-sharer (contributing to all observed
    /// dimensions) and once as an unshared tenant (contributing to the
    /// uncore dimensions only). Solving jointly over all ten dimensions
    /// removes the degeneracy where a zero-uncore application (SPEC)
    /// "freely" explains any core signal: as a sharer it must account for
    /// the uncore readings too.
    ///
    /// `mrc_observed`, `warm` and `stats` act exactly as in
    /// [`HybridRecommender::decompose_mixture`]. The visibility hypotheses
    /// of one example share its curve — the LLC is uncore, so core-sharing
    /// does not change the sweep response. The dictionary layout depends on
    /// whether scheduler float is visible, so a warm shortlist resets
    /// itself whenever the float regime (or the uncore-only/joint path)
    /// changes between rounds.
    ///
    /// Returns `(example index, scale, explained)` like
    /// [`HybridRecommender::decompose_mixture`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`HybridRecommender::decompose_mixture`].
    #[allow(clippy::too_many_arguments)]
    pub fn decompose_with_core(
        &self,
        core_obs: &[(Resource, f64)],
        uncore_obs: &[(Resource, f64)],
        float_visibility: f64,
        max_components: usize,
        mrc_observed: Option<&[f64]>,
        warm: Option<&mut WarmShortlist>,
        stats: &mut RecommenderStats,
    ) -> Result<Vec<(usize, f64, f64)>, LinalgError> {
        let warm = warm.map(|w| {
            w.enter(if float_visibility > 0.0 {
                DictTag::JointWithFloat
            } else {
                DictTag::Joint
            });
            &mut w.atoms
        });
        let all: Vec<(Resource, f64)> = core_obs.iter().chain(uncore_obs).copied().collect();
        validate_obs(&all)?;
        let dims: Vec<usize> = all.iter().map(|&(r, _)| r.index()).collect();
        let weights: Vec<f64> = dims.iter().map(|&j| self.information_weight(j)).collect();
        let target: Vec<f64> = all.iter().map(|&(_, v)| v).collect();
        let m = self.data.matrix();
        let is_core: Vec<bool> = all.iter().map(|&(r, _)| r.is_core()).collect();
        let hyps = if float_visibility > 0.0 { 3 } else { 2 };
        let mut indices: Vec<usize> = Vec::with_capacity(hyps * self.data.len());
        let mut values: Vec<f64> = Vec::with_capacity(hyps * self.data.len() * dims.len());
        for i in 0..self.data.len() {
            // Shared-core hypothesis: visible everywhere.
            indices.push(i);
            values.extend(dims.iter().map(|&j| m[(i, j)]));
            // Unshared hypothesis: visible on uncore dimensions only.
            indices.push(i);
            values.extend(
                dims.iter()
                    .enumerate()
                    .map(|(d, &j)| if is_core[d] { 0.0 } else { m[(i, j)] }),
            );
            // Scheduler-float hypothesis: core pressure leaks at the float
            // factor while uncore is fully visible (no pinning).
            if float_visibility > 0.0 {
                indices.push(i);
                values.extend(dims.iter().enumerate().map(|(d, &j)| {
                    if is_core[d] {
                        m[(i, j)] * float_visibility
                    } else {
                        m[(i, j)]
                    }
                }));
            }
        }
        let mrc = self.mrc_context(mrc_observed);
        Ok(pair_pursuit_warm(
            &weights,
            &target,
            &indices,
            &values,
            self.config.pair_shortlist,
            max_components,
            mrc.as_ref(),
            warm,
            stats,
        ))
    }

    /// Expected cache-allocation-sweep response curve for every training
    /// example at unit load: example `i` occupies
    /// `[i * points .. (i + 1) * points]`, entry `k` being the predicted
    /// co-resident response while the probe holds `(k + 1) / points` of
    /// the LLC. The prediction runs the same protocol as the simulator
    /// ([`mrc::sweep_response`] over the derived curve), so observed and
    /// expected sweeps are directly comparable; linearity in load scale
    /// lets the pursuit sum per-component curves.
    fn mrc_atom_curves(&self, points: usize) -> Vec<f64> {
        let m = self.data.matrix();
        let n = self.data.len();
        let mut curves = Vec::with_capacity(n * points);
        for i in 0..n {
            let mut raw = [0.0; RESOURCE_COUNT];
            for (j, r) in raw.iter_mut().enumerate() {
                *r = m[(i, j)];
            }
            let p = PressureVector::from_raw(raw);
            let curve = mrc::derive_mrc_from_pressure(&p);
            for k in 0..points {
                let alloc = (k + 1) as f64 / points as f64;
                curves.push(mrc::sweep_response(&curve, p[Resource::Llc], alloc));
            }
        }
        curves
    }

    /// Builds the tie-break context from an observed sweep, or `None`
    /// when the channel is off (no observation, an empty sweep, or a
    /// non-positive margin).
    fn mrc_context(&self, observed: Option<&[f64]>) -> Option<MrcContext> {
        let observed = observed?;
        if observed.is_empty() || self.config.mrc_tie_margin <= 0.0 {
            return None;
        }
        Some(MrcContext {
            curves: self.mrc_atom_curves(observed.len()),
            observed: observed.to_vec(),
            margin: self.config.mrc_tie_margin,
        })
    }

    /// Builds a [`Recommendation`] for one decomposed mixture component.
    pub fn component_recommendation(&self, index: usize, explained: f64) -> Recommendation {
        let ex = self.data.example(index);
        let scores = vec![SimilarityScore {
            label: ex.label.clone(),
            index,
            correlation: explained,
            share: 1.0,
        }];
        Recommendation {
            characteristics: ResourceCharacteristics::from_pressure(&ex.reference),
            completed: ex.pressure,
            scores,
        }
    }

    /// Least-squares estimate of the input-load scale of a subspace match:
    /// the `λ` minimizing `‖obs − λ · example‖` over the observed
    /// dimensions, clamped to `[0, 1]`. Used to scale the matched
    /// training profile before subtracting it from a mixed signal.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn estimate_scale(&self, index: usize, observations: &[(Resource, f64)]) -> f64 {
        let m = self.data.matrix();
        let mut num = 0.0;
        let mut den = 0.0;
        for &(r, v) in observations {
            let e = m[(index, r.index())];
            num += v * e;
            den += e * e;
        }
        if den == 0.0 {
            return 1.0;
        }
        (num / den).clamp(0.0, 1.0)
    }

    /// Solves the victim's *scaled* concept coordinates `w` (where the
    /// reconstruction is `x ≈ mean + w Vᵀ`) against the observed entries by
    /// stochastic gradient descent — the paper's "PQ-reconstruction with
    /// SGD" step, specialized to the frozen concept basis. L2
    /// regularization pulls unobserved structure toward the training mean.
    fn solve_concept_coords<R: Rng>(&self, obs: &[(usize, f64)], rng: &mut R) -> Vec<f64> {
        let v = self.svd.v();
        let mut w = vec![0.0; self.rank];
        let lr = 0.05;
        let reg = 0.002;
        let mut order: Vec<usize> = (0..obs.len()).collect();
        for _ in 0..SGD_EPOCHS {
            // Stochastic order over the observed entries.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &i in &order {
                let (c, val) = obs[i];
                // Work in standardized units so the step size is uniform
                // across resources.
                let target = (val - self.col_means[c]) / self.col_stds[c];
                let pred: f64 = (0..self.rank).map(|k| w[k] * v[(c, k)]).sum();
                let err = target - pred;
                for (k, wk) in w.iter_mut().enumerate() {
                    *wk += lr * (err * v[(c, k)] - reg * *wk);
                }
            }
        }
        w
    }

    /// Projects a dense profile into the retained concept space:
    /// `u = z V_r Σ_r⁻¹` with `z` the standardized profile.
    fn project(&self, profile: &PressureVector) -> Vec<f64> {
        let v = self.svd.v();
        let sigma = self.svd.singular_values();
        (0..self.rank)
            .map(|k| {
                if sigma[k] == 0.0 {
                    return 0.0;
                }
                let dot: f64 = (0..RESOURCE_COUNT)
                    .map(|j| {
                        (profile.as_slice()[j] - self.col_means[j]) / self.col_stds[j] * v[(j, k)]
                    })
                    .sum();
                dot / sigma[k]
            })
            .collect()
    }
}

/// Validates decomposition observations.
fn validate_obs(observations: &[(Resource, f64)]) -> Result<(), LinalgError> {
    if observations.len() < 2 {
        return Err(LinalgError::InsufficientData {
            op: "mixture decomposition",
            got: observations.len(),
            need: 2,
        });
    }
    for &(_, v) in observations {
        if !v.is_finite() {
            return Err(LinalgError::NonFiniteInput {
                op: "mixture decomposition",
            });
        }
    }
    Ok(())
}

/// The miss-rate-curve tie-break context handed to [`pair_pursuit`]: the
/// observed cache-allocation sweep plus the expected unit-load response
/// curve of every training example (flat, example-indexed — visibility
/// hypotheses of the same example share one curve).
struct MrcContext {
    /// Observed co-resident response per allocation level.
    observed: Vec<f64>,
    /// `curves[i * K + k]`: example `i`'s expected response at level `k`.
    curves: Vec<f64>,
    /// Near-degeneracy slack as a fraction of the observed signal energy.
    margin: f64,
}

impl MrcContext {
    /// RMS distance between the *shapes* (mean-normalized curves) of the
    /// observed sweep and the response the candidate mixture predicts
    /// (scales sum linearly per level). Shape, not magnitude, carries the
    /// reuse structure: the observed aggregate includes co-residents the
    /// candidate mixture may not cover, and per-level magnitude already
    /// rides in the pressure dimensions — comparing raw responses would
    /// just bias the tie toward louder curves.
    fn distance(&self, picks: &[(usize, f64)], indices: &[usize]) -> f64 {
        let k = self.observed.len();
        let pred: Vec<f64> = (0..k)
            .map(|d| {
                picks
                    .iter()
                    .map(|&(a, l)| l * self.curves[indices[a] * k + d])
                    .sum()
            })
            .collect();
        let om = self.observed.iter().sum::<f64>() / k as f64;
        let pm = pred.iter().sum::<f64>() / k as f64;
        if om <= 1e-9 || pm <= 1e-9 {
            // A silent curve has no shape; fall back to raw magnitudes.
            let sum: f64 = self
                .observed
                .iter()
                .zip(&pred)
                .map(|(o, p)| (o - p) * (o - p))
                .sum();
            return (sum / k as f64).sqrt();
        }
        let sum: f64 = self
            .observed
            .iter()
            .zip(&pred)
            .map(|(o, p)| {
                let e = o / om - p / pm;
                e * e
            })
            .sum();
        (sum / k as f64).sqrt()
    }
}

/// Weighted least-squares pursuit over a dictionary of atoms: the best
/// single explanation, refined by a pair search with jointly optimal
/// scales in `[0, 1.05]` (a tenant cannot exceed its own full-load
/// profile by much). The pair replaces the single only on a decisive error
/// improvement — summed signals are often 90%-explained by one "middle
/// ground" application, but the true pair fits to within instance jitter.
///
/// Atoms arrive as a flat row-major buffer: atom `a` is
/// `values[a * target.len()..(a + 1) * target.len()]` and maps back to
/// training example `indices[a]`.
///
/// The pair loop runs over the `shortlist` atoms with the lowest
/// single-fit error rather than all O(n²) pairs; `shortlist >= n` is
/// exactly the exhaustive search (same iteration order, so identical
/// tie-breaking).
///
/// With an [`MrcContext`], candidate solutions whose fit error lands
/// within `margin × total_energy` of the best are near-degenerate — the
/// pressure dimensions cannot tell them apart — and the one whose
/// expected sweep-response curve sits closest (RMS) to the observed
/// sweep wins instead. `None` leaves the selection byte-identical to the
/// pressure-only pursuit.
///
/// Returns `(example index, scale, explained fraction)` per component.
// Production paths thread the warm pool through `pair_pursuit_warm`;
// this plain entry stays as the reference the unit tests pin against.
#[cfg_attr(not(test), allow(dead_code))]
#[allow(clippy::too_many_arguments)]
fn pair_pursuit(
    weights: &[f64],
    target: &[f64],
    indices: &[usize],
    values: &[f64],
    shortlist: usize,
    max_components: usize,
    mrc: Option<&MrcContext>,
    stats: &mut RecommenderStats,
) -> Vec<(usize, f64, f64)> {
    pair_pursuit_warm(
        weights,
        target,
        indices,
        values,
        shortlist,
        max_components,
        mrc,
        None,
        stats,
    )
}

/// [`pair_pursuit`] with an optional warm-started atom pool: when `warm`
/// carries a non-empty shortlist from a previous round, the single-fit
/// ranking runs over those atoms alone, and the pair-search candidate
/// set of this round is written back for the next. `None` (and an empty
/// list) is byte-identical to the plain pursuit.
#[allow(clippy::too_many_arguments)]
fn pair_pursuit_warm(
    weights: &[f64],
    target: &[f64],
    indices: &[usize],
    values: &[f64],
    shortlist: usize,
    max_components: usize,
    mrc: Option<&MrcContext>,
    warm: Option<&mut Vec<usize>>,
    stats: &mut RecommenderStats,
) -> Vec<(usize, f64, f64)> {
    let total_energy = kernels::wdot3(weights, target, target);
    if total_energy == 0.0 {
        return Vec::new();
    }
    let n = indices.len();
    let ndims = target.len();
    let atom = |a: usize| &values[a * ndims..(a + 1) * ndims];
    // A reading at (or near) the resource's capacity is *censored*: the
    // true co-resident demand may exceed it, so the scale fits ignore the
    // dimension and the error only penalizes under-prediction — without
    // this, saturated hosts break the linearity assumption exactly as the
    // paper's §3.5 warns.
    const CENSOR: f64 = 95.0;
    let censored: Vec<bool> = target.iter().map(|&v| v >= CENSOR).collect();
    let self_sq: Vec<f64> = (0..n)
        .map(|a| kernels::wdot3_masked(weights, atom(a), atom(a), &censored))
        .collect();
    let with_target: Vec<f64> = (0..n)
        .map(|a| kernels::wdot3_masked(weights, target, atom(a), &censored))
        .collect();
    let err_of = |picks: &[(usize, f64)]| -> f64 {
        (0..ndims)
            .map(|d| {
                let pred: f64 = picks.iter().map(|&(a, l)| l * atom(a)[d]).sum();
                let e = if censored[d] {
                    (CENSOR - pred).max(0.0)
                } else {
                    target[d] - pred
                };
                weights[d] * e * e
            })
            .sum()
    };

    // Single-atom fits: pick the best single explanation and rank every
    // usable atom for the pair-search shortlist. A warm pool restricts
    // the ranking to the previous round's survivors.
    let pool: Vec<usize> = match warm.as_deref() {
        Some(w) if !w.is_empty() => w.iter().copied().filter(|&a| a < n).collect(),
        _ => (0..n).collect(),
    };
    let mut single_fit: Vec<(usize, f64)> = Vec::with_capacity(pool.len());
    let mut best_single: Option<(usize, f64, f64)> = None;
    for a in pool {
        if self_sq[a] == 0.0 {
            continue;
        }
        let l = (with_target[a] / self_sq[a]).clamp(0.0, 1.05);
        let e = err_of(&[(a, l)]);
        single_fit.push((a, e));
        if l < 0.05 {
            continue;
        }
        if best_single.map(|(_, _, b)| e < b).unwrap_or(true) {
            best_single = Some((a, l, e));
        }
    }
    let Some((s_atom, s_lambda, s_err)) = best_single else {
        return Vec::new();
    };
    let (mut s_atom, mut s_lambda) = (s_atom, s_lambda);
    // MRC tie-break over near-degenerate singles: every atom whose fit
    // error is within the margin of the best is indistinguishable on
    // pressure alone, so let the sweep curve pick among them.
    if let Some(m) = mrc {
        let limit = s_err + m.margin * total_energy;
        let mut best_d = f64::INFINITY;
        let mut chosen: Option<(usize, f64)> = None;
        for &(a, e) in &single_fit {
            if e > limit {
                continue;
            }
            let l = (with_target[a] / self_sq[a]).clamp(0.0, 1.05);
            if l < 0.05 {
                continue;
            }
            let d = m.distance(&[(a, l)], indices);
            if d < best_d {
                best_d = d;
                chosen = Some((a, l));
            }
        }
        if let Some((a, l)) = chosen {
            if indices[a] != indices[s_atom] {
                stats.mrc_tie_breaks += 1;
            }
            s_atom = a;
            s_lambda = l;
        }
    }
    if max_components <= 1 {
        let explained = 1.0 - (s_err / total_energy).clamp(0.0, 1.0);
        return vec![(indices[s_atom], s_lambda, explained)];
    }

    // Shortlist: the true pair members each explain a large share of the
    // summed signal on their own, so keep only the best single fits.
    let candidates: Vec<usize> = if single_fit.len() > shortlist {
        stats.shortlist_hits += 1;
        single_fit.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite errors"));
        single_fit.truncate(shortlist.max(2));
        let mut keep: Vec<usize> = single_fit.into_iter().map(|(a, _)| a).collect();
        // Ascending atom order keeps the iteration — and thus equal-error
        // tie-breaking — identical to the exhaustive loop's.
        keep.sort_unstable();
        keep
    } else {
        stats.exact_searches += 1;
        single_fit.into_iter().map(|(a, _)| a).collect()
    };
    if let Some(w) = warm {
        w.clear();
        w.extend_from_slice(&candidates);
    }

    // Pair search with jointly-optimal clamped scales.
    let mut best_pair: Option<(usize, f64, usize, f64, f64)> = None;
    let mut pair_candidates: Vec<(usize, f64, usize, f64, f64)> = Vec::new();
    for (pa, &a) in candidates.iter().enumerate() {
        for &b in &candidates[pa + 1..] {
            if indices[a] == indices[b] {
                continue;
            }
            let sab = kernels::wdot3_masked(weights, atom(a), atom(b), &censored);
            let det = self_sq[a] * self_sq[b] - sab * sab;
            let (mut la, mut lb) = if det.abs() < 1e-9 {
                ((with_target[a] / self_sq[a]).clamp(0.0, 1.05), 0.0)
            } else {
                (
                    (with_target[a] * self_sq[b] - sab * with_target[b]) / det,
                    (with_target[b] * self_sq[a] - sab * with_target[a]) / det,
                )
            };
            la = la.clamp(0.0, 1.05);
            lb = lb.clamp(0.0, 1.05);
            for _ in 0..2 {
                la = ((with_target[a] - lb * sab) / self_sq[a]).clamp(0.0, 1.05);
                lb = ((with_target[b] - la * sab) / self_sq[b]).clamp(0.0, 1.05);
            }
            if la < 0.05 || lb < 0.05 {
                continue;
            }
            let e = err_of(&[(a, la), (b, lb)]);
            if mrc.is_some() {
                pair_candidates.push((a, la, b, lb, e));
            }
            if best_pair.map(|(_, _, _, _, be)| e < be).unwrap_or(true) {
                best_pair = Some((a, la, b, lb, e));
            }
        }
    }

    let mut picks: Vec<(usize, f64)> = match best_pair {
        // The accept/reject decision stays on the pure-error best pair so
        // the channel only re-ranks *within* ties, never changes whether a
        // pair beats the single.
        Some((pa0, pla0, pb0, plb0, e)) if e < s_err * 0.5 => {
            let (mut a, mut la, mut b, mut lb) = (pa0, pla0, pb0, plb0);
            if let Some(m) = mrc {
                let limit = e + m.margin * total_energy;
                let mut best_d = f64::INFINITY;
                for &(ca, cla, cb, clb, ce) in &pair_candidates {
                    if ce > limit {
                        continue;
                    }
                    let d = m.distance(&[(ca, cla), (cb, clb)], indices);
                    if d < best_d {
                        best_d = d;
                        (a, la, b, lb) = (ca, cla, cb, clb);
                    }
                }
                if (indices[a], indices[b]) != (indices[pa0], indices[pb0]) {
                    stats.mrc_tie_breaks += 1;
                }
            }
            let contrib = |x: usize, l: f64| l * self_sq[x].sqrt();
            if contrib(a, la) >= contrib(b, lb) {
                vec![(a, la), (b, lb)]
            } else {
                vec![(b, lb), (a, la)]
            }
        }
        _ => vec![(s_atom, s_lambda)],
    };
    picks.truncate(max_components);
    // A component must carry a meaningful share of the observed signal:
    // spurious low-scale riders that only mop up residual noise (or the
    // near-dead dimensions of an isolated host) are dropped.
    picks.retain(|&(a, l)| l * l * self_sq[a] >= 0.04 * total_energy);
    if picks.is_empty() {
        return Vec::new();
    }
    let final_err = err_of(&picks);
    let explained = 1.0 - (final_err / total_energy).clamp(0.0, 1.0);
    picks
        .into_iter()
        .map(|(a, l)| (indices[a], l, explained))
        .collect()
}

/// Normalizes a vector to unit Euclidean norm; an all-zero vector stays
/// zero.
fn normalize(v: &[f64]) -> Vec<f64> {
    let norm = kernels::sq_norm(v).sqrt();
    if norm == 0.0 {
        return v.to_vec();
    }
    v.iter().map(|x| x / norm).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_workloads::training::training_set;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x44EC)
    }

    fn recommender() -> HybridRecommender {
        let data = TrainingData::from_profiles(&training_set(7)).unwrap();
        HybridRecommender::fit(data, RecommenderConfig::default()).unwrap()
    }

    #[test]
    fn rank_respects_energy_criterion() {
        let rec = recommender();
        let sigma = rec.concept_magnitudes();
        let total: f64 = sigma.iter().map(|s| s * s).sum();
        let kept: f64 = sigma[..rec.rank()].iter().map(|s| s * s).sum();
        assert!(kept >= 0.90 * total);
        assert!(rec.rank() >= 2 && rec.rank() <= RESOURCE_COUNT);
    }

    #[test]
    fn unusable_config_is_a_typed_error() {
        let d = RecommenderConfig::default();
        let mut bad: Vec<RecommenderConfig> = [f64::NAN, 0.0, -0.5, 1.5, f64::INFINITY]
            .map(|energy_fraction| RecommenderConfig {
                energy_fraction,
                ..d
            })
            .to_vec();
        bad.extend(
            [f64::NAN, -1.0, f64::INFINITY]
                .map(|noise_floor| RecommenderConfig { noise_floor, ..d }),
        );
        for config in bad {
            let data = TrainingData::from_profiles(&training_set(7)).unwrap();
            assert!(
                matches!(
                    HybridRecommender::fit(data, config),
                    Err(LinalgError::InvalidParameter { .. })
                ),
                "{config:?} must be rejected"
            );
        }
    }

    #[test]
    fn dense_self_profile_scores_own_class_first() {
        let rec = recommender();
        // Score training example 0's own profile: it must match itself.
        let target = rec.training_data().example(0).clone();
        let scores = rec.score_profile(&target.pressure).unwrap();
        assert!(!scores.is_empty());
        assert_eq!(scores[0].index, 0);
        assert!(scores[0].correlation > 0.99);
    }

    #[test]
    fn sparse_memcached_probe_matches_memcached() {
        let rec = recommender();
        let mut r = rng();
        // A 3-probe snapshot of a memcached-like victim: hot L1i + LLC,
        // zero disk.
        let obs = [
            (Resource::L1i, 80.0),
            (Resource::Llc, 76.0),
            (Resource::DiskBw, 0.0),
        ];
        let verdict = rec.recommend(&obs, &mut r).unwrap();
        let label = verdict.label().expect("should match something");
        assert_eq!(
            label.family(),
            "memcached",
            "expected memcached, got {label} (scores: {:?})",
            &verdict.scores[..verdict.scores.len().min(3)]
        );
    }

    #[test]
    fn sparse_disk_probe_matches_disk_heavy_family() {
        let rec = recommender();
        let mut r = rng();
        let obs = [
            (Resource::DiskBw, 70.0),
            (Resource::Cpu, 45.0),
            (Resource::L1i, 25.0),
        ];
        let verdict = rec.recommend(&obs, &mut r).unwrap();
        let label = verdict.label().expect("should match something");
        assert!(
            ["hadoop", "cassandra", "mysql", "mongodb"].contains(&label.family()),
            "expected a disk-heavy family, got {label}"
        );
    }

    #[test]
    fn completed_profile_pins_observations() {
        let rec = recommender();
        let mut r = rng();
        let obs = [(Resource::NetBw, 85.0), (Resource::L1i, 70.0)];
        let verdict = rec.recommend(&obs, &mut r).unwrap();
        assert!((verdict.completed[Resource::NetBw] - 85.0).abs() < 1e-9);
        assert!((verdict.completed[Resource::L1i] - 70.0).abs() < 1e-9);
        assert!(verdict.completed.is_valid());
    }

    #[test]
    fn shares_sum_to_one_when_matches_exist() {
        let rec = recommender();
        let mut r = rng();
        let obs = [(Resource::MemBw, 80.0), (Resource::Llc, 65.0)];
        let verdict = rec.recommend(&obs, &mut r).unwrap();
        if !verdict.scores.is_empty() {
            let total: f64 = verdict.scores.iter().map(|s| s.share).sum();
            assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        }
    }

    #[test]
    fn empty_observations_rejected() {
        let rec = recommender();
        let mut r = rng();
        assert!(matches!(
            rec.recommend(&[], &mut r),
            Err(LinalgError::InsufficientData { .. })
        ));
    }

    #[test]
    fn scores_sorted_descending() {
        let rec = recommender();
        let mut r = rng();
        let obs = [(Resource::Cpu, 85.0), (Resource::L1d, 55.0)];
        let verdict = rec.recommend(&obs, &mut r).unwrap();
        for w in verdict.scores.windows(2) {
            assert!(w[0].correlation >= w[1].correlation);
        }
    }

    #[test]
    fn weighted_and_plain_pearson_can_disagree() {
        let data = TrainingData::from_profiles(&training_set(7)).unwrap();
        let weighted = HybridRecommender::fit(data.clone(), RecommenderConfig::default()).unwrap();
        let plain = HybridRecommender::fit(
            data,
            RecommenderConfig {
                weighted: false,
                ..RecommenderConfig::default()
            },
        )
        .unwrap();
        // Same dense profile scored both ways; correlations differ in
        // general because the weights emphasize strong concepts.
        let probe = weighted.training_data().example(5).pressure;
        let a = weighted.score_profile(&probe).unwrap();
        let b = plain.score_profile(&probe).unwrap();
        assert!(!a.is_empty() && !b.is_empty());
        let differs = a
            .iter()
            .zip(&b)
            .any(|(x, y)| (x.correlation - y.correlation).abs() > 1e-6 || x.index != y.index);
        assert!(differs, "weighting should change the score landscape");
    }

    #[test]
    fn stats_count_sgd_and_pair_search_modes() {
        let rec = recommender();
        let mut r = rng();
        let mut stats = RecommenderStats::default();
        let obs = [
            (Resource::L1i, 80.0),
            (Resource::Llc, 76.0),
            (Resource::DiskBw, 0.0),
        ];
        rec.recommend_with_stats(&obs, &mut r, &mut stats).unwrap();
        assert_eq!(stats.sgd_iterations, SGD_EPOCHS * 3);
        // The plain mixture search over the 120-app dictionary fits inside
        // the default shortlist (128), so it stays exact...
        rec.decompose_mixture(&obs, 2, None, None, &mut stats)
            .unwrap();
        assert_eq!(stats.exact_searches, 1);
        assert_eq!(stats.shortlist_hits, 0);
        // ...while the 3-hypothesis joint core/uncore dictionary (360
        // atoms) is pruned.
        let core = [(Resource::L1i, 40.0), (Resource::L2, 30.0)];
        let uncore = [(Resource::Llc, 30.0), (Resource::MemBw, 20.0)];
        rec.decompose_with_core(&core, &uncore, 0.5, 2, None, None, &mut stats)
            .unwrap();
        assert_eq!(stats.shortlist_hits, 1);

        let mut merged = RecommenderStats::default();
        merged.merge(stats);
        assert_eq!(merged, stats);
    }

    #[test]
    fn mrc_tie_break_reranks_degenerate_singles() {
        // Two training examples with byte-identical pressure rows: pure
        // pressure pursuit cannot tell them apart and keeps the first.
        let weights = [1.0, 1.0];
        let target = [40.0, 30.0];
        let indices = [0usize, 1];
        let values = [40.0, 30.0, 40.0, 30.0];
        let mut stats = RecommenderStats::default();
        let plain = pair_pursuit(
            &weights, &target, &indices, &values, 16, 1, None, &mut stats,
        );
        assert_eq!(plain[0].0, 0, "pressure-only pursuit keeps the first atom");
        assert_eq!(stats.mrc_tie_breaks, 0);
        // The observed sweep matches example 1's expected curve exactly.
        let ctx = MrcContext {
            observed: vec![30.0, 35.0, 40.0],
            curves: vec![10.0, 20.0, 30.0, 30.0, 35.0, 40.0],
            margin: 0.05,
        };
        let mut stats = RecommenderStats::default();
        let broken = pair_pursuit(
            &weights,
            &target,
            &indices,
            &values,
            16,
            1,
            Some(&ctx),
            &mut stats,
        );
        assert_eq!(broken[0].0, 1, "the sweep should flip the degenerate tie");
        assert!((broken[0].1 - plain[0].1).abs() < 1e-12, "scale unchanged");
        assert_eq!(stats.mrc_tie_breaks, 1);
    }

    #[test]
    fn mrc_tie_break_reranks_degenerate_pairs() {
        // Three atoms: 0 and 2 are identical, 1 is the complement. The
        // true mixture 0+1 and the impostor 2+1 fit the pressure target
        // equally well; the sweep decides.
        let weights = [1.0, 1.0];
        let target = [60.0, 50.0];
        let indices = [0usize, 1, 2];
        let values = [40.0, 10.0, 20.0, 40.0, 40.0, 10.0];
        // The observed sweep equals atom 1's curve plus atom 2's curve;
        // the margin is tight enough that only the exact-fit pairs (not
        // the second-best single) count as degenerate.
        let ctx = MrcContext {
            observed: vec![45.0, 25.0],
            curves: vec![0.0, 10.0, 25.0, 5.0, 20.0, 20.0],
            margin: 0.02,
        };
        let mut stats = RecommenderStats::default();
        let picks = pair_pursuit(
            &weights,
            &target,
            &indices,
            &values,
            16,
            2,
            Some(&ctx),
            &mut stats,
        );
        let members: Vec<usize> = picks.iter().map(|&(i, _, _)| i).collect();
        assert!(
            members.contains(&2),
            "sweep should promote the matching twin: {members:?}"
        );
        assert!(members.contains(&1), "complement stays: {members:?}");
        assert_eq!(stats.mrc_tie_breaks, 1);
    }

    #[test]
    fn empty_sweep_is_channel_off() {
        let rec = recommender();
        let obs = [
            (Resource::L1i, 80.0),
            (Resource::Llc, 76.0),
            (Resource::DiskBw, 0.0),
        ];
        let mut s1 = RecommenderStats::default();
        let mut s2 = RecommenderStats::default();
        let plain = rec.decompose_mixture(&obs, 2, None, None, &mut s1).unwrap();
        let empty = rec
            .decompose_mixture(&obs, 2, Some(&[]), None, &mut s2)
            .unwrap();
        assert_eq!(plain, empty);
        assert_eq!(s2.mrc_tie_breaks, 0);
    }

    #[test]
    fn concept_loading_accessible_for_all_resources() {
        let rec = recommender();
        for r in Resource::ALL {
            let l = rec.concept_resource_loading(r, 0);
            assert!(l.is_finite());
        }
    }
}
