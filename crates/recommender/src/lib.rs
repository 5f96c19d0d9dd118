//! Hybrid recommender for the Bolt reproduction.
//!
//! Implements the data-mining core of the paper's §3.2: a hybrid
//! recommender with feature augmentation that turns a *sparse* resource-
//! pressure signal (2–3 probed resources) into a labeled match against
//! previously-seen workloads plus a dense estimate of the victim's full
//! resource profile.
//!
//! Pipeline:
//!
//! 1. **Collaborative filtering** — SVD of the training matrix extracts
//!    *similarity concepts*; SGD over that frozen concept basis completes
//!    the victim's unprofiled resources
//!    ([`HybridRecommender::recommend`]).
//! 2. **Dimensionality reduction** — keep the largest singular values
//!    preserving 90% of the spectral energy.
//! 3. **Content-based matching** — weighted Pearson correlation (Eq. 1)
//!    between the victim and every training example in concept space,
//!    weighted by singular values.
//!
//! The output is a distribution of similarity scores ("65% memcached, 18%
//! Spark/PageRank, ...") plus the derived resource characteristics — which
//! survive even when no label clears the match threshold.

#![warn(missing_docs)]

mod dataset;
mod hybrid;

pub use dataset::{TrainingData, TrainingExample};
pub use hybrid::{
    HybridRecommender, Recommendation, RecommenderConfig, RecommenderStats, SimilarityScore,
    WarmShortlist,
};
