//! Bolt (ASPLOS 2017) reproduction: interference-based application
//! fingerprinting in shared clouds, and the attacks it enables.
//!
//! Bolt is a practical attack system for multi-tenant clouds: an
//! adversarial VM measures the interference it experiences on ten shared
//! resources with tunable microbenchmarks, feeds the sparse signal to a
//! hybrid recommender (SVD collaborative filtering + SGD completion +
//! weighted-Pearson content matching), and thereby determines the type,
//! functionality, and resource characteristics of its co-residents in a
//! few seconds — enabling targeted denial-of-service, resource-freeing,
//! and co-residency attacks that evade utilization-based defenses.
//!
//! This crate is the top of the reproduction stack:
//!
//! * [`detector`] — the iterative detection engine with the paper's §3.3
//!   multi-co-resident disentangling (extra core probes, shutter mode).
//! * [`experiment`] — the §3.4 controlled experiment (40 servers, 108
//!   victims) behind Table 1 and Figs. 6, 7, 9 and 10.
//! * [`robustness`] — the same experiment under deterministic churn:
//!   accuracy and graceful-degradation rates versus chaos intensity.
//! * [`region`] — region-scale stress: thousands of hosts under churn
//!   and probing, with storage-layer telemetry and the scaling curve.
//! * [`service`] — detection as a service: a streaming request loop with
//!   admission control, deadlines, circuit breakers, and replayable
//!   request storms.
//! * [`user_study`] — the §4 EC2 multi-user study behind Figs. 11–12.
//! * [`attacks`] — the §5 attacks: internal DoS, RFA, co-residency
//!   detection.
//! * [`isolation_study`] — the §6 isolation sweep behind Fig. 14.
//! * [`fingerprint`] — Fig. 2's P(class | pressure pair) heatmaps.
//! * [`report`] — table/CSV helpers for the reproduction benches.
//!
//! # Quickstart
//!
//! ```
//! use bolt::detector::{Detector, DetectorConfig};
//! use bolt::Telemetry;
//! use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
//! use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
//! use bolt_sim::vm::VmRole;
//! use bolt_workloads::{catalog, training::training_set, PressureVector};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//!
//! // A host with one victim; the adversary lands next to it.
//! let mut cluster = Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default())?;
//! let adv = cluster.launch_on(
//!     0,
//!     catalog::memcached::profile(&catalog::memcached::Variant::Mixed, &mut rng),
//!     VmRole::Adversarial,
//!     0.0,
//! )?;
//! cluster.set_pressure_override(adv, Some(PressureVector::zero()))?;
//! cluster.launch_on(
//!     0,
//!     catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut rng),
//!     VmRole::Friendly,
//!     0.0,
//! )?;
//!
//! // Fit the recommender on the 120-app training set and detect.
//! let data = TrainingData::from_profiles(&training_set(7))?;
//! let recommender = HybridRecommender::fit(data, RecommenderConfig::default())?;
//! let detector = Detector::new(recommender, DetectorConfig::default());
//! // No baseline sweep from an earlier iteration; no telemetry recorded.
//! let detection = detector.detect(&cluster, adv, 60.0, None, &mut rng, &mut Telemetry::disabled())?;
//! println!("co-resident looks like: {:?}", detection.label());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod anytime;
pub mod attacks;
mod ctx;
pub mod detector;
mod error;
pub mod events;
pub mod experiment;
pub mod fingerprint;
pub mod isolation_study;
pub mod parallel;
pub mod region;
pub mod report;
pub mod robustness;
pub mod sensitivity;
pub mod service;
pub mod telemetry;
pub mod user_study;

pub use anytime::AnytimeInfo;
pub use ctx::{FitCache, RunCtx};
pub use detector::{DegradedReason, Detection, Detector, DetectorConfig, RetryPolicy};
pub use error::BoltError;
pub use experiment::{
    run_experiment, run_experiment_cache, ExperimentConfig, ExperimentRecord, ExperimentResults,
};
pub use isolation_study::{run_isolation_study, IsolationStudy};
pub use parallel::Parallelism;
pub use region::{run_region, run_region_telemetry, RegionConfig, RegionReport, ScalePoint};
pub use robustness::{churn_sweep, RobustnessPoint};
pub use service::{
    run_service, run_service_cache_telemetry, BreakerConfig, Request, RequestOutcome,
    RequestRecord, ServiceConfig, ServiceReport, ShedPolicy, ShedReason,
};
pub use telemetry::{
    Counter, LatencySummary, Phase, ServiceMetric, Telemetry, TelemetryEvent, TelemetryLog,
};
pub use user_study::{run_user_study, UserStudyConfig, UserStudyResults};
