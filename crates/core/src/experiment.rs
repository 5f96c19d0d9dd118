//! The controlled experiment of paper §3.4: a 40-server cluster, 108
//! victim workloads, one 4-vCPU adversarial VM per host.
//!
//! Friendly applications are placed by a least-loaded or Quasar scheduler;
//! victims are provisioned for peak demand; the adversary has no prior
//! information. The experiment produces one [`ExperimentRecord`] per victim
//! — everything Table 1 and Figs. 6, 7 and 9 aggregate.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData, TrainingExample};
use bolt_sim::vm::VmRole;
use bolt_sim::{ChaosConfig, Cluster, FaultPlan, IsolationConfig, Scheduler, ServerSpec, VmId};
use bolt_workloads::catalog::{cassandra, database, hadoop, memcached, spark, speccpu, webserver};
use bolt_workloads::training::training_set;
use bolt_workloads::{
    AppLabel, DatasetScale, PressureVector, Resource, ResourceCharacteristics, WorkloadProfile,
};

pub use crate::ctx::shared_recommender;
use crate::ctx::{FitCache, RunCtx};
use crate::detector::{DegradedReason, Detector, DetectorConfig, RetryPolicy};
use crate::parallel::{split_seed, sweep, Parallelism};
use crate::telemetry::{Phase, Telemetry, TelemetryLog};
use crate::BoltError;

/// Controlled-experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of servers (paper: 40).
    pub servers: usize,
    /// Number of victim workloads (paper: 108).
    pub victims: usize,
    /// vCPUs of each adversarial VM (paper default: 4; Fig. 10b sweeps).
    pub adversary_vcpus: u32,
    /// RNG seed; fixes the victim draw and every stochastic component.
    pub seed: u64,
    /// Isolation configuration for the whole cluster.
    pub isolation: IsolationConfig,
    /// Detection-engine configuration.
    pub detector: DetectorConfig,
    /// Recommender configuration.
    pub recommender: RecommenderConfig,
    /// Seed of the training set (kept distinct from `seed` so training and
    /// test workloads never share instance jitter).
    pub training_seed: u64,
    /// Thread fan-out for the per-victim detection sweep. Results are
    /// byte-identical for every setting (see [`crate::parallel`]).
    pub parallelism: Parallelism,
    /// Chaos-engine configuration. [`ChaosConfig::none`] (the default)
    /// keeps every hunt on the legacy fixed-cluster path, byte-identical
    /// to runs predating the chaos engine.
    pub chaos: ChaosConfig,
    /// Retry/backoff policy for hunts under churn. Ignored when `chaos`
    /// is [`ChaosConfig::none`].
    pub retry: RetryPolicy,
    /// Enables the miss-rate-curve detection channel on every hunt
    /// (equivalent to setting [`DetectorConfig::mrc_channel`]); off by
    /// default so pre-existing runs stay byte-identical.
    pub mrc_channel: bool,
    /// Enables the anytime iterative-deepening window on every hunt
    /// (equivalent to setting [`DetectorConfig::anytime`]); off by
    /// default so pre-existing runs stay byte-identical.
    pub anytime: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            servers: 40,
            victims: 108,
            adversary_vcpus: 4,
            seed: 0xA5FA11,
            isolation: IsolationConfig::cloud_default(),
            detector: DetectorConfig::default(),
            recommender: RecommenderConfig::default(),
            training_seed: 7,
            parallelism: Parallelism::default(),
            chaos: ChaosConfig::none(),
            retry: RetryPolicy::default(),
            mrc_channel: false,
            anytime: false,
        }
    }
}

/// One victim's detection outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Ground-truth label.
    pub truth: AppLabel,
    /// Ground-truth pressure fingerprint.
    pub truth_pressure: PressureVector,
    /// Ground-truth characteristics.
    pub truth_characteristics: ResourceCharacteristics,
    /// The label Bolt settled on, if any.
    pub detected: Option<AppLabel>,
    /// The characteristics Bolt derived.
    pub detected_characteristics: ResourceCharacteristics,
    /// Paper-grade label correctness (family + variant).
    pub label_correct: bool,
    /// Characteristics correctness (dominant + critical overlap).
    pub characteristics_correct: bool,
    /// Detection iterations consumed (1..=max).
    pub iterations: usize,
    /// Victim VMs on this victim's host, **including the victim itself**
    /// ("VMs on server"): a victim alone with the adversary reports 1.
    /// This is the convention of Fig. 6a's x-axis and of
    /// [`ExperimentResults::accuracy_by_co_residents`]; it is deliberately
    /// *not* "other victims besides this one".
    pub co_residents: usize,
    /// The victim's dominant resource.
    pub dominant: Resource,
    /// Confidence of the final detection (correlation of the best match,
    /// scaled down when the window was contaminated or budget ran out).
    pub confidence: f64,
    /// Why the final detection was degraded, if it was.
    pub degraded: Option<DegradedReason>,
}

/// Aggregate results of one controlled-experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResults {
    /// Per-victim records.
    pub records: Vec<ExperimentRecord>,
    /// Name of the scheduler used.
    pub scheduler: String,
}

impl ExperimentResults {
    /// Fraction of victims whose *label* was detected correctly.
    pub fn label_accuracy(&self) -> f64 {
        fraction(&self.records, |r| r.label_correct)
    }

    /// Fraction of victims whose *characteristics* were detected correctly.
    pub fn characteristics_accuracy(&self) -> f64 {
        fraction(&self.records, |r| r.characteristics_correct)
    }

    /// Fraction of victims whose final detection was flagged as degraded
    /// (churn mid-window, insufficient samples, or retry-budget
    /// exhaustion). Zero for chaos-off runs.
    pub fn degraded_rate(&self) -> f64 {
        fraction(&self.records, |r| r.degraded.is_some())
    }

    /// Fraction of victims that were *silently* mislabeled: a wrong label
    /// reported with no degradation flag. This is the failure mode
    /// graceful degradation exists to prevent — under churn it should stay
    /// below [`ExperimentResults::degraded_rate`].
    pub fn silent_mislabel_rate(&self) -> f64 {
        fraction(&self.records, |r| {
            !r.label_correct && r.detected.is_some() && r.degraded.is_none()
        })
    }

    /// Mean confidence of the final detections.
    pub fn mean_confidence(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.confidence).sum::<f64>() / self.records.len() as f64
    }

    /// Label accuracy restricted to one application family (Table 1 rows).
    pub fn family_accuracy(&self, family: &str) -> Option<f64> {
        let subset: Vec<&ExperimentRecord> = self
            .records
            .iter()
            .filter(|r| r.truth.family() == family)
            .collect();
        if subset.is_empty() {
            return None;
        }
        Some(subset.iter().filter(|r| r.label_correct).count() as f64 / subset.len() as f64)
    }

    /// Label accuracy as a function of co-resident count (Fig. 6a):
    /// `(co_residents, accuracy, sample_count)` rows. `co_residents`
    /// counts victim VMs on the server *including the hunted victim* (see
    /// [`ExperimentRecord::co_residents`]), so rows start at 1.
    pub fn accuracy_by_co_residents(&self) -> Vec<(usize, f64, usize)> {
        let max = self
            .records
            .iter()
            .map(|r| r.co_residents)
            .max()
            .unwrap_or(0);
        (1..=max)
            .filter_map(|n| {
                let subset: Vec<&ExperimentRecord> = self
                    .records
                    .iter()
                    .filter(|r| r.co_residents == n)
                    .collect();
                if subset.is_empty() {
                    None
                } else {
                    let acc = subset.iter().filter(|r| r.label_correct).count() as f64
                        / subset.len() as f64;
                    Some((n, acc, subset.len()))
                }
            })
            .collect()
    }

    /// Label accuracy restricted to multi-tenant placements (two or more
    /// victim VMs sharing the hunted server) — the regime where mixture
    /// decomposition, and thus the miss-rate-curve tie-break, can make a
    /// difference. `None` when no victim shares its server.
    pub fn multi_tenant_label_accuracy(&self) -> Option<f64> {
        let subset: Vec<&ExperimentRecord> = self
            .records
            .iter()
            .filter(|r| r.co_residents >= 2)
            .collect();
        if subset.is_empty() {
            return None;
        }
        Some(subset.iter().filter(|r| r.label_correct).count() as f64 / subset.len() as f64)
    }

    /// Label accuracy by the victim's dominant resource (Fig. 6b):
    /// `(resource, accuracy, sample_count)` rows in canonical order.
    pub fn accuracy_by_dominant(&self) -> Vec<(Resource, f64, usize)> {
        Resource::ALL
            .iter()
            .filter_map(|&res| {
                let subset: Vec<&ExperimentRecord> =
                    self.records.iter().filter(|r| r.dominant == res).collect();
                if subset.is_empty() {
                    None
                } else {
                    let acc = subset.iter().filter(|r| r.label_correct).count() as f64
                        / subset.len() as f64;
                    Some((res, acc, subset.len()))
                }
            })
            .collect()
    }

    /// The PDF of iterations-until-detection over correctly-labeled victims
    /// (Fig. 7a): index 0 is one iteration.
    pub fn iterations_pdf(&self, max_iterations: usize) -> Vec<f64> {
        let correct: Vec<&ExperimentRecord> =
            self.records.iter().filter(|r| r.label_correct).collect();
        let mut pdf = vec![0.0; max_iterations];
        if correct.is_empty() {
            return pdf;
        }
        for r in &correct {
            let idx = (r.iterations - 1).min(max_iterations - 1);
            pdf[idx] += 1.0;
        }
        for v in &mut pdf {
            *v /= correct.len() as f64;
        }
        pdf
    }

    /// The PDF of iterations-until-detection restricted to victims with a
    /// given co-resident count (Fig. 7b). Returns `None` when no correct
    /// detection exists for that count.
    pub fn iterations_pdf_for_co_residents(
        &self,
        co_residents: usize,
        max_iterations: usize,
    ) -> Option<Vec<f64>> {
        let subset: Vec<&ExperimentRecord> = self
            .records
            .iter()
            .filter(|r| r.label_correct && r.co_residents == co_residents)
            .collect();
        if subset.is_empty() {
            return None;
        }
        let mut pdf = vec![0.0; max_iterations];
        for r in &subset {
            let idx = (r.iterations - 1).min(max_iterations - 1);
            pdf[idx] += 1.0;
        }
        for v in &mut pdf {
            *v /= subset.len() as f64;
        }
        Some(pdf)
    }

    /// Label accuracy bucketed by the victim's true pressure on `resource`
    /// (Fig. 9): `(bucket_center, accuracy, sample_count)` over buckets of
    /// `width` percent.
    pub fn accuracy_by_pressure(&self, resource: Resource, width: f64) -> Vec<(f64, f64, usize)> {
        assert!(width > 0.0, "bucket width must be positive");
        let buckets = (100.0 / width).ceil() as usize;
        let mut out = Vec::new();
        for b in 0..buckets {
            let lo = b as f64 * width;
            let hi = lo + width;
            let subset: Vec<&ExperimentRecord> = self
                .records
                .iter()
                .filter(|r| {
                    let p = r.truth_pressure[resource];
                    p >= lo && (p < hi || (b == buckets - 1 && p <= hi))
                })
                .collect();
            if !subset.is_empty() {
                let acc =
                    subset.iter().filter(|r| r.label_correct).count() as f64 / subset.len() as f64;
                out.push((lo + width / 2.0, acc, subset.len()));
            }
        }
        out
    }
}

fn fraction(records: &[ExperimentRecord], pred: impl Fn(&ExperimentRecord) -> bool) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().filter(|r| pred(r)).count() as f64 / records.len() as f64
}

/// Draws the victim test set: the same families as the training set, but
/// fresh instances (disjoint jitter, different load phases) plus scales and
/// variants cycled differently — the paper's "no overlap between training
/// and testing sets in terms of algorithms, datasets, and input loads".
pub fn victim_set(count: usize, rng: &mut StdRng) -> Vec<WorkloadProfile> {
    let mut out = Vec::with_capacity(count);
    let scales = DatasetScale::ALL;
    // Victim sizes mirror the paper's setting: jobs take "one or more
    // vCPUs" with up to 5 VMs per host; the mix keeps 40 servers around
    // three-quarters committed so core sharing with the 4-vCPU adversary
    // arises naturally without overflowing the bin packing.
    const VCPUS: [u32; 6] = [4, 2, 4, 6, 1, 2];
    let mut i = 0;
    while out.len() < count {
        let scale = scales[i % 3];
        let p = match i % 9 {
            0 => memcached::profile(&memcached::Variant::ALL[i % 4], rng),
            1 => hadoop::profile(&hadoop::Algorithm::ALL[i % 5], scale, rng),
            2 => spark::profile(&spark::Algorithm::ALL[i % 4], scale, rng),
            3 => cassandra::profile(&cassandra::Variant::ALL[i % 3], rng),
            4 => speccpu::profile(&speccpu::Benchmark::ALL[i % 7], rng),
            5 => webserver::profile(&webserver::Variant::ALL[i % 3], rng),
            6 => database::profile(&database::Variant::ALL[i % 3], rng),
            7 => hadoop::profile(&hadoop::Algorithm::ALL[(i + 2) % 5], scale, rng),
            _ => spark::profile(&spark::Algorithm::ALL[(i + 1) % 4], scale, rng),
        };
        // SPEC stays single-threaded; everything else takes its drawn size.
        let vcpus = if p.label().family() == "speccpu2006" {
            1
        } else {
            VCPUS[i % VCPUS.len()]
        };
        out.push(p.with_vcpus(vcpus));
        i += 1;
    }
    out
}

/// Passes a pressure fingerprint through the observation channel of an
/// isolation configuration: each resource's pressure is scaled by the
/// cross-tenant visibility the mechanisms leave behind.
///
/// Fitting the recommender on channel-matched training data mirrors
/// reality — Bolt's training profiles were collected by probing known
/// applications in the *same* cloud setting, so training and test signals
/// pass through the same attenuation.
pub fn observe_through(pressure: &PressureVector, isolation: &IsolationConfig) -> PressureVector {
    let mut out = PressureVector::zero();
    for r in Resource::ALL {
        out[r] = pressure[r] * isolation.attenuation(r);
    }
    out
}

/// Builds channel-matched training examples for a given isolation config.
pub fn observed_training(
    profiles: &[WorkloadProfile],
    isolation: &IsolationConfig,
) -> Vec<TrainingExample> {
    profiles
        .iter()
        .map(|p| TrainingExample {
            label: p.label().clone(),
            kind: p.kind(),
            pressure: observe_through(p.base_pressure(), isolation),
            reference: observe_through(p.reference_pressure(), isolation),
        })
        .collect()
}

/// The one fit path of the driver stack: builds the training set
/// observed through `isolation` and fits `recommender` on it, recording
/// one [`Phase::RecommenderFit`] span.
///
/// Each driver calls it once per run, before its units fan out, and
/// lends them the model. [`HybridRecommender::fit`] draws no random
/// numbers, so two fits of the same inputs are byte-identical.
///
/// # Errors
///
/// Propagates numerical errors from training-set construction or the fit.
pub fn fit_recommender(
    training_seed: u64,
    isolation: &IsolationConfig,
    recommender: RecommenderConfig,
    telemetry: &mut Telemetry,
) -> Result<Arc<HybridRecommender>, BoltError> {
    let data =
        TrainingData::from_examples(observed_training(&training_set(training_seed), isolation))?;
    let clock = telemetry.begin();
    let model = HybridRecommender::fit(data, recommender)?;
    telemetry.span(Phase::RecommenderFit, 0.0, 0.0, clock);
    Ok(Arc::new(model))
}

/// A built controlled-experiment testbed, ready for detection or attacks.
pub struct Testbed {
    /// The populated cluster.
    pub cluster: Cluster,
    /// One adversarial VM id per server (index-aligned with servers).
    pub adversaries: Vec<VmId>,
    /// The victim VM ids in launch order.
    pub victims: Vec<VmId>,
    /// The fitted detector.
    pub detector: Detector,
}

/// Builds the §3.4 testbed: `servers` hosts, one quiet adversarial VM
/// each, `victims` workloads placed by `scheduler`, and a detector over
/// `recommender` — the model [`fit_recommender`] built for the config's
/// `(training_seed, isolation, recommender)`. The launches stay in the
/// cluster's event log.
///
/// # Errors
///
/// Returns [`BoltError::InvalidExperiment`] if there are no victims, the
/// detector's confidence threshold is not finite, its interval is NaN,
/// infinite or negative, or it has no MRC sweep points, or the victims
/// cannot all be placed. Returns
/// [`SimError::InvalidConfig`](bolt_sim::SimError::InvalidConfig) (wrapped
/// in [`BoltError::Sim`]) if the chaos config fails
/// [`ChaosConfig::validate`], and propagates simulator/numerical errors.
pub fn build_testbed<S: Scheduler>(
    config: &ExperimentConfig,
    scheduler: &S,
    recommender: Arc<HybridRecommender>,
) -> Result<Testbed, BoltError> {
    // With nothing to hunt, every accuracy is 0/0: refuse rather than
    // report an empty table as "0.0% accuracy".
    if config.victims == 0 {
        return Err(BoltError::InvalidExperiment {
            reason: "experiment needs at least one victim".to_string(),
        });
    }
    config.detector.validate()?;
    config.chaos.validate(config.detector.fault_horizon_s())?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut cluster = Cluster::new(config.servers, ServerSpec::xeon(), config.isolation)?;

    // One adversarial VM per server, quiet until it probes.
    let mut adversaries = Vec::with_capacity(config.servers);
    for s in 0..config.servers {
        let profile = memcached::profile(&memcached::Variant::Mixed, &mut rng)
            .with_vcpus(config.adversary_vcpus);
        let id = cluster.launch_on(s, profile, VmRole::Adversarial, 0.0)?;
        cluster.set_pressure_override(id, Some(PressureVector::zero()))?;
        adversaries.push(id);
    }

    // Victims, placed by the scheduler.
    let profiles = victim_set(config.victims, &mut rng);
    let mut victims = Vec::with_capacity(profiles.len());
    for p in profiles {
        let server =
            scheduler
                .select_server(&cluster, &p)
                .ok_or_else(|| BoltError::InvalidExperiment {
                    reason: format!(
                        "cluster too small: {} victims do not fit on {} servers",
                        config.victims, config.servers
                    ),
                })?;
        victims.push(cluster.launch_on(server, p, VmRole::Friendly, 0.0)?);
    }

    let detector = Detector::new(
        recommender,
        DetectorConfig {
            mrc_channel: config.detector.mrc_channel || config.mrc_channel,
            anytime: config.detector.anytime || config.anytime,
            ..config.detector
        },
    );

    Ok(Testbed {
        cluster,
        adversaries,
        victims,
        detector,
    })
}

/// [`build_testbed`] over the model [`shared_recommender`] recalls from
/// `cache`, without telemetry.
///
/// Kept with this exact signature because the bolt-perf benchmark calls
/// it; delete it when that benchmark is next revised.
pub fn build_testbed_cache<S: Scheduler>(
    config: &ExperimentConfig,
    scheduler: &S,
    cache: &FitCache,
) -> Result<Testbed, BoltError> {
    let recommender = shared_recommender(
        config.training_seed,
        &config.isolation,
        config.recommender,
        cache,
        &mut Telemetry::disabled(),
    )?;
    build_testbed(config, scheduler, recommender)
}

/// Runs the full controlled experiment: every victim is hunted by the
/// adversary on its host until correctly labeled or the iteration budget
/// runs out.
///
/// Matching a detection to a *specific* victim on a multi-tenant host uses
/// the paper's acceptance criterion transplanted to simulation: the
/// detection is correct for victim `v` when the detected label matches
/// `v`'s (primary or shutter-secondary verdict).
///
/// Victims are independent: each hunt runs against the same read-only
/// cluster with its own RNG derived from `config.seed` and the victim
/// index ([`split_seed`]), and the hunts fan out over
/// `config.parallelism` worker threads. Results are byte-identical for
/// every thread count, including [`Parallelism::Serial`].
///
/// The recommender fits once, before the testbed is built, and every hunt
/// borrows it.
///
/// Telemetry (when `ctx.telemetry` is set): the set-up records as unit 0
/// — the fit's [`Phase::RecommenderFit`] span, then the testbed's launch
/// events; victim `i`'s hunt records as unit `i + 1`. Unit buffers merge
/// in unit order, so the stream is identical for every [`Parallelism`]
/// setting (wall-clock span durations aside — see
/// [`TelemetryLog::normalized`]).
///
/// # Errors
///
/// Propagates [`BoltError`] from testbed construction or detection.
pub fn run_experiment<S: Scheduler>(
    config: &ExperimentConfig,
    scheduler: &S,
    ctx: &RunCtx,
) -> Result<(ExperimentResults, TelemetryLog), BoltError> {
    // Unit 0 carries the shared setup: the recommender fit and every
    // launch the testbed performed.
    let mut unit0 = ctx.unit(0);
    let recommender = fit_recommender(
        config.training_seed,
        &config.isolation,
        config.recommender,
        &mut unit0,
    )?;
    let mut testbed = build_testbed(config, scheduler, recommender)?;
    if unit0.is_enabled() {
        unit0.cluster_events(testbed.cluster.take_events());
    }
    let Testbed {
        cluster,
        adversaries,
        victims,
        detector,
    } = testbed;

    // Victim VMs per server, precomputed once. `co_residents` follows the
    // "victim VMs on the host" convention: the hunted victim counts itself,
    // so a lone victim reports 1 (Fig. 6a's x-axis starts at 1).
    let mut victims_per_server = vec![0usize; config.servers];
    for &v in &victims {
        victims_per_server[cluster.vm(v)?.server] += 1;
    }

    let outcomes = sweep(&victims, config.parallelism, |idx, &victim_id| {
        let mut telemetry = ctx.unit(idx + 1);
        let record = hunt_victim(
            config,
            &cluster,
            &detector,
            &adversaries,
            &victims_per_server,
            idx,
            victim_id,
            &mut telemetry,
        );
        record.map(|r| (r, telemetry.into_events()))
    });

    let mut log = TelemetryLog::new();
    log.merge(unit0);
    let mut records = Vec::with_capacity(victims.len());
    for outcome in outcomes {
        let (record, events) = outcome?;
        records.push(record);
        log.extend(events);
    }

    Ok((
        ExperimentResults {
            records,
            scheduler: scheduler.name().to_string(),
        },
        log,
    ))
}

/// [`run_experiment`] without telemetry. `_cache` is not consulted: the
/// run fits afresh, which is byte-identical to a recall.
///
/// Kept with this exact signature because the bolt-perf benchmark calls
/// it; delete it when that benchmark is next revised.
pub fn run_experiment_cache<S: Scheduler>(
    config: &ExperimentConfig,
    scheduler: &S,
    _cache: &FitCache,
) -> Result<ExperimentResults, BoltError> {
    run_experiment(config, scheduler, &RunCtx::new(false)).map(|(results, _)| results)
}

/// Hunts one victim with an RNG stream derived from the victim index —
/// the per-item body of [`run_experiment`]'s sweep.
#[allow(clippy::too_many_arguments)]
fn hunt_victim(
    config: &ExperimentConfig,
    cluster: &Cluster,
    detector: &Detector,
    adversaries: &[VmId],
    victims_per_server: &[usize],
    idx: usize,
    victim_id: VmId,
    telemetry: &mut Telemetry,
) -> Result<ExperimentRecord, BoltError> {
    let mut rng = StdRng::seed_from_u64(split_seed(config.seed ^ 0x5EED, idx as u64));

    let state = cluster.vm(victim_id)?;
    let truth = state.profile.label().clone();
    let truth_pressure = *state.profile.base_pressure();
    // Characteristics live in observed space: what the channel hides
    // (e.g. partitioned memory capacity) is not a detectable — or
    // attackable — characteristic in this environment.
    let truth_characteristics = ResourceCharacteristics::from_pressure(&observe_through(
        &truth_pressure,
        &config.isolation,
    ));
    let server = state.server;
    let co_residents = victims_per_server[server];
    let adversary = adversaries[server];

    // Stagger each victim's hunt so load-pattern phases decorrelate.
    let start_t = rng.gen::<f64>() * 200.0;
    let (detection, iterations) = if config.chaos.is_none() {
        detector.detect_until_telemetry(
            cluster,
            adversary,
            start_t,
            |d| d.matches_label(&truth),
            &mut rng,
            telemetry,
        )?
    } else {
        // Each hunt churns its own private copy of the cluster so victims
        // stay independent (and the sweep stays thread-count invariant);
        // the fault plan is a pure function of (config, seed, victim index).
        let mut live = cluster.snapshot();
        let mut plan = FaultPlan::compile(
            &config.chaos,
            config.seed ^ 0xC4A0,
            idx as u64,
            start_t,
            config.detector.fault_horizon_s(),
        );
        plan.protect(&[adversary, victim_id]);
        detector.detect_until_churn_telemetry(
            &mut live,
            &mut plan,
            &config.retry,
            adversary,
            start_t,
            |d| d.matches_label(&truth),
            &mut rng,
            telemetry,
        )?
    };

    let detected = detection.label().cloned();
    let label_correct = detection.matches_label(&truth);
    let detected_characteristics = detection
        .characteristics()
        .cloned()
        .unwrap_or_else(|| ResourceCharacteristics::from_pressure(&PressureVector::zero()));
    let characteristics_correct = detection.matches_characteristics(&truth_characteristics);

    Ok(ExperimentRecord {
        truth,
        truth_pressure,
        truth_characteristics,
        detected,
        label_correct,
        characteristics_correct,
        detected_characteristics,
        iterations,
        co_residents,
        dominant: truth_pressure.dominant(),
        confidence: detection.confidence,
        degraded: detection.degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_linalg::LinalgError;
    use bolt_sim::LeastLoaded;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            servers: 8,
            victims: 16,
            ..ExperimentConfig::default()
        }
    }

    fn small_results() -> ExperimentResults {
        run_experiment(&small_config(), &LeastLoaded, &RunCtx::new(false))
            .unwrap()
            .0
    }

    fn default_fit() -> Arc<HybridRecommender> {
        let c = ExperimentConfig::default();
        fit_recommender(
            c.training_seed,
            &c.isolation,
            c.recommender,
            &mut Telemetry::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn victim_set_draws_requested_count_and_diversity() {
        let mut rng = StdRng::seed_from_u64(3);
        let set = victim_set(30, &mut rng);
        assert_eq!(set.len(), 30);
        let families: std::collections::HashSet<String> =
            set.iter().map(|p| p.label().family().to_string()).collect();
        assert!(
            families.len() >= 5,
            "want diverse families, got {families:?}"
        );
    }

    #[test]
    fn testbed_places_one_adversary_per_server() {
        let config = small_config();
        let testbed = build_testbed(&config, &LeastLoaded, default_fit()).unwrap();
        assert_eq!(testbed.adversaries.len(), 8);
        assert_eq!(testbed.victims.len(), 16);
        for (s, &adv) in testbed.adversaries.iter().enumerate() {
            assert_eq!(testbed.cluster.vm(adv).unwrap().server, s);
        }
    }

    #[test]
    fn overfull_or_victimless_experiment_rejected() {
        for (servers, victims) in [(1, 50), (4, 0)] {
            let config = ExperimentConfig {
                servers,
                victims,
                ..ExperimentConfig::default()
            };
            assert!(matches!(
                build_testbed(&config, &LeastLoaded, default_fit()),
                Err(BoltError::InvalidExperiment { .. })
            ));
        }
    }

    #[test]
    fn degenerate_detector_or_recommender_config_is_an_error_not_a_panic() {
        let interval = |interval_s| ExperimentConfig {
            detector: DetectorConfig {
                interval_s,
                ..DetectorConfig::default()
            },
            ..small_config()
        };
        let energy = |energy_fraction| ExperimentConfig {
            recommender: RecommenderConfig {
                energy_fraction,
                ..RecommenderConfig::default()
            },
            ..small_config()
        };
        for config in [
            interval(f64::NAN),
            interval(-1.0),
            energy(f64::NAN),
            energy(0.0),
        ] {
            let result = run_experiment(&config, &LeastLoaded, &RunCtx::new(false));
            assert!(
                matches!(
                    result,
                    Err(BoltError::InvalidExperiment { .. }
                        | BoltError::Linalg(LinalgError::InvalidParameter { .. }))
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn small_experiment_reaches_reasonable_accuracy() {
        let results = small_results();
        assert_eq!(results.records.len(), 16);
        let acc = results.label_accuracy();
        assert!(
            acc >= 0.5,
            "label accuracy {acc} suspiciously low for a lightly-loaded cluster"
        );
        let chars = results.characteristics_accuracy();
        assert!(
            chars >= acc,
            "characteristics accuracy {chars} < label accuracy {acc}"
        );
    }

    #[test]
    fn aggregations_are_consistent() {
        let results = small_results();
        // accuracy_by_co_residents sample counts sum to the record count.
        let total: usize = results
            .accuracy_by_co_residents()
            .iter()
            .map(|&(_, _, n)| n)
            .sum();
        assert_eq!(total, results.records.len());
        // iterations PDF sums to ~1 over correct detections (if any).
        let pdf = results.iterations_pdf(6);
        let s: f64 = pdf.iter().sum();
        if results.records.iter().any(|r| r.label_correct) {
            assert!((s - 1.0).abs() < 1e-9);
        }
        // dominant-resource counts also sum to the record count.
        let total_dom: usize = results
            .accuracy_by_dominant()
            .iter()
            .map(|&(_, _, n)| n)
            .sum();
        assert_eq!(total_dom, results.records.len());
    }

    #[test]
    fn every_run_records_one_fit_span() {
        // Each run fits once at its top, before any launch: its stream
        // holds exactly one RecommenderFit span, the first event of unit 0.
        let config = small_config();
        for _ in 0..2 {
            let (_, log) = run_experiment(&config, &LeastLoaded, &RunCtx::new(true)).unwrap();
            let fits: Vec<usize> = log
                .events()
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    matches!(
                        e,
                        crate::telemetry::TelemetryEvent::Span {
                            phase: Phase::RecommenderFit,
                            ..
                        }
                    )
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fits, [0]);
        }
    }

    #[test]
    fn pressure_buckets_cover_all_records() {
        let results = small_results();
        let rows = results.accuracy_by_pressure(Resource::Cpu, 20.0);
        let total: usize = rows.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, results.records.len());
    }
}
