//! The EC2 multi-user study of paper §4 (Figs. 11 and 12).
//!
//! Twenty users submitted 436 jobs of their choosing onto a shared pool of
//! 200 `c3.8xlarge` instances (32 vCPUs each), with a 4-vCPU Bolt VM held
//! back on every instance. Users either picked an instance themselves or
//! let a least-loaded scheduler choose; the training set was *not* updated
//! for the study. Bolt labeled 277 of the 436 jobs by name (it cannot name
//! families it never trained on) but recovered resource characteristics
//! for 385 — enough to drive the §5 attacks against any of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bolt_recommender::RecommenderConfig;
use bolt_sim::vm::VmRole;
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, VmId};
use bolt_workloads::catalog::userstudy::{self, UserStudyApp};
use bolt_workloads::{AppLabel, PressureVector, ResourceCharacteristics};

use crate::ctx::RunCtx;
use crate::detector::{bound_count, Detector, DetectorConfig};
use crate::parallel::{split_seed, sweep, Parallelism};
use crate::telemetry::{Telemetry, TelemetryLog};
use crate::BoltError;

/// Training-set seed of the §4 study: the paper's training set was *not*
/// updated for the user study, so the seed is part of the protocol, not
/// the configuration.
const USER_STUDY_TRAINING_SEED: u64 = 7;

/// User-study configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserStudyConfig {
    /// Instances in the shared pool (paper: 200).
    pub instances: usize,
    /// Participating users (paper: 20).
    pub users: usize,
    /// Total jobs submitted (paper: 436).
    pub jobs: usize,
    /// Fraction of submissions where the user picks an instance manually
    /// instead of deferring to the least-loaded scheduler.
    pub manual_placement_rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Detector configuration.
    pub detector: DetectorConfig,
    /// Recommender configuration (fitted on the *unchanged* §3.4 training
    /// set).
    pub recommender: RecommenderConfig,
    /// Thread fan-out for the per-job detection passes. Placement stays
    /// serial (it mutates the shared pool); detections run on frozen
    /// cluster snapshots with job-derived RNGs, so results are identical
    /// for every setting (see [`crate::parallel`]).
    pub parallelism: Parallelism,
}

impl Default for UserStudyConfig {
    fn default() -> Self {
        UserStudyConfig {
            instances: 200,
            users: 20,
            jobs: 436,
            manual_placement_rate: 0.3,
            seed: 0xEC2,
            detector: DetectorConfig::default(),
            recommender: RecommenderConfig::default(),
            parallelism: Parallelism::default(),
        }
    }
}

impl UserStudyConfig {
    /// Rejects a study no run could finish: one with no instances or no
    /// users, an instance, user or job count above
    /// [`MAX_PLAN_EVENTS`](bolt_sim::MAX_PLAN_EVENTS), or a detector
    /// config the other drivers reject.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::InvalidExperiment`] naming the first bad field.
    pub fn validate(&self) -> Result<(), BoltError> {
        if self.instances == 0 || self.users == 0 {
            return Err(BoltError::InvalidExperiment {
                reason: "user study needs at least one instance and one user".to_string(),
            });
        }
        bound_count("user study instances", self.instances)?;
        bound_count("user study users", self.users)?;
        bound_count("user study jobs", self.jobs)?;
        self.detector.validate()
    }
}

/// One submitted job's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct UserStudyRecord {
    /// The submitting user (0-based).
    pub user: usize,
    /// The Fig. 11 application label id (1-based).
    pub app_id: usize,
    /// The application family name.
    pub family: String,
    /// Whether the family exists in the training set (a name label is
    /// achievable at all).
    pub in_training: bool,
    /// The instance the job landed on.
    pub instance: usize,
    /// Jobs active on that instance when this one was detected (including
    /// itself).
    pub co_residents: usize,
    /// Bolt identified the application by name.
    pub name_correct: bool,
    /// Bolt identified the application's resource characteristics.
    pub characteristics_correct: bool,
    /// Ground-truth characteristics (observed space).
    pub truth_characteristics: bolt_workloads::ResourceCharacteristics,
    /// The characteristics Bolt reported.
    pub detected_characteristics: bolt_workloads::ResourceCharacteristics,
}

/// Aggregate user-study results.
#[derive(Debug, Clone, PartialEq)]
pub struct UserStudyResults {
    /// Per-job records.
    pub records: Vec<UserStudyRecord>,
    /// Number of instances that hosted at least one job.
    pub instances_used: usize,
}

impl UserStudyResults {
    /// Jobs labeled correctly by name (the paper's 277/436).
    pub fn named(&self) -> usize {
        self.records.iter().filter(|r| r.name_correct).count()
    }

    /// Jobs whose resource characteristics were identified (the 385/436).
    pub fn characterized(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.characteristics_correct)
            .count()
    }

    /// Occurrences and hits per Fig. 11 label id:
    /// `(app_id, occurrences, named, characterized)`.
    pub fn per_label(&self) -> Vec<(usize, usize, usize, usize)> {
        (1..=userstudy::LABEL_COUNT)
            .filter_map(|id| {
                let subset: Vec<&UserStudyRecord> =
                    self.records.iter().filter(|r| r.app_id == id).collect();
                if subset.is_empty() {
                    return None;
                }
                Some((
                    id,
                    subset.len(),
                    subset.iter().filter(|r| r.name_correct).count(),
                    subset.iter().filter(|r| r.characteristics_correct).count(),
                ))
            })
            .collect()
    }
}

/// Deferred detection work for one placed job: everything the detector
/// needs, captured at launch time so a batch can run on worker threads
/// while placement keeps mutating the live cluster.
struct PendingDetection {
    job: usize,
    user: usize,
    app_id: usize,
    family: String,
    in_training: bool,
    instance: usize,
    co_residents: usize,
    truth_label: AppLabel,
    truth_characteristics: ResourceCharacteristics,
    bolt_vm: VmId,
    detect_t: f64,
    snapshot: Cluster,
}

/// Placed jobs accumulated before their detections fan out; bounds how
/// many cluster snapshots are alive at once.
const DETECTION_CHUNK: usize = 16;

/// Runs one deferred detection against its frozen snapshot.
fn detect_job(
    detector: &Detector,
    seed: u64,
    p: &PendingDetection,
    telemetry: &mut Telemetry,
) -> Result<UserStudyRecord, BoltError> {
    // Job-derived stream: detection noise no longer perturbs the shared
    // placement RNG, and any fan-out order yields identical records.
    let mut rng = StdRng::seed_from_u64(split_seed(seed ^ 0xD37EC7, p.job as u64));
    let detection = detector.detect(
        &p.snapshot,
        p.bolt_vm,
        p.detect_t,
        None,
        &mut rng,
        telemetry,
    )?;
    let name_correct = p.in_training && detection.matches_family(&p.truth_label);
    let characteristics_correct = detection.matches_characteristics(&p.truth_characteristics);
    Ok(UserStudyRecord {
        user: p.user,
        app_id: p.app_id,
        family: p.family.clone(),
        in_training: p.in_training,
        instance: p.instance,
        co_residents: p.co_residents,
        name_correct,
        characteristics_correct,
        truth_characteristics: p.truth_characteristics.clone(),
        detected_characteristics: detection
            .characteristics()
            .cloned()
            .unwrap_or_else(|| ResourceCharacteristics::from_pressure(&PressureVector::zero())),
    })
}

/// Fans a batch of deferred detections out over `config.parallelism` and
/// appends the records in job order.
fn flush_detections(
    detector: &Detector,
    config: &UserStudyConfig,
    ctx: &RunCtx,
    pending: &mut Vec<PendingDetection>,
    records: &mut Vec<UserStudyRecord>,
    log: &mut TelemetryLog,
) -> Result<(), BoltError> {
    let outcomes = sweep(&pending[..], config.parallelism, |_, p| {
        // Job `j` records into unit `j + 1`; unit 0 is reserved for the
        // cluster's own placement events. Batches flush in job order, so
        // the merged stream is identical for every `parallelism` setting.
        let mut telemetry = ctx.unit(p.job + 1);
        detect_job(detector, config.seed, p, &mut telemetry).map(|r| (r, telemetry.into_events()))
    });
    for outcome in outcomes {
        let (record, events) = outcome?;
        records.push(record);
        log.extend(events);
    }
    pending.clear();
    Ok(())
}

/// Runs the user study.
///
/// Jobs arrive over a 4-hour horizon; each is detected shortly after
/// launch by the instance's Bolt VM. A job counts as *named* when its
/// family is in the training set and the detector's label matches the
/// family; it counts as *characterized* when the derived characteristics
/// match ground truth (primary or shutter-secondary verdict).
///
/// Placement runs serially on the shared RNG; detections are deferred
/// onto frozen [`Cluster::snapshot`]s and fan out in batches of 16 over
/// `config.parallelism`. The recommender fits once and every detection
/// borrows it.
///
/// Telemetry: the fit leads the stream as a unit-0 block; each job's
/// detection pass records into its own unit (`job + 1`); the cluster's
/// placement events (launches, departures) form a trailing unit-0 block.
/// The merged stream is identical for every [`Parallelism`] setting.
///
/// # Errors
///
/// Returns the errors of [`UserStudyConfig::validate`] before anything is
/// fitted or built, and propagates [`BoltError`] from the simulator or
/// detector.
pub fn run_user_study(
    config: &UserStudyConfig,
    ctx: &RunCtx,
) -> Result<(UserStudyResults, TelemetryLog), BoltError> {
    config.validate()?;
    // The study trains on seed-7 profiles observed through the cloud's
    // default channel (see `USER_STUDY_TRAINING_SEED`).
    let isolation = IsolationConfig::cloud_default();
    let mut fit_telemetry = ctx.unit(0);
    let recommender = crate::experiment::fit_recommender(
        USER_STUDY_TRAINING_SEED,
        &isolation,
        config.recommender,
        &mut fit_telemetry,
    )?;
    let detector = Detector::new(recommender, config.detector);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut cluster = Cluster::new(config.instances, ServerSpec::c3_8xlarge(), isolation)?;
    if ctx.telemetry {
        cluster.record_events();
    }

    // A quiet 4-vCPU Bolt VM per instance.
    let mut bolt_vms: Vec<VmId> = Vec::with_capacity(config.instances);
    for s in 0..config.instances {
        let profile = bolt_workloads::catalog::memcached::profile(
            &bolt_workloads::catalog::memcached::Variant::Mixed,
            &mut rng,
        )
        .with_vcpus(4);
        let id = cluster.launch_on(s, profile, VmRole::Adversarial, 0.0)?;
        cluster.set_pressure_override(id, Some(PressureVector::zero()))?;
        bolt_vms.push(id);
    }

    let horizon_s = 4.0 * 3600.0;
    let mut records = Vec::with_capacity(config.jobs);
    let mut log = TelemetryLog::new();
    log.merge(fit_telemetry);
    let mut pending: Vec<PendingDetection> = Vec::with_capacity(DETECTION_CHUNK);
    // Jobs a user keeps concentrated on "their" instances: each user gets a
    // home instance for manual placements.
    let home: Vec<usize> = (0..config.users)
        .map(|_| rng.gen_range(0..config.instances))
        .collect();

    for j in 0..config.jobs {
        let user = rng.gen_range(0..config.users);
        let app: &UserStudyApp = userstudy::sample_app(&mut rng);
        let profile = userstudy::profile(app, &mut rng);
        let launch_t = horizon_s * j as f64 / config.jobs as f64;

        // Placement: manual (the user's home instance if it fits) or
        // least-loaded.
        let manual = rng.gen::<f64>() < config.manual_placement_rate;
        let server = if manual && cluster.server(home[user])?.can_host(profile.vcpus(), false) {
            home[user]
        } else {
            match cluster.least_loaded_server(profile.vcpus()) {
                Some(s) => s,
                None => continue, // pool momentarily full; job bounced
            }
        };

        let truth_label = profile.label().clone();
        let truth_chars = bolt_workloads::ResourceCharacteristics::from_pressure(
            &crate::experiment::observe_through(profile.base_pressure(), &isolation),
        );
        // Users pin their jobs to cores of their own choosing (§4 rules),
        // so thread placement is random rather than spreading.
        let vm = cluster.launch_pinned(server, profile, VmRole::Friendly, launch_t, &mut rng)?;
        let co_residents = cluster
            .vms_on(server)
            .iter()
            .filter(|&&id| {
                cluster
                    .vm(id)
                    .map(|s| s.role == VmRole::Friendly)
                    .unwrap_or(false)
            })
            .count();

        // Bolt detects shortly after launch — deferred onto a frozen
        // snapshot so batches fan out between placements.
        pending.push(PendingDetection {
            job: j,
            user,
            app_id: app.id,
            family: app.family.to_string(),
            in_training: app.in_training,
            instance: server,
            co_residents,
            truth_label,
            truth_characteristics: truth_chars,
            bolt_vm: bolt_vms[server],
            detect_t: launch_t + 5.0,
            snapshot: cluster.snapshot(),
        });
        if pending.len() >= DETECTION_CHUNK {
            flush_detections(&detector, config, ctx, &mut pending, &mut records, &mut log)?;
        }

        // Jobs complete over time: once the pool holds more friendly VMs
        // than half the instance count, retire a random older one (not the
        // job just launched) to model departures.
        if j % 2 == 1 {
            let friendly: Vec<VmId> = cluster
                .vm_ids()
                .filter(|&id| {
                    id != vm
                        && cluster
                            .vm(id)
                            .map(|s| s.role == VmRole::Friendly)
                            .unwrap_or(false)
                })
                .collect();
            if friendly.len() > config.instances / 2 {
                let pick = friendly[rng.gen_range(0..friendly.len())];
                let _ = cluster.terminate(pick);
            }
        }
    }
    flush_detections(&detector, config, ctx, &mut pending, &mut records, &mut log)?;

    // The pool mutates throughout the run, so its launch/terminate stream
    // drains once, as a trailing unit-0 block.
    let mut unit0 = ctx.unit(0);
    unit0.cluster_events(cluster.take_events());
    log.merge(unit0);

    let instances_used = {
        let mut used = vec![false; config.instances];
        for r in &records {
            used[r.instance] = true;
        }
        used.iter().filter(|&&u| u).count()
    };

    Ok((
        UserStudyResults {
            records,
            instances_used,
        },
        log,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> UserStudyResults {
        run_user_study(&small(), &RunCtx::new(false)).unwrap().0
    }

    fn small() -> UserStudyConfig {
        UserStudyConfig {
            instances: 12,
            users: 5,
            jobs: 40,
            ..UserStudyConfig::default()
        }
    }

    /// Each config fails at the door with a typed error: nothing is
    /// fitted, so the check takes no time even for unbounded counts.
    #[test]
    fn invalid_configs_are_errors_not_runs() {
        let mut nan_threshold = small();
        nan_threshold.detector.confidence_threshold = f64::NAN;
        let mut endless = small();
        endless.detector.max_iterations = usize::MAX;
        let bad = [
            nan_threshold,
            endless,
            UserStudyConfig {
                users: 0,
                ..small()
            },
            UserStudyConfig {
                instances: 0,
                ..small()
            },
            UserStudyConfig {
                instances: usize::MAX,
                ..small()
            },
            UserStudyConfig {
                users: usize::MAX,
                ..small()
            },
            UserStudyConfig {
                jobs: usize::MAX,
                ..small()
            },
        ];
        for config in bad {
            assert!(
                matches!(
                    run_user_study(&config, &RunCtx::new(false)),
                    Err(BoltError::InvalidExperiment { .. })
                ),
                "{config:?}"
            );
        }
        assert_eq!(small().validate(), Ok(()));
        assert_eq!(UserStudyConfig::default().validate(), Ok(()));
    }

    #[test]
    fn study_processes_requested_jobs() {
        let results = study();
        assert!(results.records.len() >= 35, "most jobs should place");
        assert!(results.instances_used <= 12);
    }

    #[test]
    fn characterized_outnumbers_named() {
        // The paper's headline gap: 385 characterized vs 277 named.
        let results = study();
        assert!(
            results.characterized() >= results.named(),
            "characterized {} < named {}",
            results.characterized(),
            results.named()
        );
        // And a decent majority is characterized at this light load.
        assert!(
            results.characterized() as f64 >= 0.5 * results.records.len() as f64,
            "characterized {}/{}",
            results.characterized(),
            results.records.len()
        );
    }

    #[test]
    fn never_trained_families_are_never_named() {
        let results = study();
        for r in &results.records {
            if !r.in_training {
                assert!(!r.name_correct, "{} cannot be named", r.family);
            }
        }
    }

    #[test]
    fn per_label_counts_sum_to_records() {
        let results = study();
        let total: usize = results.per_label().iter().map(|&(_, n, _, _)| n).sum();
        assert_eq!(total, results.records.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = study();
        let b = study();
        assert_eq!(a.named(), b.named());
        assert_eq!(a.characterized(), b.characterized());
    }
}
