//! The detection engine: iterative profiling + recommendation + the
//! multi-co-resident disentangling moves of paper §3.3.
//!
//! Each detection iteration takes a 2–3 benchmark snapshot ([`bolt_probes`])
//! and feeds it to the hybrid recommender. If no match clears the 0.1
//! correlation threshold, either the application type was never seen or the
//! signal entangles several co-residents; Bolt then:
//!
//! * adds an extra **core** benchmark when the first core reading was
//!   non-zero (hyperthreads are never shared between instances, so core
//!   readings isolate the core-sharing co-runner), or
//! * falls back to **shutter profiling** when no core is shared, scoring
//!   the low-pressure frame (one co-resident alone) and the residual.
//!
//! Detection repeats every `interval_s` (default 20 s, Fig. 10a) to track
//! application phases (Fig. 8).
//!
//! Hunts are oblivious to probe batching: when the cluster snapshot they
//! probe carries a shared sweep memo (`Cluster::share_sweeps`, which the
//! service always attaches), repeated sweeps against the same server are
//! answered from another hunt's memoized result with byte-identical
//! values, so nothing in this engine changes between batched and
//! unbatched execution.

use std::sync::Arc;

use rand::Rng;

use bolt_probes::{Profiler, ProfilerConfig, ShutterConfig, Snapshot};
use bolt_recommender::{HybridRecommender, Recommendation, RecommenderStats, WarmShortlist};
use bolt_sim::{Cluster, FaultPlan, ProbeFaultKind, TraceEvent, VmId, MAX_PLAN_EVENTS};
use bolt_workloads::{AppLabel, ResourceCharacteristics};

use crate::fingerprint::MrcFingerprint;
use crate::telemetry::{Counter, Phase, Telemetry};
use crate::BoltError;

/// Why a detection's verdict should not be trusted at face value. Graceful
/// degradation under churn: the detector says *why* it is unsure instead of
/// returning a confident wrong label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The sample-validity screen saw a pressure discontinuity between the
    /// two sweeps of the window: the co-resident set (or a server's
    /// capacity) shifted mid-measurement.
    ChurnDetected,
    /// The retry/backoff probe budget ran out before a clean window was
    /// found; the verdict is the best effort from contaminated data.
    BudgetExhausted,
    /// The window produced too few usable samples (e.g. a measurement
    /// blackout) to attempt matching at all.
    InsufficientSamples,
    /// The hunt experienced injected probe faults (dropped samples, noise
    /// bursts) even though the final window passed the validity screen;
    /// the verdict may rest on contaminated measurements. Set by the
    /// service layer, which refuses to pass fault-touched verdicts off as
    /// clean completions.
    FaultTainted,
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradedReason::ChurnDetected => "churn detected mid-window",
            DegradedReason::BudgetExhausted => "probe budget exhausted",
            DegradedReason::InsufficientSamples => "insufficient usable samples",
            DegradedReason::FaultTainted => "probe faults touched the hunt",
        })
    }
}

/// Bounded re-probe policy for churn-robust detection: contaminated or
/// blacked-out windows are retried after a growing backoff, with all probe
/// time charged against an explicit budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Extra windows allowed beyond the regular iteration schedule.
    pub max_retries: usize,
    /// Wait before the first re-probe (simulated seconds).
    pub initial_backoff_s: f64,
    /// Backoff growth factor per retry.
    pub backoff_mult: f64,
    /// Total probe-seconds budget across all windows and retries.
    pub probe_budget_s: f64,
    /// When true, an exhausted budget aborts with
    /// [`BoltError::DetectionAborted`] instead of returning a degraded
    /// best-effort detection.
    pub abort_on_exhaustion: bool,
}

impl RetryPolicy {
    /// Rejects a retry count above [`MAX_PLAN_EVENTS`]: each retry is one
    /// more probe window.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::InvalidExperiment`] naming the field.
    pub(crate) fn validate(&self) -> Result<(), BoltError> {
        bound_count("retry max_retries", self.max_retries)
    }
}

/// Rejects a loop trip count above [`MAX_PLAN_EVENTS`], the ceiling every
/// driver puts on the work one config can ask for.
pub(crate) fn bound_count(field: &str, count: usize) -> Result<(), BoltError> {
    if count as f64 <= MAX_PLAN_EVENTS {
        return Ok(());
    }
    Err(BoltError::InvalidExperiment {
        reason: format!("{field} of {count} exceeds {MAX_PLAN_EVENTS:e}"),
    })
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            initial_backoff_s: 15.0,
            backoff_mult: 2.0,
            probe_budget_s: 1.0e9,
            abort_on_exhaustion: false,
        }
    }
}

/// Detection-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Seconds between detection iterations (paper default: 20 s).
    pub interval_s: f64,
    /// Iterations after which detection gives up (paper: jobs not
    /// identified by the sixth iteration did not benefit from more).
    pub max_iterations: usize,
    /// Profiling policy.
    pub profiler: ProfilerConfig,
    /// Shutter-mode parameters for the no-shared-core fallback.
    pub shutter: ShutterConfig,
    /// Enables the shutter fallback (ablation switch).
    pub enable_shutter: bool,
    /// Enables mixture decomposition (ablation switch); when off, every
    /// signal is matched as if it came from a single co-resident.
    pub enable_decomposition: bool,
    /// Enables the temporal-differencing verdict (ablation switch).
    pub enable_differencing: bool,
    /// Enables the miss-rate-curve channel: a cache-allocation sweep per
    /// window whose curve breaks near-degenerate decomposition ties.
    /// Off by default — the pressure-only pipeline is the paper baseline.
    pub mrc_channel: bool,
    /// Enables the anytime iterative-deepening window: probes are taken
    /// one batch at a time in expected-information order, the
    /// decomposition is refined after each batch, and the window returns
    /// the moment its confidence crosses
    /// [`DetectorConfig::confidence_threshold`]. Off by default — the
    /// fixed-shape window is the paper baseline and stays byte-identical.
    pub anytime: bool,
    /// Confidence at which an anytime window stops deepening.
    pub confidence_threshold: f64,
    /// Probe budget per anytime window (individual microbenchmark runs,
    /// including the seed snapshot). The default matches the fixed
    /// window's nominal two-sweep cost, so a window that never converges
    /// ends up with the same signal quality the baseline gets — the
    /// savings come entirely from early exits, never from a ceiling on
    /// hard cases.
    pub anytime_max_probes: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            interval_s: 20.0,
            max_iterations: 6,
            profiler: ProfilerConfig::default(),
            shutter: ShutterConfig {
                frames: 12,
                interval_s: 0.8,
                frame_s: 0.03,
            },
            enable_shutter: true,
            enable_decomposition: true,
            enable_differencing: true,
            mrc_channel: false,
            anytime: false,
            confidence_threshold: 0.7,
            anytime_max_probes: 20,
        }
    }
}

impl DetectorConfig {
    /// The simulated span one hunt's fault plan covers: every iteration's
    /// interval plus probing slack, and a tail for retries.
    pub(crate) fn fault_horizon_s(&self) -> f64 {
        self.max_iterations.max(1) as f64 * (self.interval_s + 120.0) + 600.0
    }

    /// Rejects settings no hunt can run with, so the drivers
    /// ([`run_experiment`](crate::run_experiment),
    /// [`run_service`](crate::run_service)) fail at the door instead of
    /// panicking or reporting NaN sim times.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::InvalidExperiment`] naming the first bad field,
    /// including an iteration, shutter-frame or anytime-probe count above
    /// [`MAX_PLAN_EVENTS`].
    pub(crate) fn validate(&self) -> Result<(), BoltError> {
        bound_count("detector max_iterations", self.max_iterations)?;
        bound_count("detector shutter frames", self.shutter.frames)?;
        bound_count("detector anytime_max_probes", self.anytime_max_probes)?;
        let interval = self.interval_s;
        let reason = if !self.confidence_threshold.is_finite() {
            // `confidence >= NaN` is always false: a NaN threshold would
            // silently never stop an anytime window early.
            "a finite confidence threshold"
        } else if !(interval.is_finite() && interval >= 0.0) {
            // Every hunt clock advances by the interval: a NaN or negative
            // one would put NaN or backwards sim times into the records.
            "a finite, non-negative detection interval"
        } else if !(self.shutter.interval_s.is_finite() && self.shutter.interval_s >= 0.0) {
            // Shutter frames are probed at `t + i * interval`: a NaN or
            // infinite one reaches the frame ranking as NaN totals.
            "a finite, non-negative shutter interval"
        } else if !(self.shutter.frame_s.is_finite() && self.shutter.frame_s >= 0.0) {
            // The frame length is part of every shutter capture's duration,
            // which advances the hunt clock.
            "a finite, non-negative shutter frame length"
        } else {
            return Ok(());
        };
        Err(BoltError::InvalidExperiment {
            reason: format!("detector needs {reason}"),
        })
    }
}

/// The outcome of one detection iteration: one verdict per co-resident
/// Bolt believes it disentangled, strongest first.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Per-co-resident verdicts, primary first. Empty means "idle host".
    pub verdicts: Vec<Recommendation>,
    /// The noise-averaged observation sweep this detection matched
    /// against; feed it back as the `baseline` of a later detection to
    /// difference across iterations.
    pub sweep: Vec<(bolt_workloads::Resource, f64)>,
    /// The profiling snapshot that produced them.
    pub snapshot: Snapshot,
    /// Simulated seconds this iteration consumed (profiling + any
    /// fallback).
    pub duration_s: f64,
    /// True if the shutter fallback ran.
    pub used_shutter: bool,
    /// How much to trust the primary verdict, in `[0, 1]`: the primary
    /// match correlation, damped when the window was contaminated. A
    /// confidently idle host reads 1.0.
    pub confidence: f64,
    /// Set when the verdict is degraded: churn contaminated the window or
    /// the probe budget ran out. The service reports it as a degraded
    /// outcome, and the gated attack planners
    /// ([`craft_attack_guarded`](crate::attacks::dos::craft_attack_guarded),
    /// [`plan_helper_target`](crate::attacks::rfa::plan_helper_target))
    /// refuse any `Some`.
    pub degraded: Option<DegradedReason>,
    /// The observed cache-allocation sweep, when the miss-rate-curve
    /// channel ran this window. `None` whenever the channel is off or
    /// the window ended before the sweep (idle, blackout, no signal).
    pub mrc: Option<MrcFingerprint>,
    /// Deepening statistics when the anytime engine produced this
    /// detection; `None` on the fixed-shape window.
    pub anytime: Option<crate::anytime::AnytimeInfo>,
}

impl Detection {
    /// A detection that reached no verdict: an idle host, a blacked-out
    /// window, or a signal too weak to match.
    pub(crate) fn empty(
        snapshot: Snapshot,
        sweep: Vec<(bolt_workloads::Resource, f64)>,
        confidence: f64,
        degraded: Option<DegradedReason>,
        anytime: Option<crate::anytime::AnytimeInfo>,
    ) -> Detection {
        Detection {
            duration_s: snapshot.duration_s,
            used_shutter: false,
            verdicts: Vec::new(),
            sweep,
            snapshot,
            confidence,
            degraded,
            mrc: None,
            anytime,
        }
    }

    /// The primary verdict, if any co-resident was detected.
    pub fn primary(&self) -> Option<&Recommendation> {
        self.verdicts.first()
    }

    /// The primary verdict's label, if any match cleared the threshold.
    pub fn label(&self) -> Option<&AppLabel> {
        self.primary().and_then(|r| r.label())
    }

    /// The primary verdict's resource characteristics — the paper's point:
    /// characteristics survive even when labels fail. `None` only for an
    /// idle host.
    pub fn characteristics(&self) -> Option<&ResourceCharacteristics> {
        self.primary().map(|r| &r.characteristics)
    }

    /// All detected labels, strongest first.
    pub fn labels(&self) -> impl Iterator<Item = &AppLabel> {
        self.verdicts.iter().filter_map(|r| r.label())
    }

    /// True if any verdict's label matches `truth` (exact family+variant).
    pub fn matches_label(&self, truth: &AppLabel) -> bool {
        self.labels().any(|l| l.matches(truth))
    }

    /// True if any verdict's label shares `truth`'s family.
    pub fn matches_family(&self, truth: &AppLabel) -> bool {
        self.labels().any(|l| l.same_family(truth))
    }

    /// True if any verdict's characteristics match `truth`.
    pub fn matches_characteristics(&self, truth: &ResourceCharacteristics) -> bool {
        self.verdicts
            .iter()
            .any(|r| r.characteristics.matches(truth))
    }
}

/// Filters a snapshot's readings into recommendation observations: when no
/// co-resident shares a physical core with the adversary, core readings of
/// zero mean "cannot see", not "the co-resident is idle there" — pinning
/// them as observations would poison the completed profile, so they are
/// dropped and the core resources are left to the completion stage.
pub(crate) fn usable_observations(snapshot: &Snapshot) -> Vec<(bolt_workloads::Resource, f64)> {
    let blind_cores = !core_signal_usable(snapshot);
    snapshot
        .observations()
        .into_iter()
        .filter(|(r, _)| !(blind_cores && r.is_core()))
        .collect()
}

/// Orients a sweep difference toward the load increase and drops the
/// noise floor: the result is (approximately) Δload × the changing
/// application's fingerprint.
pub(crate) fn orient_difference(
    before: &[(bolt_workloads::Resource, f64)],
    after: &[(bolt_workloads::Resource, f64)],
) -> Vec<(bolt_workloads::Resource, f64)> {
    let mut signed_total = 0.0;
    let mut diffs = Vec::new();
    for &(r, b) in after {
        if let Some(&(_, a)) = before.iter().find(|&&(br, _)| br == r) {
            signed_total += b - a;
            diffs.push((r, a, b));
        }
    }
    diffs
        .into_iter()
        .map(|(r, a, b)| {
            let d = if signed_total >= 0.0 { b - a } else { a - b };
            (r, if d.abs() < 2.5 { 0.0 } else { d.max(0.0) })
        })
        .collect()
}

/// The sample-validity screen: a measurement window is contaminated when
/// the two sweeps disagree sharply on several resources at once. One
/// resource drifting is an application phase (useful signal, fed to the
/// differencing verdict); half the fingerprint jumping in a 25-second gap
/// means the co-resident set itself changed mid-window.
fn window_contaminated(
    sweep1: &[(bolt_workloads::Resource, f64)],
    sweep2: &[(bolt_workloads::Resource, f64)],
) -> bool {
    let mut jumps = 0usize;
    let mut total = 0.0;
    for &(r, a) in sweep1 {
        if let Some(&(_, b)) = sweep2.iter().find(|&&(sr, _)| sr == r) {
            let d = (b - a).abs();
            total += d;
            if d > 15.0 {
                jumps += 1;
            }
        }
    }
    jumps >= 3 && total > 75.0
}

/// Allocation levels per cache sweep when the miss-rate-curve channel is
/// on.
const MRC_POINTS: usize = 8;

/// Minimum core reading (percentage points) for the core channel to carry
/// a usable signal. Static core sharing produces readings well above this;
/// scheduler-float leakage under weak visibility (VMs) sits below it and
/// would only feed noise into the disentangler.
pub(crate) const CORE_SIGNAL_FLOOR: f64 = 12.0;

pub(crate) fn core_signal_usable(snapshot: &Snapshot) -> bool {
    snapshot
        .readings
        .iter()
        .any(|r| r.resource.is_core() && r.pressure >= CORE_SIGNAL_FLOOR)
}

/// The cluster a detection window observes. Legacy paths probe a frozen
/// cluster; churn-aware paths probe a live one that a [`FaultPlan`] evolves
/// *between* the window's two sweeps — genuine mid-window contamination.
/// The `Fixed` arm makes every hook a no-op, so chaos-off detection runs
/// the exact pre-chaos instruction sequence.
pub(crate) enum ProbeWorld<'a> {
    /// A frozen cluster (the pre-chaos behavior).
    Fixed(&'a Cluster),
    /// A live cluster evolved by a compiled fault plan.
    Live {
        cluster: &'a mut Cluster,
        plan: &'a mut FaultPlan,
        /// Index of this measurement window within the hunt, for the
        /// stateless probe-fault draw.
        window: u64,
    },
}

impl ProbeWorld<'_> {
    pub(crate) fn cluster(&self) -> &Cluster {
        match self {
            ProbeWorld::Fixed(c) => c,
            ProbeWorld::Live { cluster, .. } => cluster,
        }
    }

    /// Applies every fault due by simulated time `t`; returns how many
    /// were injected. No-op (and no RNG use) on a fixed world.
    pub(crate) fn advance(&mut self, t: f64) -> Result<u64, BoltError> {
        match self {
            ProbeWorld::Fixed(_) => Ok(0),
            ProbeWorld::Live { cluster, plan, .. } => Ok(plan.apply_due(cluster, t)?),
        }
    }

    /// The probe-level fault verdict for this window, if any.
    pub(crate) fn probe_fault(&self) -> Option<ProbeFaultKind> {
        match self {
            ProbeWorld::Fixed(_) => None,
            ProbeWorld::Live { plan, window, .. } => plan.probe_fault(*window),
        }
    }

    /// Whether faults can occur at all. The validity screen only runs on
    /// live worlds: on a frozen cluster an inter-sweep discontinuity *is*
    /// the victim's load-pattern phase change — exactly the signal temporal
    /// differencing exists to read, never evidence of churn.
    pub(crate) fn is_live(&self) -> bool {
        matches!(self, ProbeWorld::Live { .. })
    }
}

/// The detection engine bound to one fitted recommender.
///
/// The recommender is held behind an [`Arc`]: cloning a detector (or
/// building many from the one model a driver fits per run) shares the
/// trained model rather than duplicating its factor matrices, and all
/// `Parallelism::Threads(n)` hunt workers read the same fit.
#[derive(Debug, Clone)]
pub struct Detector {
    pub(crate) recommender: Arc<HybridRecommender>,
    pub(crate) profiler: Profiler,
    pub(crate) config: DetectorConfig,
}

impl Detector {
    /// Creates a detector. Accepts either an owned
    /// [`HybridRecommender`] (wrapped on the way in) or a shared
    /// `Arc<HybridRecommender>`, such as
    /// [`fit_recommender`](crate::experiment::fit_recommender) returns.
    pub fn new(recommender: impl Into<Arc<HybridRecommender>>, config: DetectorConfig) -> Self {
        Detector {
            profiler: Profiler::new(config.profiler),
            recommender: recommender.into(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The underlying recommender.
    pub fn recommender(&self) -> &HybridRecommender {
        &self.recommender
    }

    /// The shared handle to the underlying recommender (cheap to clone;
    /// hands the same trained model to other detectors or threads).
    pub fn recommender_arc(&self) -> Arc<HybridRecommender> {
        Arc::clone(&self.recommender)
    }

    /// Runs one detection iteration from `adversary`'s position at time
    /// `t`, applying the §3.3 disentangling moves when the first
    /// recommendation fails to match.
    ///
    /// `baseline` is an optional observation sweep from a *previous*
    /// iteration. Differencing against a minutes-old baseline sees slow
    /// load drift (diurnal services) that the within-iteration gap cannot,
    /// which is what breaks stable mixture ambiguities over the iterative
    /// detection loop.
    ///
    /// Phase spans, probe-sample counts and per-resource pressure gauges
    /// record into `telemetry` (pass [`Telemetry::disabled`] to record
    /// nothing). The instrumentation points are the pipeline phases: the
    /// probe sweep (snapshot + widening + second sweep), content matching,
    /// mixture decomposition, the shutter fallback, and the
    /// plain-recommendation (SGD completion) fallback.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError`] if the adversary VM is unknown or the
    /// numerical pipeline rejects the signal.
    pub fn detect<R: Rng>(
        &self,
        cluster: &Cluster,
        adversary: VmId,
        t: f64,
        baseline: Option<&[(bolt_workloads::Resource, f64)]>,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<Detection, BoltError> {
        self.detect_window(
            &mut ProbeWorld::Fixed(cluster),
            adversary,
            t,
            baseline,
            rng,
            telemetry,
        )
    }

    /// One detection iteration against a cluster that a [`FaultPlan`] keeps
    /// evolving: faults due before the window apply up front, faults due
    /// mid-window apply between the two sweeps (contaminating the very
    /// measurement), and probe-level faults drop, truncate, or black out
    /// samples. Injected faults land in `telemetry` as cluster events and
    /// [`Counter::FaultsInjected`] increments. `window` indexes this
    /// measurement window within the hunt (for the deterministic
    /// probe-fault draw).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Detector::detect`], plus simulator errors from
    /// applying the fault plan.
    #[allow(clippy::too_many_arguments)]
    pub fn detect_churn_telemetry<R: Rng>(
        &self,
        cluster: &mut Cluster,
        plan: &mut FaultPlan,
        window: u64,
        adversary: VmId,
        t: f64,
        baseline: Option<&[(bolt_workloads::Resource, f64)]>,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<Detection, BoltError> {
        self.detect_window(
            &mut ProbeWorld::Live {
                cluster,
                plan,
                window,
            },
            adversary,
            t,
            baseline,
            rng,
            telemetry,
        )
    }

    /// The shared window pipeline behind both `detect*` families. The
    /// `Fixed` world keeps every chaos hook a no-op so the legacy paths
    /// stay byte-identical; the `Live` world mutates between sweeps.
    /// With [`DetectorConfig::anytime`] set, the fixed-shape pipeline is
    /// replaced wholesale by the iterative-deepening window in
    /// [`crate::anytime`].
    fn detect_window<R: Rng>(
        &self,
        world: &mut ProbeWorld<'_>,
        adversary: VmId,
        t: f64,
        baseline: Option<&[(bolt_workloads::Resource, f64)]>,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<Detection, BoltError> {
        if self.config.anytime {
            return self.detect_anytime_window(world, adversary, t, baseline, rng, telemetry);
        }
        // Faults scheduled before the window begins are already history.
        let pre_faults = world.advance(t)?;
        telemetry.count(Counter::FaultsInjected, pre_faults);

        let sweep_clock = telemetry.begin();
        let mut snapshot = self.profiler.snapshot(world.cluster(), adversary, t, rng)?;

        // An idle host: every probed resource reads (near) zero. Matching
        // a zero signal against anything would be spurious — report "no
        // co-resident detected".
        if snapshot.readings.iter().all(|r| r.pressure <= 6.0) {
            telemetry.count(Counter::ProbeSamples, snapshot.readings.len() as u64);
            telemetry.span(Phase::ProbeSweep, t, snapshot.duration_s, sweep_clock);
            return Ok(Detection::empty(snapshot, Vec::new(), 1.0, None, None));
        }

        // Something is here: widen the snapshot to the full resource set
        // the current visibility allows, then take a *second* sweep after
        // a gap. The two sweeps serve double duty — their average halves
        // the measurement noise feeding the decomposition, and their
        // difference exposes any co-resident whose input load moved in
        // between (the shutter principle at iteration timescale, and the
        // only signal that separates two otherwise-ambiguous
        // decompositions of a static mixture).
        let core_usable = core_signal_usable(&snapshot);
        if core_usable {
            let probed_cores =
                |s: &Snapshot| s.readings.iter().filter(|x| x.resource.is_core()).count();
            while probed_cores(&snapshot) < bolt_workloads::Resource::CORE.len() {
                self.profiler.extra_core_probe(
                    world.cluster(),
                    adversary,
                    t,
                    &mut snapshot,
                    rng,
                )?;
            }
        }
        self.probe_missing_uncore(world.cluster(), adversary, t, &mut snapshot, rng)?;

        let mut sweep1 = usable_observations(&snapshot);
        let gap_s = 25.0;
        let t2 = t + snapshot.duration_s + gap_s;

        // Probe-level fault for this window: lose a sample, cut one short,
        // or black the whole window out. A blackout leaves nothing to
        // match — report "insufficient samples" and charge the lost time.
        if let Some(kind) = world.probe_fault() {
            telemetry.count(Counter::FaultsInjected, 1);
            telemetry.cluster_event(TraceEvent::ProbeFault {
                vm: adversary,
                kind,
                at: t + snapshot.duration_s,
            });
            match kind {
                ProbeFaultKind::Blackout => {
                    telemetry.count(Counter::WindowsDiscarded, 1);
                    telemetry.count(Counter::ProbeSamples, snapshot.readings.len() as u64);
                    snapshot.duration_s += gap_s;
                    telemetry.span(Phase::ProbeSweep, t, snapshot.duration_s, sweep_clock);
                    let degraded = Some(DegradedReason::InsufficientSamples);
                    return Ok(Detection::empty(snapshot, Vec::new(), 0.0, degraded, None));
                }
                ProbeFaultKind::DroppedSample => {
                    sweep1.pop();
                }
                ProbeFaultKind::TruncatedSample => {
                    if let Some(last) = sweep1.last_mut() {
                        last.1 *= 0.5;
                    }
                }
            }
        }

        // Mid-window churn: faults due before the second sweep land *now*,
        // so sweep2 observes a genuinely different co-resident set.
        let mid_faults = world.advance(t2)?;
        telemetry.count(Counter::FaultsInjected, mid_faults);

        let mut sweep2: Vec<(bolt_workloads::Resource, f64)> = Vec::with_capacity(sweep1.len());
        for &(r, _) in &sweep1 {
            let reading = bolt_probes::Microbenchmark::new(r).measure(
                world.cluster(),
                adversary,
                t2,
                &self.config.profiler.ramp,
                rng,
            )?;
            snapshot.duration_s += reading.duration_s;
            sweep2.push((r, reading.pressure));
        }
        snapshot.duration_s += gap_s;
        telemetry.count(
            Counter::ProbeSamples,
            (snapshot.readings.len() + sweep2.len()) as u64,
        );
        telemetry.span(Phase::ProbeSweep, t, snapshot.duration_s, sweep_clock);

        let averaged: Vec<(bolt_workloads::Resource, f64)> = sweep1
            .iter()
            .zip(&sweep2)
            .map(|(&(r, a), &(_, b))| (r, (a + b) / 2.0))
            .collect();
        for &(r, v) in &averaged {
            telemetry.gauge(r, v);
        }

        // The informative-signal gate: matching needs at least two
        // resources carrying signal clearly above the probe noise floor —
        // a fully-isolated co-resident leaks a lone residual at best, and
        // must stay undetected.
        if averaged.iter().filter(|&&(_, v)| v > 8.0).count() < 2 {
            return Ok(Detection::empty(snapshot, averaged, 0.0, None, None));
        }

        // The miss-rate-curve channel: a cache-allocation sweep taken
        // after the pressure probes. With the channel off it is skipped
        // whole — no RNG draw, no telemetry — so the baseline stays
        // bit-identical.
        let mrc_fp = if self.config.mrc_channel {
            let fp = self.mrc_sweep(world, adversary, t + snapshot.duration_s, rng, telemetry)?;
            snapshot.duration_s += fp.duration_s;
            Some(fp)
        } else {
            None
        };
        let mrc_observed = mrc_fp.as_ref().map(|f| f.points.as_slice());

        let mut verdicts: Vec<Recommendation> = Vec::new();
        let mut used_shutter = false;

        // Temporal-differencing verdict first: the highest-confidence
        // evidence a window has.
        if self.config.enable_differencing {
            let mut candidates = vec![orient_difference(&sweep1, &sweep2)];
            if let Some(base) = baseline {
                candidates.push(orient_difference(base, &averaged));
            }
            let at = t + snapshot.duration_s;
            verdicts.extend(self.difference_verdict(candidates, at, telemetry)?);
        }

        // Mixture decomposition on the noise-averaged observations.
        let mut rec_stats = RecommenderStats::default();
        let components = self.decompose(
            world.cluster(),
            &averaged,
            core_usable,
            mrc_observed,
            None,
            &mut rec_stats,
            t + snapshot.duration_s,
            telemetry,
        )?;
        telemetry.count(Counter::ShortlistPairHits, rec_stats.shortlist_hits);
        telemetry.count(Counter::ExactPairSearches, rec_stats.exact_searches);
        telemetry.count(Counter::MrcTieBreaks, rec_stats.mrc_tie_breaks);
        for &(idx, _, explained) in &components {
            verdicts.push(self.recommender.component_recommendation(idx, explained));
        }

        // A weak decomposition with no core channel smells like entangled
        // phases (or an unseen app type): shutter mode hunts for a
        // low-load frame exposing a single co-resident (§3.3, Fig. 3).
        let weak = components
            .first()
            .map(|&(_, _, e)| e < 0.55)
            .unwrap_or(true);
        if weak && !core_usable && self.config.enable_shutter {
            used_shutter = true;
            let cluster = world.cluster();
            if let Some((low, rest)) =
                self.shutter_verdicts(cluster, adversary, t, &mut snapshot, rng, telemetry)?
            {
                verdicts.insert(0, low);
                verdicts.extend(rest);
            }
        }

        // Fallback: if no structural move produced a verdict, use the
        // plain full-signal recommendation (single co-resident at steady
        // load is exactly this case).
        if verdicts.is_empty() {
            let at = t + snapshot.duration_s;
            let plain = self.plain_recommendation(&averaged, at, rng, telemetry)?;
            if plain.best().is_some() {
                verdicts.push(plain);
            }
        }
        verdicts.truncate(4);

        // Sample-validity screen + confidence annotation. Pure computation
        // over the already-collected sweeps: it never alters the verdicts,
        // the control flow above, or the RNG stream, so legacy behavior is
        // bit-preserved — callers that ignore the new fields see exactly
        // the pre-chaos results.
        let contaminated = world.is_live() && window_contaminated(&sweep1, &sweep2);
        let mut confidence = verdicts
            .first()
            .and_then(|v| v.best())
            .map(|s| s.correlation.clamp(0.0, 1.0))
            .unwrap_or(0.0);
        let degraded = if contaminated {
            confidence *= 0.4;
            Some(DegradedReason::ChurnDetected)
        } else {
            None
        };

        Ok(Detection {
            duration_s: snapshot.duration_s,
            used_shutter,
            verdicts,
            sweep: averaged,
            snapshot,
            confidence,
            degraded,
            mrc: mrc_fp,
            anytime: None,
        })
    }

    /// The miss-rate-curve channel: one cache-allocation sweep at `t`.
    /// Its curve rides into the decomposition as a tie-breaker over
    /// near-degenerate candidate mixtures. The per-window probe fault is a
    /// stateless draw, so the sweep suffers the same fault the pressure
    /// probes did.
    pub(crate) fn mrc_sweep<R: Rng>(
        &self,
        world: &ProbeWorld<'_>,
        adversary: VmId,
        t: f64,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<MrcFingerprint, BoltError> {
        let mrc_clock = telemetry.begin();
        let mut reading = bolt_probes::measure_mrc_sweep(
            world.cluster(),
            adversary,
            t,
            MRC_POINTS,
            &self.config.profiler.ramp,
            rng,
        )?;
        match world.probe_fault() {
            // A blacked-out window never reaches the sweep.
            None | Some(ProbeFaultKind::Blackout) => {}
            Some(ProbeFaultKind::DroppedSample) => {
                // The last level is lost; hold the previous one so the
                // curve keeps its length.
                if reading.response.len() >= 2 {
                    let held = reading.response[reading.response.len() - 2];
                    *reading.response.last_mut().expect("non-empty sweep") = held;
                }
            }
            Some(ProbeFaultKind::TruncatedSample) => {
                if let Some(last) = reading.response.last_mut() {
                    *last *= 0.5;
                }
            }
        }
        telemetry.count(Counter::MrcProbePoints, reading.response.len() as u64);
        telemetry.span(Phase::MrcSweep, t, reading.duration_s, mrc_clock);
        Ok(MrcFingerprint {
            points: reading.response,
            duration_s: reading.duration_s,
        })
    }

    /// The temporal-differencing verdict: the loudest candidate difference
    /// signal, matched against the training subspace. It saw one
    /// application's load change alone, so it is the highest-confidence
    /// evidence a window has. Candidates are the within-window gap and
    /// the drift since a previous iteration's baseline sweep (diurnal
    /// services barely move in 25 s but clearly in minutes).
    pub(crate) fn difference_verdict(
        &self,
        candidates: Vec<Vec<(bolt_workloads::Resource, f64)>>,
        at: f64,
        telemetry: &mut Telemetry,
    ) -> Result<Option<Recommendation>, BoltError> {
        let loudest = candidates.into_iter().max_by(|a, b| {
            let ma: f64 = a.iter().map(|&(_, v)| v).sum();
            let mb: f64 = b.iter().map(|&(_, v)| v).sum();
            ma.partial_cmp(&mb).expect("finite magnitudes")
        });
        let Some(diff) = loudest else {
            return Ok(None);
        };
        let magnitude: f64 = diff.iter().map(|&(_, v)| v).sum();
        if magnitude > 18.0 && diff.len() >= 2 {
            let match_clock = telemetry.begin();
            let scores = self.recommender.match_subspace(&diff)?;
            telemetry.span(Phase::ContentMatch, at, 0.0, match_clock);
            if let Some(top) = scores.first().filter(|top| top.correlation > 0.6) {
                let ex = self.recommender.training_data().example(top.index);
                return Ok(Some(Recommendation {
                    characteristics: ResourceCharacteristics::from_pressure(&ex.reference),
                    completed: ex.pressure,
                    scores,
                }));
            }
        }
        Ok(None)
    }

    /// Mixture decomposition of `obs`, recording a
    /// [`Phase::Decomposition`] span at `at`. With a usable core channel,
    /// every candidate is tried under each visibility hypothesis
    /// (core-sharer / unshared / scheduler-float); otherwise decomposition
    /// runs on the uncore dimensions alone.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decompose(
        &self,
        cluster: &Cluster,
        obs: &[(bolt_workloads::Resource, f64)],
        core_usable: bool,
        mrc_observed: Option<&[f64]>,
        warm: Option<&mut WarmShortlist>,
        stats: &mut RecommenderStats,
        at: f64,
        telemetry: &mut Telemetry,
    ) -> Result<Vec<(usize, f64, f64)>, BoltError> {
        let core_obs: Vec<_> = obs.iter().filter(|(r, _)| r.is_core()).copied().collect();
        let uncore_obs: Vec<_> = obs.iter().filter(|(r, _)| r.is_uncore()).copied().collect();
        let max_components = if self.config.enable_decomposition {
            3
        } else {
            1
        };
        let decomp_clock = telemetry.begin();
        let components = if core_usable && core_obs.len() >= 2 {
            let float = cluster.isolation().float_visibility();
            self.recommender.decompose_with_core(
                &core_obs,
                &uncore_obs,
                float,
                max_components,
                mrc_observed,
                warm,
                stats,
            )?
        } else if uncore_obs.len() >= 2 {
            let rec = &self.recommender;
            rec.decompose_mixture(&uncore_obs, max_components, mrc_observed, warm, stats)?
        } else {
            Vec::new()
        };
        telemetry.span(Phase::Decomposition, at, 0.0, decomp_clock);
        Ok(components)
    }

    /// Shutter mode (§3.3, Fig. 3): hunts for a low-load frame exposing a
    /// single co-resident, charging the capture to `snapshot`. Returns the
    /// low frame's verdict (one co-resident alone) and, when it scores,
    /// the residual's (the rest); `None` when the capture shows no usable
    /// swing or the low frame matches nothing.
    pub(crate) fn shutter_verdicts<R: Rng>(
        &self,
        cluster: &Cluster,
        adversary: VmId,
        t: f64,
        snapshot: &mut Snapshot,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<Option<(Recommendation, Option<Recommendation>)>, BoltError> {
        let shutter_t = t + snapshot.duration_s;
        let shutter_clock = telemetry.begin();
        let capture =
            bolt_probes::shutter_capture(cluster, adversary, shutter_t, &self.config.shutter, rng)?;
        snapshot.duration_s += capture.duration_s;
        telemetry.count(Counter::ProbeSamples, capture.frames.len() as u64);
        let sim_duration_s = capture.duration_s;
        telemetry.span(
            Phase::ShutterCapture,
            shutter_t,
            sim_duration_s,
            shutter_clock,
        );
        if capture.swing() > 0.2 {
            let match_clock = telemetry.begin();
            let low_scores = self.recommender.score_profile(&capture.low_frame)?;
            telemetry.span(
                Phase::ContentMatch,
                t + snapshot.duration_s,
                0.0,
                match_clock,
            );
            if !low_scores.is_empty() {
                let residual = capture.residual();
                let low = Recommendation {
                    characteristics: ResourceCharacteristics::from_pressure(&capture.low_frame),
                    completed: capture.low_frame,
                    scores: low_scores,
                };
                let residual_scores = self.recommender.score_profile(&residual)?;
                let rest = (!residual_scores.is_empty()).then(|| Recommendation {
                    characteristics: ResourceCharacteristics::from_pressure(&residual),
                    completed: residual,
                    scores: residual_scores,
                });
                return Ok(Some((low, rest)));
            }
        }
        Ok(None)
    }

    /// The plain full-signal recommendation (SGD completion + content
    /// match), recording its span at `at`: the fallback when no
    /// structural move produced a verdict.
    pub(crate) fn plain_recommendation<R: Rng>(
        &self,
        obs: &[(bolt_workloads::Resource, f64)],
        at: f64,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<Recommendation, BoltError> {
        let mut stats = RecommenderStats::default();
        let completion_clock = telemetry.begin();
        let plain = self
            .recommender
            .recommend_with_stats(obs, rng, &mut stats)?;
        telemetry.span(Phase::MatrixCompletion, at, 0.0, completion_clock);
        telemetry.count(Counter::SgdIterations, stats.sgd_iterations);
        Ok(plain)
    }

    /// Probes every uncore resource the snapshot has not measured yet, so
    /// residual disentangling sees the full uncore picture.
    fn probe_missing_uncore<R: Rng>(
        &self,
        cluster: &Cluster,
        adversary: VmId,
        t: f64,
        snapshot: &mut Snapshot,
        rng: &mut R,
    ) -> Result<(), BoltError> {
        let probed: Vec<bolt_workloads::Resource> =
            snapshot.readings.iter().map(|r| r.resource).collect();
        for r in bolt_workloads::Resource::UNCORE {
            if probed.contains(&r) {
                continue;
            }
            let reading = bolt_probes::Microbenchmark::new(r).measure(
                cluster,
                adversary,
                t + snapshot.duration_s,
                &self.config.profiler.ramp,
                rng,
            )?;
            snapshot.duration_s += reading.duration_s;
            snapshot.readings.push(reading);
        }
        Ok(())
    }

    /// Runs detection iterations every `interval_s` until `accept` returns
    /// true or the iteration budget is exhausted. Returns the accepted (or
    /// last) detection and the number of iterations used — the quantity
    /// Fig. 7 histograms. Every iteration records its inner phase spans
    /// plus one [`Phase::DetectionIteration`] span covering the whole
    /// iteration.
    ///
    /// # Errors
    ///
    /// Propagates [`BoltError`] from [`Detector::detect`].
    pub fn detect_until_telemetry<R, F>(
        &self,
        cluster: &Cluster,
        adversary: VmId,
        start_t: f64,
        mut accept: F,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<(Detection, usize), BoltError>
    where
        R: Rng,
        F: FnMut(&Detection) -> bool,
    {
        let mut last: Option<(Detection, usize)> = None;
        let mut baseline: Option<Vec<(bolt_workloads::Resource, f64)>> = None;
        for i in 0..self.config.max_iterations.max(1) {
            let t = start_t + i as f64 * self.config.interval_s;
            let iteration_clock = telemetry.begin();
            let d = self.detect(cluster, adversary, t, baseline.as_deref(), rng, telemetry)?;
            telemetry.span(Phase::DetectionIteration, t, d.duration_s, iteration_clock);
            let done = accept(&d);
            if !d.sweep.is_empty() {
                baseline = Some(d.sweep.clone());
            }
            last = Some((d, i + 1));
            if done {
                break;
            }
        }
        Ok(last.expect("at least one iteration ran"))
    }

    /// [`Detector::detect_until_telemetry`] against a churning cluster:
    /// the [`FaultPlan`] keeps injecting faults while the hunt runs, and
    /// windows the validity screen flags (churn mid-window, blacked-out
    /// probes) are discarded and re-probed after a backoff instead of
    /// being trusted. Retries do not consume Fig. 7 iterations; they are
    /// bounded by `policy.max_retries` and by `policy.probe_budget_s` of
    /// total probe-plus-backoff time.
    ///
    /// On top of the per-window phase spans, every discarded window
    /// increments [`Counter::WindowsDiscarded`], every re-probe increments
    /// [`Counter::DetectionRetries`], and the chaos engine's cluster events
    /// (arrivals, departures, migrations, degradations) are drained into
    /// the trace after each window. `cluster` is the hunt's private
    /// snapshot: an enabled `telemetry` turns its lifecycle log on first
    /// (see [`Cluster::record_events`]); a disabled one leaves it as it
    /// was.
    ///
    /// # Errors
    ///
    /// Propagates [`BoltError`] from [`Detector::detect`], plus
    /// [`BoltError::DetectionAborted`] when the retry budget runs out
    /// with `policy.abort_on_exhaustion` set.
    #[allow(clippy::too_many_arguments)]
    pub fn detect_until_churn_telemetry<R, F>(
        &self,
        cluster: &mut Cluster,
        plan: &mut FaultPlan,
        policy: &RetryPolicy,
        adversary: VmId,
        start_t: f64,
        accept: F,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<(Detection, usize), BoltError>
    where
        R: Rng,
        F: FnMut(&Detection) -> bool,
    {
        self.detect_until_churn_elapsed_telemetry(
            cluster, plan, policy, adversary, start_t, accept, rng, telemetry,
        )
        .map(|(d, iterations, _)| (d, iterations))
    }

    /// [`Detector::detect_until_churn_telemetry`], additionally returning
    /// the total virtual time the hunt consumed — probe windows, retry
    /// backoffs, and inter-iteration intervals included — measured from
    /// `start_t` to the end of the last window. The service loop charges
    /// this against the request's deadline; `Detection::duration_s` alone
    /// covers only the final window.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Detector::detect_until_churn_telemetry`].
    #[allow(clippy::too_many_arguments)]
    pub fn detect_until_churn_elapsed_telemetry<R, F>(
        &self,
        cluster: &mut Cluster,
        plan: &mut FaultPlan,
        policy: &RetryPolicy,
        adversary: VmId,
        start_t: f64,
        mut accept: F,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<(Detection, usize, f64), BoltError>
    where
        R: Rng,
        F: FnMut(&Detection) -> bool,
    {
        let mut last: Option<(Detection, usize)> = None;
        let mut baseline: Option<Vec<(bolt_workloads::Resource, f64)>> = None;
        let mut window: u64 = 0;
        let mut retries_left = policy.max_retries;
        let mut backoff_s = policy.initial_backoff_s.max(0.0);
        // Probe time and backoff time both charge the budget, but only
        // probe time is "probed seconds" — keep them apart so the
        // exhaustion report stays honest.
        let mut probed_s = 0.0;
        let mut backoff_spent_s = 0.0;
        let mut t = start_t;
        let mut end_t = start_t;
        let mut i = 0;
        let mut churn_observed = false;
        let mut accepted = false;
        if telemetry.is_enabled() {
            cluster.record_events();
        }
        while i < self.config.max_iterations.max(1) {
            let iteration_clock = telemetry.begin();
            let mut d = self.detect_churn_telemetry(
                cluster,
                plan,
                window,
                adversary,
                t,
                baseline.as_deref(),
                rng,
                telemetry,
            )?;
            window += 1;
            for event in cluster.take_events() {
                telemetry.cluster_event(event);
            }
            telemetry.span(Phase::DetectionIteration, t, d.duration_s, iteration_clock);
            probed_s += d.duration_s;
            end_t = t + d.duration_s;

            let contaminated = matches!(
                d.degraded,
                Some(DegradedReason::ChurnDetected) | Some(DegradedReason::InsufficientSamples)
            );
            if contaminated {
                churn_observed = true;
                // Inclusive boundary: a retry whose backoff lands exactly
                // on the budget is still affordable.
                if retries_left > 0
                    && probed_s + backoff_spent_s + backoff_s <= policy.probe_budget_s
                {
                    // Discard the window and re-probe after backing off;
                    // the iteration is not consumed and the contaminated
                    // sweep never becomes a baseline.
                    retries_left -= 1;
                    telemetry.count(Counter::DetectionRetries, 1);
                    if d.degraded == Some(DegradedReason::ChurnDetected) {
                        // Blackouts already count themselves at the probe.
                        telemetry.count(Counter::WindowsDiscarded, 1);
                    }
                    backoff_spent_s += backoff_s;
                    t += d.duration_s + backoff_s;
                    backoff_s *= policy.backoff_mult.max(1.0);
                    continue;
                }
                // Out of retries (or probe time): degrade gracefully —
                // keep whatever verdict this window produced, but mark it
                // so consumers know not to act on it blindly.
                let reason = format!(
                    "retry budget exhausted after {} retries, {:.0}s into the hunt \
                     ({:.0}s probed + {:.0}s backoff of {:.0}s allowed)",
                    policy.max_retries - retries_left,
                    t + d.duration_s - start_t,
                    probed_s,
                    backoff_spent_s,
                    policy.probe_budget_s
                );
                if policy.abort_on_exhaustion {
                    return Err(BoltError::DetectionAborted { reason });
                }
                // The anytime window already returns its honest
                // best-so-far confidence at the budget edge; halving it
                // again would double-penalize. The fixed-shape window has
                // no such notion, so its contaminated verdict is damped.
                if !self.config.anytime {
                    d.confidence *= 0.5;
                }
                d.degraded = Some(DegradedReason::BudgetExhausted);
            } else {
                // A clean window proves the burst passed: the next retry
                // (if any) should start from the initial backoff again
                // rather than inherit an earlier burst's inflated wait.
                backoff_s = policy.initial_backoff_s.max(0.0);
            }

            let done = accept(&d);
            if !d.sweep.is_empty() {
                baseline = Some(d.sweep.clone());
            }
            let duration_s = d.duration_s;
            last = Some((d, i + 1));
            if done {
                accepted = true;
                break;
            }
            i += 1;
            // The next window starts one interval after this one *ended*:
            // probe time is wall-clock too, same as on the retry path.
            t += duration_s + self.config.interval_s;
        }
        let (mut d, iterations) = last.expect("at least one window ran");
        // A hunt that saw churn and still never converged cannot vouch for
        // its last verdict: some of the signal it accumulated was measured
        // against a world that changed under it. Degrade loudly instead of
        // letting the stale verdict pass as clean.
        if !accepted && churn_observed && d.degraded.is_none() {
            d.confidence *= 0.4;
            d.degraded = Some(DegradedReason::ChurnDetected);
        }
        Ok((d, iterations, end_t - start_t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_recommender::{RecommenderConfig, TrainingData};
    use bolt_sim::vm::VmRole;
    use bolt_sim::{IsolationConfig, ServerSpec};
    use bolt_workloads::{catalog, training::training_set};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDE7EC7)
    }

    #[test]
    fn validate_rejects_configs_no_hunt_can_run() {
        assert!(DetectorConfig::default().validate().is_ok());
        let bad = [
            DetectorConfig {
                confidence_threshold: f64::NAN,
                ..DetectorConfig::default()
            },
            DetectorConfig {
                interval_s: -1.0,
                ..DetectorConfig::default()
            },
            DetectorConfig {
                interval_s: f64::INFINITY,
                ..DetectorConfig::default()
            },
            DetectorConfig {
                max_iterations: usize::MAX,
                ..DetectorConfig::default()
            },
            DetectorConfig {
                shutter: ShutterConfig {
                    frames: 1_000_001,
                    ..DetectorConfig::default().shutter
                },
                ..DetectorConfig::default()
            },
            DetectorConfig {
                anytime_max_probes: usize::MAX,
                ..DetectorConfig::default()
            },
        ];
        let shutters = [
            (f64::NAN, 0.03),
            (f64::INFINITY, 0.03),
            (-0.8, 0.03),
            (0.8, f64::NAN),
            (0.8, f64::INFINITY),
            (0.8, -0.03),
        ]
        .map(|(interval_s, frame_s)| DetectorConfig {
            shutter: ShutterConfig {
                interval_s,
                frame_s,
                ..DetectorConfig::default().shutter
            },
            ..DetectorConfig::default()
        });
        let bad = bad.into_iter().chain(shutters);
        for config in bad {
            assert!(
                matches!(config.validate(), Err(BoltError::InvalidExperiment { .. })),
                "{config:?}"
            );
        }
        let at_ceiling = DetectorConfig {
            max_iterations: 1_000_000,
            ..DetectorConfig::default()
        };
        assert!(at_ceiling.validate().is_ok());
        assert!(RetryPolicy::default().validate().is_ok());
        let retries = RetryPolicy {
            max_retries: usize::MAX,
            ..RetryPolicy::default()
        };
        assert!(matches!(
            retries.validate(),
            Err(BoltError::InvalidExperiment { .. })
        ));
    }

    fn detector() -> Detector {
        let data = TrainingData::from_profiles(&training_set(7)).unwrap();
        let rec = HybridRecommender::fit(data, RecommenderConfig::default()).unwrap();
        Detector::new(rec, DetectorConfig::default())
    }

    fn cluster_with_victims(
        victims: Vec<bolt_workloads::WorkloadProfile>,
        r: &mut StdRng,
    ) -> (Cluster, VmId) {
        let mut cluster =
            Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default()).unwrap();
        let adv = catalog::memcached::profile(&catalog::memcached::Variant::Mixed, r);
        // The adversarial VM itself stays quiet while profiling.
        let adv_id = cluster.launch_on(0, adv, VmRole::Adversarial, 0.0).unwrap();
        cluster
            .set_pressure_override(adv_id, Some(bolt_workloads::PressureVector::zero()))
            .unwrap();
        for v in victims {
            cluster.launch_on(0, v, VmRole::Friendly, 0.0).unwrap();
        }
        (cluster, adv_id)
    }

    #[test]
    fn detects_single_memcached_victim() {
        let mut r = rng();
        // A production-sized service (Fig. 1's "N vCPU" victim): large
        // enough to share physical cores with the adversary.
        let victim = catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut r)
            .with_vcpus(8);
        let truth = victim.label().clone();
        let (cluster, adv) = cluster_with_victims(vec![victim], &mut r);
        let det = detector();
        let accept = |d: &Detection| d.matches_family(&truth);
        let mut off = Telemetry::disabled();
        let (d, iters) = det
            .detect_until_telemetry(&cluster, adv, 0.0, accept, &mut r, &mut off)
            .unwrap();
        assert!(iters <= 6);
        assert!(
            d.matches_family(&truth),
            "memcached not among verdicts: {:?}",
            d.labels().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn detects_spark_victim_characteristics() {
        let mut r = rng();
        let victim = catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            bolt_workloads::DatasetScale::Large,
            &mut r,
        );
        // Ground truth lives in observed space: what the isolation channel
        // hides (partitioned memory capacity) is not a detectable — or
        // attackable — characteristic of this environment.
        let truth = bolt_workloads::ResourceCharacteristics::from_pressure(
            &crate::experiment::observe_through(
                victim.base_pressure(),
                &IsolationConfig::cloud_default(),
            ),
        );
        let (cluster, adv) = cluster_with_victims(vec![victim], &mut r);
        let mut off = Telemetry::disabled();
        let d = detector()
            .detect(&cluster, adv, 30.0, None, &mut r, &mut off)
            .unwrap();
        assert!(
            d.matches_characteristics(&truth),
            "no verdict matched truth {truth}; primary: {:?}",
            d.characteristics()
        );
    }

    #[test]
    fn empty_host_yields_no_confident_label() {
        let mut r = rng();
        let (cluster, adv) = cluster_with_victims(vec![], &mut r);
        let d = detector()
            .detect(&cluster, adv, 0.0, None, &mut r, &mut Telemetry::disabled())
            .unwrap();
        // Nothing co-scheduled: no verdicts at all.
        assert!(
            d.verdicts.is_empty(),
            "empty host should yield no verdicts, got {:?}",
            d.labels().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn detect_until_counts_iterations() {
        let mut r = rng();
        let victim = catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::WordCount,
            bolt_workloads::DatasetScale::Large,
            &mut r,
        );
        let (cluster, adv) = cluster_with_victims(vec![victim], &mut r);
        // Never accept: must exhaust the budget.
        let mut off = Telemetry::disabled();
        let (_, iters) = detector()
            .detect_until_telemetry(&cluster, adv, 0.0, |_| false, &mut r, &mut off)
            .unwrap();
        assert_eq!(iters, 6);
        // Always accept: one iteration.
        let mut off = Telemetry::disabled();
        let (_, iters) = detector()
            .detect_until_telemetry(&cluster, adv, 0.0, |_| true, &mut r, &mut off)
            .unwrap();
        assert_eq!(iters, 1);
    }

    #[test]
    fn detection_duration_is_positive_and_bounded() {
        let mut r = rng();
        let victim = catalog::cassandra::profile(&catalog::cassandra::Variant::Mixed, &mut r);
        let (cluster, adv) = cluster_with_victims(vec![victim], &mut r);
        let d = detector()
            .detect(&cluster, adv, 0.0, None, &mut r, &mut Telemetry::disabled())
            .unwrap();
        // One full sweep plus the temporal-differencing sweep and gap.
        assert!(d.duration_s > 0.0 && d.duration_s < 120.0);
    }

    // ---- retry-loop accounting regressions -------------------------------
    //
    // The probe-fault draw is a pure hash of (seed, window), so a plan
    // whose windows fault in a prescribed pattern can be found by seed
    // scan — fully deterministic, no RNG state consumed.

    use crate::telemetry::TelemetryEvent;
    use bolt_sim::ChaosConfig;

    /// A zero horizon schedules no churn, so the plan injects probe
    /// faults alone, at the full-intensity rate of 0.25 per window.
    fn fault_plan_matching(pattern: &[Option<ProbeFaultKind>]) -> FaultPlan {
        let cfg = ChaosConfig::with_intensity(1.0);
        for seed in 0..500_000u64 {
            let plan = FaultPlan::compile(&cfg, seed, 0, 0.0, 0.0);
            assert!(plan.events().is_empty(), "a zero horizon is churn-free");
            if pattern
                .iter()
                .enumerate()
                .all(|(w, want)| plan.probe_fault(w as u64) == *want)
            {
                return plan;
            }
        }
        panic!("no fault-plan seed matches {pattern:?}");
    }

    /// The `(sim_start_s, sim_duration_s)` of every detection window, in
    /// execution order — the observable the accounting fixes are pinned by.
    fn window_spans(events: &[TelemetryEvent]) -> Vec<(f64, f64)> {
        events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Span {
                    phase: Phase::DetectionIteration,
                    sim_start_s,
                    sim_duration_s,
                    ..
                } => Some((*sim_start_s, *sim_duration_s)),
                _ => None,
            })
            .collect()
    }

    fn churn_setup() -> (Cluster, VmId, StdRng) {
        let mut r = rng();
        let victim = catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, &mut r)
            .with_vcpus(8);
        let (cluster, adv) = cluster_with_victims(vec![victim], &mut r);
        (cluster, adv, StdRng::seed_from_u64(0xB0FF))
    }

    #[test]
    fn clean_window_resets_the_backoff() {
        // Windows: blackout → clean → blackout. The second retry must wait
        // `initial_backoff_s` again, not the doubled backoff the first
        // burst left behind.
        let (mut cluster, adv, mut r) = churn_setup();
        let mut plan = fault_plan_matching(&[
            Some(ProbeFaultKind::Blackout),
            None,
            Some(ProbeFaultKind::Blackout),
            None,
        ]);
        let det = Detector::new(
            detector().recommender_arc(),
            DetectorConfig {
                max_iterations: 2,
                ..DetectorConfig::default()
            },
        );
        let policy = RetryPolicy {
            max_retries: 4,
            initial_backoff_s: 15.0,
            backoff_mult: 2.0,
            ..RetryPolicy::default()
        };
        let mut telemetry = Telemetry::for_unit(0);
        det.detect_until_churn_telemetry(
            &mut cluster,
            &mut plan,
            &policy,
            adv,
            30.0,
            |_| false,
            &mut r,
            &mut telemetry,
        )
        .unwrap();
        let spans = window_spans(&telemetry.into_events());
        assert_eq!(spans.len(), 4, "2 iterations + 2 retries");
        let (s0, d0) = spans[0];
        let (s1, d1) = spans[1];
        let (s2, d2) = spans[2];
        let (s3, _) = spans[3];
        assert_eq!(s0, 30.0);
        // Retry after the first blackout: probe time + initial backoff.
        assert!((s1 - (s0 + d0 + 15.0)).abs() < 1e-9, "{s1} vs {}", s0 + d0);
        // Accepted (clean) window: the next iteration starts one interval
        // after the window *ended* — probe time is wall-clock here too.
        assert!((s2 - (s1 + d1 + 20.0)).abs() < 1e-9, "{s2} vs {}", s1 + d1);
        // The clean window reset the backoff: 15 s again, not 30 s.
        assert!((s3 - (s2 + d2 + 15.0)).abs() < 1e-9, "{s3} vs {}", s2 + d2);
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        let pattern = [
            Some(ProbeFaultKind::Blackout),
            Some(ProbeFaultKind::Blackout),
        ];
        let policy = RetryPolicy {
            max_retries: 1,
            initial_backoff_s: 10.0,
            ..RetryPolicy::default()
        };
        // One iteration only: both windows of the pattern, nothing after.
        let det = Detector::new(
            detector().recommender_arc(),
            DetectorConfig {
                max_iterations: 1,
                ..DetectorConfig::default()
            },
        );
        // First pass: unlimited budget, to learn the window's probe cost.
        let (mut cluster, adv, mut r) = churn_setup();
        let mut plan = fault_plan_matching(&pattern);
        let mut telemetry = Telemetry::for_unit(0);
        det.detect_until_churn_telemetry(
            &mut cluster,
            &mut plan,
            &policy,
            adv,
            30.0,
            |_| false,
            &mut r,
            &mut telemetry,
        )
        .unwrap();
        let spans = window_spans(&telemetry.into_events());
        assert_eq!(spans.len(), 2, "one retry under an unlimited budget");
        let d0 = spans[0].1;

        // Second pass: a budget of exactly probe-cost + backoff. The
        // boundary is inclusive, so the retry must still happen.
        let (mut cluster, adv, mut r) = churn_setup();
        let mut plan = fault_plan_matching(&pattern);
        let exact = RetryPolicy {
            probe_budget_s: d0 + 10.0,
            ..policy
        };
        let mut telemetry = Telemetry::for_unit(0);
        let (d, _) = det
            .detect_until_churn_telemetry(
                &mut cluster,
                &mut plan,
                &exact,
                adv,
                30.0,
                |_| false,
                &mut r,
                &mut telemetry,
            )
            .unwrap();
        let events = telemetry.into_events();
        assert_eq!(
            window_spans(&events).len(),
            2,
            "a retry landing exactly on the budget is affordable"
        );
        // The second window faults too and no retries remain: the hunt
        // degrades to a budget-exhausted best effort.
        assert_eq!(d.degraded, Some(DegradedReason::BudgetExhausted));

        // Just under the exact cost, the retry is no longer affordable.
        let (mut cluster, adv, mut r) = churn_setup();
        let mut plan = fault_plan_matching(&pattern);
        let under = RetryPolicy {
            probe_budget_s: d0 + 10.0 - 1e-6,
            ..policy
        };
        let mut telemetry = Telemetry::for_unit(0);
        let (d, _) = det
            .detect_until_churn_telemetry(
                &mut cluster,
                &mut plan,
                &under,
                adv,
                30.0,
                |_| false,
                &mut r,
                &mut telemetry,
            )
            .unwrap();
        assert_eq!(window_spans(&telemetry.into_events()).len(), 1);
        assert_eq!(d.degraded, Some(DegradedReason::BudgetExhausted));
    }

    #[test]
    fn zero_retries_degrade_without_reprobing() {
        let (mut cluster, adv, mut r) = churn_setup();
        let mut plan = fault_plan_matching(&[Some(ProbeFaultKind::Blackout)]);
        let det = Detector::new(
            detector().recommender_arc(),
            DetectorConfig {
                max_iterations: 1,
                ..DetectorConfig::default()
            },
        );
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let mut telemetry = Telemetry::for_unit(0);
        let (d, iters) = det
            .detect_until_churn_telemetry(
                &mut cluster,
                &mut plan,
                &policy,
                adv,
                30.0,
                |_| false,
                &mut r,
                &mut telemetry,
            )
            .unwrap();
        let events = telemetry.into_events();
        assert_eq!(window_spans(&events).len(), 1);
        assert_eq!(iters, 1);
        assert_eq!(d.degraded, Some(DegradedReason::BudgetExhausted));
        let retries: u64 = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Count {
                    counter: Counter::DetectionRetries,
                    delta,
                    ..
                } => Some(*delta),
                _ => None,
            })
            .sum();
        assert_eq!(retries, 0);
    }

    #[test]
    fn zero_budget_blocks_every_retry() {
        let (mut cluster, adv, mut r) = churn_setup();
        let mut plan = fault_plan_matching(&[Some(ProbeFaultKind::Blackout)]);
        let det = Detector::new(
            detector().recommender_arc(),
            DetectorConfig {
                max_iterations: 1,
                ..DetectorConfig::default()
            },
        );
        let policy = RetryPolicy {
            max_retries: 2,
            probe_budget_s: 0.0,
            ..RetryPolicy::default()
        };
        let mut telemetry = Telemetry::for_unit(0);
        let (d, _) = det
            .detect_until_churn_telemetry(
                &mut cluster,
                &mut plan,
                &policy,
                adv,
                30.0,
                |_| false,
                &mut r,
                &mut telemetry,
            )
            .unwrap();
        assert_eq!(window_spans(&telemetry.into_events()).len(), 1);
        assert_eq!(d.degraded, Some(DegradedReason::BudgetExhausted));
    }

    #[test]
    fn shrinking_backoff_mult_clamps_to_one() {
        // backoff_mult < 1 must not shrink the wait between retries.
        let (mut cluster, adv, mut r) = churn_setup();
        let mut plan = fault_plan_matching(&[
            Some(ProbeFaultKind::Blackout),
            Some(ProbeFaultKind::Blackout),
            None,
        ]);
        let det = Detector::new(
            detector().recommender_arc(),
            DetectorConfig {
                max_iterations: 1,
                ..DetectorConfig::default()
            },
        );
        let policy = RetryPolicy {
            max_retries: 2,
            initial_backoff_s: 15.0,
            backoff_mult: 0.5,
            ..RetryPolicy::default()
        };
        let mut telemetry = Telemetry::for_unit(0);
        det.detect_until_churn_telemetry(
            &mut cluster,
            &mut plan,
            &policy,
            adv,
            30.0,
            |_| false,
            &mut r,
            &mut telemetry,
        )
        .unwrap();
        let spans = window_spans(&telemetry.into_events());
        assert_eq!(spans.len(), 3);
        let (s0, d0) = spans[0];
        let (s1, d1) = spans[1];
        let (s2, _) = spans[2];
        assert!((s1 - (s0 + d0 + 15.0)).abs() < 1e-9);
        // Clamped: still 15 s, never 7.5 s.
        assert!((s2 - (s1 + d1 + 15.0)).abs() < 1e-9, "{s2} vs {}", s1 + d1);
    }

    #[test]
    fn exhaustion_report_separates_probe_and_backoff_time() {
        let (mut cluster, adv, mut r) = churn_setup();
        let mut plan = fault_plan_matching(&[Some(ProbeFaultKind::Blackout)]);
        let policy = RetryPolicy {
            max_retries: 0,
            abort_on_exhaustion: true,
            ..RetryPolicy::default()
        };
        let err = detector()
            .detect_until_churn_telemetry(
                &mut cluster,
                &mut plan,
                &policy,
                adv,
                30.0,
                |_| false,
                &mut r,
                &mut Telemetry::disabled(),
            )
            .unwrap_err();
        let BoltError::DetectionAborted { reason } = err else {
            panic!("expected DetectionAborted, got {err}");
        };
        // The report names the retries taken, how far into the hunt (not
        // the absolute clock: the hunt started at t=30), and splits probed
        // seconds from backoff seconds instead of lumping them together.
        assert!(reason.contains("after 0 retries"), "{reason}");
        assert!(reason.contains("s probed + 0s backoff"), "{reason}");
        let into_hunt: f64 = reason
            .split("retries, ")
            .nth(1)
            .and_then(|s| s.split("s into the hunt").next())
            .and_then(|s| s.trim().parse().ok())
            .expect("parsable hunt offset");
        assert!(
            into_hunt < 100.0,
            "offset must be hunt-relative, not absolute: {reason}"
        );
    }
}
