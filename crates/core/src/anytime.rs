//! The anytime detection window: iterative deepening under a probe budget.
//!
//! The fixed-shape window in [`crate::detector`] always pays the same
//! price — a seed snapshot, widening to the full visible resource set,
//! and a second confirmation sweep, roughly `2 × RESOURCE_COUNT` probe
//! runs — before it ever consults the recommender. Most detections do
//! not need that much signal: a memcached co-resident betrays itself on
//! the first two or three network/cache probes, and every further probe
//! buys nothing but wall-clock exposure for the adversary.
//!
//! The anytime window inverts the loop, in the style of iterative
//! deepening in game-tree search: probe a *batch*, refine the mixture
//! decomposition incrementally (warm-starting the atom shortlist from
//! the previous round, [`bolt_recommender::WarmShortlist`]), and return
//! the moment the best-so-far confidence crosses
//! [`DetectorConfig::confidence_threshold`](crate::detector::DetectorConfig::confidence_threshold).
//! Candidate probes are ordered by expected information gain — the
//! recommender's per-resource information weights
//! ([`HybridRecommender::information_weights`]) scaled by the pressure
//! the current decomposition predicts on each unprobed resource — so
//! the budget is spent where the trained model says the signal is.
//!
//! Two invariants shape the implementation:
//!
//! * **Budget-prefix determinism.** The probe sequence for a budget of
//!   `k` runs is a prefix of the sequence for any larger budget: no
//!   decision consults the remaining budget, only the signal so far.
//!   Together with best-so-far confidence tracking this makes reported
//!   confidence monotone non-decreasing in the budget — the anytime
//!   property, pinned by tests.
//! * **Off means off.** Nothing in this module runs unless
//!   [`DetectorConfig::anytime`](crate::detector::DetectorConfig::anytime)
//!   is set; the fixed-shape window and every legacy output stay
//!   byte-identical (pinned against all recorded bench CSVs).
//!
//! [`HybridRecommender::information_weights`]: bolt_recommender::HybridRecommender::information_weights

use rand::Rng;

use bolt_probes::Microbenchmark;
use bolt_recommender::{Recommendation, RecommenderStats, WarmShortlist};
use bolt_sim::{ProbeFaultKind, TraceEvent, VmId};
use bolt_workloads::{Resource, RESOURCE_COUNT};

use crate::detector::{core_signal_usable, DegradedReason, Detection, Detector};
use crate::detector::{orient_difference, ProbeWorld};
use crate::telemetry::{Counter, Phase, Telemetry};
use crate::BoltError;

/// Probes taken between decomposition refinements when deepening.
const ANYTIME_BATCH: usize = 1;

/// The nominal probe cost of one fixed-shape window: a full-resource
/// sweep taken twice. [`Counter::ProbesSaved`] and
/// [`AnytimeInfo::probes_saved`] measure against this yardstick.
pub const FIXED_WINDOW_NOMINAL_PROBES: usize = 2 * RESOURCE_COUNT;

/// Deepening statistics attached to a [`Detection`] produced by the
/// anytime window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnytimeInfo {
    /// Refinement rounds the deepening loop ran (each round is one
    /// decomposition attempt over the signal so far).
    pub rounds: usize,
    /// Individual microbenchmark runs this window consumed, including
    /// the seed snapshot and the live-world validity re-probe.
    pub probes_used: usize,
    /// Probe runs avoided relative to the fixed-shape window's nominal
    /// cost ([`FIXED_WINDOW_NOMINAL_PROBES`]).
    pub probes_saved: usize,
    /// True when the window stopped because confidence crossed the
    /// threshold (as opposed to exhausting the probe budget or running
    /// out of informative resources to probe).
    pub converged: bool,
}

impl AnytimeInfo {
    fn new(rounds: usize, probes_used: usize, converged: bool) -> Self {
        AnytimeInfo {
            rounds,
            probes_used,
            probes_saved: FIXED_WINDOW_NOMINAL_PROBES.saturating_sub(probes_used),
            converged,
        }
    }
}

/// The deepening loop's current hypothesis. The verdicts and sweep come
/// from the latest evaluation round (strictly more signal than any
/// earlier round went into them); the confidence is the running maximum
/// over rounds, so the reported number is monotone non-decreasing in
/// the probe budget — the anytime contract — even when a new probe
/// muddies a previously-clean decomposition.
struct BestSoFar {
    verdicts: Vec<Recommendation>,
    sweep: Vec<(Resource, f64)>,
    confidence: f64,
}

impl Detector {
    /// The anytime window. Replaces the fixed-shape pipeline wholesale
    /// when [`DetectorConfig::anytime`](crate::detector::DetectorConfig::anytime)
    /// is set; see the module docs for the loop structure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Detector::detect`].
    pub(crate) fn detect_anytime_window<R: Rng>(
        &self,
        world: &mut ProbeWorld<'_>,
        adversary: VmId,
        t: f64,
        baseline: Option<&[(Resource, f64)]>,
        rng: &mut R,
        telemetry: &mut Telemetry,
    ) -> Result<Detection, BoltError> {
        // Faults scheduled before the window begins are already history.
        let pre_faults = world.advance(t)?;
        telemetry.count(Counter::FaultsInjected, pre_faults);

        // Seed snapshot: the same 2–3 benchmark opener as the fixed
        // window, so an idle-host exit costs the anytime path nothing
        // extra and the probe-fault machinery sees the usual surface.
        let sweep_clock = telemetry.begin();
        let mut snapshot = self.profiler.snapshot(world.cluster(), adversary, t, rng)?;
        let mut probes_used = snapshot.readings.len();
        telemetry.count(Counter::ProbeSamples, snapshot.readings.len() as u64);
        telemetry.span(Phase::ProbeSweep, t, snapshot.duration_s, sweep_clock);

        // An idle host: every probed resource reads (near) zero.
        if snapshot.readings.iter().all(|r| r.pressure <= 6.0) {
            telemetry.count(
                Counter::ProbesSaved,
                FIXED_WINDOW_NOMINAL_PROBES.saturating_sub(probes_used) as u64,
            );
            let info = Some(AnytimeInfo::new(0, probes_used, true));
            return Ok(Detection::empty(snapshot, Vec::new(), 1.0, None, info));
        }

        // Probe-level fault for this window (live worlds only): the same
        // stateless draw the fixed window consumes, applied to the seed.
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
                    telemetry.count(
                        Counter::ProbesSaved,
                        FIXED_WINDOW_NOMINAL_PROBES.saturating_sub(probes_used) as u64,
                    );
                    let degraded = Some(DegradedReason::InsufficientSamples);
                    let info = Some(AnytimeInfo::new(0, probes_used, false));
                    return Ok(Detection::empty(snapshot, Vec::new(), 0.0, degraded, info));
                }
                ProbeFaultKind::DroppedSample => {
                    snapshot.readings.pop();
                }
                ProbeFaultKind::TruncatedSample => {
                    if let Some(last) = snapshot.readings.last_mut() {
                        last.pressure *= 0.5;
                    }
                }
            }
        }

        // The miss-rate-curve channel rides along unchanged: one
        // cache-allocation sweep, taken up front so every refinement
        // round can use its curve as a decomposition tie-breaker.
        let mrc_fp = if self.config.mrc_channel {
            let fp = self.mrc_sweep(world, adversary, t + snapshot.duration_s, rng, telemetry)?;
            snapshot.duration_s += fp.duration_s;
            Some(fp)
        } else {
            None
        };
        let mrc_observed = mrc_fp.as_ref().map(|f| f.points.as_slice());

        // The deepening loop: evaluate → (maybe) stop → probe a batch →
        // repeat. The budget counts individual microbenchmark runs,
        // seed included, so `anytime_max_probes` is directly comparable
        // to the fixed window's ~2×RESOURCE_COUNT cost.
        let deepen_t = t + snapshot.duration_s;
        let deepen_clock = telemetry.begin();
        let deepen_start_s = snapshot.duration_s;
        let info_weights = self.recommender.information_weights();
        let max_probes = self.config.anytime_max_probes.max(probes_used);
        let mut warm = WarmShortlist::new();
        let mut stats = RecommenderStats::default();
        let mut components: Vec<(usize, f64, f64)> = Vec::new();
        let mut best = BestSoFar {
            verdicts: Vec::new(),
            sweep: Vec::new(),
            confidence: 0.0,
        };
        let mut rounds = 0usize;
        let mut converged = false;
        let mut last_obs: Vec<(Resource, f64)>;
        let mut last_core_usable;
        // Early exit needs *stability*, not just a high correlation: a
        // two-tenant mixture often matches some middle-ground single
        // application at 0.9+ on a fresh sweep, and one more probe is
        // usually enough to break the mirage. Requiring the primary
        // match to survive a repeat probe kills most of them for the
        // price of a single extra benchmark run.
        let mut prev_primary: Option<usize> = None;

        loop {
            let core_usable = core_signal_usable(&snapshot);
            last_core_usable = core_usable;

            // Later windows inherit the previous iteration's sweep as a
            // *stale prior*: a dimension probed seconds ago still
            // constrains the mixture, so those values stand in for
            // unprobed resources and get freshened in information-gain
            // order as the rounds proceed. The first window has no prior
            // and must buy full coverage with probes.
            let stale = stale_fill(baseline, &snapshot, core_usable);

            // Coverage first, evaluation second: decomposing a two- or
            // three-probe sketch produces confident mirages (a handful of
            // points correlate with *something* at 0.9+), so no verdict
            // is attempted until every visible resource has at least one
            // sample — fresh or stale — matching the floor the fixed
            // window's widening pass guarantees — or the budget runs out.
            // A stale prior alone is not enough: each window must earn a
            // majority of its picture with fresh probes, or consecutive
            // windows would just echo the first window's sweep instead of
            // giving the hunt independent looks at the host.
            let visible =
                Resource::UNCORE.len() + if core_usable { Resource::CORE.len() } else { 0 };
            let fresh_floor = if stale.is_empty() {
                0
            } else {
                visible.div_ceil(2) + 1
            };
            let distinct_fresh = {
                let mut seen = [false; RESOURCE_COUNT];
                for r in &snapshot.readings {
                    seen[r.resource.index()] = true;
                }
                seen.iter().filter(|&&s| s).count()
            };
            if probes_used < max_probes
                && (!fully_covered(&snapshot, &stale, core_usable) || distinct_fresh < fresh_floor)
            {
                let picks = next_probes(
                    &snapshot,
                    core_usable,
                    &components,
                    &info_weights,
                    &self.recommender,
                    ANYTIME_BATCH.min(max_probes - probes_used),
                );
                if !picks.is_empty() {
                    for r in picks {
                        let mid_faults = world.advance(t + snapshot.duration_s)?;
                        telemetry.count(Counter::FaultsInjected, mid_faults);
                        self.profiler.probe_resource(
                            world.cluster(),
                            adversary,
                            t,
                            r,
                            &mut snapshot,
                            rng,
                        )?;
                        probes_used += 1;
                        telemetry.count(Counter::ProbeSamples, 1);
                    }
                    continue;
                }
            }

            rounds += 1;
            let mut obs = averaged_observations(&snapshot);
            obs.extend(stale.iter().copied());

            // Evaluate the signal so far. The informative gate is the
            // fixed window's: matching needs at least two resources
            // clearly above the probe noise floor. A full sweep that
            // fails it stays uninformative no matter how many repeats
            // follow — give up exactly as the fixed window does.
            if obs.iter().filter(|&&(_, v)| v > 8.0).count() >= 2 {
                let mut verdicts: Vec<Recommendation> = Vec::new();

                // Temporal differencing, the fixed window's strongest
                // verdict: the repeat probes naturally form a second
                // sweep a full sweep-length after the first, so the
                // first-vs-latest split per resource plays sweep1 vs
                // sweep2; cross-iteration drift against a previous
                // iteration's baseline rides along as in the fixed path.
                if self.config.enable_differencing {
                    let mut candidates = Vec::new();
                    if let Some((first, latest)) = repeat_split(&snapshot) {
                        candidates.push(orient_difference(&first, &latest));
                    }
                    if let Some(base) = baseline {
                        candidates.push(orient_difference(base, &obs));
                    }
                    let at = t + snapshot.duration_s;
                    verdicts.extend(self.difference_verdict(candidates, at, telemetry)?);
                }

                // Warm-started mixture decomposition over the signal so
                // far. The shortlist carried in `warm` restricts each
                // round's single-fit ranking to the previous round's
                // survivors — re-decomposing per batch stays affordable.
                components = self.decompose(
                    world.cluster(),
                    &obs,
                    core_usable,
                    mrc_observed,
                    Some(&mut warm),
                    &mut stats,
                    t + snapshot.duration_s,
                    telemetry,
                )?;
                for &(idx, _, explained) in &components {
                    verdicts.push(self.recommender.component_recommendation(idx, explained));
                }
                verdicts.truncate(4);

                let primary = verdicts.first().and_then(|v| v.best()).map(|s| s.index);
                let confidence = verdicts
                    .first()
                    .and_then(|v| v.best())
                    .map(|s| s.correlation.clamp(0.0, 1.0))
                    .unwrap_or(0.0);
                let stable = primary.is_some() && primary == prev_primary;
                prev_primary = primary;
                // The verdict payload always comes from the latest round
                // — strictly more signal went into it — while the
                // *reported* confidence is the running maximum, which is
                // what makes confidence monotone non-decreasing in the
                // budget (the anytime contract).
                best = BestSoFar {
                    verdicts,
                    sweep: obs.clone(),
                    confidence: confidence.max(best.confidence),
                };
                // Stop conditions, in anytime order: confident *and*
                // stable → converged; otherwise fall through to the
                // budget checks below.
                if stable && best.confidence >= self.config.confidence_threshold {
                    last_obs = obs;
                    converged = true;
                    break;
                }
            } else {
                last_obs = obs;
                break;
            }
            last_obs = obs;

            // Budget spent or nothing informative left to probe →
            // return the best hypothesis found so far.
            if probes_used >= max_probes {
                break;
            }
            let picks = next_probes(
                &snapshot,
                core_usable,
                &components,
                &info_weights,
                &self.recommender,
                ANYTIME_BATCH.min(max_probes - probes_used),
            );
            if picks.is_empty() {
                break;
            }
            for r in picks {
                // Mid-window churn lands between probes on live worlds —
                // the validity re-probe below is what catches it.
                let mid_faults = world.advance(t + snapshot.duration_s)?;
                telemetry.count(Counter::FaultsInjected, mid_faults);
                self.profiler.probe_resource(
                    world.cluster(),
                    adversary,
                    t,
                    r,
                    &mut snapshot,
                    rng,
                )?;
                probes_used += 1;
                telemetry.count(Counter::ProbeSamples, 1);
            }
        }

        // Shutter fallback, on the fixed window's exact condition: the
        // decomposition stayed weak and no core channel can disentangle
        // the mixture — hunt for a low-load frame exposing a single
        // co-resident. Skipped after convergence: a window that exited
        // early has, by definition, a stable above-threshold verdict.
        let mut used_shutter = false;
        let weak = components
            .first()
            .map(|&(_, _, e)| e < 0.55)
            .unwrap_or(true);
        if !converged
            && weak
            && !last_core_usable
            && self.config.enable_shutter
            && last_obs.iter().filter(|&&(_, v)| v > 8.0).count() >= 2
        {
            used_shutter = true;
            let cluster = world.cluster();
            if let Some((low, rest)) =
                self.shutter_verdicts(cluster, adversary, t, &mut snapshot, rng, telemetry)?
            {
                best.verdicts.insert(0, low);
                best.verdicts.extend(rest);
                best.verdicts.truncate(4);
                best.confidence = best
                    .verdicts
                    .first()
                    .and_then(|v| v.best())
                    .map(|s| s.correlation.clamp(0.0, 1.0))
                    .unwrap_or(best.confidence);
            }
        }

        // Fallback: the gate passed but no structural move produced a
        // verdict — the plain full-signal recommendation (a single
        // co-resident at steady load is exactly this case).
        if best.verdicts.is_empty() && last_obs.iter().filter(|&&(_, v)| v > 8.0).count() >= 2 {
            let at = t + snapshot.duration_s;
            let plain = self.plain_recommendation(&last_obs, at, rng, telemetry)?;
            if let Some(top) = plain.best() {
                best.confidence = top.correlation.clamp(0.0, 1.0);
                best.sweep = last_obs.clone();
                best.verdicts.push(plain);
            }
        }
        if best.sweep.is_empty() {
            best.sweep = last_obs;
        }

        telemetry.count(Counter::ShortlistPairHits, stats.shortlist_hits);
        telemetry.count(Counter::ExactPairSearches, stats.exact_searches);
        telemetry.count(Counter::MrcTieBreaks, stats.mrc_tie_breaks);
        telemetry.span(
            Phase::AnytimeDeepen,
            deepen_t,
            snapshot.duration_s - deepen_start_s,
            deepen_clock,
        );
        for &(r, v) in &best.sweep {
            telemetry.gauge(r, v);
        }

        // Sample-validity screen for live worlds: re-measure the first
        // seed resource. The fixed window compares its two full sweeps;
        // here one cheap re-probe plays the second sweep's role — a
        // sharp jump against the seed reading means the co-resident set
        // changed while we were deepening.
        let mut confidence = best.confidence;
        let mut degraded = None;
        if world.is_live() {
            if let Some((r0, p0)) = snapshot.readings.first().map(|r| (r.resource, r.pressure)) {
                let reading = Microbenchmark::new(r0).measure(
                    world.cluster(),
                    adversary,
                    t + snapshot.duration_s,
                    &self.config.profiler.ramp,
                    rng,
                )?;
                snapshot.duration_s += reading.duration_s;
                probes_used += 1;
                telemetry.count(Counter::ProbeSamples, 1);
                if (reading.pressure - p0).abs() > 15.0 {
                    confidence *= 0.4;
                    degraded = Some(DegradedReason::ChurnDetected);
                }
            }
        }

        telemetry.count(
            Counter::ProbesSaved,
            FIXED_WINDOW_NOMINAL_PROBES.saturating_sub(probes_used) as u64,
        );
        Ok(Detection {
            duration_s: snapshot.duration_s,
            used_shutter,
            verdicts: best.verdicts,
            sweep: best.sweep,
            confidence,
            degraded,
            mrc: mrc_fp,
            anytime: Some(AnytimeInfo::new(rounds, probes_used, converged)),
            snapshot,
        })
    }
}

/// True when every resource the window can see has at least one sample
/// — fresh from this window's probes or stale from the inherited prior:
/// all uncore resources, plus the core resources when the core channel
/// is usable. This is the coverage floor the fixed window's widening
/// pass guarantees before it ever consults the recommender.
fn fully_covered(
    snapshot: &bolt_probes::Snapshot,
    stale: &[(Resource, f64)],
    core_usable: bool,
) -> bool {
    let mut seen = [false; RESOURCE_COUNT];
    for r in &snapshot.readings {
        seen[r.resource.index()] = true;
    }
    for &(r, _) in stale {
        seen[r.index()] = true;
    }
    Resource::ALL
        .iter()
        .all(|r| (r.is_core() && !core_usable) || seen[r.index()])
}

/// The previous iteration's baseline entries standing in for resources
/// this window has not probed yet. A dimension measured one detection
/// interval ago still constrains the mixture decomposition — cloud load
/// drifts on minute scales, which is exactly why the fixed window's
/// cross-iteration differencing works — so later windows start
/// full-dimensional and spend probes *freshening* instead of
/// *re-covering*. Core entries are dropped while the core channel reads
/// blind: a zero core probe now contradicts any stale core pressure.
fn stale_fill(
    baseline: Option<&[(Resource, f64)]>,
    snapshot: &bolt_probes::Snapshot,
    core_usable: bool,
) -> Vec<(Resource, f64)> {
    let Some(base) = baseline else {
        return Vec::new();
    };
    let mut fresh = [false; RESOURCE_COUNT];
    for r in &snapshot.readings {
        fresh[r.resource.index()] = true;
    }
    base.iter()
        .filter(|(r, _)| !fresh[r.index()] && (!r.is_core() || core_usable))
        .copied()
        .collect()
}

/// One sweep's worth of per-resource pressure samples.
type SweepSamples = Vec<(Resource, f64)>;

/// Splits the resources sampled more than once into a (first reading,
/// latest reading) pair of sweeps. Because repeats only start once every
/// visible resource is covered, a resource's two samples sit roughly a
/// full sweep apart in simulated time — the pair plays the fixed
/// window's sweep1/sweep2 for temporal differencing. Returns `None`
/// until at least two resources have repeats (a one-dimensional
/// difference cannot be matched).
fn repeat_split(snapshot: &bolt_probes::Snapshot) -> Option<(SweepSamples, SweepSamples)> {
    let blind_cores = !core_signal_usable(snapshot);
    let mut first: Vec<(Resource, f64)> = Vec::new();
    let mut latest: Vec<(Resource, f64)> = Vec::new();
    for r in Resource::ALL {
        if blind_cores && r.is_core() {
            continue;
        }
        let mut samples = snapshot
            .readings
            .iter()
            .filter(|x| x.resource == r)
            .map(|x| x.pressure);
        if let Some(head) = samples.next() {
            if let Some(tail) = samples.next_back() {
                first.push((r, head));
                latest.push((r, tail));
            }
        }
    }
    if first.len() >= 2 {
        Some((first, latest))
    } else {
        None
    }
}

/// The snapshot's readings folded to one observation per resource — the
/// mean of however many times the deepening loop has sampled it. This is
/// the anytime counterpart of the fixed window's two-sweep average:
/// repeat probes (scheduled by [`next_probes`] once every resource is
/// covered) drive the per-resource noise down exactly the way the
/// confirmation sweep does. Core readings are dropped while the core
/// channel is blind, mirroring `usable_observations`: a zero core
/// reading means "cannot see", not "idle there".
fn averaged_observations(snapshot: &bolt_probes::Snapshot) -> Vec<(Resource, f64)> {
    let blind_cores = !core_signal_usable(snapshot);
    let mut order: Vec<Resource> = Vec::new();
    let mut sum = [0.0f64; RESOURCE_COUNT];
    let mut n = [0usize; RESOURCE_COUNT];
    for r in &snapshot.readings {
        if blind_cores && r.resource.is_core() {
            continue;
        }
        if n[r.resource.index()] == 0 {
            order.push(r.resource);
        }
        sum[r.resource.index()] += r.pressure;
        n[r.resource.index()] += 1;
    }
    order
        .into_iter()
        .map(|r| (r, sum[r.index()] / n[r.index()] as f64))
        .collect()
}

/// Ranks the candidate probes by expected information gain and returns
/// the top `take`. Gain is the recommender's per-resource information
/// weight — how much retained-concept energy loads on the dimension,
/// discounted by channel reliability — scaled by the pressure the
/// current decomposition hypothesis predicts there: a resource the
/// candidate mixture should light up is worth confirming before one it
/// should leave dark. Unprobed resources always outrank repeats; once
/// every visible resource is covered, the remaining budget buys repeat
/// samples (fewest-sampled first) whose average cuts the measurement
/// noise, exactly like the fixed window's confirmation sweep. Core
/// resources are excluded while the core channel is blind (no
/// hyperthread sharing means they can only read zero). Deterministic by
/// construction: ties break toward the earlier resource in canonical
/// order, and nothing here consults the RNG or the budget.
fn next_probes(
    snapshot: &bolt_probes::Snapshot,
    core_usable: bool,
    components: &[(usize, f64, f64)],
    info_weights: &[f64; RESOURCE_COUNT],
    recommender: &bolt_recommender::HybridRecommender,
    take: usize,
) -> Vec<Resource> {
    let mut samples = [0usize; RESOURCE_COUNT];
    for r in &snapshot.readings {
        samples[r.resource.index()] += 1;
    }
    let mut ranked: Vec<(usize, Resource, f64)> = Vec::new();
    for r in Resource::ALL {
        if r.is_core() && !core_usable {
            continue;
        }
        let mut predicted = 0.0;
        for &(idx, scale, _) in components {
            predicted += scale * recommender.training_data().example(idx).pressure[r];
        }
        // The constant keeps pure information weight in charge before
        // any hypothesis exists (predicted = 0 for all resources).
        ranked.push((
            samples[r.index()],
            r,
            info_weights[r.index()] * (10.0 + predicted),
        ));
    }
    ranked.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(b.2.partial_cmp(&a.2).expect("finite gains"))
            .then(a.1.index().cmp(&b.1.index()))
    });
    ranked.into_iter().take(take).map(|(_, r, _)| r).collect()
}
