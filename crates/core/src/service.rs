//! Bolt-as-a-service: a fault-tolerant streaming detection loop.
//!
//! The batch drivers ([`crate::experiment`], [`crate::region`]) answer "what
//! can Bolt learn from a fixed victim set?". This module answers the
//! operational question: what happens when detection requests *stream in*
//! against a live cluster, faster than the probe workers can serve them,
//! while probes stall and co-residents churn?
//!
//! The loop is built from four robustness mechanisms:
//!
//! 1. **Admission control** — a bounded queue estimator sheds or degrades
//!    requests *before* they consume probe time ([`ShedPolicy`]).
//! 2. **Deadline enforcement** — every admitted request carries a deadline;
//!    a request that cannot finish in time ends as an honest
//!    [`RequestOutcome::TimedOut`], never as a silently stale label. When
//!    the remaining deadline is short, the hunt degrades to the anytime
//!    window with a probe budget shrunk proportionally.
//! 3. **Circuit breakers** — repeated faulty hunts against one server trip
//!    a per-server breaker ([`BreakerConfig`]); further requests shed fast
//!    until a cooldown re-probe succeeds.
//! 4. **Replayable fault injection** — request storms, probe stalls, and
//!    churn bursts come from a compiled [`StormPlan`], so Serial and
//!    `Threads(n)` runs replay identical faults.
//!
//! # Determinism
//!
//! The service runs entirely on **virtual time**: arrivals, deadlines,
//! stalls, and probe durations are simulated seconds; wall-clock never
//! feeds a decision. The admission pass is sequential; execution fans out
//! over per-worker *lanes* fixed at admission, each lane replaying its
//! requests in order with request-id-derived RNG streams and fault plans.
//! Reports and normalized telemetry are therefore byte-identical for every
//! [`Parallelism`] setting.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bolt_recommender::{HybridRecommender, RecommenderConfig};
use bolt_sim::vm::VmRole;
use bolt_sim::{
    ChaosConfig, Cluster, FaultPlan, IsolationConfig, ServerSpec, StormConfig, StormPlan,
    SweepMemo, VmId, MAX_PLAN_EVENTS,
};
use bolt_workloads::catalog::memcached;
use bolt_workloads::{AppLabel, LoadPattern, PressureVector};

use crate::anytime::FIXED_WINDOW_NOMINAL_PROBES;
use crate::ctx::{shared_recommender, FitCache, RunCtx};
use crate::detector::{DegradedReason, Detector, DetectorConfig, RetryPolicy};
use crate::events::EventQueue;
use crate::experiment::{fit_recommender, victim_set};
use crate::parallel::{split_seed, sweep, Parallelism};
use crate::region::{tenant_profile, RegionConfig};
use crate::telemetry::{Counter, LatencySummary, Phase, ServiceMetric, Telemetry, TelemetryLog};
use crate::BoltError;

/// What to do with an arrival when the admission queue is saturated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Reject outright once the queue estimate reaches capacity.
    Reject,
    /// Keep admitting past capacity — but flag the request for the anytime
    /// degraded path — until the estimate reaches twice capacity, then
    /// shed. Low-priority arrivals degrade earlier, at half capacity.
    #[default]
    DegradeToAnytime,
}

/// Per-server circuit-breaker policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive faulty hunts (degraded verdict or deadline overrun)
    /// against one server before its breaker opens.
    pub fault_threshold: usize,
    /// Seconds a tripped breaker stays open before a half-open re-probe
    /// is allowed through.
    pub cooldown_s: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            fault_threshold: 3,
            cooldown_s: 240.0,
        }
    }
}

/// Streaming-service configuration. The cluster mirrors the §3.4 testbed
/// (one quiet adversarial VM per server, victims placed round-robin); the
/// request trace, storms, and chaos are all pure functions of `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Servers in the service cluster.
    pub servers: usize,
    /// Friendly victim VMs per server (the detection targets).
    pub vms_per_server: usize,
    /// Baseline request count (storms inject extras on top).
    pub requests: usize,
    /// Mean request arrivals per simulated minute (exponential gaps).
    pub arrival_rate_per_min: f64,
    /// Deadline of every request, in simulated seconds from arrival.
    pub deadline_s: f64,
    /// Admission-queue capacity used by the load-shedding estimator.
    pub queue_capacity: usize,
    /// Probe-worker lanes executing admitted requests.
    pub workers: usize,
    /// Estimated simulated seconds per hunt — the unit of the queue
    /// estimator and the scale for degraded probe budgets.
    pub nominal_service_s: f64,
    /// Overload response.
    pub shed: ShedPolicy,
    /// Per-server circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// RNG seed; fixes the cluster draw, the trace, storms, and chaos.
    pub seed: u64,
    /// Training-set seed (kept distinct from `seed`, as in
    /// [`crate::experiment::ExperimentConfig`]).
    pub training_seed: u64,
    /// Cluster-wide isolation configuration.
    pub isolation: IsolationConfig,
    /// Recommender configuration.
    pub recommender: RecommenderConfig,
    /// Detection-engine configuration. The service default caps
    /// `max_iterations` at 2: a streaming hunt refines on the *next*
    /// request rather than camping on the probe worker.
    pub detector: DetectorConfig,
    /// Retry/backoff policy; its probe budget is additionally clamped to
    /// each request's remaining deadline.
    pub retry: RetryPolicy,
    /// Cluster churn applied (privately, per request) during hunts.
    pub chaos: ChaosConfig,
    /// Service-layer fault injector (storms, stalls, churn bursts).
    pub storm: StormConfig,
    /// Thread fan-out over worker lanes. Results are byte-identical for
    /// every setting.
    pub parallelism: Parallelism,
    /// Populate victims with region-scale tenants
    /// ([`crate::region`]'s zero-noise, one-vCPU catalog rotation)
    /// instead of the §3.4 testbed victim set. This is what lets the
    /// service cluster reach thousands of servers: small deterministic
    /// tenants keep the resident-table and sweep-memo fast paths
    /// engaged, and their constant-load profiles make hunt outcomes
    /// invariant to when a request arrives.
    pub region_tenants: bool,
    /// Probability that a base request is duplicated by a co-arriving
    /// request for the same target — independent users asking about the
    /// same server at the same instant, the workload batched probe
    /// scheduling exploits. `0.0` (the default) draws no extra RNG, so
    /// pre-existing traces replay byte-identically.
    pub duplicate_rate: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            servers: 8,
            vms_per_server: 2,
            requests: 200,
            arrival_rate_per_min: 2.0,
            deadline_s: 240.0,
            queue_capacity: 6,
            workers: 3,
            nominal_service_s: 60.0,
            shed: ShedPolicy::default(),
            breaker: BreakerConfig::default(),
            seed: 0x5EC7,
            training_seed: 7,
            isolation: IsolationConfig::cloud_default(),
            recommender: RecommenderConfig::default(),
            detector: DetectorConfig {
                max_iterations: 2,
                ..DetectorConfig::default()
            },
            retry: RetryPolicy::default(),
            chaos: ChaosConfig::none(),
            storm: StormConfig::none(),
            parallelism: Parallelism::default(),
            region_tenants: false,
            duplicate_rate: 0.0,
        }
    }
}

impl ServiceConfig {
    /// The region-scale service preset: serve detection requests against
    /// a full [`RegionConfig`]-sized cluster instead of the testbed.
    ///
    /// Takes the region's host count, tenant density, and seed; switches
    /// the victim population to region tenants; and injects co-arriving
    /// duplicate requests (20% of the base trace) so the batched sweep
    /// scheduling has something to batch. More worker lanes and a deeper
    /// admission queue match the wider target set. Everything else keeps
    /// the service defaults.
    pub fn for_region(region: &RegionConfig) -> ServiceConfig {
        ServiceConfig {
            servers: region.servers,
            vms_per_server: region.vms_per_server,
            seed: region.seed,
            region_tenants: true,
            duplicate_rate: 0.2,
            workers: 8,
            queue_capacity: 16,
            ..ServiceConfig::default()
        }
    }

    /// Checks the config before anything is compiled or built.
    ///
    /// # Errors
    ///
    /// [`BoltError::InvalidExperiment`] on a degenerate value, or when
    /// the request count or `servers × vms_per_server` exceeds
    /// [`MAX_PLAN_EVENTS`] (a zero per-server count weighs as one, as in
    /// [`RegionConfig::validate`]);
    /// [`SimError::InvalidConfig`](bolt_sim::SimError::InvalidConfig)
    /// (wrapped in [`BoltError::Sim`]) on a chaos or storm config that
    /// fails its `validate`.
    pub fn validate(&self) -> Result<(), BoltError> {
        // `is_finite` guards matter: a NaN rate or deadline slips through
        // a plain `<= 0.0` comparison and would otherwise surface much
        // later as a nonsense trace or a poisoned lane clock. Degenerate
        // configs are errors at the door, never panics downstream.
        let positive_finite = |x: f64| x.is_finite() && x > 0.0;
        let in_unit_interval = |x: f64| (0.0..=1.0).contains(&x);
        let invalid = |reason: String| Err(BoltError::InvalidExperiment { reason });
        if self.servers == 0
            || self.workers == 0
            || self.queue_capacity == 0
            || !positive_finite(self.nominal_service_s)
            || !positive_finite(self.arrival_rate_per_min)
            || !positive_finite(self.deadline_s)
            || !in_unit_interval(self.duplicate_rate)
        {
            return invalid(
                "service config needs servers, workers, queue capacity, finite positive \
                 rate/deadline/nominal-service time, and a duplicate rate in [0, 1]"
                    .to_string(),
            );
        }
        if self.requests as f64 > MAX_PLAN_EVENTS {
            return invalid(format!(
                "{} requests exceeds {MAX_PLAN_EVENTS:e} requests",
                self.requests
            ));
        }
        let tenants = self.servers.checked_mul(self.vms_per_server.max(1));
        if !tenants.is_some_and(|total| total as f64 <= MAX_PLAN_EVENTS) {
            return invalid(format!(
                "{} servers x {} tenants each exceeds {MAX_PLAN_EVENTS:e} tenants",
                self.servers, self.vms_per_server
            ));
        }
        self.detector.validate()?;
        self.storm.validate(service_horizon_s(self))?;
        self.chaos.validate(self.detector.fault_horizon_s())?;
        Ok(())
    }
}

/// One detection request in the replayable trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Trace-order id (arrival-sorted, dense from 0). Hunt RNG streams and
    /// fault plans derive from it, so outcomes are lane-assignment
    /// invariant.
    pub id: usize,
    /// Arrival tick, in simulated seconds.
    pub arrival_s: f64,
    /// Server whose co-residents the requester wants identified.
    pub target_server: usize,
    /// Deadline, in simulated seconds from arrival.
    pub deadline_s: f64,
    /// 1 = high priority, 0 = best-effort (degrades first under load).
    pub priority: u8,
    /// True when injected by a storm burst rather than the base trace.
    pub from_storm: bool,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Queue estimate at capacity under [`ShedPolicy::Reject`].
    QueueFull,
    /// Queue estimate at twice capacity — even the degraded path is full.
    Overloaded,
    /// The target server's circuit breaker was open at pickup.
    BreakerOpen,
}

/// Terminal state of a request. Every traced request ends in exactly one.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// Clean detection inside the deadline.
    Completed {
        /// Arrival-to-verdict simulated seconds.
        latency_s: f64,
        /// Detection confidence.
        confidence: f64,
        /// Primary label, if any match cleared the threshold.
        label: Option<AppLabel>,
        /// True when some verdict names the workload family of a victim
        /// actually on the server.
        correct: bool,
    },
    /// Best-effort verdict delivered inside the deadline, honestly flagged.
    /// Confidence is capped at the detector's acceptance threshold: a
    /// degraded verdict never outranks a clean one.
    Degraded {
        /// Arrival-to-verdict simulated seconds.
        latency_s: f64,
        /// Capped detection confidence.
        confidence: f64,
        /// Why the verdict is degraded.
        reason: DegradedReason,
        /// Primary label, if any match cleared the threshold.
        label: Option<AppLabel>,
        /// True when some verdict names the workload family of a victim
        /// actually on the server.
        correct: bool,
    },
    /// Never executed: shed at admission or by an open breaker.
    Shed {
        /// Why.
        reason: ShedReason,
    },
    /// Admitted but could not finish in time; no label is reported.
    TimedOut {
        /// Simulated seconds from arrival until the service gave up.
        latency_s: f64,
    },
}

/// One request's full ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Trace id.
    pub id: usize,
    /// Arrival tick.
    pub arrival_s: f64,
    /// Target server.
    pub target_server: usize,
    /// Request priority.
    pub priority: u8,
    /// Storm-injected?
    pub from_storm: bool,
    /// Admitted onto the degraded (anytime, shrunken-budget) path?
    pub admitted_degraded: bool,
    /// How it ended.
    pub outcome: RequestOutcome,
}

/// Aggregate service-run report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Per-request ledger, in trace order.
    pub records: Vec<RequestRecord>,
    /// Requests offered (base trace + storm injections).
    pub offered: usize,
    /// Of which storm-injected.
    pub storm_injected: usize,
    /// Requests past admission control.
    pub admitted: usize,
    /// Clean completions.
    pub completed: usize,
    /// Honest degraded verdicts.
    pub degraded: usize,
    /// Shed before admission (queue full / overloaded).
    pub shed_at_admission: usize,
    /// Shed after admission (open breaker at pickup).
    pub shed_after_admission: usize,
    /// Deadline misses.
    pub timed_out: usize,
    /// Simulated seconds from first arrival to the last lane going idle.
    pub makespan_s: f64,
    /// Correct clean completions per simulated minute of makespan.
    pub goodput_per_min: f64,
    /// Latency distribution over executed requests
    /// ([`Phase::ServiceRequest`] spans); `None` when nothing executed.
    pub latency: Option<LatencySummary>,
    /// Degraded verdicts over admitted requests.
    pub degraded_rate: f64,
    /// Clean completions whose label is wrong, over admitted requests —
    /// the silent failure mode the degraded path exists to absorb.
    pub silent_mislabel_rate: f64,
}

impl ServiceReport {
    /// The conservation law of the loop: every admitted request terminates
    /// in exactly one executed outcome.
    pub fn balanced(&self) -> bool {
        self.admitted == self.completed + self.degraded + self.shed_after_admission + self.timed_out
    }
}

/// Salt for the trace RNG (arrival gaps, targets, priorities).
const TRACE_SALT: u64 = 0x0077_ACE5;
/// Salt for the storm-plan seed.
const STORM_SALT: u64 = 0x570A;
/// Salt for per-request hunt RNG streams.
const HUNT_SALT: u64 = 0x5E4C;
/// Salt for per-request fault-plan seeds.
const PLAN_SALT: u64 = 0x00C4_A05E;

/// The simulated horizon storms are compiled over: the expected span of
/// the base trace plus slack for the tail.
fn service_horizon_s(config: &ServiceConfig) -> f64 {
    config.requests as f64 * 60.0 / config.arrival_rate_per_min.max(1e-9) + 120.0
}

/// Compiles the replayable request trace: base arrivals with exponential
/// gaps, plus storm-burst injections, arrival-sorted with dense ids. Pure
/// function of `config` — replaying it is how a service run is reproduced.
pub fn compile_trace(config: &ServiceConfig) -> Vec<Request> {
    let storm = StormPlan::compile(
        &config.storm,
        config.seed ^ STORM_SALT,
        service_horizon_s(config),
    );
    compile_trace_with(config, &storm)
}

fn compile_trace_with(config: &ServiceConfig, storm: &StormPlan) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ TRACE_SALT);
    let mean_gap = 60.0 / config.arrival_rate_per_min.max(1e-9);
    let mut out = Vec::with_capacity(config.requests);
    let mut t = 0.0;
    for _ in 0..config.requests {
        t += -mean_gap * (1.0 - rng.gen::<f64>()).ln();
        out.push(Request {
            id: 0,
            arrival_s: t,
            target_server: rng.gen_range(0..config.servers),
            deadline_s: config.deadline_s,
            priority: u8::from(rng.gen::<f64>() < 0.3),
            from_storm: false,
        });
    }
    // Co-arriving duplicates: independent users asking about the same
    // target at the same instant. Drawn only when the knob is on, so a
    // rate-0 config replays the pre-knob trace byte-identically.
    if config.duplicate_rate > 0.0 {
        let base = out.clone();
        for r in &base {
            if rng.gen::<f64>() < config.duplicate_rate {
                out.push(Request {
                    id: 0,
                    arrival_s: r.arrival_s,
                    target_server: r.target_server,
                    deadline_s: config.deadline_s,
                    priority: r.priority,
                    from_storm: false,
                });
            }
        }
    }
    // Storm bursts land half a second apart: a thundering herd, not a tie.
    for &(at, size) in storm.bursts() {
        for j in 0..size {
            out.push(Request {
                id: 0,
                arrival_s: at + 0.5 * j as f64,
                target_server: rng.gen_range(0..config.servers),
                deadline_s: config.deadline_s,
                priority: 0,
                from_storm: true,
            });
        }
    }
    out.sort_by(|a, b| {
        a.arrival_s
            .partial_cmp(&b.arrival_s)
            .expect("arrival ticks are finite")
    });
    for (i, r) in out.iter_mut().enumerate() {
        r.id = i;
    }
    out
}

/// [`run_service`] with telemetry, over the model [`shared_recommender`]
/// recalls from `cache`.
///
/// Kept with this exact signature because the bolt-perf benchmark calls
/// it; delete it when that benchmark is next revised.
pub fn run_service_cache_telemetry(
    config: &ServiceConfig,
    cache: &FitCache,
) -> Result<(ServiceReport, TelemetryLog), BoltError> {
    run_service_with(config, &RunCtx::new(true), |unit0| {
        shared_recommender(
            config.training_seed,
            &config.isolation,
            config.recommender,
            cache,
            unit0,
        )
    })
}

/// The built service cluster: one quiet adversary per server, victims
/// round-robin, and the ground-truth labels per server.
struct ServiceCluster {
    cluster: Cluster,
    adversaries: Vec<VmId>,
    server_vms: Vec<Vec<VmId>>,
    truths: Vec<Vec<AppLabel>>,
}

fn build_service_cluster(config: &ServiceConfig) -> Result<ServiceCluster, BoltError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut cluster = Cluster::new(config.servers, ServerSpec::xeon(), config.isolation)?;
    let core_iso = cluster.isolation().mechanisms.core_isolation;

    let tenants = config.servers * config.vms_per_server;
    cluster.reserve(config.servers + tenants);
    let mut adversaries = Vec::with_capacity(config.servers);
    for s in 0..config.servers {
        let profile = memcached::profile(&memcached::Variant::Mixed, &mut rng).with_vcpus(4);
        let id = cluster.launch_on(s, profile, VmRole::Adversarial, 0.0)?;
        cluster.set_pressure_override(id, Some(PressureVector::zero()))?;
        adversaries.push(id);
    }

    // Region tenants are drawn as they launch (launching draws nothing
    // from `rng`, so the stream is the one a drawn-first list would use):
    // at region scale the list would be 7 MB that every run allocates
    // and frees next to the cluster it builds.
    let mut victims = (!config.region_tenants).then(|| victim_set(tenants, &mut rng).into_iter());
    let mut server_vms = vec![Vec::new(); config.servers];
    let mut truths = vec![Vec::new(); config.servers];
    for i in 0..tenants {
        let p = match victims.as_mut() {
            Some(victims) => victims.next().expect("victim_set draws one per tenant"),
            // Steady load on top of the region catalog's zero noise: the
            // tenants' pressures become pure functions of placement, never
            // of the virtual instant a probe lands — the invariant behind
            // both idle-gap-invariant verdicts and cross-hunt sweep
            // sharing.
            None => tenant_profile(i, &mut rng).with_load(LoadPattern::steady()),
        };
        let server = i % config.servers;
        if !cluster.server(server)?.can_host(p.vcpus(), core_iso) {
            return Err(BoltError::InvalidExperiment {
                reason: format!(
                    "service cluster too small: {} victims per server do not fit",
                    config.vms_per_server
                ),
            });
        }
        truths[server].push(p.label().clone());
        let id = cluster.launch_on(server, p, VmRole::Friendly, 0.0)?;
        server_vms[server].push(id);
    }

    Ok(ServiceCluster {
        cluster,
        adversaries,
        server_vms,
        truths,
    })
}

/// A request the admission pass planned onto a lane.
#[derive(Debug, Clone)]
struct Planned {
    req: Request,
    degraded_admit: bool,
}

fn finish(planned: &Planned, outcome: RequestOutcome) -> RequestRecord {
    RequestRecord {
        id: planned.req.id,
        arrival_s: planned.req.arrival_s,
        target_server: planned.req.target_server,
        priority: planned.req.priority,
        from_storm: planned.req.from_storm,
        admitted_degraded: planned.degraded_admit,
        outcome,
    }
}

/// Per-server circuit breaker (lane-local, so lanes never share mutable
/// state and thread-count invariance is structural). The explicit state
/// machine makes the re-arm rule auditable: trips only happen from
/// [`BreakerState::Closed`] or [`BreakerState::HalfOpen`] — states with
/// no pending cooldown expiry — so a breaker can never carry a stale
/// expiry, and a failed half-open trial re-arms the cooldown from the
/// trial's own end rather than inheriting the original expiry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    /// Healthy: counting consecutive faults toward the trip threshold.
    Closed {
        /// Consecutive faulted hunts against this server.
        fails: usize,
    },
    /// Tripped: pickups strictly before `until` shed instantly.
    Open {
        /// Virtual instant the cooldown expires.
        until: f64,
    },
    /// Cooldown expired: the next pickup runs as a trial probe.
    HalfOpen,
}

/// Runs the service loop. The recommender fits once, after the config
/// passes [`ServiceConfig::validate`] and before anything is built, and
/// every lane borrows it.
///
/// Telemetry is always recorded internally (the report's latency summary
/// reads the request spans); the stream is returned only when
/// `ctx.telemetry` is set. Unit 0 carries setup (fit, launches) and the
/// admission pass (queue-depth gauges, admit/shed counters); lane `i`
/// records as unit `i + 1`. The stream is identical for every
/// [`Parallelism`] setting after [`TelemetryLog::normalized`].
///
/// # Errors
///
/// Returns the errors of [`ServiceConfig::validate`] and propagates
/// simulator/numerical errors.
pub fn run_service(
    config: &ServiceConfig,
    ctx: &RunCtx,
) -> Result<(ServiceReport, TelemetryLog), BoltError> {
    run_service_with(config, ctx, |unit0| {
        fit_recommender(
            config.training_seed,
            &config.isolation,
            config.recommender,
            unit0,
        )
    })
}

/// The body of [`run_service`]: validates `config`, takes the model from
/// `recommender` (which records into unit 0), then builds and runs.
fn run_service_with(
    config: &ServiceConfig,
    ctx: &RunCtx,
    recommender: impl FnOnce(&mut Telemetry) -> Result<Arc<HybridRecommender>, BoltError>,
) -> Result<(ServiceReport, TelemetryLog), BoltError> {
    config.validate()?;
    // Unit 0: setup + admission. Telemetry is always recorded internally —
    // the report's latency summary reads the ServiceRequest spans.
    let mut unit0 = Telemetry::for_unit(0);
    let model = recommender(&mut unit0)?;

    let storm = StormPlan::compile(
        &config.storm,
        config.seed ^ STORM_SALT,
        service_horizon_s(config),
    );
    let trace = compile_trace_with(config, &storm);
    let storm_injected = trace.iter().filter(|r| r.from_storm).count();

    let mut built = build_service_cluster(config)?;
    unit0.cluster_events(built.cluster.take_events());
    // Batched probe scheduling: one memo attached to the base cluster,
    // inherited by every per-request snapshot, so concurrent hunts
    // targeting the same server share each deterministic probe sweep.
    // Byte-invisible in every report; only the `sweeps-shared` counter
    // observes it. A snapshot that mutates (chaos churn) detaches itself;
    // the base placement never mutates during the run, so unmutated hunts
    // keep sharing.
    let memo = Arc::new(SweepMemo::new());
    built.cluster.share_sweeps(Arc::clone(&memo));
    let ServiceCluster {
        cluster,
        adversaries,
        server_vms,
        truths,
    } = built;
    unit0.count(Counter::StormArrivals, storm_injected as u64);

    // Sequential admission pass, event-driven: the queue estimator (one
    // slot of `nominal_service_s` per admitted request) is advanced by a
    // next-event queue merging arrivals with estimated slot starts, so
    // the depth at each arrival is a pending-slot counter instead of an
    // O(admitted) rescan and idle gaps between arrivals are jumped over
    // outright. Still done before any execution so lane fan-out cannot
    // perturb admission.
    let soft = config.queue_capacity.div_ceil(2);
    let mut est_free = vec![0.0f64; config.workers];
    let mut lanes: Vec<Vec<Planned>> = vec![Vec::new(); config.workers];
    let mut records: Vec<RequestRecord> = Vec::with_capacity(trace.len());
    let mut admitted = 0usize;
    // Same-time ties: a slot whose estimated start coincides with an
    // arrival opens *before* the arrival measures depth (the estimator
    // counts strictly-later starts), hence the lower rank.
    const RANK_SLOT_START: u8 = 0;
    const RANK_ARRIVAL: u8 = 1;
    enum AdmissionEvent {
        /// A request (by trace index) reaches the admission gate.
        Arrival(usize),
        /// An admitted request's estimated service slot begins.
        SlotStart,
    }
    let mut events = EventQueue::new();
    for (i, req) in trace.iter().enumerate() {
        events.push(req.arrival_s, RANK_ARRIVAL, AdmissionEvent::Arrival(i));
    }
    let mut pending = 0usize;
    let mut idle_skipped_s = 0.0f64;
    while let Some((at, event)) = events.pop() {
        let i = match event {
            AdmissionEvent::SlotStart => {
                pending -= 1;
                continue;
            }
            AdmissionEvent::Arrival(i) => i,
        };
        let req = &trace[i];
        // Every lane estimated idle before this arrival: the event clock
        // jumps the gap instead of stepping through it.
        let busy_until = est_free.iter().fold(0.0f64, |a, &b| a.max(b));
        if at > busy_until {
            idle_skipped_s += at - busy_until;
        }
        let depth = pending;
        unit0.service_gauge(ServiceMetric::QueueDepth, req.arrival_s, depth as f64);
        let decision = if depth >= config.queue_capacity {
            match config.shed {
                ShedPolicy::Reject => Some(ShedReason::QueueFull),
                ShedPolicy::DegradeToAnytime if depth >= 2 * config.queue_capacity => {
                    Some(ShedReason::Overloaded)
                }
                ShedPolicy::DegradeToAnytime => None,
            }
        } else {
            None
        };
        if let Some(reason) = decision {
            unit0.count(Counter::RequestsShed, 1);
            records.push(finish(
                &Planned {
                    req: req.clone(),
                    degraded_admit: false,
                },
                RequestOutcome::Shed { reason },
            ));
            continue;
        }
        let degraded_admit = depth >= config.queue_capacity
            || (depth >= soft && req.priority == 0 && config.shed == ShedPolicy::DegradeToAnytime);
        unit0.count(Counter::RequestsAdmitted, 1);
        admitted += 1;
        let lane = est_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let est_start = est_free[lane].max(req.arrival_s);
        est_free[lane] = est_start + config.nominal_service_s;
        pending += 1;
        events.push(est_start, RANK_SLOT_START, AdmissionEvent::SlotStart);
        lanes[lane].push(Planned {
            req: req.clone(),
            degraded_admit,
        });
    }
    unit0.count(Counter::EventsProcessed, events.processed());
    unit0.count(Counter::IdleSkipped, idle_skipped_s.round() as u64);

    // Lane execution: each lane replays its requests in order on its own
    // virtual clock, with lane-local breakers. Hunt RNG and fault plans
    // derive from the request id, so results are lane-schedule invariant.
    let outcomes = sweep(&lanes, config.parallelism, |lane_idx, lane| {
        let mut telemetry = Telemetry::for_unit(lane_idx + 1);
        let result = run_lane(
            config,
            &cluster,
            &model,
            &adversaries,
            &server_vms,
            &truths,
            &storm,
            lane,
            &mut telemetry,
        );
        result.map(|(recs, clock)| (recs, clock, telemetry.into_events()))
    });

    // Counted after all lanes finish: top-level memo consults minus
    // distinct published keys, which is invariant under lane thread
    // count (see `SweepMemo::shared_sweeps`).
    unit0.count(Counter::SweepsShared, memo.shared_sweeps());

    let mut log = TelemetryLog::new();
    log.merge(unit0);
    let mut makespan = trace.last().map_or(0.0, |r| r.arrival_s);
    for outcome in outcomes {
        let (recs, clock, events) = outcome?;
        makespan = makespan.max(clock);
        records.extend(recs);
        log.extend(events);
    }
    records.sort_by_key(|r| r.id);

    let count =
        |f: &dyn Fn(&RequestOutcome) -> bool| records.iter().filter(|r| f(&r.outcome)).count();
    let completed = count(&|o| matches!(o, RequestOutcome::Completed { .. }));
    let degraded = count(&|o| matches!(o, RequestOutcome::Degraded { .. }));
    let timed_out = count(&|o| matches!(o, RequestOutcome::TimedOut { .. }));
    let shed_at_admission = count(&|o| {
        matches!(
            o,
            RequestOutcome::Shed {
                reason: ShedReason::QueueFull | ShedReason::Overloaded,
            }
        )
    });
    let shed_after_admission = count(&|o| {
        matches!(
            o,
            RequestOutcome::Shed {
                reason: ShedReason::BreakerOpen,
            }
        )
    });
    let completed_correct =
        count(&|o| matches!(o, RequestOutcome::Completed { correct: true, .. }));
    let silent_mislabels = count(&|o| {
        matches!(
            o,
            RequestOutcome::Completed {
                label: Some(_),
                correct: false,
                ..
            }
        )
    });
    let denom = admitted.max(1) as f64;
    let report = ServiceReport {
        offered: trace.len(),
        storm_injected,
        admitted,
        completed,
        degraded,
        shed_at_admission,
        shed_after_admission,
        timed_out,
        makespan_s: makespan,
        goodput_per_min: completed_correct as f64 * 60.0 / makespan.max(1.0),
        latency: log.latency_summary(Phase::ServiceRequest),
        degraded_rate: degraded as f64 / denom,
        silent_mislabel_rate: silent_mislabels as f64 / denom,
        records,
    };
    if !ctx.telemetry {
        log = TelemetryLog::new();
    }
    Ok((report, log))
}

#[allow(clippy::too_many_arguments)]
fn run_lane(
    config: &ServiceConfig,
    cluster: &Cluster,
    model: &Arc<HybridRecommender>,
    adversaries: &[VmId],
    server_vms: &[Vec<VmId>],
    truths: &[Vec<AppLabel>],
    storm: &StormPlan,
    lane: &[Planned],
    telemetry: &mut Telemetry,
) -> Result<(Vec<RequestRecord>, f64), BoltError> {
    let mut clock = 0.0f64;
    let mut breakers = vec![BreakerState::Closed { fails: 0 }; config.servers];
    // Pending cooldown expiries, at most one per tripped breaker: drained
    // up to each pickup instant so due breakers flip to half-open before
    // the pickup consults them.
    let mut expiries: EventQueue<usize> = EventQueue::new();
    let mut records = Vec::with_capacity(lane.len());
    for planned in lane {
        let req = &planned.req;
        let span_clock = telemetry.begin();
        let start = clock.max(req.arrival_s);
        let wait = start - req.arrival_s;

        // Expired in the queue: the deadline passed before pickup. The
        // request is discarded instantly, so the lane clock does not move.
        // Strictly past only — a request picked up *exactly* at its
        // deadline still has its minimum anytime budget and takes the
        // degraded path below instead of being silently discarded.
        if wait > req.deadline_s {
            telemetry.count(Counter::RequestsTimedOut, 1);
            telemetry.span(
                Phase::ServiceRequest,
                req.arrival_s,
                req.deadline_s,
                span_clock,
            );
            records.push(finish(
                planned,
                RequestOutcome::TimedOut {
                    latency_s: req.deadline_s,
                },
            ));
            continue;
        }

        // Flip every breaker whose cooldown is due by this pickup to
        // half-open (a pickup landing exactly on the expiry runs the
        // trial, not a shed).
        while let Some((_, server)) = expiries.pop_through(start) {
            debug_assert!(matches!(breakers[server], BreakerState::Open { .. }));
            breakers[server] = BreakerState::HalfOpen;
        }

        // Circuit breaker: open → shed fast; half-open (cooldown expired)
        // → trial probe that re-trips from its own end on failure.
        let trial = match breakers[req.target_server] {
            BreakerState::Open { .. } => {
                telemetry.count(Counter::RequestsShed, 1);
                records.push(finish(
                    planned,
                    RequestOutcome::Shed {
                        reason: ShedReason::BreakerOpen,
                    },
                ));
                continue;
            }
            BreakerState::HalfOpen => true,
            BreakerState::Closed { .. } => false,
        };

        let mut remaining = req.deadline_s - wait;
        let stall = storm.stall_at(start).unwrap_or(0.0);
        if stall > 0.0 {
            telemetry.count(Counter::ProbeStalls, 1);
            remaining -= stall;
        }
        if remaining < 0.0 {
            clock = start + stall;
            telemetry.count(Counter::RequestsTimedOut, 1);
            telemetry.span(
                Phase::ServiceRequest,
                req.arrival_s,
                wait + stall,
                span_clock,
            );
            records.push(finish(
                planned,
                RequestOutcome::TimedOut {
                    latency_s: wait + stall,
                },
            ));
            continue;
        }

        // Degrade to the anytime window when admitted degraded or when the
        // remaining deadline cannot fit a nominal hunt; the probe budget
        // shrinks with the remaining fraction.
        let degraded_hunt = planned.degraded_admit || remaining < config.nominal_service_s;
        let mut dcfg = config.detector;
        if degraded_hunt {
            dcfg.anytime = true;
            let scale = (remaining / config.nominal_service_s).min(1.0);
            dcfg.anytime_max_probes =
                ((FIXED_WINDOW_NOMINAL_PROBES as f64 * scale) as usize).max(4);
        }
        let mut retry = config.retry;
        retry.probe_budget_s = retry.probe_budget_s.min(remaining);
        let mut chaos = config.chaos;
        if let Some(boost) = storm.churn_boost(start) {
            chaos.intensity = (chaos.intensity * boost).min(1.0);
        }

        let probe_start = start + stall;
        let mut live = cluster.snapshot();
        let mut plan = FaultPlan::compile(
            &chaos,
            config.seed ^ PLAN_SALT,
            req.id as u64,
            probe_start,
            dcfg.fault_horizon_s(),
        );
        let mut protected = vec![adversaries[req.target_server]];
        protected.extend(server_vms[req.target_server].iter().copied());
        plan.protect(&protected);

        let threshold = dcfg.confidence_threshold;
        let detector = Detector::new(Arc::clone(model), dcfg);
        let mut rng = StdRng::seed_from_u64(split_seed(config.seed ^ HUNT_SALT, req.id as u64));
        let faults_before = telemetry.counter_so_far(Counter::FaultsInjected);
        let (detection, _iterations, elapsed) = detector.detect_until_churn_elapsed_telemetry(
            &mut live,
            &mut plan,
            &retry,
            adversaries[req.target_server],
            probe_start,
            |d| d.confidence >= threshold,
            &mut rng,
            telemetry,
        )?;
        let hunt_faulted = telemetry.counter_so_far(Counter::FaultsInjected) > faults_before;

        let service_s = stall + elapsed;
        let end = start + service_s;
        clock = end;
        let latency = end - req.arrival_s;
        let truth = &truths[req.target_server];
        // Family-level scoring: the service's product is "what kind of
        // workload lives there" — variant confusion inside a family is a
        // near-miss, not the silent mislabel the degraded path guards
        // against.
        let correct = truth.iter().any(|t| detection.matches_family(t));
        let label = detection.label().cloned();
        let outcome = if latency > req.deadline_s {
            telemetry.count(Counter::RequestsTimedOut, 1);
            RequestOutcome::TimedOut { latency_s: latency }
        } else if let Some(reason) = detection.degraded {
            telemetry.count(Counter::RequestsDegraded, 1);
            RequestOutcome::Degraded {
                latency_s: latency,
                confidence: detection.confidence.min(threshold),
                reason,
                label,
                correct,
            }
        } else if hunt_faulted {
            // The validity screen passed, but injected probe faults touched
            // this hunt; a confident verdict built on contaminated samples
            // is exactly the silent mislabel the service promises not to
            // emit, so announce it as degraded instead.
            telemetry.count(Counter::RequestsDegraded, 1);
            RequestOutcome::Degraded {
                latency_s: latency,
                confidence: detection.confidence.min(threshold),
                reason: DegradedReason::FaultTainted,
                label,
                correct,
            }
        } else {
            telemetry.count(Counter::RequestsCompleted, 1);
            RequestOutcome::Completed {
                latency_s: latency,
                confidence: detection.confidence,
                label,
                correct,
            }
        };

        let fault = matches!(
            outcome,
            RequestOutcome::TimedOut { .. } | RequestOutcome::Degraded { .. }
        );
        let breaker = &mut breakers[req.target_server];
        if fault {
            let fails = match *breaker {
                BreakerState::Closed { fails } => fails + 1,
                _ => 1,
            };
            if trial || fails >= config.breaker.fault_threshold {
                // Re-arm from the end of *this* hunt: a failed half-open
                // trial waits out a full fresh cooldown rather than
                // inheriting the original expiry.
                let until = end + config.breaker.cooldown_s;
                *breaker = BreakerState::Open { until };
                expiries.push(until, 0, req.target_server);
                telemetry.count(Counter::BreakerTrips, 1);
            } else {
                *breaker = BreakerState::Closed { fails };
            }
        } else {
            // Success closes the breaker and clears the fault count; a
            // recovered half-open trial is a reset.
            if *breaker == BreakerState::HalfOpen {
                telemetry.count(Counter::BreakerResets, 1);
            }
            *breaker = BreakerState::Closed { fails: 0 };
        }
        let open = breakers
            .iter()
            .filter(|b| matches!(b, BreakerState::Open { until } if *until > clock))
            .count();
        telemetry.service_gauge(ServiceMetric::BreakersOpen, clock, open as f64);
        telemetry.span(Phase::ServiceRequest, req.arrival_s, latency, span_clock);
        records.push(finish(planned, outcome));
    }
    telemetry.count(
        Counter::EventsProcessed,
        lane.len() as u64 + expiries.processed(),
    );
    Ok((records, clock))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::observed_training;
    use bolt_recommender::TrainingData;
    use bolt_sim::SimError;
    use bolt_workloads::training::training_set;

    /// A recorded service run.
    fn serve(config: &ServiceConfig) -> (ServiceReport, TelemetryLog) {
        run_service(config, &RunCtx::new(true)).unwrap()
    }

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            servers: 4,
            vms_per_server: 2,
            requests: 24,
            arrival_rate_per_min: 3.0,
            ..ServiceConfig::default()
        }
    }

    fn fitted_model(config: &ServiceConfig) -> Arc<HybridRecommender> {
        let data = TrainingData::from_examples(observed_training(
            &training_set(config.training_seed),
            &config.isolation,
        ))
        .unwrap();
        Arc::new(HybridRecommender::fit(data, config.recommender).unwrap())
    }

    fn lane_req(id: usize, arrival_s: f64, deadline_s: f64) -> Planned {
        Planned {
            req: Request {
                id,
                arrival_s,
                target_server: 0,
                deadline_s,
                priority: 1,
                from_storm: false,
            },
            degraded_admit: false,
        }
    }

    #[test]
    fn trace_is_sorted_dense_and_pure() {
        let config = ServiceConfig {
            storm: StormConfig::with_intensity(1.0),
            ..quick_config()
        };
        let a = compile_trace(&config);
        let b = compile_trace(&config);
        assert_eq!(a, b);
        assert!(a.iter().any(|r| r.from_storm), "storm injected nothing");
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i);
            if i > 0 {
                assert!(r.arrival_s >= a[i - 1].arrival_s);
            }
            assert!(r.target_server < config.servers);
        }
    }

    #[test]
    fn every_offered_request_terminates_exactly_once() {
        let config = ServiceConfig {
            storm: StormConfig::with_intensity(1.0),
            chaos: ChaosConfig::with_intensity(0.5),
            arrival_rate_per_min: 6.0,
            ..quick_config()
        };
        let report = serve(&config).0;
        assert_eq!(report.records.len(), report.offered);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, i, "ledger must be dense in trace order");
        }
        assert!(report.balanced(), "count identity violated: {report:?}");
        assert_eq!(
            report.offered,
            report.admitted + report.shed_at_admission,
            "admission must partition the offered load"
        );
    }

    #[test]
    fn unloaded_service_matches_direct_detection() {
        // Slow arrivals, no storms, no chaos, generous deadline: every
        // request starts at its arrival tick, so the service outcome must
        // reproduce a direct detector hunt byte-for-byte.
        let config = ServiceConfig {
            requests: 6,
            arrival_rate_per_min: 0.25,
            deadline_s: 100_000.0,
            ..quick_config()
        };
        let (report, _) = serve(&config);
        assert_eq!(report.admitted, report.offered);

        let built = build_service_cluster(&config).unwrap();
        let data = TrainingData::from_examples(observed_training(
            &training_set(config.training_seed),
            &config.isolation,
        ))
        .unwrap();
        let model = Arc::new(HybridRecommender::fit(data, config.recommender).unwrap());
        for (req, record) in compile_trace(&config).iter().zip(&report.records) {
            let mut live = built.cluster.snapshot();
            let mut plan = FaultPlan::compile(
                &config.chaos,
                config.seed ^ PLAN_SALT,
                req.id as u64,
                req.arrival_s,
                config.detector.fault_horizon_s(),
            );
            let mut protected = vec![built.adversaries[req.target_server]];
            protected.extend(built.server_vms[req.target_server].iter().copied());
            plan.protect(&protected);
            let mut retry = config.retry;
            retry.probe_budget_s = retry.probe_budget_s.min(req.deadline_s);
            let threshold = config.detector.confidence_threshold;
            let detector = Detector::new(Arc::clone(&model), config.detector);
            let mut rng = StdRng::seed_from_u64(split_seed(config.seed ^ HUNT_SALT, req.id as u64));
            let (detection, _, elapsed) = detector
                .detect_until_churn_elapsed_telemetry(
                    &mut live,
                    &mut plan,
                    &retry,
                    built.adversaries[req.target_server],
                    req.arrival_s,
                    |d| d.confidence >= threshold,
                    &mut rng,
                    &mut Telemetry::disabled(),
                )
                .unwrap();
            match &record.outcome {
                RequestOutcome::Completed {
                    latency_s,
                    confidence,
                    label,
                    ..
                } => {
                    assert_eq!(*latency_s, elapsed, "request {} waited in queue", req.id);
                    assert_eq!(*confidence, detection.confidence);
                    assert_eq!(label.as_ref(), detection.label());
                }
                other => panic!("unloaded request {} should complete, got {other:?}", req.id),
            }
        }
    }

    #[test]
    fn breaker_trips_and_sheds_under_forced_faults() {
        // Full-intensity chaos on a single server with a hair-trigger
        // breaker: faults repeat, the breaker opens, later requests shed.
        let config = ServiceConfig {
            servers: 1,
            vms_per_server: 2,
            requests: 30,
            arrival_rate_per_min: 10.0,
            deadline_s: 90.0,
            nominal_service_s: 45.0,
            workers: 1,
            breaker: BreakerConfig {
                fault_threshold: 1,
                cooldown_s: 5_000.0,
            },
            chaos: ChaosConfig::with_intensity(1.0),
            ..ServiceConfig::default()
        };
        let (report, log) = serve(&config);
        assert!(report.balanced());
        assert!(
            log.counter_total(Counter::BreakerTrips) >= 1,
            "full-intensity chaos never tripped the breaker: {report:?}"
        );
        assert!(
            report.shed_after_admission > 0,
            "an open breaker with a long cooldown must shed pickups: {report:?}"
        );
    }

    #[test]
    fn overload_sheds_loudly_not_silently() {
        let base = ServiceConfig {
            arrival_rate_per_min: 60.0,
            requests: 40,
            queue_capacity: 3,
            workers: 2,
            ..quick_config()
        };
        let reject = serve(&ServiceConfig {
            shed: ShedPolicy::Reject,
            ..base
        })
        .0;
        assert!(
            reject.shed_at_admission > 0,
            "60 req/min into 2 workers must shed under Reject: {reject:?}"
        );
        assert!(reject.records.iter().any(|r| matches!(
            r.outcome,
            RequestOutcome::Shed {
                reason: ShedReason::QueueFull
            }
        )));

        let degrade = serve(&ServiceConfig {
            shed: ShedPolicy::DegradeToAnytime,
            ..base
        })
        .0;
        assert!(
            degrade.records.iter().any(|r| r.admitted_degraded),
            "degrade policy must route overload onto the anytime path"
        );
        assert!(
            degrade.admitted >= reject.admitted,
            "degrading must never admit less than rejecting"
        );
        // Honesty under overload: silent mislabels stay within the
        // explicitly-flagged degraded rate.
        assert!(
            degrade.silent_mislabel_rate <= degrade.degraded_rate.max(0.05),
            "silent mislabels must not outpace honest degradation: {degrade:?}"
        );
    }

    #[test]
    fn queue_gauges_and_latency_summary_are_recorded() {
        let config = ServiceConfig {
            storm: StormConfig::with_intensity(1.0),
            arrival_rate_per_min: 8.0,
            ..quick_config()
        };
        let (report, log) = serve(&config);
        let gauges = log
            .events()
            .iter()
            .filter(|e| matches!(e, crate::telemetry::TelemetryEvent::ServiceGauge { metric, .. } if *metric == ServiceMetric::QueueDepth))
            .count();
        assert_eq!(gauges, report.offered, "one queue-depth sample per arrival");
        let latency = report
            .latency
            .expect("executed requests must yield latency");
        assert!(latency.p50 <= latency.p99 && latency.p99 <= latency.max);
        assert_eq!(
            log.counter_total(Counter::StormArrivals),
            report.storm_injected as u64
        );
    }

    #[test]
    fn pickup_exactly_at_deadline_runs_a_minimum_hunt() {
        // Regression: `wait >= deadline` used to discard a request picked
        // up exactly at its deadline without running anything — an
        // instant timeout with the lane clock unmoved. The boundary now
        // takes the degraded anytime path: the hunt executes, the clock
        // advances, and any timeout reports its honest latency.
        let config = quick_config();
        let built = build_service_cluster(&config).unwrap();
        let model = fitted_model(&config);
        let storm = StormPlan::compile(
            &config.storm,
            config.seed ^ STORM_SALT,
            service_horizon_s(&config),
        );
        let first = lane_req(0, 0.0, 100_000.0);
        let (_, busy_until) = run_lane(
            &config,
            &built.cluster,
            &model,
            &built.adversaries,
            &built.server_vms,
            &built.truths,
            &storm,
            std::slice::from_ref(&first),
            &mut Telemetry::disabled(),
        )
        .unwrap();
        assert!(busy_until > 0.0);

        // The second request arrives mid-hunt and is picked up exactly
        // when its deadline expires: wait == deadline_s, bit for bit.
        let arrival = busy_until / 2.0;
        let deadline = busy_until - arrival;
        let lane = [first, lane_req(1, arrival, deadline)];
        let (records, clock) = run_lane(
            &config,
            &built.cluster,
            &model,
            &built.adversaries,
            &built.server_vms,
            &built.truths,
            &storm,
            &lane,
            &mut Telemetry::disabled(),
        )
        .unwrap();
        assert!(
            clock > busy_until,
            "the boundary pickup must execute and move the lane clock"
        );
        match &records[1].outcome {
            RequestOutcome::TimedOut { latency_s } => assert!(
                *latency_s > deadline,
                "an executed boundary hunt reports its true latency, not the deadline"
            ),
            RequestOutcome::Degraded { .. } | RequestOutcome::Completed { .. } => {}
            other => panic!("boundary pickup must run, got {other:?}"),
        }
    }

    #[test]
    fn breaker_rearms_from_trial_end_and_resets_on_success() {
        let config = ServiceConfig {
            breaker: BreakerConfig {
                fault_threshold: 2,
                cooldown_s: 50_000.0,
            },
            ..quick_config()
        };
        let built = build_service_cluster(&config).unwrap();
        let model = fitted_model(&config);
        let storm = StormPlan::compile(
            &config.storm,
            config.seed ^ STORM_SALT,
            service_horizon_s(&config),
        );
        let run = |lane: &[Planned]| {
            let mut telemetry = Telemetry::for_unit(1);
            let (records, clock) = run_lane(
                &config,
                &built.cluster,
                &model,
                &built.adversaries,
                &built.server_vms,
                &built.truths,
                &storm,
                lane,
                &mut telemetry,
            )
            .unwrap();
            (records, clock, telemetry)
        };

        // Learning pass: two executed timeouts trip the breaker at the
        // threshold; `trip_end` is when the tripping hunt finished.
        let tiny = 0.001;
        let faults = [lane_req(0, 0.0, tiny), lane_req(1, 10_000.0, tiny)];
        let (_, trip_end, telemetry) = run(&faults);
        assert_eq!(telemetry.counter_so_far(Counter::BreakerTrips), 1);
        let c = config.breaker.cooldown_s;
        let until1 = trip_end + c;

        // Full scenario against the learned timeline.
        let lane = [
            faults[0].clone(),
            faults[1].clone(),
            // Still cooling down: shed.
            lane_req(2, trip_end + 1.0, 1_000.0),
            // Past the expiry: half-open trial that faults and re-trips.
            lane_req(3, until1 + 50.0, tiny),
            // One original cooldown after the first expiry. Had the
            // failed trial inherited the original expiry this would be
            // the next trial; re-armed from the trial's own end it must
            // still shed.
            lane_req(4, until1 + c, 1_000.0),
            // Far past the re-armed expiry: a trial with a generous
            // deadline succeeds and closes the breaker.
            lane_req(5, until1 + 10.0 * c, 100_000.0),
            // One fresh fault stays below the threshold: the successful
            // trial reset the consecutive-fault counter.
            lane_req(6, until1 + 12.0 * c, tiny),
        ];
        let (records, _, telemetry) = run(&lane);
        let shed = |i: usize| {
            matches!(
                records[i].outcome,
                RequestOutcome::Shed {
                    reason: ShedReason::BreakerOpen
                }
            )
        };
        assert!(
            shed(2),
            "pickup during cooldown must shed: {:?}",
            records[2]
        );
        assert!(!shed(3), "pickup past the expiry is the half-open trial");
        assert!(
            shed(4),
            "a failed trial re-arms from its own end, not the original expiry: {:?}",
            records[4]
        );
        assert!(
            matches!(records[5].outcome, RequestOutcome::Completed { .. }),
            "generous half-open trial must succeed: {:?}",
            records[5]
        );
        assert!(!shed(6), "one fault after a reset must not trip");
        assert_eq!(
            telemetry.counter_so_far(Counter::BreakerTrips),
            2,
            "initial trip + failed-trial re-trip"
        );
        assert_eq!(
            telemetry.counter_so_far(Counter::BreakerResets),
            1,
            "exactly the successful trial resets"
        );
    }

    #[test]
    fn degenerate_service_configs_are_rejected_at_the_door() {
        let bad = [
            ServiceConfig {
                workers: 0,
                ..quick_config()
            },
            // Sizes too large to compile or build are bounded before
            // either happens.
            ServiceConfig {
                requests: usize::MAX,
                ..quick_config()
            },
            ServiceConfig {
                servers: usize::MAX,
                ..quick_config()
            },
            ServiceConfig {
                vms_per_server: usize::MAX,
                ..quick_config()
            },
            ServiceConfig::for_region(&RegionConfig {
                servers: 1_000_000,
                ..RegionConfig::default()
            }),
            ServiceConfig {
                queue_capacity: 0,
                ..quick_config()
            },
            ServiceConfig {
                arrival_rate_per_min: f64::NAN,
                ..quick_config()
            },
            ServiceConfig {
                deadline_s: f64::INFINITY,
                ..quick_config()
            },
            ServiceConfig {
                nominal_service_s: 0.0,
                ..quick_config()
            },
            ServiceConfig {
                duplicate_rate: 1.5,
                ..quick_config()
            },
            ServiceConfig {
                duplicate_rate: f64::NAN,
                ..quick_config()
            },
            ServiceConfig {
                detector: DetectorConfig {
                    confidence_threshold: f64::NAN,
                    ..quick_config().detector
                },
                ..quick_config()
            },
            ServiceConfig {
                detector: DetectorConfig {
                    interval_s: f64::NAN,
                    ..quick_config().detector
                },
                ..quick_config()
            },
            ServiceConfig {
                detector: DetectorConfig {
                    interval_s: -20.0,
                    ..quick_config().detector
                },
                ..quick_config()
            },
        ];
        for config in bad {
            assert!(
                matches!(
                    run_service(&config, &RunCtx::new(false)),
                    Err(BoltError::InvalidExperiment { .. })
                ),
                "degenerate config must be rejected: {config:?}"
            );
        }
        // The injectors validate themselves. `f64::clamp` passes NaN
        // through `with_intensity`, and an infinite rate would compile an
        // endless schedule.
        let bad_injectors = [
            ServiceConfig {
                storm: StormConfig::with_intensity(f64::NAN),
                ..quick_config()
            },
            ServiceConfig {
                chaos: ChaosConfig::with_intensity(f64::NAN),
                ..quick_config()
            },
            ServiceConfig {
                storm: StormConfig {
                    intensity: 1.5,
                    ..StormConfig::with_intensity(1.0)
                },
                ..quick_config()
            },
            ServiceConfig {
                chaos: ChaosConfig {
                    intensity: -0.5,
                    ..ChaosConfig::with_intensity(1.0)
                },
                ..quick_config()
            },
            ServiceConfig {
                storm: StormConfig {
                    bursts_per_min: f64::INFINITY,
                    ..StormConfig::with_intensity(0.8)
                },
                ..quick_config()
            },
            ServiceConfig {
                chaos: ChaosConfig {
                    arrivals_per_min: f64::INFINITY,
                    ..ChaosConfig::with_intensity(0.8)
                },
                ..quick_config()
            },
        ];
        for config in bad_injectors {
            assert!(
                matches!(
                    run_service(&config, &RunCtx::new(false)),
                    Err(BoltError::Sim(SimError::InvalidConfig { .. }))
                ),
                "degenerate injector must be rejected: {config:?}"
            );
        }
    }

    #[test]
    fn idle_gap_scaling_leaves_verdicts_identical() {
        // Region tenants are zero-noise and the hunt RNG is request-id
        // seeded, so stretching the idle gaps between arrivals by 10×
        // must not change a single verdict — the event-driven clock just
        // skips more idle time. Latencies agree to float rounding: they
        // are differences of absolute virtual instants, so shifting a
        // hunt later in virtual time can move the last few ulps.
        let base = ServiceConfig {
            region_tenants: true,
            requests: 10,
            arrival_rate_per_min: 0.05,
            deadline_s: 100_000.0,
            ..quick_config()
        };
        let slow = ServiceConfig {
            arrival_rate_per_min: 0.005,
            ..base
        };
        let (fast_report, fast_log) = serve(&base);
        let (slow_report, slow_log) = serve(&slow);
        assert_eq!(fast_report.records.len(), slow_report.records.len());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
        for (f, s) in fast_report.records.iter().zip(&slow_report.records) {
            match (&f.outcome, &s.outcome) {
                (
                    RequestOutcome::Completed {
                        latency_s: fl,
                        confidence: fc,
                        label: fla,
                        correct: fco,
                    },
                    RequestOutcome::Completed {
                        latency_s: sl,
                        confidence: sc,
                        label: sla,
                        correct: sco,
                    },
                ) => {
                    assert!(close(*fl, *sl), "request {} latency diverged: {fl} vs {sl}", f.id);
                    assert_eq!((fc, fla, fco), (sc, sla, sco), "request {} verdict", f.id);
                }
                (a, b) => panic!(
                    "unloaded region requests must complete identically: request {} got {a:?} vs {b:?}",
                    f.id
                ),
            }
        }
        assert!(
            slow_log.counter_total(Counter::IdleSkipped)
                > fast_log.counter_total(Counter::IdleSkipped),
            "10× gaps must skip more idle time"
        );
        assert_eq!(
            fast_log.counter_total(Counter::EventsProcessed),
            slow_log.counter_total(Counter::EventsProcessed),
            "event count tracks requests, not the simulated horizon"
        );
    }

    #[test]
    fn sweep_sharing_is_byte_invisible_and_thread_invariant() {
        // Co-arriving duplicates probe the same server at the same
        // virtual instants, so the shared memo sees repeat top-level
        // queries; the memo must not change a single byte of the report
        // against the reference scope, where no memo is consulted, and
        // the sweeps-shared counter must be identical across thread
        // counts.
        let shared = ServiceConfig {
            region_tenants: true,
            duplicate_rate: 0.6,
            requests: 12,
            arrival_rate_per_min: 0.05,
            deadline_s: 100_000.0,
            ..quick_config()
        };
        // The scope is thread-local, so the reference twin runs serially.
        let plain = ServiceConfig {
            parallelism: Parallelism::Serial,
            ..shared
        };
        let (plain_report, plain_log) = bolt_linalg::oracle::reference(|| serve(&plain));
        let (shared_report, shared_log) = serve(&shared);
        assert_eq!(
            plain_report, shared_report,
            "sweep sharing must be byte-invisible"
        );
        assert_eq!(plain_log.counter_total(Counter::SweepsShared), 0);
        assert!(
            shared_log.counter_total(Counter::SweepsShared) > 0,
            "co-arriving duplicates must share sweeps"
        );

        let threaded = ServiceConfig {
            parallelism: Parallelism::Threads(3),
            ..shared
        };
        let (report_t, log_t) = serve(&threaded);
        assert_eq!(shared_report, report_t);
        assert_eq!(
            shared_log.normalized(),
            log_t.normalized(),
            "sweeps-shared must be thread-count invariant"
        );
    }
}
