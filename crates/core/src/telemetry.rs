//! Structured, deterministic telemetry for the detection pipeline.
//!
//! Bolt's headline numbers emerge from a multi-stage pipeline — probe
//! sweeps, SGD matrix completion, weighted-Pearson content matching,
//! attack execution — that is otherwise only observable from end-state
//! CSVs. This module adds the observability layer: span timers over the
//! pipeline phases (carrying both sim-time and wall-time), counters and
//! gauges for the quantities that drive accuracy (SGD iterations,
//! shortlist hits vs. exact pair searches, probe samples, per-resource
//! pressure estimates, defensive migrations), and a unified event stream
//! that merges the simulator's [`TraceEvent`] log with the new
//! detection/attack events.
//!
//! Two properties are load-bearing:
//!
//! * **Zero cost when disabled.** A [`Telemetry`] handle built with
//!   [`Telemetry::disabled`] holds no buffer; every recording method is
//!   an early-returning no-op and [`Telemetry::begin`] never reads the
//!   clock, so instrumented code paths cost one branch.
//! * **Determinism across thread counts.** Each parallel unit of work
//!   records into its own handle ([`Telemetry::for_unit`]); harnesses
//!   merge the per-unit buffers in unit order, so the event *sequence*
//!   is byte-identical across `Parallelism::{Serial, Threads(n)}`.
//!   Wall-clock durations are the one necessarily nondeterministic
//!   field; [`TelemetryLog::normalized`] zeroes them for comparisons.
//!
//! Logs export as JSONL ([`TelemetryLog::to_jsonl`]; the workspace has no
//! serialization library, so the encoder is hand-rolled here) and render
//! as a human-readable aggregate table ([`TelemetryLog::summary_table`]).
//! The format is write-only: read a trace with an outside JSON tool such
//! as `jq`.

use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bolt_sim::vm::VmRole;
use bolt_sim::TraceEvent;
use bolt_workloads::Resource;

use crate::report::Table;

/// A detection-pipeline phase covered by a span timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Training the hybrid recommender (SVD + SGD completion): one span
    /// per fit, and a driver fits once per run.
    RecommenderFit,
    /// One probe sweep over the shared resources (including the extra
    /// core-probe widening rounds of §3.3).
    ProbeSweep,
    /// A shutter capture: alternating-window probing used to split
    /// overlapping co-residents.
    ShutterCapture,
    /// SGD matrix completion inside the hybrid recommender.
    MatrixCompletion,
    /// Weighted-Pearson content matching against the training set.
    ContentMatch,
    /// The cache-allocation sweep of the miss-rate-curve channel.
    MrcSweep,
    /// Mixture decomposition (pair pursuit) over averaged observations.
    Decomposition,
    /// The anytime window's deepening loop: gain-ordered probes
    /// interleaved with incremental decomposition refinements.
    AnytimeDeepen,
    /// One full detect iteration (probe + recommend + verdict).
    DetectionIteration,
    /// An attack program run (DoS, RFA, co-residency hunt).
    AttackExecution,
    /// One admitted service request, end to end: queue wait plus the hunt.
    /// `sim_start_s` is the arrival tick and `sim_duration_s` the request
    /// latency, so [`TelemetryLog::latency_summary`] over this phase yields
    /// the service p50/p99.
    ServiceRequest,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 11] = [
        Phase::RecommenderFit,
        Phase::ProbeSweep,
        Phase::ShutterCapture,
        Phase::MatrixCompletion,
        Phase::ContentMatch,
        Phase::MrcSweep,
        Phase::Decomposition,
        Phase::AnytimeDeepen,
        Phase::DetectionIteration,
        Phase::AttackExecution,
        Phase::ServiceRequest,
    ];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::RecommenderFit => "recommender-fit",
            Phase::ProbeSweep => "probe-sweep",
            Phase::ShutterCapture => "shutter-capture",
            Phase::MatrixCompletion => "matrix-completion",
            Phase::ContentMatch => "content-match",
            Phase::MrcSweep => "mrc-sweep",
            Phase::Decomposition => "decomposition",
            Phase::AnytimeDeepen => "anytime-deepen",
            Phase::DetectionIteration => "detection-iteration",
            Phase::AttackExecution => "attack-execution",
            Phase::ServiceRequest => "service-request",
        }
    }
}

/// A monotonically accumulating quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Individual SGD coordinate updates inside matrix completion.
    SgdIterations,
    /// Pair-pursuit calls that ran on the pruned shortlist.
    ShortlistPairHits,
    /// Pair-pursuit calls that fell back to the exact `K = n` search.
    ExactPairSearches,
    /// Probe measurements taken (one per resource per sweep or frame).
    ProbeSamples,
    /// Migrations triggered by the DoS migration defense.
    MigrationsTriggered,
    /// Chaos faults actually injected into the cluster (arrivals,
    /// departures, swaps, defensive migrations, degradations, probe
    /// faults).
    FaultsInjected,
    /// Measurement windows discarded as contaminated or blacked out.
    WindowsDiscarded,
    /// Detection re-probes issued by the retry-with-backoff policy.
    DetectionRetries,
    /// Allocation levels measured by the miss-rate-curve sweep.
    MrcProbePoints,
    /// Decompositions where the sweep curve overruled the pressure-only
    /// candidate selection.
    MrcTieBreaks,
    /// VMs live in the cluster's storage arena (sampled, not incremental:
    /// drivers record the occupancy reached by a sweep).
    ArenaVmsLive,
    /// Launches that recycled a free-listed arena slot left by a churned
    /// VM — reuse keeps the arena dense through arrival/departure cycles.
    ArenaSlotsReused,
    /// Residency-index mutations (per-server sorted-id inserts and
    /// removals) performed by launches, terminations, and migrations.
    ResidencyIndexOps,
    /// Neighbor candidates visited by interference/utilization/sweep
    /// queries. With the residency index this scales with co-residents
    /// per query, independent of total cluster size.
    NeighborVisits,
    /// Probe measurements the anytime window did *not* take compared to
    /// the fixed-shape window's nominal two-sweep cost — the quantity
    /// the probes-vs-accuracy frontier sums.
    ProbesSaved,
    /// Service requests accepted by the admission queue (at full or
    /// degraded budget).
    RequestsAdmitted,
    /// Service requests shed with an explicit reason (queue full, circuit
    /// breaker open) — never silently dropped.
    RequestsShed,
    /// Admitted requests that missed their deadline and reported
    /// `TimedOut` instead of a verdict.
    RequestsTimedOut,
    /// Admitted requests that completed with an honest `Degraded` flag.
    RequestsDegraded,
    /// Admitted requests that completed cleanly within deadline.
    RequestsCompleted,
    /// Per-server circuit breakers tripped open by repeated degraded or
    /// faulted hunts.
    BreakerTrips,
    /// Circuit breakers closed again after a successful cooldown re-probe.
    BreakerResets,
    /// Extra requests injected by storm bursts on top of the base arrival
    /// process.
    StormArrivals,
    /// Probes that paid a slow-probe stall penalty from the storm plan.
    ProbeStalls,
    /// Deterministic probe-sweep queries answered from the cross-hunt
    /// [`SweepMemo`] instead of recomputing the co-resident walk —
    /// concurrent hunts against the same (server, window) share one
    /// sweep. Schedule-independent by construction: each hunt consults
    /// the memo once per *distinct* sweep key it needs, and the count of
    /// distinct keys ever published is a pure function of the trace.
    ///
    /// [`SweepMemo`]: bolt_sim::SweepMemo
    SweepsShared,
    /// Events popped from the service's virtual-time queues: arrivals and
    /// queue-slot starts in the admission pass, plus lane pickups and
    /// breaker cooldown expiries during execution. The event-driven clock
    /// makes service cost scale with this count, not with the simulated
    /// horizon.
    EventsProcessed,
    /// Whole simulated seconds the event-driven clock skipped because
    /// every lane was idle between arrivals — dense per-step advancement
    /// would have burned work proportional to this.
    IdleSkipped,
}

impl Counter {
    /// All counters.
    pub const ALL: [Counter; 27] = [
        Counter::SgdIterations,
        Counter::ShortlistPairHits,
        Counter::ExactPairSearches,
        Counter::ProbeSamples,
        Counter::MigrationsTriggered,
        Counter::FaultsInjected,
        Counter::WindowsDiscarded,
        Counter::DetectionRetries,
        Counter::MrcProbePoints,
        Counter::MrcTieBreaks,
        Counter::ArenaVmsLive,
        Counter::ArenaSlotsReused,
        Counter::ResidencyIndexOps,
        Counter::NeighborVisits,
        Counter::ProbesSaved,
        Counter::RequestsAdmitted,
        Counter::RequestsShed,
        Counter::RequestsTimedOut,
        Counter::RequestsDegraded,
        Counter::RequestsCompleted,
        Counter::BreakerTrips,
        Counter::BreakerResets,
        Counter::StormArrivals,
        Counter::ProbeStalls,
        Counter::SweepsShared,
        Counter::EventsProcessed,
        Counter::IdleSkipped,
    ];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::SgdIterations => "sgd-iterations",
            Counter::ShortlistPairHits => "shortlist-pair-hits",
            Counter::ExactPairSearches => "exact-pair-searches",
            Counter::ProbeSamples => "probe-samples",
            Counter::MigrationsTriggered => "migrations-triggered",
            Counter::FaultsInjected => "faults-injected",
            Counter::WindowsDiscarded => "windows-discarded",
            Counter::DetectionRetries => "detection-retries",
            Counter::MrcProbePoints => "mrc-probe-points",
            Counter::MrcTieBreaks => "mrc-tie-breaks",
            Counter::ArenaVmsLive => "arena-vms-live",
            Counter::ArenaSlotsReused => "arena-slots-reused",
            Counter::ResidencyIndexOps => "residency-index-ops",
            Counter::NeighborVisits => "neighbor-visits",
            Counter::ProbesSaved => "probes-saved",
            Counter::RequestsAdmitted => "requests-admitted",
            Counter::RequestsShed => "requests-shed",
            Counter::RequestsTimedOut => "requests-timed-out",
            Counter::RequestsDegraded => "requests-degraded",
            Counter::RequestsCompleted => "requests-completed",
            Counter::BreakerTrips => "breaker-trips",
            Counter::BreakerResets => "breaker-resets",
            Counter::StormArrivals => "storm-arrivals",
            Counter::ProbeStalls => "probe-stalls",
            Counter::SweepsShared => "sweeps-shared",
            Counter::EventsProcessed => "events-processed",
            Counter::IdleSkipped => "idle-skipped-s",
        }
    }
}

/// A service-loop quantity sampled at a simulated instant, as opposed to
/// the per-resource pressure [`TelemetryEvent::Gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceMetric {
    /// Requests waiting in the admission queue at an arrival tick.
    QueueDepth,
    /// Per-server circuit breakers currently open.
    BreakersOpen,
}

impl ServiceMetric {
    /// All service metrics.
    pub const ALL: [ServiceMetric; 2] = [ServiceMetric::QueueDepth, ServiceMetric::BreakersOpen];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceMetric::QueueDepth => "queue-depth",
            ServiceMetric::BreakersOpen => "breakers-open",
        }
    }
}

/// One telemetry event. The stream interleaves pipeline spans, counter
/// increments, gauge readings, and the cluster's VM lifecycle events.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A timed pipeline phase.
    Span {
        /// Which phase.
        phase: Phase,
        /// The parallel unit (victim/job/cell index) that recorded it.
        unit: usize,
        /// Simulated time at which the phase started (seconds).
        sim_start_s: f64,
        /// Simulated duration of the phase (seconds).
        sim_duration_s: f64,
        /// Wall-clock duration (nanoseconds). The only nondeterministic
        /// field; zeroed by [`TelemetryLog::normalized`].
        wall_ns: u64,
    },
    /// A counter increment.
    Count {
        /// Which counter.
        counter: Counter,
        /// The recording unit.
        unit: usize,
        /// Amount added.
        delta: u64,
    },
    /// A per-resource pressure estimate (percent of saturation).
    Gauge {
        /// The resource estimated.
        resource: Resource,
        /// The recording unit.
        unit: usize,
        /// Estimated pressure.
        value: f64,
    },
    /// A simulator lifecycle event folded into the unified stream.
    Cluster {
        /// The recording unit.
        unit: usize,
        /// The simulator event.
        event: TraceEvent,
    },
    /// A service-loop sample (queue depth, open breakers) at a simulated
    /// instant. Fully deterministic: the timestamp is virtual time.
    ServiceGauge {
        /// Which quantity.
        metric: ServiceMetric,
        /// The recording unit.
        unit: usize,
        /// Simulated time of the sample (seconds).
        at_s: f64,
        /// The sampled value.
        value: f64,
    },
}

impl TelemetryEvent {
    /// The parallel unit that recorded this event.
    pub fn unit(&self) -> usize {
        match self {
            TelemetryEvent::Span { unit, .. }
            | TelemetryEvent::Count { unit, .. }
            | TelemetryEvent::Gauge { unit, .. }
            | TelemetryEvent::Cluster { unit, .. }
            | TelemetryEvent::ServiceGauge { unit, .. } => *unit,
        }
    }

    /// Encodes the event as a single-line JSON object.
    fn to_json(&self) -> String {
        let mut out = String::new();
        match self {
            TelemetryEvent::Span {
                phase,
                unit,
                sim_start_s,
                sim_duration_s,
                wall_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"span\",\"phase\":\"{}\",\"unit\":{unit},\
                     \"sim_start_s\":{},\"sim_duration_s\":{},\"wall_ns\":{wall_ns}}}",
                    phase.as_str(),
                    JsonNum(*sim_start_s),
                    JsonNum(*sim_duration_s)
                );
            }
            TelemetryEvent::Count {
                counter,
                unit,
                delta,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"count\",\"counter\":\"{}\",\"unit\":{unit},\"delta\":{delta}}}",
                    counter.as_str()
                );
            }
            TelemetryEvent::Gauge {
                resource,
                unit,
                value,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"gauge\",\"resource\":\"{}\",\"unit\":{unit},\"value\":{}}}",
                    resource.short_name(),
                    JsonNum(*value)
                );
            }
            TelemetryEvent::Cluster { unit, event } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"cluster\",\"unit\":{unit},\"event\":{}}}",
                    trace_event_json(event)
                );
            }
            TelemetryEvent::ServiceGauge {
                metric,
                unit,
                at_s,
                value,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"service-gauge\",\"metric\":\"{}\",\"unit\":{unit},\
                     \"at_s\":{},\"value\":{}}}",
                    metric.as_str(),
                    JsonNum(*at_s),
                    JsonNum(*value)
                );
            }
        }
        out
    }
}

/// An `f64` as a JSON number: finite values print exactly as `{}` prints
/// them, and NaN and ±∞, which JSON cannot represent, print as `null`.
struct JsonNum(f64);

impl fmt::Display for JsonNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn trace_event_json(event: &TraceEvent) -> String {
    let mut out = String::new();
    match event {
        TraceEvent::Launch {
            vm,
            role,
            server,
            threads,
            label,
            at,
        } => {
            let role = match role {
                VmRole::Friendly => "friendly",
                VmRole::Adversarial => "adversarial",
            };
            let threads = threads
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "{{\"kind\":\"launch\",\"vm\":{},\"role\":\"{role}\",\"server\":{server},\
                 \"threads\":[{threads}],\"label\":\"{}\",\"at\":{}}}",
                vm.raw(),
                json_escape(label),
                JsonNum(*at)
            );
        }
        TraceEvent::Terminate { vm, server } => {
            let _ = write!(
                out,
                "{{\"kind\":\"terminate\",\"vm\":{},\"server\":{server}}}",
                vm.raw()
            );
        }
        TraceEvent::Migrate { vm, from, to } => {
            let _ = write!(
                out,
                "{{\"kind\":\"migrate\",\"vm\":{},\"from\":{from},\"to\":{to}}}",
                vm.raw()
            );
        }
        TraceEvent::SwapProfile { vm, label } => {
            let _ = write!(
                out,
                "{{\"kind\":\"swap-profile\",\"vm\":{},\"label\":\"{}\"}}",
                vm.raw(),
                json_escape(label)
            );
        }
        TraceEvent::Degrade { server, factor, at } => {
            let _ = write!(
                out,
                "{{\"kind\":\"degrade\",\"server\":{server},\"factor\":{},\"at\":{}}}",
                JsonNum(*factor),
                JsonNum(*at)
            );
        }
        TraceEvent::ProbeFault { vm, kind, at } => {
            let _ = write!(
                out,
                "{{\"kind\":\"probe-fault\",\"vm\":{},\"fault\":\"{}\",\"at\":{}}}",
                vm.raw(),
                kind.as_str(),
                JsonNum(*at)
            );
        }
    }
    out
}

/// An in-flight wall-clock measurement, returned by [`Telemetry::begin`].
///
/// When telemetry is disabled the clock is never read, keeping the
/// instrumented path free of `Instant::now` syscalls.
#[derive(Debug)]
#[must_use = "pass the clock back to Telemetry::span to record the phase"]
pub struct SpanClock(Option<Instant>);

impl SpanClock {
    fn elapsed_ns(&self) -> u64 {
        self.0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
    }
}

/// A recording handle for one parallel unit of work.
///
/// Built either disabled (all methods are no-ops) or enabled for a
/// specific unit index; harnesses hand each victim/job/cell its own
/// enabled handle and merge the buffers in unit order, which is what
/// makes the merged stream independent of the thread count.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Option<Recorder>,
}

#[derive(Debug)]
struct Recorder {
    unit: usize,
    events: Vec<TelemetryEvent>,
}

impl Telemetry {
    /// A no-op handle: nothing is buffered, no clocks are read.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle recording on behalf of parallel unit `unit`.
    pub fn for_unit(unit: usize) -> Self {
        Telemetry {
            inner: Some(Recorder {
                unit,
                events: Vec::new(),
            }),
        }
    }

    /// An enabled handle for `unit` when `enabled`, a no-op one otherwise.
    pub fn for_unit_if(enabled: bool, unit: usize) -> Self {
        if enabled {
            Telemetry::for_unit(unit)
        } else {
            Telemetry::disabled()
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a wall-clock measurement (a no-op clock when disabled).
    pub fn begin(&self) -> SpanClock {
        SpanClock(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Records a completed phase span.
    pub fn span(&mut self, phase: Phase, sim_start_s: f64, sim_duration_s: f64, clock: SpanClock) {
        let wall_ns = clock.elapsed_ns();
        if let Some(rec) = &mut self.inner {
            rec.events.push(TelemetryEvent::Span {
                phase,
                unit: rec.unit,
                sim_start_s,
                sim_duration_s,
                wall_ns,
            });
        }
    }

    /// Adds `delta` to `counter` (zero deltas are dropped).
    pub fn count(&mut self, counter: Counter, delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(rec) = &mut self.inner {
            rec.events.push(TelemetryEvent::Count {
                counter,
                unit: rec.unit,
                delta,
            });
        }
    }

    /// Records a per-resource pressure estimate.
    pub fn gauge(&mut self, resource: Resource, value: f64) {
        if let Some(rec) = &mut self.inner {
            rec.events.push(TelemetryEvent::Gauge {
                resource,
                unit: rec.unit,
                value,
            });
        }
    }

    /// Records a service-loop sample at simulated time `at_s`.
    pub fn service_gauge(&mut self, metric: ServiceMetric, at_s: f64, value: f64) {
        if let Some(rec) = &mut self.inner {
            rec.events.push(TelemetryEvent::ServiceGauge {
                metric,
                unit: rec.unit,
                at_s,
                value,
            });
        }
    }

    /// Folds one simulator lifecycle event into the stream.
    pub fn cluster_event(&mut self, event: TraceEvent) {
        if let Some(rec) = &mut self.inner {
            rec.events.push(TelemetryEvent::Cluster {
                unit: rec.unit,
                event,
            });
        }
    }

    /// Folds a drained simulator event log into the stream, in order.
    pub fn cluster_events<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        if self.inner.is_some() {
            for event in events {
                self.cluster_event(event);
            }
        }
    }

    /// Total delta buffered so far for `counter` (0 when disabled).
    ///
    /// Lets a caller that shares the handle with a nested routine measure
    /// how many increments that routine recorded, by differencing totals
    /// taken before and after the call.
    pub fn counter_so_far(&self, counter: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |rec| {
            rec.events
                .iter()
                .filter_map(|e| match e {
                    TelemetryEvent::Count {
                        counter: c, delta, ..
                    } if *c == counter => Some(*delta),
                    _ => None,
                })
                .sum()
        })
    }

    /// Consumes the handle, yielding its buffered events in record order.
    pub fn into_events(self) -> Vec<TelemetryEvent> {
        self.inner.map(|rec| rec.events).unwrap_or_default()
    }
}

/// Order statistics over the simulated durations of one phase's spans —
/// the first-class latency summary the service report prints. Built by
/// [`TelemetryLog::latency_summary`] on `bolt_linalg::stats::percentile`
/// (linear interpolation), so p50 of a two-sample log is their midpoint
/// and a single-sample log reports that sample everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median simulated duration (seconds).
    pub p50: f64,
    /// 90th-percentile simulated duration (seconds).
    pub p90: f64,
    /// 99th-percentile simulated duration (seconds).
    pub p99: f64,
    /// Worst simulated duration (seconds).
    pub max: f64,
}

/// A merged, ordered telemetry stream — the unit buffers of one run,
/// concatenated in unit order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryLog {
    events: Vec<TelemetryEvent>,
}

impl TelemetryLog {
    /// An empty log.
    pub fn new() -> Self {
        TelemetryLog { events: Vec::new() }
    }

    /// Wraps an already-ordered event sequence.
    pub fn from_events(events: Vec<TelemetryEvent>) -> Self {
        TelemetryLog { events }
    }

    /// The events, in merged order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends one unit's buffer. Call in unit order to keep the merged
    /// stream deterministic across thread counts.
    pub fn merge(&mut self, telemetry: Telemetry) {
        self.events.extend(telemetry.into_events());
    }

    /// Appends an already-ordered batch of events.
    pub fn extend(&mut self, events: Vec<TelemetryEvent>) {
        self.events.extend(events);
    }

    /// Consumes the log, returning the event sequence.
    pub fn into_events(self) -> Vec<TelemetryEvent> {
        self.events
    }

    /// Sums all increments of `counter`.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Count {
                    counter: c, delta, ..
                } if *c == counter => Some(*delta),
                _ => None,
            })
            .sum()
    }

    /// Order statistics over the simulated durations of `phase`'s spans,
    /// or `None` when the log holds no such span. Uses only `sim_duration_s`
    /// — never wall time — so the summary is byte-identical across thread
    /// counts. Non-finite durations (a caller can record one) are
    /// dropped rather than poisoning the percentiles with NaN; a log whose
    /// matching spans are all non-finite yields `None`.
    pub fn latency_summary(&self, phase: Phase) -> Option<LatencySummary> {
        let mut durations: Vec<f64> = self
            .events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Span {
                    phase: p,
                    sim_duration_s,
                    ..
                } if *p == phase && sim_duration_s.is_finite() => Some(*sim_duration_s),
                _ => None,
            })
            .collect();
        if durations.is_empty() {
            return None;
        }
        durations.sort_by(f64::total_cmp);
        let pct =
            |p: f64| bolt_linalg::stats::percentile(&durations, p).expect("finite sorted samples");
        Some(LatencySummary {
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
            max: *durations.last().unwrap(),
        })
    }

    /// A copy with every nondeterministic field (wall-clock durations)
    /// zeroed, suitable for byte-level comparison across runs and thread
    /// counts.
    pub fn normalized(&self) -> TelemetryLog {
        let events = self
            .events
            .iter()
            .cloned()
            .map(|e| match e {
                TelemetryEvent::Span {
                    phase,
                    unit,
                    sim_start_s,
                    sim_duration_s,
                    ..
                } => TelemetryEvent::Span {
                    phase,
                    unit,
                    sim_start_s,
                    sim_duration_s,
                    wall_ns: 0,
                },
                other => other,
            })
            .collect();
        TelemetryLog { events }
    }

    /// Encodes the log as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] on filesystem failure.
    pub fn write_jsonl<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_jsonl())
    }

    /// Renders per-phase and per-counter aggregates as a table.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(vec!["metric", "events", "total"]);
        for phase in Phase::ALL {
            let mut n = 0u64;
            let (mut sim_s, mut wall_ns) = (0.0f64, 0u64);
            for e in &self.events {
                if let TelemetryEvent::Span {
                    phase: p,
                    sim_duration_s,
                    wall_ns: w,
                    ..
                } = e
                {
                    if *p == phase {
                        n += 1;
                        sim_s += sim_duration_s;
                        wall_ns += w;
                    }
                }
            }
            if n > 0 {
                t.row(vec![
                    format!("span {}", phase.as_str()),
                    n.to_string(),
                    format!("{sim_s:.1}s sim, {:.1}ms wall", wall_ns as f64 / 1e6),
                ]);
            }
        }
        for counter in Counter::ALL {
            let n = self
                .events
                .iter()
                .filter(|e| matches!(e, TelemetryEvent::Count { counter: c, .. } if *c == counter))
                .count();
            if n > 0 {
                t.row(vec![
                    format!("counter {}", counter.as_str()),
                    n.to_string(),
                    self.counter_total(counter).to_string(),
                ]);
            }
        }
        for resource in Resource::ALL {
            let values: Vec<f64> = self
                .events
                .iter()
                .filter_map(|e| match e {
                    TelemetryEvent::Gauge {
                        resource: r, value, ..
                    } if *r == resource => Some(*value),
                    _ => None,
                })
                .collect();
            if !values.is_empty() {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                t.row(vec![
                    format!("gauge {}", resource.short_name()),
                    values.len().to_string(),
                    format!("mean {mean:.1}"),
                ]);
            }
        }
        for metric in ServiceMetric::ALL {
            let values: Vec<f64> = self
                .events
                .iter()
                .filter_map(|e| match e {
                    TelemetryEvent::ServiceGauge {
                        metric: m, value, ..
                    } if *m == metric => Some(*value),
                    _ => None,
                })
                .collect();
            if !values.is_empty() {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let peak = values.iter().cloned().fold(f64::MIN, f64::max);
                t.row(vec![
                    format!("service {}", metric.as_str()),
                    values.len().to_string(),
                    format!("mean {mean:.1}, peak {peak:.1}"),
                ]);
            }
        }
        let cluster = self
            .events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Cluster { .. }))
            .count();
        if cluster > 0 {
            t.row(vec![
                "cluster events".to_string(),
                cluster.to_string(),
                String::new(),
            ]);
        }
        t
    }
}

/// Extracts a `--telemetry <path>` (or `--telemetry=<path>`) flag from a
/// command line, for examples that want the same switch as the CLI.
pub fn telemetry_path_from_args<I, S>(args: I) -> Option<PathBuf>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let a = a.as_ref();
        if a == "--telemetry" {
            return args.next().map(|p| PathBuf::from(p.as_ref()));
        }
        if let Some(rest) = a.strip_prefix("--telemetry=") {
            return Some(PathBuf::from(rest));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_sim::{ProbeFaultKind, VmId};
    use std::collections::HashSet;

    fn sample_log() -> TelemetryLog {
        let mut unit0 = Telemetry::for_unit(0);
        unit0.cluster_event(TraceEvent::Launch {
            vm: VmId::from_raw(1),
            role: VmRole::Adversarial,
            server: 0,
            threads: vec![0, 1],
            label: "bolt \"probe\"\nvm".to_string(),
            at: 0.0,
        });
        let mut unit1 = Telemetry::for_unit(1);
        let clock = unit1.begin();
        unit1.span(Phase::ProbeSweep, 12.5, 3.25, clock);
        unit1.count(Counter::SgdIterations, 9600);
        unit1.count(Counter::ProbeSamples, 0); // dropped
        unit1.gauge(Resource::Llc, 34.0625);
        unit1.cluster_event(TraceEvent::Migrate {
            vm: VmId::from_raw(1),
            from: 0,
            to: 3,
        });
        let mut log = TelemetryLog::new();
        log.merge(unit0);
        log.merge(unit1);
        log
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let clock = t.begin();
        t.span(Phase::ProbeSweep, 0.0, 1.0, clock);
        t.count(Counter::SgdIterations, 5);
        t.gauge(Resource::Llc, 10.0);
        t.cluster_event(TraceEvent::Terminate {
            vm: VmId::from_raw(0),
            server: 0,
        });
        assert!(t.into_events().is_empty());
    }

    #[test]
    fn events_carry_their_unit() {
        let log = sample_log();
        assert_eq!(log.len(), 5);
        assert_eq!(log.events()[0].unit(), 0);
        assert!(log.events()[1..].iter().all(|e| e.unit() == 1));
        assert_eq!(log.counter_total(Counter::SgdIterations), 9600);
        assert_eq!(log.counter_total(Counter::ProbeSamples), 0);
    }

    #[test]
    fn jsonl_lines_are_pinned_for_every_event_kind() {
        let mut t = Telemetry::for_unit(2);
        t.service_gauge(ServiceMetric::QueueDepth, 120.0, 7.0);
        // JSON has no NaN or infinity: non-finite numbers are written as null.
        t.gauge(Resource::Llc, f64::NAN);
        let clock = t.begin();
        t.span(Phase::ServiceRequest, f64::INFINITY, f64::NAN, clock);
        t.cluster_events([
            TraceEvent::Terminate {
                vm: VmId::from_raw(9),
                server: 1,
            },
            TraceEvent::SwapProfile {
                vm: VmId::from_raw(4),
                label: "spark\tals".to_string(),
            },
            TraceEvent::Degrade {
                server: 3,
                factor: 0.25,
                at: 40.0,
            },
            TraceEvent::ProbeFault {
                vm: VmId::from_raw(6),
                kind: ProbeFaultKind::Blackout,
                at: 55.5,
            },
        ]);
        let mut log = sample_log();
        log.merge(t);
        let expected = [
            r#"{"type":"cluster","unit":0,"event":{"kind":"launch","vm":1,"role":"adversarial","server":0,"threads":[0,1],"label":"bolt \"probe\"\nvm","at":0}}"#,
            r#"{"type":"span","phase":"probe-sweep","unit":1,"sim_start_s":12.5,"sim_duration_s":3.25,"wall_ns":0}"#,
            r#"{"type":"count","counter":"sgd-iterations","unit":1,"delta":9600}"#,
            r#"{"type":"gauge","resource":"LLC","unit":1,"value":34.0625}"#,
            r#"{"type":"cluster","unit":1,"event":{"kind":"migrate","vm":1,"from":0,"to":3}}"#,
            r#"{"type":"service-gauge","metric":"queue-depth","unit":2,"at_s":120,"value":7}"#,
            r#"{"type":"gauge","resource":"LLC","unit":2,"value":null}"#,
            r#"{"type":"span","phase":"service-request","unit":2,"sim_start_s":null,"sim_duration_s":null,"wall_ns":0}"#,
            r#"{"type":"cluster","unit":2,"event":{"kind":"terminate","vm":9,"server":1}}"#,
            r#"{"type":"cluster","unit":2,"event":{"kind":"swap-profile","vm":4,"label":"spark\tals"}}"#,
            r#"{"type":"cluster","unit":2,"event":{"kind":"degrade","server":3,"factor":0.25,"at":40}}"#,
            r#"{"type":"cluster","unit":2,"event":{"kind":"probe-fault","vm":6,"fault":"blackout","at":55.5}}"#,
        ];
        let text = log.normalized().to_jsonl();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn wire_names_are_distinct() {
        fn assert_distinct(names: &[&str]) {
            let unique: HashSet<_> = names.iter().collect();
            assert_eq!(unique.len(), names.len(), "duplicate in {names:?}");
        }
        assert_distinct(&Phase::ALL.map(Phase::as_str));
        assert_distinct(&Counter::ALL.map(Counter::as_str));
        assert_distinct(&ServiceMetric::ALL.map(ServiceMetric::as_str));
        assert_distinct(
            &[
                ProbeFaultKind::DroppedSample,
                ProbeFaultKind::TruncatedSample,
                ProbeFaultKind::Blackout,
            ]
            .map(ProbeFaultKind::as_str),
        );
    }

    #[test]
    fn write_jsonl_creates_parent_directories() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("bolt-telemetry-test");
        let path = dir.join("nested").join("trace.jsonl");
        log.write_jsonl(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), log.to_jsonl());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn normalized_zeroes_wall_time_only() {
        let mut t = Telemetry::for_unit(2);
        let clock = t.begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.span(Phase::ContentMatch, 1.0, 2.0, clock);
        let mut log = TelemetryLog::new();
        log.merge(t);
        let TelemetryEvent::Span { wall_ns, .. } = log.events()[0] else {
            panic!("expected span");
        };
        assert!(wall_ns > 0);
        let norm = log.normalized();
        assert!(matches!(
            norm.events()[0],
            TelemetryEvent::Span {
                phase: Phase::ContentMatch,
                unit: 2,
                wall_ns: 0,
                ..
            }
        ));
    }

    #[test]
    fn summary_table_renders_every_event_kind() {
        let mut log = sample_log();
        let mut t = Telemetry::for_unit(3);
        t.service_gauge(ServiceMetric::QueueDepth, 120.0, 7.0);
        t.service_gauge(ServiceMetric::BreakersOpen, 180.0, 1.0);
        t.count(Counter::RequestsShed, 2);
        log.merge(t);
        let summary = log.summary_table().render();
        assert!(summary.contains("span probe-sweep"));
        assert!(summary.contains("9600"));
        assert!(summary.contains("gauge LLC"));
        assert!(summary.contains("cluster events"));
        assert!(summary.contains("service queue-depth"));
        assert!(summary.contains("counter requests-shed"));
    }

    #[test]
    fn latency_summary_interpolates_a_known_distribution() {
        let mut t = Telemetry::for_unit(0);
        // Durations 1..=100, recorded out of order to prove sorting.
        for d in (1..=100).rev() {
            let clock = t.begin();
            t.span(Phase::ServiceRequest, 0.0, d as f64, clock);
        }
        let mut log = TelemetryLog::new();
        log.merge(t);
        let s = log.latency_summary(Phase::ServiceRequest).unwrap();
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p90 - 90.1).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn latency_summary_single_sample_and_all_equal() {
        let mut t = Telemetry::for_unit(0);
        let clock = t.begin();
        t.span(Phase::ServiceRequest, 5.0, 42.0, clock);
        let mut log = TelemetryLog::new();
        log.merge(t);
        let s = log.latency_summary(Phase::ServiceRequest).unwrap();
        assert_eq!((s.p50, s.p90, s.p99, s.max), (42.0, 42.0, 42.0, 42.0));

        let mut t = Telemetry::for_unit(0);
        for _ in 0..7 {
            let clock = t.begin();
            t.span(Phase::ProbeSweep, 0.0, 3.5, clock);
        }
        let mut log = TelemetryLog::new();
        log.merge(t);
        let s = log.latency_summary(Phase::ProbeSweep).unwrap();
        assert_eq!((s.p50, s.p90, s.p99, s.max), (3.5, 3.5, 3.5, 3.5));
        // No spans of some other phase → no summary.
        assert_eq!(log.latency_summary(Phase::MrcSweep), None);
        assert_eq!(TelemetryLog::new().latency_summary(Phase::ProbeSweep), None);
    }

    #[test]
    fn latency_summary_drops_non_finite_durations() {
        // A corrupt log must not turn the percentiles into NaN: non-finite
        // durations are dropped, and an all-non-finite log yields None.
        let span = |d: f64| TelemetryEvent::Span {
            phase: Phase::ServiceRequest,
            unit: 0,
            sim_start_s: 0.0,
            sim_duration_s: d,
            wall_ns: 0,
        };
        let mut log = TelemetryLog::new();
        log.extend(vec![
            span(7.0),
            span(f64::NAN),
            span(f64::INFINITY),
            span(7.0),
        ]);
        let s = log.latency_summary(Phase::ServiceRequest).unwrap();
        assert_eq!((s.p50, s.p90, s.p99, s.max), (7.0, 7.0, 7.0, 7.0));
        assert!(s.p50.is_finite() && s.max.is_finite());

        let mut poisoned = TelemetryLog::new();
        poisoned.extend(vec![span(f64::NAN), span(f64::NEG_INFINITY)]);
        assert_eq!(poisoned.latency_summary(Phase::ServiceRequest), None);
    }

    #[test]
    fn telemetry_flag_parsing() {
        assert_eq!(
            telemetry_path_from_args(["detect", "--telemetry", "out.jsonl"]),
            Some(PathBuf::from("out.jsonl"))
        );
        assert_eq!(
            telemetry_path_from_args(["--telemetry=x/y.jsonl"]),
            Some(PathBuf::from("x/y.jsonl"))
        );
        assert_eq!(telemetry_path_from_args(["detect", "--servers", "8"]), None);
        // A trailing bare flag yields no path.
        assert_eq!(telemetry_path_from_args(["--telemetry"]), None);
    }
}
