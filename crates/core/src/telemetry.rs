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
//! Logs export as JSONL ([`TelemetryLog::to_jsonl`], round-tripped by
//! [`TelemetryLog::from_jsonl`] — the workspace has no serialization
//! library, so the wire format is hand-rolled here) and render as
//! human-readable tables ([`TelemetryLog::timeline_table`],
//! [`TelemetryLog::summary_table`]).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bolt_sim::telemetry::EventSink;
use bolt_sim::vm::VmRole;
use bolt_sim::{ProbeFaultKind, TraceEvent, VmId};
use bolt_workloads::Resource;

use crate::error::BoltError;
use crate::report::Table;

/// A detection-pipeline phase covered by a span timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Training the hybrid recommender (SVD + SGD completion). A
    /// [`FitCacheHit`](Counter::FitCacheHit) replaces this span entirely:
    /// cached fits emit the hit counter and *no* fit span.
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

    fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == s)
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
    /// Recommender fits served from the [`FitCache`] — no training ran
    /// and no [`Phase::RecommenderFit`] span is recorded.
    ///
    /// [`FitCache`]: bolt_recommender::FitCache
    FitCacheHit,
    /// Recommender fits that missed the cache and trained from scratch
    /// (always paired with a [`Phase::RecommenderFit`] span).
    FitCacheMiss,
    /// VMs live in the cluster's storage arena (sampled, not incremental:
    /// drivers record the occupancy reached by a sweep).
    ArenaVmsLive,
    /// Launches that recycled a free-listed arena slot left by a churned
    /// VM — reuse keeps the arena dense through arrival/departure cycles.
    ArenaSlotsReused,
    /// Residency-index mutations (per-server sorted-id inserts and
    /// removals) performed by launches, terminations, and migrations.
    ResidencyIndexOps,
    /// Neighbor-query results served from the deterministic aggregate
    /// cache without re-walking co-residents.
    AggregateCacheHit,
    /// Neighbor queries that walked co-residents and (if on a fully
    /// deterministic server) populated the aggregate cache.
    AggregateCacheMiss,
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
    /// Recommender fits warm-started from a cached neighbor model instead
    /// of training from scratch.
    FitWarmStarts,
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
    pub const ALL: [Counter; 32] = [
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
        Counter::FitCacheHit,
        Counter::FitCacheMiss,
        Counter::ArenaVmsLive,
        Counter::ArenaSlotsReused,
        Counter::ResidencyIndexOps,
        Counter::AggregateCacheHit,
        Counter::AggregateCacheMiss,
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
        Counter::FitWarmStarts,
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
            Counter::FitCacheHit => "fit-cache-hit",
            Counter::FitCacheMiss => "fit-cache-miss",
            Counter::ArenaVmsLive => "arena-vms-live",
            Counter::ArenaSlotsReused => "arena-slots-reused",
            Counter::ResidencyIndexOps => "residency-index-ops",
            Counter::AggregateCacheHit => "aggregate-cache-hit",
            Counter::AggregateCacheMiss => "aggregate-cache-miss",
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
            Counter::FitWarmStarts => "fit-warm-starts",
            Counter::SweepsShared => "sweeps-shared",
            Counter::EventsProcessed => "events-processed",
            Counter::IdleSkipped => "idle-skipped-s",
        }
    }

    fn parse(s: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.as_str() == s)
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

    fn parse(s: &str) -> Option<ServiceMetric> {
        ServiceMetric::ALL.into_iter().find(|m| m.as_str() == s)
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

    /// A compact single-line rendering for timeline dumps.
    pub fn describe(&self) -> String {
        match self {
            TelemetryEvent::Span {
                phase,
                sim_start_s,
                sim_duration_s,
                wall_ns,
                ..
            } => format!(
                "{} t={sim_start_s:.1}s +{sim_duration_s:.1}s wall={:.3}ms",
                phase.as_str(),
                *wall_ns as f64 / 1e6,
            ),
            TelemetryEvent::Count { counter, delta, .. } => {
                format!("{} +{delta}", counter.as_str())
            }
            TelemetryEvent::Gauge {
                resource, value, ..
            } => {
                format!("{} = {value:.1}", resource.short_name())
            }
            TelemetryEvent::Cluster { event, .. } => event.describe(),
            TelemetryEvent::ServiceGauge {
                metric,
                at_s,
                value,
                ..
            } => {
                format!("{} t={at_s:.1}s = {value:.1}", metric.as_str())
            }
        }
    }

    /// Encodes the event as a single-line JSON object.
    pub fn to_json(&self) -> String {
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
                     \"sim_start_s\":{sim_start_s},\"sim_duration_s\":{sim_duration_s},\
                     \"wall_ns\":{wall_ns}}}",
                    phase.as_str()
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
                    "{{\"type\":\"gauge\",\"resource\":\"{}\",\"unit\":{unit},\"value\":{value}}}",
                    resource.short_name()
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
                     \"at_s\":{at_s},\"value\":{value}}}",
                    metric.as_str()
                );
            }
        }
        out
    }

    /// Decodes an event from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::Telemetry`] on malformed JSON or unknown
    /// names.
    pub fn from_json(s: &str) -> Result<TelemetryEvent, BoltError> {
        let value = json::parse(s).map_err(bad)?;
        decode_event(&value)
    }
}

fn bad<S: Into<String>>(reason: S) -> BoltError {
    BoltError::Telemetry {
        reason: reason.into(),
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
                 \"threads\":[{threads}],\"label\":\"{}\",\"at\":{at}}}",
                vm.raw(),
                json_escape(label)
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
                "{{\"kind\":\"degrade\",\"server\":{server},\"factor\":{factor},\"at\":{at}}}"
            );
        }
        TraceEvent::ProbeFault { vm, kind, at } => {
            let _ = write!(
                out,
                "{{\"kind\":\"probe-fault\",\"vm\":{},\"fault\":\"{}\",\"at\":{at}}}",
                vm.raw(),
                kind.as_str()
            );
        }
    }
    out
}

fn decode_event(value: &json::Json) -> Result<TelemetryEvent, BoltError> {
    let kind = value
        .field("type")
        .and_then(json::Json::as_str)
        .ok_or_else(|| bad("event missing \"type\""))?;
    let unit = value
        .field("unit")
        .and_then(json::Json::as_usize)
        .ok_or_else(|| bad("event missing \"unit\""))?;
    match kind {
        "span" => {
            let phase = value
                .field("phase")
                .and_then(json::Json::as_str)
                .and_then(Phase::parse)
                .ok_or_else(|| bad("span with unknown \"phase\""))?;
            Ok(TelemetryEvent::Span {
                phase,
                unit,
                sim_start_s: require_f64(value, "sim_start_s")?,
                sim_duration_s: require_f64(value, "sim_duration_s")?,
                wall_ns: require_u64(value, "wall_ns")?,
            })
        }
        "count" => {
            let counter = value
                .field("counter")
                .and_then(json::Json::as_str)
                .and_then(Counter::parse)
                .ok_or_else(|| bad("count with unknown \"counter\""))?;
            Ok(TelemetryEvent::Count {
                counter,
                unit,
                delta: require_u64(value, "delta")?,
            })
        }
        "gauge" => {
            let name = value
                .field("resource")
                .and_then(json::Json::as_str)
                .ok_or_else(|| bad("gauge missing \"resource\""))?;
            let resource = Resource::ALL
                .into_iter()
                .find(|r| r.short_name() == name)
                .ok_or_else(|| bad(format!("gauge with unknown resource {name:?}")))?;
            Ok(TelemetryEvent::Gauge {
                resource,
                unit,
                value: require_f64(value, "value")?,
            })
        }
        "cluster" => {
            let event = value
                .field("event")
                .ok_or_else(|| bad("cluster event missing \"event\""))?;
            Ok(TelemetryEvent::Cluster {
                unit,
                event: decode_trace_event(event)?,
            })
        }
        "service-gauge" => {
            let metric = value
                .field("metric")
                .and_then(json::Json::as_str)
                .and_then(ServiceMetric::parse)
                .ok_or_else(|| bad("service-gauge with unknown \"metric\""))?;
            Ok(TelemetryEvent::ServiceGauge {
                metric,
                unit,
                at_s: require_f64(value, "at_s")?,
                value: require_f64(value, "value")?,
            })
        }
        other => Err(bad(format!("unknown event type {other:?}"))),
    }
}

fn decode_trace_event(value: &json::Json) -> Result<TraceEvent, BoltError> {
    let kind = value
        .field("kind")
        .and_then(json::Json::as_str)
        .ok_or_else(|| bad("cluster event missing \"kind\""))?;
    // Every kind except `degrade` names a VM; read it lazily per arm.
    let vm = require_u64(value, "vm").map(VmId::from_raw);
    match kind {
        "launch" => {
            let vm = vm?;
            let role = match value.field("role").and_then(json::Json::as_str) {
                Some("friendly") => VmRole::Friendly,
                Some("adversarial") => VmRole::Adversarial,
                other => return Err(bad(format!("launch with unknown role {other:?}"))),
            };
            let threads = value
                .field("threads")
                .and_then(json::Json::as_array)
                .ok_or_else(|| bad("launch missing \"threads\""))?
                .iter()
                .map(|t| t.as_usize().ok_or_else(|| bad("non-integer thread slot")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TraceEvent::Launch {
                vm,
                role,
                server: require_usize(value, "server")?,
                threads,
                label: require_str(value, "label")?,
                at: require_f64(value, "at")?,
            })
        }
        "terminate" => Ok(TraceEvent::Terminate {
            vm: vm?,
            server: require_usize(value, "server")?,
        }),
        "migrate" => Ok(TraceEvent::Migrate {
            vm: vm?,
            from: require_usize(value, "from")?,
            to: require_usize(value, "to")?,
        }),
        "swap-profile" => Ok(TraceEvent::SwapProfile {
            vm: vm?,
            label: require_str(value, "label")?,
        }),
        "degrade" => Ok(TraceEvent::Degrade {
            server: require_usize(value, "server")?,
            factor: require_f64(value, "factor")?,
            at: require_f64(value, "at")?,
        }),
        "probe-fault" => {
            let name = value
                .field("fault")
                .and_then(json::Json::as_str)
                .ok_or_else(|| bad("probe-fault missing \"fault\""))?;
            let kind = ProbeFaultKind::parse(name)
                .ok_or_else(|| bad(format!("unknown probe fault kind {name:?}")))?;
            Ok(TraceEvent::ProbeFault {
                vm: vm?,
                kind,
                at: require_f64(value, "at")?,
            })
        }
        other => Err(bad(format!("unknown cluster event kind {other:?}"))),
    }
}

fn require_f64(value: &json::Json, name: &str) -> Result<f64, BoltError> {
    value
        .field(name)
        .and_then(json::Json::as_f64)
        .ok_or_else(|| bad(format!("missing numeric field {name:?}")))
}

fn require_u64(value: &json::Json, name: &str) -> Result<u64, BoltError> {
    value
        .field(name)
        .and_then(json::Json::as_u64)
        .ok_or_else(|| bad(format!("missing integer field {name:?}")))
}

fn require_usize(value: &json::Json, name: &str) -> Result<usize, BoltError> {
    require_u64(value, name).map(|v| v as usize)
}

fn require_str(value: &json::Json, name: &str) -> Result<String, BoltError> {
    value
        .field(name)
        .and_then(json::Json::as_str)
        .map(ToString::to_string)
        .ok_or_else(|| bad(format!("missing string field {name:?}")))
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

/// The simulator's sink trait, implemented so cluster code can write
/// straight into a detection-pipeline telemetry buffer.
impl EventSink<TraceEvent> for Telemetry {
    fn record(&mut self, event: TraceEvent) {
        self.cluster_event(event);
    }

    fn enabled(&self) -> bool {
        self.is_enabled()
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
    /// counts. Non-finite durations (a corrupt or hand-edited log) are
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

    /// Decodes a JSONL log (blank lines ignored).
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::Telemetry`] naming the first malformed line.
    pub fn from_jsonl(s: &str) -> Result<TelemetryLog, BoltError> {
        let mut events = Vec::new();
        for (i, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(
                TelemetryEvent::from_json(line).map_err(|e| bad(format!("line {}: {e}", i + 1)))?,
            );
        }
        Ok(TelemetryLog { events })
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

    /// Reads and decodes a JSONL log from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::Telemetry`] on read or decode failure.
    pub fn read_jsonl<P: AsRef<Path>>(path: P) -> Result<TelemetryLog, BoltError> {
        let s = fs::read_to_string(path.as_ref())
            .map_err(|e| bad(format!("reading {}: {e}", path.as_ref().display())))?;
        TelemetryLog::from_jsonl(&s)
    }

    /// Renders the full stream as a human-readable timeline table.
    pub fn timeline_table(&self) -> Table {
        let mut t = Table::new(vec!["#", "unit", "event"]);
        for (i, event) in self.events.iter().enumerate() {
            t.row(vec![
                i.to_string(),
                event.unit().to_string(),
                event.describe(),
            ]);
        }
        t
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

/// A minimal JSON reader for the hand-rolled JSONL wire format. The
/// workspace has no serialization library, so decoding is done here:
/// just enough of RFC 8259 for the objects this module emits.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// An object, fields in source order.
        Object(Vec<(String, Json)>),
        /// An array.
        Array(Vec<Json>),
        /// A string.
        Str(String),
        /// A number (f64 covers every value this format emits).
        Num(f64),
        /// A boolean.
        Bool(bool),
        /// null.
        Null,
    }

    impl Json {
        pub fn field(&self, name: &str) -> Option<&Json> {
            match self {
                Json::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                    Some(*x as u64)
                }
                _ => None,
            }
        }

        pub fn as_usize(&self) -> Option<usize> {
            self.as_u64().map(|v| v as usize)
        }

        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Array(items) => Some(items),
                _ => None,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at offset {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Json::Str),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(format!("unexpected input at offset {}", self.pos)),
            }
        }

        fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(format!("bad literal at offset {}", self.pos))
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                if self.pos + 5 > self.bytes.len() {
                                    return Err("truncated \\u escape".to_string());
                                }
                                let hex =
                                    std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                        .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "bad \\u escape".to_string())?,
                                );
                                self.pos += 4;
                            }
                            _ => return Err(format!("bad escape at offset {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is a &str,
                        // so boundaries are valid).
                        let s = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid utf-8".to_string())?;
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "invalid utf-8 in number".to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn jsonl_round_trips_exactly() {
        let log = sample_log();
        let text = log.to_jsonl();
        let back = TelemetryLog::from_jsonl(&text).unwrap();
        assert_eq!(back, log);
        // And the re-encoding is byte-identical.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn jsonl_file_round_trip() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("bolt-telemetry-test");
        let path = dir.join("trace.jsonl");
        log.write_jsonl(&path).unwrap();
        let back = TelemetryLog::read_jsonl(&path).unwrap();
        assert_eq!(back, log);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn from_jsonl_reports_bad_lines() {
        let err = TelemetryLog::from_jsonl("{\"type\":\"span\"}\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        assert!(TelemetryLog::from_jsonl("not json\n").is_err());
        assert!(TelemetryLog::from_jsonl("{\"type\":\"mystery\",\"unit\":0}\n").is_err());
        // Blank lines are fine.
        assert!(TelemetryLog::from_jsonl("\n\n").unwrap().is_empty());
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
    fn tables_render_every_event_kind() {
        let log = sample_log();
        let timeline = log.timeline_table().render();
        assert!(timeline.contains("probe-sweep"));
        assert!(timeline.contains("sgd-iterations +9600"));
        assert!(timeline.contains("LLC = 34.1"));
        assert!(timeline.contains("migrate vm-1"));
        let summary = log.summary_table().render();
        assert!(summary.contains("span probe-sweep"));
        assert!(summary.contains("9600"));
        assert!(summary.contains("gauge LLC"));
        assert!(summary.contains("cluster events"));
    }

    #[test]
    fn chaos_trace_events_round_trip() {
        // `degrade` carries no "vm" field; the decoder must not demand one.
        let mut log = TelemetryLog::new();
        log.extend(vec![
            TelemetryEvent::Cluster {
                unit: 1,
                event: TraceEvent::Degrade {
                    server: 3,
                    factor: 0.25,
                    at: 40.0,
                },
            },
            TelemetryEvent::Cluster {
                unit: 1,
                event: TraceEvent::ProbeFault {
                    vm: VmId::from_raw(6),
                    kind: ProbeFaultKind::Blackout,
                    at: 55.5,
                },
            },
            TelemetryEvent::Count {
                counter: Counter::FaultsInjected,
                unit: 1,
                delta: 2,
            },
            TelemetryEvent::Count {
                counter: Counter::WindowsDiscarded,
                unit: 1,
                delta: 1,
            },
            TelemetryEvent::Count {
                counter: Counter::DetectionRetries,
                unit: 1,
                delta: 1,
            },
        ]);
        let text = log.to_jsonl();
        assert!(text.contains("\"kind\":\"degrade\""));
        assert!(text.contains("\"fault\":\"blackout\""));
        let back = TelemetryLog::from_jsonl(&text).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_jsonl(), text);
        assert_eq!(back.counter_total(Counter::FaultsInjected), 2);
        let rendered = log.timeline_table().render();
        assert!(rendered.contains("degrade server 3"));
        assert!(rendered.contains("blackout"));
    }

    #[test]
    fn wire_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::parse(phase.as_str()), Some(phase));
        }
        for counter in Counter::ALL {
            assert_eq!(Counter::parse(counter.as_str()), Some(counter));
        }
        assert_eq!(Phase::parse("nope"), None);
        assert_eq!(Counter::parse("nope"), None);
    }

    #[test]
    fn service_gauges_round_trip_and_render() {
        let mut t = Telemetry::for_unit(3);
        t.service_gauge(ServiceMetric::QueueDepth, 120.0, 7.0);
        t.service_gauge(ServiceMetric::BreakersOpen, 180.0, 1.0);
        t.count(Counter::RequestsShed, 2);
        let mut log = TelemetryLog::new();
        log.merge(t);
        let text = log.to_jsonl();
        assert!(text.contains("\"type\":\"service-gauge\""));
        assert!(text.contains("\"metric\":\"queue-depth\""));
        let back = TelemetryLog::from_jsonl(&text).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_jsonl(), text);
        assert_eq!(back.counter_total(Counter::RequestsShed), 2);
        let timeline = log.timeline_table().render();
        assert!(timeline.contains("queue-depth t=120.0s = 7.0"));
        let summary = log.summary_table().render();
        assert!(summary.contains("service queue-depth"));
        assert!(summary.contains("counter requests-shed"));
        for metric in ServiceMetric::ALL {
            assert_eq!(ServiceMetric::parse(metric.as_str()), Some(metric));
        }
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
    fn event_sink_impl_feeds_cluster_events() {
        let mut t = Telemetry::for_unit(0);
        assert!(EventSink::<TraceEvent>::enabled(&t));
        EventSink::record(
            &mut t,
            TraceEvent::Terminate {
                vm: VmId::from_raw(9),
                server: 1,
            },
        );
        assert_eq!(t.into_events().len(), 1);
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
