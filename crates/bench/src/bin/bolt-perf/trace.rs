//! The benchmark's own span recorder.
//!
//! Spans are kept in memory and written as JSONL when the run ends. The
//! tree is workload → seed → operation (hunt, request batch, region step)
//! → outside-timed layer call. The library's `TelemetryLog` spans carry
//! no parent links or start times, so they are attached under the layer
//! call that produced them with their inclusive wall time, and their
//! nesting is rebuilt from the one order the library guarantees: a span
//! is recorded when it *ends*, so children precede their parent (see
//! [`Tracer::attach_library`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bolt::{Phase, TelemetryEvent};

use crate::json::quote;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The hunt, request or step the span belongs to.
    pub op: Option<u64>,
    /// Start, in nanoseconds since the tracer was created; `None` for
    /// library spans, whose start the telemetry does not record.
    pub start_ns: Option<u64>,
    /// Wall duration, summed over `calls` when one span aggregates
    /// several calls of the same kind inside one operation.
    pub dur_ns: u64,
    pub calls: u64,
}

/// Id of the workload's root span, reserved when the tracer is created.
pub const ROOT: u64 = 1;

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next: ROOT,
            spans: Vec::new(),
        }
    }

    /// Allocates a span id before the span ends, so its children can name
    /// it as their parent.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Records a finished span under a reserved `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        op: Option<u64>,
        start: Instant,
        dur: Duration,
        calls: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns: Some(start.saturating_duration_since(self.origin).as_nanos() as u64),
            dur_ns: dur.as_nanos() as u64,
            calls,
        });
    }

    /// Attaches the library spans among `events` under `parent`.
    ///
    /// Each container phase claims, as its children, the longest run of
    /// not-yet-claimed spans just before it whose phases it can contain;
    /// whatever is left unclaimed hangs directly under `parent`. With
    /// children always recorded before their parent this rebuilds
    /// service-request ⊃ detection-iteration ⊃ {probe-sweep, mrc-sweep,
    /// content-match, decomposition, shutter-capture, matrix-completion,
    /// anytime-deepen ⊃ {decomposition, content-match, shutter-capture,
    /// matrix-completion}}. `op_of` is called on each span's phase in
    /// record order and may name the operation the span belongs to;
    /// spans it leaves unnamed inherit their library parent's operation.
    pub fn attach_library(
        &mut self,
        parent: u64,
        events: &[TelemetryEvent],
        mut op_of: impl FnMut(Phase) -> Option<u64>,
    ) {
        let mut spans: Vec<(Span, Phase)> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        for event in events {
            let TelemetryEvent::Span { phase, wall_ns, .. } = *event else {
                continue;
            };
            let idx = spans.len();
            let id = self.reserve();
            let keep = pending
                .iter()
                .rposition(|&i| !contains(phase, spans[i].1))
                .map_or(0, |p| p + 1);
            for i in pending.drain(keep..) {
                spans[i].0.parent = Some(id);
            }
            pending.push(idx);
            spans.push((
                Span {
                    id,
                    parent: None,
                    name: phase.as_str(),
                    op: op_of(phase),
                    start_ns: None,
                    dur_ns: wall_ns,
                    calls: 1,
                },
                phase,
            ));
        }
        for i in pending {
            spans[i].0.parent = Some(parent);
        }
        // Parents follow their children, so a backward sweep hands each
        // parent's operation down before any child is visited.
        let first_id = spans.first().map_or(0, |(s, _)| s.id);
        for i in (0..spans.len()).rev() {
            let inherited = spans[i]
                .0
                .parent
                .and_then(|p| p.checked_sub(first_id))
                .and_then(|j| spans.get(j as usize))
                .and_then(|(p, _)| p.op);
            if spans[i].0.op.is_none() {
                spans[i].0.op = inherited;
            }
        }
        self.spans.extend(spans.into_iter().map(|(s, _)| s));
    }

    /// When the tracer was created: the start of the root span.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"op\":{},\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
                s.id,
                opt(s.parent),
                quote(s.name),
                opt(s.op),
                opt(s.start_ns),
                s.dur_ns,
                s.calls
            );
        }
        out
    }
}

/// Whether a `parent` phase span can enclose a `child` phase span.
fn contains(parent: Phase, child: Phase) -> bool {
    use Phase::*;
    match parent {
        ServiceRequest => child == DetectionIteration,
        DetectionIteration => matches!(
            child,
            ProbeSweep
                | MrcSweep
                | ContentMatch
                | Decomposition
                | ShutterCapture
                | MatrixCompletion
                | AnytimeDeepen
        ),
        AnytimeDeepen => matches!(
            child,
            ContentMatch | Decomposition | ShutterCapture | MatrixCompletion
        ),
        _ => false,
    }
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub spans: u64,
    /// Calls covered (≥ `spans` when spans aggregate calls).
    pub calls: u64,
    /// Inclusive wall nanoseconds.
    pub wall_ns: f64,
    /// Self nanoseconds: wall minus the wall of direct children.
    pub self_ns: f64,
}

/// Per-name totals with self time, computed from parent links: a span's
/// self time is its duration minus its direct children's durations
/// (clamped at zero against timer jitter).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += s.calls;
        t.wall_ns += s.dur_ns as f64;
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        t.self_ns += s.dur_ns.saturating_sub(children) as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, wall_ns: u64) -> TelemetryEvent {
        TelemetryEvent::Span {
            phase,
            unit: 1,
            sim_start_s: 0.0,
            sim_duration_s: 0.0,
            wall_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let now = Instant::now();
        let root = t.reserve();
        let hunt = t.reserve();
        let snapshot = t.reserve();
        let dur = Duration::from_nanos(100);
        t.finish(snapshot, Some(hunt), "sim.snapshot", Some(0), now, dur, 1);
        let call = t.reserve();
        t.attach_library(
            call,
            &[
                span(Phase::ProbeSweep, 200),
                span(Phase::Decomposition, 300),
                span(Phase::DetectionIteration, 600),
            ],
            |_| Some(0),
        );
        t.finish(
            call,
            Some(hunt),
            "detector.hunt",
            Some(0),
            now,
            Duration::from_nanos(700),
            1,
        );
        t.finish(
            hunt,
            Some(root),
            "hunt",
            Some(0),
            now,
            Duration::from_nanos(850),
            1,
        );
        let totals = totals(t.spans());
        assert_eq!(totals["hunt"].self_ns, 50.0);
        assert_eq!(totals["detector.hunt"].self_ns, 100.0);
        assert_eq!(totals["detection-iteration"].self_ns, 100.0);
        assert_eq!(totals["decomposition"].self_ns, 300.0);
        assert_eq!(totals["sim.snapshot"].wall_ns, 100.0);
    }

    #[test]
    fn library_nesting_is_rebuilt_from_record_order() {
        let mut t = Tracer::new();
        let run = t.reserve();
        // Request 0: an anytime iteration (seed sweep, then a deepening
        // loop holding two decompositions and a content match) followed
        // by a fixed-shape iteration; request 1 timed out in the queue.
        let events = [
            span(Phase::RecommenderFit, 1000),
            span(Phase::ProbeSweep, 10),
            span(Phase::Decomposition, 20),
            span(Phase::ContentMatch, 5),
            span(Phase::Decomposition, 20),
            span(Phase::AnytimeDeepen, 60),
            span(Phase::DetectionIteration, 80),
            span(Phase::ProbeSweep, 10),
            span(Phase::Decomposition, 20),
            span(Phase::DetectionIteration, 40),
            span(Phase::ServiceRequest, 150),
            span(Phase::ServiceRequest, 1),
        ];
        let mut requests = 0;
        t.attach_library(run, &events, |phase| {
            (phase == Phase::ServiceRequest).then(|| {
                requests += 1;
                requests - 1
            })
        });
        let s = t.spans();
        let parent_name = |i: usize| {
            let p = s[i].parent.unwrap();
            s.iter().find(|x| x.id == p).map_or("run", |x| x.name)
        };
        assert_eq!(parent_name(0), "run");
        assert_eq!(parent_name(1), "detection-iteration");
        assert_eq!(parent_name(2), "anytime-deepen");
        assert_eq!(parent_name(3), "anytime-deepen");
        assert_eq!(parent_name(5), "detection-iteration");
        assert_eq!(parent_name(6), "service-request");
        assert_eq!(parent_name(8), "detection-iteration");
        assert_eq!(parent_name(9), "service-request");
        assert_eq!(parent_name(10), "run");
        assert_eq!(parent_name(11), "run");
        assert_eq!(s[6].parent, Some(s[10].id));
        // Operations flow down from each request to everything inside it.
        assert_eq!(s[2].op, Some(0));
        assert_eq!(s[9].op, Some(0));
        assert_eq!(s[11].op, Some(1));
        assert_eq!(s[0].op, None);
        let totals = totals(s);
        assert_eq!(totals["service-request"].self_ns, 150.0 - 120.0 + 1.0);
        assert_eq!(totals["anytime-deepen"].self_ns, 15.0);
        assert_eq!(totals["detection-iteration"].self_ns, 10.0 + 10.0);
        assert!(t.to_jsonl().lines().count() == events.len());
    }
}
