//! What every workload shares: sizes, the pass schedule, and the outcome
//! a run accumulates.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use bolt::{Counter, TelemetryEvent};

use crate::calib::{Job, Reference};
use crate::trace::Totals;

/// Result of a workload run: library errors and harness errors alike end
/// the run without a result line.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Workload sizes. [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::SMOKE`] runs every code path and correctness check in
/// seconds, for the unit tests and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Experiment seeds per detect pass (each one testbed).
    pub detect_seeds: usize,
    pub detect_servers: usize,
    pub detect_victims: usize,
    /// Service runs per serve pass (each its own seed).
    pub serve_seeds: usize,
    pub serve_servers: usize,
    pub serve_vms_per_server: usize,
    /// Base requests per service run (duplicates and storms add more).
    pub serve_requests: usize,
    /// Regions per region-churn pass (each its own seed).
    pub region_seeds: usize,
    pub region_servers: usize,
    pub region_vms_per_server: usize,
    pub region_steps: usize,
    pub region_probes_per_step: usize,
    pub region_churn_per_step: usize,
}

impl Scale {
    /// The measured sizes. Every pass holds hundreds of operations, so a
    /// single pass leaves well over ten beyond the p95, and takes 4–14 s
    /// on a 2-vCPU Xeon VM (a run makes at least two).
    pub const FULL: Scale = Scale {
        setup_reps: 15,
        detect_seeds: 10,
        detect_servers: 40,
        detect_victims: 108,
        serve_seeds: 8,
        serve_servers: 2000,
        serve_vms_per_server: 10,
        serve_requests: 100,
        region_seeds: 3,
        region_servers: 10_000,
        region_vms_per_server: 10,
        region_steps: 200,
        region_probes_per_step: 256,
        region_churn_per_step: 32,
    };

    /// Tiny sizes: every workload's drivers and checks, in seconds.
    pub const SMOKE: Scale = Scale {
        setup_reps: 2,
        detect_seeds: 2,
        detect_servers: 4,
        detect_victims: 6,
        serve_seeds: 2,
        serve_servers: 6,
        serve_vms_per_server: 3,
        serve_requests: 8,
        region_seeds: 2,
        region_servers: 12,
        region_vms_per_server: 4,
        region_steps: 5,
        region_probes_per_step: 8,
        region_churn_per_step: 3,
    };
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measuring time budget.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced passes and report the
    /// per-layer metrics from the traced ones.
    pub trace: bool,
    pub scale: Scale,
}

/// Decides how many passes over the workload's fixed input set a run
/// makes. The first pass is untraced; a traced run's second pass is
/// traced and later passes alternate, so the overhead comparison is not
/// skewed by drift. Every run makes at least two untraced passes, so each
/// operation's latency is a median of two or more. Past those minimums a
/// pass starts while at least half of it (judged by the previous pass)
/// fits in the time budget.
#[derive(Debug)]
pub struct Passes {
    start: Instant,
    pass_start: Instant,
    seconds: f64,
    trace: bool,
    done: usize,
}

impl Passes {
    pub fn new(ctx: &Ctx) -> Self {
        let now = Instant::now();
        Passes {
            start: now,
            pass_start: now,
            seconds: ctx.seconds,
            trace: ctx.trace,
            done: 0,
        }
    }

    /// `Some(traced)` when another pass should run; opens its accounts in
    /// `out`.
    pub fn next_pass(&mut self, out: &mut Outcome) -> Option<bool> {
        let now = Instant::now();
        let minimum = if self.trace { 3 } else { 2 };
        if self.done >= minimum {
            let last = now.duration_since(self.pass_start).as_secs_f64();
            let elapsed = now.duration_since(self.start).as_secs_f64();
            if elapsed + last / 2.0 > self.seconds {
                return None;
            }
        }
        let traced = self.trace && self.done % 2 == 1;
        self.done += 1;
        self.pass_start = now;
        if !traced {
            out.timed.push(PassTimes::default());
        }
        out.reference.sample();
        Some(traced)
    }

    pub fn done(&self) -> usize {
        self.done
    }
}

/// A named correctness check and its result.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// One timed piece of work: its wall seconds, and the reference
/// [`Reference::mark`] when it ended.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub mark: usize,
}

/// The operations of one untraced pass.
#[derive(Debug, Default)]
pub struct PassTimes {
    pub ops: u64,
    /// Each call that ran operations: one operation, or one service run.
    pub batches: Vec<Timed>,
    /// Each operation, in operation order.
    pub latencies: Vec<Timed>,
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Each set-up repetition.
    pub setup: Vec<Timed>,
    /// Times the reference job the reported timings are scaled by.
    pub reference: Reference,
    /// The untraced passes, in order.
    pub timed: Vec<PassTimes>,
    /// Operations of the traced passes and the calls that ran them (only
    /// the tracing overhead reads them).
    pub traced_ops: u64,
    pub traced_batches: Vec<Timed>,
    /// Operations started in any pass, and those that failed: an `Err`
    /// return, or a service request shed or timed out.
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// Peak resident set after the timed passes, before the checks.
    pub peak_rss_mb: f64,
    pub checks: Vec<Check>,
    /// Per-layer metrics of the traced passes.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An empty outcome whose timings will be read against `job`.
    pub fn new(job: Job) -> Self {
        Outcome {
            setup: Vec::new(),
            reference: Reference::new(job),
            timed: Vec::new(),
            traced_ops: 0,
            traced_batches: Vec::new(),
            attempted: 0,
            failed: 0,
            passes: 0,
            peak_rss_mb: 0.0,
            checks: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Accounts `ops` operations of the current pass that one call ran in
    /// `wall`; `latencies` are their individual wall seconds. Then takes
    /// the reference samples owed.
    pub fn batch(&mut self, traced: bool, ops: u64, wall: Duration, latencies: &[f64]) {
        self.attempted += ops;
        let mark = self.reference.mark();
        let batch = Timed {
            wall_s: wall.as_secs_f64(),
            mark,
        };
        if traced {
            self.traced_ops += ops;
            self.traced_batches.push(batch);
        } else {
            let pass = self
                .timed
                .last_mut()
                .expect("Passes::next_pass opens every untraced pass");
            pass.ops += ops;
            pass.batches.push(batch);
            pass.latencies
                .extend(latencies.iter().map(|&wall_s| Timed { wall_s, mark }));
        }
        self.reference.catch_up();
    }

    /// Accounts one operation.
    pub fn op(&mut self, traced: bool, wall: Duration) {
        self.batch(traced, 1, wall, &[wall.as_secs_f64()]);
    }

    /// Accounts one set-up repetition that took `wall`.
    pub fn setup(&mut self, wall: Duration) {
        self.setup.push(Timed {
            wall_s: wall.as_secs_f64(),
            mark: self.reference.mark(),
        });
        self.reference.sample();
    }

    /// Wall seconds of each set-up repetition.
    pub fn setup_walls(&self) -> Vec<f64> {
        self.setup.iter().map(|t| t.wall_s).collect()
    }

    /// `t` in reference seconds when `calibrated`, else in wall seconds.
    fn seconds(&self, t: &Timed, calibrated: bool) -> f64 {
        if calibrated {
            t.wall_s * self.reference.factor(t.mark)
        } else {
            t.wall_s
        }
    }

    /// Operations per second of `batches` that ran `ops`.
    fn rate(&self, ops: u64, batches: &[Timed], calibrated: bool) -> f64 {
        let busy: f64 = batches.iter().map(|b| self.seconds(b, calibrated)).sum();
        ratio(ops as f64, busy)
    }

    /// Median set-up seconds.
    pub fn setup_s(&self, calibrated: bool) -> f64 {
        let reps: Vec<f64> = self
            .setup
            .iter()
            .map(|t| self.seconds(t, calibrated))
            .collect();
        median_ms(&reps) / 1e3
    }

    /// Operations per second of a typical untraced pass: the median over
    /// passes, so one pass hit by a burst of machine noise does not move
    /// it.
    pub fn ops_per_s(&self, calibrated: bool) -> f64 {
        let rates: Vec<f64> = self
            .timed
            .iter()
            .map(|p| self.rate(p.ops, &p.batches, calibrated))
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            crate::stats::median(&rates)
        }
    }

    /// Operations per reference second over the traced passes.
    pub fn traced_ops_per_s(&self) -> f64 {
        self.rate(self.traced_ops, &self.traced_batches, true)
    }

    /// How much slower than a quiet host the reference ran while each
    /// untraced pass's calls ended (their median).
    pub fn pass_slowness(&self) -> Vec<f64> {
        self.timed
            .iter()
            .map(|p| {
                let s: Vec<f64> = p
                    .batches
                    .iter()
                    .map(|b| 1.0 / self.reference.factor(b.mark))
                    .collect();
                if s.is_empty() {
                    1.0
                } else {
                    crate::stats::median(&s)
                }
            })
            .collect()
    }

    /// Each operation's latency: the median over the untraced passes,
    /// which all run the same operations, so noise that hits one pass
    /// does not reach the percentiles. Passes that ran different
    /// operations (after an error) contribute every sample instead.
    pub fn latencies_s(&self, calibrated: bool) -> Vec<f64> {
        let Some(first) = self.timed.first() else {
            return Vec::new();
        };
        let scaled: Vec<Vec<f64>> = self
            .timed
            .iter()
            .map(|p| {
                p.latencies
                    .iter()
                    .map(|l| self.seconds(l, calibrated))
                    .collect()
            })
            .collect();
        let n = first.latencies.len();
        if scaled.iter().any(|l| l.len() != n) {
            return scaled.concat();
        }
        (0..n)
            .map(|j| {
                let samples: Vec<f64> = scaled.iter().map(|l| l[j]).collect();
                crate::stats::median(&samples)
            })
            .collect()
    }

    /// Nearest-rank `p`-th percentile of [`Outcome::latencies_s`], in
    /// milliseconds (0 with no operations).
    pub fn latency_ms(&self, p: f64, calibrated: bool) -> f64 {
        let mut sorted = self.latencies_s(calibrated);
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            0.0
        } else {
            crate::stats::nearest_rank(&sorted, p) * 1e3
        }
    }

    /// Closes the timed phase: records the pass count and the memory
    /// high-water mark before any correctness check can raise it.
    pub fn end_timed(&mut self, passes: &Passes) -> Result<(), String> {
        self.passes = passes.done();
        self.peak_rss_mb = peak_rss_mb()?;
        Ok(())
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Counter totals summed over telemetry event streams.
#[derive(Debug, Default)]
pub struct Counters(HashMap<Counter, u64>);

impl Counters {
    pub fn add(&mut self, events: &[TelemetryEvent]) {
        for event in events {
            if let TelemetryEvent::Count { counter, delta, .. } = *event {
                *self.0.entry(counter).or_default() += delta;
            }
        }
    }

    pub fn get(&self, counter: Counter) -> f64 {
        self.0.get(&counter).copied().unwrap_or(0) as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The detector-stack metrics shared by the detect and serve workloads,
/// normalised per hunt. A `detection-iteration` span covers every window
/// the detector ran, retried ones included.
pub fn hunt_layers(
    out: &mut Outcome,
    totals: &BTreeMap<&'static str, Totals>,
    counters: &Counters,
    hunts: f64,
) {
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let windows = t("detection-iteration");
    let us_per_hunt = |name: &str| ratio(t(name).wall_ns / 1e3, hunts);
    let per_hunt = |counter: Counter| ratio(counters.get(counter), hunts);
    let exact = counters.get(Counter::ExactPairSearches);
    let shortlist = counters.get(Counter::ShortlistPairHits);
    let values = [
        (
            "recommender.decomposition_us_per_hunt",
            us_per_hunt("decomposition"),
        ),
        (
            "recommender.decompositions_per_hunt",
            ratio(t("decomposition").spans as f64, hunts),
        ),
        (
            "recommender.exact_pair_ratio",
            ratio(exact, exact + shortlist),
        ),
        (
            "recommender.completion_us_per_hunt",
            us_per_hunt("matrix-completion"),
        ),
        (
            "recommender.content_match_us_per_hunt",
            us_per_hunt("content-match"),
        ),
        (
            "recommender.sgd_iterations_per_hunt",
            per_hunt(Counter::SgdIterations),
        ),
        ("probes.sweep_us_per_hunt", us_per_hunt("probe-sweep")),
        ("probes.samples_per_hunt", per_hunt(Counter::ProbeSamples)),
        ("probes.saved_per_hunt", per_hunt(Counter::ProbesSaved)),
        (
            "detector.iteration_us",
            ratio(windows.wall_ns / 1e3, windows.spans as f64),
        ),
        (
            "detector.iterations_per_hunt",
            ratio(windows.spans as f64, hunts),
        ),
        (
            "detector.anytime_deepen_us_per_hunt",
            us_per_hunt("anytime-deepen"),
        ),
        (
            "detector.retries_per_hunt",
            per_hunt(Counter::DetectionRetries),
        ),
        (
            "sim.faults_injected_per_hunt",
            per_hunt(Counter::FaultsInjected),
        ),
    ];
    for (name, value) in values {
        out.layer(name, value);
    }
}

/// Median of the samples in milliseconds (0 for none).
pub fn median_ms(samples_s: &[f64]) -> f64 {
    if samples_s.is_empty() {
        0.0
    } else {
        crate::stats::median(samples_s) * 1e3
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
