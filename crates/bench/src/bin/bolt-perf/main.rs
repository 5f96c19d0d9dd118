//! `bolt-perf`: the one-command performance benchmark.
//!
//! ```text
//! bolt-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH] [--smoke]
//! bolt-perf --compare BASELINE.jsonl CANDIDATE.jsonl
//! ```
//!
//! A run sets the workload up, measures it for `--seconds`, checks that
//! its outputs are correct, and prints two JSON lines: a record of the run
//! (environment, checks, and every metric with its unit, direction and
//! bound) and, last, the result line `{"correct", "attempted", "failed",
//! "metrics"}`. Untraced runs report the end-to-end metrics; `--trace 1`
//! runs report the per-layer metrics. The exit code is non-zero when a
//! correctness check fails. See `README.md` next to this file.

mod calib;
mod detect;
mod harness;
mod json;
mod region;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Ctx, Outcome, PassTimes, Res, Scale};
use stats::{beyond, Better, Verdict, MIN_BEYOND};
use trace::{Tracer, ROOT};

const USAGE: &str = "\
usage: bolt-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH] [--smoke]
       bolt-perf --compare BASELINE.jsonl CANDIDATE.jsonl

workloads: detect-fixed, detect-anytime-churn, serve-region, region-churn";

/// The gated tail percentile: the paper states its recommender latency
/// at p95, and on the churn workload the p99 lands in a handful of hard
/// victims whose count swings from seed to seed. The record line still
/// reports the p99.
const TAIL: f64 = 95.0;

/// Seconds a run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DetectFixed,
    DetectAnytimeChurn,
    ServeRegion,
    RegionChurn,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DetectFixed,
        Workload::DetectAnytimeChurn,
        Workload::ServeRegion,
        Workload::RegionChurn,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DetectFixed => "detect-fixed",
            Workload::DetectAnytimeChurn => "detect-anytime-churn",
            Workload::ServeRegion => "serve-region",
            Workload::RegionChurn => "region-churn",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(self, ctx: &Ctx, tracer: &mut Tracer) -> Res<Outcome> {
        match self {
            Workload::DetectFixed => detect::run(ctx, false, tracer),
            Workload::DetectAnytimeChurn => detect::run(ctx, true, tracer),
            Workload::ServeRegion => serve::run(ctx, tracer),
            Workload::RegionChurn => region::run(ctx, tracer),
        }
    }
}

/// An end-to-end metric and the share of the baseline median by which it
/// may worsen before a change counts as a regression.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
}

/// Every untraced run reports all of these. An operation is a detection
/// iteration on the detect workloads, a request on serve-region and a
/// step on region-churn.
const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Every traced run reports all of these; a layer a workload never calls
/// reads 0 there.
const PER_LAYER: [(&str, &str, Better); 49] = [
    ("recommender.fit_ms", "ms", Better::Lower),
    ("recommender.decomposition_us_per_hunt", "us", Better::Lower),
    (
        "recommender.decompositions_per_hunt",
        "count",
        Better::Lower,
    ),
    ("recommender.exact_pair_ratio", "fraction", Better::Lower),
    ("recommender.completion_us_per_hunt", "us", Better::Lower),
    ("recommender.content_match_us_per_hunt", "us", Better::Lower),
    (
        "recommender.sgd_iterations_per_hunt",
        "count",
        Better::Lower,
    ),
    ("probes.sweep_us_per_hunt", "us", Better::Lower),
    ("probes.samples_per_hunt", "count", Better::Lower),
    ("probes.saved_per_hunt", "count", Better::Higher),
    ("detector.iteration_us", "us", Better::Lower),
    ("detector.iterations_per_hunt", "count", Better::Lower),
    ("detector.anytime_deepen_us_per_hunt", "us", Better::Lower),
    ("detector.hunt_self_us", "us", Better::Lower),
    ("detector.retries_per_hunt", "count", Better::Lower),
    ("detector.degraded_rate", "fraction", Better::Lower),
    ("detector.windows_discarded", "count", Better::Lower),
    ("detector.label_accuracy", "fraction", Better::Higher),
    ("detector.chars_accuracy", "fraction", Better::Higher),
    ("detector.silent_mislabel_rate", "fraction", Better::Lower),
    ("sim.testbed_build_ms", "ms", Better::Lower),
    ("sim.snapshot_us", "us", Better::Lower),
    ("sim.faults_injected_per_hunt", "count", Better::Lower),
    ("sim.region_build_s", "s", Better::Lower),
    ("sim.region_snapshot_ms", "ms", Better::Lower),
    ("sim.region_snapshot_drop_ms", "ms", Better::Lower),
    ("sim.sweeps_shared_per_request", "count", Better::Higher),
    ("sim.probe_ns", "ns", Better::Lower),
    ("sim.place_us", "us", Better::Lower),
    ("sim.launch_us", "us", Better::Lower),
    ("sim.terminate_us", "us", Better::Lower),
    ("sim.live_list_us", "us", Better::Lower),
    ("sim.visits_per_probe", "count", Better::Lower),
    ("sim.agg_cache_hit_ratio", "fraction", Better::Higher),
    ("sim.residency_ops_per_step", "count", Better::Lower),
    ("sim.slots_reused", "count", Better::Higher),
    ("service.request_self_us", "us", Better::Lower),
    ("service.run_self_ms", "ms", Better::Lower),
    ("service.events_per_request", "count", Better::Lower),
    ("service.idle_skipped_s", "sim_s", Better::Higher),
    ("service.admitted", "count", Better::Higher),
    ("service.shed", "count", Better::Lower),
    ("service.degraded", "count", Better::Lower),
    ("service.timed_out", "count", Better::Lower),
    ("service.breaker_trips", "count", Better::Lower),
    ("service.queue_depth_peak", "count", Better::Lower),
    ("service.goodput_per_min", "1/sim_min", Better::Higher),
    ("service.sim_latency_p99_s", "sim_s", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Value {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    value: f64,
}

/// The end-to-end metrics of an untraced run: timings on the reference
/// clock when `calibrated` (the reported values), on the wall clock
/// otherwise.
fn end_to_end(o: &Outcome, calibrated: bool) -> Vec<Value> {
    let values = [
        o.setup_s(calibrated),
        o.ops_per_s(calibrated),
        o.latency_ms(50.0, calibrated),
        o.latency_ms(TAIL, calibrated),
        o.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Value {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: Some(m.bound),
            value,
        })
        .collect()
}

/// The per-layer metrics of a traced run.
fn per_layer(o: &Outcome) -> Vec<Value> {
    let untraced = o.ops_per_s(true);
    let traced = o.traced_ops_per_s();
    let overhead = if traced > 0.0 {
        (untraced / traced - 1.0) * 100.0
    } else {
        0.0
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, better)| Value {
            name,
            unit,
            better,
            bound: None,
            value: if name == "trace.overhead_pct" {
                overhead
            } else {
                o.layers.get(name).copied().unwrap_or(0.0)
            },
        })
        .collect()
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
        smoke: false,
        compare: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--spans" => out.spans = Some(PathBuf::from(value("a path")?)),
            "--smoke" => out.smoke = true,
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                let b = PathBuf::from(value("two files")?);
                out.compare = Some((a, b));
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.compare.is_none() && out.workload.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

/// The commit being measured, read from `.git` when the run starts in a
/// git checkout; "unknown" elsewhere.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_json(v: &Value) -> String {
    let bound = v
        .bound
        .map_or(String::new(), |b| format!(",\"bound\":{}", json::number(b)));
    format!(
        "{{\"name\":{},\"value\":{},\"unit\":{},\"better\":\"{}\"{bound}}}",
        json::quote(v.name),
        json::number(v.value),
        json::quote(v.unit),
        v.better.as_str()
    )
}

/// The run record: everything needed to reproduce and compare the run.
fn record_line(workload: Workload, args: &Args, o: &Outcome, values: &[Value]) -> String {
    let mut checks = String::new();
    for (i, c) in o.checks.iter().enumerate() {
        let _ = write!(
            checks,
            "{}{{\"name\":{},\"ok\":{},\"detail\":{}}}",
            if i > 0 { "," } else { "" },
            json::quote(c.name),
            c.ok,
            json::quote(&c.detail)
        );
    }
    let metrics: Vec<String> = values.iter().map(metric_json).collect();
    let per_pass = |f: fn(&PassTimes) -> f64| {
        let values: Vec<String> = o.timed.iter().map(|p| json::number(f(p))).collect();
        values.join(",")
    };
    let rates =
        per_pass(|p| harness::ratio(p.ops as f64, p.batches.iter().map(|b| b.wall_s).sum()));
    let slowness: Vec<String> = o.pass_slowness().into_iter().map(json::number).collect();
    let slowness = slowness.join(",");
    let wall: Vec<String> = end_to_end(o, false)
        .iter()
        .map(|v| format!("{}:{}", json::quote(v.name), json::number(v.value)))
        .collect();
    let samples = o.latencies_s(true).len();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"bench\":\"bolt-perf\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"scale\":\"{}\",\"git_rev\":{},\"profile\":\"{}\",\"nproc\":{nproc},\"rustc\":{},\
         \"passes\":{},\"pass_ops_per_s\":[{rates}],\"pass_slowness\":[{slowness}],\
         \"attempted\":{},\"failed\":{},\"samples\":{samples},\
         \"p99_ms\":{},\"p99_beyond\":{},\"checks\":[{checks}],\"metrics\":[{}],\
         \"wall\":{{{}}}}}",
        workload.name(),
        args.seed,
        json::number(args.seconds),
        args.trace,
        if args.smoke { "smoke" } else { "full" },
        json::quote(&git_rev()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        json::quote(&rustc_version()),
        o.passes,
        o.attempted,
        o.failed,
        json::number(o.latency_ms(99.0, true)),
        beyond(samples, 99.0),
        metrics.join(","),
        wall.join(",")
    )
}

/// The result line, last on standard output.
fn result_line(o: &Outcome, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(v.name),
                json::number(v.value),
                json::quote(v.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.checks.iter().all(|c| c.ok),
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn bench(workload: Workload, args: &Args) -> Res<bool> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
    };
    let mut tracer = Tracer::new();
    let outcome = workload.run(&ctx, &mut tracer)?;
    let origin = tracer.origin();
    tracer.finish(ROOT, None, "workload", None, origin, origin.elapsed(), 1);
    for c in outcome.checks.iter().filter(|c| !c.ok) {
        eprintln!("bolt-perf: check {} failed: {}", c.name, c.detail);
    }
    let samples = outcome.latencies_s(true).len();
    if !args.trace && beyond(samples, TAIL) < MIN_BEYOND {
        eprintln!(
            "bolt-perf: op_p95_ms rests on {samples} operations, fewer than {MIN_BEYOND} beyond it"
        );
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, tracer.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let values = if args.trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome, true)
    };
    println!("{}", record_line(workload, args, &outcome, &values));
    println!("{}", result_line(&outcome, &values));
    Ok(outcome.checks.iter().all(|c| c.ok))
}

/// Untraced run records, each as its workload and (metric, value) pairs.
type Runs = Vec<(String, Vec<(String, f64)>)>;

/// The untraced run records among the lines of `text`; every other line
/// (result lines, build output) is skipped.
fn parse_runs(text: &str) -> Runs {
    text.lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|v| {
            v.get("bench").and_then(json::Json::as_str) == Some("bolt-perf")
                && v.get("trace") == Some(&json::Json::Bool(false))
        })
        .filter_map(|v| {
            let workload = v.get("workload")?.as_str()?.to_string();
            let metrics = v
                .get("metrics")?
                .as_array()?
                .iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("value")?.as_f64()?,
                    ))
                })
                .collect();
            Some((workload, metrics))
        })
        .collect()
}

/// The table of every workload × end-to-end metric of candidate runs `b`
/// against baseline runs `a`, and whether nothing got worse beyond its
/// bound.
fn compare(a: &Runs, b: &Runs) -> (String, bool) {
    let values = |runs: &Runs, workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|(w, _)| w == workload)
            .filter_map(|(_, ms)| ms.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
            .collect()
    };
    let mut table = format!(
        "{:<21} {:<12} {:>4} {:>12} {:>4} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "runs", "baseline", "runs", "candidate", "change", "spread", "bound"
    );
    let mut ok = true;
    for w in Workload::ALL.map(Workload::name) {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w, m.name), values(b, w, m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let verdict = stats::classify(&va, &vb, m.better, m.bound);
            ok &= verdict != Verdict::WorseBeyondBound;
            let med = |v: &[f64]| {
                if v.is_empty() {
                    f64::NAN
                } else {
                    stats::median(v)
                }
            };
            let (ma, mb) = (med(&va), med(&vb));
            let _ = writeln!(
                table,
                "{w:<21} {:<12} {:>4} {ma:>12.4} {:>4} {mb:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                m.name,
                va.len(),
                vb.len(),
                (mb - ma) / ma * 100.0,
                stats::spread(&va).map_or(f64::NAN, |s| s * 100.0),
                m.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    (table, ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bolt-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(files) = &args.compare {
        let read = |path: &PathBuf| {
            std::fs::read_to_string(path)
                .map(|text| parse_runs(&text))
                .map_err(|e| eprintln!("bolt-perf: cannot read {}: {e}", path.display()))
        };
        let (Ok(a), Ok(b)) = (read(&files.0), read(&files.1)) else {
            return ExitCode::from(2);
        };
        let (table, ok) = compare(&a, &b);
        print!("{table}");
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let workload = args.workload.expect("parse_args demands a workload");
    match bench(workload, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bolt-perf: {}: {e}", workload.name());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve-region --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ServeRegion));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload region-churn --trace 2").is_err());
        assert!(args("--workload region-churn --seconds -1").is_err());
        assert!(args("--compare a.jsonl").is_err());
        let c = args("--compare a.jsonl b.jsonl").unwrap();
        assert_eq!(c.compare, Some(("a.jsonl".into(), "b.jsonl".into())));
    }

    /// Every workload at smoke scale, traced, with every correctness check
    /// on: the checks pass, every metric is finite, and the layers a
    /// workload reports are the ones the manifest names.
    #[test]
    fn smoke_pass_of_every_workload() {
        for workload in Workload::ALL {
            let ctx = Ctx {
                seed: 3,
                seconds: 0.0,
                trace: true,
                scale: Scale::SMOKE,
            };
            let mut tracer = Tracer::new();
            let o = workload.run(&ctx, &mut tracer).unwrap();
            for c in &o.checks {
                assert!(c.ok, "{}: {} failed: {}", workload.name(), c.name, c.detail);
            }
            assert!(o.checks.len() >= 2, "{}: checks ran", workload.name());
            assert_eq!(o.passes, 3, "two untraced passes around a traced one");
            assert!(o.timed[0].ops > 0 && o.traced_ops > 0);
            assert_eq!(o.failed, 0, "{}: no operation fails", workload.name());
            for name in o.layers.keys() {
                assert!(
                    PER_LAYER.iter().any(|(n, _, _)| n == name),
                    "{name} is not a declared per-layer metric"
                );
            }
            for v in end_to_end(&o, true).iter().chain(&per_layer(&o)) {
                assert!(
                    v.value.is_finite(),
                    "{}: {} = {}",
                    workload.name(),
                    v.name,
                    v.value
                );
            }
            for v in end_to_end(&o, true) {
                assert!(v.value > 0.0, "{}: {} is zero", workload.name(), v.name);
            }
            assert!(
                !tracer.spans().is_empty(),
                "{}: traced spans",
                workload.name()
            );
            let lines = result_line(&o, &end_to_end(&o, true));
            let parsed = json::parse(&lines).unwrap();
            assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
        }
    }

    #[test]
    fn manifest_matches_the_metric_tables() {
        let manifest = json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("valid BENCHMARK.json");
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .and_then(json::Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string()).to_vec()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END
                .iter()
                .map(|m| m.name.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER
                .iter()
                .map(|m| m.0.to_string())
                .collect::<Vec<_>>()
        );
        for m in manifest
            .get("end_to_end")
            .and_then(json::Json::as_array)
            .unwrap()
        {
            let name = m.get("name").and_then(json::Json::as_str).unwrap();
            let table = END_TO_END.iter().find(|e| e.name == name).unwrap();
            assert_eq!(
                m.get("bound").and_then(json::Json::as_f64),
                Some(table.bound)
            );
            assert_eq!(m.get("unit").and_then(json::Json::as_str), Some(table.unit));
            assert_eq!(
                m.get("better").and_then(json::Json::as_str),
                Some(table.better.as_str())
            );
        }
        for m in manifest
            .get("per_layer")
            .and_then(json::Json::as_array)
            .unwrap()
        {
            let name = m.get("name").and_then(json::Json::as_str).unwrap();
            let &(_, unit, better) = PER_LAYER.iter().find(|e| e.0 == name).unwrap();
            assert_eq!(m.get("unit").and_then(json::Json::as_str), Some(unit));
            assert_eq!(
                m.get("better").and_then(json::Json::as_str),
                Some(better.as_str())
            );
        }
    }

    #[test]
    fn compare_reads_run_records_and_flags_regressions() {
        let runs = |rates: &[f64]| {
            let mut text = String::from("   Compiling bolt-perf\n");
            for &r in rates {
                let values: Vec<Value> = END_TO_END
                    .iter()
                    .map(|m| Value {
                        name: m.name,
                        unit: m.unit,
                        better: m.better,
                        bound: Some(m.bound),
                        value: if m.name == "ops_per_s" { r } else { 1.0 },
                    })
                    .collect();
                let a = args("--workload detect-fixed").unwrap();
                let o = Outcome::new(calib::Job::Sort);
                text.push_str(&record_line(Workload::DetectFixed, &a, &o, &values));
                text.push('\n');
                text.push_str(&result_line(&o, &values));
                text.push('\n');
            }
            parse_runs(&text)
        };
        let base = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(base.len(), 5);
        let (table, ok) = compare(&base, &runs(&[100.2, 99.8, 100.1, 99.9, 100.0]));
        assert!(ok);
        assert!(table.contains("unchanged") && !table.contains("worse"));
        let (table, ok) = compare(&base, &runs(&[60.0, 61.0, 59.0, 60.5, 59.5]));
        assert!(!ok);
        assert!(table.contains("ops_per_s") && table.contains("worse beyond bound"));
        let (table, _) = compare(&base, &runs(&[140.0, 141.0, 139.0]));
        assert!(table.contains("better"));
    }
}
