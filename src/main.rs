//! `bolt-repro` — the command-line driver for the Bolt reproduction.
//!
//! A thin argument-parsed front end over the library crates, so every
//! experiment can be run (and re-parameterized) without writing Rust:
//!
//! ```text
//! bolt-repro detect   [--servers N] [--victims N] [--seed S]
//! bolt-repro table1   [--servers N] [--victims N]
//! bolt-repro study    [--instances N] [--jobs N]
//! bolt-repro isolation [--servers N] [--victims N]
//! bolt-repro dos | rfa | coresidency
//! bolt-repro robustness [--servers N] [--victims N] [--seed S]
//! ```
//!
//! Dependencies are deliberately std-only: arguments are parsed by hand.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;

use bolt::attacks::coresidency::{hunt, placement_probability, CoResidencyConfig};
use bolt::attacks::dos::{craft_attack_from_profile, naive_attack, run_dos, DosRunConfig};
use bolt::attacks::rfa::run_rfa;
use bolt::experiment::{run_experiment, ExperimentConfig};
use bolt::isolation_study::run_isolation_study;
use bolt::report::{pct, Table};
use bolt::telemetry::{Telemetry, TelemetryLog};
use bolt::user_study::{run_user_study, UserStudyConfig};
use bolt::RunCtx;
use bolt_sim::{LeastLoaded, OsSetting, Quasar};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    match run_command(&command, &flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_command(command: &str, flags: &Flags) -> Result<(), String> {
    match command {
        "detect" => cmd_detect(flags),
        "table1" => cmd_table1(flags),
        "study" => cmd_study(flags),
        "isolation" => cmd_isolation(flags),
        "dos" => cmd_dos(flags),
        "rfa" => cmd_rfa(flags),
        "coresidency" => cmd_coresidency(flags),
        "robustness" => cmd_robustness(flags),
        "region" => cmd_region(flags),
        "serve" => cmd_serve(flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "\
bolt-repro — reproduction driver for Bolt (ASPLOS 2017)

USAGE:
    bolt-repro <COMMAND> [--flag value]...

COMMANDS:
    detect        run the controlled detection experiment and print per-victim rows
    table1        Table 1: accuracy per class, least-loaded vs Quasar scheduler
    study         the EC2 multi-user study (Figs. 11-12)
    isolation     the isolation sweep (Fig. 14)
    dos           the targeted-vs-naive DoS timeline (Fig. 13)
    rfa           the resource-freeing attacks (Table 2)
    coresidency   locate a SQL victim in the cluster (Sec. 5.3)
    robustness    detection accuracy and graceful degradation under churn
    region        region-scale stress: thousands of hosts under churn + probing
    serve         streaming detection service: admission control, deadlines,
                  circuit breakers, replayable request storms

FLAGS (all optional):
    --servers N       cluster size            (default 20)
    --victims N       victim workloads        (default 48)
    --instances N     user-study instances    (default 40)
    --jobs N          user-study jobs         (default 120)
    --vms-per-server N  region tenants per host (default 10)
    --steps N         region simulation steps (default 20)
    --seed S          RNG seed                (default experiment-specific)
    --mrc             enable the miss-rate-curve detection channel (default off)
    --anytime         enable the anytime iterative-deepening window (default off)
    --confidence-threshold X  anytime early-exit confidence (default 0.7)
    --requests N      service requests in the base trace      (default 200)
    --rate X          service arrivals per simulated minute   (default 2.0)
    --workers N       service probe-worker lanes              (default 3)
    --queue-cap N     service admission-queue capacity        (default 6)
    --deadline X      per-request deadline, simulated seconds (default 240)
    --shed POLICY     overload response: degrade | reject     (default degrade)
    --storm X         storm-injector intensity in [0,1]       (default 0)
    --chaos-intensity X  cluster-churn intensity in [0,1]     (default 0)
    --threads N       worker-lane thread fan-out (byte-identical at any N)
    --region          serve against a region-scale cluster (zero-noise region
                      tenants, shared sweep memo, duplicate co-arrivals)
    --telemetry PATH  write a JSONL telemetry trace of the run to PATH";

/// Flags that take no value: `--mrc` alone means `--mrc true`, while an
/// explicit `--mrc false` (or `=false`) still parses.
const BOOLEAN_FLAGS: [&str; 3] = ["mrc", "anytime", "region"];

/// Parsed `--flag value` pairs (also accepts `--flag=value`). Values stay
/// strings until a command asks for them, so path-valued flags like
/// `--telemetry` coexist with the numeric ones. Every lookup marks the
/// flag as read, so [`Flags::reject_unread`] can refuse the flags a
/// command never looked at — misspellings included — before it runs.
struct Flags {
    values: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Flags {
    /// The raw value of a flag, if present, marking it as read.
    fn get(&self, name: &str) -> Option<&String> {
        self.read.borrow_mut().insert(name.to_string());
        self.values.get(name)
    }

    /// Fails with a usage error naming every flag the command has not read.
    fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let unread: Vec<&str> = self
            .values
            .keys()
            .filter(|name| !read.contains(*name))
            .map(String::as_str)
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        Err(format!(
            "unknown flag for this command: --{}\n{USAGE}",
            unread.join(", --")
        ))
    }

    /// The flag as an integer, if present.
    fn u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} needs an integer, got `{v}`"))
            })
            .transpose()
    }

    /// The flag as a count, with a default.
    fn usize(&self, name: &str, default: usize) -> Result<usize, String> {
        Ok(self.u64(name)?.map(|v| v as usize).unwrap_or(default))
    }

    /// The flag as a float, if present.
    fn f64(&self, name: &str) -> Result<Option<f64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} needs a number, got `{v}`"))
            })
            .transpose()
    }

    /// The flag as a boolean, defaulting to `false` when absent.
    fn bool(&self, name: &str) -> Result<bool, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} needs true or false, got `{v}`"))
            })
            .transpose()
            .map(|v| v.unwrap_or(false))
    }

    /// The `--telemetry` output path, if requested.
    fn telemetry(&self) -> Option<PathBuf> {
        self.get("telemetry").map(PathBuf::from)
    }

    /// Reads `--telemetry`, then rejects the flags the command has not
    /// read. Commands call this once their other flags are parsed, before
    /// running.
    fn finish(&self) -> Result<Trace, String> {
        let trace = Trace(self.telemetry());
        self.reject_unread()?;
        Ok(trace)
    }
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut flags = BTreeMap::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`"));
        };
        let (name, value) = match name.split_once('=') {
            Some((name, value)) => (name.to_string(), value.to_string()),
            None if BOOLEAN_FLAGS.contains(&name)
                && args.peek().is_none_or(|next| next.starts_with("--")) =>
            {
                // A bare boolean flag: the next token (if any) is another
                // flag, so this one means "true".
                (name.to_string(), "true".to_string())
            }
            None => {
                let Some(value) = args.next() else {
                    return Err(format!("--{name} needs a value"));
                };
                (name.to_string(), value)
            }
        };
        flags.insert(name, value);
    }
    Ok(Flags {
        values: flags,
        read: RefCell::default(),
    })
}

/// Where a command's `--telemetry` trace goes, if anywhere.
struct Trace(Option<PathBuf>);

impl Trace {
    /// Whether the command records telemetry.
    fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Writes the trace, with a per-metric summary on stderr.
    fn write(&self, log: &TelemetryLog) -> Result<(), String> {
        let Some(path) = &self.0 else {
            return Ok(());
        };
        log.write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("telemetry: {} events -> {}", log.len(), path.display());
        eprintln!("{}", log.summary_table().render());
        Ok(())
    }
}

fn experiment_config(flags: &Flags) -> Result<ExperimentConfig, String> {
    let mut config = ExperimentConfig {
        servers: flags.usize("servers", 20)?,
        victims: flags.usize("victims", 48)?,
        mrc_channel: flags.bool("mrc")?,
        anytime: flags.bool("anytime")?,
        ..ExperimentConfig::default()
    };
    if let Some(seed) = flags.u64("seed")? {
        config.seed = seed;
    }
    if let Some(threshold) = flags.f64("confidence-threshold")? {
        config.detector.confidence_threshold = threshold;
    }
    Ok(config)
}

fn cmd_detect(flags: &Flags) -> Result<(), String> {
    let config = experiment_config(flags)?;
    let trace = flags.finish()?;
    eprintln!(
        "running the controlled experiment: {} victims on {} servers...",
        config.victims, config.servers
    );
    let ctx = RunCtx::new(trace.on());
    let (results, log) = run_experiment(&config, &LeastLoaded, &ctx).map_err(|e| e.to_string())?;
    let mut table = Table::new(vec![
        "victim", "detected", "iters", "co-res", "label", "chars",
    ]);
    for r in &results.records {
        table.row(vec![
            r.truth.to_string(),
            r.detected
                .as_ref()
                .map(ToString::to_string)
                .unwrap_or_else(|| "(none)".into()),
            r.iterations.to_string(),
            r.co_residents.to_string(),
            if r.label_correct { "ok" } else { "-" }.into(),
            if r.characteristics_correct { "ok" } else { "-" }.into(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "label accuracy {}  characteristics accuracy {}",
        pct(results.label_accuracy()),
        pct(results.characteristics_accuracy())
    );
    trace.write(&log)
}

fn cmd_table1(flags: &Flags) -> Result<(), String> {
    let config = experiment_config(flags)?;
    let trace = flags.finish()?;
    eprintln!("running the controlled experiment twice (LL, Quasar)...");
    let ctx = RunCtx::new(trace.on());
    let (ll, mut log) = run_experiment(&config, &LeastLoaded, &ctx).map_err(|e| e.to_string())?;
    let (quasar, quasar_log) = run_experiment(&config, &Quasar, &ctx).map_err(|e| e.to_string())?;
    log.extend(quasar_log.into_events());
    let mut table = Table::new(vec!["class", "LL", "Quasar"]);
    table.row(vec![
        "aggregate".into(),
        pct(ll.label_accuracy()),
        pct(quasar.label_accuracy()),
    ]);
    for family in ["memcached", "hadoop", "spark", "cassandra", "speccpu2006"] {
        table.row(vec![
            family.into(),
            ll.family_accuracy(family)
                .map(pct)
                .unwrap_or_else(|| "-".into()),
            quasar
                .family_accuracy(family)
                .map(pct)
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", table.render());
    trace.write(&log)
}

fn cmd_study(flags: &Flags) -> Result<(), String> {
    let mut config = UserStudyConfig {
        instances: flags.usize("instances", 40)?,
        jobs: flags.usize("jobs", 120)?,
        users: 10,
        ..UserStudyConfig::default()
    };
    if let Some(seed) = flags.u64("seed")? {
        config.seed = seed;
    }
    let trace = flags.finish()?;
    eprintln!(
        "running the user study: {} jobs on {} instances...",
        config.jobs, config.instances
    );
    let ctx = RunCtx::new(trace.on());
    let (results, log) = run_user_study(&config, &ctx).map_err(|e| e.to_string())?;
    let n = results.records.len();
    println!(
        "named {}/{} ({})  characterized {}/{} ({})  instances used {}/{}",
        results.named(),
        n,
        pct(results.named() as f64 / n.max(1) as f64),
        results.characterized(),
        n,
        pct(results.characterized() as f64 / n.max(1) as f64),
        results.instances_used,
        config.instances
    );
    trace.write(&log)
}

fn cmd_isolation(flags: &Flags) -> Result<(), String> {
    let config = ExperimentConfig {
        servers: flags.usize("servers", 10)?,
        victims: flags.usize("victims", 24)?,
        ..ExperimentConfig::default()
    };
    let trace = flags.finish()?;
    eprintln!("running 21 detection experiments (3 settings x 7 stacks)...");
    let ctx = RunCtx::new(trace.on());
    let (study, log) = run_isolation_study(&config, &ctx).map_err(|e| e.to_string())?;
    let mut table = Table::new(vec!["stack", "baremetal", "containers", "VMs"]);
    let stacks = [
        "none",
        "thread pinning",
        "+net bw partitioning",
        "+mem bw partitioning",
        "+cache partitioning",
        "+core isolation",
    ];
    for (i, stack) in stacks.iter().enumerate() {
        let mut row = vec![stack.to_string()];
        for setting in OsSetting::ALL {
            row.push(
                study
                    .accuracy(setting, i)
                    .map(pct)
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.row(row);
    }
    println!("{}", table.render());
    trace.write(&log)
}

fn cmd_dos(flags: &Flags) -> Result<(), String> {
    use bolt_sim::vm::VmRole;
    use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
    use bolt_workloads::{catalog, LoadPattern, PressureVector};

    let seed = flags.u64("seed")?.unwrap_or(0xD05);
    let trace = flags.finish()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let scene = |rng: &mut StdRng| -> Result<_, String> {
        let mut cluster = Cluster::new(4, ServerSpec::xeon(), IsolationConfig::cloud_default())
            .map_err(|e| e.to_string())?;
        let victim_profile =
            catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng)
                .with_vcpus(12)
                .with_load(LoadPattern::Constant { level: 0.7 });
        let baseline = victim_profile.base_latency_ms();
        let victim = cluster
            .launch_on(0, victim_profile, VmRole::Friendly, 0.0)
            .map_err(|e| e.to_string())?;
        let attacker = cluster
            .launch_on(
                0,
                catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng).with_vcpus(4),
                VmRole::Adversarial,
                0.0,
            )
            .map_err(|e| e.to_string())?;
        cluster
            .set_pressure_override(attacker, Some(PressureVector::zero()))
            .map_err(|e| e.to_string())?;
        Ok((cluster, attacker, victim, baseline))
    };

    // Unit 1 traces the Bolt-crafted run, unit 2 the naive baseline.
    let defense = DosRunConfig::default();
    let (mut c1, a1, v1, baseline) = scene(&mut rng)?;
    let pressure = *c1
        .vm(v1)
        .map_err(|e| e.to_string())?
        .profile
        .base_pressure();
    let mut bolt_telemetry = Telemetry::for_unit_if(trace.on(), 1);
    let bolt = run_dos(
        &mut c1,
        a1,
        v1,
        craft_attack_from_profile(&pressure),
        &defense,
        &mut rng,
        &mut bolt_telemetry,
    )
    .map_err(|e| e.to_string())?;
    let (mut c2, a2, v2, _) = scene(&mut rng)?;
    let mut naive_telemetry = Telemetry::for_unit_if(trace.on(), 2);
    let naive = run_dos(
        &mut c2,
        a2,
        v2,
        naive_attack(),
        &defense,
        &mut rng,
        &mut naive_telemetry,
    )
    .map_err(|e| e.to_string())?;
    let mut log = TelemetryLog::new();
    log.merge(bolt_telemetry);
    log.merge(naive_telemetry);
    println!(
        "bolt:  {:>5.0}x steady-state amplification, migration: {:?}",
        bolt.final_amplification(baseline),
        bolt.migration_at
    );
    println!(
        "naive: {:>5.0}x steady-state amplification, migration: {:?}",
        naive.final_amplification(baseline),
        naive.migration_at
    );
    trace.write(&log)
}

fn cmd_rfa(flags: &Flags) -> Result<(), String> {
    use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
    use bolt_workloads::{catalog, DatasetScale};

    let seed = flags.u64("seed")?.unwrap_or(0x2FA);
    let trace = flags.finish()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let victims = vec![
        catalog::webserver::profile(&catalog::webserver::Variant::Dynamic, &mut rng).with_vcpus(8),
        catalog::hadoop::profile(
            &catalog::hadoop::Algorithm::Svm,
            DatasetScale::Large,
            &mut rng,
        )
        .with_vcpus(8),
        catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            DatasetScale::Large,
            &mut rng,
        )
        .with_vcpus(8),
    ];
    let mut log = TelemetryLog::new();
    let mut table = Table::new(vec!["victim", "victim perf", "mcf", "target"]);
    for (idx, victim) in victims.into_iter().enumerate() {
        let name = victim.label().to_string();
        let mut cluster = Cluster::new(1, ServerSpec::xeon(), IsolationConfig::cloud_default())
            .map_err(|e| e.to_string())?;
        let mcf = catalog::speccpu::profile(&catalog::speccpu::Benchmark::Mcf, &mut rng);
        // One telemetry unit per Table 2 row.
        let mut telemetry = Telemetry::for_unit_if(trace.on(), idx + 1);
        let outcome = run_rfa(&mut cluster, 0, victim, mcf, &mut rng, &mut telemetry)
            .map_err(|e| e.to_string())?;
        log.merge(telemetry);
        table.row(vec![
            name,
            format!("{:+.0}%", outcome.victim_delta * 100.0),
            format!("{:+.0}%", outcome.beneficiary_delta * 100.0),
            outcome.target_resource.to_string(),
        ]);
    }
    println!("{}", table.render());
    trace.write(&log)
}

fn cmd_coresidency(flags: &Flags) -> Result<(), String> {
    use bolt::detector::{Detector, DetectorConfig};
    use bolt::experiment::fit_recommender;
    use bolt_recommender::RecommenderConfig;
    use bolt_sim::vm::VmRole;
    use bolt_sim::{Cluster, IsolationConfig, ServerSpec};
    use bolt_workloads::{catalog, DatasetScale};

    let servers = flags.usize("servers", 40)?;
    let seed = flags.u64("seed")?.unwrap_or(0xC0DE);
    let trace = flags.finish()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let isolation = IsolationConfig::cloud_default();
    let mut cluster =
        Cluster::new(servers, ServerSpec::xeon(), isolation).map_err(|e| e.to_string())?;
    let victim_host = servers / 4 + 1;
    let victim = cluster
        .launch_on(
            victim_host,
            catalog::database::profile(&catalog::database::Variant::SqlOltp, &mut rng)
                .with_vcpus(8),
            VmRole::Friendly,
            0.0,
        )
        .map_err(|e| e.to_string())?;
    for s in (0..servers).step_by(5).take(7) {
        if s == victim_host {
            continue;
        }
        let p = catalog::database::profile(&catalog::database::Variant::SqlOltp, &mut rng)
            .with_vcpus(8);
        let _ = cluster.launch_on(s, p, VmRole::Friendly, 0.0);
    }
    for s in (2..servers).step_by(4).take(10) {
        if s == victim_host {
            // Leave headroom next to the victim: an instance-packed host
            // can never receive a probe (nor any other new tenant).
            continue;
        }
        let p = catalog::spark::profile(
            &catalog::spark::Algorithm::KMeans,
            DatasetScale::Medium,
            &mut rng,
        )
        .with_vcpus(8);
        let _ = cluster.launch_on(s, p, VmRole::Friendly, 0.0);
    }

    let rec = fit_recommender(
        7,
        &isolation,
        RecommenderConfig::default(),
        &mut Telemetry::disabled(),
    )
    .map_err(|e| e.to_string())?;
    let detector = Detector::new(rec, DetectorConfig::default());
    let config = CoResidencyConfig::default();
    println!(
        "hunting a SQL victim across {servers} servers; P(per fleet) = {:.2}",
        placement_probability(servers, 1, config.probes)
    );
    let mut log = TelemetryLog::new();
    for round in 0..10 {
        // One telemetry unit per probe fleet.
        let mut telemetry = Telemetry::for_unit_if(trace.on(), round + 1);
        let outcome = hunt(
            &mut cluster,
            &detector,
            victim,
            "mysql",
            &config,
            round as f64 * 120.0,
            &mut rng,
            &mut telemetry,
        )
        .map_err(|e| e.to_string())?;
        log.merge(telemetry);
        println!(
            "fleet {round}: probed {:?}, SQL candidates {:?}",
            outcome.probed_servers, outcome.candidate_servers
        );
        if let Some(server) = outcome.confirmed_server {
            println!(
                "confirmed on server {server} (truth: {victim_host}) with a {:.1}x latency jump",
                outcome.latency_ratio()
            );
            return trace.write(&log);
        }
    }
    println!("not located within the fleet budget — relaunch with another --seed");
    trace.write(&log)
}

fn cmd_robustness(flags: &Flags) -> Result<(), String> {
    use bolt::robustness::churn_sweep;

    let config = ExperimentConfig {
        servers: flags.usize("servers", 8)?,
        victims: flags.usize("victims", 16)?,
        ..experiment_config(flags)?
    };
    let trace = flags.finish()?;
    let intensities = [0.0, 0.25, 0.5, 0.75, 1.0];
    eprintln!(
        "running the churn sweep: {} victims on {} servers at {} intensities...",
        config.victims,
        config.servers,
        intensities.len()
    );
    let ctx = RunCtx::new(trace.on());
    let (points, log) =
        churn_sweep(&config, &LeastLoaded, &intensities, &ctx).map_err(|e| e.to_string())?;
    let mut table = Table::new(vec![
        "intensity",
        "accuracy",
        "degraded",
        "silent",
        "confidence",
        "faults",
        "discarded",
        "retries",
    ]);
    for p in &points {
        table.row(vec![
            format!("{:.2}", p.intensity),
            pct(p.label_accuracy),
            pct(p.degraded_rate),
            pct(p.silent_mislabel_rate),
            format!("{:.3}", p.mean_confidence),
            p.faults_injected.to_string(),
            p.windows_discarded.to_string(),
            p.retries.to_string(),
        ]);
    }
    println!("{}", table.render());
    let calm = &points[0];
    let stormy = points.last().expect("nonempty sweep");
    // The frozen-cluster (intensity 0) silent rate is the detector's
    // baseline error; the contract is about what churn *adds* on top.
    let added_silent = (stormy.silent_mislabel_rate - calm.silent_mislabel_rate).max(0.0);
    println!(
        "full churn: +{} silent mislabels over the calm baseline vs {} degraded detections — {}",
        pct(added_silent),
        pct(stormy.degraded_rate),
        if added_silent <= stormy.degraded_rate + 1e-9 {
            "failures are announced"
        } else {
            "CONTRACT VIOLATED"
        }
    );
    trace.write(&log)
}

fn cmd_region(flags: &Flags) -> Result<(), String> {
    use bolt::region::{run_region_telemetry, RegionConfig};

    let mut config = RegionConfig {
        servers: flags.usize("servers", 1000)?,
        vms_per_server: flags.usize("vms-per-server", 10)?,
        steps: flags.usize("steps", 20)?,
        ..RegionConfig::default()
    };
    if let Some(seed) = flags.u64("seed")? {
        config.seed = seed;
    }
    let trace = flags.finish()?;
    eprintln!(
        "stepping a {}-server region ({} tenants/host target, {} steps)...",
        config.servers, config.vms_per_server, config.steps
    );
    let mut telemetry = Telemetry::for_unit_if(trace.on(), 0);
    let report = run_region_telemetry(&config, &mut telemetry).map_err(|e| e.to_string())?;
    println!("{}", report.table().render());
    trace.write(&TelemetryLog::from_events(telemetry.into_events()))
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use bolt::service::{run_service, ServiceConfig, ShedPolicy};
    use bolt::{Parallelism, RegionConfig};
    use bolt_sim::{ChaosConfig, StormConfig};

    let mut config = if flags.bool("region")? {
        // Region mode: wire the region experiment's shape into the
        // service — zero-noise region tenants, the shared sweep memo, and
        // co-arriving duplicate requests that exercise it.
        let region = RegionConfig {
            servers: flags.usize("servers", RegionConfig::default().servers)?,
            vms_per_server: flags.usize("vms-per-server", 10)?,
            ..RegionConfig::default()
        };
        let base = ServiceConfig::for_region(&region);
        ServiceConfig {
            requests: flags.usize("requests", base.requests)?,
            workers: flags.usize("workers", base.workers)?,
            queue_capacity: flags.usize("queue-cap", base.queue_capacity)?,
            ..base
        }
    } else {
        ServiceConfig {
            servers: flags.usize("servers", 8)?,
            vms_per_server: flags.usize("vms-per-server", 2)?,
            requests: flags.usize("requests", 200)?,
            workers: flags.usize("workers", 3)?,
            queue_capacity: flags.usize("queue-cap", 6)?,
            ..ServiceConfig::default()
        }
    };
    if let Some(rate) = flags.f64("rate")? {
        config.arrival_rate_per_min = rate;
    }
    if let Some(deadline) = flags.f64("deadline")? {
        config.deadline_s = deadline;
    }
    if let Some(seed) = flags.u64("seed")? {
        config.seed = seed;
    }
    if let Some(storm) = flags.f64("storm")? {
        config.storm = StormConfig::with_intensity(storm);
    }
    if let Some(chaos) = flags.f64("chaos-intensity")? {
        config.chaos = ChaosConfig::with_intensity(chaos);
    }
    if let Some(threads) = flags.u64("threads")? {
        config.parallelism = if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads as usize)
        };
    }
    if let Some(policy) = flags.get("shed") {
        config.shed = match policy.as_str() {
            "degrade" => ShedPolicy::DegradeToAnytime,
            "reject" => ShedPolicy::Reject,
            other => return Err(format!("--shed needs degrade or reject, got `{other}`")),
        };
    }
    let trace = flags.finish()?;

    eprintln!(
        "serving {} requests at {:.1}/min over {} lanes ({} servers, storm {:.2}, chaos {:.2})...",
        config.requests,
        config.arrival_rate_per_min,
        config.workers,
        config.servers,
        config.storm.intensity,
        config.chaos.intensity
    );
    // Always recorded: the table's event, idle and sharing rows read the log.
    let ctx = RunCtx::new(true);
    let (report, log) = run_service(&config, &ctx).map_err(|e| e.to_string())?;

    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["offered".into(), report.offered.to_string()]);
    table.row(vec![
        "storm-injected".into(),
        report.storm_injected.to_string(),
    ]);
    table.row(vec!["admitted".into(), report.admitted.to_string()]);
    table.row(vec!["completed".into(), report.completed.to_string()]);
    table.row(vec!["degraded".into(), report.degraded.to_string()]);
    table.row(vec![
        "shed (admission)".into(),
        report.shed_at_admission.to_string(),
    ]);
    table.row(vec![
        "shed (breaker)".into(),
        report.shed_after_admission.to_string(),
    ]);
    table.row(vec!["timed out".into(), report.timed_out.to_string()]);
    table.row(vec![
        "goodput/min".into(),
        format!("{:.2}", report.goodput_per_min),
    ]);
    if let Some(latency) = report.latency {
        table.row(vec![
            "latency p50/p99/max (s)".into(),
            format!(
                "{:.1} / {:.1} / {:.1}",
                latency.p50, latency.p99, latency.max
            ),
        ]);
    }
    table.row(vec!["degraded rate".into(), pct(report.degraded_rate)]);
    table.row(vec![
        "silent mislabels".into(),
        pct(report.silent_mislabel_rate),
    ]);
    table.row(vec![
        "events processed".into(),
        log.counter_total(bolt::Counter::EventsProcessed)
            .to_string(),
    ]);
    table.row(vec![
        "idle skipped (s)".into(),
        log.counter_total(bolt::Counter::IdleSkipped).to_string(),
    ]);
    table.row(vec![
        "sweeps shared".into(),
        log.counter_total(bolt::Counter::SweepsShared).to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "conservation: admitted {} = completed {} + degraded {} + breaker-shed {} + timed-out {} — {}",
        report.admitted,
        report.completed,
        report.degraded,
        report.shed_after_admission,
        report.timed_out,
        if report.balanced() { "ok" } else { "VIOLATED" }
    );
    // The calm-cluster twin (same trace and load, no injected faults) is
    // the detector's intrinsic error floor; the service contract is that
    // everything faults *add* on top arrives announced — degraded, shed,
    // or timed out — never as extra silent mislabels.
    let calm_silent = if config.chaos.is_none() && config.storm.is_none() {
        report.silent_mislabel_rate
    } else {
        let calm = ServiceConfig {
            chaos: ChaosConfig::none(),
            storm: StormConfig::none(),
            ..config
        };
        run_service(&calm, &ctx)
            .map_err(|e| e.to_string())?
            .0
            .silent_mislabel_rate
    };
    let added_silent = (report.silent_mislabel_rate - calm_silent).max(0.0);
    println!(
        "honesty: +{} silent mislabels over the calm baseline vs {} announced degradation — {}",
        pct(added_silent),
        pct(report.degraded_rate),
        if added_silent <= report.degraded_rate + 1e-9 {
            "failures are announced"
        } else {
            "CONTRACT VIOLATED"
        }
    );
    trace.write(&log)
}

#[cfg(test)]
mod tests {
    use super::{experiment_config, parse_flags, run_command};
    use std::path::PathBuf;

    fn flags(args: &[&str]) -> Result<super::Flags, String> {
        parse_flags(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn victimless_experiments_fail() {
        for command in ["detect", "table1"] {
            let err = run_command(command, &flags(&["--victims", "0"]).unwrap()).unwrap_err();
            assert!(err.contains("at least one victim"), "{command}: {err}");
        }
    }

    #[test]
    fn nan_intensities_and_thresholds_fail_before_running() {
        let run = |command: &str, args: &[&str]| run_command(command, &flags(args).unwrap());
        for intensity in ["storm", "chaos-intensity"] {
            let flag = format!("--{intensity}");
            let err = run("serve", &["--requests", "5", &flag, "NaN"]).unwrap_err();
            assert!(err.contains("intensities in [0, 1]"), "{intensity}: {err}");
        }
        let err = run(
            "detect",
            &[
                "--servers",
                "4",
                "--victims",
                "6",
                "--anytime",
                "--confidence-threshold",
                "NaN",
            ],
        )
        .unwrap_err();
        assert!(err.contains("finite confidence threshold"), "{err}");
        // The warm-start refit path and the uncached fit path are gone, so
        // their flags are unknown. The names are assembled so that a search
        // for them finds no live code.
        for removed in [
            ["--warm", "-refit"].concat(),
            ["--no-fit", "-cache"].concat(),
        ] {
            let err = run("serve", &["--requests", "5", &removed, "true"]).unwrap_err();
            assert!(
                err.contains("unknown flag") && err.contains(&removed),
                "{err}"
            );
        }
    }

    #[test]
    fn commands_reject_unread_flags_before_running() {
        let detect = |args: &[&str]| run_command("detect", &flags(args).unwrap()).unwrap_err();
        let err = detect(&[
            "--servers",
            "4",
            "--victims",
            "6",
            "--telemtry",
            "typo.jsonl",
        ]);
        assert!(
            err.contains("unknown flag") && err.contains("--telemtry"),
            "{err}"
        );
        assert!(
            !PathBuf::from("typo.jsonl").exists(),
            "rejected before running"
        );
        let err = detect(&["--servers", "4", "--anytmie", "true"]);
        assert!(err.contains("--anytmie"), "{err}");
        // A bare misspelling is not a known boolean, so it fails to parse.
        assert!(flags(&["--servers", "4", "--anytmie"]).is_err());
        // Flags another command reads are still unknown to this one.
        let err = run_command("region", &flags(&["--anytime"]).unwrap()).unwrap_err();
        assert!(err.contains("--anytime"), "{err}");
        // Once a command has read every flag given, nothing is rejected.
        let given = flags(&["--servers", "4", "--mrc", "--anytime", "--telemetry", "t"]);
        let given = given.unwrap();
        experiment_config(&given).unwrap();
        assert!(given.finish().unwrap().on());
    }

    /// A region too large to step fails validation before a host is
    /// built: an unbounded `--steps` once looped without end.
    #[test]
    fn region_rejects_an_unbounded_step_count_promptly() {
        let start = std::time::Instant::now();
        let err = run_command(
            "region",
            &flags(&["--servers", "4", "--steps", "18446744073709551615"]).unwrap(),
        )
        .unwrap_err();
        assert!(
            err.contains("invalid experiment") && err.contains("steps"),
            "{err}"
        );
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    /// A request count too large to compile fails validation before the
    /// trace is compiled: an unbounded `--requests` once panicked with a
    /// capacity overflow.
    #[test]
    fn serve_rejects_an_unbounded_request_count_promptly() {
        let start = std::time::Instant::now();
        let err = run_command(
            "serve",
            &flags(&["--requests", "18446744073709551615"]).unwrap(),
        )
        .unwrap_err();
        assert!(
            err.contains("invalid experiment") && err.contains("requests"),
            "{err}"
        );
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn parse_flags_accepts_pairs() {
        let flags = parse_flags(
            [
                "--servers",
                "12",
                "--victims",
                "30",
                "--telemetry=out.jsonl",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("valid flags");
        assert_eq!(flags.u64("servers").unwrap(), Some(12));
        assert_eq!(flags.usize("victims", 0).unwrap(), 30);
        assert_eq!(flags.telemetry(), Some(PathBuf::from("out.jsonl")));
    }

    #[test]
    fn parse_flags_rejects_bare_values_and_missing_values() {
        assert!(parse_flags(["12".to_string()].into_iter()).is_err());
        assert!(parse_flags(["--seed".to_string()].into_iter()).is_err());
        // Non-numeric values parse as flags but fail the typed accessor.
        let flags =
            parse_flags(["--seed".to_string(), "abc".to_string()].into_iter()).expect("parses");
        assert!(flags.u64("seed").is_err());
    }

    #[test]
    fn parse_flags_accepts_bare_booleans() {
        // Trailing, followed by another flag, and explicit forms all work;
        // absence reads false.
        for args in [
            vec!["--mrc"],
            vec!["--mrc", "--servers", "12"],
            vec!["--mrc=true"],
            vec!["--mrc", "true"],
        ] {
            let flags =
                parse_flags(args.iter().map(|s| s.to_string())).expect("valid boolean flag");
            assert!(flags.bool("mrc").unwrap(), "args: {args:?}");
        }
        let flags = parse_flags(["--servers".to_string(), "12".to_string()].into_iter()).unwrap();
        assert!(!flags.bool("mrc").unwrap());
        let flags = parse_flags(["--mrc=oui".to_string()].into_iter()).unwrap();
        assert!(flags.bool("mrc").is_err());
        let flags = parse_flags(["--region", "--seed", "9"].iter().map(|s| s.to_string())).unwrap();
        assert!(flags.bool("region").unwrap());
        let flags = parse_flags(
            ["--anytime", "--confidence-threshold", "0.8"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(flags.bool("anytime").unwrap());
        assert_eq!(flags.f64("confidence-threshold").unwrap(), Some(0.8));
    }
}
