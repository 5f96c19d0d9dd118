//! `region-churn`: a 10,000-server, 100,000-tenant region stepped through
//! probes and churn by calling the simulator's storage layer directly.
//!
//! The step loop replays `bolt::run_region` call for call — the tenant
//! rotation of `bolt::region`'s profile helper included — so the final
//! storage counters must equal the library's. No recommender or detector
//! runs here: this is the bypass workload for every change above the
//! simulator.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bolt::parallel::split_seed;
use bolt::{run_region, RegionConfig};
use bolt_sim::{Cluster, IsolationConfig, ServerSpec, StorageStats, VmId, VmRole};
use bolt_workloads::{catalog, DatasetScale, WorkloadProfile};

use crate::calib::Job;
use crate::harness::{median_ms, ratio, Ctx, Outcome, Passes, Res};
use crate::trace::{totals, Tracer, ROOT};

/// The region tenant for slot `i`: four catalog families squeezed onto one
/// vCPU with zero noise, in the library's rotation.
fn tenant_profile<R: Rng>(i: usize, rng: &mut R) -> WorkloadProfile {
    let p = match i % 4 {
        0 => catalog::memcached::profile(&catalog::memcached::Variant::Mixed, rng),
        1 => catalog::speccpu::profile(&catalog::speccpu::Benchmark::Gobmk, rng),
        2 => catalog::spark::profile(&catalog::spark::Algorithm::KMeans, DatasetScale::Small, rng),
        _ => catalog::memcached::profile(&catalog::memcached::Variant::ReadHeavyKb, rng),
    };
    p.with_noise(0.0).with_vcpus(1)
}

/// Builds and populates a region exactly as `run_region` does.
pub fn build_region(
    servers: usize,
    vms_per_server: usize,
    rng: &mut StdRng,
) -> Result<Cluster, bolt::BoltError> {
    let mut cluster = Cluster::new(
        servers,
        ServerSpec::xeon(),
        IsolationConfig::cloud_default(),
    )?;
    let core_iso = cluster.isolation().mechanisms.core_isolation;
    for server in 0..servers {
        for k in 0..vms_per_server {
            let profile = tenant_profile(server + k, rng);
            if !cluster.server(server)?.can_host(profile.vcpus(), core_iso) {
                break;
            }
            cluster.launch_on(server, profile, VmRole::Friendly, 0.0)?;
        }
    }
    Ok(cluster)
}

fn configs(ctx: &Ctx) -> Vec<RegionConfig> {
    (0..ctx.scale.region_seeds)
        .map(|i| RegionConfig {
            servers: ctx.scale.region_servers,
            vms_per_server: ctx.scale.region_vms_per_server,
            steps: ctx.scale.region_steps,
            probes_per_step: ctx.scale.region_probes_per_step,
            churn_per_step: ctx.scale.region_churn_per_step,
            seed: split_seed(ctx.seed, i as u64),
        })
        .collect()
}

/// The simulator calls a step makes, timed one by one in traced passes.
#[derive(Clone, Copy)]
enum Call {
    LiveList,
    Probe,
    Terminate,
    Place,
    Launch,
}

/// Span names of the calls, in `Call` order.
const CALLS: [&str; 5] = [
    "sim.live_list",
    "sim.probe",
    "sim.terminate",
    "sim.place",
    "sim.launch",
];

/// Per-call wall time and call counts of one step. Reads the clock only
/// when tracing, so the untraced path pays one branch per call.
struct Laps {
    on: bool,
    wall: [Duration; CALLS.len()],
    calls: [u64; CALLS.len()],
}

impl Laps {
    fn new(on: bool) -> Self {
        Laps {
            on,
            wall: [Duration::ZERO; CALLS.len()],
            calls: [0; CALLS.len()],
        }
    }

    fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        self.wall[call as usize] += start.elapsed();
        self.calls[call as usize] += 1;
        value
    }
}

/// What one region's steps left in the storage layer.
struct RegionEnd {
    built: StorageStats,
    end: StorageStats,
    probes: u64,
}

/// Steps one region, timing every step as one operation.
fn step_region(
    config: &RegionConfig,
    mut cluster: Cluster,
    mut rng: StdRng,
    traced: bool,
    out: &mut Outcome,
    tracer: &mut Tracer,
    seed_span: u64,
) -> Res<RegionEnd> {
    let built = cluster.storage_stats();
    let mut probes = 0u64;
    for step in 0..config.steps {
        let start = Instant::now();
        let mut laps = Laps::new(traced);
        let t = step as f64 * 10.0;
        let live: Vec<VmId> = laps.time(Call::LiveList, || cluster.vm_ids().collect());
        if !live.is_empty() {
            let stride = (live.len() / config.probes_per_step.max(1)).max(1);
            for id in live.iter().step_by(stride).take(config.probes_per_step) {
                black_box(laps.time(Call::Probe, || cluster.interference_on(*id, t, &mut rng))?);
                probes += 1;
            }
        }
        for c in 0..config.churn_per_step.min(live.len()) {
            let victim = live[(c * 7919) % live.len()];
            if cluster.vm(victim).is_ok() {
                laps.time(Call::Terminate, || cluster.terminate(victim))?;
            }
            let profile = tenant_profile(step + c, &mut rng);
            let target = laps.time(Call::Place, || cluster.least_loaded_server(profile.vcpus()));
            if let Some(target) = target {
                laps.time(Call::Launch, || {
                    cluster.launch_on(target, profile, VmRole::Friendly, t)
                })?;
            }
        }
        let wall = start.elapsed();
        out.op(traced, wall);
        if traced {
            let op = Some(step as u64);
            let step_id = tracer.reserve();
            for (i, name) in CALLS.into_iter().enumerate() {
                if laps.calls[i] > 0 {
                    let id = tracer.reserve();
                    tracer.finish(
                        id,
                        Some(step_id),
                        name,
                        op,
                        start,
                        laps.wall[i],
                        laps.calls[i],
                    );
                }
            }
            tracer.finish(step_id, Some(seed_span), "step", op, start, wall, 1);
        }
    }
    Ok(RegionEnd {
        built,
        end: cluster.storage_stats(),
        probes,
    })
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Res<Outcome> {
    let mut out = Outcome::new(Job::Sort);
    let configs = configs(ctx);
    let first = &configs[0];

    // Set-up: building and populating the region.
    for _ in 0..ctx.scale.setup_reps {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(first.seed);
        let cluster = build_region(first.servers, first.vms_per_server, &mut rng)?;
        out.setup(start.elapsed());
        drop(black_box(cluster));
    }

    let mut first_pass: Vec<RegionEnd> = Vec::new();
    let mut mismatched = 0usize;
    let mut passes = Passes::new(ctx);
    while let Some(traced) = passes.next_pass(&mut out) {
        for (k, config) in configs.iter().enumerate() {
            // Each region is built fresh (untimed: set-up measured it) so
            // no pass inherits another's caches or free lists.
            let mut rng = StdRng::seed_from_u64(config.seed);
            let cluster = build_region(config.servers, config.vms_per_server, &mut rng)?;
            let seed_start = Instant::now();
            let seed_span = if traced { tracer.reserve() } else { 0 };
            let end = step_region(config, cluster, rng, traced, &mut out, tracer, seed_span)?;
            if traced {
                tracer.finish(
                    seed_span,
                    Some(ROOT),
                    "seed",
                    None,
                    seed_start,
                    seed_start.elapsed(),
                    1,
                );
            }
            match first_pass.get(k) {
                None => first_pass.push(end),
                Some(first) => mismatched += usize::from(first.end != end.end),
            }
        }
    }
    out.end_timed(&passes)?;

    // Correctness: the storage layer ends where the library's own region
    // driver leaves it, and every pass reproduced the first.
    let library = run_region(first)?;
    let driven = &first_pass[0];
    out.check(
        "storage_matches_run_region",
        library.storage == driven.end && library.probes == driven.probes,
        format!(
            "library {:?} vs outside-driven {:?}",
            library.storage, driven.end
        ),
    );
    out.check(
        "passes_identical",
        mismatched == 0,
        format!("{mismatched} regions differed from the first pass"),
    );

    if ctx.trace {
        let totals = totals(tracer.spans());
        let per_call = |name: &str, scale: f64| {
            let t = totals.get(name).copied().unwrap_or_default();
            ratio(t.wall_ns * scale, t.calls as f64)
        };
        out.layer("sim.probe_ns", per_call("sim.probe", 1.0));
        out.layer("sim.place_us", per_call("sim.place", 1e-3));
        out.layer("sim.launch_us", per_call("sim.launch", 1e-3));
        out.layer("sim.terminate_us", per_call("sim.terminate", 1e-3));
        out.layer("sim.live_list_us", per_call("sim.live_list", 1e-3));
        let sum = |f: fn(&RegionEnd) -> u64| first_pass.iter().map(f).sum::<u64>() as f64;
        let probes = sum(|e| e.probes);
        let steps = (first_pass.len() * first.steps) as f64;
        out.layer(
            "sim.visits_per_probe",
            ratio(
                sum(|e| e.end.neighbor_visits - e.built.neighbor_visits),
                probes,
            ),
        );
        let hits = sum(|e| e.end.agg_hits - e.built.agg_hits);
        let misses = sum(|e| e.end.agg_misses - e.built.agg_misses);
        out.layer("sim.agg_cache_hit_ratio", ratio(hits, hits + misses));
        out.layer(
            "sim.residency_ops_per_step",
            ratio(sum(|e| e.end.residency_ops - e.built.residency_ops), steps),
        );
        out.layer("sim.slots_reused", sum(|e| e.end.slots_reused));
        out.layer("sim.region_build_s", median_ms(&out.setup_walls()) / 1e3);
    }
    Ok(out)
}
