//! The paper-claims gate: every figure in the registry, run at reduced
//! scale, must reproduce its committed `bench_results/` CSVs byte for byte
//! and pass every shape check. Regenerate the CSVs with
//! `cargo bench -p bolt-bench --bench figures` and commit them.

use std::collections::BTreeSet;
use std::fs;
use std::sync::{LazyLock, OnceLock};

use bolt_bench::{results_dir, Output, Scale, FIGURES};

/// Each figure runs once per test process, whichever test asks first.
static RUNS: LazyLock<Vec<OnceLock<Output>>> =
    LazyLock::new(|| FIGURES.iter().map(|_| OnceLock::new()).collect());

fn output(index: usize) -> &'static Output {
    RUNS[index].get_or_init(|| {
        let (name, figure) = FIGURES[index];
        // Explicit: `BOLT_BENCH_SCALE=full` in the environment must not
        // change what is compared against the committed CSVs.
        figure(Scale::Reduced).unwrap_or_else(|e| panic!("{name} failed: {e}"))
    })
}

fn reproduces(name: &str) {
    let index = FIGURES
        .iter()
        .position(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the registry"));
    let out = output(index);
    let mut failures = Vec::new();
    for (stem, _, table) in &out.tables {
        let path = results_dir().join(format!("{stem}.csv"));
        let committed = fs::read_to_string(&path).unwrap_or_default();
        let measured = table.to_csv();
        if measured != committed {
            let same = (measured.lines().zip(committed.lines())).take_while(|(m, c)| m == c);
            let line = same.count();
            failures.push(format!(
                "{} line {}: committed {:?}, measured {:?}",
                path.display(),
                line + 1,
                committed.lines().nth(line),
                measured.lines().nth(line),
            ));
        }
    }
    for (description, holds) in &out.checks {
        if !holds {
            failures.push(format!("check failed: {description}"));
        }
    }
    assert!(failures.is_empty(), "{name}:\n{}", failures.join("\n"));
}

macro_rules! gate {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                reproduces(stringify!($name));
            }
        )*
        const GATED: &[&str] = &[$(stringify!($name)),*];
    };
}

gate!(
    table1_detection_accuracy,
    fig02_memcached_heatmap,
    fig04_training_coverage,
    fig05_star_profiles,
    fig06_coresidents_dominant,
    fig07_iterations_pdf,
    fig08_phase_timeline,
    fig09_pressure_accuracy,
    fig10_sensitivity,
    fig12_user_study,
    fig13_dos_timeline,
    table_dos_impact,
    table2_rfa,
    sec53_coresidency,
    fig14_isolation,
    ablations,
    robustness_churn,
    table1_mrc_ablation,
    region_scale,
    probes_vs_accuracy,
    service_overload,
    service_region,
);

#[test]
fn every_figure_is_gated() {
    let registered: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    assert_eq!(registered, GATED);
}

#[test]
fn bench_results_holds_exactly_the_registry_csvs() {
    // Backwards, so that this test and the per-figure tests (which the
    // harness starts in name order) rarely wait on the same figure.
    let written: BTreeSet<String> = (0..FIGURES.len())
        .rev()
        .flat_map(|i| output(i).tables.iter().map(|(stem, _, _)| stem.clone()))
        .collect();
    let committed: BTreeSet<String> = fs::read_dir(results_dir())
        .expect("bench_results/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        committed, written,
        "stale or missing CSVs in bench_results/"
    );
}
