//! Regenerates the paper's tables and figures: runs every entry of
//! `bolt_bench::FIGURES`, or only the ones named on the command line
//! (`cargo bench -p bolt-bench --bench figures -- fig13_dos_timeline`),
//! prints each table next to the paper claim and each shape check, and
//! writes the CSVs under `bench_results/`. `BOLT_BENCH_SCALE=full` selects
//! paper scale; `--telemetry PATH` writes the figures' traces.
//!
//! Exits non-zero when a figure fails to run, a CSV cannot be written, or
//! a shape check does not hold.

use std::process::ExitCode;

use bolt::telemetry::{telemetry_path_from_args, TelemetryLog};
use bolt_bench::{results_dir, Figure, Scale, FIGURES};

fn main() -> ExitCode {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = telemetry_path_from_args(&args);
    let mut selected: Vec<(&str, Figure)> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--bench" => {} // passed by `cargo bench`
            "--telemetry" => drop(rest.next()),
            flag if flag.starts_with("--telemetry=") => {}
            name => match FIGURES.iter().find(|(n, _)| *n == name) {
                Some(&figure) => selected.push(figure),
                None => {
                    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
                    eprintln!("unknown figure `{name}`; figures: {}", names.join(", "));
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if selected.is_empty() {
        selected = FIGURES.to_vec();
    }

    let dir = results_dir();
    let mut log = TelemetryLog::new();
    let mut ok = true;
    for (name, figure) in selected {
        eprintln!("running {name}...");
        let out = match figure(scale) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{name} failed: {e}");
                ok = false;
                continue;
            }
        };
        for (stem, paper_claim, table) in &out.tables {
            println!("\n=== {stem} ===");
            println!("paper: {paper_claim}\n");
            println!("{}", table.render());
            let path = dir.join(format!("{stem}.csv"));
            match table.write_csv(&path) {
                Ok(()) => println!("csv: {}", path.display()),
                Err(e) => {
                    eprintln!("could not write {}: {e}", path.display());
                    ok = false;
                }
            }
        }
        for (description, holds) in &out.checks {
            println!(
                "{description} — {}",
                if *holds { "holds" } else { "MISMATCH" }
            );
            ok &= holds;
        }
        log.extend(out.telemetry.into_events());
    }

    if let Some(path) = telemetry_path {
        match log.write_jsonl(&path) {
            Ok(()) => println!("telemetry: {}", path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
