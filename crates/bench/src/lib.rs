//! The figure registry: one function per paper table and figure.
//!
//! Each entry of [`FIGURES`] regenerates one table or figure of the
//! paper's evaluation: it returns the measured rows as CSV tables, each
//! next to the paper claim it reproduces, plus the shape checks that claim
//! implies. Absolute numbers come from a simulator, not the authors'
//! testbed — the claim under reproduction is the *shape*: who wins, by
//! roughly what factor, where the crossovers fall.
//!
//! The `figures` bench prints every table and check and writes the CSVs
//! under `bench_results/` at the workspace root; `tests/figures.rs` runs
//! every figure at [`Scale::Reduced`] and fails on any CSV byte that
//! differs from the committed one and on any check that does not hold.

use std::path::{Path, PathBuf};

use bolt::report::Table;
use bolt::telemetry::TelemetryLog;
use bolt::{BoltError, ExperimentConfig};

/// Experiment size. The committed CSVs are the [`Scale::Reduced`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced configurations that finish in seconds while preserving
    /// the shapes.
    Reduced,
    /// Paper-scale configurations.
    Full,
}

impl Scale {
    /// `BOLT_BENCH_SCALE=full` selects [`Scale::Full`]; anything else,
    /// or no value, selects [`Scale::Reduced`].
    pub fn from_env() -> Scale {
        match std::env::var("BOLT_BENCH_SCALE") {
            Ok(v) if v == "full" => Scale::Full,
            _ => Scale::Reduced,
        }
    }

    /// `reduced` or `full`, whichever this scale selects.
    pub(crate) fn pick<T>(self, reduced: T, full: T) -> T {
        match self {
            Scale::Reduced => reduced,
            Scale::Full => full,
        }
    }
}

/// The controlled experiment (§3.4) on `servers` hosts with `victims`
/// victims, every other knob at its default.
fn experiment((servers, victims): (usize, usize)) -> ExperimentConfig {
    ExperimentConfig {
        servers,
        victims,
        ..ExperimentConfig::default()
    }
}

/// What one figure produced.
#[derive(Debug, Default)]
pub struct Output {
    /// `(csv stem, paper claim, table)`, in print order.
    pub tables: Vec<(String, &'static str, Table)>,
    /// The figure's telemetry trace (empty for untraced figures).
    pub telemetry: TelemetryLog,
    /// `(description, holds)` for each shape check, in print order.
    pub checks: Vec<(String, bool)>,
}

/// A figure: runs its experiment at `scale` and reports what it measured.
pub type Figure = fn(Scale) -> Result<Output, BoltError>;

/// Declares one module per figure under `src/figures/` and lists each in
/// [`FIGURES`] under its module name.
macro_rules! figures {
    ($($name:ident),* $(,)?) => {
        mod figures {
            $(pub mod $name;)*
        }

        /// Every table and figure, by name.
        pub const FIGURES: &[(&str, Figure)] = &[$((stringify!($name), figures::$name::run)),*];
    };
}

figures!(
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

/// The workspace's `bench_results/` directory, where the CSVs live.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("bench_results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_workspace_level() {
        // Not read at run time: a binary started elsewhere still writes
        // to the workspace.
        std::env::remove_var("CARGO_MANIFEST_DIR");
        let d = results_dir();
        assert!(d.ends_with("bench_results"));
        assert!(d.is_absolute(), "{} is relative", d.display());
        assert!(d.join("table1_detection_accuracy.csv").is_file());
    }

    #[test]
    fn scale_defaults_to_reduced() {
        // The env var is unset in tests.
        if std::env::var("BOLT_BENCH_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Reduced);
        }
    }
}
