//! Fig. 7: PDF of the number of detection iterations until a workload is
//! correctly identified — overall and by co-resident count.
//!
//! Paper: 71% of victims need a single iteration, another 15% a second;
//! jobs unidentified by the sixth iteration do not benefit from more.
//! More co-residents need more iterations.

use bolt::experiment::run_experiment;
use bolt::report::Table;
use bolt::{BoltError, RunCtx};
use bolt_sim::LeastLoaded;

use crate::{experiment, Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let config = experiment(scale.pick((16, 44), (40, 108)));
    let results = run_experiment(&config, &LeastLoaded, &RunCtx::new(false))?.0;
    let max_iters = config.detector.max_iterations;

    // (a) overall PDF.
    let pdf = results.iterations_pdf(max_iters);
    let paper = ["71%", "15%", "~6%", "~4%", "~2%", "~2%"];
    let mut table = Table::new(vec!["iterations", "paper PDF", "measured PDF"]);
    for (i, p) in pdf.iter().enumerate() {
        table.row(vec![
            (i + 1).to_string(),
            paper.get(i).copied().unwrap_or("-").to_string(),
            format!("{:.0}%", p * 100.0),
        ]);
    }
    let mut out = Output::default();
    out.tables.push((
        "fig07a_iterations_pdf".into(),
        "71% of victims are identified in one iteration, 15% in two",
        table,
    ));

    // (b) per co-resident count.
    let mut per = Table::new(vec!["co-residents", "1 iter", "2", "3", "4", "5", "6"]);
    let max_co = results
        .records
        .iter()
        .map(|r| r.co_residents)
        .max()
        .unwrap_or(1);
    for n in 1..=max_co {
        if let Some(pdf) = results.iterations_pdf_for_co_residents(n, max_iters) {
            let mut row = vec![n.to_string()];
            row.extend(pdf.iter().map(|p| format!("{:.0}%", p * 100.0)));
            per.row(row);
        }
    }
    out.tables.push((
        "fig07b_iterations_by_coresidents".into(),
        "single jobs detect in one iteration; more co-residents need more",
        per,
    ));

    // Shape check: the PDF is front-loaded — a single iteration carries
    // the plurality of the mass, well clear of the uniform baseline.
    let max_tail = pdf[1..].iter().cloned().fold(0.0, f64::max);
    out.checks.push((
        format!(
            "one-iteration mass: {:.0}% (paper 71%) is at least 40% and the mode (front-loaded PDF)",
            pdf[0] * 100.0,
        ),
        pdf[0] >= 0.4 && pdf[0] >= max_tail,
    ));
    Ok(out)
}
