//! Figs. 11-12: the EC2 multi-user study. 20 users submit 436 jobs of 53
//! application types onto 200 shared instances; Bolt names 277 of them and
//! recovers resource characteristics for 385, without updating its
//! training set.

use bolt::report::{pct, Table};
use bolt::user_study::{run_user_study, UserStudyConfig};
use bolt::{FitCache, RunCtx};
use bolt_bench::{emit, full_scale};

fn main() {
    let config = if full_scale() {
        UserStudyConfig::default() // 200 instances, 436 jobs
    } else {
        UserStudyConfig {
            instances: 40,
            users: 10,
            jobs: 120,
            ..UserStudyConfig::default()
        }
    };
    eprintln!(
        "running the user study ({} jobs on {} instances)...",
        config.jobs, config.instances
    );
    let results = run_user_study(&config, &RunCtx::new(&FitCache::new(), false))
        .expect("study runs")
        .0;
    let n = results.records.len();

    let mut table = Table::new(vec!["metric", "paper", "measured"]);
    table.row(vec![
        "jobs named correctly".into(),
        "277/436 (64%)".into(),
        format!(
            "{}/{} ({})",
            results.named(),
            n,
            pct(results.named() as f64 / n as f64)
        ),
    ]);
    table.row(vec![
        "jobs characterized".into(),
        "385/436 (88%)".into(),
        format!(
            "{}/{} ({})",
            results.characterized(),
            n,
            pct(results.characterized() as f64 / n as f64)
        ),
    ]);
    table.row(vec![
        "instances used".into(),
        "186/200".into(),
        format!("{}/{}", results.instances_used, config.instances),
    ]);
    emit(
        "fig12_user_study_summary",
        "named 277/436; characterized 385/436; bottom 14 instances unused",
        &table,
    );

    // Per-label breakdown (Fig. 12a/b).
    let mut per = Table::new(vec![
        "label id",
        "family",
        "occurrences",
        "named",
        "characterized",
    ]);
    for (id, occurrences, named, characterized) in results.per_label() {
        let family = results
            .records
            .iter()
            .find(|r| r.app_id == id)
            .map(|r| r.family.clone())
            .unwrap_or_default();
        per.row(vec![
            id.to_string(),
            family,
            occurrences.to_string(),
            named.to_string(),
            characterized.to_string(),
        ]);
    }
    emit(
        "fig12ab_per_label",
        "unseen families are never named but still characterized",
        &per,
    );

    // Shape checks.
    let unseen_named = results
        .records
        .iter()
        .filter(|r| !r.in_training && r.name_correct)
        .count();
    println!(
        "characterized ({}) > named ({}): {} | unseen-family jobs named: {unseen_named} (must be 0)",
        results.characterized(),
        results.named(),
        if results.characterized() > results.named() { "shape holds" } else { "MISMATCH" },
    );
}
