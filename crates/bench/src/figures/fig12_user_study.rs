//! Figs. 11-12: the EC2 multi-user study. 20 users submit 436 jobs of 53
//! application types onto 200 shared instances; Bolt names 277 of them and
//! recovers resource characteristics for 385, without updating its
//! training set.

use bolt::report::{pct, Table};
use bolt::user_study::{run_user_study, UserStudyConfig};
use bolt::{BoltError, RunCtx};

use crate::{Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let (instances, users, jobs) = scale.pick((40, 10, 120), (200, 20, 436));
    let config = UserStudyConfig {
        instances,
        users,
        jobs,
        ..UserStudyConfig::default()
    };
    let results = run_user_study(&config, &RunCtx::new(false))?.0;
    let n = results.records.len();
    let share = |k: usize| format!("{k}/{n} ({})", pct(k as f64 / n as f64));

    let mut table = Table::new(vec!["metric", "paper", "measured"]);
    table.row(vec![
        "jobs named correctly".into(),
        "277/436 (64%)".into(),
        share(results.named()),
    ]);
    table.row(vec![
        "jobs characterized".into(),
        "385/436 (88%)".into(),
        share(results.characterized()),
    ]);
    table.row(vec![
        "instances used".into(),
        "186/200".into(),
        format!("{}/{}", results.instances_used, config.instances),
    ]);
    let mut out = Output::default();
    out.tables.push((
        "fig12_user_study_summary".into(),
        "named 277/436; characterized 385/436; bottom 14 instances unused",
        table,
    ));

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
    out.tables.push((
        "fig12ab_per_label".into(),
        "unseen families are never named but still characterized",
        per,
    ));

    let unseen_named = results
        .records
        .iter()
        .filter(|r| !r.in_training && r.name_correct)
        .count();
    out.checks.push((
        format!(
            "characterized ({}) > named ({})",
            results.characterized(),
            results.named(),
        ),
        results.characterized() > results.named(),
    ));
    out.checks.push((
        format!("unseen-family jobs named: {unseen_named} (must be 0)"),
        unseen_named == 0,
    ));
    Ok(out)
}
