//! Table 1: Bolt's detection accuracy in the controlled experiment, per
//! application class, with the least-loaded scheduler and Quasar.
//!
//! Paper: aggregate 87% (LL) / 89% (Quasar); memcached 78/80, Hadoop
//! 92/92, Spark 85/86, Cassandra 90/89, SPEC CPU2006 84/85. The scheduler
//! barely matters — Quasar's cleaner colocations even help slightly.

use bolt::experiment::run_experiment;
use bolt::report::{pct, Table};
use bolt::{BoltError, RunCtx};
use bolt_sim::{LeastLoaded, Quasar};

use crate::{experiment, Output, Scale};

pub fn run(scale: Scale) -> Result<Output, BoltError> {
    let config = experiment(scale.pick((20, 54), (40, 108)));

    let ll = run_experiment(&config, &LeastLoaded, &RunCtx::new(false))?.0;
    let quasar = run_experiment(&config, &Quasar, &RunCtx::new(false))?.0;

    let mut table = Table::new(vec![
        "class",
        "paper LL",
        "measured LL",
        "paper Quasar",
        "measured Quasar",
    ]);
    let rows: [(&str, Option<&str>, &str, &str); 6] = [
        ("aggregate", None, "87%", "89%"),
        ("memcached", Some("memcached"), "78%", "80%"),
        ("hadoop", Some("hadoop"), "92%", "92%"),
        ("spark", Some("spark"), "85%", "86%"),
        ("cassandra", Some("cassandra"), "90%", "89%"),
        ("speccpu2006", Some("speccpu2006"), "84%", "85%"),
    ];
    for (name, family, paper_ll, paper_q) in rows {
        let (m_ll, m_q) = match family {
            None => (Some(ll.label_accuracy()), Some(quasar.label_accuracy())),
            Some(f) => (ll.family_accuracy(f), quasar.family_accuracy(f)),
        };
        table.row(vec![
            name.to_string(),
            paper_ll.to_string(),
            m_ll.map(pct).unwrap_or_else(|| "-".into()),
            paper_q.to_string(),
            m_q.map(pct).unwrap_or_else(|| "-".into()),
        ]);
    }
    let mut out = Output::default();
    out.tables.push((
        "table1_detection_accuracy".into(),
        "87% aggregate accuracy; scheduler choice changes it by ~2%",
        table,
    ));

    let delta = (quasar.label_accuracy() - ll.label_accuracy()).abs();
    out.checks.push((
        format!(
            "scheduler delta: {:.1} points (paper: ~2) below 15",
            delta * 100.0
        ),
        delta < 0.15,
    ));
    Ok(out)
}
