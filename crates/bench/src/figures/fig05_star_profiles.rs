//! Fig. 5: star-chart resource profiles. Two Hadoop jobs — word count on
//! a small dataset and a recommender on a very large one — have very
//! different fingerprints, and an unknown Hadoop job is matched to the
//! recommender (similarity 0.78), not word count (0.29).

use bolt::experiment::observed_training;
use bolt::report::Table;
use bolt::BoltError;
use bolt_recommender::{HybridRecommender, RecommenderConfig, TrainingData};
use bolt_sim::IsolationConfig;
use bolt_workloads::catalog::hadoop;
use bolt_workloads::training::training_set;
use bolt_workloads::{DatasetScale, Resource};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Output, Scale};

pub fn run(_scale: Scale) -> Result<Output, BoltError> {
    let mut rng = StdRng::seed_from_u64(0xF165);
    let isolation = IsolationConfig::cloud_default();
    let data = TrainingData::from_examples(observed_training(&training_set(7), &isolation))?;
    let rec = HybridRecommender::fit(data, RecommenderConfig::default())?;

    let wordcount = hadoop::profile(&hadoop::Algorithm::WordCount, DatasetScale::Small, &mut rng);
    let recommender_job = hadoop::profile(
        &hadoop::Algorithm::Recommender,
        DatasetScale::Large,
        &mut rng,
    );
    // The "new unknown app": a fresh recommender instance (different
    // jitter, unseen by training).
    let unknown = hadoop::profile(
        &hadoop::Algorithm::Recommender,
        DatasetScale::Large,
        &mut rng,
    );

    // The star-chart data: the three profiles across all ten axes.
    let mut stars = Table::new(vec![
        "resource",
        "hadoop:wordcount:S",
        "hadoop:recommender:L",
        "unknown app",
    ]);
    for r in Resource::ALL {
        stars.row(vec![
            r.to_string(),
            format!("{:.0}", wordcount.base_pressure()[r]),
            format!("{:.0}", recommender_job.base_pressure()[r]),
            format!("{:.0}", unknown.base_pressure()[r]),
        ]);
    }
    let mut out = Output::default();
    out.tables.push((
        "fig05_star_profiles".into(),
        "wordcount:S and recommender:L differ sharply within the same framework",
        stars,
    ));

    // Similarity of the unknown app to each reference class.
    let scores = rec.score_profile(unknown.base_pressure())?;
    let sim_to = |family: &str, variant: &str| {
        scores
            .iter()
            .filter(|s| s.label.family() == family && s.label.variant() == variant)
            .map(|s| s.correlation)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let s_wc = sim_to("hadoop", "wordcount");
    let s_rec = sim_to("hadoop", "recommender");
    let mut table = Table::new(vec!["reference", "paper similarity", "measured"]);
    table.row(vec![
        "hadoop:wordcount".into(),
        "0.29".into(),
        format!("{s_wc:.2}"),
    ]);
    table.row(vec![
        "hadoop:recommender".into(),
        "0.78".into(),
        format!("{s_rec:.2}"),
    ]);
    out.tables.push((
        "fig05_similarity".into(),
        "the unknown job matches the recommender (0.78), not word count (0.29)",
        table,
    ));
    out.checks.push((
        format!("recommender similarity {s_rec:.2} > wordcount similarity {s_wc:.2}"),
        s_rec > s_wc,
    ));
    Ok(out)
}
