//! Feature-count ablation (study E9 of `golden/README.md`).
//!
//! The paper selects its ten features with backward elimination and states that
//! "extracting the ten most relevant features offers a proper trade-off between
//! accuracy and complexity". This study re-runs the a-posteriori labeling with
//! the `k` most relevant of those ten features (ranked on held-out training
//! records) and reports the labeling deviation as a function of `k`.

use crate::scale::ExperimentScale;
use crate::selection::{backward_elimination, select_columns};
use seizure_core::algorithm::{posteriori_detect, DetectorConfig};
use seizure_core::label::window_labels;
use seizure_core::labeler::{LabelerConfig, PosterioriLabeler};
use seizure_core::metric::DeviationSummary;
use seizure_core::workspace::FeatureWorkspace;
use seizure_core::{CoreError, SeizureLabel};
use seizure_data::cohort::Cohort;
use seizure_features::extractor::FeatureExtractor;

/// Labeling quality with a given number of features.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Number of (most relevant) features used.
    pub num_features: usize,
    /// Mean δ in seconds over the evaluation records.
    pub mean_delta: f64,
    /// Geometric mean of δ_norm over the evaluation records.
    pub gmean_norm: f64,
}

/// Result of the feature-count ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResults {
    /// Ranking of the ten paper features from most to least relevant
    /// (indices into the paper feature set).
    pub ranking: Vec<usize>,
    /// Names of the ranked features, most relevant first.
    pub ranked_names: Vec<String>,
    /// One point per evaluated feature count.
    pub points: Vec<AblationPoint>,
}

/// Runs the ablation at the given scale. A handful of records from three
/// patients of different difficulty are used for evaluation; the feature
/// ranking is computed on separate training records using the ground truth.
///
/// # Errors
///
/// Propagates data-generation, feature-extraction and labeling failures.
pub fn run_feature_ablation(scale: ExperimentScale) -> Result<AblationResults, CoreError> {
    let cohort = Cohort::chb_mit_like(42);
    let sample_config = scale.sample_config();
    let labeler = PosterioriLabeler::new(LabelerConfig::default());
    let patients = [0usize, 4, 7]; // mixed difficulty: 1, 5, 8
    let samples_per_patient = scale.samples_per_seizure().clamp(1, 3);
    let mut workspace = FeatureWorkspace::new();

    // 1. Rank the ten features with backward elimination on training records,
    //    using the ground-truth window labels.
    let mut ranking_votes = [0.0f64; 10];
    for &patient in &patients {
        let record = cohort.sample_record(patient, 0, &sample_config, 9999)?;
        labeler.extract_features_with(record.signal(), &mut workspace)?;
        let features = workspace.matrix();
        let window = labeler.window_config(record.signal().sampling_frequency())?;
        let truth = SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
        let labels = window_labels(
            &truth,
            features.num_windows(),
            window.window_seconds(),
            window.step_seconds(),
        )?;
        for (rank, &feature) in backward_elimination(features, &labels)?.iter().enumerate() {
            ranking_votes[feature] += (10 - rank) as f64;
        }
    }
    let mut ranking: Vec<usize> = (0..10).collect();
    ranking.sort_by(|&a, &b| ranking_votes[b].total_cmp(&ranking_votes[a]));

    // 2. Evaluate the labeling with the top-k features.
    let mut points = Vec::new();
    for k in [2usize, 4, 6, 8, 10] {
        let selected = &ranking[..k];
        let mut summary = DeviationSummary::new();
        for &patient in &patients {
            let w = cohort.average_seizure_duration(patient)?;
            for seizure in 0..cohort.seizures_of(patient)?.len().min(2) {
                for sample in 0..samples_per_patient {
                    let record =
                        cohort.sample_record(patient, seizure, &sample_config, sample as u64)?;
                    labeler.extract_features_with(record.signal(), &mut workspace)?;
                    let projected = select_columns(workspace.matrix(), selected)?;
                    let window = labeler.window_config(record.signal().sampling_frequency())?;
                    let w_rows = ((w / window.step_seconds()).round() as usize).max(1);
                    let detection =
                        posteriori_detect(&projected, w_rows, &DetectorConfig::default())?;
                    let onset = window.window_start_seconds(detection.window_index);
                    let offset = (onset + w_rows as f64 * window.step_seconds())
                        .min(record.signal().duration_secs());
                    summary.record(
                        (record.annotation().onset(), record.annotation().offset()),
                        (onset, offset),
                        record.signal().duration_secs(),
                    )?;
                }
            }
        }
        points.push(AblationPoint {
            num_features: k,
            mean_delta: summary.mean_delta().unwrap_or(f64::NAN),
            gmean_norm: summary.geometric_mean_normalized().unwrap_or(f64::NAN),
        });
    }

    // Feature names for reporting.
    let names = seizure_features::extractor::PaperFeatureSet::new(256.0)?.feature_names();
    let ranked_names = ranking.iter().map(|&i| names[i].clone()).collect();
    Ok(AblationResults {
        ranking,
        ranked_names,
        points,
    })
}

impl AblationResults {
    /// Formats the ablation table.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("FEATURE ABLATION (E9): labeling quality vs number of features\n");
        out.push_str("feature ranking (most relevant first):\n");
        for (rank, name) in self.ranked_names.iter().enumerate() {
            out.push_str(&format!("  {:>2}. {}\n", rank + 1, name));
        }
        out.push_str("\n#features | mean delta (s) | gmean delta_norm\n");
        out.push_str("----------|----------------|-----------------\n");
        for p in &self.points {
            out.push_str(&format!(
                "    {:>2}    |    {:>9.1}   |      {:.4}\n",
                p.num_features, p.mean_delta, p.gmean_norm
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_lists_points_and_ranking() {
        let results = AblationResults {
            ranking: vec![0, 1],
            ranked_names: vec!["a".into(), "b".into()],
            points: vec![AblationPoint {
                num_features: 2,
                mean_delta: 12.0,
                gmean_norm: 0.98,
            }],
        };
        let text = results.format();
        assert!(text.contains("FEATURE ABLATION"));
        assert!(text.contains(" 1. a"));
        assert!(text.contains("0.98"));
    }
}
