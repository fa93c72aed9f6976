//! Unsupervised baseline (study E10 of `golden/README.md`).
//!
//! The paper's related work (§II) cites k-means and k-medoids clustering as the
//! best-performing unsupervised seizure detectors but notes that "their
//! classification performance is significantly lower than in the supervised
//! case". This study quantifies that gap on the synthetic cohort: per-window
//! features are clustered into two groups (the minority cluster is declared
//! "seizure") and the resulting sensitivity/specificity/geometric mean is
//! compared against the supervised random forest trained on expert labels.

use crate::clustering::Clusters;
use crate::scale::ExperimentScale;
use seizure_core::label::SeizureLabel;
use seizure_core::realtime::{balanced_indices, RealTimeDetector, RealTimeDetectorConfig};
use seizure_core::workspace::FeatureWorkspace;
use seizure_core::CoreError;
use seizure_data::cohort::Cohort;
use seizure_ml::metrics::ConfusionMatrix;

/// Performance of one detector family in the baseline study.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Detector name.
    pub name: String,
    /// Pooled sensitivity over the evaluation records.
    pub sensitivity: f64,
    /// Pooled specificity.
    pub specificity: f64,
    /// Geometric mean of sensitivity and specificity.
    pub geometric_mean: f64,
}

/// Result of the unsupervised-baseline study.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResults {
    /// One entry per detector (k-means, k-medoids, supervised random forest).
    pub entries: Vec<BaselineEntry>,
}

fn minority_cluster(assignments: &[usize]) -> usize {
    let ones = assignments.iter().filter(|&&a| a == 1).count();
    if 2 * ones <= assignments.len() {
        1
    } else {
        0
    }
}

/// Runs the unsupervised-baseline comparison at the given scale.
///
/// # Errors
///
/// Propagates data-generation, feature-extraction, clustering and training
/// failures.
pub fn run_unsupervised_baseline(scale: ExperimentScale) -> Result<BaselineResults, CoreError> {
    let cohort = Cohort::chb_mit_like(42);
    let sample_config = scale.sample_config();
    let detector_config = RealTimeDetectorConfig::default();
    let patients = [0usize, 7]; // patients 1 and 8
    let mut workspace = FeatureWorkspace::new();

    let mut kmeans_cm = ConfusionMatrix::default();
    let mut kmedoids_cm = ConfusionMatrix::default();
    let mut forest_cm = ConfusionMatrix::default();

    for &patient in &patients {
        let num_seizures = cohort.seizures_of(patient)?.len();
        let train_count = 2.min(num_seizures - 1);

        // Supervised reference: train on expert labels of the first records.
        // Each record's balanced rows are appended in selection order, the
        // order `train` spreads the classes from, so the forest is pinned.
        let mut detector = RealTimeDetector::new(detector_config);
        let (mut rows, mut labels) = (Vec::new(), Vec::new());
        for seizure in 0..train_count {
            let record = cohort.sample_record(patient, seizure, &sample_config, seizure as u64)?;
            let truth =
                SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
            let windows =
                detector.build_training_windows_with(record.signal(), &truth, &mut workspace)?;
            for w in balanced_indices(&windows)? {
                rows.extend_from_slice(workspace.matrix().row(w));
                labels.push(windows[w]);
            }
        }
        detector.train(&rows, workspace.matrix().num_features(), &labels)?;
        let forest = detector
            .flat_forest()
            .expect("a successful `train` leaves a fitted forest");

        // Evaluation records: the held-out seizures. All three detectors see
        // the rich features of every window and score against its truth.
        for seizure in train_count..num_seizures {
            let record =
                cohort.sample_record(patient, seizure, &sample_config, 500 + seizure as u64)?;
            let truth_label =
                SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
            let truth = detector.build_training_windows_with(
                record.signal(),
                &truth_label,
                &mut workspace,
            )?;
            let matrix = workspace.matrix();

            // Normalize rows per feature for the clustering baselines.
            let normalized = normalize_rows(&matrix.to_rows());

            let assignments = Clusters::kmeans(&normalized, 7)?.predict_batch(&normalized);
            let seizure_cluster = minority_cluster(&assignments);
            let predictions: Vec<bool> =
                assignments.iter().map(|&a| a == seizure_cluster).collect();
            kmeans_cm.merge(&ConfusionMatrix::from_predictions(&predictions, &truth)?);

            let assignments = Clusters::kmedoids(&normalized, 7)?.predict_batch(&normalized);
            let seizure_cluster = minority_cluster(&assignments);
            let predictions: Vec<bool> =
                assignments.iter().map(|&a| a == seizure_cluster).collect();
            kmedoids_cm.merge(&ConfusionMatrix::from_predictions(&predictions, &truth)?);

            let predictions = forest.predict_batch(matrix.data(), matrix.num_features())?;
            forest_cm.merge(&ConfusionMatrix::from_predictions(&predictions, &truth)?);
        }
    }

    let entry = |name: &str, cm: &ConfusionMatrix| BaselineEntry {
        name: name.to_string(),
        sensitivity: cm.sensitivity(),
        specificity: cm.specificity(),
        geometric_mean: cm.geometric_mean(),
    };
    Ok(BaselineResults {
        entries: vec![
            entry("k-means (unsupervised)", &kmeans_cm),
            entry("k-medoids (unsupervised)", &kmedoids_cm),
            entry("random forest (supervised, expert labels)", &forest_cm),
        ],
    })
}

fn normalize_rows(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    if rows.is_empty() {
        return Vec::new();
    }
    let f = rows[0].len();
    let n = rows.len() as f64;
    let mut means = vec![0.0; f];
    for row in rows {
        for (m, x) in means.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut stds = vec![0.0; f];
    for row in rows {
        for ((s, x), m) in stds.iter_mut().zip(row).zip(&means) {
            *s += (x - m) * (x - m);
        }
    }
    for s in &mut stds {
        *s = (*s / n).sqrt();
    }
    rows.iter()
        .map(|row| {
            row.iter()
                .zip(means.iter().zip(stds.iter()))
                .map(|(x, (m, s))| if *s > 0.0 { (x - m) / s } else { x - m })
                .collect()
        })
        .collect()
}

impl BaselineResults {
    /// Formats the baseline comparison table.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("UNSUPERVISED BASELINE (E10): clustering vs supervised random forest\n");
        out.push_str("detector                                   | sens    | spec    | gmean\n");
        out.push_str("-------------------------------------------|---------|---------|-------\n");
        for e in &self.entries {
            out.push_str(&format!(
                "{:<43}| {:6.3}  | {:6.3}  | {:6.3}\n",
                e.name, e.sensitivity, e.specificity, e.geometric_mean
            ));
        }
        out.push_str(
            "\n(the paper's related work reports that unsupervised clustering performs \
             significantly below the supervised detectors)\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minority_cluster_selection() {
        assert_eq!(minority_cluster(&[0, 0, 0, 1]), 1);
        assert_eq!(minority_cluster(&[1, 1, 1, 0]), 0);
        assert_eq!(minority_cluster(&[0, 1]), 1);
    }

    #[test]
    fn normalize_rows_zero_mean() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]];
        let normalized = normalize_rows(&rows);
        for c in 0..2 {
            let mean: f64 = normalized.iter().map(|r| r[c]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
        }
        assert!(normalize_rows(&[]).is_empty());
    }

    #[test]
    fn formatting_contains_all_entries() {
        let results = BaselineResults {
            entries: vec![BaselineEntry {
                name: "k-means".into(),
                sensitivity: 0.6,
                specificity: 0.7,
                geometric_mean: 0.65,
            }],
        };
        assert!(results.format().contains("k-means"));
        assert!(results.format().contains("0.650"));
    }
}
