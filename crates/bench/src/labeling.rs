//! The labeling-quality experiment behind the paper's headline numbers,
//! Table I (per-patient δ / δ_norm) and Table II (per-seizure δ).
//!
//! Protocol (§VI-A): for every seizure in the cohort, generate several records
//! of random duration containing that seizure, label each record with
//! Algorithm 1 and measure δ / δ_norm against the ground truth. Per seizure,
//! the mean δ and the geometric mean of δ_norm over its samples are kept; per
//! patient, the median across the patient's seizures; overall, the median
//! across all seizures.

use crate::scale::ExperimentScale;
use seizure_core::labeler::{LabelerConfig, PosterioriLabeler};
use seizure_core::metric::{median, DeviationSummary};
use seizure_core::workspace::FeatureWorkspace;
use seizure_core::CoreError;
use seizure_data::cohort::Cohort;

/// Per-seizure result (one row cell of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct SeizureResult {
    /// 1-based patient identifier.
    pub patient_id: usize,
    /// 0-based seizure index within the patient.
    pub seizure_index: usize,
    /// Mean δ in seconds over the seizure's samples.
    pub mean_delta: f64,
    /// Geometric mean of δ_norm over the seizure's samples.
    pub gmean_norm: f64,
}

/// Per-patient result (one column of Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct PatientResult {
    /// 1-based patient identifier.
    pub patient_id: usize,
    /// Median (across the patient's seizures) of the per-seizure mean δ, in
    /// seconds.
    pub median_delta: f64,
    /// Median (across the patient's seizures) of the per-seizure geometric
    /// mean of δ_norm, as a percentage.
    pub median_norm_percent: f64,
}

/// Complete result of the labeling experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelingResults {
    /// Scale the experiment was run at.
    pub scale: ExperimentScale,
    /// Per-seizure results, in cohort order (Table II).
    pub per_seizure: Vec<SeizureResult>,
    /// Per-patient results (Table I).
    pub per_patient: Vec<PatientResult>,
    /// Overall median of the per-seizure mean δ, in seconds (paper: 10.1 s).
    pub overall_median_delta: f64,
    /// Overall median of the per-seizure geometric-mean δ_norm
    /// (paper: 0.9935).
    pub overall_median_norm: f64,
    /// Fraction of seizures whose mean δ is within 15 s (paper: 73.3 %).
    pub fraction_within_15s: f64,
    /// Fraction within 30 s (paper: 86.7 %).
    pub fraction_within_30s: f64,
    /// Fraction within 60 s (paper: 93.3 %).
    pub fraction_within_60s: f64,
}

/// Runs the labeling experiment at the given scale with the default cohort and
/// labeler configuration.
///
/// # Errors
///
/// Propagates data-generation and labeling failures.
pub fn run_labeling_experiment(scale: ExperimentScale) -> Result<LabelingResults, CoreError> {
    run_labeling_experiment_with(scale, 42, &LabelerConfig::default())
}

/// Runs the labeling experiment with an explicit cohort seed and labeler
/// configuration (used by the feature-ablation study).
///
/// # Errors
///
/// Propagates data-generation and labeling failures.
pub fn run_labeling_experiment_with(
    scale: ExperimentScale,
    cohort_seed: u64,
    labeler_config: &LabelerConfig,
) -> Result<LabelingResults, CoreError> {
    let cohort = Cohort::chb_mit_like(cohort_seed);
    let sample_config = scale.sample_config();
    let samples = scale.samples_per_seizure();
    let labeler = PosterioriLabeler::new(*labeler_config);
    // One extraction workspace serves every record of the experiment: the
    // feature matrix buffer is grown once and reused across the whole
    // cohort (each call builds its own per-worker hop engines).
    let mut workspace = FeatureWorkspace::new();

    let mut per_seizure = Vec::with_capacity(cohort.total_seizures());
    for patient_idx in 0..cohort.patients().len() {
        let w = cohort.average_seizure_duration(patient_idx)?;
        for seizure_idx in 0..cohort.seizures_of(patient_idx)?.len() {
            let mut summary = DeviationSummary::new();
            for sample in 0..samples {
                let record = cohort.sample_record(
                    patient_idx,
                    seizure_idx,
                    &sample_config,
                    sample as u64,
                )?;
                let (label, _) = labeler.label(record.signal(), w, &mut workspace)?;
                summary.record(
                    (record.annotation().onset(), record.annotation().offset()),
                    label.as_interval(),
                    record.signal().duration_secs(),
                )?;
            }
            per_seizure.push(SeizureResult {
                patient_id: patient_idx + 1,
                seizure_index: seizure_idx,
                mean_delta: summary.mean_delta().unwrap_or(f64::NAN),
                gmean_norm: summary.geometric_mean_normalized().unwrap_or(f64::NAN),
            });
        }
    }

    let per_patient = (0..cohort.patients().len())
        .map(|patient_idx| {
            let deltas: Vec<f64> = per_seizure
                .iter()
                .filter(|s| s.patient_id == patient_idx + 1)
                .map(|s| s.mean_delta)
                .collect();
            let norms: Vec<f64> = per_seizure
                .iter()
                .filter(|s| s.patient_id == patient_idx + 1)
                .map(|s| s.gmean_norm)
                .collect();
            PatientResult {
                patient_id: patient_idx + 1,
                median_delta: median(&deltas).unwrap_or(f64::NAN),
                median_norm_percent: median(&norms).unwrap_or(f64::NAN) * 100.0,
            }
        })
        .collect();

    let all_deltas: Vec<f64> = per_seizure.iter().map(|s| s.mean_delta).collect();
    let all_norms: Vec<f64> = per_seizure.iter().map(|s| s.gmean_norm).collect();
    let within = |threshold: f64| {
        all_deltas.iter().filter(|&&d| d <= threshold).count() as f64 / all_deltas.len() as f64
    };

    Ok(LabelingResults {
        scale,
        per_patient,
        overall_median_delta: median(&all_deltas).unwrap_or(f64::NAN),
        overall_median_norm: median(&all_norms).unwrap_or(f64::NAN),
        fraction_within_15s: within(15.0),
        fraction_within_30s: within(30.0),
        fraction_within_60s: within(60.0),
        per_seizure,
    })
}

impl LabelingResults {
    /// Formats Table I (per-patient δ in seconds and δ_norm in percent).
    pub fn format_table1(&self) -> String {
        let mut out = String::new();
        out.push_str("TABLE I. CLASSIFICATION PERFORMANCE PER PATIENT\n");
        out.push_str("ID        ");
        for p in &self.per_patient {
            out.push_str(&format!("{:>8}", p.patient_id));
        }
        out.push_str("\ndelta (s) ");
        for p in &self.per_patient {
            out.push_str(&format!("{:>8.1}", p.median_delta));
        }
        out.push_str("\ndnorm (%) ");
        for p in &self.per_patient {
            out.push_str(&format!("{:>8.1}", p.median_norm_percent));
        }
        out.push('\n');
        out
    }

    /// Formats Table II (mean δ in seconds for every seizure).
    pub fn format_table2(&self) -> String {
        let mut out = String::new();
        out.push_str("TABLE II. VALUE OF delta IN SECONDS PER SEIZURE\n");
        out.push_str("Patient | seizure number ->\n");
        for patient in &self.per_patient {
            out.push_str(&format!("   {:>2}   |", patient.patient_id));
            for s in self
                .per_seizure
                .iter()
                .filter(|s| s.patient_id == patient.patient_id)
            {
                out.push_str(&format!(" {:>6.0}", s.mean_delta));
            }
            out.push('\n');
        }
        out
    }

    /// Formats the headline numbers and detection-fraction summary of §VI-A.
    pub fn format_summary(&self) -> String {
        format!(
            "overall median delta = {:.1} s, median delta_norm = {:.4}\n\
             seizures within 15 s: {:.1} %, within 30 s: {:.1} %, within 60 s: {:.1} %\n\
             (paper reference: 10.1 s / 0.9935; 73.3 % / 86.7 % / 93.3 %)\n",
            self.overall_median_delta,
            self.overall_median_norm,
            self.fraction_within_15s * 100.0,
            self.fraction_within_30s * 100.0,
            self.fraction_within_60s * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seizure_core::algorithm::DetectorConfig;
    use seizure_data::sampler::SampleConfig;

    /// A miniature end-to-end run of the experiment machinery: a tiny custom
    /// scale is emulated by running the `with` variant on the quick scale but
    /// asserting only structural properties (the full quick run is exercised
    /// by the `table1` binary and recorded in EXPERIMENTS.md).
    #[test]
    fn experiment_structure_is_complete() {
        // Use a very small ad-hoc protocol: patch the quick scale by running
        // only through the public API but on the smallest preset.
        let results = run_mini().unwrap();
        assert_eq!(results.per_patient.len(), 9);
        assert_eq!(results.per_seizure.len(), 45);
        assert!(results.overall_median_delta.is_finite());
        assert!(results.overall_median_norm > 0.0 && results.overall_median_norm <= 1.0);
        assert!(results.fraction_within_60s >= results.fraction_within_30s);
        assert!(results.fraction_within_30s >= results.fraction_within_15s);

        let t1 = results.format_table1();
        assert!(t1.contains("TABLE I"));
        let t2 = results.format_table2();
        assert!(t2.contains("TABLE II"));
        let summary = results.format_summary();
        assert!(summary.contains("median delta"));
    }

    /// Runs the experiment with one sample per seizure on very short records
    /// so the test completes quickly even in debug builds.
    fn run_mini() -> Result<LabelingResults, CoreError> {
        let cohort = Cohort::chb_mit_like(1);
        let sample_config = SampleConfig::new(180.0, 240.0, 64.0).unwrap();
        let labeler = PosterioriLabeler::new(LabelerConfig {
            detector: DetectorConfig::default(),
            ..LabelerConfig::default()
        });
        let mut per_seizure = Vec::new();
        let mut workspace = FeatureWorkspace::new();
        for patient_idx in 0..cohort.patients().len() {
            let w = cohort.average_seizure_duration(patient_idx)?;
            for seizure_idx in 0..cohort.seizures_of(patient_idx)?.len() {
                let record = cohort.sample_record(patient_idx, seizure_idx, &sample_config, 0)?;
                let (label, _) = labeler.label(record.signal(), w, &mut workspace)?;
                let mut summary = DeviationSummary::new();
                summary.record(
                    (record.annotation().onset(), record.annotation().offset()),
                    label.as_interval(),
                    record.signal().duration_secs(),
                )?;
                per_seizure.push(SeizureResult {
                    patient_id: patient_idx + 1,
                    seizure_index: seizure_idx,
                    mean_delta: summary.mean_delta().unwrap(),
                    gmean_norm: summary.geometric_mean_normalized().unwrap(),
                });
            }
        }
        let per_patient = (0..9)
            .map(|p| {
                let deltas: Vec<f64> = per_seizure
                    .iter()
                    .filter(|s| s.patient_id == p + 1)
                    .map(|s| s.mean_delta)
                    .collect();
                let norms: Vec<f64> = per_seizure
                    .iter()
                    .filter(|s| s.patient_id == p + 1)
                    .map(|s| s.gmean_norm)
                    .collect();
                PatientResult {
                    patient_id: p + 1,
                    median_delta: median(&deltas).unwrap(),
                    median_norm_percent: median(&norms).unwrap() * 100.0,
                }
            })
            .collect();
        let all: Vec<f64> = per_seizure.iter().map(|s| s.mean_delta).collect();
        let norms: Vec<f64> = per_seizure.iter().map(|s| s.gmean_norm).collect();
        let within = |t: f64| all.iter().filter(|&&d| d <= t).count() as f64 / all.len() as f64;
        Ok(LabelingResults {
            scale: ExperimentScale::Quick,
            per_patient,
            overall_median_delta: median(&all).unwrap(),
            overall_median_norm: median(&norms).unwrap(),
            fraction_within_15s: within(15.0),
            fraction_within_30s: within(30.0),
            fraction_within_60s: within(60.0),
            per_seizure,
        })
    }
}
