//! Reusable multi-record extraction state.
//!
//! The detect, training and labeling paths all turn a record into a
//! [`FeatureMatrix`] through a parallel batch extraction engine. A
//! [`FeatureWorkspace`] keeps that flat matrix alive, so a whole cohort of
//! records — an evaluation sweep, a labeling experiment, the self-learning
//! training loop — runs on one matrix allocation, and the rows it holds are
//! the rows the trainer reads. Per-worker extraction state is built per
//! call, not kept here: the paper set, the rich set and the quality grading
//! each build one hop engine per call, and each worker streams its block of
//! windows through a clone of it.

use crate::realtime::QualityVerdict;
use seizure_features::matrix::FeatureMatrix;

/// The feature matrix plus the detect path's prediction, quality and
/// gain-correction buffers, reused across all records a caller processes.
///
/// # Example
///
/// ```no_run
/// use seizure_core::labeler::{LabelerConfig, PosterioriLabeler};
/// use seizure_core::workspace::FeatureWorkspace;
/// use seizure_data::cohort::Cohort;
/// use seizure_data::sampler::SampleConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cohort = Cohort::chb_mit_like(1);
/// let config = SampleConfig::fast_test()?;
/// let labeler = PosterioriLabeler::new(LabelerConfig::default());
/// let mut ws = FeatureWorkspace::new();
/// for seizure in 0..3 {
///     let record = cohort.sample_record(0, seizure, &config, 0)?;
///     let w = cohort.average_seizure_duration(0)?;
///     // Every record reuses the same matrix buffer.
///     let (label, _) = labeler.label(record.signal(), w, &mut ws)?;
///     println!("onset = {:.1} s", label.onset_secs());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FeatureWorkspace {
    pub(crate) matrix: FeatureMatrix,
    /// Per-window class predictions of the last
    /// [`RealTimeDetector::detect_into`](crate::realtime::RealTimeDetector::detect_into)
    /// call routed through this workspace (refilled in place, never
    /// re-grown per record).
    pub(crate) predictions: Vec<bool>,
    /// Per-window quality indicator matrix of the last gated detect or
    /// pipeline quality check (separate from `matrix` so the quality columns
    /// survive the feature extraction that follows them).
    pub(crate) quality: FeatureMatrix,
    /// Per-window quality verdicts aligned with `predictions`.
    pub(crate) verdicts: Vec<QualityVerdict>,
    /// Gain-corrected channel copies produced by the quality gate's slow
    /// AGC; left empty whenever the correction is exactly unity, so the
    /// clean path never copies the signal.
    pub(crate) corrected_f7t3: Vec<f64>,
    /// See `corrected_f7t3`.
    pub(crate) corrected_f8t4: Vec<f64>,
}

impl FeatureWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The workspace's feature matrix as the last operation left it: the
    /// raw features of the last extraction, detect or evaluate call (the
    /// detector classifies raw features, so detecting leaves the rows as
    /// extracted).
    pub fn matrix(&self) -> &FeatureMatrix {
        &self.matrix
    }
}
