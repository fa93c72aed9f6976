//! High-level a-posteriori labeler: raw two-channel EEG in, seizure label out.
//!
//! [`PosterioriLabeler`] wires together the paper's processing pipeline for the
//! edge device: feature extraction over 4-second windows with 75 % overlap
//! (§III-A), followed by Algorithm 1 over the resulting feature matrix with the
//! patient's average seizure duration as the window length, and finally the
//! conversion of the detected window index back to a time interval.

use crate::algorithm::{posteriori_detect, Detection, DetectorConfig};
use crate::error::CoreError;
use crate::label::SeizureLabel;
use crate::workspace::FeatureWorkspace;
use seizure_data::signal::EegSignal;
use seizure_features::extractor::{FeatureExtractor, PaperFeatureSet, SlidingWindowConfig};

/// Configuration of the a-posteriori labeler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelerConfig {
    /// Feature-extraction window length in seconds (paper: 4 s).
    pub window_secs: f64,
    /// Feature-extraction window overlap in `[0, 1)` (paper: 0.75).
    pub overlap: f64,
    /// Configuration of Algorithm 1.
    pub detector: DetectorConfig,
}

impl Default for LabelerConfig {
    fn default() -> Self {
        Self {
            window_secs: 4.0,
            overlap: 0.75,
            detector: DetectorConfig::default(),
        }
    }
}

/// The a-posteriori minimally-supervised seizure labeler.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PosterioriLabeler {
    config: LabelerConfig,
}

impl PosterioriLabeler {
    /// Creates a labeler with the given configuration.
    pub fn new(config: LabelerConfig) -> Self {
        Self { config }
    }

    /// The labeler's configuration.
    pub fn config(&self) -> &LabelerConfig {
        &self.config
    }

    /// The labeler's window geometry at `fs`. Its paper features are
    /// streamed hop by hop, so the geometry must pass
    /// [`SlidingWindowConfig::check_streamable`].
    ///
    /// # Errors
    ///
    /// Returns the configuration error of a window length or overlap
    /// [`SlidingWindowConfig::new`] refuses, or of a geometry the rule
    /// refuses.
    pub fn window_config(&self, fs: f64) -> Result<SlidingWindowConfig, CoreError> {
        let window = SlidingWindowConfig::new(fs, self.config.window_secs, self.config.overlap)?;
        window.check_streamable()?;
        Ok(window)
    }

    /// Extracts the paper's ten-feature matrix of `signal` into the
    /// workspace matrix through the parallel batch engine, reusing the
    /// workspace's matrix buffer across records. Each worker streams its
    /// block of windows through a clone of one
    /// [`StreamingPaperExtractor`], hop by hop, so every row is bit-identical
    /// to the row one extractor streams over the whole record, at any thread
    /// count.
    ///
    /// The engine agrees with the textbook per-window `extract_window` to
    /// ~1e-9 relative, not bitwise (its periodogram pair and entropy kernels
    /// sum in other orders), so labels on pathologically near-tie records
    /// may differ from that reference in the last ulps of the score.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures: mismatched channels, a
    /// too-short signal, or a geometry [`PosterioriLabeler::window_config`]
    /// refuses.
    ///
    /// [`StreamingPaperExtractor`]: seizure_features::streaming::StreamingPaperExtractor
    pub fn extract_features_with(
        &self,
        signal: &EegSignal,
        workspace: &mut FeatureWorkspace,
    ) -> Result<(), CoreError> {
        self.extract_paper_rows(signal, workspace)?;
        Ok(())
    }

    /// [`PosterioriLabeler::extract_features_with`], returning the geometry
    /// the rows were extracted at.
    fn extract_paper_rows(
        &self,
        signal: &EegSignal,
        workspace: &mut FeatureWorkspace,
    ) -> Result<SlidingWindowConfig, CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        PaperFeatureSet::new(fs)?.extract_batch_into(
            signal.f7t3(),
            signal.f8t4(),
            &window,
            &mut workspace.matrix,
        )?;
        Ok(window)
    }

    /// Labels the single seizure contained in `signal`, given the patient's
    /// average seizure duration in seconds, and returns both the label and the
    /// raw detection (distance profile). The paper features are extracted
    /// into `workspace` ([`PosterioriLabeler::extract_features_with`]), so a
    /// labeling sweep over many records reuses one set of buffers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the average seizure duration
    /// is not positive, and otherwise propagates feature-extraction failures
    /// and the errors of [`posteriori_detect`].
    pub fn label(
        &self,
        signal: &EegSignal,
        average_seizure_secs: f64,
        workspace: &mut FeatureWorkspace,
    ) -> Result<(SeizureLabel, Detection), CoreError> {
        if average_seizure_secs <= 0.0 || average_seizure_secs.is_nan() {
            return Err(CoreError::InvalidParameter {
                name: "average_seizure_secs",
                reason: format!("must be positive, got {average_seizure_secs}"),
            });
        }
        let window = self.extract_paper_rows(signal, workspace)?;

        // The seizure window length expressed in feature-matrix rows.
        let step_secs = window.step_seconds();
        let w_rows = ((average_seizure_secs / step_secs).round() as usize).max(1);
        let detection = posteriori_detect(workspace.matrix(), w_rows, &self.config.detector)?;

        let onset = window.window_start_seconds(detection.window_index);
        let offset = (onset + w_rows as f64 * step_secs).min(signal.duration_secs());
        let label = SeizureLabel::new(onset, offset)?;
        Ok((label, detection))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::deviation_seconds;
    use seizure_data::cohort::Cohort;
    use seizure_data::sampler::{EegRecord, SampleConfig};

    fn test_record(seed: u64) -> (EegRecord, f64) {
        let cohort = Cohort::chb_mit_like(9);
        let config = SampleConfig::new(200.0, 260.0, 64.0).unwrap();
        let record = cohort.sample_record(7, 0, &config, seed).unwrap(); // patient 8: clean
        let w = cohort.average_seizure_duration(7).unwrap();
        (record, w)
    }

    #[test]
    fn labels_a_clean_record_close_to_the_ground_truth() {
        let (record, w) = test_record(1);
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let (label, _) = labeler
            .label(record.signal(), w, &mut FeatureWorkspace::new())
            .unwrap();
        let delta = deviation_seconds(
            (record.annotation().onset(), record.annotation().offset()),
            label.as_interval(),
        )
        .unwrap();
        // The synthetic clean patient should be labeled within half a minute.
        assert!(delta < 30.0, "delta = {delta}");
    }

    #[test]
    fn detection_exposes_distance_profile() {
        let (record, w) = test_record(2);
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let (label, detection) = labeler
            .label(record.signal(), w, &mut FeatureWorkspace::new())
            .unwrap();
        assert!(!detection.distances.is_empty());
        assert!(detection.peak_distance() > 0.0);
        assert!(label.duration_secs() > 0.0);
        assert!(label.offset_secs() <= record.signal().duration_secs() + 1e-9);
    }

    #[test]
    fn invalid_average_duration_is_rejected() {
        let (record, _) = test_record(3);
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let mut ws = FeatureWorkspace::new();
        for w in [0.0, -5.0, f64::NAN] {
            assert!(labeler.label(record.signal(), w, &mut ws).is_err());
        }
    }

    #[test]
    fn too_short_signal_is_rejected() {
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let signal = EegSignal::new(vec![0.0; 64], vec![0.0; 64], 64.0).unwrap();
        assert!(labeler
            .label(&signal, 30.0, &mut FeatureWorkspace::new())
            .is_err());
    }

    #[test]
    fn extract_features_produces_ten_columns() {
        let (record, _) = test_record(4);
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let mut ws = FeatureWorkspace::new();
        labeler
            .extract_features_with(record.signal(), &mut ws)
            .unwrap();
        assert_eq!(ws.matrix().num_features(), 10);
        assert!(ws.matrix().num_windows() > 100);
    }

    #[test]
    fn custom_config_is_respected() {
        let config = LabelerConfig {
            window_secs: 2.0,
            overlap: 0.5,
            ..LabelerConfig::default()
        };
        let labeler = PosterioriLabeler::new(config);
        assert_eq!(labeler.config().window_secs, 2.0);
        let (record, w) = test_record(5);
        let (label, _) = labeler
            .label(record.signal(), w, &mut FeatureWorkspace::new())
            .unwrap();
        assert!(label.duration_secs() > 0.0);
    }
}
