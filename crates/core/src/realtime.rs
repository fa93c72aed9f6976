//! Supervised real-time seizure detector.
//!
//! The paper's real-time stage is the random-forest detector of Sopic et al.
//! (e-Glass): a rich feature vector is extracted from each 4-second window of
//! the two-channel EEG and classified as seizure / non-seizure. In the
//! self-learning methodology this detector is trained with the labels produced
//! by the a-posteriori algorithm instead of expert annotations.

use crate::error::CoreError;
use crate::label::{window_labels, SeizureLabel};
use crate::workspace::FeatureWorkspace;
use seizure_data::signal::EegSignal;
use seizure_features::extractor::{FeatureExtractor, RichFeatureSet, SlidingWindowConfig};
use seizure_features::matrix::FeatureMatrix;
use seizure_features::quality::{
    self, QualityExtractor, QualityGrader, IDX_DISAGREEMENT, IDX_DRIFT_RATIO, IDX_FLAT_RUN_FRAC,
    IDX_HUM_RATIO, IDX_LOG_STD, IDX_MAX_JUMP_SIGMA, IDX_RAILED_FRAC, NUM_QUALITY_FEATURES,
};
use seizure_features::streaming::StreamingRichExtractor;
use seizure_ml::flat::FlatForest;
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
use seizure_ml::metrics::ConfusionMatrix;
use seizure_ml::persist::journal::{self, JournalEntry};
use seizure_ml::persist::{self, PersistError, SnapshotKind, SnapshotReader, SnapshotWriter};
use seizure_ml::MlError;

/// Snapshot marker: the detector has never been trained.
const MODEL_UNTRAINED: u8 = 0;
/// Snapshot marker: trained model (raw features, incremental trainer
/// stored, forest re-stitched on load). Marker `1` belonged to a retired
/// standardized batch model and now loads as corrupted.
const MODEL_INCREMENTAL: u8 = 2;

/// Configuration of the real-time detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealTimeDetectorConfig {
    /// Analysis window length in seconds (paper: 4 s).
    pub window_secs: f64,
    /// Window overlap in `[0, 1)` (paper: 0.75).
    pub overlap: f64,
    /// Random-forest hyper-parameters.
    pub forest: RandomForestConfig,
    /// Seed controlling the forest's bootstrap sampling.
    pub seed: u64,
    /// Ownership-block size of the incremental retraining engine (see
    /// [`IncrementalTrainerConfig::block_size`]).
    pub incremental_block_size: usize,
    /// Runs the signal-quality gate ahead of the forest: per-window
    /// [`QualityVerdict`]s with hysteresis, alarm suppression on `Reject`
    /// windows and (once calibrated) slow gain correction. Disable to get
    /// the raw fail-open detector the robustness bench uses as its
    /// before-gating baseline.
    pub quality_gate: bool,
}

impl Default for RealTimeDetectorConfig {
    fn default() -> Self {
        Self {
            window_secs: 4.0,
            overlap: 0.75,
            forest: RandomForestConfig {
                n_trees: 30,
                max_depth: 8,
                ..RandomForestConfig::default()
            },
            seed: 0,
            incremental_block_size: IncrementalTrainerConfig::default().block_size,
            quality_gate: true,
        }
    }
}

/// Per-window verdict of the signal-quality gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QualityVerdict {
    /// The window looks like physiological EEG; classify normally.
    Clean,
    /// Mildly degraded: classified, but flagged (and held in `Reject` by the
    /// hysteresis if the previous window was rejected).
    Suspect,
    /// Artifact-dominated: the forest's alarm is suppressed and the window
    /// is barred from the self-learning pool.
    Reject,
}

/// Reject / hold / release thresholds of the quality gate's Schmitt
/// trigger, per indicator. One set of constants (not per-detector state)
/// so the persisted gate stays a fixed-size block.
mod gate_thresholds {
    /// Railed-sample fraction (clean windows sit at ~2/n ≈ 0.008).
    pub const RAILED: (f64, f64) = (0.05, 0.02);
    /// Longest flat-run fraction (dropouts hold one value for the window).
    pub const FLAT: (f64, f64) = (0.25, 0.10);
    /// Aliased mains-hum tone ratio.
    pub const HUM: (f64, f64) = (0.22, 0.10);
    /// Sub-1 Hz + DC share of window energy (baseline wander). Measured on
    /// the synthetic cohort at 64 Hz: clean windows top out at ~0.89 while
    /// wander pushes the median past 0.98, so the trigger sits between.
    pub const DRIFT: (f64, f64) = (0.93, 0.87);
    /// Largest sample step in robust sigmas (electrode pops). Clean windows
    /// (seizures included) stay under ~20; pops land at 40–80.
    pub const JUMP: (f64, f64) = (25.0, 12.0);
    /// Cross-channel log-amplitude disagreement.
    pub const DISAGREE: (f64, f64) = (2.6, 1.9);
}

/// Log-gain deviation (vs the calibrated reference) below which the slow
/// gain correction stays exactly unity, so clean records run bit-identical
/// to an ungated detector.
const AGC_DEADBAND: f64 = 0.45;
/// Clamp of the per-sample gain correction factor.
const AGC_MAX_CORRECTION: f64 = 4.0;
/// Minimum number of non-rejected windows before a gain fit is attempted.
const AGC_MIN_WINDOWS: usize = 8;

/// Calibrated state of the signal-quality gate: the per-channel reference
/// log-amplitude the slow gain correction pulls hostile records back
/// towards. Verdict thresholds are compile-time constants; only this
/// reference is learned (from `Clean` non-seizure windows of training
/// records) and persisted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualityGate {
    ref_log_std: [f64; 2],
    ref_weight: f64,
}

impl QualityGate {
    /// `true` once at least one clean window has calibrated the reference.
    pub fn is_calibrated(&self) -> bool {
        self.ref_weight > 0.0
    }

    /// The calibrated per-channel reference log standard deviation
    /// (F7T3, F8T4); meaningless until [`QualityGate::is_calibrated`].
    pub fn reference_log_std(&self) -> [f64; 2] {
        self.ref_log_std
    }

    /// Number of clean windows folded into the reference so far.
    pub fn calibration_weight(&self) -> f64 {
        self.ref_weight
    }

    /// Folds one clean non-seizure window's per-channel log-std into the
    /// running reference mean.
    fn calibrate(&mut self, log_std_a: f64, log_std_b: f64) {
        let w = self.ref_weight;
        self.ref_log_std[0] = (self.ref_log_std[0] * w + log_std_a) / (w + 1.0);
        self.ref_log_std[1] = (self.ref_log_std[1] * w + log_std_b) / (w + 1.0);
        self.ref_weight = w + 1.0;
    }

    /// Severity of one quality row against the constant thresholds:
    /// 2 = beyond a reject threshold, 1 = beyond a hold/suspect threshold,
    /// 0 = clean. Per-channel indicators trip on their worst channel. The
    /// gate fails closed: any non-finite indicator (overflowed arithmetic
    /// on samples whose squares exceed `f64`) counts as beyond its reject
    /// threshold, because a NaN compares false against every threshold.
    fn raw_level(row: &[f64]) -> u8 {
        if row.iter().any(|v| !v.is_finite()) {
            return 2;
        }
        let per_channel = [
            (IDX_RAILED_FRAC, gate_thresholds::RAILED),
            (IDX_FLAT_RUN_FRAC, gate_thresholds::FLAT),
            (IDX_HUM_RATIO, gate_thresholds::HUM),
            (IDX_DRIFT_RATIO, gate_thresholds::DRIFT),
            (IDX_MAX_JUMP_SIGMA, gate_thresholds::JUMP),
        ];
        let mut level = 0u8;
        for (idx, (reject, suspect)) in per_channel {
            for channel in 0..2 {
                let v = row[quality::channel_column(channel, idx)];
                if v >= reject {
                    return 2;
                }
                if v >= suspect {
                    level = 1;
                }
            }
        }
        let disagree = row[IDX_DISAGREEMENT];
        if disagree >= gate_thresholds::DISAGREE.0 {
            return 2;
        }
        if disagree >= gate_thresholds::DISAGREE.1 {
            level = 1;
        }
        level
    }

    /// Turns the per-window quality rows into verdicts with hysteresis
    /// (Schmitt trigger over the window sequence):
    ///
    /// * beyond a reject threshold → `Reject`;
    /// * beyond a suspect threshold → `Suspect`, or `Reject` if the
    ///   previous window was rejected (the gate holds until the signal is
    ///   fully clean);
    /// * clean → `Clean`, or `Suspect` for one cool-down window right
    ///   after a rejection.
    pub fn verdicts_into(quality: &FeatureMatrix, out: &mut Vec<QualityVerdict>) {
        out.clear();
        out.reserve(quality.num_windows());
        let mut prev = QualityVerdict::Clean;
        for row in quality.rows() {
            let verdict = Self::next_verdict(Self::raw_level(row), prev);
            out.push(verdict);
            prev = verdict;
        }
    }

    /// One step of the gate's Schmitt trigger: the verdict of a window with
    /// severity `level` (see [`QualityGate::raw_level`]) given the previous
    /// window's verdict — shared by the record-level `verdicts_into` sweep
    /// and the sample-at-a-time [`StreamingDetector`].
    fn next_verdict(level: u8, prev: QualityVerdict) -> QualityVerdict {
        match (level, prev) {
            (2, _) => QualityVerdict::Reject,
            (1, QualityVerdict::Reject) => QualityVerdict::Reject,
            (1, _) => QualityVerdict::Suspect,
            (_, QualityVerdict::Reject) => QualityVerdict::Suspect,
            _ => QualityVerdict::Clean,
        }
    }
}

/// The random-forest real-time seizure detector.
///
/// The detector runs one model kind, the one the wearable runs: a flat
/// forest fitted on raw (unstandardized) rich features by an
/// [`IncrementalTrainer`] that keeps the training pool, so every later
/// [`RealTimeDetector::retrain_incremental`] extends it. It has one durable
/// form, [`RealTimeDetector::save_state`]; on the device it is persisted as
/// part of the [`SelfLearningPipeline`](crate::pipeline::SelfLearningPipeline),
/// whose delta journal and A/B Flash store carry it across power cycles.
///
/// # Example
///
/// ```no_run
/// use seizure_core::realtime::{balanced_indices, RealTimeDetector, RealTimeDetectorConfig};
/// use seizure_core::workspace::FeatureWorkspace;
/// use seizure_core::SeizureLabel;
/// use seizure_data::cohort::Cohort;
/// use seizure_data::sampler::SampleConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cohort = Cohort::chb_mit_like(1);
/// let config = SampleConfig::fast_test()?;
/// let record = cohort.sample_record(0, 0, &config, 0)?;
///
/// let mut detector = RealTimeDetector::new(RealTimeDetectorConfig::default());
/// let expert_label = SeizureLabel::new(
///     record.annotation().onset(),
///     record.annotation().offset(),
/// )?;
/// // Every window's rich row lands in the workspace matrix; train on the
/// // balanced selection of them, as flat rows.
/// let mut ws = FeatureWorkspace::new();
/// let labels = detector.build_training_windows_with(record.signal(), &expert_label, &mut ws)?;
/// let (mut rows, mut batch) = (Vec::new(), Vec::new());
/// for w in balanced_indices(&labels)? {
///     rows.extend_from_slice(ws.matrix().row(w));
///     batch.push(labels[w]);
/// }
/// detector.train(&rows, ws.matrix().num_features(), &batch)?;
/// let alarms = detector.detect(record.signal())?;
/// assert_eq!(alarms.len(), labels.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RealTimeDetector {
    config: RealTimeDetectorConfig,
    /// The fitted forest in flat struct-of-arrays storage, as the trainer
    /// emitted it.
    flat: Option<FlatForest>,
    /// The growable retraining engine that fitted `flat` and holds its
    /// training pool; `None` until the first `train` or retrain.
    incremental: Option<IncrementalTrainer>,
    /// Calibrated signal-quality gate state (always present; only consulted
    /// when [`RealTimeDetectorConfig::quality_gate`] is on).
    gate: QualityGate,
}

impl RealTimeDetector {
    /// Creates an untrained detector.
    pub fn new(config: RealTimeDetectorConfig) -> Self {
        Self {
            config,
            flat: None,
            incremental: None,
            gate: QualityGate::default(),
        }
    }

    /// The signal-quality gate's calibrated state.
    pub fn quality_gate(&self) -> &QualityGate {
        &self.gate
    }

    /// Overwrites the gate's calibrated amplitude reference — used by the
    /// pipeline's journal replay, where each entry carries the reference as
    /// it stood after that record was learned.
    pub(crate) fn restore_gate_reference(&mut self, ref_log_std: [f64; 2], ref_weight: f64) {
        self.gate = QualityGate {
            ref_log_std,
            ref_weight,
        };
    }

    /// The detector's configuration.
    pub fn config(&self) -> &RealTimeDetectorConfig {
        &self.config
    }

    /// Returns `true` once [`RealTimeDetector::train`] or
    /// [`RealTimeDetector::retrain_incremental`] has succeeded.
    pub fn is_trained(&self) -> bool {
        self.flat.is_some()
    }

    /// The detector's window geometry at `fs`. Its rich features are
    /// streamed, so the geometry must pass
    /// [`SlidingWindowConfig::check_streamable`]. Any other is refused here,
    /// before a window is graded or extracted, so every entry point
    /// (training, detection, quality grading, the streaming front end and
    /// the pipeline's quarantine check) fails alike, and an absurd rate
    /// (`1e15` Hz) is a typed error, not an allocation failure.
    fn window_config(&self, fs: f64) -> Result<SlidingWindowConfig, CoreError> {
        let window = SlidingWindowConfig::new(fs, self.config.window_secs, self.config.overlap)?;
        window.check_streamable()?;
        Ok(window)
    }

    /// Extracts the rich (54-feature) matrix of every window of `signal`
    /// into the workspace matrix and returns the per-window labels under
    /// `label` (which may come from the a-posteriori algorithm or from an
    /// expert), leaving the rows in `workspace.matrix()`. The rows are
    /// streamed in parallel blocks through the same [`StreamingRichExtractor`]
    /// the streaming detector runs (see [`RichFeatureSet`]), so they equal
    /// the rows detection computes bit for bit. A caller trains on them by
    /// picking its rows with [`balanced_indices`] and handing them to
    /// [`RealTimeDetector::train`] flat.
    ///
    /// This is the **full-record path**: it extracts every window of the
    /// record. The self-learning pipeline does not call it; it picks its
    /// balanced batch from the labels and quality verdicts first and
    /// extracts only those windows, each row bit-identical to the matching
    /// row here.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures, including
    /// [`SlidingWindowConfig::check_streamable`]'s error for a window
    /// geometry the engines cannot stream.
    pub fn build_training_windows_with(
        &self,
        signal: &EegSignal,
        label: &SeizureLabel,
        workspace: &mut FeatureWorkspace,
    ) -> Result<Vec<bool>, CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        RichFeatureSet::new(fs)?.extract_batch_into(
            signal.f7t3(),
            signal.f8t4(),
            &window,
            &mut workspace.matrix,
        )?;
        self.training_labels(signal, label)
    }

    /// Per-window training labels of `signal` under `label`, from the window
    /// geometry alone: no feature is extracted.
    pub(crate) fn training_labels(
        &self,
        signal: &EegSignal,
        label: &SeizureLabel,
    ) -> Result<Vec<bool>, CoreError> {
        let window = self.window_config(signal.sampling_frequency())?;
        window_labels(
            label,
            window.num_windows(signal.len()),
            window.window_seconds(),
            window.step_seconds(),
        )
    }

    /// Refills the workspace matrix with the rich features of the selected
    /// windows only, row `j` holding window `windows[j]` (see
    /// [`RichFeatureSet::extract_windows_into`]).
    pub(crate) fn extract_windows_with(
        &self,
        signal: &EegSignal,
        windows: &[usize],
        workspace: &mut FeatureWorkspace,
    ) -> Result<(), CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        RichFeatureSet::new(fs)?.extract_windows_into(
            signal.f7t3(),
            signal.f8t4(),
            &window,
            windows,
            &mut workspace.matrix,
        )?;
        Ok(())
    }

    /// Trains the random forest from scratch on labeled windows (flat
    /// row-major, `labels.len() * num_features` values, as
    /// [`RealTimeDetector::retrain_incremental`] takes them): a fresh
    /// [`IncrementalTrainer`] takes the raw rows as its first batch and
    /// replaces the current model and pool only on success. A later
    /// `retrain_incremental` extends this pool; a later `train` starts over.
    ///
    /// The trainer gives each tree its own ownership blocks of consecutive
    /// rows, so the rows are first reordered by `spread_classes`, the same
    /// proportional class merge the pipeline stages its batches with. In
    /// caller order, a time-ordered record or a positives-first
    /// [`balanced_indices`] selection would fill whole blocks with one
    /// class, and the trees owning only seizure-free blocks would outvote
    /// the rest. The fit is therefore a fresh detector's first
    /// [`RealTimeDetector::retrain_incremental`] of the spread rows. Each
    /// tree still sees only its own blocks' share of the seizure windows, so
    /// on a whole record, which is a few percent seizure, a balanced
    /// selection (what the paper and the pipeline train on) fits a stronger
    /// forest.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`], leaving the detector as it was, if the
    /// rows are malformed (no rows, no features, or a buffer that is not
    /// `labels.len() * num_features` values long) or the forest cannot be
    /// fitted: a single-class batch longer than
    /// [`RealTimeDetectorConfig::incremental_block_size`] (every ownership
    /// block it fills would hold one label only).
    pub fn train(
        &mut self,
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
    ) -> Result<(), CoreError> {
        if num_features == 0
            || labels.is_empty()
            || labels.len().checked_mul(num_features) != Some(rows.len())
        {
            return Err(MlError::InvalidDataset {
                detail: format!(
                    "training rows must hold labels x features values, with at least one of \
                     each: got {} values for {} labels x {num_features} features",
                    rows.len(),
                    labels.len()
                ),
            }
            .into());
        }
        let order = spread_classes(&(0..labels.len()).collect::<Vec<_>>(), labels);
        let mut spread_rows = Vec::with_capacity(rows.len());
        for &i in &order {
            spread_rows.extend_from_slice(&rows[i * num_features..(i + 1) * num_features]);
        }
        let spread: Vec<bool> = order.iter().map(|&i| labels[i]).collect();
        let mut trainer = fresh_trainer(&self.config);
        self.flat = Some(trainer.retrain(&spread_rows, num_features, &spread)?);
        self.incremental = Some(trainer);
        Ok(())
    }

    /// Adds new labeled windows (flat row-major, `labels.len() *
    /// num_features` values) to the detector's growing training pool and
    /// retrains through the [`IncrementalTrainer`]: the pool append merges
    /// the batch into the presorted runs, and only the trees whose
    /// bootstrap pools were touched by the growth are refitted, so a missed
    /// seizure does not refit the whole forest. An untrained detector
    /// starts a fresh pool; a [`RealTimeDetector::train`]ed one extends the
    /// pool `train` fitted.
    ///
    /// Features stay **raw** (no standardization): forests split on
    /// per-feature thresholds, so an affine per-column scaling changes no
    /// decision boundary, and skipping it keeps every grown state identical
    /// to a from-scratch incremental fit of the final pool regardless of
    /// when which rows arrived.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] if the matrix is malformed, its feature
    /// count drifts between calls, or the forest cannot be fitted.
    pub fn retrain_incremental(
        &mut self,
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
    ) -> Result<(), CoreError> {
        let trainer = self
            .incremental
            .get_or_insert_with(|| fresh_trainer(&self.config));
        self.flat = Some(trainer.retrain(rows, num_features, labels)?);
        Ok(())
    }

    /// The incremental retraining engine, once the detector is trained.
    pub fn incremental_trainer(&self) -> Option<&IncrementalTrainer> {
        self.incremental.as_ref()
    }

    /// The flat-compiled forest the inference paths run on, once trained.
    pub fn flat_forest(&self) -> Option<&FlatForest> {
        self.flat.as_ref()
    }

    /// Classifies every analysis window of `signal` (true = seizure alarm):
    /// [`RealTimeDetector::detect_into`] on a fresh workspace, with the
    /// predictions copied out.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RealTimeDetector::detect_into`].
    pub fn detect(&self, signal: &EegSignal) -> Result<Vec<bool>, CoreError> {
        let mut ws = FeatureWorkspace::new();
        Ok(self.detect_into(signal, &mut ws)?.0.to_vec())
    }

    /// Classifies every analysis window of `signal` and returns
    /// `(predictions, verdicts)` borrowed from the workspace, one entry per
    /// window (true = seizure alarm). With the quality gate enabled, every
    /// `Reject` window's prediction is forced to `false`; with it disabled
    /// all verdicts read `Clean`. The quality and feature matrices, the
    /// predictions and the verdicts live in the workspace and are refilled
    /// in place, growing only when a record first outgrows them. Each call
    /// still builds one quality grader and one streaming rich extractor per
    /// worker, a fixed handful of allocations per record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] if the detector has not been trained
    /// and propagates feature-extraction failures, including
    /// [`SlidingWindowConfig::check_streamable`]'s error for a window
    /// geometry the engines cannot stream.
    // lint: hot-path
    pub fn detect_into<'w>(
        &self,
        signal: &EegSignal,
        workspace: &'w mut FeatureWorkspace,
    ) -> Result<(&'w [bool], &'w [QualityVerdict]), CoreError> {
        let forest = self.require_flat()?;
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        if self.config.quality_gate {
            self.assess_quality_into(signal, workspace)?;
            self.apply_gain_correction(signal, &window, workspace);
        } else {
            workspace.verdicts.clear();
            workspace.corrected_f7t3.clear();
            workspace.corrected_f8t4.clear();
        }
        let extractor = RichFeatureSet::new(fs)?;
        let FeatureWorkspace {
            matrix,
            predictions,
            verdicts,
            corrected_f7t3,
            corrected_f8t4,
            ..
        } = workspace;
        let (f7t3, f8t4) = if corrected_f7t3.is_empty() {
            (signal.f7t3(), signal.f8t4())
        } else {
            (&corrected_f7t3[..], &corrected_f8t4[..])
        };
        extractor.extract_batch_into(f7t3, f8t4, &window, matrix)?;
        forest.predict_batch_into(matrix.data(), matrix.num_features(), predictions)?;
        if self.config.quality_gate {
            // Fail closed: an artifact-dominated window never raises an alarm.
            for (p, v) in predictions.iter_mut().zip(verdicts.iter()) {
                if *v == QualityVerdict::Reject {
                    *p = false;
                }
            }
        } else {
            // Keep the verdicts aligned with the predictions on ungated
            // detectors too.
            verdicts.clear();
            verdicts.resize(predictions.len(), QualityVerdict::Clean);
        }
        Ok((predictions, verdicts))
    }

    /// Fills the workspace's quality matrix and verdict buffer for `signal`
    /// without touching the model: the per-window indicators of
    /// [`seizure_features::quality`] plus the gate's hysteresis verdicts.
    ///
    /// # Errors
    ///
    /// Propagates window-configuration and extraction failures.
    pub(crate) fn assess_quality_into(
        &self,
        signal: &EegSignal,
        workspace: &mut FeatureWorkspace,
    ) -> Result<(), CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        let extractor = QualityExtractor::new(fs)?;
        extractor.extract_batch_into(
            signal.f7t3(),
            signal.f8t4(),
            &window,
            &mut workspace.quality,
        )?;
        QualityGate::verdicts_into(&workspace.quality, &mut workspace.verdicts);
        Ok(())
    }

    /// Slow automatic gain correction: fits a robust (Theil–Sen) line to
    /// each channel's per-window log-std over the non-rejected windows and,
    /// when the fitted log-gain leaves the calibrated reference by more
    /// than [`AGC_DEADBAND`] anywhere in the record, rescales a copy of the
    /// channel towards the reference envelope before feature extraction.
    /// Inside the deadband the buffers stay empty and the detector is
    /// bit-identical to an ungated one — clean records never pay for the
    /// correction.
    fn apply_gain_correction(
        &self,
        signal: &EegSignal,
        window: &SlidingWindowConfig,
        workspace: &mut FeatureWorkspace,
    ) {
        workspace.corrected_f7t3.clear();
        workspace.corrected_f8t4.clear();
        if !self.gate.is_calibrated() {
            return;
        }
        let mut fits = [None, None];
        for (channel, fit) in fits.iter_mut().enumerate() {
            let column = quality::channel_column(channel, IDX_LOG_STD);
            let series: Vec<(f64, f64)> = workspace
                .verdicts
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != QualityVerdict::Reject)
                .map(|(w, _)| (w as f64, workspace.quality.get(w, column)))
                .collect();
            if series.len() < AGC_MIN_WINDOWS {
                continue;
            }
            let (slope, intercept) = theil_sen(&series);
            // Deviation of the fitted envelope from the reference across
            // the whole record; inside the deadband nothing happens.
            let last = (workspace.verdicts.len() - 1) as f64;
            let dev0 = intercept - self.gate.ref_log_std[channel];
            let dev1 = slope * last + intercept - self.gate.ref_log_std[channel];
            if dev0.abs() <= AGC_DEADBAND && dev1.abs() <= AGC_DEADBAND {
                continue;
            }
            *fit = Some((slope, intercept - self.gate.ref_log_std[channel]));
        }
        if fits.iter().all(Option::is_none) {
            return;
        }
        let half_window = window.window_samples() as f64 / 2.0;
        let step = window.step_samples() as f64;
        let limit = (workspace.verdicts.len().max(1) - 1) as f64;
        for (channel, raw) in [signal.f7t3(), signal.f8t4()].into_iter().enumerate() {
            let out = if channel == 0 {
                &mut workspace.corrected_f7t3
            } else {
                &mut workspace.corrected_f8t4
            };
            out.reserve(raw.len());
            match fits[channel] {
                None => out.extend_from_slice(raw),
                Some((slope, offset)) => {
                    for (s, &x) in raw.iter().enumerate() {
                        // Continuous window coordinate of this sample,
                        // clamped to the fitted range.
                        let w = ((s as f64 - half_window) / step).clamp(0.0, limit);
                        let correction = (-(slope * w + offset))
                            .exp()
                            .clamp(1.0 / AGC_MAX_CORRECTION, AGC_MAX_CORRECTION);
                        out.push(x * correction);
                    }
                }
            }
        }
    }

    /// Calibrates the quality gate's amplitude reference from a record's
    /// quality matrix, verdicts and per-window truth: every `Clean`
    /// non-seizure window folds its per-channel log-std into the running
    /// reference mean. The self-learning pipeline calls this for each
    /// training record it accepts (it already holds the record's quality
    /// rows in its workspace), so the gate's idea of "normal amplitude" is
    /// personalized alongside the forest.
    pub(crate) fn calibrate_from_quality(
        &mut self,
        quality_matrix: &FeatureMatrix,
        verdicts: &[QualityVerdict],
        truth: &[bool],
    ) {
        for (w, (&seizure, verdict)) in truth.iter().zip(verdicts.iter()).enumerate() {
            if !seizure && *verdict == QualityVerdict::Clean {
                self.gate.calibrate(
                    quality_matrix.get(w, quality::channel_column(0, IDX_LOG_STD)),
                    quality_matrix.get(w, quality::channel_column(1, IDX_LOG_STD)),
                );
            }
        }
    }

    fn require_flat(&self) -> Result<&FlatForest, CoreError> {
        self.flat.as_ref().ok_or_else(|| CoreError::InvalidState {
            detail: "the real-time detector has not been trained yet".to_string(),
        })
    }

    /// Serializes the detector's full state — configuration, the quality
    /// gate's calibration and, once trained, the whole retraining engine
    /// including its sample pool — into the versioned binary snapshot
    /// format of [`seizure_ml::persist`]; the forest is not stored but
    /// re-stitched from the trainer on load. This is the detector's one
    /// durable form: the pipeline nests it in its own snapshots, journal
    /// bases and Flash store, and on its own it serves off-device migration.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.write_state_body(&mut w);
        w.finish(SnapshotKind::RealTimeDetector)
    }

    /// Writes the payload of a [`RealTimeDetector::save_state`] snapshot
    /// into `w`. The model sections nest their child envelopes **in place**
    /// (`begin_nested` / `end_nested` back-patch length and checksum), so a
    /// save never memcpys the O(pool) trainer payload through intermediate
    /// buffers — the bytes are identical to the copying path, minus the
    /// copies. The pipeline calls this to nest a detector inside its own
    /// snapshot the same way.
    pub(crate) fn write_state_body(&self, w: &mut SnapshotWriter) {
        w.f64(self.config.window_secs);
        w.f64(self.config.overlap);
        persist::write_forest_config(w, &self.config.forest);
        w.u64(self.config.seed);
        w.usize(self.config.incremental_block_size);
        // Quality-gate block (format version 2): enable flag plus the
        // calibrated amplitude reference. Fixed 25 bytes, so the edge
        // memory model can budget it as a constant.
        w.bool(self.config.quality_gate);
        w.f64(self.gate.ref_log_std[0]);
        w.f64(self.gate.ref_log_std[1]);
        w.f64(self.gate.ref_weight);
        match &self.incremental {
            Some(trainer) => {
                w.u8(MODEL_INCREMENTAL);
                let child = w.begin_nested(SnapshotKind::IncrementalTrainer);
                persist::write_trainer_body(w, trainer);
                w.end_nested(child);
            }
            None => w.u8(MODEL_UNTRAINED),
        }
    }

    /// Restores a detector from a [`RealTimeDetector::save_state`] snapshot.
    /// The restored detector is state-identical to the saved one: its next
    /// [`RealTimeDetector::retrain_incremental`] emits a forest
    /// node-identical to the one an uninterrupted detector would produce.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] for truncated, foreign, corrupted,
    /// version-mismatched or internally inconsistent snapshots — never a
    /// panic. A snapshot of the retired standardized batch model (marker
    /// `1`) is [`PersistError::Corrupted`].
    pub fn load_state(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = SnapshotReader::open(bytes, SnapshotKind::RealTimeDetector)?;
        let window_secs = r.f64()?;
        let overlap = r.f64()?;
        let forest_config = persist::read_forest_config(&mut r)?;
        let seed = r.u64()?;
        let incremental_block_size = r.usize()?;
        let quality_gate = r.bool()?;
        let ref_a = r.f64()?;
        let ref_b = r.f64()?;
        let ref_weight = r.f64()?;
        if !(ref_a.is_finite() && ref_b.is_finite() && ref_weight.is_finite() && ref_weight >= 0.0)
        {
            return Err(PersistError::Corrupted {
                detail: "quality-gate calibration is not finite".to_string(),
            }
            .into());
        }
        let config = RealTimeDetectorConfig {
            window_secs,
            overlap,
            forest: forest_config,
            seed,
            incremental_block_size,
            quality_gate,
        };
        let mut detector = Self::new(config);
        detector.gate = QualityGate {
            ref_log_std: [ref_a, ref_b],
            ref_weight,
        };
        match r.u8()? {
            MODEL_UNTRAINED => {}
            MODEL_INCREMENTAL => {
                let trainer = persist::trainer_from_bytes(r.nested()?)?;
                if *trainer.config()
                    != (IncrementalTrainerConfig {
                        forest: config.forest,
                        block_size: config.incremental_block_size,
                    })
                    || trainer.seed() != config.seed
                {
                    return Err(PersistError::Corrupted {
                        detail: "embedded trainer disagrees with the detector configuration"
                            .to_string(),
                    }
                    .into());
                }
                detector.flat = trainer.current_forest();
                detector.incremental = Some(trainer);
            }
            marker => {
                return Err(PersistError::Corrupted {
                    detail: format!("unknown detector model marker {marker}"),
                }
                .into())
            }
        }
        r.finish()?;
        Ok(detector)
    }

    /// Replays journal `entries` (bound to the base with `fingerprint`) onto
    /// this detector through [`journal::replay_entries`], one refit for the
    /// whole journal, leaving the state one
    /// [`RealTimeDetector::retrain_incremental`] per entry would. `visit`
    /// runs before each entry's checks. Used by the pipeline's journal
    /// restore; on `Err` the detector must be dropped.
    pub(crate) fn replay_journal(
        &mut self,
        entries: &[JournalEntry],
        fingerprint: u64,
        visit: impl FnMut(usize, &JournalEntry) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        if entries.is_empty() {
            return Ok(());
        }
        let trainer = self
            .incremental
            .get_or_insert_with(|| fresh_trainer(&self.config));
        self.flat = journal::replay_entries(trainer, entries, fingerprint, visit)?;
        Ok(())
    }

    /// Evaluates the detector on a signal whose true seizure position is
    /// known, returning the per-window confusion matrix. Runs
    /// [`RealTimeDetector::detect_into`] on `workspace`, so an evaluation
    /// sweep reuses one set of buffers across records.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`RealTimeDetector::detect_into`].
    pub fn evaluate(
        &self,
        signal: &EegSignal,
        truth: &SeizureLabel,
        workspace: &mut FeatureWorkspace,
    ) -> Result<ConfusionMatrix, CoreError> {
        let window = self.window_config(signal.sampling_frequency())?;
        let (predictions, _) = self.detect_into(signal, workspace)?;
        let truth_labels = window_labels(
            truth,
            predictions.len(),
            window.window_seconds(),
            window.step_seconds(),
        )?;
        Ok(ConfusionMatrix::from_predictions(
            predictions,
            &truth_labels,
        )?)
    }

    /// Builds a sample-at-a-time streaming front end over this trained
    /// detector for signals sampled at `fs` Hz: feed it one sample pair per
    /// tick through [`StreamingDetector::push`] and it emits one
    /// [`StreamingDetection`] per completed analysis window, reusing the
    /// hop-structured extraction state across the 75 % window overlap
    /// instead of recomputing each window from scratch.
    ///
    /// The streaming path equals [`RealTimeDetector::detect_into`] bit for
    /// bit, alarms and verdicts alike, on a detector whose quality gate is
    /// uncalibrated. Both are equal by construction: batch detection streams
    /// its feature rows through the same [`StreamingRichExtractor`] and
    /// grades through the same per-hop summaries ([`QualityGrader`]), so
    /// every streamed feature and quality row equals the batch row (see
    /// [`seizure_features::streaming`]). One documented behavioural
    /// difference: the record-level slow gain correction (AGC) is a
    /// whole-record robust fit and is **not** applied while streaming, so a
    /// calibrated gate may rescale batch inputs where the streaming path
    /// classifies the raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] if the detector is untrained and
    /// propagates configuration errors, such as
    /// [`SlidingWindowConfig::check_streamable`]'s for a window geometry the
    /// engines cannot stream.
    pub fn streaming(&self, fs: f64) -> Result<StreamingDetector<'_>, CoreError> {
        let forest = self.require_flat()?;
        let window = self.window_config(fs)?;
        let extractor = StreamingRichExtractor::new(&window)?;
        let hop = window.step_samples();
        let num_features = extractor.num_features();
        Ok(StreamingDetector {
            detector: self,
            forest,
            grader: QualityGrader::new(&QualityExtractor::new(fs)?, &window)?,
            quality_row: [0.0; NUM_QUALITY_FEATURES],
            extractor,
            row: vec![0.0; num_features],
            hop_a: vec![0.0; hop],
            hop_b: vec![0.0; hop],
            fill: 0,
            prev_verdict: QualityVerdict::Clean,
            window_index: 0,
        })
    }
}

/// One completed analysis window emitted by [`StreamingDetector::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingDetection {
    /// Zero-based index of the completed window (same indexing as the
    /// per-window vectors of [`RealTimeDetector::detect`]).
    pub window_index: usize,
    /// The gated alarm: the forest's prediction, forced to `false` on
    /// `Reject` windows when the quality gate is enabled.
    pub alarm: bool,
    /// The signal-quality verdict of the window (always `Clean` when the
    /// gate is disabled).
    pub verdict: QualityVerdict,
}

/// Sample-at-a-time detection front end borrowed from a trained
/// [`RealTimeDetector`] (see [`RealTimeDetector::streaming`]).
///
/// Samples are buffered into hops; each hop advances the carried extraction
/// state ([`StreamingRichExtractor`]) and, with the quality gate on, the
/// quality grader ([`QualityGrader`]), which summarizes the hop once instead
/// of regrading the whole window. Once a full window of hops is in flight
/// every further hop completes one window: quality verdict (with the same
/// Schmitt-trigger hysteresis as the batch gate), forest classification of
/// the raw feature row and alarm gating. After the warm-up allocations in
/// [`RealTimeDetector::streaming`], pushing samples performs no heap
/// allocation (`tests/zero_alloc.rs` counts them), and
/// [`StreamingDetector::heap_bytes`] reports every byte the front end holds.
#[derive(Debug)]
pub struct StreamingDetector<'a> {
    detector: &'a RealTimeDetector,
    forest: &'a FlatForest,
    extractor: StreamingRichExtractor,
    grader: QualityGrader,
    quality_row: [f64; NUM_QUALITY_FEATURES],
    row: Vec<f64>,
    hop_a: Vec<f64>,
    hop_b: Vec<f64>,
    fill: usize,
    prev_verdict: QualityVerdict,
    window_index: usize,
}

impl StreamingDetector<'_> {
    /// Number of samples per analysis window.
    pub fn window_samples(&self) -> usize {
        self.extractor.window_samples()
    }

    /// Number of samples between consecutive detections (the hop).
    pub fn step_samples(&self) -> usize {
        self.extractor.step_samples()
    }

    /// Index the next completed window will carry.
    pub fn next_window_index(&self) -> usize {
        self.window_index
    }

    /// Heap bytes the front end holds, the capacity of every buffer it owns:
    /// the extractor's ([`StreamingRichExtractor::heap_bytes`]), the grader's
    /// ([`QualityGrader::heap_bytes`]), the hop staging of both channels and
    /// the feature row. At the paper geometry (256 Hz, 4 s, 75 % overlap)
    /// that is 113 912 B; pass it to
    /// `seizure_edge::memory::MemoryModel::budget_with_streaming`.
    pub fn heap_bytes(&self) -> usize {
        self.extractor.heap_bytes()
            + self.grader.heap_bytes()
            + size_of::<f64>()
                * (self.hop_a.capacity() + self.hop_b.capacity() + self.row.capacity())
    }

    /// Forgets all carried signal state (keeping the borrowed model) so the
    /// next sample starts a new record; the quality gate's hysteresis is
    /// reset to `Clean` and window indices restart at zero.
    pub fn reset(&mut self) {
        self.extractor.reset();
        self.grader.reset();
        self.fill = 0;
        self.prev_verdict = QualityVerdict::Clean;
        self.window_index = 0;
    }

    /// Ingests one sample pair (F7T3, F8T4). Returns `Ok(None)` until the
    /// sample completes an analysis window — every `window_samples()`-th
    /// sample at first, then every `step_samples()`-th — and the completed
    /// window's [`StreamingDetection`] afterwards.
    ///
    /// # Errors
    ///
    /// Propagates numeric extraction failures.
    // lint: hot-path
    pub fn push(&mut self, f7t3: f64, f8t4: f64) -> Result<Option<StreamingDetection>, CoreError> {
        self.hop_a[self.fill] = f7t3;
        self.hop_b[self.fill] = f8t4;
        self.fill += 1;
        if self.fill < self.hop_a.len() {
            return Ok(None);
        }
        self.fill = 0;
        let completed = self
            .extractor
            .push_hop(&self.hop_a, &self.hop_b, &mut self.row)?;
        let gated = self.detector.config.quality_gate;
        if gated {
            let graded = self
                .grader
                .push_hop(&self.hop_a, &self.hop_b, &mut self.quality_row)?;
            debug_assert_eq!(graded, completed, "both complete windows on the same hop");
        }
        if !completed {
            return Ok(None);
        }
        let verdict = if gated {
            let verdict = QualityGate::next_verdict(
                QualityGate::raw_level(&self.quality_row),
                self.prev_verdict,
            );
            self.prev_verdict = verdict;
            verdict
        } else {
            QualityVerdict::Clean
        };
        let mut alarm = self.forest.predict(&self.row);
        if gated && verdict == QualityVerdict::Reject {
            alarm = false;
        }
        let detection = StreamingDetection {
            window_index: self.window_index,
            alarm,
            verdict,
        };
        self.window_index += 1;
        Ok(Some(detection))
    }
}

/// Balanced training selection over per-window labels: every seizure window
/// plus an equal number of evenly spaced seizure-free windows, positives
/// first (the paper trains on balanced sets of seizure and seizure-free
/// windows). The pipeline and [`RealTimeDetector::train`] re-spread the two
/// halves with `spread_classes` before they reach the incremental pool, so
/// ownership blocks mix both classes.
///
/// # Errors
///
/// Returns [`CoreError::InvalidState`] if either class is absent.
pub fn balanced_indices(labels: &[bool]) -> Result<Vec<usize>, CoreError> {
    let positive_idx: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter_map(|(i, &l)| l.then_some(i))
        .collect();
    let negative_idx: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter_map(|(i, &l)| (!l).then_some(i))
        .collect();
    if positive_idx.is_empty() || negative_idx.is_empty() {
        return Err(CoreError::InvalidState {
            detail: "balancing requires both seizure and seizure-free windows".to_string(),
        });
    }
    let take = positive_idx.len().min(negative_idx.len());
    // Evenly spaced negatives avoid clustering right at the label boundary.
    let stride = (negative_idx.len() as f64 / take as f64).max(1.0);
    let mut selected = positive_idx;
    for j in 0..take {
        let idx = (j as f64 * stride) as usize;
        selected.push(negative_idx[idx.min(negative_idx.len() - 1)]);
    }
    Ok(selected)
}

/// Reorders `indices` so the two classes (`labels[i]`) interleave at their
/// overall ratio, each class keeping its own order. The incremental trainer
/// gives each tree its own ownership blocks of consecutive samples, so a
/// single-class run longer than a block would leave the trees owning it
/// with one label only; spread, single-class runs are as long as the class
/// ratio instead of the class size.
pub(crate) fn spread_classes(indices: &[usize], labels: &[bool]) -> Vec<usize> {
    let (pos, neg): (Vec<usize>, Vec<usize>) = indices.iter().partition(|&&i| labels[i]);
    let mut spread = Vec::with_capacity(indices.len());
    let (mut p, mut n) = (0usize, 0usize);
    while p < pos.len() || n < neg.len() {
        // Proportional merge: advance whichever class lags its share.
        if n >= neg.len() || (p < pos.len() && p * neg.len() <= n * pos.len()) {
            spread.push(pos[p]);
            p += 1;
        } else {
            spread.push(neg[n]);
            n += 1;
        }
    }
    spread
}

/// Deterministic Theil–Sen line fit `y ≈ slope · x + intercept`: median of
/// all pairwise slopes, then median of the per-point intercepts under that
/// slope. Robust up to ~29 % outliers — enough to fit a record's amplitude
/// envelope through its seizure windows. The abscissae must increase
/// strictly, as window indices do (`median_slope`'s contract).
fn theil_sen(points: &[(f64, f64)]) -> (f64, f64) {
    debug_assert!(points.len() >= 2);
    // Two buffers of `32n + 64` keys take a record of up to about 8 000
    // windows in one pass over the pairs.
    let slope = median_slope(points, 32 * points.len() + 64).unwrap_or(0.0);
    let mut intercepts: Vec<f64> = points.iter().map(|&(x, y)| y - slope * x).collect();
    let intercept = median_in_place(&mut intercepts).unwrap_or(0.0);
    (slope, intercept)
}

/// The lower median, under `f64::total_cmp`, of the `m = n(n − 1)/2`
/// pairwise slopes `(yj − yi) / (xj − xi)` over `i < j`: the slope a full
/// sort would put at rank `(m − 1) / 2`, found without storing the slopes
/// (3.6 M, 29 MB, per channel on a 45-min record). The abscissae must
/// increase strictly (checked in debug builds), so every pair has a slope.
/// Extra memory is two buffers of `cap` keys (`cap` even, at least 2).
///
/// Slopes are compared by the integer keys `total_cmp` orders by, so the
/// result is bit-identical, NaN included. A fixed-seed sample of pairs
/// brackets the target rank, as wide as the buffer can hold and at least
/// four sampling deviations. Each pass over the pairs then counts the
/// slopes under the bracket and keeps those inside it, or every
/// `stride`-th of them once they outgrow the buffer. A bracket that misses
/// the target leaves the side that holds it, re-bracketed from the sample
/// already kept; one that holds it is narrowed from the fresh sample, and
/// the pass that keeps all of it selects inside it. A miss removes at
/// least one slope from the search, and a single-key bracket that holds the
/// target is the answer, so heavy ties and constant series terminate.
fn median_slope(points: &[(f64, f64)], cap: usize) -> Option<f64> {
    debug_assert!(cap >= 2 && cap.is_multiple_of(2));
    debug_assert!(
        points.windows(2).all(|pair| pair[0].0 < pair[1].0),
        "abscissae must increase strictly"
    );
    let n = points.len();
    let slopes = n * n.saturating_sub(1) / 2;
    let target = slopes.checked_sub(1)? / 2;

    // A fixed-seed sample of pairs, uniform over `i < j` (SplitMix64): a
    // stride over the enumeration order aliases with the row lengths and
    // shifts the bracket by a few percent of the ranks.
    let mut state = 0x243F_6A88_85A3_08D3_u64;
    let mut draw = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut sample = Vec::with_capacity(cap);
    for _ in 0..cap {
        let (a, b) = (draw(), draw());
        let ((xi, yi), (xj, yj)) = (points[a.min(b)], points[a.max(b)]);
        if a != b {
            sample.push(slope_key((yj - yi) / (xj - xi)));
        }
    }
    sample.sort_unstable();

    // The known bracket `lo..=hi` holds the target; `below` slopes lie
    // under it and `inside` in it.
    let (mut lo, mut hi, mut below, mut inside) = (i64::MIN, i64::MAX, 0, slopes);
    let mut kept = Vec::with_capacity(cap);
    let mut narrow = true;
    loop {
        let part =
            &sample[sample.partition_point(|&k| k < lo)..sample.partition_point(|&k| k <= hi)];
        let (try_lo, try_hi) = if part.is_empty() {
            (lo, hi)
        } else {
            let at = ((target - below) as f64 / inside as f64 * part.len() as f64) as usize;
            let at = at.min(part.len() - 1);
            // As wide as a bracket the buffer can keep whole, and at least
            // four sampling deviations wide.
            let whole = 0.375 * cap as f64 * part.len() as f64 / inside as f64;
            let margin = if narrow {
                (whole as usize).max(2 * part.len().isqrt() + 1)
            } else {
                0
            };
            (
                part[at.saturating_sub(margin)],
                part[(at + margin).min(part.len() - 1)],
            )
        };
        let (under, within, complete) = slope_pass(points, try_lo, try_hi, &mut kept, cap);
        if target < under {
            // Below the bracket tried: the slopes under it hold the target.
            (hi, inside) = (try_lo - 1, under - below);
            narrow = true;
        } else if target >= under + within {
            (lo, below, inside) = (try_hi + 1, under + within, below + inside - under - within);
            narrow = true;
        } else if complete {
            let (_, key, _) = kept.select_nth_unstable(target - under);
            return Some(slope_from_key(*key));
        } else if try_lo == try_hi {
            return Some(slope_from_key(try_lo));
        } else {
            // A bracket drawn from the sample that caught every slope
            // (ties) pivots on one key next, so the search always shrinks.
            narrow = part.is_empty() || within < inside;
            (lo, hi, below, inside) = (try_lo, try_hi, under, within);
            std::mem::swap(&mut sample, &mut kept);
            sample.sort_unstable();
        }
    }
}

/// One pass over the pairwise slopes: how many lie under `lo` and in
/// `lo..=hi`, and whether `kept` holds all of the latter. `kept` takes
/// every `stride`-th slope of the bracket; the stride starts at 1 and
/// doubles, halving `kept`, whenever it would outgrow `cap` (even).
fn slope_pass(
    points: &[(f64, f64)],
    lo: i64,
    hi: i64,
    kept: &mut Vec<i64>,
    cap: usize,
) -> (usize, usize, bool) {
    kept.clear();
    let (mut under, mut within, mut stride) = (0, 0, 1usize);
    for (i, &(xi, yi)) in points.iter().enumerate() {
        for &(xj, yj) in &points[i + 1..] {
            let key = slope_key((yj - yi) / (xj - xi));
            if key < lo {
                under += 1;
            } else if key <= hi {
                if within & (stride - 1) == 0 {
                    if kept.len() == cap {
                        let half = cap / 2;
                        for at in 0..half {
                            kept[at] = kept[2 * at];
                        }
                        kept.truncate(half);
                        stride *= 2;
                    }
                    if within & (stride - 1) == 0 {
                        kept.push(key);
                    }
                }
                within += 1;
            }
        }
    }
    (under, within, stride == 1)
}

/// The integer key `f64::total_cmp` orders by; the map is its own inverse.
fn slope_key(value: f64) -> i64 {
    let bits = value.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The slope whose key is `key`.
fn slope_from_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// Median by O(n) selection in place (lower median for even lengths — a real
/// data point, and deterministic). Selection leaves at the median position
/// exactly the element a full sort would, so the result is the sorted
/// median bit for bit.
fn median_in_place(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    // `total_cmp`, not `partial_cmp().expect(...)`: a NaN slope (possible when
    // a poisoned window reaches the AGC fit) ranks above every number instead
    // of panicking mid-detect, and the lower median stays a real data point.
    let (_, median, _) = values.select_nth_unstable_by((values.len() - 1) / 2, f64::total_cmp);
    Some(*median)
}

/// The empty incremental trainer that `train`, an untrained detector's first
/// incremental retrain and a journal replay onto an untrained base start
/// from.
fn fresh_trainer(config: &RealTimeDetectorConfig) -> IncrementalTrainer {
    IncrementalTrainer::new(
        IncrementalTrainerConfig {
            forest: config.forest,
            block_size: config.incremental_block_size,
        },
        config.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seizure_data::cohort::Cohort;
    use seizure_data::sampler::SampleConfig;

    fn record_and_truth(seed: u64) -> (seizure_data::sampler::EegRecord, SeizureLabel) {
        let cohort = Cohort::chb_mit_like(3);
        let config = SampleConfig::new(180.0, 220.0, 64.0).unwrap();
        let record = cohort.sample_record(8, 0, &config, seed).unwrap(); // patient 9: clean
        let truth =
            SeizureLabel::new(record.annotation().onset(), record.annotation().offset()).unwrap();
        (record, truth)
    }

    /// Every window's rich row of `record` under `truth`, and the window
    /// labels.
    fn training_windows(
        detector: &RealTimeDetector,
        record: &seizure_data::sampler::EegRecord,
        truth: &SeizureLabel,
    ) -> (FeatureMatrix, Vec<bool>) {
        let mut ws = FeatureWorkspace::new();
        let labels = detector
            .build_training_windows_with(record.signal(), truth, &mut ws)
            .unwrap();
        (ws.matrix, labels)
    }

    /// The rows at `balanced_indices(labels)`, flat and in that order, with
    /// their labels.
    fn balanced(matrix: &FeatureMatrix, labels: &[bool]) -> (Vec<f64>, Vec<bool>) {
        let (mut rows, mut batch) = (Vec::new(), Vec::new());
        for w in balanced_indices(labels).unwrap() {
            rows.extend_from_slice(matrix.row(w));
            batch.push(labels[w]);
        }
        (rows, batch)
    }

    fn fast_config() -> RealTimeDetectorConfig {
        RealTimeDetectorConfig {
            forest: RandomForestConfig {
                n_trees: 10,
                max_depth: 6,
                ..RandomForestConfig::default()
            },
            ..RealTimeDetectorConfig::default()
        }
    }

    #[test]
    fn median_ranks_nan_worst_instead_of_panicking() {
        // Regression for the NaN-unsafe Theil–Sen sort: the former
        // `partial_cmp().expect("finite values")` comparator panicked on a
        // NaN slope; `total_cmp` sorts it last, so the lower median is still
        // a real data point.
        let mut values = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(median_in_place(&mut values), Some(2.0));
        let mut all_nan = [f64::NAN, f64::NAN];
        assert!(median_in_place(&mut all_nan).unwrap().is_nan());
    }

    #[test]
    fn median_selection_equals_the_sorted_lower_median_bit_for_bit() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        for len in 1..64usize {
            let values: Vec<f64> = (0..len)
                .map(|i| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    match (state % 11, i % 5) {
                        (0, _) => f64::NAN,
                        (1, _) => -0.0,
                        (2, _) => 0.0,
                        (3, 0) => f64::NEG_INFINITY,
                        // Few distinct values, so ties are common.
                        _ => (state % 7) as f64 - 3.0,
                    }
                })
                .collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let expected = sorted[(len - 1) / 2];
            let mut selected = values.clone();
            let median = median_in_place(&mut selected).unwrap();
            assert_eq!(median.to_bits(), expected.to_bits(), "{values:?}");
        }
    }

    /// The Theil–Sen fit that stored every pairwise slope: the reference
    /// for the bracketed selection.
    fn stored_slopes_theil_sen(points: &[(f64, f64)]) -> (f64, f64) {
        let mut slopes = Vec::with_capacity(points.len() * (points.len() - 1) / 2);
        for (i, &(xi, yi)) in points.iter().enumerate() {
            for &(xj, yj) in &points[i + 1..] {
                slopes.push((yj - yi) / (xj - xi));
            }
        }
        let slope = median_in_place(&mut slopes).unwrap_or(0.0);
        let mut intercepts: Vec<f64> = points.iter().map(|&(x, y)| y - slope * x).collect();
        let intercept = median_in_place(&mut intercepts).unwrap_or(0.0);
        (slope, intercept)
    }

    #[test]
    fn bracketed_slope_median_equals_the_stored_slopes_bit_for_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let lengths = (2..=40).chain([63, 64, 65, 127, 250, 511, 777, 1000, 1800]);
        for n in lengths {
            // Window indices as abscissae, as the AGC fits them.
            let kinds: [(&str, Vec<(f64, f64)>); 5] = [
                ("noise", (0..n).map(|i| (i as f64, noise())).collect()),
                (
                    "trend",
                    (0..n)
                        .map(|i| (i as f64, 0.01 * i as f64 - 2.0 + 0.1 * noise()))
                        .collect(),
                ),
                // Few levels: many equal slopes.
                (
                    "quantized",
                    (0..n)
                        .map(|i| (i as f64, (noise() * 4.0).round() / 4.0))
                        .collect(),
                ),
                ("constant", (0..n).map(|i| (i as f64, 1.5)).collect()),
                (
                    "nan-laced",
                    (0..n)
                        .map(|i| match i % 11 {
                            3 => (i as f64, f64::NAN),
                            7 => (i as f64, -f64::NAN),
                            _ => (i as f64, noise()),
                        })
                        .collect(),
                ),
            ];
            for (kind, points) in kinds {
                let got = theil_sen(&points);
                let want = stored_slopes_theil_sen(&points);
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "{kind}, n {n}: bracketed fit {got:?}, stored slopes {want:?}"
                );
                // Small buffers force narrowing passes, stride thinning,
                // misses and single-key pivots.
                let caps: &[usize] = if n <= 40 { &[2, 8, 64] } else { &[8, 64] };
                for &cap in caps {
                    let slope = median_slope(&points, cap).unwrap_or(0.0);
                    assert_eq!(
                        slope.to_bits(),
                        want.0.to_bits(),
                        "{kind}, n {n}, cap {cap}: bracketed slope {slope}, stored {}",
                        want.0
                    );
                }
            }
        }
    }

    #[test]
    fn untrained_detector_refuses_to_predict() {
        let detector = RealTimeDetector::new(fast_config());
        assert!(!detector.is_trained());
        let (record, _) = record_and_truth(0);
        assert!(matches!(
            detector.detect(record.signal()),
            Err(CoreError::InvalidState { .. })
        ));
    }

    #[test]
    fn trains_and_detects_the_seizure_it_was_trained_on() {
        let (record, truth) = record_and_truth(1);
        let mut detector = RealTimeDetector::new(fast_config());
        let (matrix, labels) = training_windows(&detector, &record, &truth);
        let (rows, labels) = balanced(&matrix, &labels);
        detector
            .train(&rows, matrix.num_features(), &labels)
            .unwrap();
        assert!(detector.is_trained());

        let cm = detector
            .evaluate(record.signal(), &truth, &mut FeatureWorkspace::new())
            .unwrap();
        // Training data, so the detector should do very well.
        assert!(cm.sensitivity() > 0.7, "sensitivity = {}", cm.sensitivity());
        assert!(cm.specificity() > 0.7, "specificity = {}", cm.specificity());
    }

    #[test]
    fn generalizes_to_another_record_of_the_same_patient() {
        let (train_record, train_truth) = record_and_truth(2);
        let (test_record, test_truth) = record_and_truth(3);
        let mut detector = RealTimeDetector::new(fast_config());
        let (matrix, labels) = training_windows(&detector, &train_record, &train_truth);
        let nf = matrix.num_features();
        let (rows, batch) = balanced(&matrix, &labels);
        detector.train(&rows, nf, &batch).unwrap();
        let cm = detector
            .evaluate(
                test_record.signal(),
                &test_truth,
                &mut FeatureWorkspace::new(),
            )
            .unwrap();
        assert!(cm.geometric_mean() > 0.6, "gmean = {}", cm.geometric_mean());

        // The whole time-ordered record, over more ownership blocks than
        // trees: `train` spreads its few seizure windows through every
        // block, so no tree is left owning seizure-free blocks only and the
        // majority vote still alarms.
        let many_blocks = RealTimeDetectorConfig {
            incremental_block_size: 16,
            ..fast_config()
        };
        let mut detector = RealTimeDetector::new(many_blocks);
        detector.train(matrix.data(), nf, &labels).unwrap();
        let pool = detector.incremental_trainer().unwrap().num_samples();
        assert!(pool >= many_blocks.forest.n_trees * many_blocks.incremental_block_size);
        let cm = detector
            .evaluate(
                test_record.signal(),
                &test_truth,
                &mut FeatureWorkspace::new(),
            )
            .unwrap();
        assert!(cm.sensitivity() > 0.7, "sensitivity = {}", cm.sensitivity());
        assert!(cm.specificity() > 0.7, "specificity = {}", cm.specificity());
    }

    #[test]
    fn balanced_indices_produce_equal_class_counts() {
        let (record, truth) = record_and_truth(4);
        let detector = RealTimeDetector::new(fast_config());
        let labels = detector.training_labels(record.signal(), &truth).unwrap();
        let selected = balanced_indices(&labels).unwrap();
        let positives = labels.iter().filter(|&&l| l).count();
        // Every seizure window, in order, then as many seizure-free ones.
        let (head, tail) = selected.split_at(positives);
        assert!(head.windows(2).all(|w| w[0] < w[1]));
        assert!(head.iter().all(|&w| labels[w]));
        assert_eq!(tail.len(), positives);
        assert!(tail.iter().all(|&w| !labels[w]));
        assert!(selected.len() < labels.len());
    }

    #[test]
    fn balanced_indices_require_both_classes() {
        for labels in [&[false; 5][..], &[true; 5], &[]] {
            assert!(matches!(
                balanced_indices(labels),
                Err(CoreError::InvalidState { .. })
            ));
        }
    }

    #[test]
    fn batch_detection_is_consistent_across_entry_points() {
        let (record, truth) = record_and_truth(5);
        let mut detector = RealTimeDetector::new(fast_config());
        let (matrix, labels) = training_windows(&detector, &record, &truth);
        let nf = matrix.num_features();
        let (rows, kept) = balanced(&matrix, &labels);
        detector.train(&rows, nf, &kept).unwrap();

        // The workspace call returns one prediction and one verdict per
        // window, and the allocating wrapper copies the same predictions.
        let batch = detector.detect(record.signal()).unwrap();
        let mut ws = FeatureWorkspace::new();
        let (predictions, verdicts) = detector.detect_into(record.signal(), &mut ws).unwrap();
        assert_eq!(predictions, &batch[..]);
        assert_eq!(verdicts.len(), batch.len());
        let verdicts = verdicts.to_vec();

        // They are the flat forest's predictions on the full-record training
        // rows, with `Reject` windows forced silent.
        let forest = detector.flat_forest().unwrap();
        let raw = forest.predict_batch(matrix.data(), nf).unwrap();
        let gated: Vec<bool> = raw
            .iter()
            .zip(&verdicts)
            .map(|(&p, &v)| p && v != QualityVerdict::Reject)
            .collect();
        assert_eq!(batch, gated);

        // An ungated detector (the same forest: the gate takes no part in
        // training) reports every window `Clean` and alarms on the raw
        // forest output.
        let mut ungated = RealTimeDetector::new(RealTimeDetectorConfig {
            quality_gate: false,
            ..fast_config()
        });
        ungated.train(&rows, nf, &kept).unwrap();
        let (predictions, verdicts) = ungated.detect_into(record.signal(), &mut ws).unwrap();
        assert!(verdicts.iter().all(|&v| v == QualityVerdict::Clean));
        assert_eq!(predictions, &raw[..]);
    }

    #[test]
    fn fractional_overlap_detector_is_refused_by_every_rich_entry_point() {
        use crate::labeler::LabelerConfig;
        use crate::pipeline::SelfLearningPipeline;
        use seizure_data::sampler::EegRecord;
        use seizure_data::synth::{degrade_signal, HostileScenario};
        use seizure_ml::persist::journal::{CompactionPolicy, DeltaSave};

        // At 60 % overlap the exact step is fractional (1.6 s at 64 Hz =
        // 102.4 samples) and rounds to 102, which does not divide the
        // 256-sample window, so hop summaries cannot tile it. Training,
        // batch detection, streaming and the self-learning loop all refuse
        // it with the streaming rule's configuration error.
        let (record, truth) = record_and_truth(6);
        let config = RealTimeDetectorConfig {
            overlap: 0.6,
            ..fast_config()
        };
        let fs = record.signal().sampling_frequency();
        let window = SlidingWindowConfig::new(fs, config.window_secs, config.overlap).unwrap();
        assert_eq!(window.window_samples(), 256);
        assert_eq!(window.step_samples(), 102);
        let realized = (window.window_samples() - window.step_samples()) as f64;
        assert!((realized - 256.0 * 0.6).abs() <= 1.0);
        let expected = CoreError::Feature(StreamingRichExtractor::new(&window).unwrap_err());

        let mut detector = RealTimeDetector::new(config);
        assert_eq!(
            detector
                .build_training_windows_with(record.signal(), &truth, &mut FeatureWorkspace::new())
                .unwrap_err(),
            expected
        );
        // A forest fitted on rows of the paper geometry does not make the
        // detector's own geometry any more streamable.
        let paper = RealTimeDetector::new(fast_config());
        let (matrix, labels) = training_windows(&paper, &record, &truth);
        let (rows, batch) = balanced(&matrix, &labels);
        detector
            .train(&rows, matrix.num_features(), &batch)
            .unwrap();
        assert_eq!(
            detector
                .detect_into(record.signal(), &mut FeatureWorkspace::new())
                .unwrap_err(),
            expected
        );
        assert_eq!(detector.streaming(fs).unwrap_err(), expected);

        // The pipeline, with its journal armed, fails before learning or
        // quarantining anything, on a clean record and on a saturated one
        // its gate would quarantine: counters, pool, labels, gate and
        // journal stay as they were.
        let saturated = EegRecord::new(
            degrade_signal(record.signal(), HostileScenario::Saturation, 1.0, 7).unwrap(),
            *record.annotation(),
            8,
            0,
        )
        .unwrap();
        let mut streamable = SelfLearningPipeline::new(LabelerConfig::default(), fast_config());
        streamable.add_training_record(&saturated, &truth).unwrap();
        assert_eq!(streamable.num_quarantined(), 1);
        let mut pipeline = SelfLearningPipeline::new(LabelerConfig::default(), config);
        let policy = CompactionPolicy::default();
        assert!(matches!(
            pipeline.save_delta_with(policy),
            DeltaSave::Full(_)
        ));
        let before = pipeline.save();
        for record in [&record, &saturated] {
            assert_eq!(
                pipeline.add_training_record(record, &truth).unwrap_err(),
                expected
            );
        }
        assert_eq!(pipeline.num_seizures_collected(), 0);
        assert_eq!(pipeline.num_quarantined(), 0);
        assert_eq!(pipeline.training_windows(), 0);
        assert_eq!(pipeline.save(), before);
        assert_eq!(pipeline.save_delta_with(policy), DeltaSave::Clean);
    }

    #[test]
    fn incremental_retraining_matches_single_shot_and_reuses_trees() {
        // Feed the detector the way the pipeline does: balanced per-record
        // batches (so ownership blocks mix both classes), appended in two
        // steps, against a single-shot incremental fit of the final pool.
        let (record, truth) = record_and_truth(7);
        let config = fast_config();
        let mut detector = RealTimeDetector::new(config);
        let (matrix, window_labels) = training_windows(&detector, &record, &truth);
        let nf = matrix.num_features();
        let (rows, labels) = balanced(&matrix, &window_labels);
        let cut = labels.len() / 2;

        // Two appends through one detector...
        detector
            .retrain_incremental(&rows[..cut * nf], nf, &labels[..cut])
            .unwrap();
        let first_refits = detector.incremental_trainer().unwrap().last_refit_count();
        detector
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();
        let trainer = detector.incremental_trainer().unwrap();
        assert_eq!(trainer.num_samples(), labels.len());
        assert!(trainer.last_refit_count() <= first_refits);

        // ...equal one single-shot incremental fit on the final pool.
        let mut reference = RealTimeDetector::new(config);
        reference.retrain_incremental(&rows, nf, &labels).unwrap();
        assert_eq!(detector.flat_forest(), reference.flat_forest());
        assert_eq!(
            detector.detect(record.signal()).unwrap(),
            reference.detect(record.signal()).unwrap()
        );

        // The incrementally trained detector is a usable seizure detector.
        let cm = detector
            .evaluate(record.signal(), &truth, &mut FeatureWorkspace::new())
            .unwrap();
        assert!(cm.sensitivity() > 0.6, "sensitivity = {}", cm.sensitivity());
        assert!(cm.specificity() > 0.6, "specificity = {}", cm.specificity());

        // One model kind: `train` fits the first incremental batch in
        // `spread_classes` order, so a later retrain extends its pool
        // node-identically to one fresh retrain of the spread rows followed
        // by the new ones. The pool stays inside one ownership block, where
        // every append refits every tree, so even the refit counter
        // matches...
        let order = spread_classes(&(0..labels.len()).collect::<Vec<_>>(), &labels);
        let spread_rows: Vec<f64> = order
            .iter()
            .flat_map(|&i| &rows[i * nf..(i + 1) * nf])
            .copied()
            .collect();
        let spread: Vec<bool> = order.iter().map(|&i| labels[i]).collect();
        let (first_rows, first) = (&spread_rows[..cut * nf], &spread[..cut]);
        assert!(first.contains(&true) && first.contains(&false));
        let mut trained = RealTimeDetector::new(config);
        trained.train(first_rows, nf, first).unwrap();
        trained
            .retrain_incremental(&spread_rows[cut * nf..], nf, &spread[cut..])
            .unwrap();
        let mut extended = RealTimeDetector::new(config);
        extended
            .retrain_incremental(&spread_rows, nf, &spread)
            .unwrap();
        assert_eq!(
            trained.incremental_trainer(),
            extended.incremental_trainer()
        );
        assert_eq!(trained.flat_forest(), extended.flat_forest());
        // ...whatever class grouping the caller's rows arrive in: the
        // positives-first `balanced_indices` selection trains the same
        // forest...
        let mut grouped = RealTimeDetector::new(config);
        grouped.train(&rows, nf, &labels).unwrap();
        let mut interleaved = RealTimeDetector::new(config);
        interleaved.train(&spread_rows, nf, &spread).unwrap();
        assert_eq!(grouped, interleaved);
        // ...it round-trips through the one snapshot form...
        let restored = RealTimeDetector::load_state(&trained.save_state()).unwrap();
        assert_eq!(restored, trained);
        // ...and a second `train` starts over from a fresh pool.
        trained.train(first_rows, nf, first).unwrap();
        let mut once = RealTimeDetector::new(config);
        once.train(first_rows, nf, first).unwrap();
        assert_eq!(trained, once);
    }

    #[test]
    fn train_refuses_malformed_rows_and_keeps_the_fitted_detector() {
        let (record, truth) = record_and_truth(12);
        let mut detector = RealTimeDetector::new(fast_config());
        let (matrix, window_labels) = training_windows(&detector, &record, &truth);
        let nf = matrix.num_features();
        let (rows, labels) = balanced(&matrix, &window_labels);
        detector.train(&rows, nf, &labels).unwrap();
        let forest = detector.flat_forest().cloned();
        let trainer = detector.incremental_trainer().cloned();
        let bytes = detector.save_state();
        let malformed: [(&[f64], usize, &[bool]); 6] = [
            (&rows[..rows.len() - 1], nf, &labels),
            (&rows, nf, &labels[..labels.len() - 1]),
            (&rows, nf + 1, &labels),
            (&rows, 0, &labels),
            (&[], nf, &[]),
            (&[], 0, &[]),
        ];
        for (case, (rows, nf, labels)) in malformed.into_iter().enumerate() {
            assert!(
                matches!(
                    detector.train(rows, nf, labels),
                    Err(CoreError::Ml(MlError::InvalidDataset { .. }))
                ),
                "case {case}"
            );
            assert_eq!(detector.flat_forest(), forest.as_ref(), "case {case}");
            assert_eq!(detector.incremental_trainer(), trainer.as_ref());
            assert_eq!(detector.save_state(), bytes, "case {case}");
        }
    }

    #[test]
    fn config_accessor() {
        let detector = RealTimeDetector::new(fast_config());
        assert_eq!(detector.config().window_secs, 4.0);
    }

    #[test]
    fn untrained_detector_state_round_trips() {
        let detector = RealTimeDetector::new(fast_config());
        let restored = RealTimeDetector::load_state(&detector.save_state()).unwrap();
        assert_eq!(restored, detector);
        assert!(!restored.is_trained());
    }

    #[test]
    fn incremental_detector_resumes_node_identically_across_a_save() {
        let (record, truth) = record_and_truth(10);
        let config = fast_config();
        let mut detector = RealTimeDetector::new(config);
        let (matrix, window_labels) = training_windows(&detector, &record, &truth);
        let nf = matrix.num_features();
        let (rows, labels) = balanced(&matrix, &window_labels);
        let cut = labels.len() / 2;

        // Train half, save, cross the "process boundary", resume, train the
        // rest — against a detector that never stopped.
        detector
            .retrain_incremental(&rows[..cut * nf], nf, &labels[..cut])
            .unwrap();
        let snapshot = detector.save_state();
        detector
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();

        let mut resumed = RealTimeDetector::load_state(&snapshot).unwrap();
        resumed
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();
        assert_eq!(resumed.flat_forest(), detector.flat_forest());
        assert_eq!(resumed, detector);
        assert_eq!(
            resumed.detect(record.signal()).unwrap(),
            detector.detect(record.signal()).unwrap()
        );
    }

    /// The zero-copy snapshot assembly (nested envelopes written in place,
    /// lengths and checksums back-patched) must emit exactly the bytes of
    /// the copying `nested()` path the format was defined with.
    #[test]
    fn zero_copy_state_snapshot_is_byte_identical_to_the_copying_codec() {
        let (record, truth) = record_and_truth(11);
        let config = fast_config();

        // Incremental model: the O(pool) trainer payload is the one worth
        // not copying.
        let mut detector = RealTimeDetector::new(config);
        let (matrix, window_labels) = training_windows(&detector, &record, &truth);
        let (rows, labels) = balanced(&matrix, &window_labels);
        detector
            .retrain_incremental(&rows, matrix.num_features(), &labels)
            .unwrap();
        let mut reference = SnapshotWriter::new();
        reference.f64(config.window_secs);
        reference.f64(config.overlap);
        persist::write_forest_config(&mut reference, &config.forest);
        reference.u64(config.seed);
        reference.usize(config.incremental_block_size);
        reference.bool(config.quality_gate);
        reference.f64(detector.quality_gate().reference_log_std()[0]);
        reference.f64(detector.quality_gate().reference_log_std()[1]);
        reference.f64(detector.quality_gate().calibration_weight());
        reference.u8(MODEL_INCREMENTAL);
        reference.nested(&persist::trainer_to_bytes(
            detector.incremental_trainer().unwrap(),
        ));
        assert_eq!(
            detector.save_state(),
            reference.finish(SnapshotKind::RealTimeDetector)
        );
    }

    #[test]
    fn corrupt_detector_snapshots_are_rejected() {
        let detector = RealTimeDetector::new(fast_config());
        let mut bytes = detector.save_state();
        assert!(matches!(
            RealTimeDetector::load_state(&bytes[..bytes.len() - 3]),
            Err(CoreError::Persist(_))
        ));
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(matches!(
            RealTimeDetector::load_state(&bytes),
            Err(CoreError::Persist(_))
        ));
        assert!(RealTimeDetector::load_state(b"not a snapshot, not even close").is_err());

        // A well-formed envelope carrying the retired batch-model marker `1`
        // (followed, as that model wrote it, by standardization statistics)
        // is corrupt, not a panic.
        let config = fast_config();
        let mut retired = SnapshotWriter::new();
        retired.f64(config.window_secs);
        retired.f64(config.overlap);
        persist::write_forest_config(&mut retired, &config.forest);
        retired.u64(config.seed);
        retired.usize(config.incremental_block_size);
        retired.bool(config.quality_gate);
        retired.f64(0.0);
        retired.f64(0.0);
        retired.f64(0.0);
        retired.u8(1);
        retired.slice_f64(&[0.0; 54]);
        retired.slice_f64(&[1.0; 54]);
        assert!(matches!(
            RealTimeDetector::load_state(&retired.finish(SnapshotKind::RealTimeDetector)),
            Err(CoreError::Persist(PersistError::Corrupted { .. }))
        ));
    }

    #[test]
    fn streaming_detector_matches_batch_detect() {
        let (record, truth) = record_and_truth(11);
        let mut detector = RealTimeDetector::new(fast_config());
        assert!(matches!(
            detector.streaming(64.0),
            Err(CoreError::InvalidState { .. })
        ));
        let (matrix, labels) = training_windows(&detector, &record, &truth);
        detector
            .train(matrix.data(), matrix.num_features(), &labels)
            .unwrap();

        let mut ws = FeatureWorkspace::new();
        let (batch_alarms, batch_verdicts) =
            detector.detect_into(record.signal(), &mut ws).unwrap();

        let fs = record.signal().sampling_frequency();
        let mut streaming = detector.streaming(fs).unwrap();
        assert_eq!(streaming.window_samples(), 256);
        assert_eq!(streaming.step_samples(), 64);
        assert!(streaming.heap_bytes() > 0);
        let mut alarms = Vec::new();
        let mut verdicts = Vec::new();
        for (&a, &b) in record
            .signal()
            .f7t3()
            .iter()
            .zip(record.signal().f8t4().iter())
        {
            if let Some(det) = streaming.push(a, b).unwrap() {
                assert_eq!(det.window_index, alarms.len());
                alarms.push(det.alarm);
                verdicts.push(det.verdict);
            }
        }
        // The gate is uncalibrated, so no AGC ran in the batch path and the
        // streaming sweep must agree window for window.
        assert_eq!(alarms, batch_alarms);
        assert_eq!(verdicts, batch_verdicts);

        // A reset detector replays the same record identically.
        streaming.reset();
        assert_eq!(streaming.next_window_index(), 0);
        let mut replay = Vec::new();
        for (&a, &b) in record
            .signal()
            .f7t3()
            .iter()
            .zip(record.signal().f8t4().iter())
        {
            if let Some(det) = streaming.push(a, b).unwrap() {
                replay.push(det.alarm);
            }
        }
        assert_eq!(replay, alarms);
    }
}
