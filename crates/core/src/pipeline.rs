//! The self-learning pipeline (paper §III, Fig. 1).
//!
//! The loop closes as follows: a seizure is missed by the real-time detector,
//! the patient confirms it within the next hour, the a-posteriori algorithm
//! labels the last hour of signal, the labeled data is added to the patient's
//! personalized training set and the real-time detector is retrained. With
//! every missed seizure the detector becomes more robust.

use crate::algorithm::DetectorConfig;
use crate::error::CoreError;
use crate::label::SeizureLabel;
use crate::labeler::{LabelerConfig, PosterioriLabeler};
use crate::realtime::{
    balanced_indices, spread_classes, QualityVerdict, RealTimeDetector, RealTimeDetectorConfig,
};
use crate::workspace::FeatureWorkspace;
use seizure_data::sampler::EegRecord;
use seizure_ml::metrics::ConfusionMatrix;
use seizure_ml::persist::journal::{
    self, CompactionPolicy, DeltaSave, DeltaState, JournalReplayReport, JournalWriter,
};
use seizure_ml::persist::store::{Flash, FlashGeometry, FlashStore, StoreSave};
use seizure_ml::persist::{PersistError, SnapshotKind, SnapshotReader, SnapshotWriter};

/// Where the seizure labels used for training come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LabelSource {
    /// Labels produced by the a-posteriori minimally-supervised algorithm
    /// (the paper's proposal).
    #[default]
    Algorithm,
    /// Expert (ground-truth) labels — the paper's baseline for Fig. 4.
    Expert,
}

/// Evaluation summary of a trained pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfLearningReport {
    /// Per-window sensitivity of the real-time detector.
    pub sensitivity: f64,
    /// Per-window specificity of the real-time detector.
    pub specificity: f64,
    /// Geometric mean of sensitivity and specificity (the paper's Fig. 4
    /// metric).
    pub geometric_mean: f64,
    /// Number of evaluation windows.
    pub windows: usize,
}

impl SelfLearningReport {
    /// Builds a report from a confusion matrix.
    pub fn from_confusion(cm: &ConfusionMatrix) -> Self {
        Self {
            sensitivity: cm.sensitivity(),
            specificity: cm.specificity(),
            geometric_mean: cm.geometric_mean(),
            windows: cm.total(),
        }
    }
}

/// The self-learning pipeline: a-posteriori labeler + personalized training
/// set + real-time detector.
///
/// # Example
///
/// ```no_run
/// use seizure_core::pipeline::{LabelSource, SelfLearningPipeline};
/// use seizure_core::labeler::LabelerConfig;
/// use seizure_core::realtime::RealTimeDetectorConfig;
/// use seizure_data::cohort::Cohort;
/// use seizure_data::sampler::SampleConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cohort = Cohort::chb_mit_like(1);
/// let config = SampleConfig::fast_test()?;
/// let mut pipeline = SelfLearningPipeline::new(
///     LabelerConfig::default(),
///     RealTimeDetectorConfig::default(),
/// );
///
/// // Two missed seizures are reported by the patient and learned from.
/// for seizure in 0..2 {
///     let record = cohort.sample_record(0, seizure, &config, 0)?;
///     let w = cohort.average_seizure_duration(0)?;
///     pipeline.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
/// }
/// assert_eq!(pipeline.num_seizures_collected(), 2);
///
/// // Evaluate the personalized detector on a held-out seizure.
/// let held_out = cohort.sample_record(0, 2, &config, 1)?;
/// let report = pipeline.evaluate(&held_out)?;
/// println!("geometric mean = {:.3}", report.geometric_mean);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SelfLearningPipeline {
    labeler: PosterioriLabeler,
    detector: RealTimeDetector,
    /// Staging buffers for one record's balanced selection: the window
    /// indices in staged order and their labels, reused across records. The
    /// staged rows themselves live in the workspace matrix, and the
    /// accumulated training pool inside the detector's incremental trainer.
    batch_windows: Vec<usize>,
    batch_labels: Vec<bool>,
    num_seizures: usize,
    /// Records the quality gate refused to learn from (too many `Reject`
    /// windows, or a whole class rejected): they never reach the labeler or
    /// the incremental pool.
    num_quarantined: usize,
    produced_labels: Vec<SeizureLabel>,
    /// Extraction state reused across every record the pipeline touches.
    workspace: FeatureWorkspace,
    /// Delta-journal state armed by
    /// [`SelfLearningPipeline::save_delta_with`] /
    /// [`SelfLearningPipeline::resume_with_journal`]; `None` while the
    /// pipeline persists through full snapshots only. The pipeline is the
    /// device's one durable unit: each entry carries the staged batch plus
    /// the produced seizure label and the gate reference as its annotation,
    /// so a resume also restores the seizure counter, the label history and
    /// the gate calibration.
    delta: Option<DeltaState>,
}

/// What a labeled record contributes to the training pool, decided from its
/// window labels and quality verdicts before any rich feature is extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    /// No window of the record is a seizure window: nothing to learn.
    NoSeizure,
    /// The quality gate struck one whole class: the record is quarantined.
    OneClassRejected,
    /// The balanced batch is staged in `batch_windows` / `batch_labels`.
    Staged,
}

/// Fraction of `Reject` windows above which a reported record is quarantined
/// outright instead of being labeled and learned from. A quarter of the
/// record is far beyond what transient artifacts produce on acceptable
/// signal, while records degraded by sustained artifact (saturation, severe
/// wander, electrode dropout) reject the majority of their windows.
pub const QUARANTINE_REJECT_FRACTION: f64 = 0.25;

/// Length of the per-entry annotation: the produced label's onset and offset
/// plus the quality gate's post-record amplitude reference (two per-channel
/// log-std references and the calibration weight), five little-endian `f64`s
/// in total. Carrying the gate reference per entry keeps a journal-replayed
/// resume state-identical to the pipeline that never powered down even
/// though gate calibration advances with every learned record.
const LABEL_ANNOTATION_LEN: usize = 40;

/// The labeler block's implementation marker: `1` names Algorithm 1's
/// prefix-sum implementation, the only one; `resume` rejects any other value.
const LABELER_IMPLEMENTATION_MARKER: u8 = 1;

fn encode_annotation(
    label: &SeizureLabel,
    gate_ref: [f64; 2],
    gate_weight: f64,
) -> [u8; LABEL_ANNOTATION_LEN] {
    let mut bytes = [0u8; LABEL_ANNOTATION_LEN];
    bytes[..8].copy_from_slice(&label.onset_secs().to_le_bytes());
    bytes[8..16].copy_from_slice(&label.offset_secs().to_le_bytes());
    bytes[16..24].copy_from_slice(&gate_ref[0].to_le_bytes());
    bytes[24..32].copy_from_slice(&gate_ref[1].to_le_bytes());
    bytes[32..].copy_from_slice(&gate_weight.to_le_bytes());
    bytes
}

fn decode_annotation(
    annotation: &[u8],
    index: usize,
) -> Result<(SeizureLabel, [f64; 2], f64), PersistError> {
    let bytes: [u8; LABEL_ANNOTATION_LEN] =
        annotation.try_into().map_err(|_| PersistError::Corrupted {
            detail: format!(
                "journal entry {index} annotates {} bytes, expected a {LABEL_ANNOTATION_LEN}-byte \
                 seizure label plus gate reference",
                annotation.len()
            ),
        })?;
    let f = |at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let label = SeizureLabel::new(f(0), f(8)).map_err(|e| PersistError::Corrupted {
        detail: format!("journal entry {index} annotates a label that does not reconstruct: {e}"),
    })?;
    let gate_ref = [f(16), f(24)];
    let gate_weight = f(32);
    if !gate_ref.iter().all(|v| v.is_finite()) || !gate_weight.is_finite() || gate_weight < 0.0 {
        return Err(PersistError::Corrupted {
            detail: format!("journal entry {index} annotates a non-finite gate reference"),
        });
    }
    Ok((label, gate_ref, gate_weight))
}

impl SelfLearningPipeline {
    /// Creates an empty pipeline.
    pub fn new(labeler_config: LabelerConfig, detector_config: RealTimeDetectorConfig) -> Self {
        Self {
            labeler: PosterioriLabeler::new(labeler_config),
            detector: RealTimeDetector::new(detector_config),
            batch_windows: Vec::new(),
            batch_labels: Vec::new(),
            num_seizures: 0,
            num_quarantined: 0,
            produced_labels: Vec::new(),
            workspace: FeatureWorkspace::new(),
            delta: None,
        }
    }

    /// The a-posteriori labeler used by the pipeline.
    pub fn labeler(&self) -> &PosterioriLabeler {
        &self.labeler
    }

    /// The (possibly still untrained) real-time detector.
    pub fn detector(&self) -> &RealTimeDetector {
        &self.detector
    }

    /// Number of missed seizures that have been labeled and learned from.
    pub fn num_seizures_collected(&self) -> usize {
        self.num_seizures
    }

    /// Number of reported records the quality gate quarantined instead of
    /// learning from: their per-window verdicts contained too many `Reject`
    /// windows (hostile signal), so they never reached the a-posteriori
    /// labeler or the incremental training pool.
    pub fn num_quarantined(&self) -> usize {
        self.num_quarantined
    }

    /// Size of the accumulated personalized training set, in windows.
    pub fn training_windows(&self) -> usize {
        self.detector
            .incremental_trainer()
            .map_or(0, |t| t.num_samples())
    }

    /// The labels produced so far (one per observed missed seizure).
    pub fn produced_labels(&self) -> &[SeizureLabel] {
        &self.produced_labels
    }

    /// Processes one missed seizure: labels the record (with the algorithm or
    /// with the expert annotation, depending on `source`), adds a balanced set
    /// of windows to the personalized training set and retrains the real-time
    /// detector. Returns the label that was used, or `None` when the
    /// detector's quality gate quarantined the record **before the labeler
    /// ran**: a record whose fraction of `Reject` windows exceeds
    /// [`QUARANTINE_REJECT_FRACTION`] carries artifact, not brain signal, and
    /// letting the a-posteriori labeler loose on it would poison the
    /// personalized training set. Quarantined records count in
    /// [`SelfLearningPipeline::num_quarantined`] and change nothing else.
    ///
    /// # Errors
    ///
    /// Propagates labeling, feature-extraction and training failures.
    pub fn observe_missed_seizure(
        &mut self,
        record: &EegRecord,
        average_seizure_secs: f64,
        source: LabelSource,
    ) -> Result<Option<SeizureLabel>, CoreError> {
        if self.quarantine_check(record)? {
            self.num_quarantined += 1;
            return Ok(None);
        }
        let label = match source {
            LabelSource::Algorithm => {
                // A fresh workspace per record, as the `learn` benchmark's
                // paper-feature replay uses.
                let mut fresh = FeatureWorkspace::new();
                self.labeler
                    .label(record.signal(), average_seizure_secs, &mut fresh)?
                    .0
            }
            LabelSource::Expert => {
                SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?
            }
        };
        self.learn_record(record, &label)?;
        Ok(Some(label))
    }

    /// Adds one labeled record to the personalized training set and retrains
    /// the detector. This is the low-level entry point used by
    /// [`SelfLearningPipeline::observe_missed_seizure`]; it can also be called
    /// directly with an externally produced label.
    ///
    /// Selection comes before extraction: the balanced batch is picked as
    /// window indices from the per-window labels (window geometry alone)
    /// and the quality verdicts, and only those windows' rich features are
    /// extracted into the pipeline's reusable workspace, in staged order —
    /// about 5 % of a 45-minute record's windows. Each staged row is
    /// bit-identical to the same window's row of the full-record
    /// [`RealTimeDetector::build_training_windows_with`], so the pool, the
    /// forest and the journal are exactly what extracting every window would
    /// give. [`RealTimeDetector::retrain_incremental`] then appends the batch
    /// to the detector's growing pool — merging the sorted batch into each
    /// feature's presorted run and refitting only the trees whose bootstrap
    /// pools the new windows touched.
    ///
    /// The seizure counter follows the label's **actual seizure content**: a
    /// label that marks no window of this record as seizure (too short for
    /// the half-window overlap rule, or lying outside the recording) adds
    /// nothing to the training pool and does not advance
    /// [`SelfLearningPipeline::num_seizures_collected`] — the call is a
    /// no-op, not an error, so external label producers can stream
    /// uncurated labels through this entry point.
    ///
    /// Like [`SelfLearningPipeline::observe_missed_seizure`], this entry
    /// point is quarantine-aware: a record the quality gate rejects outright
    /// is counted in [`SelfLearningPipeline::num_quarantined`] and learned
    /// from not at all, and individual `Reject` windows of an accepted
    /// record are excluded from the balanced selection. With the gate
    /// disabled in the detector's configuration, behavior is exactly the
    /// pre-gate pipeline's.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and training failures.
    pub fn add_training_record(
        &mut self,
        record: &EegRecord,
        label: &SeizureLabel,
    ) -> Result<(), CoreError> {
        if self.quarantine_check(record)? {
            self.num_quarantined += 1;
            return Ok(());
        }
        self.learn_record(record, label)
    }

    /// Assesses the record's per-window quality into the workspace (gate
    /// enabled only) and reports whether the record as a whole must be
    /// quarantined. On `Ok(false)` with the gate enabled, the workspace's
    /// quality matrix and verdicts are left filled for this record, ready
    /// for [`SelfLearningPipeline::learn_record`].
    fn quarantine_check(&mut self, record: &EegRecord) -> Result<bool, CoreError> {
        if !self.detector.config().quality_gate {
            return Ok(false);
        }
        self.detector
            .assess_quality_into(record.signal(), &mut self.workspace)?;
        let verdicts = &self.workspace.verdicts;
        if verdicts.is_empty() {
            return Ok(false);
        }
        let rejected = verdicts
            .iter()
            .filter(|&&v| v == QualityVerdict::Reject)
            .count();
        Ok(rejected as f64 > QUARANTINE_REJECT_FRACTION * verdicts.len() as f64)
    }

    /// The staging and retraining core shared by the two public entry
    /// points, run after the record has passed the quarantine check.
    ///
    /// Selection comes first. The per-window labels follow from the window
    /// geometry and the quality verdicts are already in the workspace, so
    /// the balanced batch is chosen as window indices before any rich
    /// feature exists. One extraction then fills the workspace matrix with
    /// exactly the staged windows, in staged order, and the retrain and the
    /// journal read that matrix directly.
    fn learn_record(&mut self, record: &EegRecord, label: &SeizureLabel) -> Result<(), CoreError> {
        let signal = record.signal();
        let labels = self.detector.training_labels(signal, label)?;
        // The quarantine check left this record's verdicts in the workspace;
        // the gate both calibrates its amplitude reference from the record's
        // clean seizure-free windows and strikes `Reject` windows from the
        // balanced selection.
        let gated =
            self.detector.config().quality_gate && self.workspace.verdicts.len() == labels.len();
        let selection = self.select_batch(&labels, gated);
        // The extraction runs on every path, with nothing selected when
        // nothing will be learned, so a record the full-record extraction
        // refuses (shorter than one window) still fails with that error
        // before any state changes.
        self.detector
            .extract_windows_with(signal, &self.batch_windows, &mut self.workspace)?;
        let selection = selection?;
        if selection == Selection::NoSeizure {
            return Ok(());
        }
        if gated {
            self.detector.calibrate_from_quality(
                &self.workspace.quality,
                &self.workspace.verdicts,
                &labels,
            );
        }
        if selection == Selection::OneClassRejected {
            // The gate struck out one whole class: there is nothing balanced
            // left to learn, so the record is quarantined rather than erroring.
            self.num_quarantined += 1;
            return Ok(());
        }
        let matrix = self.workspace.matrix();
        let num_features = matrix.num_features();
        self.detector
            .retrain_incremental(matrix.data(), num_features, &self.batch_labels)?;
        self.num_seizures += 1;
        self.produced_labels.push(*label);
        // With delta persistence armed, journal the staged batch together
        // with the produced label and the gate's post-record amplitude
        // reference, so the next delta save appends O(batch) bytes and a
        // resume restores the counter, the label history and the gate
        // calibration.
        if let Some(delta) = &mut self.delta {
            let gate = self.detector.quality_gate();
            let annotation =
                encode_annotation(label, gate.reference_log_std(), gate.calibration_weight());
            delta
                .writer
                .append(matrix.data(), num_features, &self.batch_labels, &annotation)?;
        }
        Ok(())
    }

    /// Stages a record's balanced selection into `batch_windows` /
    /// `batch_labels` from its per-window labels and, when `gated`, the
    /// quality verdicts in the workspace. No feature is read.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidState`] from [`balanced_indices`] when an ungated
    /// record has no seizure-free window.
    fn select_batch(&mut self, labels: &[bool], gated: bool) -> Result<Selection, CoreError> {
        self.batch_windows.clear();
        self.batch_labels.clear();
        if !labels.iter().any(|&l| l) {
            return Ok(Selection::NoSeizure);
        }
        let eligible: Vec<usize> = if gated {
            (0..labels.len())
                .filter(|&w| self.workspace.verdicts[w] != QualityVerdict::Reject)
                .collect()
        } else {
            (0..labels.len()).collect()
        };
        let eligible_labels: Vec<bool> = eligible.iter().map(|&w| labels[w]).collect();
        if gated && (!eligible_labels.iter().any(|&l| l) || eligible_labels.iter().all(|&l| l)) {
            return Ok(Selection::OneClassRejected);
        }
        let selected = balanced_indices(&eligible_labels)?;
        // `balanced_indices` returns every positive followed by the sampled
        // negatives; staged in that order a long seizure (more positive
        // windows than `block_size`) would fill whole ownership blocks of
        // the incremental pool with one class, so the classes are spread
        // first.
        for i in spread_classes(&selected, &eligible_labels) {
            self.batch_windows.push(eligible[i]);
            self.batch_labels.push(eligible_labels[i]);
        }
        Ok(Selection::Staged)
    }

    /// Serializes the pipeline's full persistent state — labeler
    /// configuration, the detector (gate calibration and incremental pool;
    /// see [`RealTimeDetector::save_state`]), the seizure counter and every
    /// produced label — into the versioned binary snapshot format of
    /// [`seizure_ml::persist`]. The extraction workspace and the batch
    /// staging buffers are scratch and are not stored; a resumed pipeline
    /// regrows them on first use.
    pub fn save(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let labeler = self.labeler.config();
        w.f64(labeler.window_secs);
        w.f64(labeler.overlap);
        w.usize(labeler.detector.subsample_step);
        // The implementation marker and the normalization flag: Algorithm 1
        // has one implementation and always normalizes, and `resume`
        // accepts only these two values.
        w.u8(LABELER_IMPLEMENTATION_MARKER);
        w.bool(true);
        // The detector (and through it the O(pool) trainer payload) is
        // nested in place — lengths and checksums are back-patched instead
        // of memcpying separately finished child envelopes.
        let child = w.begin_nested(SnapshotKind::RealTimeDetector);
        self.detector.write_state_body(&mut w);
        w.end_nested(child);
        w.usize(self.num_seizures);
        w.usize(self.num_quarantined);
        w.usize(self.produced_labels.len());
        for label in &self.produced_labels {
            w.f64(label.onset_secs());
            w.f64(label.offset_secs());
        }
        w.finish(SnapshotKind::SelfLearningPipeline)
    }

    /// Restores a pipeline from a [`SelfLearningPipeline::save`] snapshot.
    /// The resumed pipeline reproduces the original's detections on any
    /// record and continues learning exactly where it stopped: the next
    /// [`SelfLearningPipeline::observe_missed_seizure`] retrains
    /// node-identically to a pipeline that never shut down.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] for truncated, foreign, corrupted,
    /// version-mismatched or internally inconsistent snapshots — never a
    /// panic.
    pub fn resume(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = SnapshotReader::open(bytes, SnapshotKind::SelfLearningPipeline)?;
        let window_secs = r.f64()?;
        let overlap = r.f64()?;
        let subsample_step = r.usize()?;
        let marker = r.u8()?;
        if marker != LABELER_IMPLEMENTATION_MARKER {
            return Err(PersistError::Corrupted {
                detail: format!("unknown labeler implementation marker {marker}"),
            }
            .into());
        }
        if !r.bool()? {
            return Err(PersistError::Corrupted {
                detail: "the labeler block disables feature normalization".to_string(),
            }
            .into());
        }
        let detector = RealTimeDetector::load_state(r.nested()?)?;
        let num_seizures = r.usize()?;
        let num_quarantined = r.usize()?;
        let num_labels = r.usize()?;
        let mut produced_labels = Vec::with_capacity(num_labels.min(1024));
        for _ in 0..num_labels {
            let onset = r.f64()?;
            let offset = r.f64()?;
            produced_labels.push(SeizureLabel::new(onset, offset).map_err(|e| {
                PersistError::Corrupted {
                    detail: format!("stored label does not reconstruct: {e}"),
                }
            })?);
        }
        r.finish()?;
        let labeler_config = LabelerConfig {
            window_secs,
            overlap,
            detector: DetectorConfig { subsample_step },
        };
        Ok(Self {
            labeler: PosterioriLabeler::new(labeler_config),
            detector,
            batch_windows: Vec::new(),
            batch_labels: Vec::new(),
            num_seizures,
            num_quarantined,
            produced_labels,
            workspace: FeatureWorkspace::new(),
            delta: None,
        })
    }

    /// Per-seizure persistence: returns the **delta** Flash write that makes
    /// the pipeline's current state durable, instead of re-writing the whole
    /// O(pool) snapshot every time. The first call returns
    /// [`DeltaSave::Full`] (write as the base snapshot, erase the journal
    /// region); afterwards each learned seizure costs one O(batch)
    /// [`DeltaSave::Append`], until `policy` folds the journal into a fresh
    /// full base; with nothing new to persist it returns
    /// [`DeltaSave::Clean`]. Restore with
    /// [`SelfLearningPipeline::resume_with_journal`].
    /// [`SelfLearningPipeline::save_to_store`] performs these writes on a
    /// crash-proof [`FlashStore`].
    pub fn save_delta_with(&mut self, policy: CompactionPolicy) -> DeltaSave {
        if let Some(save) = self.delta.as_mut().and_then(|d| d.save(policy)) {
            return save;
        }
        self.rebase_delta()
    }

    /// Writes a fresh full base snapshot and arms an empty journal over it.
    fn rebase_delta(&mut self) -> DeltaSave {
        let base = self.save();
        let writer = JournalWriter::new(&base, self.training_windows())
            .expect("save emits a valid envelope");
        self.delta = Some(DeltaState {
            writer,
            base_len: base.len(),
        });
        DeltaSave::Full(base)
    }

    /// Formats `flash` as a crash-proof A/B [`FlashStore`], commits the
    /// pipeline's current state as the first base and arms delta
    /// persistence — the first-boot counterpart of
    /// [`SelfLearningPipeline::resume_from_store`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Persist`] when the geometry does not fit the device or
    /// the snapshot does not fit a slot.
    pub fn init_store<F: Flash>(
        &mut self,
        flash: F,
        geometry: FlashGeometry,
    ) -> Result<FlashStore<F>, CoreError> {
        let DeltaSave::Full(base) = self.rebase_delta() else {
            unreachable!("rebase always yields a full snapshot");
        };
        Ok(FlashStore::format(flash, geometry, &base)?)
    }

    /// Persists the pipeline through a crash-proof [`FlashStore`]: a clean
    /// state writes nothing, each learned seizure appends one O(batch)
    /// journal entry, and once the journal passes the store's
    /// capacity-derived [`FlashStore::compaction_policy`] (or a single entry
    /// outgrows the region) the state is compacted into the inactive base
    /// slot. A power loss at any byte of these writes leaves the previous
    /// state recoverable by [`FlashStore::mount`] +
    /// [`SelfLearningPipeline::resume_from_store`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Persist`] for store or Flash failures; after an error
    /// recover by remounting and resuming, as a device would post-crash.
    pub fn save_to_store<F: Flash>(
        &mut self,
        store: &mut FlashStore<F>,
    ) -> Result<StoreSave, CoreError> {
        match self.save_delta_with(store.compaction_policy()) {
            DeltaSave::Clean => Ok(StoreSave::Clean),
            DeltaSave::Full(base) => {
                store.commit_base(&base)?;
                Ok(StoreSave::Rebased)
            }
            DeltaSave::Append(entry) => {
                if entry.len() <= store.journal_remaining() {
                    store.append_journal(&entry)?;
                    Ok(StoreSave::Appended)
                } else {
                    let DeltaSave::Full(base) = self.rebase_delta() else {
                        unreachable!("rebase always yields a full snapshot");
                    };
                    store.commit_base(&base)?;
                    Ok(StoreSave::Rebased)
                }
            }
        }
    }

    /// Restores a pipeline from a mounted [`FlashStore`]: replays the
    /// journal prefix the store arbitrated onto the committed base
    /// (re-learning each journaled seizure) and arms delta persistence for
    /// the next [`SelfLearningPipeline::save_to_store`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Persist`] under the same conditions as
    /// [`SelfLearningPipeline::resume_with_journal`].
    pub fn resume_from_store<F: Flash>(
        store: &FlashStore<F>,
    ) -> Result<(Self, JournalReplayReport), CoreError> {
        let base = store.base()?;
        let journal_bytes = store.journal()?;
        Self::resume_with_journal(&base, &journal_bytes)
    }

    /// Restores a pipeline from a base snapshot plus its delta journal and
    /// arms delta persistence for the next
    /// [`SelfLearningPipeline::save_delta_with`]. Each journal entry's balanced
    /// batch is appended to the incremental trainer's pool (one refit covers
    /// the whole journal) **and** its annotation restores the produced label
    /// and the seizure counter; the last entry's restores the quality gate's
    /// amplitude reference. The resumed pipeline is state-identical to the
    /// one that never powered down. (The quarantine
    /// counter is the one best-effort field: quarantined records train
    /// nothing and therefore journal nothing, so quarantines that happened
    /// after the base snapshot are not recounted on replay.) A torn final
    /// entry (power loss mid-append) is dropped; the
    /// report's `valid_len` says where to truncate the journal file before
    /// appending again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] for a malformed base snapshot, for
    /// journal corruption that is not a clean tail tear (bad magic, foreign
    /// version, checksum mismatch, wrong kind), for entries that do not
    /// belong (wrong base fingerprint, wrong pool position, or a batch the
    /// trainer no longer accepts) and for entries whose annotation is not a
    /// valid seizure label and gate reference — never a panic, and a batch
    /// is never half-applied.
    pub fn resume_with_journal(
        base: &[u8],
        journal_bytes: &[u8],
    ) -> Result<(Self, JournalReplayReport), CoreError> {
        let mut pipeline = Self::resume(base)?;
        let fingerprint = journal::base_fingerprint(base)?;
        let scan = journal::scan_journal(journal_bytes)?;
        let mut gate = None;
        pipeline
            .detector
            .replay_journal(&scan.entries, fingerprint, |i, entry| {
                let (label, gate_ref, gate_weight) = decode_annotation(&entry.annotation, i)?;
                pipeline.num_seizures += 1;
                pipeline.produced_labels.push(label);
                gate = Some((gate_ref, gate_weight));
                Ok(())
            })?;
        // Each entry carries the gate reference as it stood after that
        // record was learned, so the last one is the live pipeline's.
        if let Some((gate_ref, gate_weight)) = gate {
            pipeline
                .detector
                .restore_gate_reference(gate_ref, gate_weight);
        }
        pipeline.delta = Some(DeltaState {
            writer: JournalWriter::resume(
                fingerprint,
                pipeline.training_windows(),
                scan.valid_len,
                scan.entries.len(),
            ),
            base_len: base.len(),
        });
        Ok((
            pipeline,
            JournalReplayReport {
                entries_applied: scan.entries.len(),
                valid_len: scan.valid_len,
                torn_bytes: scan.torn_bytes,
            },
        ))
    }

    /// Evaluates the current real-time detector on a held-out record, using the
    /// record's ground-truth annotation as the reference.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] if the detector has not been trained
    /// yet and propagates evaluation failures otherwise.
    pub fn evaluate(&self, record: &EegRecord) -> Result<SelfLearningReport, CoreError> {
        let truth = SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
        let cm = self
            .detector
            .evaluate(record.signal(), &truth, &mut FeatureWorkspace::new())?;
        Ok(SelfLearningReport::from_confusion(&cm))
    }

    /// Evaluates the detector on several held-out records and returns the
    /// pooled confusion matrix as a report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `records` is empty and the
    /// errors of [`SelfLearningPipeline::evaluate`] otherwise.
    pub fn evaluate_all(&self, records: &[EegRecord]) -> Result<SelfLearningReport, CoreError> {
        if records.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "records",
                reason: "evaluation requires at least one record".to_string(),
            });
        }
        let mut pooled = ConfusionMatrix::default();
        // One workspace serves the whole sweep: its buffers are grown once
        // and reused per record.
        let mut workspace = FeatureWorkspace::new();
        for record in records {
            let truth =
                SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
            let cm = self
                .detector
                .evaluate(record.signal(), &truth, &mut workspace)?;
            pooled.merge(&cm);
        }
        Ok(SelfLearningReport::from_confusion(&pooled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seizure_data::cohort::Cohort;
    use seizure_data::sampler::SampleConfig;
    use seizure_ml::forest::RandomForestConfig;
    use seizure_ml::persist::store::{FaultyFlash, MemFlash};

    fn fast_detector_config() -> RealTimeDetectorConfig {
        RealTimeDetectorConfig {
            forest: RandomForestConfig {
                n_trees: 8,
                max_depth: 6,
                ..RandomForestConfig::default()
            },
            ..RealTimeDetectorConfig::default()
        }
    }

    fn small_sample_config() -> SampleConfig {
        SampleConfig::new(150.0, 200.0, 64.0).unwrap()
    }

    #[test]
    fn pipeline_learns_from_missed_seizures_and_detects_new_ones() {
        let cohort = Cohort::chb_mit_like(21);
        let config = small_sample_config();
        let patient = 8; // clean patient 9
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        assert_eq!(pipeline.num_seizures_collected(), 0);

        for seizure in 0..2 {
            let record = cohort.sample_record(patient, seizure, &config, 7).unwrap();
            let label = pipeline
                .observe_missed_seizure(&record, w, LabelSource::Algorithm)
                .unwrap()
                .expect("clean records must not be quarantined");
            assert!(label.duration_secs() > 0.0);
        }
        assert_eq!(pipeline.num_seizures_collected(), 2);
        assert_eq!(pipeline.produced_labels().len(), 2);
        assert!(pipeline.training_windows() > 0);
        assert!(pipeline.detector().is_trained());

        let held_out = cohort.sample_record(patient, 2, &config, 8).unwrap();
        let report = pipeline.evaluate(&held_out).unwrap();
        assert!(report.windows > 0);
        assert!(
            report.geometric_mean > 0.5,
            "gmean = {}",
            report.geometric_mean
        );
    }

    #[test]
    fn pipeline_accumulates_through_the_incremental_trainer() {
        let cohort = Cohort::chb_mit_like(25);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        assert_eq!(pipeline.training_windows(), 0);

        let record = cohort.sample_record(patient, 0, &config, 11).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        let after_first = pipeline.training_windows();
        assert!(after_first > 0);
        let trainer = pipeline.detector().incremental_trainer().unwrap();
        assert_eq!(trainer.num_samples(), after_first);

        let record = cohort.sample_record(patient, 1, &config, 12).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        let trainer = pipeline.detector().incremental_trainer().unwrap();
        assert_eq!(trainer.num_samples(), pipeline.training_windows());
        assert!(pipeline.training_windows() > after_first);
        assert!(trainer.last_refit_count() <= trainer.num_trees());
    }

    /// Rebuild a record with its signal degraded by `scenario`, keeping the
    /// annotation — the shape the bench uses for its hostile sweeps.
    fn degraded_record(
        record: &seizure_data::sampler::EegRecord,
        scenario: seizure_data::synth::HostileScenario,
        severity: f64,
        seed: u64,
    ) -> seizure_data::sampler::EegRecord {
        let hostile =
            seizure_data::synth::degrade_signal(record.signal(), scenario, severity, seed).unwrap();
        seizure_data::sampler::EegRecord::new(
            hostile,
            *record.annotation(),
            record.patient_id(),
            record.seizure_index(),
        )
        .unwrap()
    }

    #[test]
    fn hostile_records_are_quarantined_before_the_labeler() {
        let cohort = Cohort::chb_mit_like(33);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 71).unwrap();

        // A hum-swamped record must be turned away at the gate: no label is
        // produced, nothing reaches the trainer, and the detector's model is
        // untouched.
        let hostile = degraded_record(
            &record,
            seizure_data::synth::HostileScenario::MainsHum,
            1.0,
            0xBAD,
        );
        let outcome = pipeline
            .observe_missed_seizure(&hostile, w, LabelSource::Algorithm)
            .unwrap();
        assert!(outcome.is_none(), "hum-swamped record must be quarantined");
        assert_eq!(pipeline.num_quarantined(), 1);
        assert_eq!(pipeline.num_seizures_collected(), 0);
        assert_eq!(pipeline.training_windows(), 0);
        assert!(pipeline.produced_labels().is_empty());
        assert!(!pipeline.detector().is_trained());

        // The externally-labeled path quarantines on the same criterion.
        let truth = crate::label::SeizureLabel::new(
            record.annotation().onset(),
            record.annotation().offset(),
        )
        .unwrap();
        pipeline.add_training_record(&hostile, &truth).unwrap();
        assert_eq!(pipeline.num_quarantined(), 2);
        assert_eq!(pipeline.training_windows(), 0);

        // The same record without the damage trains normally afterwards.
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap()
            .expect("clean record must pass the gate");
        assert_eq!(pipeline.num_seizures_collected(), 1);
        assert!(pipeline.training_windows() > 0);
        assert!(pipeline.detector().is_trained());
    }

    #[test]
    fn quarantine_counter_round_trips_through_save_and_resume() {
        let cohort = Cohort::chb_mit_like(34);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());

        let clean = cohort.sample_record(patient, 0, &config, 81).unwrap();
        pipeline
            .observe_missed_seizure(&clean, w, LabelSource::Algorithm)
            .unwrap()
            .expect("clean record must pass the gate");
        let hostile = degraded_record(
            &cohort.sample_record(patient, 1, &config, 82).unwrap(),
            seizure_data::synth::HostileScenario::Saturation,
            1.0,
            0xBAD2,
        );
        assert!(pipeline
            .observe_missed_seizure(&hostile, w, LabelSource::Algorithm)
            .unwrap()
            .is_none());
        assert_eq!(pipeline.num_quarantined(), 1);

        let resumed = SelfLearningPipeline::resume(&pipeline.save()).unwrap();
        assert_eq!(resumed.num_quarantined(), 1);
        assert_eq!(resumed.num_seizures_collected(), 1);
        assert_eq!(resumed.save(), pipeline.save());
    }

    #[test]
    fn expert_labels_can_be_used_as_a_baseline() {
        let cohort = Cohort::chb_mit_like(22);
        let config = small_sample_config();
        let patient = 4;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 1).unwrap();
        let label = pipeline
            .observe_missed_seizure(&record, w, LabelSource::Expert)
            .unwrap()
            .expect("clean records must not be quarantined");
        // Expert labels coincide exactly with the ground-truth annotation.
        assert_eq!(label.onset_secs(), record.annotation().onset());
        assert_eq!(label.offset_secs(), record.annotation().offset());
    }

    #[test]
    fn non_seizure_labels_are_not_counted_as_collected_seizures() {
        // Regression: `add_training_record` used to be all-or-nothing around
        // the seizure counter; an externally produced label that marks no
        // window of the record must neither train nor count.
        let cohort = Cohort::chb_mit_like(26);
        let config = small_sample_config();
        let patient = 8;
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 5).unwrap();

        // A label entirely past the end of the record yields no seizure
        // window under the half-overlap rule.
        let beyond = record.signal().duration_secs() + 100.0;
        let label = crate::label::SeizureLabel::new(beyond, beyond + 30.0).unwrap();
        pipeline.add_training_record(&record, &label).unwrap();
        assert_eq!(pipeline.num_seizures_collected(), 0);
        assert_eq!(pipeline.training_windows(), 0);
        assert!(pipeline.produced_labels().is_empty());
        assert!(!pipeline.detector().is_trained());

        // A genuine seizure label afterwards trains and counts exactly once.
        let truth = crate::label::SeizureLabel::new(
            record.annotation().onset(),
            record.annotation().offset(),
        )
        .unwrap();
        pipeline.add_training_record(&record, &truth).unwrap();
        assert_eq!(pipeline.num_seizures_collected(), 1);
        assert!(pipeline.training_windows() > 0);
    }

    #[test]
    fn staged_batches_spread_classes_when_positives_dominate() {
        // A label covering most of the record yields far more seizure than
        // seizure-free windows; the staging buffer must still spread the
        // negatives through the positives so no ownership block of the
        // incremental pool is filled by one class.
        let cohort = Cohort::chb_mit_like(28);
        let config = small_sample_config();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(8, 0, &config, 6).unwrap();
        let label =
            crate::label::SeizureLabel::new(1.0, record.signal().duration_secs() * 0.8).unwrap();
        pipeline.add_training_record(&record, &label).unwrap();

        let staged = &pipeline.batch_labels;
        let pos = staged.iter().filter(|&&l| l).count();
        let neg = staged.len() - pos;
        assert!(pos > neg, "the label should dominate: {pos} vs {neg}");
        let mut max_run = 0;
        let mut run = 0;
        let mut prev = None;
        for &l in staged {
            run = if prev == Some(l) { run + 1 } else { 1 };
            prev = Some(l);
            max_run = max_run.max(run);
        }
        assert!(
            max_run <= pos.div_ceil(neg) + 1,
            "max single-class run {max_run} exceeds the class ratio bound"
        );
    }

    /// The batch a record used to stage when the pipeline extracted every
    /// window first, rebuilt from the full-record reference path: label and
    /// extract the whole record, strike `Reject` windows when gated,
    /// balance, spread the classes, gather the rows. Also returns how many
    /// windows the gate struck.
    fn full_record_staging(
        detector: &RealTimeDetector,
        record: &EegRecord,
        label: &SeizureLabel,
    ) -> (Vec<f64>, Vec<bool>, usize) {
        let mut ws = FeatureWorkspace::new();
        let labels = detector
            .build_training_windows_with(record.signal(), label, &mut ws)
            .unwrap();
        let eligible: Vec<usize> = if detector.config().quality_gate {
            detector
                .assess_quality_into(record.signal(), &mut ws)
                .unwrap();
            (0..labels.len())
                .filter(|&w| ws.verdicts[w] != QualityVerdict::Reject)
                .collect()
        } else {
            (0..labels.len()).collect()
        };
        let eligible_labels: Vec<bool> = eligible.iter().map(|&w| labels[w]).collect();
        let selected = balanced_indices(&eligible_labels).unwrap();
        let num_pos = eligible_labels.iter().filter(|&&l| l).count();
        let (pos, neg) = selected.split_at(num_pos);
        let (mut rows, mut staged) = (Vec::new(), Vec::new());
        let (mut p, mut n) = (0, 0);
        while p < pos.len() || n < neg.len() {
            let pick_pos = n >= neg.len() || (p < pos.len() && p * neg.len() <= n * pos.len());
            let i = if pick_pos {
                p += 1;
                pos[p - 1]
            } else {
                n += 1;
                neg[n - 1]
            };
            rows.extend_from_slice(ws.matrix().row(eligible[i]));
            staged.push(eligible_labels[i]);
        }
        (rows, staged, labels.len() - eligible.len())
    }

    /// Checks the batch the pipeline journaled for its last learned record
    /// against [`full_record_staging`], rows and labels to the bit, and
    /// returns the number of windows the gate struck from the record.
    fn assert_journaled_batch_is_the_full_record_staging(
        pipeline: &SelfLearningPipeline,
        record: &EegRecord,
        label: &SeizureLabel,
        case: &str,
    ) -> usize {
        let keep_journal = CompactionPolicy {
            max_journal_fraction: f64::INFINITY,
            min_journal_bytes: usize::MAX,
        };
        let entry = match pipeline.clone().save_delta_with(keep_journal) {
            DeltaSave::Append(bytes) => journal::scan_journal(&bytes)
                .unwrap()
                .entries
                .pop()
                .unwrap(),
            other => panic!("{case}: a learned record must append, got {other:?}"),
        };
        let (rows, labels, struck) = full_record_staging(pipeline.detector(), record, label);
        assert_eq!(entry.labels, labels, "{case}: staged labels differ");
        assert_eq!(entry.rows.len(), rows.len(), "{case}: staged row count");
        for (k, (a, b)) in entry.rows.iter().zip(&rows).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{case}: batch value {k}: {a} vs {b}"
            );
        }
        struck
    }

    #[test]
    fn journaled_batches_equal_the_full_record_staging_bit_for_bit() {
        let cohort = Cohort::chb_mit_like(35);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        for quality_gate in [false, true] {
            let mut pipeline = SelfLearningPipeline::new(
                LabelerConfig::default(),
                RealTimeDetectorConfig {
                    quality_gate,
                    ..fast_detector_config()
                },
            );
            pipeline.save_delta_with(CompactionPolicy::default());
            for seizure in 0..2 {
                let record = cohort
                    .sample_record(patient, seizure, &config, 90 + seizure as u64)
                    .unwrap();
                let label = pipeline
                    .observe_missed_seizure(&record, w, LabelSource::Algorithm)
                    .unwrap()
                    .expect("clean records must not be quarantined");
                let case = format!("gate {quality_gate}, clean seizure {seizure}");
                assert_journaled_batch_is_the_full_record_staging(
                    &pipeline, &record, &label, &case,
                );
            }

            // Electrode pops at low severity: the gate strikes some windows
            // but stays under the quarantine fraction.
            let record = degraded_record(
                &cohort.sample_record(patient, 2, &config, 93).unwrap(),
                seizure_data::synth::HostileScenario::ElectrodePop,
                0.5,
                0xF00D,
            );
            let label = pipeline
                .observe_missed_seizure(&record, w, LabelSource::Expert)
                .unwrap()
                .expect("a few popped windows must not quarantine the record");
            let case = format!("gate {quality_gate}, popped record");
            let struck = assert_journaled_batch_is_the_full_record_staging(
                &pipeline, &record, &label, &case,
            );
            assert_eq!(struck > 0, quality_gate, "{case}: {struck} windows struck");

            // Positives dominate: the selection is the whole record.
            let record = cohort.sample_record(patient, 0, &config, 6).unwrap();
            let label = SeizureLabel::new(1.0, record.signal().duration_secs() * 0.8).unwrap();
            pipeline.add_training_record(&record, &label).unwrap();
            let case = format!("gate {quality_gate}, positives dominate");
            assert_journaled_batch_is_the_full_record_staging(&pipeline, &record, &label, &case);
            assert_eq!(pipeline.num_seizures_collected(), 4, "{case}");
        }
    }

    #[test]
    fn records_shorter_than_one_window_still_fail_extraction() {
        // Regression: the window labels now come from the geometry alone, so
        // a record without one complete window labels nothing; it must still
        // fail with the extraction error instead of passing as a no-op.
        let fs = 64.0;
        let n = 200; // a 4 s window needs 256 samples at 64 Hz
        let signal = seizure_data::signal::EegSignal::new(vec![0.1; n], vec![0.2; n], fs).unwrap();
        let annotation = seizure_data::annotation::SeizureAnnotation::new(0.5, 2.5).unwrap();
        let record = EegRecord::new(signal, annotation, 1, 0).unwrap();
        let label = SeizureLabel::new(0.5, 2.5).unwrap();
        let expected = CoreError::Feature(seizure_features::FeatureError::SignalTooShort {
            actual: n,
            required: 256,
        });
        for quality_gate in [false, true] {
            let mut pipeline = SelfLearningPipeline::new(
                LabelerConfig::default(),
                RealTimeDetectorConfig {
                    quality_gate,
                    ..fast_detector_config()
                },
            );
            assert_eq!(
                pipeline.add_training_record(&record, &label),
                Err(expected.clone())
            );
            assert_eq!(
                pipeline.observe_missed_seizure(&record, 2.0, LabelSource::Expert),
                Err(expected.clone())
            );
            assert_eq!(pipeline.num_seizures_collected(), 0);
            assert_eq!(pipeline.num_quarantined(), 0);
            assert_eq!(pipeline.training_windows(), 0);
        }
    }

    #[test]
    fn resumed_pipeline_reproduces_detections_and_keeps_learning() {
        let cohort = Cohort::chb_mit_like(27);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 21).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();

        // Save, cross the "process boundary", resume.
        let snapshot = pipeline.save();
        let mut resumed = SelfLearningPipeline::resume(&snapshot).unwrap();
        assert_eq!(resumed.num_seizures_collected(), 1);
        assert_eq!(resumed.produced_labels(), pipeline.produced_labels());
        assert_eq!(resumed.training_windows(), pipeline.training_windows());

        // Same detections on a held-out record...
        let held_out = cohort.sample_record(patient, 2, &config, 22).unwrap();
        assert_eq!(
            resumed.detector().detect(held_out.signal()).unwrap(),
            pipeline.detector().detect(held_out.signal()).unwrap()
        );

        // ...and the next missed seizure retrains node-identically to the
        // pipeline that never shut down.
        let second = cohort.sample_record(patient, 1, &config, 23).unwrap();
        pipeline
            .observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap();
        resumed
            .observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap();
        assert_eq!(
            resumed.detector().flat_forest(),
            pipeline.detector().flat_forest()
        );
        assert_eq!(resumed.num_seizures_collected(), 2);
    }

    #[test]
    fn pipeline_delta_saves_resume_with_labels_and_counters() {
        let cohort = Cohort::chb_mit_like(29);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());

        // Seizure 1, then the first delta save: a full base.
        let record = cohort.sample_record(patient, 0, &config, 31).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        let base = match pipeline.save_delta_with(CompactionPolicy::default()) {
            DeltaSave::Full(bytes) => bytes,
            other => panic!("first delta save must be full, got {other:?}"),
        };
        assert_eq!(
            pipeline.save_delta_with(CompactionPolicy::default()),
            DeltaSave::Clean
        );
        let mut pools = vec![pipeline.training_windows()];

        // Seizures 2-4: one O(batch) append each. With few seizures in the
        // base, a batch is a large fraction of the pool and the default
        // policy would legitimately compact — a lenient one pins the append
        // outcome this early-life test is about.
        let lenient = CompactionPolicy {
            max_journal_fraction: 100.0,
            ..CompactionPolicy::default()
        };
        let mut journal = Vec::new();
        for seizure in 1..4 {
            let record = cohort
                .sample_record(patient, seizure, &config, 31 + seizure as u64)
                .unwrap();
            pipeline
                .observe_missed_seizure(&record, w, LabelSource::Algorithm)
                .unwrap();
            let entry = match pipeline.save_delta_with(lenient) {
                DeltaSave::Append(bytes) => bytes,
                other => panic!("steady-state delta save must append, got {other:?}"),
            };
            assert!(
                entry.len() < base.len(),
                "append of {} bytes vs base of {}",
                entry.len(),
                base.len()
            );
            journal.extend_from_slice(&entry);
            pools.push(pipeline.training_windows());
        }
        // The entries cross an ownership-block boundary before the last one
        // and end in the cold-start regime (fewer blocks than trees), where
        // replay's single refit must still report the last entry's own
        // refit count.
        let detector_config = fast_detector_config();
        let block = detector_config.incremental_block_size;
        assert!(
            pools[0] / block < pools[2] / block
                && pools[3].div_ceil(block) < detector_config.forest.n_trees,
            "pool growth {pools:?} must cross a {block}-window block boundary before the \
             last entry and stay in the cold-start regime"
        );

        // Resume: detections, counter, label history, gate reference and
        // trainer (down to the last entry's refit count) all come back, down
        // to the saved bytes.
        let (mut resumed, report) =
            SelfLearningPipeline::resume_with_journal(&base, &journal).unwrap();
        assert_eq!(report.entries_applied, 3);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.valid_len, journal.len());
        // Trainer `==` compares `last_refit_count` too.
        assert_eq!(
            resumed.detector().incremental_trainer(),
            pipeline.detector().incremental_trainer()
        );
        assert_eq!(resumed.num_seizures_collected(), 4);
        assert_eq!(resumed.produced_labels(), pipeline.produced_labels());
        assert_eq!(resumed.training_windows(), pipeline.training_windows());
        assert_eq!(
            resumed.detector().flat_forest(),
            pipeline.detector().flat_forest()
        );
        assert_eq!(resumed.save(), pipeline.save());
        let held_out = cohort.sample_record(patient, 4, &config, 33).unwrap();
        assert_eq!(
            resumed.detector().detect(held_out.signal()).unwrap(),
            pipeline.detector().detect(held_out.signal()).unwrap()
        );

        // The resumed pipeline keeps journaling: learn from the held-out
        // seizure on both sides and compare the next appended entry.
        pipeline
            .observe_missed_seizure(&held_out, w, LabelSource::Algorithm)
            .unwrap();
        resumed
            .observe_missed_seizure(&held_out, w, LabelSource::Algorithm)
            .unwrap();
        let a = pipeline.save_delta_with(lenient);
        let b = resumed.save_delta_with(lenient);
        assert!(matches!(a, DeltaSave::Append(_)));
        assert_eq!(a, b, "resumed journal must continue the same sequence");
    }

    #[test]
    fn pipeline_torn_journal_drops_the_lost_seizure_only() {
        let cohort = Cohort::chb_mit_like(30);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 41).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        let base = match pipeline.save_delta_with(CompactionPolicy::default()) {
            DeltaSave::Full(bytes) => bytes,
            other => panic!("{other:?}"),
        };
        let second = cohort.sample_record(patient, 1, &config, 42).unwrap();
        pipeline
            .observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap();

        // An eager policy folds the pending entry into a fresh base, which
        // resumes with an empty journal.
        let eager = CompactionPolicy {
            max_journal_fraction: 0.0,
            min_journal_bytes: 0,
        };
        let compacted = match pipeline.clone().save_delta_with(eager) {
            DeltaSave::Full(bytes) => bytes,
            other => panic!("eager policy must compact, got {other:?}"),
        };
        let (resumed, report) = SelfLearningPipeline::resume_with_journal(&compacted, &[]).unwrap();
        assert_eq!(report.entries_applied, 0);
        assert_eq!(resumed.save(), pipeline.save());

        let lenient = CompactionPolicy {
            max_journal_fraction: 100.0,
            ..CompactionPolicy::default()
        };
        let journal = match pipeline.save_delta_with(lenient) {
            DeltaSave::Append(bytes) => bytes,
            other => panic!("{other:?}"),
        };

        // Crash mid-append: the resumed pipeline holds exactly one seizure
        // and reports where the journal file must be truncated.
        let torn = &journal[..journal.len() - 7];
        let (resumed, report) = SelfLearningPipeline::resume_with_journal(&base, torn).unwrap();
        assert_eq!(report.entries_applied, 0);
        assert_eq!(report.valid_len, 0);
        assert_eq!(report.torn_bytes, torn.len());
        assert_eq!(resumed.num_seizures_collected(), 1);
        assert_eq!(resumed.produced_labels().len(), 1);

        // A corrupt annotation is a typed error, not a panic: flip a byte
        // inside the entry and re-sign nothing — the checksum catches it.
        let mut flipped = journal.clone();
        flipped[journal.len() / 2] ^= 0x01;
        assert!(matches!(
            SelfLearningPipeline::resume_with_journal(&base, &flipped),
            Err(CoreError::Persist(_))
        ));
        // A journal against the wrong base is rejected, not misapplied.
        assert!(matches!(
            SelfLearningPipeline::resume_with_journal(&compacted, &journal),
            Err(CoreError::Persist(_))
        ));
    }

    /// The pipeline snapshot as the copying codec the format was defined
    /// with writes it, with the labeler block's implementation marker and
    /// normalization flag as given (`save` writes `1` and `true`).
    fn copying_snapshot(pipeline: &SelfLearningPipeline, marker: u8, normalize: bool) -> Vec<u8> {
        let labeler = pipeline.labeler.config();
        let mut reference = SnapshotWriter::new();
        reference.f64(labeler.window_secs);
        reference.f64(labeler.overlap);
        reference.usize(labeler.detector.subsample_step);
        reference.u8(marker);
        reference.bool(normalize);
        reference.nested(&pipeline.detector.save_state());
        reference.usize(pipeline.num_seizures);
        reference.usize(pipeline.num_quarantined);
        reference.usize(pipeline.produced_labels.len());
        for label in &pipeline.produced_labels {
            reference.f64(label.onset_secs());
            reference.f64(label.offset_secs());
        }
        reference.finish(SnapshotKind::SelfLearningPipeline)
    }

    /// The zero-copy pipeline snapshot (detector nested in place) must stay
    /// byte-identical to the copying path the format was defined with.
    #[test]
    fn zero_copy_pipeline_snapshot_is_byte_identical_to_the_copying_codec() {
        let cohort = Cohort::chb_mit_like(31);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 51).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        assert_eq!(pipeline.save(), copying_snapshot(&pipeline, 1, true));
    }

    #[test]
    fn corrupt_pipeline_snapshots_are_rejected() {
        let pipeline = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let mut bytes = pipeline.save();
        assert!(SelfLearningPipeline::resume(&bytes[..10]).is_err());
        bytes[24] ^= 0x10;
        assert!(matches!(
            SelfLearningPipeline::resume(&bytes),
            Err(CoreError::Persist(_))
        ));
        // An untrained pipeline round-trips too (empty-pool snapshot).
        let restored = SelfLearningPipeline::resume(&pipeline.save()).unwrap();
        assert_eq!(restored.num_seizures_collected(), 0);
        assert!(!restored.detector().is_trained());
        // Algorithm 1 has one implementation and always normalizes: a
        // well-formed snapshot whose labeler block says otherwise is
        // corrupt.
        assert!(SelfLearningPipeline::resume(&copying_snapshot(&pipeline, 1, true)).is_ok());
        for (marker, normalize) in [(0, true), (2, true), (1, false)] {
            assert!(
                matches!(
                    SelfLearningPipeline::resume(&copying_snapshot(&pipeline, marker, normalize)),
                    Err(CoreError::Persist(PersistError::Corrupted { .. }))
                ),
                "marker {marker}, normalize {normalize}"
            );
        }
    }

    #[test]
    fn evaluation_before_training_fails() {
        let cohort = Cohort::chb_mit_like(23);
        let config = small_sample_config();
        let record = cohort.sample_record(0, 0, &config, 1).unwrap();
        let pipeline = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        assert!(pipeline.evaluate(&record).is_err());
        assert!(pipeline.evaluate_all(&[record]).is_err());
    }

    #[test]
    fn evaluate_all_rejects_empty_input_and_pools_otherwise() {
        let cohort = Cohort::chb_mit_like(24);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 2).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        assert!(pipeline.evaluate_all(&[]).is_err());

        let held_out: Vec<_> = (1..3)
            .map(|s| cohort.sample_record(patient, s, &config, 3).unwrap())
            .collect();
        let report = pipeline.evaluate_all(&held_out).unwrap();
        assert!(report.windows > 0);
        assert!((0.0..=1.0).contains(&report.geometric_mean));
    }

    #[test]
    fn pipeline_store_round_trip_is_node_identical() {
        let cohort = Cohort::chb_mit_like(29);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 51).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();

        // Format: seizure 1 becomes the slot-A base; nothing pending after.
        let base_len = pipeline.save().len();
        let geometry = FlashGeometry::for_base(base_len * 6, base_len * 4);
        let mut store = pipeline
            .init_store(MemFlash::new(geometry.total_bytes()), geometry)
            .unwrap();
        assert_eq!(
            pipeline.save_to_store(&mut store).unwrap(),
            StoreSave::Clean
        );

        // Seizure 2 is one O(batch) journal append.
        let second = cohort.sample_record(patient, 1, &config, 52).unwrap();
        pipeline
            .observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap();
        assert_eq!(
            pipeline.save_to_store(&mut store).unwrap(),
            StoreSave::Appended
        );

        // Power cycle: labels, counters and the forest all come back.
        let (store, report) = FlashStore::mount(store.into_flash(), geometry).unwrap();
        assert_eq!(report.journal_entries, 1);
        let (resumed, replay) = SelfLearningPipeline::resume_from_store(&store).unwrap();
        assert_eq!(replay.entries_applied, 1);
        assert_eq!(resumed.num_seizures_collected(), 2);
        assert_eq!(resumed.produced_labels(), pipeline.produced_labels());
        assert_eq!(
            resumed.detector().flat_forest(),
            pipeline.detector().flat_forest()
        );
        let held_out = cohort.sample_record(patient, 2, &config, 53).unwrap();
        assert_eq!(
            resumed.detector().detect(held_out.signal()).unwrap(),
            pipeline.detector().detect(held_out.signal()).unwrap()
        );
        assert_eq!(resumed.save(), pipeline.save());
    }

    #[test]
    fn pipeline_store_survives_crashes_mid_append_and_mid_commit() {
        let cohort = Cohort::chb_mit_like(31);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let first = cohort.sample_record(patient, 0, &config, 60).unwrap();
        pipeline
            .observe_missed_seizure(&first, w, LabelSource::Algorithm)
            .unwrap();
        let records: Vec<_> = (1..3)
            .map(|s| {
                cohort
                    .sample_record(patient, s, &config, 60 + s as u64)
                    .unwrap()
            })
            .collect();

        // Probe one appended entry on a throwaway clone to size a journal
        // region that takes the first entry and compacts on the second.
        let lenient = CompactionPolicy {
            max_journal_fraction: 100.0,
            ..CompactionPolicy::default()
        };
        let mut probe = pipeline.clone();
        probe.save_delta_with(CompactionPolicy::default());
        probe
            .observe_missed_seizure(&records[0], w, LabelSource::Algorithm)
            .unwrap();
        let entry_len = match probe.save_delta_with(lenient) {
            DeltaSave::Append(bytes) => bytes.len(),
            other => panic!("probe must append, got {other:?}"),
        };

        let base_len = pipeline.save().len();
        let geometry = FlashGeometry::for_base(base_len * 6, entry_len * 2);
        let mut store = pipeline
            .init_store(FaultyFlash::new(geometry.total_bytes()), geometry)
            .unwrap();
        assert_eq!(store.sequence(), 1);
        let armed = pipeline.clone();
        let image = store.flash().image().to_vec();
        let format_bytes = store.flash().bytes_written();

        // Fault-free reference pass: one append, then one A/B compaction.
        let mut states = vec![pipeline.save()];
        let mut op_end = Vec::new();
        let mut outcomes = Vec::new();
        for record in &records {
            pipeline
                .observe_missed_seizure(record, w, LabelSource::Algorithm)
                .unwrap();
            outcomes.push(pipeline.save_to_store(&mut store).unwrap());
            states.push(pipeline.save());
            op_end.push(store.flash().bytes_written() - format_bytes);
        }
        assert_eq!(
            outcomes,
            [StoreSave::Appended, StoreSave::Rebased],
            "the cuts must target one append and one compaction"
        );
        assert_eq!(store.sequence(), 2, "the A/B compaction bumps the sequence");

        // Cut each operation at 1/4, 1/2 and 3/4 of its write stream.
        let mut cuts = Vec::new();
        let mut start = 0;
        for &end in &op_end {
            for quarter in 1..4 {
                cuts.push(start + (end - start) * quarter / 4);
            }
            start = end;
        }
        for cut in cuts {
            let flash = FaultyFlash::from_image(image.clone()).power_loss_after(cut);
            let mut live = armed.clone();
            let mut store = FlashStore::mount(flash, geometry).map(|(s, _)| s).unwrap();
            let mut died_at = None;
            for (i, record) in records.iter().enumerate() {
                live.observe_missed_seizure(record, w, LabelSource::Algorithm)
                    .unwrap();
                if live.save_to_store(&mut store).is_err() {
                    died_at = Some(i);
                    break;
                }
            }
            let i = died_at.unwrap_or_else(|| panic!("cut {cut} must kill a save"));
            let (store, _) = FlashStore::mount(store.into_flash().reboot(), geometry)
                .unwrap_or_else(|e| panic!("cut {cut}: store lost: {e}"));
            let (resumed, _) = SelfLearningPipeline::resume_from_store(&store)
                .unwrap_or_else(|e| panic!("cut {cut}: resume failed: {e}"));
            let observed = resumed.save();
            assert!(
                observed == states[i] || observed == states[i + 1],
                "cut {cut}: crash during save {i} recovered neither the pre-save nor \
                 the committed state"
            );
        }
    }
}
