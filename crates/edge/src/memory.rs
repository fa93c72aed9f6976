//! Memory budget of the a-posteriori labeling on the edge device.
//!
//! The labeling algorithm must keep the last hour of (feature-extracted) EEG
//! available when the patient triggers it. The paper states that the required
//! memory for one hour of data is 240 KB on a platform with 48 KB of RAM and
//! 384 KB of Flash — i.e. the hour-long buffer lives in Flash while the
//! per-window working set stays in RAM. This module reproduces that budget.

use crate::error::EdgeError;
use crate::platform::PlatformSpec;

/// Memory requirement breakdown for the labeling pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBudget {
    /// Size of the buffered history (the last hour of data) in bytes; stored in
    /// Flash on the target platform.
    pub history_bytes: usize,
    /// Size of the per-window working set (current window samples, feature
    /// vector and algorithm scratch space) in bytes; must fit in RAM.
    pub working_bytes: usize,
    /// `true` when the history buffer fits in Flash.
    pub fits_flash: bool,
    /// `true` when the working set fits in RAM.
    pub fits_ram: bool,
}

/// Memory model of the labeling pipeline on a given platform.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryModel {
    spec: PlatformSpec,
}

/// Bytes per stored value in the history buffer. The paper's 240 KB/hour figure
/// corresponds to storing the buffered signal in a compressed/decimated form
/// rather than raw 24-bit samples; with 2 channels at 256 Hz for 3600 s this
/// works out to roughly 0.13 byte per raw sample, which matches storing the
/// per-second feature rows (10 features × 4 bytes) together with a decimated
/// 8-bit copy of the signal. We model the history as exactly the paper's
/// per-hour figure scaled by the buffer duration.
pub const PAPER_HISTORY_BYTES_PER_HOUR: usize = 240 * 1024;

/// Exact size in bytes of the quality gate's calibration block inside a
/// persisted detector snapshot (`seizure-core`'s `RealTimeDetector`): a
/// presence flag plus the two per-channel reference log-amplitudes and
/// their accumulated weight. Pinned against the real codec by
/// `tests/edge_platform.rs`.
pub const GATE_STATE_BYTES: usize = 1 + 3 * 8;

/// Per-window quality indicators of `seizure-features`' quality module
/// (seven per channel plus the cross-channel disagreement). Kept as a local
/// constant so the edge crate stays free of the feature crate's machinery;
/// `tests/edge_platform.rs` pins it to the real layout.
const QUALITY_FEATURES: usize = 15;

impl MemoryModel {
    /// Creates a memory model for the given platform.
    pub fn new(spec: PlatformSpec) -> Self {
        Self { spec }
    }

    /// The platform specification.
    pub fn platform(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Size in bytes of the feature matrix for `buffer_secs` seconds of signal
    /// with `num_features` features extracted every `step_secs` seconds and
    /// stored as `f32`.
    pub fn feature_matrix_bytes(
        &self,
        buffer_secs: f64,
        num_features: usize,
        step_secs: f64,
    ) -> usize {
        if step_secs <= 0.0 || buffer_secs <= 0.0 {
            return 0;
        }
        let rows = (buffer_secs / step_secs).ceil() as usize;
        rows * num_features * std::mem::size_of::<f32>()
    }

    /// Exact size in bytes of a persisted incremental-trainer snapshot
    /// (`seizure-ml`'s `persist::trainer_to_bytes`) for a pool of
    /// `num_samples` samples of `num_features` features, cached as `n_trees`
    /// trees totalling `total_nodes` nodes. Mirrors the format's layout term
    /// by term — envelope, fixed trainer fields, the column-major matrix
    /// with bit-packed labels (the presorted orders are rebuilt on load, not
    /// stored), and the per-tree arenas — so a wearable can budget its Flash
    /// before ever writing a snapshot. An integration test pins this formula
    /// to the real codec's output length.
    pub fn trainer_snapshot_bytes(
        &self,
        num_samples: usize,
        num_features: usize,
        n_trees: usize,
        total_nodes: usize,
    ) -> usize {
        // Envelope: magic 8 + version 2 + kind 2 + payload length 8 +
        // checksum 8.
        const ENVELOPE: usize = 28;
        // Forest config (41) + block_size, seed, last refit count (24) +
        // has-pool flag (1).
        const TRAINER_FIXED: usize = 66;
        // Pool: feature count + two slice length prefixes.
        const POOL_FIXED: usize = 24;
        // Per tree: the two fingerprint fields + five arena length prefixes.
        const PER_TREE: usize = 56;
        // Per node: feature u32 + threshold f64 + children 2xu32 + leaf f64.
        const PER_NODE: usize = 28;
        // An empty trainer (no retrain yet) stores no pool section at all.
        let pool = if num_samples == 0 {
            0
        } else {
            POOL_FIXED + num_samples.div_ceil(8) + 8 * num_samples * num_features
        };
        let trees = 8 + n_trees * PER_TREE + total_nodes * PER_NODE;
        ENVELOPE + TRAINER_FIXED + pool + trees
    }

    /// Exact size in bytes of one delta-journal entry (`seizure-ml`'s
    /// `persist::journal::JournalWriter`) recording a retrain batch of
    /// `batch_samples` rows of `num_features` features plus
    /// `annotation_bytes` of caller state (0 for the detector's entries; 40
    /// for the pipeline's, which annotates the produced seizure label and
    /// the gate calibration reached after the record).
    /// Mirrors the entry layout term by term — envelope, base fingerprint,
    /// pool position, feature count, bit-packed labels, the row matrix, the
    /// annotation — so a wearable can budget the per-seizure Flash append
    /// before writing it. Pinned to the real codec by
    /// `tests/edge_platform.rs`, like
    /// [`MemoryModel::trainer_snapshot_bytes`].
    pub fn journal_entry_bytes(
        &self,
        batch_samples: usize,
        num_features: usize,
        annotation_bytes: usize,
    ) -> usize {
        // Envelope 28 + fingerprint 8 + pool length 8 + feature count 8 +
        // three length prefixes (labels, rows, annotation) of 8 each.
        const ENTRY_FIXED: usize = 28 + 24 + 3 * 8;
        ENTRY_FIXED
            + batch_samples.div_ceil(8)
            + 8 * batch_samples * num_features
            + annotation_bytes
    }

    /// Exact RAM held by a training pool's presorted order storage
    /// (`seizure-ml`'s `TrainingSet`): one run of u16 sample ids per feature,
    /// so one id per sample per feature and nothing else. Pinned
    /// byte-for-byte to `TrainingSet::order_bytes` in
    /// `tests/edge_platform.rs`.
    pub fn order_bytes(&self, num_samples: usize, num_features: usize) -> usize {
        2 * num_samples * num_features
    }

    /// [`MemoryModel::budget`] with a persisted-state snapshot stored in
    /// Flash next to the history buffer: the snapshot bytes are added to the
    /// Flash-resident side of the budget, so `fits_flash` answers whether
    /// the platform can hold **both** the last hour of data and the
    /// personalized trainer state across a power cycle.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_snapshot(
        &self,
        buffer_secs: f64,
        snapshot_bytes: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        let mut budget = self.budget(buffer_secs)?;
        budget.history_bytes += snapshot_bytes;
        budget.fits_flash = budget.history_bytes <= self.spec.flash_bytes;
        Ok(budget)
    }

    /// [`MemoryModel::budget_with_snapshot`] for delta persistence: Flash
    /// holds the history buffer, the base snapshot **and** the journal
    /// region the per-seizure appends grow into. `journal_bytes` is the
    /// journal region's size (e.g. the compaction policy's worst case:
    /// `max_journal_fraction` of the base, or the sum of
    /// [`MemoryModel::journal_entry_bytes`] over the expected batches).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_journal(
        &self,
        buffer_secs: f64,
        snapshot_bytes: usize,
        journal_bytes: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        self.budget_with_snapshot(buffer_secs, snapshot_bytes + journal_bytes)
    }

    /// Exact Flash footprint of `seizure-ml`'s crash-proof A/B store
    /// (`persist::store::FlashStore`) holding base snapshots up to
    /// `base_capacity` bytes next to a `journal_bytes` journal region: two
    /// alternating slots, each a 40-byte header plus the base capacity, and
    /// one journal region. Pinned to the real layout
    /// (`FlashGeometry::total_bytes`) by `tests/edge_platform.rs`.
    pub fn dual_slot_store_bytes(&self, base_capacity: usize, journal_bytes: usize) -> usize {
        // Slot header: magic 8 + sequence 8 + base length 8 + base
        // fingerprint 8 + header checksum 8.
        const SLOT_HEADER: usize = 40;
        2 * (SLOT_HEADER + base_capacity) + journal_bytes
    }

    /// [`MemoryModel::budget_with_journal`] for the crash-proof A/B store:
    /// Flash holds the history buffer plus the full dual-slot image —
    /// **two** base slots (so compaction can write the fresh snapshot beside
    /// the committed one instead of over it) and the journal region.
    /// Crash-proofing doubles the base-snapshot reservation; `fits_flash`
    /// answers whether the platform affords that insurance.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_ab_store(
        &self,
        buffer_secs: f64,
        base_capacity: usize,
        journal_bytes: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        self.budget_with_snapshot(
            buffer_secs,
            self.dual_slot_store_bytes(base_capacity, journal_bytes),
        )
    }

    /// RAM scratch of the signal-quality front end over a `buffer_secs`
    /// history buffer: one live `f64` row of `QUALITY_FEATURES` indicators
    /// (windows are assessed streaming, so only the current row is resident),
    /// a one-byte verdict per analysis step (one step per second, matching
    /// the detector's 4 s windows at 75 % overlap — the full verdict ribbon
    /// is kept so the a-posteriori labeler can quarantine history windows),
    /// and one two-channel 4-second window copy the slow gain correction
    /// rewrites in place.
    pub fn quality_scratch_bytes(&self, buffer_secs: f64) -> usize {
        if buffer_secs <= 0.0 || buffer_secs.is_nan() {
            return 0;
        }
        let verdict_rows = buffer_secs.ceil() as usize;
        let corrected_window = (4.0 * self.spec.eeg_sampling_hz) as usize * self.spec.num_channels;
        QUALITY_FEATURES * std::mem::size_of::<f64>()
            + verdict_rows
            + corrected_window * std::mem::size_of::<f64>()
    }

    /// [`MemoryModel::budget_with_snapshot`] for a quality-gated detector:
    /// Flash additionally holds the gate's [`GATE_STATE_BYTES`] calibration
    /// block next to the snapshot, and the RAM side grows by
    /// [`MemoryModel::quality_scratch_bytes`] — the per-window indicator
    /// rows, verdicts, and the gain-correction window copy. `fits_ram` and
    /// `fits_flash` answer whether artifact rejection is affordable on the
    /// platform at all.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_quality_gate(
        &self,
        buffer_secs: f64,
        snapshot_bytes: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        let mut budget =
            self.budget_with_snapshot(buffer_secs, snapshot_bytes + GATE_STATE_BYTES)?;
        budget.working_bytes += self.quality_scratch_bytes(buffer_secs);
        budget.fits_ram = budget.working_bytes <= self.spec.ram_bytes;
        Ok(budget)
    }

    /// [`MemoryModel::budget_with_quality_gate`] for a detector running the
    /// sample-at-a-time streaming front end: the RAM side additionally holds
    /// the `front_end_bytes` that front end keeps on the heap. Pass the
    /// measured number, `seizure-core`'s `StreamingDetector::heap_bytes()`:
    /// each engine sums the buffers it allocates, and the sum equals the
    /// allocator's count (`tests/zero_alloc.rs`), so this crate never
    /// re-derives their layouts. At the paper geometry (256 Hz, 4 s windows,
    /// 75 % overlap) the front end holds 113 912 B, 2.3× the STM32L151's
    /// 48 KB RAM, so `fits_ram` is `false` even without the hour-long
    /// quality ribbon.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_streaming(
        &self,
        buffer_secs: f64,
        snapshot_bytes: usize,
        front_end_bytes: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        let mut budget = self.budget_with_quality_gate(buffer_secs, snapshot_bytes)?;
        budget.working_bytes += front_end_bytes;
        budget.fits_ram = budget.working_bytes <= self.spec.ram_bytes;
        Ok(budget)
    }

    /// Computes the memory budget for a history buffer of `buffer_secs`
    /// seconds (the paper uses one hour, the maximum delay between a missed
    /// seizure and the patient's confirmation).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget(&self, buffer_secs: f64) -> Result<MemoryBudget, EdgeError> {
        if buffer_secs <= 0.0 || buffer_secs.is_nan() {
            return Err(EdgeError::InvalidParameter {
                name: "buffer_secs",
                reason: format!("buffer duration must be positive, got {buffer_secs}"),
            });
        }
        let history_bytes =
            (PAPER_HISTORY_BYTES_PER_HOUR as f64 * buffer_secs / 3600.0).ceil() as usize;
        // Working set: one 4-second raw window on both channels (f32), the
        // 10-feature row, and the Algorithm 1 distance/accumulator vectors for
        // one hour of rows.
        let window_samples = (4.0 * self.spec.eeg_sampling_hz) as usize * self.spec.num_channels;
        let rows = (buffer_secs / 1.0).ceil() as usize;
        let working_bytes = window_samples * std::mem::size_of::<f32>()
            + 10 * std::mem::size_of::<f32>()
            + rows * std::mem::size_of::<f32>() // distance array
            + 2 * 10 * std::mem::size_of::<f32>(); // edge + distance_vector
        Ok(MemoryBudget {
            history_bytes,
            working_bytes,
            fits_flash: history_bytes <= self.spec.flash_bytes,
            fits_ram: working_bytes <= self.spec.ram_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MemoryModel {
        MemoryModel::new(PlatformSpec::stm32l151_default())
    }

    #[test]
    fn one_hour_budget_matches_paper_and_fits_the_platform() {
        let budget = model().budget(3600.0).unwrap();
        assert_eq!(budget.history_bytes, 240 * 1024);
        assert!(budget.fits_flash);
        assert!(budget.fits_ram);
        // The working set is a tiny fraction of the 48 KB RAM.
        assert!(budget.working_bytes < 48 * 1024);
    }

    #[test]
    fn budget_scales_linearly_with_duration() {
        let half = model().budget(1800.0).unwrap();
        let full = model().budget(3600.0).unwrap();
        assert_eq!(half.history_bytes * 2, full.history_bytes);
    }

    #[test]
    fn oversized_buffer_does_not_fit_flash() {
        // Ten hours of history exceed the 384 KB Flash.
        let budget = model().budget(36_000.0).unwrap();
        assert!(!budget.fits_flash);
    }

    #[test]
    fn invalid_duration_is_rejected() {
        assert!(model().budget(0.0).is_err());
        assert!(model().budget(-5.0).is_err());
        assert!(model().budget(f64::NAN).is_err());
    }

    #[test]
    fn feature_matrix_bytes_formula() {
        // One hour, 10 features, one row per second, f32 storage: 144 000 B.
        let bytes = model().feature_matrix_bytes(3600.0, 10, 1.0);
        assert_eq!(bytes, 3600 * 10 * 4);
        assert_eq!(model().feature_matrix_bytes(0.0, 10, 1.0), 0);
        assert_eq!(model().feature_matrix_bytes(10.0, 10, 0.0), 0);
    }

    #[test]
    fn platform_accessor() {
        assert_eq!(model().platform().ram_bytes, 48 * 1024);
    }

    #[test]
    fn snapshot_accounting_extends_the_flash_side_of_the_budget() {
        let model = model();
        // An empty trainer is pure overhead; a paper-scale pool dominates.
        let empty = model.trainer_snapshot_bytes(0, 0, 0, 0);
        assert_eq!(empty, 28 + 66 + 8);
        let pool = model.trainer_snapshot_bytes(4096, 54, 30, 30 * 200);
        assert!(pool > 8 * 4096 * 54);

        // The snapshot lands in Flash next to the history buffer.
        let base = model.budget(3600.0).unwrap();
        let with = model.budget_with_snapshot(3600.0, 64 * 1024).unwrap();
        assert_eq!(with.history_bytes, base.history_bytes + 64 * 1024);
        assert_eq!(with.working_bytes, base.working_bytes);
        assert!(with.fits_flash); // 240 KB + 64 KB < 384 KB
        let too_big = model.budget_with_snapshot(3600.0, 200 * 1024).unwrap();
        assert!(!too_big.fits_flash); // 240 KB + 200 KB > 384 KB
        assert!(model.budget_with_snapshot(0.0, 1).is_err());
    }

    #[test]
    fn journal_accounting_extends_the_snapshot_budget() {
        let model = model();
        // One balanced-seizure batch (~60 windows of 54 features) appends a
        // few tens of KB — an order of magnitude under the paper-scale full
        // snapshot it replaces.
        let entry = model.journal_entry_bytes(60, 54, 16);
        assert_eq!(entry, 76 + 60usize.div_ceil(8) + 8 * 60 * 54 + 16);
        let full = model.trainer_snapshot_bytes(4096, 54, 30, 30 * 200);
        assert!(entry * 5 < full);

        // The journal region sits in Flash next to history + base snapshot.
        let base = model.budget_with_snapshot(1200.0, 64 * 1024).unwrap();
        let with = model
            .budget_with_journal(1200.0, 64 * 1024, 32 * 1024)
            .unwrap();
        assert_eq!(with.history_bytes, base.history_bytes + 32 * 1024);
        assert!(with.fits_flash); // 80 KB + 64 KB + 32 KB < 384 KB
        assert!(
            !model
                .budget_with_journal(3600.0, 100 * 1024, 100 * 1024)
                .unwrap()
                .fits_flash
        ); // 240 + 100 + 100 > 384
        assert!(model.budget_with_journal(0.0, 1, 1).is_err());
    }

    #[test]
    fn quality_gate_accounting_extends_both_sides_of_the_budget() {
        let model = model();
        // Scratch formula: one live indicator row + a verdict byte per
        // second, plus one 4 s two-channel f64 window for the gain
        // correction.
        let scratch = model.quality_scratch_bytes(1200.0);
        assert_eq!(scratch, 15 * 8 + 1200 + 4 * 256 * 2 * 8);
        assert_eq!(model.quality_scratch_bytes(0.0), 0);
        assert_eq!(model.quality_scratch_bytes(f64::NAN), 0);

        // Flash grows by exactly the gate block, RAM by the scratch — and
        // the 20-minute gated budget still fits the platform.
        let base = model.budget_with_snapshot(1200.0, 64 * 1024).unwrap();
        let gated = model.budget_with_quality_gate(1200.0, 64 * 1024).unwrap();
        assert_eq!(gated.history_bytes, base.history_bytes + GATE_STATE_BYTES);
        assert_eq!(gated.working_bytes, base.working_bytes + scratch);
        assert!(gated.fits_flash);
        assert!(gated.fits_ram);
        assert!(model.budget_with_quality_gate(0.0, 1).is_err());

        // Even the full-hour buffer affords the gate: the scratch stays a
        // modest slice of the 48 KB RAM next to the labeler's working set.
        let hour = model.budget_with_quality_gate(3600.0, 0).unwrap();
        assert!(hour.fits_ram, "{} bytes", hour.working_bytes);
    }

    #[test]
    fn ab_store_accounting_doubles_the_base_reservation() {
        let model = model();
        // Layout arithmetic: two (header + base) slots plus the journal.
        assert_eq!(model.dual_slot_store_bytes(0, 0), 80);
        assert_eq!(
            model.dual_slot_store_bytes(64 * 1024, 32 * 1024),
            2 * (40 + 64 * 1024) + 32 * 1024
        );

        // Versus single-slot delta persistence the A/B store costs exactly
        // one more slot: the price of never overwriting the committed base.
        let single = model
            .budget_with_journal(1200.0, 64 * 1024, 32 * 1024)
            .unwrap();
        let ab = model
            .budget_with_ab_store(1200.0, 64 * 1024, 32 * 1024)
            .unwrap();
        assert_eq!(ab.history_bytes, single.history_bytes + 2 * 40 + 64 * 1024);
        assert!(ab.fits_flash); // 80 KB history + 160 KB store < 384 KB
        assert!(
            !model
                .budget_with_ab_store(3600.0, 64 * 1024, 32 * 1024)
                .unwrap()
                .fits_flash
        ); // 240 KB history + 160 KB store > 384 KB
        assert!(model.budget_with_ab_store(0.0, 1, 1).is_err());
    }

    #[test]
    fn streaming_budget_extends_ram_and_documents_the_full_hour_boundary() {
        let model = model();
        // What the streaming front end holds at the paper geometry.
        let front_end = 113_912;
        let gated = model.budget_with_quality_gate(1200.0, 64 * 1024).unwrap();
        let streaming = model
            .budget_with_streaming(1200.0, 64 * 1024, front_end)
            .unwrap();
        assert_eq!(streaming.history_bytes, gated.history_bytes);
        assert_eq!(streaming.working_bytes, gated.working_bytes + front_end);
        // The front end does not fit the 48 KB RAM, with or without the
        // hour-long quality ribbon.
        assert!(!streaming.fits_ram, "{} bytes", streaming.working_bytes);
        let hour = model.budget_with_streaming(3600.0, 0, front_end).unwrap();
        assert!(!hour.fits_ram, "{} bytes", hour.working_bytes);
        assert!(model.budget_with_streaming(0.0, 1, front_end).is_err());
    }
}
