//! Append-only delta journal of `retrain` batches between full snapshots.
//!
//! A full [`IncrementalTrainer`] snapshot is O(pool) to write, but the
//! paper's self-learning loop grows the pool by one balanced batch per
//! missed seizure — a few hundred rows against thousands. Re-writing the
//! whole pool to Flash after every seizure wears the device for no reason:
//! everything except the freshly appended batch is already on Flash, inside
//! the previous snapshot. This module makes the per-seizure write O(batch):
//! a [`JournalWriter`] emits one checksummed, length-prefixed entry per
//! [`IncrementalTrainer::retrain`] call, and [`replay`] folds a base
//! snapshot plus its journal back into the exact trainer state — appending
//! every entry's batch through `retrain`'s own append and checks, then
//! refitting once. Trainer state is a pure function of (final pool, config,
//! seed), so the reconstruction is **node-identical** to the trainer that
//! never lost power (property-tested over random grow schedules, split
//! points and journal truncation points; see
//! `crates/ml/tests/properties.rs`). Replay also reconstructs the pool's
//! presorted runs: the decoded base snapshot rebuilds them with one sort per
//! feature and every replayed batch re-enters through the merging append, so
//! the replayed trainer's runs — and therefore every future refit — match
//! the uninterrupted trainer bit for bit. An entry that would grow the pool
//! past `TrainingSet::MAX_SAMPLES` samples does not re-apply, since
//! `retrain` rejects it too.
//!
//! # Journal format
//!
//! A journal is a plain concatenation of entries. Each entry is a complete
//! snapshot envelope (see the [module docs](super)) of kind
//! [`SnapshotKind::JournalEntry`] whose payload is:
//!
//! | field | encoding |
//! |-------|----------|
//! | base fingerprint | `u64` — the trailing checksum of the base snapshot |
//! | pool length before the batch | `u64` |
//! | feature count | `u64` |
//! | labels | length-prefixed bit-packed bools |
//! | rows | length-prefixed `f64` slice (row-major, bit-exact) |
//! | annotation | length-prefixed opaque bytes (callers layer their own per-batch state; empty when unused) |
//!
//! The fingerprint binds every entry to the one base snapshot it extends;
//! the pool length pins its position in the grow schedule. An entry that
//! reaches [`replay`] against the wrong base, out of order, or bit-flipped
//! fails with a typed [`PersistError`] **before** anything is applied — a
//! batch is either applied whole or not at all.
//!
//! # Crash safety
//!
//! The journal is designed for the one failure append-only Flash writes
//! actually produce: power loss mid-append leaves a **torn final entry** — a
//! strict prefix of a valid entry at the journal's tail. [`scan_journal`]
//! detects the torn tail (header incomplete, or fewer bytes than the
//! declared entry size remain) and drops it, reporting the valid prefix
//! length so the device can truncate the journal file before appending
//! again. Anything that is *not* a clean tail tear — bad magic, a foreign
//! format version, a checksum mismatch, garbage between entries — is
//! corruption and fails with the matching typed error instead of being
//! silently skipped.
//!
//! # Compaction
//!
//! Replay costs one refit at boot however many entries the journal holds
//! (plus one O(batch) decode and append per entry), so resume time no
//! longer grows with the entry count; the journal region's Flash still
//! must not grow without bound. [`CompactionPolicy`] decides when the
//! accumulated journal should be folded into a fresh full snapshot (one
//! O(pool) write that empties the journal); `seizure-core`'s
//! `SelfLearningPipeline::save_delta_with` applies it and tells the caller
//! which kind of Flash write to perform through [`DeltaSave`], and
//! `SelfLearningPipeline::save_to_store` performs that write on a
//! [`FlashStore`](super::store::FlashStore).
//!
//! # Example
//!
//! ```
//! use seizure_ml::persist::journal::{replay, JournalWriter};
//! use seizure_ml::persist::trainer_to_bytes;
//! use seizure_ml::training::{IncrementalTrainer, IncrementalTrainerConfig};
//! use seizure_ml::RandomForestConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = IncrementalTrainerConfig {
//!     forest: RandomForestConfig { n_trees: 4, ..RandomForestConfig::default() },
//!     block_size: 8,
//! };
//! let mut trainer = IncrementalTrainer::new(config, 7);
//! let rows: Vec<f64> = (0..32).map(f64::from).collect();
//! let labels: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
//! trainer.retrain(&rows, 1, &labels)?;
//!
//! // One O(pool) base snapshot, then O(batch) journal entries: the device
//! // appends each writer batch to its journal region on Flash.
//! let base = trainer_to_bytes(&trainer);
//! let mut writer = JournalWriter::new(&base, trainer.num_samples())?;
//! trainer.retrain(&[40.0, 1.0], 1, &[true, false])?;
//! writer.append(&[40.0, 1.0], 1, &[true, false], &[])?;
//! let mut journal_region: Vec<u8> = Vec::new();
//! journal_region.extend_from_slice(&writer.take_unflushed());
//!
//! // After a power cycle: base + journal fold back into the same trainer.
//! let replayed = replay(&base, &journal_region)?;
//! assert_eq!(replayed.trainer, trainer);
//! # Ok(())
//! # }
//! ```

use super::{trainer_from_bytes, Envelope, PersistError, SnapshotKind, SnapshotWriter};
use crate::error::MlError;
use crate::flat::FlatForest;
use crate::incremental::IncrementalTrainer;

/// One decoded journal entry: a single `retrain` batch bound to its base
/// snapshot and its position in the grow schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Trailing checksum of the base snapshot this entry extends.
    pub base_fingerprint: u64,
    /// Pool length the batch was appended at (enforces replay order).
    pub pool_len_before: usize,
    /// Feature count of the batch rows.
    pub num_features: usize,
    /// Row-major batch matrix (`labels.len() * num_features` values).
    pub rows: Vec<f64>,
    /// Per-row labels.
    pub labels: Vec<bool>,
    /// Opaque per-batch caller state (`seizure-core`'s pipeline stores the
    /// produced seizure label here); empty when unused.
    pub annotation: Vec<u8>,
}

/// Result of [`scan_journal`]: the decoded entries plus where the valid
/// prefix ends.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan {
    /// Every complete, validated entry, in journal order.
    pub entries: Vec<JournalEntry>,
    /// Byte length of the valid prefix (the entries end exactly here). A
    /// device resuming after a torn append should truncate its journal file
    /// to this length before appending again.
    pub valid_len: usize,
    /// Bytes of a torn final entry that were detected and dropped (0 when
    /// the journal ends cleanly at an entry boundary).
    pub torn_bytes: usize,
}

/// What a journal replay did, reported alongside the reconstructed state by
/// [`replay`] and by `seizure-core`'s `resume_with_journal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalReplayReport {
    /// Entries applied on top of the base snapshot.
    pub entries_applied: usize,
    /// Byte length of the journal's valid prefix; truncate the journal file
    /// to this length before appending further entries.
    pub valid_len: usize,
    /// Bytes of a torn final entry that were detected and dropped.
    pub torn_bytes: usize,
}

/// Emits journal entries for the `retrain` batches appended after a base
/// snapshot was written. The writer tracks the pool length itself, so every
/// batch handed to [`JournalWriter::append`] must also have been
/// handed to the trainer's `retrain` (in the same order) — `seizure-core`'s
/// detector and pipeline couple the two calls.
///
/// Only the **unflushed** entries are held in RAM: once
/// [`JournalWriter::take_unflushed`] hands a batch to stable storage, the
/// writer remembers just its byte length —
/// on a RAM-constrained wearable the armed writer stays O(batch), not
/// O(journal).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalWriter {
    base_fingerprint: u64,
    pool_len: usize,
    /// Entry bytes not yet handed to stable storage.
    unflushed: Vec<u8>,
    /// Bytes already flushed (the journal region's length on Flash).
    flushed_len: usize,
    entries: usize,
}

impl JournalWriter {
    /// Creates a writer for an empty journal extending `base_snapshot`,
    /// whose payload covers a pool of `pool_len` samples.
    ///
    /// The base may be any envelope of this crate's format (the trainer
    /// snapshot itself, or a `seizure-core` detector/pipeline snapshot that
    /// nests one) — the writer only records its fingerprint; `pool_len` is
    /// stated by the caller because only it knows where in the base the
    /// trainer sits.
    ///
    /// # Errors
    ///
    /// Those of [`base_fingerprint`] when `base_snapshot` is not an envelope
    /// to fingerprint.
    pub fn new(base_snapshot: &[u8], pool_len: usize) -> Result<Self, PersistError> {
        Ok(Self {
            base_fingerprint: base_fingerprint(base_snapshot)?,
            pool_len,
            unflushed: Vec::new(),
            flushed_len: 0,
            entries: 0,
        })
    }

    /// Resumes a writer over an already-persisted journal: `flushed_len`
    /// must be the valid prefix length reported by [`scan_journal`],
    /// `pool_len` the pool size after its `entries` entries, and
    /// `base_fingerprint` the base snapshot's (see [`base_fingerprint`]).
    /// Appended entries continue the sequence and
    /// [`JournalWriter::unflushed`] starts empty — the valid prefix is
    /// already on stable storage and is *not* re-buffered in RAM. Used by
    /// the layers that replay journals at their own level (`seizure-core`'s
    /// detector and pipeline); [`replay`] calls it for you.
    pub fn resume(
        base_fingerprint: u64,
        pool_len: usize,
        flushed_len: usize,
        entries: usize,
    ) -> Self {
        Self {
            base_fingerprint,
            pool_len,
            unflushed: Vec::new(),
            flushed_len,
            entries,
        }
    }

    /// Appends one entry recording a `retrain` batch together with an
    /// opaque per-batch `annotation` replayed back to the caller (see
    /// [`JournalEntry::annotation`]; pass `&[]` when unused).
    ///
    /// # Errors
    ///
    /// [`MlError::DimensionMismatch`] when `rows` is not
    /// `labels.len() * num_features` values, and [`MlError::InvalidDataset`]
    /// for an empty batch — the same shapes `retrain` itself rejects, so a
    /// batch the trainer accepted always journals cleanly.
    pub fn append(
        &mut self,
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
        annotation: &[u8],
    ) -> Result<(), MlError> {
        if labels.is_empty() {
            return Err(MlError::InvalidDataset {
                detail: "a journal entry must record at least one sample".to_string(),
            });
        }
        if labels.len().checked_mul(num_features) != Some(rows.len()) {
            return Err(MlError::DimensionMismatch {
                detail: format!(
                    "batch of {} values does not cover {} labels x {num_features} features",
                    rows.len(),
                    labels.len()
                ),
            });
        }
        let mut w = SnapshotWriter::new();
        w.u64(self.base_fingerprint);
        w.usize(self.pool_len);
        w.usize(num_features);
        w.bools(labels);
        w.slice_f64(rows);
        w.nested(annotation);
        self.unflushed
            .extend_from_slice(&w.finish(SnapshotKind::JournalEntry));
        self.pool_len += labels.len();
        self.entries += 1;
        Ok(())
    }

    /// Entry bytes appended since the last flush — exactly what a delta
    /// save must append to the journal's Flash region.
    pub fn unflushed(&self) -> &[u8] {
        &self.unflushed
    }

    /// Hands the unflushed entries to the caller (to append to stable
    /// storage) and marks them flushed — only their byte length stays in
    /// RAM.
    pub fn take_unflushed(&mut self) -> Vec<u8> {
        self.flushed_len += self.unflushed.len();
        std::mem::take(&mut self.unflushed)
    }

    /// Number of entries written (including entries resumed from Flash).
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Pool length after every journaled batch.
    pub fn pool_len(&self) -> usize {
        self.pool_len
    }

    /// Total journal length in bytes (flushed + unflushed).
    pub fn len(&self) -> usize {
        self.flushed_len + self.unflushed.len()
    }

    /// `true` when no entry has been written or resumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Journal bookkeeping between delta saves: the writer holding the entries
/// appended since the base snapshot, plus the base's size (the compaction
/// policy compares the journal against it). `seizure-core`'s detector and
/// pipeline both drive their delta saves through
/// [`DeltaState::save`], so the Clean / Append / compact state machine
/// exists once.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaState {
    /// Writer over the journal region.
    pub writer: JournalWriter,
    /// Byte length of the base snapshot the journal extends.
    pub base_len: usize,
}

impl DeltaState {
    /// The delta decision for the current state: `Some(Clean)` when nothing
    /// is unflushed, `Some(Append)` with the unflushed entries (consumed)
    /// while the journal stays within `policy`, and `None` when the journal
    /// has outgrown the policy — the caller must fold it into a fresh full
    /// base snapshot and re-arm.
    pub fn save(&mut self, policy: CompactionPolicy) -> Option<DeltaSave> {
        if self.writer.unflushed().is_empty() {
            return Some(DeltaSave::Clean);
        }
        if policy.should_compact(self.base_len, self.writer.len()) {
            return None;
        }
        Some(DeltaSave::Append(self.writer.take_unflushed()))
    }
}

/// The fingerprint journal entries are bound to: the FNV-1a checksum stored
/// at the end of the base snapshot. Only the framing is checked here (magic
/// and declared length); the checksum itself is verified when the base is
/// decoded or mounted.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`PersistError::Truncated`],
/// [`PersistError::UnsupportedVersion`] (a torn envelope of another format
/// generation) or [`PersistError::Corrupted`] when the bytes are not exactly
/// one envelope.
pub fn base_fingerprint(base_snapshot: &[u8]) -> Result<u64, PersistError> {
    Ok(Envelope::whole(base_snapshot)?.checksum)
}

/// Walks a journal front to back, validating and decoding every complete
/// entry (magic, version, declared length, checksum, kind, payload shape)
/// and detecting a torn final entry, which is dropped — never misapplied.
///
/// # Errors
///
/// A typed [`PersistError`] for anything that is not a clean tail tear:
/// [`PersistError::BadMagic`] for garbage between entries,
/// [`PersistError::UnsupportedVersion`] for an entry from another format
/// generation, [`PersistError::ChecksumMismatch`] for bit flips,
/// [`PersistError::WrongKind`] for a non-entry envelope, and
/// [`PersistError::Corrupted`] for structurally inconsistent payloads.
pub fn scan_journal(journal: &[u8]) -> Result<JournalScan, PersistError> {
    let mut entries = Vec::new();
    let mut valid_len = 0;
    while let Some(rest) = journal.get(valid_len..).filter(|rest| !rest.is_empty()) {
        // Only a strict prefix of a valid entry is a tear; the envelope
        // parser reports everything else that ends early as corruption.
        let (entry, len) = match next_entry(rest, entries.len()) {
            Err(PersistError::Truncated { .. }) => break,
            scanned => scanned?,
        };
        entries.push(entry);
        valid_len += len;
    }
    Ok(JournalScan {
        entries,
        valid_len,
        torn_bytes: journal.len() - valid_len,
    })
}

/// Frames, verifies and decodes the entry at the front of `bytes` (entry
/// `index` of its journal) and returns it with the bytes it occupies. Only
/// a torn entry — a strict prefix of one — yields
/// [`PersistError::Truncated`]. The Flash store's mount walks its journal
/// region with it too.
pub(super) fn next_entry(
    bytes: &[u8],
    index: usize,
) -> Result<(JournalEntry, usize), PersistError> {
    let envelope = Envelope::parse(bytes)?;
    let mut r = envelope.open(SnapshotKind::JournalEntry)?;
    let base_fingerprint = r.u64()?;
    let pool_len_before = r.usize()?;
    let num_features = r.usize()?;
    let labels = r.bools()?;
    let rows = r.slice_f64()?;
    let annotation = r.nested()?.to_vec();
    r.finish()?;
    if labels.len().checked_mul(num_features) != Some(rows.len()) {
        return Err(PersistError::Corrupted {
            detail: format!(
                "journal entry {index} holds {} values for {} labels x {num_features} features",
                rows.len(),
                labels.len()
            ),
        });
    }
    if labels.is_empty() {
        return Err(PersistError::Corrupted {
            detail: format!("journal entry {index} records an empty batch"),
        });
    }
    let entry = JournalEntry {
        base_fingerprint,
        pool_len_before,
        num_features,
        rows,
        labels,
        annotation,
    };
    Ok((entry, envelope.len()))
}

/// A replayed trainer together with a writer positioned to keep appending.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// The reconstructed trainer — node-identical to the uninterrupted one.
    pub trainer: IncrementalTrainer,
    /// A writer resumed at the journal's valid end (its unflushed region is
    /// empty; new appends extend the same sequence).
    pub writer: JournalWriter,
    /// What the replay did, including the valid length to truncate the
    /// journal file to.
    pub report: JournalReplayReport,
}

/// Reconstructs trainer state from a full base snapshot plus its delta
/// journal through [`replay_entries`]: every entry's batch is appended, then
/// the trainer refits once. The state after replay is node-identical to the
/// trainer that executed one `retrain` per entry without interruption. A
/// torn final entry (power loss mid-append) is detected and dropped; every
/// other malformation fails with a typed error, and no partially replayed
/// trainer is returned.
///
/// # Errors
///
/// Propagates base-snapshot decoding errors ([`trainer_from_bytes`]) and
/// journal scan errors ([`scan_journal`]), plus [`PersistError::Corrupted`]
/// when an entry is bound to a different base snapshot, applies at the wrong
/// pool length, or no longer re-applies through `retrain`.
pub fn replay(base_snapshot: &[u8], journal: &[u8]) -> Result<Replayed, PersistError> {
    let mut trainer = trainer_from_bytes(base_snapshot)?;
    let fingerprint = base_fingerprint(base_snapshot)?;
    let scan = scan_journal(journal)?;
    replay_entries(&mut trainer, &scan.entries, fingerprint, |_, _| {
        Ok::<(), PersistError>(())
    })?;
    let entries_applied = scan.entries.len();
    let writer = JournalWriter::resume(
        fingerprint,
        trainer.num_samples(),
        scan.valid_len,
        entries_applied,
    );
    Ok(Replayed {
        trainer,
        writer,
        report: JournalReplayReport {
            entries_applied,
            valid_len: scan.valid_len,
            torn_bytes: scan.torn_bytes,
        },
    })
}

/// Validates an entry's bindings — the base fingerprint it extends and the
/// pool length it applies at. [`replay_entries`] checks every entry with
/// it.
fn validate_entry(
    entry: &JournalEntry,
    fingerprint: u64,
    pool_len: usize,
    index: usize,
) -> Result<(), PersistError> {
    if entry.base_fingerprint != fingerprint {
        return Err(PersistError::Corrupted {
            detail: format!(
                "journal entry {index} extends base snapshot {:#018x}, not {fingerprint:#018x}",
                entry.base_fingerprint
            ),
        });
    }
    if entry.pool_len_before != pool_len {
        return Err(PersistError::Corrupted {
            detail: format!(
                "journal entry {index} applies at pool length {} but the replayed pool \
                 holds {pool_len}",
                entry.pool_len_before
            ),
        });
    }
    Ok(())
}

/// Re-applies journal `entries` onto `trainer` with a single refit: in
/// journal order each entry's bindings (the base fingerprint it extends and
/// the pool length it applies at) are checked and its batch appended with
/// `retrain`'s own checks, then the trees whose pools grew are refit once
/// (`None` for an empty journal). Trainer state is a pure function of
/// (final pool, config, seed), so the result — including
/// [`IncrementalTrainer::last_refit_count`] — equals one `retrain` per entry,
/// which in the cold-start regime refit every full-pool fallback tree per
/// entry. `visit` runs before each entry's checks, so a caller layering
/// state on the annotations (`seizure-core`'s pipeline) fails at the entry a
/// per-entry replay would.
///
/// # Errors
///
/// The first failure in journal order: from `visit`, from the binding
/// checks, or [`PersistError::Corrupted`] (`journal entry {i} does not
/// re-apply`) where `retrain` would reject entry `i`. On `Err`, drop the
/// trainer: it may hold part of the journal.
pub fn replay_entries<E: From<PersistError>>(
    trainer: &mut IncrementalTrainer,
    entries: &[JournalEntry],
    fingerprint: u64,
    mut visit: impl FnMut(usize, &JournalEntry) -> Result<(), E>,
) -> Result<Option<FlatForest>, E> {
    let not_reapplied = |index: usize, e: MlError| PersistError::Corrupted {
        detail: format!("journal entry {index} does not re-apply: {e}"),
    };
    let mut last = None;
    for (i, entry) in entries.iter().enumerate() {
        visit(i, entry)?;
        validate_entry(entry, fingerprint, trainer.num_samples(), i)?;
        let tree_config = trainer
            .append(&entry.rows, entry.num_features, &entry.labels)
            .map_err(|e| not_reapplied(i, e))?;
        last = Some((i, entry.pool_len_before, tree_config));
    }
    let Some((i, pool_len_before, tree_config)) = last else {
        return Ok(None);
    };
    let forest = trainer
        .refit(&tree_config, (i > 0).then_some(pool_len_before))
        .map_err(|e| not_reapplied(i, e))?;
    Ok(Some(forest))
}

/// When to fold the journal into a fresh full snapshot. Replay refits once
/// however many entries the journal holds, but every entry is still decoded
/// and appended at boot and the journal occupies Flash next to the base, so
/// it is compacted once it stops being small relative to the snapshot it
/// extends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once the journal exceeds this fraction of the base
    /// snapshot's size. At the default (0.5), resume appends at most ~half a
    /// pool's worth of batches and the journal region never needs more than
    /// half the base's Flash.
    pub max_journal_fraction: f64,
    /// Never compact below this journal size — for small pools the full
    /// snapshot is cheap anyway, and thrashing O(pool) writes to save a few
    /// hundred journal bytes would defeat the point.
    pub min_journal_bytes: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            max_journal_fraction: 0.5,
            min_journal_bytes: 8 * 1024,
        }
    }
}

impl CompactionPolicy {
    /// `true` when a journal of `journal_len` bytes over a base of
    /// `base_len` bytes should be folded into a fresh full snapshot.
    pub fn should_compact(&self, base_len: usize, journal_len: usize) -> bool {
        journal_len >= self.min_journal_bytes
            && journal_len as f64 > self.max_journal_fraction * base_len as f64
    }
}

/// The Flash write a delta save asks the caller to perform —
/// `seizure-core`'s `SelfLearningPipeline::save_delta_with` returns this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaSave {
    /// Replace the base-snapshot region with these bytes and erase the
    /// journal region (first save, or a compaction folding the journal into
    /// a fresh full snapshot). O(pool).
    Full(Vec<u8>),
    /// Append these bytes to the journal region: one frame per entry
    /// journaled since the last save. O(batch) per entry — the steady state
    /// of the per-seizure save.
    Append(Vec<u8>),
    /// Nothing changed since the last save; write nothing.
    Clean,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestConfig;
    use crate::incremental::IncrementalTrainerConfig;
    use crate::persist::{trainer_to_bytes, ENVELOPE_LEN, FORMAT_VERSION};

    fn rows_and_labels(n: usize) -> (Vec<f64>, Vec<bool>) {
        let mut rows = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let noise = ((i * 37 + 11) % 23) as f64 / 23.0;
            let positive = i % 2 == 0;
            rows.push(if positive { 4.0 + noise } else { noise });
            rows.push(((i * 7) % 13) as f64);
            labels.push(positive);
        }
        (rows, labels)
    }

    fn config() -> IncrementalTrainerConfig {
        IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees: 5,
                max_depth: 5,
                ..RandomForestConfig::default()
            },
            block_size: 16,
        }
    }

    /// Base trainer on the first `base` samples plus a journal covering the
    /// rest in `steps` batches; returns (base bytes, journal bytes — the
    /// Flash region's contents, flushed entry by entry like a device would —
    /// the flushed writer, and the final uninterrupted trainer).
    fn journaled(
        n: usize,
        base: usize,
        steps: usize,
    ) -> (Vec<u8>, Vec<u8>, JournalWriter, IncrementalTrainer) {
        let (rows, labels) = rows_and_labels(n);
        let mut trainer = IncrementalTrainer::new(config(), 11);
        trainer
            .retrain(&rows[..base * 2], 2, &labels[..base])
            .unwrap();
        let snapshot = trainer_to_bytes(&trainer);
        let mut writer = JournalWriter::new(&snapshot, trainer.num_samples()).unwrap();
        let mut journal = Vec::new();
        let per = (n - base).div_ceil(steps);
        let mut at = base;
        while at < n {
            let to = (at + per).min(n);
            let (r, l) = (&rows[at * 2..to * 2], &labels[at..to]);
            trainer.retrain(r, 2, l).unwrap();
            writer.append(r, 2, l, &[]).unwrap();
            journal.extend_from_slice(&writer.take_unflushed());
            at = to;
        }
        (snapshot, journal, writer, trainer)
    }

    #[test]
    fn replay_reconstructs_the_uninterrupted_trainer() {
        let (base, journal, writer, uninterrupted) = journaled(120, 60, 3);
        assert_eq!(writer.num_entries(), 3);
        assert_eq!(writer.pool_len(), 120);
        assert_eq!(writer.len(), journal.len());
        let replayed = replay(&base, &journal).unwrap();
        assert_eq!(replayed.trainer, uninterrupted);
        assert_eq!(
            replayed.trainer.current_forest(),
            uninterrupted.current_forest()
        );
        assert_eq!(replayed.report.entries_applied, 3);
        assert_eq!(replayed.report.valid_len, writer.len());
        assert_eq!(replayed.report.torn_bytes, 0);
        // The resumed writer continues the same sequence.
        assert_eq!(replayed.writer.pool_len(), 120);
        assert_eq!(replayed.writer.num_entries(), 3);
        assert!(replayed.writer.unflushed().is_empty());
    }

    #[test]
    fn empty_journal_replays_to_the_base() {
        let (rows, labels) = rows_and_labels(50);
        let mut trainer = IncrementalTrainer::new(config(), 3);
        trainer.retrain(&rows, 2, &labels).unwrap();
        let base = trainer_to_bytes(&trainer);
        let replayed = replay(&base, &[]).unwrap();
        assert_eq!(replayed.trainer, trainer);
        assert_eq!(replayed.report.entries_applied, 0);
    }

    #[test]
    fn torn_final_entry_is_dropped_at_every_cut() {
        let (base, journal, _, _) = journaled(100, 50, 2);
        let journal = &journal[..];
        let scan = scan_journal(journal).unwrap();
        assert_eq!(scan.entries.len(), 2);
        // The first entry boundary, from its declared payload length.
        let first_len =
            u64::from_le_bytes(journal[12..20].try_into().unwrap()) as usize + ENVELOPE_LEN;
        // Every cut strictly inside the second entry tears it: replay keeps
        // exactly the first entry and reports the dropped tail.
        for cut in [
            first_len + 1,
            first_len + 7,
            first_len + 9,
            first_len + 21,
            journal.len() - 1,
        ] {
            let replayed = replay(&base, &journal[..cut]).unwrap();
            assert_eq!(replayed.report.entries_applied, 1, "cut {cut}");
            assert_eq!(replayed.report.valid_len, first_len, "cut {cut}");
            assert_eq!(replayed.report.torn_bytes, cut - first_len, "cut {cut}");
        }
        // A cut at the entry boundary is clean.
        let replayed = replay(&base, &journal[..first_len]).unwrap();
        assert_eq!(replayed.report.entries_applied, 1);
        assert_eq!(replayed.report.torn_bytes, 0);
    }

    #[test]
    fn resumed_writer_extends_a_torn_journal_consistently() {
        let (base, journal, _, _) = journaled(100, 50, 2);
        // Tear mid-way through the final entry, resume, re-append the lost
        // batch: truncating the "file" to the reported valid length and
        // appending the fresh entry must replay to the original state.
        let replayed = replay(&base, &journal[..journal.len() - 5]).unwrap();
        let mut resumed_writer = replayed.writer;
        let mut trainer = replayed.trainer;
        let (rows, labels) = rows_and_labels(100);
        let (r, l) = (&rows[75 * 2..], &labels[75..]);
        trainer.retrain(r, 2, l).unwrap();
        resumed_writer.append(r, 2, l, &[]).unwrap();
        assert_eq!(
            resumed_writer.unflushed().len(),
            resumed_writer.len() - replayed.report.valid_len
        );
        let mut recovered = journal[..replayed.report.valid_len].to_vec();
        recovered.extend_from_slice(&resumed_writer.take_unflushed());
        let full = replay(&base, &recovered).unwrap();
        assert_eq!(full.trainer, trainer);
    }

    #[test]
    fn corruption_battery_yields_typed_errors_and_never_applies() {
        let (base, journal, _, _) = journaled(100, 50, 2);

        // Bad magic: garbage at an entry boundary is corruption, not a tear.
        let mut bad_magic = journal.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            replay(&base, &bad_magic).unwrap_err(),
            PersistError::BadMagic { .. }
        ));
        // Short garbage that cannot be a magic prefix is still bad magic.
        assert!(matches!(
            scan_journal(b"junk").unwrap_err(),
            PersistError::BadMagic { .. }
        ));

        // Future format version, with the checksum re-signed so only the
        // version field disagrees.
        let mut future = journal.clone();
        future[8] = (FORMAT_VERSION + 1) as u8;
        assert!(matches!(
            replay(&base, &future).unwrap_err(),
            PersistError::UnsupportedVersion { .. }
        ));

        // Bit flip inside an entry payload: checksum mismatch.
        let mut flipped = journal.clone();
        let mid = journal.len() / 4;
        flipped[mid] ^= 0x20;
        assert!(matches!(
            replay(&base, &flipped).unwrap_err(),
            PersistError::ChecksumMismatch { .. }
        ));

        // A non-entry envelope in the journal stream: wrong kind.
        let not_entry = trainer_to_bytes(&trainer_from_bytes(&base).unwrap());
        assert!(matches!(
            replay(&base, &not_entry).unwrap_err(),
            PersistError::WrongKind { .. }
        ));

        // An entry bound to another base snapshot: fingerprint mismatch.
        let (other_base, other_journal, _, _) = journaled(80, 40, 1);
        let err = replay(&base, &other_journal).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }), "{err}");
        assert!(err.to_string().contains("base snapshot"), "{err}");
        // ...and the converse direction fails the same way.
        assert!(replay(&other_base, &journal).is_err());

        // Entries applied out of order: pool-length mismatch.
        let first_len =
            u64::from_le_bytes(journal[12..20].try_into().unwrap()) as usize + ENVELOPE_LEN;
        let err = replay(&base, &journal[first_len..]).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }), "{err}");
        assert!(err.to_string().contains("pool length"), "{err}");

        // A truncated entry that is *not* at the tail (valid bytes follow)
        // cannot be a clean tear: the scanner reads past the cut into the
        // next entry and the checksum exposes it.
        let mut truncated_mid = journal[..first_len - 6].to_vec();
        truncated_mid.extend_from_slice(&journal[first_len..]);
        assert!(replay(&base, &truncated_mid).is_err());

        // Well-formed entries that `retrain` would reject fail at their own
        // index even though replay refits once, after every append: entry 1
        // drifts the feature count, or is a single-class batch longer than
        // block_size (16). A valid entry follows each bad one.
        let (rows, labels) = rows_and_labels(50);
        let drifted: Vec<f64> = (0..12).map(f64::from).collect();
        let bad_entries: [(&[f64], usize, &[bool]); 2] = [
            (&drifted, 3, &[true, false, true, false]),
            (&rows[..34], 2, &[true; 17]),
        ];
        for (bad_rows, bad_features, bad_labels) in bad_entries {
            let mut writer = JournalWriter::new(&base, 50).unwrap();
            writer.append(&rows[..20], 2, &labels[..10], &[]).unwrap();
            writer
                .append(bad_rows, bad_features, bad_labels, &[])
                .unwrap();
            writer
                .append(&rows[20..40], 2, &labels[10..20], &[])
                .unwrap();
            let err = replay(&base, writer.unflushed()).unwrap_err();
            assert!(matches!(err, PersistError::Corrupted { .. }), "{err}");
            assert!(
                err.to_string()
                    .contains("journal entry 1 does not re-apply"),
                "{err}"
            );
        }

        // A checksum-valid entry of 4 labels x 2^62 features holding no
        // values: the shape product overflows to 0 and must not match the
        // empty row slice, whether it extends this base or a cold-start one.
        let overflowing = |base: &[u8], pool_len: usize| {
            let mut w = SnapshotWriter::new();
            w.u64(base_fingerprint(base).unwrap());
            w.usize(pool_len);
            w.usize(1 << 62);
            w.bools(&[true, false, true, false]);
            w.slice_f64(&[]);
            w.nested(&[]);
            w.finish(SnapshotKind::JournalEntry)
        };
        let entry = overflowing(&base, 50);
        let err = scan_journal(&entry).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }), "{err}");
        let err = replay(&base, &entry).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }), "{err}");
        let cold = trainer_to_bytes(&IncrementalTrainer::new(config(), 1));
        let err = replay(&cold, &overflowing(&cold, 0)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }), "{err}");
    }

    #[test]
    fn writer_rejects_malformed_batches() {
        let (base, journal, mut writer, _) = journaled(60, 60, 1);
        assert!(writer.append(&[1.0, 2.0], 2, &[], &[]).is_err());
        assert!(writer
            .append(&[1.0, 2.0, 3.0], 2, &[true, false], &[])
            .is_err());
        // Nothing was appended by the rejected calls.
        assert_eq!(writer.num_entries(), 0);
        assert!(writer.is_empty());
        assert!(journal.is_empty());
        assert_eq!(replay(&base, &journal).unwrap().report.entries_applied, 0);
        // And a writer refuses a base that is not an envelope.
        assert!(JournalWriter::new(b"nope", 0).is_err());
        assert!(JournalWriter::new(b"definitely not a snapshot....", 0).is_err());
    }

    #[test]
    fn annotations_round_trip() {
        let (rows, labels) = rows_and_labels(80);
        let mut trainer = IncrementalTrainer::new(config(), 5);
        trainer.retrain(&rows[..80], 2, &labels[..40]).unwrap();
        let base = trainer_to_bytes(&trainer);
        let mut writer = JournalWriter::new(&base, 40).unwrap();
        writer
            .append(&rows[80..], 2, &labels[40..], b"onset=12.5")
            .unwrap();
        let scan = scan_journal(writer.unflushed()).unwrap();
        assert_eq!(scan.entries[0].annotation, b"onset=12.5");
        assert_eq!(scan.entries[0].pool_len_before, 40);
        let replayed = replay(&base, writer.unflushed()).unwrap();
        assert_eq!(
            replayed.trainer,
            trainer_from_bytes(&base)
                .map(|mut t| {
                    t.retrain(&rows[80..], 2, &labels[40..]).unwrap();
                    t
                })
                .unwrap()
        );
    }

    #[test]
    fn unflushed_tracks_the_delta_between_saves() {
        let (_, _, mut writer, _) = journaled(60, 60, 1);
        assert!(writer.unflushed().is_empty());
        let (rows, labels) = rows_and_labels(70);
        writer.append(&rows[120..], 2, &labels[60..], &[]).unwrap();
        let first = writer.unflushed().to_vec();
        assert_eq!(first.len(), writer.len());
        writer.take_unflushed();
        assert!(writer.unflushed().is_empty());
        writer.append(&rows[120..], 2, &labels[60..], &[]).unwrap();
        assert_eq!(writer.unflushed().len(), writer.len() - first.len());
    }

    #[test]
    fn compaction_policy_thresholds() {
        let policy = CompactionPolicy::default();
        // Below the absolute floor: never compact.
        assert!(!policy.should_compact(1000, 4096));
        // Above the floor and above the fraction: compact.
        assert!(policy.should_compact(10_000, 8192));
        // Above the floor but still small next to a big base: keep appending.
        assert!(!policy.should_compact(100_000, 9000));
        let strict = CompactionPolicy {
            max_journal_fraction: 0.1,
            min_journal_bytes: 0,
        };
        assert!(strict.should_compact(100, 11));
        assert!(!strict.should_compact(100, 10));
    }
}
