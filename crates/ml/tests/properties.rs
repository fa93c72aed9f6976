//! Property-based tests for the machine-learning substrate.

use proptest::prelude::*;
use seizure_ml::flat::FlatForest;
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
use seizure_ml::metrics::{geometric_mean, ConfusionMatrix};
use seizure_ml::persist::journal::{replay, JournalWriter};
use seizure_ml::persist::{
    trainer_from_bytes, trainer_to_bytes, write_forest_config, PersistError, SnapshotKind,
    SnapshotWriter,
};
use seizure_ml::training::TrainingSet;
use seizure_ml::MlError;

fn labeled_points(n: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<bool>)> {
    prop::collection::vec((prop::collection::vec(-50.0f64..50.0, 3), any::<bool>()), n)
        .prop_map(|rows| rows.into_iter().unzip())
}

/// Fits `forest` on row vectors in one retrain of a fresh trainer.
fn fit_rows(rows: &[Vec<f64>], labels: &[bool], forest: RandomForestConfig) -> FlatForest {
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let config = IncrementalTrainerConfig {
        forest,
        ..IncrementalTrainerConfig::default()
    };
    IncrementalTrainer::new(config, 3)
        .retrain(&flat, rows[0].len(), labels)
        .unwrap()
}

/// Caps every single-class run of `labels` at `max_run` samples by flipping
/// the label that would extend it. The incremental trainer rejects
/// single-class appends longer than its block size (they degrade
/// block-specialized tree diversity), so random grow schedules must not
/// carve such a batch out of the label stream.
fn cap_runs(mut labels: Vec<bool>, max_run: usize) -> Vec<bool> {
    let mut run = 1;
    for i in 1..labels.len() {
        if labels[i] == labels[i - 1] {
            run += 1;
        } else {
            run = 1;
        }
        if run > max_run {
            labels[i] = !labels[i];
            run = 1;
        }
    }
    labels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tree_probabilities_are_probabilities((rows, labels) in labeled_points(4..60)) {
        // A one-tree forest votes with its tree's leaf probability.
        let config = RandomForestConfig { n_trees: 1, max_depth: 12, ..Default::default() };
        let tree = fit_rows(&rows, &labels, config);
        for row in &rows {
            let p = tree.predict_proba(row);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert_eq!(tree.predict(row), p >= 0.5);
        }
    }

    #[test]
    fn forest_probability_is_mean_of_votes((rows, labels) in labeled_points(6..40)) {
        let config = RandomForestConfig { n_trees: 7, max_depth: 5, ..Default::default() };
        let forest = fit_rows(&rows, &labels, config);
        for row in rows.iter().take(10) {
            let p = forest.predict_proba(row);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_set_append_equals_full_rebuild(
        (rows, labels) in labeled_points(4..60),
        cut_raw in 0usize..1000,
    ) {
        let n = rows.len();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let cut = 1 + cut_raw % (n.max(2) - 1);
        let mut grown = TrainingSet::from_rows(&flat[..cut * 3], 3, &labels[..cut]).unwrap();
        grown.append_rows(&flat[cut * 3..], &labels[cut..]).unwrap();
        let rebuilt = TrainingSet::from_rows(&flat, 3, &labels).unwrap();
        // Exact equality including the merged presorted index arrays.
        prop_assert_eq!(grown, rebuilt);
    }

    #[test]
    fn incremental_retraining_is_schedule_independent(
        (rows, labels) in labeled_points(10..80),
        seed in 0u64..30,
        cuts_raw in prop::collection::vec(1usize..1000, 0..3),
    ) {
        let n = rows.len();
        let labels = cap_runs(labels, 8);
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let config = IncrementalTrainerConfig {
            forest: RandomForestConfig { n_trees: 7, max_depth: 5, ..Default::default() },
            block_size: 8,
        };
        // A random grow schedule ending at the full dataset.
        let mut cuts: Vec<usize> = cuts_raw.iter().map(|c| 1 + c % n).collect();
        cuts.push(n);
        cuts.sort_unstable();
        cuts.dedup();
        let mut trainer = IncrementalTrainer::new(config, seed);
        let mut prev = 0;
        let mut forest = None;
        for &cut in &cuts {
            forest = Some(trainer.retrain(&flat[prev * 3..cut * 3], 3, &labels[prev..cut]).unwrap());
            prev = cut;
        }
        let forest = forest.unwrap();
        // Any schedule must equal the single-shot fit of the final dataset...
        let mut scratch = IncrementalTrainer::new(config, seed);
        let reference = scratch.retrain(&flat, 3, &labels).unwrap();
        prop_assert_eq!(&forest, &reference);
        // ...including identical predictions on a held-out matrix.
        let held: Vec<f64> = (0..60).map(|i| (i % 21) as f64 * 5.0 - 50.0).collect();
        prop_assert_eq!(
            forest.predict_batch(&held, 3).unwrap(),
            reference.predict_batch(&held, 3).unwrap()
        );
        let probas: Vec<u64> = held.chunks_exact(3).map(|row| forest.predict_proba(row).to_bits()).collect();
        let ref_probas: Vec<u64> = held.chunks_exact(3).map(|row| reference.predict_proba(row).to_bits()).collect();
        prop_assert_eq!(probas, ref_probas);
    }

    #[test]
    fn snapshot_resume_is_node_identical_at_any_split_point(
        (rows, labels) in labeled_points(10..80),
        seed in 0u64..30,
        cuts_raw in prop::collection::vec(1usize..1000, 1..4),
        split_raw in 0usize..1000,
    ) {
        let n = rows.len();
        let labels = cap_runs(labels, 8);
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let config = IncrementalTrainerConfig {
            forest: RandomForestConfig { n_trees: 7, max_depth: 5, ..Default::default() },
            block_size: 8,
        };
        // A random grow schedule ending at the full dataset, interrupted by
        // a save/load round trip after a random step.
        let mut cuts: Vec<usize> = cuts_raw.iter().map(|c| 1 + c % n).collect();
        cuts.push(n);
        cuts.sort_unstable();
        cuts.dedup();
        let split = split_raw % cuts.len();

        let mut uninterrupted = IncrementalTrainer::new(config, seed);
        let mut resumed: Option<IncrementalTrainer> = None;
        let mut prev = 0;
        let mut forest = None;
        let mut resumed_forest = None;
        for (step, &cut) in cuts.iter().enumerate() {
            let (r, l) = (&flat[prev * 3..cut * 3], &labels[prev..cut]);
            forest = Some(uninterrupted.retrain(r, 3, l).unwrap());
            if let Some(t) = resumed.as_mut() {
                resumed_forest = Some(t.retrain(r, 3, l).unwrap());
            }
            if step == split {
                // The process boundary: serialize, drop, restore.
                let bytes = trainer_to_bytes(&uninterrupted);
                let restored = trainer_from_bytes(&bytes).unwrap();
                prop_assert_eq!(&restored, &uninterrupted);
                resumed = Some(restored);
                resumed_forest = forest.clone();
            }
            prev = cut;
        }
        // The resumed trainer's final forest is node-identical to the
        // uninterrupted one's, and the trainers agree state for state.
        let resumed = resumed.unwrap();
        prop_assert_eq!(&resumed, &uninterrupted);
        prop_assert_eq!(&resumed_forest.unwrap(), &forest.unwrap());
    }

    /// The delta-journal invariant: a base snapshot taken at **any** split
    /// point of **any** grow schedule, plus the journal of the remaining
    /// retrains truncated at **any** byte, replays to a trainer
    /// node-identical to the uninterrupted trainer at the corresponding
    /// step — a torn final entry is dropped at an entry boundary, never
    /// misapplied.
    #[test]
    fn journal_replay_is_node_identical_at_any_truncation_point(
        (rows, labels) in labeled_points(10..80),
        seed in 0u64..30,
        cuts_raw in prop::collection::vec(1usize..1000, 1..5),
        split_raw in 0usize..1000,
        trunc_raw in 0usize..1_000_000,
    ) {
        let n = rows.len();
        let labels = cap_runs(labels, 8);
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let config = IncrementalTrainerConfig {
            forest: RandomForestConfig { n_trees: 7, max_depth: 5, ..Default::default() },
            block_size: 8,
        };
        let mut cuts: Vec<usize> = cuts_raw.iter().map(|c| 1 + c % n).collect();
        cuts.push(n);
        cuts.sort_unstable();
        cuts.dedup();
        let split = split_raw % cuts.len();

        // Grow uninterrupted; snapshot at the split point, journal every
        // retrain after it (flushing each entry into the simulated Flash
        // region), and remember the trainer state at each entry boundary
        // (what a truncated journal must replay to).
        let mut trainer = IncrementalTrainer::new(config, seed);
        let mut base: Option<Vec<u8>> = None;
        let mut writer: Option<JournalWriter> = None;
        let mut journal: Vec<u8> = Vec::new();
        let mut states: Vec<IncrementalTrainer> = Vec::new();
        let mut boundaries: Vec<usize> = Vec::new();
        let mut prev = 0;
        for (step, &cut) in cuts.iter().enumerate() {
            let (r, l) = (&flat[prev * 3..cut * 3], &labels[prev..cut]);
            trainer.retrain(r, 3, l).unwrap();
            if let Some(w) = writer.as_mut() {
                w.append(r, 3, l, &[]).unwrap();
                journal.extend_from_slice(&w.take_unflushed());
                states.push(trainer.clone());
                boundaries.push(journal.len());
            }
            if step == split {
                let bytes = trainer_to_bytes(&trainer);
                writer = Some(JournalWriter::new(&bytes, trainer.num_samples()).unwrap());
                base = Some(bytes);
                states.push(trainer.clone());
                boundaries.push(0);
            }
            prev = cut;
        }
        let base = base.unwrap();

        // Truncate at an arbitrary byte and replay: the reconstruction must
        // equal the uninterrupted trainer after the last complete entry.
        let trunc = trunc_raw % (journal.len() + 1);
        let replayed = replay(&base, &journal[..trunc]).unwrap();
        let applied = boundaries.iter().filter(|&&b| b <= trunc).count() - 1;
        prop_assert_eq!(replayed.report.entries_applied, applied);
        prop_assert_eq!(replayed.report.valid_len, boundaries[applied]);
        prop_assert_eq!(replayed.report.torn_bytes, trunc - boundaries[applied]);
        let expected = &states[applied];
        prop_assert_eq!(&replayed.trainer, expected);
        prop_assert_eq!(
            replayed.trainer.current_forest(),
            expected.current_forest()
        );
        // The untruncated journal reconstructs the final trainer exactly.
        let full = replay(&base, &journal).unwrap();
        prop_assert_eq!(&full.trainer, states.last().unwrap());
        prop_assert_eq!(full.report.torn_bytes, 0);
    }

    #[test]
    fn confusion_matrix_counts_are_consistent(predictions in prop::collection::vec(any::<bool>(), 1..200), flip in any::<u64>()) {
        let truth: Vec<bool> = predictions
            .iter()
            .enumerate()
            .map(|(i, &p)| if (flip >> (i % 64)) & 1 == 1 { !p } else { p })
            .collect();
        let cm = ConfusionMatrix::from_predictions(&predictions, &truth).unwrap();
        prop_assert_eq!(cm.total(), predictions.len());
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
        prop_assert!((0.0..=1.0).contains(&cm.sensitivity()));
        prop_assert!((0.0..=1.0).contains(&cm.specificity()));
        prop_assert!(cm.geometric_mean() <= cm.sensitivity().max(cm.specificity()) + 1e-12);
        prop_assert!(cm.geometric_mean() + 1e-12 >= 0.0);
    }

    #[test]
    fn geometric_mean_lies_between_min_and_max(values in prop::collection::vec(0.01f64..1.0, 1..30)) {
        let g = geometric_mean(&values).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        prop_assert!(g >= min - 1e-9 && g <= max + 1e-9);
    }
}

/// Pseudo-random two-feature rows with mixed labels.
fn hashed_rows(n: usize) -> (Vec<f64>, Vec<bool>) {
    let mut rows = Vec::with_capacity(n * 2);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        rows.push((h % 9973) as f64);
        rows.push(((h >> 32) % 101) as f64);
        labels.push(h % 89 < 44);
    }
    (rows, labels)
}

/// A hand-written trainer snapshot holding a one-feature pool of `n`
/// samples and no trees.
fn pool_snapshot(n: usize) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    write_forest_config(&mut w, &RandomForestConfig::default());
    w.usize(128); // block_size
    w.u64(1); // seed
    w.usize(0); // last refit count
    w.bool(true); // the pool follows
    w.usize(1); // feature count
    w.bools(&vec![false; n]);
    w.slice_f64(&vec![0.5; n]);
    w.usize(0); // no cached trees
    w.finish(SnapshotKind::IncrementalTrainer)
}

/// Sample ids are u16, so a pool holds at most 65 536 windows: a full pool
/// builds and trains, and every way of reaching 65 537 windows is refused
/// with a typed error that leaves the pool untouched.
#[test]
fn pools_are_capped_at_the_u16_id_space() {
    let cap = TrainingSet::MAX_SAMPLES;
    assert_eq!(cap, 65_536);
    let (rows, labels) = hashed_rows(cap + 1);
    let config = RandomForestConfig {
        n_trees: 2,
        max_depth: 4,
        bootstrap_fraction: 0.02,
        max_features: Some(2),
        ..RandomForestConfig::default()
    };

    let mut full = TrainingSet::from_rows(&rows[..cap * 2], 2, &labels[..cap]).unwrap();
    assert_eq!(full.len(), cap);
    let is_cap_error = |e: MlError| matches!(e, MlError::InvalidDataset { .. });
    assert!(is_cap_error(
        TrainingSet::from_rows(&rows, 2, &labels).unwrap_err()
    ));
    let before = full.clone();
    assert!(is_cap_error(
        full.append_rows(&rows[cap * 2..], &labels[cap..])
            .unwrap_err()
    ));
    assert_eq!(full, before);

    let mut trainer = IncrementalTrainer::new(
        IncrementalTrainerConfig {
            forest: config,
            block_size: 8192,
        },
        9,
    );
    let cut = cap - 536;
    trainer
        .retrain(&rows[..cut * 2], 2, &labels[..cut])
        .unwrap();
    let forest = trainer
        .retrain(&rows[cut * 2..cap * 2], 2, &labels[cut..cap])
        .unwrap();
    assert_eq!(forest.num_trees(), 2);
    assert_eq!(trainer.num_samples(), cap);
    let before = trainer.clone();
    assert!(is_cap_error(
        trainer
            .retrain(&rows[cap * 2..], 2, &labels[cap..])
            .unwrap_err()
    ));
    assert_eq!(trainer, before);

    assert_eq!(
        trainer_from_bytes(&pool_snapshot(cap))
            .unwrap()
            .num_samples(),
        cap
    );
    assert!(matches!(
        trainer_from_bytes(&pool_snapshot(cap + 1)),
        Err(PersistError::Corrupted { .. })
    ));
}
