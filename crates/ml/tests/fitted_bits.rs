//! Freezes the fitted trainer state, cold-start trees and block owners.
//!
//! The first test grows an incremental trainer of 12 trees over 8-sample
//! blocks through three retrains to 24, 40 and 64 samples. Every step holds
//! fewer blocks than trees, so the cold-start trees (no owned block yet)
//! refit from the whole pool each time, next to the owners of new single
//! blocks. The second grows 3 trees over 4-sample blocks to 21, 49 and 65
//! samples (6, 13 and 17 blocks, each time with a partial last block), so
//! every tree refits from two to six owned blocks at every step. The third
//! grows the detector's forest (30 trees of depth 8 trying `ceil(sqrt(54))`
//! of 54 features per node, 128-sample blocks) to 300, 609 and 1 500
//! samples, so nodes of hundreds of pool ids, and the small nodes below
//! them, reach every split.
//!
//! The features of the first two tests take one of seven levels, so equal
//! values straddle blocks, and feature 3's lowest level is NaN; the third's
//! take one of sixteen, with the lowest level NaN in six features.
//! `NaN == NaN` is false, so the split scan weighs cuts inside the NaN group
//! and the order of that tie group reaches the fitted nodes (ties between
//! equal finite values cannot be split, so their order never does). After
//! each step a test pins the length and FNV-1a hash of `trainer_to_bytes`,
//! which holds the pool and every fitted node. A journal replay of the last
//! two batches onto the first snapshot must reach the last pin.
//!
//! A refactor of the training engine must leave every pin unchanged; a pin
//! moves only when the fitted forests do.

use seizure_ml::persist::journal::{replay, JournalWriter};
use seizure_ml::persist::{fnv1a, trainer_from_bytes, trainer_to_bytes};
use seizure_ml::{IncrementalTrainer, IncrementalTrainerConfig, RandomForestConfig};

const NUM_FEATURES: usize = 4;
const CUTS: [usize; 3] = [24, 40, 64];

fn config() -> IncrementalTrainerConfig {
    IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 12,
            max_depth: 6,
            min_samples_split: 2,
            max_features: Some(2),
            bootstrap_fraction: 1.0,
        },
        block_size: 8,
    }
}

/// Row-major rows quantized to seven levels per feature, with the label
/// nudging features 0 and 2 up a level so the trees find real splits and
/// feature 3's lowest level replaced by NaN. Labels alternate in runs of at
/// most three.
fn rows_and_labels(n: usize) -> (Vec<f64>, Vec<bool>) {
    quantized_rows(n, NUM_FEATURES, 7, |f| f % 2 == 0, |f| f == 3)
}

/// Row-major rows of `num_features` features quantized to `levels` levels,
/// with the label nudging the `informative` features up a level and the
/// lowest level of the `nan` features replaced by NaN. Labels alternate in
/// runs of at most three.
fn quantized_rows(
    n: usize,
    num_features: usize,
    levels: u64,
    informative: fn(usize) -> bool,
    nan: fn(usize) -> bool,
) -> (Vec<f64>, Vec<bool>) {
    let labels: Vec<bool> = (0..n).map(|i| (i * 5 + i / 3) % 7 < 3).collect();
    let mut rows = Vec::with_capacity(n * num_features);
    for (i, &label) in labels.iter().enumerate() {
        for f in 0..num_features {
            let h = ((i * num_features + f) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut level = (h >> 40) % levels;
            if label && informative(f) {
                level = (level + 1).min(levels - 1);
            }
            rows.push(if nan(f) && level == 0 {
                f64::NAN
            } else {
                level as f64 * 0.25 - 0.5
            });
        }
    }
    (rows, labels)
}

fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

#[test]
fn cold_start_refits_and_their_replay_are_pinned() {
    let (rows, labels) = rows_and_labels(CUTS[2]);
    let batch =
        |lo: usize, hi: usize| (&rows[lo * NUM_FEATURES..hi * NUM_FEATURES], &labels[lo..hi]);
    let expected: [(usize, u64); 3] = [
        (3753, 0x85a3_e64e_441c_dc80),
        (4771, 0x2c3e_9b60_cdcb_7543),
        (6214, 0xf9c6_be67_f824_c411),
    ];

    let mut trainer = IncrementalTrainer::new(config(), 17);
    let mut base = Vec::new();
    let mut pins = Vec::new();
    let mut prev = 0;
    for &cut in &CUTS {
        let (r, l) = batch(prev, cut);
        trainer.retrain(r, NUM_FEATURES, l).unwrap();
        assert!(
            cut.div_ceil(8) < trainer.num_trees(),
            "{cut} samples left cold start"
        );
        let bytes = trainer_to_bytes(&trainer);
        pins.push(pin(&bytes));
        if base.is_empty() {
            base = bytes;
        }
        prev = cut;
    }
    assert_eq!(
        pins, expected,
        "a fitted trainer moved (len, fnv1a per step)"
    );

    let mut writer = JournalWriter::new(&base, CUTS[0]).unwrap();
    for pair in CUTS.windows(2) {
        let (r, l) = batch(pair[0], pair[1]);
        writer.append(r, NUM_FEATURES, l, &[]).unwrap();
    }
    let replayed = replay(&base, writer.unflushed()).unwrap();
    assert_eq!(replayed.report.entries_applied, 2);
    assert_eq!(
        pin(&trainer_to_bytes(&replayed.trainer)),
        expected[2],
        "replaying the journal onto the 24-sample snapshot moved"
    );
}

#[test]
fn multi_block_owner_refits_and_their_replay_are_pinned() {
    const OWNER_CUTS: [usize; 3] = [21, 49, 65];
    let config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 3,
            ..config().forest
        },
        block_size: 4,
    };
    let (rows, labels) = rows_and_labels(OWNER_CUTS[2]);
    let batch =
        |lo: usize, hi: usize| (&rows[lo * NUM_FEATURES..hi * NUM_FEATURES], &labels[lo..hi]);
    let expected: [(usize, u64); 3] = [
        (1389, 0x177f_dadc_5dcb_047f),
        (2289, 0xd8aa_b2cb_0810_f82f),
        (2971, 0x3272_07d7_4e6b_ad01),
    ];

    let mut trainer = IncrementalTrainer::new(config, 17);
    let mut base = Vec::new();
    let mut pins = Vec::new();
    let mut prev = 0;
    for &cut in &OWNER_CUTS {
        let (r, l) = batch(prev, cut);
        trainer.retrain(r, NUM_FEATURES, l).unwrap();
        assert_eq!(
            trainer.last_refit_count(),
            trainer.num_trees(),
            "{cut} samples left a tree unrefit"
        );
        let bytes = trainer_to_bytes(&trainer);
        assert_eq!(
            trainer_to_bytes(&trainer_from_bytes(&bytes).unwrap()),
            bytes,
            "the {cut}-sample snapshot does not re-encode to itself"
        );
        pins.push(pin(&bytes));
        if base.is_empty() {
            base = bytes;
        }
        prev = cut;
    }
    assert_eq!(
        pins, expected,
        "a fitted trainer moved (len, fnv1a per step)"
    );

    let mut writer = JournalWriter::new(&base, OWNER_CUTS[0]).unwrap();
    for pair in OWNER_CUTS.windows(2) {
        let (r, l) = batch(pair[0], pair[1]);
        writer.append(r, NUM_FEATURES, l, &[]).unwrap();
    }
    let replayed = replay(&base, writer.unflushed()).unwrap();
    assert_eq!(replayed.report.entries_applied, 2);
    assert_eq!(
        pin(&trainer_to_bytes(&replayed.trainer)),
        expected[2],
        "replaying the journal onto the 21-sample snapshot moved"
    );
}

#[test]
fn paper_scale_refits_and_their_replay_are_pinned() {
    const FEATURES: usize = 54;
    const PAPER_CUTS: [usize; 3] = [300, 609, 1_500];
    let config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 30,
            max_depth: 8,
            min_samples_split: 2,
            max_features: None,
            bootstrap_fraction: 1.0,
        },
        block_size: 128,
    };
    let (rows, labels) =
        quantized_rows(PAPER_CUTS[2], FEATURES, 16, |f| f % 3 == 0, |f| f % 9 == 4);
    let batch = |lo: usize, hi: usize| (&rows[lo * FEATURES..hi * FEATURES], &labels[lo..hi]);
    let expected: [(usize, u64); 3] = [
        (161_348, 0x1cbc_8f88_e363_ac22),
        (291_683, 0x76a4_52ef_5d2f_ac73),
        (675_586, 0x88c4_3a0b_aea4_0f74),
    ];

    let mut trainer = IncrementalTrainer::new(config, 17);
    let mut base = Vec::new();
    let mut pins = Vec::new();
    let mut prev = 0;
    for &cut in &PAPER_CUTS {
        let (r, l) = batch(prev, cut);
        trainer.retrain(r, FEATURES, l).unwrap();
        let bytes = trainer_to_bytes(&trainer);
        pins.push(pin(&bytes));
        if base.is_empty() {
            base = bytes;
        }
        prev = cut;
    }
    assert_eq!(
        pins, expected,
        "a fitted trainer moved (len, fnv1a per step)"
    );

    let mut writer = JournalWriter::new(&base, PAPER_CUTS[0]).unwrap();
    for pair in PAPER_CUTS.windows(2) {
        let (r, l) = batch(pair[0], pair[1]);
        writer.append(r, FEATURES, l, &[]).unwrap();
    }
    let replayed = replay(&base, writer.unflushed()).unwrap();
    assert_eq!(replayed.report.entries_applied, 2);
    assert_eq!(
        pin(&trainer_to_bytes(&replayed.trainer)),
        expected[2],
        "replaying the journal onto the 300-sample snapshot moved"
    );
}
