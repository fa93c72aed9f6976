//! Freezes the persisted byte format.
//!
//! Each case encodes a state that involves no tree fitting (an empty
//! trainer, a pool without trees, one journal entry and a freshly formatted
//! Flash image) and pins the length and FNV-1a hash of the bytes. A codec
//! refactor must leave every pin unchanged; a pin moves only when the wire
//! format itself does, and then the format version must be bumped too.

use seizure_ml::persist::journal::JournalWriter;
use seizure_ml::persist::store::{FlashGeometry, FlashStore, MemFlash};
use seizure_ml::persist::{fnv1a, trainer_to_bytes};
use seizure_ml::{IncrementalTrainer, IncrementalTrainerConfig, RandomForestConfig};

fn config(n_trees: usize) -> IncrementalTrainerConfig {
    IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees,
            max_depth: 6,
            min_samples_split: 2,
            max_features: Some(3),
            bootstrap_fraction: 0.75,
        },
        block_size: 16,
    }
}

fn rows_and_labels(n: usize) -> (Vec<f64>, Vec<bool>) {
    let rows = (0..2 * n)
        .map(|i| ((i * 37 + 11) % 23) as f64 / 7.0)
        .collect();
    let labels = (0..n).map(|i| i % 3 == 0).collect();
    (rows, labels)
}

fn empty_trainer() -> Vec<u8> {
    trainer_to_bytes(&IncrementalTrainer::new(config(4), 99))
}

fn assert_pinned(case: &str, bytes: &[u8], len: usize, hash: u64) {
    assert_eq!(
        (bytes.len(), fnv1a(bytes)),
        (len, hash),
        "{case}: the wire format moved (got len {}, fnv1a {:#018x})",
        bytes.len(),
        fnv1a(bytes)
    );
}

#[test]
fn empty_trainer_bytes_are_frozen() {
    assert_pinned(
        "empty trainer",
        &empty_trainer(),
        102,
        0xd698_31b5_980d_c3a3,
    );
}

#[test]
fn pool_without_trees_bytes_are_frozen() {
    // A first retrain that fails hyper-parameter validation installs the
    // pool and fits no tree.
    let (rows, labels) = rows_and_labels(30);
    let mut trainer = IncrementalTrainer::new(config(0), 1);
    assert!(trainer.retrain(&rows, 2, &labels).is_err());
    assert_eq!(trainer.num_samples(), 30);
    assert_pinned(
        "pool without trees",
        &trainer_to_bytes(&trainer),
        610,
        0xb0e9_d79b_c75c_ef53,
    );
}

#[test]
fn journal_entry_bytes_are_frozen() {
    let base = empty_trainer();
    let (rows, labels) = rows_and_labels(5);
    let annotation: Vec<u8> = (0..40).collect();
    let mut writer = JournalWriter::new(&base, 0).unwrap();
    writer.append(&rows, 2, &labels, &annotation).unwrap();
    assert_pinned(
        "journal entry",
        writer.unflushed(),
        197,
        0x7ec6_7420_5d31_dc1b,
    );
}

#[test]
fn formatted_flash_image_is_frozen() {
    let base = empty_trainer();
    let geometry = FlashGeometry::for_base(base.len() + 64, 256);
    let flash = MemFlash::new(geometry.total_bytes());
    let store = FlashStore::format(flash, geometry, &base).unwrap();
    assert_pinned(
        "formatted image",
        store.flash().image(),
        668,
        0x759e_9cb7_9088_d8c4,
    );
}
