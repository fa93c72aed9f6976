//! Persistence benchmark: delta-journal appends vs full snapshots.
//!
//! Reproduces the self-learning loop's per-seizure Flash write at paper
//! scale: the training pool has accumulated windows from earlier missed
//! seizures, a new batch arrives (10 % of the pool) and the trainer's state
//! must be made durable. Two writes are compared:
//!
//! * **full**: what the loop paid before — `persist::trainer_to_bytes`
//!   re-serializes the whole O(pool) trainer after every retrain;
//! * **delta**: `persist::journal::JournalWriter::append` — one
//!   checksummed O(batch) entry appended after the base snapshot.
//!
//! Before any timing, `journal::replay(base, journal)` is asserted to
//! reconstruct the exact uninterrupted trainer (node-identical forest), and
//! the per-retrain delta write is asserted ≥5x smaller than the full
//! snapshot for the 10 % append.
//!
//! A second section times the power-up of a young device: a cold-start
//! journal (fewer ownership blocks than trees, so every retrain refits every
//! full-pool fallback tree) of three seizure-sized entries over a six-entry
//! base, replayed two ways — `journal::replay`, which appends every entry
//! and refits once, and a loop calling `IncrementalTrainer::retrain` per
//! entry. The two trainers are asserted equal (`last_refit_count`
//! included) in every mode. Results are printed and written to
//! `BENCH_persist.json` at the workspace root (skipped in `--quick` mode,
//! which the CI smoke job uses).
//!
//! Run with: `cargo bench -p seizure-bench --bench persist [-- --quick]`

use std::time::Instant;

use seizure_bench::synth::synth_channels;
use seizure_features::extractor::{FeatureExtractor, RichFeatureSet, SlidingWindowConfig};
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
use seizure_ml::persist::journal::{replay, scan_journal, JournalWriter};
use seizure_ml::persist::{trainer_from_bytes, trainer_to_bytes};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fs = 256.0;
    let secs = if quick { 40.0 } else { 3600.0 };
    let reps = if quick { 2 } else { 10 };

    // Paper-scale pool, built exactly like the retrain bench's.
    let (a, b) = synth_channels(secs, fs, 0x1357_9bdf_2468_acee);
    let cfg = SlidingWindowConfig::paper_default(fs).expect("paper config");
    let extractor = RichFeatureSet::new(fs).expect("extractor");
    let matrix = extractor.extract_batch(&a, &b, &cfg).expect("features");
    let samples = matrix.num_windows();
    let num_features = matrix.num_features();
    let labels: Vec<bool> = (0..samples).map(|i| (i / 20) % 2 == 0).collect();
    let rows = matrix.data();

    let trainer_config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 30,
            max_depth: 8,
            ..RandomForestConfig::default()
        },
        block_size: 128,
    };
    let seed = 7;

    // The pool before the new batch (90 %) and the appended batch (10 %).
    let base_n = samples - samples / 10;
    let appended = samples - base_n;

    let mut trainer = IncrementalTrainer::new(trainer_config, seed);
    trainer
        .retrain(
            &rows[..base_n * num_features],
            num_features,
            &labels[..base_n],
        )
        .expect("base fit");
    let base = trainer_to_bytes(&trainer);
    let mut writer = JournalWriter::new(&base, trainer.num_samples()).expect("writer");
    trainer
        .retrain(
            &rows[base_n * num_features..],
            num_features,
            &labels[base_n..],
        )
        .expect("append retrain");
    writer
        .append(
            &rows[base_n * num_features..],
            num_features,
            &labels[base_n..],
            &[],
        )
        .expect("journal append");
    let journal = writer.take_unflushed();
    let entry_bytes = journal.len();

    // Correctness gate: base + journal reconstruct the exact trainer, and a
    // replay costs one retrain, not a from-scratch fit.
    let replay_start = Instant::now();
    let replayed = replay(&base, &journal).expect("replay");
    let replay_time = replay_start.elapsed().as_secs_f64();
    assert_eq!(
        replayed.trainer, trainer,
        "journal replay diverged from the uninterrupted trainer"
    );
    assert_eq!(
        replayed.trainer.current_forest(),
        trainer.current_forest(),
        "replayed forest is not node-identical"
    );

    // --- Full path: re-serialize the whole pool after the retrain. ---
    let full_bytes = trainer_to_bytes(&trainer).len();
    let mut full_time = f64::INFINITY;
    for _ in 0..=reps {
        let start = Instant::now();
        let snapshot = trainer_to_bytes(&trainer);
        full_time = full_time.min(start.elapsed().as_secs_f64());
        assert_eq!(snapshot.len(), full_bytes);
    }

    // --- Delta path: one journal entry for the same batch. ---
    let mut delta_time = f64::INFINITY;
    for _ in 0..=reps {
        let mut w = JournalWriter::new(&base, base_n).expect("writer");
        let start = Instant::now();
        w.append(
            &rows[base_n * num_features..],
            num_features,
            &labels[base_n..],
            &[],
        )
        .expect("journal append");
        delta_time = delta_time.min(start.elapsed().as_secs_f64());
        assert_eq!(w.len(), entry_bytes);
    }

    let write_reduction = full_bytes as f64 / entry_bytes as f64;
    println!(
        "persist bench ({samples} samples x {num_features} features, +{appended} appended, {} trees)",
        trainer_config.forest.n_trees
    );
    println!(
        "  full snapshot:  {:>9} bytes, {:>8.2} ms",
        full_bytes,
        1e3 * full_time
    );
    println!(
        "  journal append: {:>9} bytes, {:>8.2} ms ({write_reduction:.2}x smaller write)",
        entry_bytes,
        1e3 * delta_time
    );
    println!("  replay (base + 1 entry): {:>8.2} ms", 1e3 * replay_time);
    assert!(
        write_reduction >= 5.0,
        "a 10 % append must shrink the per-seizure write >=5x, got {write_reduction:.2}x"
    );

    // --- Cold-start power-up: one refit vs one retrain per entry. ---
    // Seizure-sized entries (~120 windows at paper scale) over a six-entry
    // base, as on a device a few seizures into its life. The quick pool
    // (24 + 3 x 4 samples) would fit one 128-sample block, so the smoke
    // spreads it over 8-sample blocks: the replay then refits block owners
    // next to the cold-start trees, as the paper-scale pool does.
    let entry_n = (samples / 30).max(4);
    let cold_base_n = 6 * entry_n;
    let cold_entries = 3;
    let cold_n = cold_base_n + cold_entries * entry_n;
    let cold_config = IncrementalTrainerConfig {
        block_size: if quick { 8 } else { trainer_config.block_size },
        ..trainer_config
    };
    let cold_blocks = cold_n.div_ceil(cold_config.block_size);
    assert!(
        (2..cold_config.forest.n_trees).contains(&cold_blocks),
        "the replayed journal must span several blocks and stay in the cold-start regime"
    );
    let mut cold = IncrementalTrainer::new(cold_config, seed);
    cold.retrain(
        &rows[..cold_base_n * num_features],
        num_features,
        &labels[..cold_base_n],
    )
    .expect("cold-start base fit");
    let cold_base = trainer_to_bytes(&cold);
    let mut cold_writer = JournalWriter::new(&cold_base, cold_base_n).expect("writer");
    for lo in (cold_base_n..cold_n).step_by(entry_n) {
        let hi = lo + entry_n;
        cold_writer
            .append(
                &rows[lo * num_features..hi * num_features],
                num_features,
                &labels[lo..hi],
                &[],
            )
            .expect("journal append");
    }
    let cold_journal = cold_writer.take_unflushed();

    let mut one_refit_time = f64::INFINITY;
    let mut one_refit = None;
    for _ in 0..=reps {
        let start = Instant::now();
        let replayed = replay(&cold_base, &cold_journal).expect("replay");
        one_refit_time = one_refit_time.min(start.elapsed().as_secs_f64());
        one_refit = Some(replayed.trainer);
    }
    let mut per_entry_time = f64::INFINITY;
    let mut per_entry = None;
    for _ in 0..=reps {
        let start = Instant::now();
        let mut trainer = trainer_from_bytes(&cold_base).expect("base decode");
        for entry in scan_journal(&cold_journal).expect("scan").entries {
            trainer
                .retrain(&entry.rows, entry.num_features, &entry.labels)
                .expect("per-entry retrain");
        }
        per_entry_time = per_entry_time.min(start.elapsed().as_secs_f64());
        per_entry = Some(trainer);
    }
    assert_eq!(
        one_refit, per_entry,
        "one-refit replay diverged from one retrain per entry"
    );
    println!(
        "  cold-start replay ({cold_base_n} + {cold_entries} x {entry_n} samples, {cold_blocks} blocks): \
         one refit {:>8.2} ms, one retrain per entry {:>8.2} ms ({:.2}x)",
        1e3 * one_refit_time,
        1e3 * per_entry_time,
        per_entry_time / one_refit_time
    );

    if quick {
        println!("--quick: skipping BENCH_persist.json");
        return;
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"persist\",\n",
            "  \"samples\": {},\n",
            "  \"appended_samples\": {},\n",
            "  \"features\": {},\n",
            "  \"trees\": {},\n",
            "  \"full_snapshot_bytes\": {},\n",
            "  \"journal_entry_bytes\": {},\n",
            "  \"write_reduction\": {:.2},\n",
            "  \"full_snapshot_ms\": {:.3},\n",
            "  \"journal_append_ms\": {:.3},\n",
            "  \"replay_ms\": {:.2},\n",
            "  \"cold_start_base_samples\": {},\n",
            "  \"cold_start_entries\": {},\n",
            "  \"cold_start_entry_samples\": {},\n",
            "  \"cold_start_replay_one_refit_ms\": {:.2},\n",
            "  \"cold_start_replay_per_entry_ms\": {:.2}\n",
            "}}\n"
        ),
        samples,
        appended,
        num_features,
        trainer_config.forest.n_trees,
        full_bytes,
        entry_bytes,
        write_reduction,
        1e3 * full_time,
        1e3 * delta_time,
        1e3 * replay_time,
        cold_base_n,
        cold_entries,
        entry_n,
        1e3 * one_refit_time,
        1e3 * per_entry_time,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_persist.json");
    std::fs::write(&path, &json).expect("write BENCH_persist.json");
    println!("wrote {}", path.display());
}
