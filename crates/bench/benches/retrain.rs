//! Retraining benchmark: incremental engine vs from-scratch forest fitting.
//!
//! Reproduces the self-learning loop's dominant cost: the training pool has
//! accumulated windows from earlier missed seizures, a new batch arrives
//! (≤ 10 % of the pool) and the forest must be retrained. Two paths are
//! compared at paper scale:
//!
//! * **scratch**: a fresh `IncrementalTrainer` fitted once on the final
//!   pool — a full per-feature presort and every tree refit, each owner
//!   from its own blocks and each cold-start tree from the whole pool;
//! * **incremental**: `IncrementalTrainer::retrain` — merge the new rows
//!   into the presorted runs and refit only the trees whose bootstrap pools
//!   the growth touched.
//!
//! Before any timing, the incrementally grown forest is asserted identical
//! (node for node, and on batch predictions) to a single-shot incremental
//! fit of the final pool. Results are printed and written to
//! `BENCH_retrain.json` at the workspace root (skipped in `--quick` mode,
//! which the CI smoke job uses).
//!
//! Run with: `cargo bench -p seizure-bench --bench retrain [-- --quick]`

use std::time::Instant;

use seizure_bench::synth::synth_channels;
use seizure_features::extractor::{FeatureExtractor, RichFeatureSet, SlidingWindowConfig};
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fs = 256.0;
    let secs = if quick { 40.0 } else { 3600.0 };
    let reps = if quick { 2 } else { 5 };

    // Paper-scale pool: rich features of a synthetic record. Labels
    // alternate in record-sized runs so ownership blocks mix both classes,
    // like the pipeline's balanced per-record batches do.
    let (a, b) = synth_channels(secs, fs, 0x1357_9bdf_2468_acee);
    let cfg = SlidingWindowConfig::paper_default(fs).expect("paper config");
    let extractor = RichFeatureSet::new(fs).expect("extractor");
    let matrix = extractor.extract_batch(&a, &b, &cfg).expect("features");
    let samples = matrix.num_windows();
    let num_features = matrix.num_features();
    let labels: Vec<bool> = (0..samples).map(|i| (i / 20) % 2 == 0).collect();
    let rows = matrix.data();

    let forest_config = RandomForestConfig {
        n_trees: 30,
        max_depth: 8,
        ..RandomForestConfig::default()
    };
    let trainer_config = IncrementalTrainerConfig {
        forest: forest_config,
        block_size: 128,
    };
    let seed = 7;

    // The pool before the new batch (90 %) and the appended batch (10 %).
    let base = samples - samples / 10;
    let appended = samples - base;

    // Correctness gate: growing the pool in two steps must equal the
    // single-shot fit of the final pool, node for node and on predictions.
    let mut grown = IncrementalTrainer::new(trainer_config, seed);
    grown
        .retrain(&rows[..base * num_features], num_features, &labels[..base])
        .expect("base fit");
    let grown_forest = grown
        .retrain(&rows[base * num_features..], num_features, &labels[base..])
        .expect("incremental retrain");
    let refit_trees = grown.last_refit_count();
    let mut single = IncrementalTrainer::new(trainer_config, seed);
    let single_forest = single
        .retrain(rows, num_features, &labels)
        .expect("single-shot fit");
    assert_eq!(
        grown_forest, single_forest,
        "incremental retraining diverged from the from-scratch fit"
    );
    assert_eq!(
        grown_forest.predict_batch(rows, num_features).unwrap(),
        single_forest.predict_batch(rows, num_features).unwrap(),
        "prediction mismatch between incremental and from-scratch forests"
    );

    // --- Scratch path: a fresh trainer fitted once on the final pool. ---
    let mut scratch_time = f64::INFINITY;
    for _ in 0..=reps {
        let mut trainer = IncrementalTrainer::new(trainer_config, seed);
        let start = Instant::now();
        let forest = trainer
            .retrain(rows, num_features, &labels)
            .expect("single-shot fit");
        scratch_time = scratch_time.min(start.elapsed().as_secs_f64());
        assert_eq!(forest.num_trees(), forest_config.n_trees);
    }

    // --- Incremental path: append 10 % to the warm 90 % pool. ---
    let mut warm = IncrementalTrainer::new(trainer_config, seed);
    warm.retrain(&rows[..base * num_features], num_features, &labels[..base])
        .expect("warm fit");
    let mut incremental_time = f64::INFINITY;
    for _ in 0..=reps {
        let mut trainer = warm.clone();
        let start = Instant::now();
        let forest = trainer
            .retrain(&rows[base * num_features..], num_features, &labels[base..])
            .expect("incremental retrain");
        incremental_time = incremental_time.min(start.elapsed().as_secs_f64());
        assert_eq!(forest.num_trees(), forest_config.n_trees);
    }

    let speedup = scratch_time / incremental_time;
    let threads = seizure_parallel::num_threads();
    println!(
        "retrain bench ({samples} samples x {num_features} features, +{appended} appended, {} trees, {threads} thread(s))",
        forest_config.n_trees
    );
    println!(
        "  scratch fit (fresh trainer):   {:>8.1} ms",
        1e3 * scratch_time
    );
    println!(
        "  incremental retrain:           {:>8.1} ms ({refit_trees}/{} trees refitted, {speedup:.2}x)",
        1e3 * incremental_time,
        forest_config.n_trees
    );

    if quick {
        println!("--quick: skipping BENCH_retrain.json");
        return;
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"retrain\",\n",
            "  \"samples\": {},\n",
            "  \"appended_samples\": {},\n",
            "  \"features\": {},\n",
            "  \"trees\": {},\n",
            "  \"refitted_trees\": {},\n",
            "  \"threads\": {},\n",
            "  \"scratch_retrain_ms\": {:.2},\n",
            "  \"incremental_retrain_ms\": {:.2},\n",
            "  \"speedup\": {:.2}\n",
            "}}\n"
        ),
        samples,
        appended,
        num_features,
        forest_config.n_trees,
        refit_trees,
        threads,
        1e3 * scratch_time,
        1e3 * incremental_time,
        speedup,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_retrain.json");
    std::fs::write(&path, &json).expect("write BENCH_retrain.json");
    println!("wrote {}", path.display());
}
