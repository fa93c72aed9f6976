//! Forest-training benchmark: seed path vs the scratch-backed engine.
//!
//! Measures training-set samples/second for random-forest fitting in three
//! configurations:
//!
//! * **seed**: the boxed path — `RandomForest::fit` (per-node sorting and
//!   allocation) followed by `FlatForest::from_forest`, exactly what the
//!   seed's retraining loop ran;
//! * **engine, 1 thread**: `TrainingSet` presort + `train_forest` pinned to
//!   one worker via `SEIZURE_NUM_THREADS=1` — isolates the presorted-column
//!   and arena wins from the parallel scaling;
//! * **engine, N threads**: the same with the machine's full parallelism.
//!
//! The engine's output is asserted bit-identical to the seed path before any
//! timing is reported. Results are printed and written to
//! `BENCH_training.json` at the workspace root (skipped in `--quick` mode,
//! which the CI smoke job uses).
//!
//! Run with: `cargo bench -p seizure-bench --bench training [-- --quick]`

use seizure_bench::best_of;
use seizure_bench::synth::synth_channels;
use seizure_features::extractor::{FeatureExtractor, RichFeatureSet, SlidingWindowConfig};
use seizure_ml::dataset::Dataset;
use seizure_ml::flat::FlatForest;
use seizure_ml::forest::{RandomForest, RandomForestConfig};
use seizure_ml::training::{train_forest, TrainingSet};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fs = 256.0;
    let secs = if quick { 30.0 } else { 3600.0 };
    let reps = if quick { 2 } else { 5 };

    // Build a realistic training set: rich features of a synthetic record
    // with a seizure band so both classes are present.
    let (a, b) = synth_channels(secs, fs, 0x9876_5432_10ab_cdef);
    let cfg = SlidingWindowConfig::paper_default(fs).expect("paper config");
    let extractor = RichFeatureSet::new(fs).expect("extractor");
    let matrix = extractor.extract_batch(&a, &b, &cfg).expect("features");
    let samples = matrix.num_windows();
    let num_features = matrix.num_features();
    let labels: Vec<bool> = (0..samples)
        .map(|i| (samples / 4..samples / 2).contains(&i))
        .collect();
    let rows = matrix.to_rows();
    let dataset = Dataset::new(rows, labels.clone()).expect("dataset");
    let forest_config = RandomForestConfig {
        n_trees: 30,
        max_depth: 8,
        ..RandomForestConfig::default()
    };
    let seed = 7;

    // Bit-identity gate: the engine must reproduce the seed forest exactly
    // before any of its timings mean anything.
    let reference = FlatForest::from_forest(
        &RandomForest::fit(&dataset, &forest_config, seed).expect("seed forest"),
    );
    let set = TrainingSet::from_rows(matrix.data(), num_features, &labels).expect("training set");
    let engine_forest = train_forest(&set, &forest_config, seed).expect("engine forest");
    assert_eq!(
        engine_forest, reference,
        "training engine diverged from the seed path"
    );

    // --- Seed path: boxed per-node fit + flat compilation. ---
    let (seed_time, _) = best_of(reps, || {
        FlatForest::from_forest(
            &RandomForest::fit(&dataset, &forest_config, seed).expect("seed forest"),
        )
    });

    // --- Engine, single worker (presort + arena wins only). ---
    // Restore (not delete) any caller-set pin afterwards, so the N-thread
    // phase below honors the documented SEIZURE_NUM_THREADS override.
    let pinned = std::env::var("SEIZURE_NUM_THREADS").ok();
    std::env::set_var("SEIZURE_NUM_THREADS", "1");
    let (engine_1t_time, _) = best_of(reps, || {
        let set =
            TrainingSet::from_rows(matrix.data(), num_features, &labels).expect("training set");
        train_forest(&set, &forest_config, seed).expect("engine forest")
    });
    match &pinned {
        Some(value) => std::env::set_var("SEIZURE_NUM_THREADS", value),
        None => std::env::remove_var("SEIZURE_NUM_THREADS"),
    }

    // --- Engine, all workers (parallel tree fitting on top). ---
    let (engine_nt_time, _) = best_of(reps, || {
        let set =
            TrainingSet::from_rows(matrix.data(), num_features, &labels).expect("training set");
        train_forest(&set, &forest_config, seed).expect("engine forest")
    });

    let sps = |t: f64| samples as f64 / t;
    let threads = seizure_parallel::num_threads();

    println!(
        "training bench ({samples} samples x {num_features} features, {} trees, {threads} thread(s))",
        forest_config.n_trees
    );
    println!(
        "  seed fit (boxed):        {:>10.1} samples/s ({:.1} ms/fit)",
        sps(seed_time),
        1e3 * seed_time
    );
    println!(
        "  engine fit (1 thread):   {:>10.1} samples/s ({:.1} ms/fit, {:.2}x)",
        sps(engine_1t_time),
        1e3 * engine_1t_time,
        seed_time / engine_1t_time
    );
    println!(
        "  engine fit ({threads} threads):  {:>10.1} samples/s ({:.1} ms/fit, {:.2}x)",
        sps(engine_nt_time),
        1e3 * engine_nt_time,
        seed_time / engine_nt_time
    );

    if quick {
        println!("--quick: skipping BENCH_training.json");
        return;
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"training\",\n",
            "  \"samples\": {},\n",
            "  \"features\": {},\n",
            "  \"trees\": {},\n",
            "  \"threads\": {},\n",
            "  \"seed_samples_per_sec\": {:.1},\n",
            "  \"engine_1thread_samples_per_sec\": {:.1},\n",
            "  \"engine_nthread_samples_per_sec\": {:.1},\n",
            "  \"speedup_1thread\": {:.2},\n",
            "  \"speedup_nthread\": {:.2}\n",
            "}}\n"
        ),
        samples,
        num_features,
        forest_config.n_trees,
        threads,
        sps(seed_time),
        sps(engine_1t_time),
        sps(engine_nt_time),
        seed_time / engine_1t_time,
        seed_time / engine_nt_time,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_training.json");
    std::fs::write(&path, &json).expect("write BENCH_training.json");
    println!("wrote {}", path.display());
}
