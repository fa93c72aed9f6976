//! # seizure-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI) on the synthetic CHB-MIT-like cohort, plus the
//! feature-ablation (E9) and clustering-baseline (E10) studies listed in
//! `golden/README.md`. The algorithms only those studies run (backward
//! elimination, k-means and k-medoids) live here, beside them, not in the
//! device libraries.
//!
//! Each experiment is exposed as a library function returning a plain result
//! struct, and a thin binary (`table1`, `table2`, `fig4`, `table3`,
//! `lifetime_sweep`, `ablation_features`, `baseline_unsupervised`) formats it
//! for the terminal. Every binary accepts `--scale quick|medium|paper`
//! (default `quick`) so the same code runs both as a fast smoke test and at
//! the paper's full scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
mod clustering;
pub mod labeling;
pub mod scale;
mod selection;
pub mod synth;
pub mod training;
pub mod unsupervised;

pub use scale::ExperimentScale;

use std::time::Instant;

/// Best-of-`reps` wall time of `f` in seconds, after one warmup run,
/// together with the last run's result. The bench targets time their
/// compared paths with it.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut result = f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        result = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, result)
}
