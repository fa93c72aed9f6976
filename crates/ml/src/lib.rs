//! # seizure-ml
//!
//! Machine-learning substrate for the self-learning seizure detection
//! reproduction.
//!
//! The paper's real-time detector is a random forest (following Sopic et al.,
//! e-Glass, ISCAS 2018) that the wearable retrains after each confirmed
//! missed seizure. Everything the device needs for it is implemented here
//! from scratch:
//!
//! * [`incremental`] — the forest's one trainer: appends merge into the
//!   presorted runs and only the trees whose bootstrap pools were touched
//!   are refitted,
//! * [`training`] — the parallel, scratch-backed tree growth it runs on:
//!   feature-major columns with one presorted u16 id run per feature,
//!   arena-built trees whose nodes order only the features they try,
//! * [`flat`] — the struct-of-arrays forest the trainer emits and the
//!   detector predicts with,
//! * [`forest`] — the forest hyper-parameters,
//! * [`persist`] — versioned binary snapshots of forests, training sets and
//!   incremental trainers, so a wearable resumes its personalized pool
//!   across power cycles,
//! * [`metrics`] — confusion matrices, sensitivity, specificity and the
//!   geometric mean used by the paper's Fig. 4.
//!
//! Training data is flat row-major `&[f64]` (`labels.len() * num_features`
//! values) with one `bool` label per row, from the feature matrix to the
//! trainer.
//!
//! # Example
//!
//! ```
//! use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
//! use seizure_ml::metrics::ConfusionMatrix;
//!
//! # fn main() -> Result<(), seizure_ml::MlError> {
//! // A trivially separable dataset, flat row-major.
//! let mut rows = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..40 {
//!     let x = i as f64 / 10.0;
//!     rows.extend([x, (i % 5) as f64]);
//!     labels.push(x > 2.0);
//! }
//! let mut trainer = IncrementalTrainer::new(IncrementalTrainerConfig::default(), 7);
//! let forest = trainer.retrain(&rows, 2, &labels)?;
//! let predictions = forest.predict_batch(&rows, 2)?;
//! let cm = ConfusionMatrix::from_predictions(&predictions, &labels)?;
//! assert!(cm.accuracy() > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod flat;
pub mod forest;
pub mod incremental;
pub mod metrics;
#[cfg(test)]
mod oracle;
pub mod persist;
pub mod training;

pub use error::MlError;
pub use flat::FlatForest;
pub use forest::RandomForestConfig;
pub use incremental::{IncrementalTrainer, IncrementalTrainerConfig};
pub use metrics::ConfusionMatrix;
pub use persist::PersistError;
pub use training::TrainingSet;
