//! # seizure-ml
//!
//! Machine-learning substrate for the self-learning seizure detection
//! reproduction.
//!
//! The paper's real-time detector is a random forest (following Sopic et al.,
//! e-Glass, ISCAS 2018), and its related work compares against unsupervised
//! k-means / k-medoids detection (Smart & Chen, CIBCB 2015). Everything needed
//! for those experiments is implemented here from scratch:
//!
//! * [`tree`] — CART-style decision trees with Gini impurity,
//! * [`forest`] — bagged random forests with per-split feature subsampling,
//! * [`training`] — the parallel, scratch-backed training engine:
//!   feature-major columns with one presorted u16 id run per feature,
//!   arena-built trees, bit-identical to the boxed path,
//! * [`incremental`] — the stateful retraining engine for growing training
//!   sets: appends merge into the presorted runs and only the trees whose
//!   bootstrap pools were touched are refitted,
//! * [`kmeans`] / [`kmedoids`] — unsupervised clustering baselines,
//! * [`persist`] — versioned binary snapshots of forests, training sets and
//!   incremental trainers, so a wearable resumes its personalized pool
//!   across power cycles,
//! * [`metrics`] — confusion matrices, sensitivity, specificity and the
//!   geometric mean used by the paper's Fig. 4,
//! * [`dataset`] — the labeled design-matrix container shared by all of them.
//!
//! # Example
//!
//! ```
//! use seizure_ml::dataset::Dataset;
//! use seizure_ml::forest::{RandomForest, RandomForestConfig};
//! use seizure_ml::metrics::ConfusionMatrix;
//!
//! # fn main() -> Result<(), seizure_ml::MlError> {
//! // A trivially separable dataset.
//! let mut rows = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..40 {
//!     let x = i as f64 / 10.0;
//!     rows.push(vec![x, (i % 5) as f64]);
//!     labels.push(x > 2.0);
//! }
//! let data = Dataset::new(rows, labels)?;
//! let forest = RandomForest::fit(&data, &RandomForestConfig::default(), 7)?;
//! let predictions = forest.predict_batch(data.features());
//! let cm = ConfusionMatrix::from_predictions(&predictions, data.labels())?;
//! assert!(cm.accuracy() > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod error;
pub mod flat;
pub mod forest;
pub mod incremental;
pub mod kmeans;
pub mod kmedoids;
pub mod metrics;
pub mod persist;
pub mod training;
pub mod tree;

pub use dataset::Dataset;
pub use error::MlError;
pub use flat::FlatForest;
pub use forest::{RandomForest, RandomForestConfig};
pub use incremental::{IncrementalTrainer, IncrementalTrainerConfig};
pub use metrics::ConfusionMatrix;
pub use persist::PersistError;
pub use training::{train_forest, TrainingSet};
pub use tree::{DecisionTree, DecisionTreeConfig};
