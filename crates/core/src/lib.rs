//! # seizure-core
//!
//! The paper's primary contribution: a self-learning methodology for epileptic
//! seizure detection with minimally-supervised labeling at the edge device
//! (*Pascual, Aminifar, Atienza — DATE 2019*).
//!
//! The crate is organized around the three stages of the methodology:
//!
//! 1. **A-posteriori seizure labeling** ([`algorithm`]): after the patient
//!    confirms that the last hour of EEG contains a missed seizure, Algorithm 1
//!    scans the feature matrix with a sliding window of length `W` (the
//!    patient's average seizure duration) and labels the window that is
//!    farthest — in normalized feature space — from the rest of the signal.
//! 2. **Label quality evaluation** ([`metric`]): the deviation metric `δ`
//!    (seconds) and its normalized form `δ_norm` compare the produced label
//!    against the ground truth.
//! 3. **Supervised real-time detection and the self-learning loop**
//!    ([`realtime`], [`pipeline`]): the produced labels train a random-forest
//!    real-time detector; with every missed seizure the training set grows and
//!    the detector becomes more robust.
//!
//! # Example
//!
//! Label a synthetic record with the a-posteriori algorithm and measure how
//! far the label is from the ground truth:
//!
//! ```
//! use seizure_core::labeler::{PosterioriLabeler, LabelerConfig};
//! use seizure_core::metric::deviation_seconds;
//! use seizure_core::workspace::FeatureWorkspace;
//! use seizure_data::cohort::Cohort;
//! use seizure_data::sampler::SampleConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cohort = Cohort::chb_mit_like(42);
//! // Short, low-rate record so the example runs quickly.
//! let config = SampleConfig::new(240.0, 300.0, 64.0)?;
//! let record = cohort.sample_record(0, 0, &config, 1)?;
//!
//! let labeler = PosterioriLabeler::new(LabelerConfig::default());
//! let w = cohort.average_seizure_duration(0)?;
//! let (label, _) = labeler.label(record.signal(), w, &mut FeatureWorkspace::new())?;
//! let delta = deviation_seconds(
//!     (record.annotation().onset(), record.annotation().offset()),
//!     (label.onset_secs(), label.offset_secs()),
//! )?;
//! assert!(delta.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod error;
pub mod label;
pub mod labeler;
pub mod metric;
pub mod pipeline;
pub mod realtime;
pub mod workspace;

pub use algorithm::{posteriori_detect, Detection, DetectorConfig};
pub use error::CoreError;
pub use label::SeizureLabel;
pub use labeler::{LabelerConfig, PosterioriLabeler};
pub use metric::{deviation_seconds, normalized_deviation};
pub use pipeline::{SelfLearningPipeline, SelfLearningReport};
pub use realtime::{
    RealTimeDetector, RealTimeDetectorConfig, StreamingDetection, StreamingDetector,
};
pub use workspace::FeatureWorkspace;
