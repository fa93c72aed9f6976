//! # selflearn-seizure
//!
//! Umbrella crate for the reproduction of *"A Self-Learning Methodology for
//! Epileptic Seizure Detection with Minimally-Supervised Edge Labeling"*
//! (Pascual, Aminifar, Atienza — DATE 2019).
//!
//! It re-exports the workspace crates under stable module names so that
//! downstream users (and the examples and integration tests in this
//! repository) need a single dependency:
//!
//! * [`dsp`] — FFT, power spectra, Daubechies wavelets and the
//!   statistics the features use ([`seizure_dsp`]),
//! * [`features`] — EEG feature extraction ([`seizure_features`]),
//! * [`data`] — the synthetic CHB-MIT-like cohort ([`seizure_data`]),
//! * [`ml`] — the incrementally retrained random forest, its Flash
//!   persistence and metrics ([`seizure_ml`]),
//! * [`core`] — Algorithm 1, the δ metric and the self-learning pipeline
//!   ([`seizure_core`]),
//! * [`edge`] — the wearable-platform energy/memory/timing models
//!   ([`seizure_edge`]).
//!
//! # Quickstart
//!
//! ```
//! use selflearn_seizure::core::labeler::{LabelerConfig, PosterioriLabeler};
//! use selflearn_seizure::core::metric::deviation_seconds;
//! use selflearn_seizure::core::workspace::FeatureWorkspace;
//! use selflearn_seizure::data::cohort::Cohort;
//! use selflearn_seizure::data::sampler::SampleConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A short record so the doc test stays fast; see `examples/quickstart.rs`
//! // for the full-scale configuration.
//! let cohort = Cohort::chb_mit_like(42);
//! let config = SampleConfig::new(200.0, 240.0, 64.0)?;
//! let record = cohort.sample_record(0, 0, &config, 0)?;
//!
//! let labeler = PosterioriLabeler::new(LabelerConfig::default());
//! let w = cohort.average_seizure_duration(0)?;
//! let (label, _) = labeler.label(record.signal(), w, &mut FeatureWorkspace::new())?;
//! let delta = deviation_seconds(
//!     (record.annotation().onset(), record.annotation().offset()),
//!     label.as_interval(),
//! )?;
//! println!("label deviation: {delta:.1} s");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's core methodology: Algorithm 1, metrics, real-time detector and
/// the self-learning pipeline (re-export of [`seizure_core`]).
pub use seizure_core as core;

/// Synthetic CHB-MIT-like EEG cohort (re-export of [`seizure_data`]).
pub use seizure_data as data;

/// DSP substrate (re-export of [`seizure_dsp`]).
pub use seizure_dsp as dsp;

/// Wearable-platform models (re-export of [`seizure_edge`]).
pub use seizure_edge as edge;

/// Feature extraction (re-export of [`seizure_features`]).
pub use seizure_features as features;

/// Machine-learning substrate (re-export of [`seizure_ml`]).
pub use seizure_ml as ml;
