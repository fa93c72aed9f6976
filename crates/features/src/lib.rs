//! # seizure-features
//!
//! EEG feature extraction for the self-learning seizure detection methodology
//! (*Pascual et al., DATE 2019*).
//!
//! The paper extracts features from four-second windows with 75 % overlap over
//! two electrode pairs (F7T3 and F8T4) sampled at 256 Hz. After backward
//! elimination, the ten most relevant features are kept (§III-A):
//!
//! | # | Channel | Feature |
//! |---|---------|---------|
//! | 1 | F7T3 | total theta (4–8 Hz) band power |
//! | 2 | F7T3 | relative theta band power |
//! | 3 | F7T3 | total delta (0.5–4 Hz) band power |
//! | 4 | F8T4 | relative theta band power |
//! | 5 | F8T4 | level-7 permutation entropy, order 5 |
//! | 6 | F8T4 | level-7 permutation entropy, order 7 |
//! | 7 | F8T4 | level-6 permutation entropy, order 7 |
//! | 8 | F8T4 | level-3 Rényi entropy |
//! | 9 | F8T4 | level-6 sample entropy, k = 0.2 |
//! | 10 | F8T4 | level-6 sample entropy, k = 0.35 |
//!
//! "Level-`l`" quantities are computed on the detail coefficients of a level-7
//! Daubechies-4 wavelet decomposition of the window.
//!
//! The crate provides those ten features ([`extractor::PaperFeatureSet`]), a
//! richer feature catalogue used by the real-time random-forest detector
//! ([`extractor::RichFeatureSet`], mirroring the 54-feature detector of Sopic et
//! al.), the sliding-window machinery and the per-feature normalization of
//! Algorithm 1's line 1.
//!
//! # Example
//!
//! ```
//! use seizure_features::extractor::{FeatureExtractor, PaperFeatureSet, SlidingWindowConfig};
//!
//! # fn main() -> Result<(), seizure_features::FeatureError> {
//! let fs = 256.0;
//! // Two synthetic channels, 20 s each.
//! let n = (20.0 * fs) as usize;
//! let f7t3: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
//! let f8t4: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos()).collect();
//!
//! let config = SlidingWindowConfig::paper_default(fs)?;
//! let extractor = PaperFeatureSet::new(fs)?;
//! let matrix = extractor.extract_batch(&f7t3, &f8t4, &config)?;
//! assert_eq!(matrix.num_features(), 10);
//! assert!(matrix.num_windows() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandpower;
pub mod entropy;
pub mod error;
pub mod extractor;
pub mod hjorth;
pub mod matrix;
pub mod normalize;
pub mod quality;
pub mod statistics;
pub mod streaming;
pub mod waveform;

pub use error::FeatureError;
pub use extractor::{FeatureExtractor, PaperFeatureSet, RichFeatureSet, SlidingWindowConfig};
pub use matrix::FeatureMatrix;
pub use quality::{QualityExtractor, QualityScratch};
pub use streaming::{StreamingPaperExtractor, StreamingRichExtractor};
