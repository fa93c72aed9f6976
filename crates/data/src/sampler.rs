//! Test-sample generation.
//!
//! The paper's evaluation (§VI-A) builds test samples as follows: "Each sample
//! consists of an EEG signal of random duration ranging between 30 minutes and
//! 1 hour that contains a single epileptic seizure. For each one of the 45
//! epileptic seizures contained in the database, 100 different samples were
//! produced." This module provides the sample configuration and the record
//! type produced by [`crate::cohort::Cohort::sample_record`].

use crate::annotation::SeizureAnnotation;
use crate::error::DataError;
use crate::signal::EegSignal;

/// Configuration of one evaluation sample: the record duration range and the
/// sampling frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    min_duration_secs: f64,
    max_duration_secs: f64,
    fs: f64,
    /// Margin in seconds kept between the seizure and both record edges so the
    /// seizure is always fully contained.
    edge_margin_secs: f64,
}

impl SampleConfig {
    /// Creates a configuration with the given duration range (seconds) and
    /// sampling frequency (Hz).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if the range is empty or
    /// non-positive, or `fs` is not positive.
    pub fn new(min_duration_secs: f64, max_duration_secs: f64, fs: f64) -> Result<Self, DataError> {
        if !(min_duration_secs > 0.0 && max_duration_secs >= min_duration_secs) {
            return Err(DataError::InvalidParameter {
                name: "duration range",
                reason: format!(
                    "invalid duration range [{min_duration_secs}, {max_duration_secs}]"
                ),
            });
        }
        if fs <= 0.0 || fs.is_nan() {
            return Err(DataError::InvalidParameter {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        Ok(Self {
            min_duration_secs,
            max_duration_secs,
            fs,
            edge_margin_secs: 10.0,
        })
    }

    /// The paper's evaluation configuration: 30–60 minute records at 256 Hz.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches [`SampleConfig::new`].
    pub fn paper_default() -> Result<Self, DataError> {
        Self::new(1800.0, 3600.0, 256.0)
    }

    /// A light-weight configuration (shorter records, lower sampling rate)
    /// useful for fast tests and debug builds while preserving the structure of
    /// the experiment.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches [`SampleConfig::new`].
    pub fn fast_test() -> Result<Self, DataError> {
        Self::new(240.0, 360.0, 64.0)
    }

    /// Minimum record duration in seconds.
    pub fn min_duration_secs(&self) -> f64 {
        self.min_duration_secs
    }

    /// Maximum record duration in seconds.
    pub fn max_duration_secs(&self) -> f64 {
        self.max_duration_secs
    }

    /// Sampling frequency in Hz.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Margin kept between the seizure and the record edges, in seconds.
    pub fn edge_margin_secs(&self) -> f64 {
        self.edge_margin_secs
    }
}

/// One generated evaluation record: a signal containing exactly one seizure
/// with its ground-truth annotation and provenance information.
#[derive(Debug, Clone, PartialEq)]
pub struct EegRecord {
    signal: EegSignal,
    annotation: SeizureAnnotation,
    patient_id: usize,
    seizure_index: usize,
}

impl EegRecord {
    /// Assembles a record from its parts (used by the cohort sampler and by
    /// the I/O round-trip).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if the annotation extends beyond
    /// the end of the signal.
    pub fn new(
        signal: EegSignal,
        annotation: SeizureAnnotation,
        patient_id: usize,
        seizure_index: usize,
    ) -> Result<Self, DataError> {
        if annotation.offset() > signal.duration_secs() + 1e-9 {
            return Err(DataError::InvalidParameter {
                name: "annotation",
                reason: format!(
                    "annotation ends at {:.1}s but the signal lasts {:.1}s",
                    annotation.offset(),
                    signal.duration_secs()
                ),
            });
        }
        Ok(Self {
            signal,
            annotation,
            patient_id,
            seizure_index,
        })
    }

    /// The two-channel EEG signal.
    pub fn signal(&self) -> &EegSignal {
        &self.signal
    }

    /// Ground-truth seizure annotation.
    pub fn annotation(&self) -> &SeizureAnnotation {
        &self.annotation
    }

    /// Identifier of the patient the record belongs to (1-based).
    pub fn patient_id(&self) -> usize {
        self.patient_id
    }

    /// Index of the seizure within the patient's seizure list (0-based).
    pub fn seizure_index(&self) -> usize {
        self.seizure_index
    }

    /// Consumes the record and returns its parts.
    pub fn into_parts(self) -> (EegSignal, SeizureAnnotation, usize, usize) {
        (
            self.signal,
            self.annotation,
            self.patient_id,
            self.seizure_index,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(SampleConfig::new(0.0, 100.0, 256.0).is_err());
        assert!(SampleConfig::new(200.0, 100.0, 256.0).is_err());
        assert!(SampleConfig::new(100.0, 200.0, 0.0).is_err());
        assert!(SampleConfig::new(100.0, 100.0, 256.0).is_ok());
    }

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let cfg = SampleConfig::paper_default().unwrap();
        assert_eq!(cfg.min_duration_secs(), 1800.0);
        assert_eq!(cfg.max_duration_secs(), 3600.0);
        assert_eq!(cfg.sampling_frequency(), 256.0);
    }

    #[test]
    fn fast_test_config_is_shorter() {
        let cfg = SampleConfig::fast_test().unwrap();
        assert!(cfg.max_duration_secs() < 600.0);
        assert!(cfg.sampling_frequency() < 256.0);
    }

    #[test]
    fn record_construction_checks_annotation() {
        let signal = EegSignal::new(vec![0.0; 640], vec![0.0; 640], 64.0).unwrap();
        let ok = SeizureAnnotation::new(2.0, 8.0).unwrap();
        let record = EegRecord::new(signal.clone(), ok, 1, 0).unwrap();
        assert_eq!(record.patient_id(), 1);
        assert_eq!(record.seizure_index(), 0);
        assert_eq!(record.signal().len(), 640);
        assert_eq!(record.annotation().duration(), 6.0);

        let too_long = SeizureAnnotation::new(2.0, 100.0).unwrap();
        assert!(EegRecord::new(signal, too_long, 1, 0).is_err());
    }

    #[test]
    fn into_parts_round_trips() {
        let signal = EegSignal::new(vec![0.0; 64], vec![0.0; 64], 64.0).unwrap();
        let ann = SeizureAnnotation::new(0.1, 0.5).unwrap();
        let record = EegRecord::new(signal, ann, 3, 2).unwrap();
        let (_, a, pid, sid) = record.into_parts();
        assert_eq!(a.onset(), 0.1);
        assert_eq!(pid, 3);
        assert_eq!(sid, 2);
    }
}
