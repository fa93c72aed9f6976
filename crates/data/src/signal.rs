//! Two-channel EEG signal container.

use crate::error::DataError;

/// A two-channel EEG recording over the electrode pairs F7T3 and F8T4, the
/// montage used by the non-invasive wearable platforms the paper targets
/// (e-Glass, in-ear and behind-the-ear sensors).
///
/// # Example
///
/// ```
/// use seizure_data::EegSignal;
///
/// # fn main() -> Result<(), seizure_data::DataError> {
/// let signal = EegSignal::new(vec![0.0; 512], vec![0.0; 512], 256.0)?;
/// assert_eq!(signal.len(), 512);
/// assert!((signal.duration_secs() - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EegSignal {
    f7t3: Vec<f64>,
    f8t4: Vec<f64>,
    fs: f64,
}

impl EegSignal {
    /// Creates a signal from the two channel sample vectors and the sampling
    /// frequency in Hz.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if the channels have different
    /// lengths, are empty, or `fs` is not strictly positive.
    pub fn new(f7t3: Vec<f64>, f8t4: Vec<f64>, fs: f64) -> Result<Self, DataError> {
        if f7t3.len() != f8t4.len() {
            return Err(DataError::InvalidParameter {
                name: "channels",
                reason: format!(
                    "channel lengths differ: F7T3 has {} samples, F8T4 has {}",
                    f7t3.len(),
                    f8t4.len()
                ),
            });
        }
        if f7t3.is_empty() {
            return Err(DataError::InvalidParameter {
                name: "channels",
                reason: "channels must contain at least one sample".to_string(),
            });
        }
        if fs <= 0.0 || fs.is_nan() {
            return Err(DataError::InvalidParameter {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        Ok(Self { f7t3, f8t4, fs })
    }

    /// Samples of the F7T3 electrode pair.
    pub fn f7t3(&self) -> &[f64] {
        &self.f7t3
    }

    /// Samples of the F8T4 electrode pair.
    pub fn f8t4(&self) -> &[f64] {
        &self.f8t4
    }

    /// Sampling frequency in Hz.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Number of samples per channel.
    pub fn len(&self) -> usize {
        self.f7t3.len()
    }

    /// Returns `true` if the signal contains no samples (cannot happen for
    /// constructed signals, provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.f7t3.is_empty()
    }

    /// Duration of the recording in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.len() as f64 / self.fs
    }

    /// Concatenates `other` after `self`, returning a new signal.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if the sampling frequencies
    /// differ.
    pub fn concat(&self, other: &EegSignal) -> Result<EegSignal, DataError> {
        if (self.fs - other.fs).abs() > f64::EPSILON {
            return Err(DataError::InvalidParameter {
                name: "fs",
                reason: format!(
                    "cannot concatenate signals with different sampling rates ({} vs {})",
                    self.fs, other.fs
                ),
            });
        }
        let mut f7t3 = self.f7t3.clone();
        f7t3.extend_from_slice(&other.f7t3);
        let mut f8t4 = self.f8t4.clone();
        f8t4.extend_from_slice(&other.f8t4);
        EegSignal::new(f7t3, f8t4, self.fs)
    }

    /// Consumes the signal and returns `(f7t3, f8t4, fs)`.
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>, f64) {
        (self.f7t3, self.f8t4, self.fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn construction_validation() {
        assert!(EegSignal::new(vec![1.0], vec![1.0, 2.0], 256.0).is_err());
        assert!(EegSignal::new(vec![], vec![], 256.0).is_err());
        assert!(EegSignal::new(vec![1.0], vec![1.0], 0.0).is_err());
        assert!(EegSignal::new(vec![1.0], vec![1.0], f64::NAN).is_err());
        assert!(EegSignal::new(vec![1.0], vec![1.0], 256.0).is_ok());
    }

    #[test]
    fn accessors_and_duration() {
        let s = EegSignal::new(ramp(512), ramp(512), 256.0).unwrap();
        assert_eq!(s.len(), 512);
        assert!(!s.is_empty());
        assert_eq!(s.sampling_frequency(), 256.0);
        assert!((s.duration_secs() - 2.0).abs() < 1e-12);
        assert_eq!(s.f7t3()[10], 10.0);
        assert_eq!(s.f8t4()[20], 20.0);
    }

    #[test]
    fn concat_appends_samples() {
        let a = EegSignal::new(ramp(100), ramp(100), 256.0).unwrap();
        let b = EegSignal::new(vec![7.0; 50], vec![8.0; 50], 256.0).unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 150);
        assert_eq!(c.f7t3()[100], 7.0);
        assert_eq!(c.f8t4()[149], 8.0);
        let d = EegSignal::new(vec![1.0; 10], vec![1.0; 10], 128.0).unwrap();
        assert!(a.concat(&d).is_err());
    }

    #[test]
    fn into_parts_round_trips() {
        let s = EegSignal::new(ramp(16), ramp(16), 64.0).unwrap();
        let (a, b, fs) = s.into_parts();
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 16);
        assert_eq!(fs, 64.0);
    }
}
