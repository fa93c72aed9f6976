//! Ground-truth seizure annotations.

use crate::error::DataError;

/// The annotated position of one epileptic seizure inside a recording,
/// expressed in seconds from the start of the recording.
///
/// # Example
///
/// ```
/// use seizure_data::SeizureAnnotation;
///
/// # fn main() -> Result<(), seizure_data::DataError> {
/// let a = SeizureAnnotation::new(120.0, 165.0)?;
/// assert_eq!(a.duration(), 45.0);
/// assert!(a.contains(130.0));
/// assert!(!a.contains(60.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeizureAnnotation {
    onset_sec: f64,
    offset_sec: f64,
}

impl SeizureAnnotation {
    /// Creates an annotation from onset and offset times in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if the interval is empty,
    /// negative or contains NaN.
    pub fn new(onset_sec: f64, offset_sec: f64) -> Result<Self, DataError> {
        if onset_sec.is_nan() || offset_sec.is_nan() || onset_sec < 0.0 || offset_sec <= onset_sec {
            return Err(DataError::InvalidParameter {
                name: "annotation",
                reason: format!("invalid seizure interval [{onset_sec}, {offset_sec}]"),
            });
        }
        Ok(Self {
            onset_sec,
            offset_sec,
        })
    }

    /// Seizure onset in seconds.
    pub fn onset(&self) -> f64 {
        self.onset_sec
    }

    /// Seizure offset (end) in seconds.
    pub fn offset(&self) -> f64 {
        self.offset_sec
    }

    /// Seizure duration in seconds.
    pub fn duration(&self) -> f64 {
        self.offset_sec - self.onset_sec
    }

    /// Returns `true` if the time `t` (seconds) falls inside the seizure.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.onset_sec && t <= self.offset_sec
    }

    /// Length in seconds of the overlap between this annotation and another
    /// interval `[start, end]`.
    pub fn overlap_with(&self, start: f64, end: f64) -> f64 {
        let lo = self.onset_sec.max(start);
        let hi = self.offset_sec.min(end);
        (hi - lo).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(SeizureAnnotation::new(10.0, 5.0).is_err());
        assert!(SeizureAnnotation::new(-1.0, 5.0).is_err());
        assert!(SeizureAnnotation::new(5.0, 5.0).is_err());
        assert!(SeizureAnnotation::new(f64::NAN, 5.0).is_err());
        assert!(SeizureAnnotation::new(0.0, 30.0).is_ok());
    }

    #[test]
    fn duration_and_contains() {
        let a = SeizureAnnotation::new(100.0, 140.0).unwrap();
        assert_eq!(a.duration(), 40.0);
        assert!(a.contains(100.0));
        assert!(a.contains(140.0));
        assert!(!a.contains(99.9));
        assert!(!a.contains(140.1));
    }

    #[test]
    fn overlap_computation() {
        let a = SeizureAnnotation::new(100.0, 140.0).unwrap();
        assert_eq!(a.overlap_with(120.0, 200.0), 20.0);
        assert_eq!(a.overlap_with(0.0, 100.0), 0.0);
        assert_eq!(a.overlap_with(90.0, 150.0), 40.0);
        assert_eq!(a.overlap_with(150.0, 200.0), 0.0);
    }
}
