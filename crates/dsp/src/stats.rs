//! Descriptive statistics.
//!
//! These routines back the reference per-window statistics, Hjorth parameters
//! and sample-entropy tolerance of the feature-extraction stage (paper §III-A),
//! the column moments of feature standardization and the Fisher scores of
//! feature selection.

use crate::error::DspError;

/// Arithmetic mean of `data`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let m = seizure_dsp::stats::mean(&[1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(m, 2.5);
/// # Ok(())
/// # }
/// ```
pub fn mean(data: &[f64]) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput { operation: "mean" });
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Population variance of `data` (normalized by `n`).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn variance(data: &[f64]) -> Result<f64, DspError> {
    let m = mean(data)?;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64)
}

/// Population standard deviation of `data`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn std_dev(data: &[f64]) -> Result<f64, DspError> {
    Ok(variance(data)?.sqrt())
}

/// Skewness (third standardized moment) of `data`.
///
/// Returns `0.0` for constant signals, whose standard deviation is zero.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn skewness(data: &[f64]) -> Result<f64, DspError> {
    let m = mean(data)?;
    let sd = std_dev(data)?;
    if sd == 0.0 {
        return Ok(0.0);
    }
    let n = data.len() as f64;
    Ok(data.iter().map(|x| ((x - m) / sd).powi(3)).sum::<f64>() / n)
}

/// Excess kurtosis (fourth standardized moment minus 3) of `data`.
///
/// Returns `0.0` for constant signals.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn kurtosis(data: &[f64]) -> Result<f64, DspError> {
    let m = mean(data)?;
    let sd = std_dev(data)?;
    if sd == 0.0 {
        return Ok(0.0);
    }
    let n = data.len() as f64;
    Ok(data.iter().map(|x| ((x - m) / sd).powi(4)).sum::<f64>() / n - 3.0)
}

/// Root mean square of `data`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn rms(data: &[f64]) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput { operation: "rms" });
    }
    Ok((data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data).unwrap() - 5.0).abs() < 1e-12);
        assert!((variance(&data).unwrap() - 4.0).abs() < 1e-12);
        assert!((std_dev(&data).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
        assert!(rms(&[]).is_err());
    }

    #[test]
    fn skewness_of_symmetric_data_is_zero() {
        let data = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&data).unwrap().abs() < 1e-12);
        assert_eq!(skewness(&[1.0; 8]).unwrap(), 0.0);
    }

    #[test]
    fn kurtosis_of_constant_is_zero() {
        assert_eq!(kurtosis(&[2.0; 16]).unwrap(), 0.0);
    }

    #[test]
    fn rms_of_known_signal() {
        assert!((rms(&[3.0, 4.0]).unwrap() - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
