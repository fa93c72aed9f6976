//! Timing model of the labeling algorithm and the real-time detector on the
//! target microcontroller.
//!
//! The paper claims that with complexity `O(L² · W · F)` "one second of signal
//! is processed in one second time" on the wearable platform (§IV), and that
//! the supervised real-time classifier "requires three seconds for processing a
//! four-second window" (§VI-C). This module turns operation counts into cycle
//! and wall-clock estimates so those claims can be checked and swept.

use crate::error::EdgeError;
use crate::platform::PlatformSpec;

/// Cost estimate for processing one triggered labeling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelingCost {
    /// Number of elementary operations (absolute differences + additions).
    pub operations: f64,
    /// Estimated CPU cycles.
    pub cycles: f64,
    /// Estimated wall-clock seconds at the platform's clock frequency.
    pub seconds: f64,
    /// Seconds of processing per second of buffered signal.
    pub seconds_per_signal_second: f64,
}

/// Timing model for the labeling algorithm and the real-time detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    spec: PlatformSpec,
    /// Average CPU cycles spent per elementary operation of the inner loop
    /// (load, subtract, absolute value, accumulate). A Cortex-M3 without an
    /// FPU spends on the order of tens of cycles per software floating-point
    /// operation; the default is calibrated so that one hour of buffered
    /// signal takes roughly one hour to process, matching the paper's
    /// real-time claim.
    pub cycles_per_operation: f64,
    /// Seconds of CPU time the real-time detector needs per analysis window
    /// (paper: 3 s per 4 s window).
    pub detection_seconds_per_window: f64,
    /// Analysis window length of the real-time detector in seconds.
    pub detection_window_secs: f64,
}

impl TimingModel {
    /// Creates a timing model with the paper-calibrated defaults.
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            spec,
            cycles_per_operation: 35.0,
            detection_seconds_per_window: 3.0,
            detection_window_secs: 4.0,
        }
    }

    /// Number of elementary operations of Algorithm 1 for a feature matrix of
    /// `rows` rows (`L`), a seizure window of `window_rows` rows (`W`) and
    /// `features` features (`F`), with the outside points subsampled by
    /// `subsample_step`: `(L − W) · W · F · (L − W) / step`.
    pub fn labeling_operations(
        rows: usize,
        window_rows: usize,
        features: usize,
        subsample_step: usize,
    ) -> f64 {
        if rows <= window_rows || subsample_step == 0 {
            return 0.0;
        }
        let candidates = (rows - window_rows) as f64;
        candidates * window_rows as f64 * features as f64 * candidates / subsample_step as f64
    }

    /// Estimates the cost of one labeling pass over `buffer_secs` seconds of
    /// signal with a seizure window of `window_secs` seconds and `features`
    /// features (one feature row per second, as in the paper's pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the durations are not
    /// positive or the window does not fit in the buffer.
    pub fn labeling_cost(
        &self,
        buffer_secs: f64,
        window_secs: f64,
        features: usize,
    ) -> Result<LabelingCost, EdgeError> {
        if buffer_secs <= 0.0 || window_secs <= 0.0 || buffer_secs.is_nan() || window_secs.is_nan()
        {
            return Err(EdgeError::InvalidParameter {
                name: "durations",
                reason: "buffer and window durations must be positive".to_string(),
            });
        }
        if window_secs >= buffer_secs {
            return Err(EdgeError::InvalidParameter {
                name: "window_secs",
                reason: format!(
                    "the {window_secs}-second window does not fit in a {buffer_secs}-second buffer"
                ),
            });
        }
        let rows = buffer_secs.round() as usize;
        let window_rows = window_secs.round().max(1.0) as usize;
        let operations = Self::labeling_operations(rows, window_rows, features, 4);
        let cycles = operations * self.cycles_per_operation;
        let seconds = cycles / self.spec.cpu_frequency_hz;
        Ok(LabelingCost {
            operations,
            cycles,
            seconds,
            seconds_per_signal_second: seconds / buffer_secs,
        })
    }

    /// CPU duty cycle of the real-time detector
    /// (`detection_seconds_per_window / detection_window_secs`).
    pub fn detection_duty_cycle(&self) -> f64 {
        (self.detection_seconds_per_window / self.detection_window_secs).clamp(0.0, 1.0)
    }

    /// Returns `true` when the labeling pass over a buffer of `buffer_secs`
    /// seconds finishes in at most `buffer_secs` seconds — the paper's
    /// "one second of signal is processed in one second" real-time property.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`TimingModel::labeling_cost`].
    pub fn labeling_is_real_time(
        &self,
        buffer_secs: f64,
        window_secs: f64,
        features: usize,
    ) -> Result<bool, EdgeError> {
        Ok(self
            .labeling_cost(buffer_secs, window_secs, features)?
            .seconds_per_signal_second
            <= 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimingModel {
        TimingModel::new(PlatformSpec::stm32l151_default())
    }

    #[test]
    fn operation_count_formula() {
        // L = 100, W = 10, F = 10, step 4: 90 * 10 * 10 * 22.5 = 202 500.
        let ops = TimingModel::labeling_operations(100, 10, 10, 4);
        assert!((ops - 202_500.0).abs() < 1e-6);
        assert_eq!(TimingModel::labeling_operations(10, 10, 10, 4), 0.0);
        assert_eq!(TimingModel::labeling_operations(100, 10, 10, 0), 0.0);
    }

    #[test]
    fn one_hour_buffer_is_processed_in_about_an_hour() {
        // One hour of signal, 60-second seizure window, 10 features.
        let cost = model().labeling_cost(3600.0, 60.0, 10).unwrap();
        // The paper claims ~1 s of processing per second of signal; with the
        // calibrated cycles-per-operation this lands near 1 (within 2x).
        assert!(
            cost.seconds_per_signal_second > 0.4 && cost.seconds_per_signal_second < 2.0,
            "seconds per signal second = {}",
            cost.seconds_per_signal_second
        );
        assert!(cost.operations > 0.0);
        assert!(cost.cycles > cost.operations);
    }

    #[test]
    fn shorter_buffers_are_processed_faster_than_real_time() {
        // The cost is quadratic in the buffer length, so a 10-minute buffer is
        // comfortably faster than real time.
        assert!(model().labeling_is_real_time(600.0, 60.0, 10).unwrap());
    }

    #[test]
    fn detection_duty_cycle_matches_paper() {
        assert!((model().detection_duty_cycle() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let m = model();
        assert!(m.labeling_cost(0.0, 60.0, 10).is_err());
        assert!(m.labeling_cost(3600.0, 0.0, 10).is_err());
        assert!(m.labeling_cost(100.0, 200.0, 10).is_err());
        assert!(m.labeling_cost(f64::NAN, 60.0, 10).is_err());
    }

    #[test]
    fn cost_grows_quadratically_with_buffer_length() {
        let m = model();
        let short = m.labeling_cost(900.0, 60.0, 10).unwrap();
        let long = m.labeling_cost(1800.0, 60.0, 10).unwrap();
        let ratio = long.operations / short.operations;
        assert!(ratio > 3.5 && ratio < 4.8, "ratio = {ratio}");
    }
}
