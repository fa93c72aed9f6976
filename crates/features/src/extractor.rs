//! Sliding-window feature extraction over the two-channel EEG montage.
//!
//! The paper extracts features "from four-second windows with an overlap of
//! 75 %, i.e. after the features from one window are extracted, the window
//! slides by one second" (§III-A). Two feature sets are provided:
//!
//! * [`PaperFeatureSet`] — the ten backward-elimination-selected features used
//!   by the a-posteriori labeling algorithm;
//! * [`RichFeatureSet`] — a 54-feature catalogue (27 per channel) mirroring the
//!   real-time random-forest detector of Sopic et al. (e-Glass, ISCAS 2018).

use crate::bandpower::{band_powers_from_psd, Band};
use crate::entropy::{
    permutation_entropy, renyi_entropy_quadratic, sample_entropy, shannon_entropy,
};
use crate::error::FeatureError;
use crate::hjorth::hjorth_parameters;
use crate::matrix::FeatureMatrix;
use crate::statistics::window_statistics;
use crate::streaming::{stream_rows_into, StreamingPaperExtractor, StreamingRichExtractor};
use crate::waveform::{line_length, nonlinear_energy, peak_to_peak, zero_crossings};
use seizure_dsp::spectrum::periodogram;
use seizure_dsp::wavelet::{max_level, wavedec, WaveletDecomposition};
use std::sync::OnceLock;

/// Sliding-window segmentation parameters.
///
/// # Example
///
/// ```
/// use seizure_features::extractor::SlidingWindowConfig;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let cfg = SlidingWindowConfig::paper_default(256.0)?;
/// assert_eq!(cfg.window_samples(), 1024); // 4 s at 256 Hz
/// assert_eq!(cfg.step_samples(), 256);    // 1 s step (75 % overlap)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlidingWindowConfig {
    fs: f64,
    window_samples: usize,
    step_samples: usize,
}

impl SlidingWindowConfig {
    /// Creates a configuration from a window length in seconds and a
    /// fractional overlap in `[0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if the sampling frequency or the
    /// window length is not positive, or the overlap lies outside `[0, 1)`.
    pub fn new(fs: f64, window_secs: f64, overlap: f64) -> Result<Self, FeatureError> {
        if fs <= 0.0 || fs.is_nan() {
            return Err(FeatureError::InvalidConfig {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        if window_secs <= 0.0 || window_secs.is_nan() {
            return Err(FeatureError::InvalidConfig {
                name: "window_secs",
                reason: format!("window length must be positive, got {window_secs}"),
            });
        }
        if !(0.0..1.0).contains(&overlap) {
            return Err(FeatureError::InvalidConfig {
                name: "overlap",
                reason: format!("overlap must lie in [0, 1), got {overlap}"),
            });
        }
        let window_samples = (window_secs * fs).round() as usize;
        if window_samples == 0 {
            return Err(FeatureError::InvalidConfig {
                name: "window_secs",
                reason: "window must contain at least one sample".to_string(),
            });
        }
        // The step is derived from the *realized* window length (not the
        // fractional `window_secs * fs`) and rounded to the nearest sample,
        // so the effective overlap tracks the configured one instead of
        // silently drifting when `window_samples * (1 - overlap)` is not
        // integral. Configurations whose realized overlap still deviates by
        // more than one sample (only reachable if the step formula changes,
        // e.g. truncation) are rejected rather than accepted quietly.
        let exact_step = window_samples as f64 * (1.0 - overlap);
        let step_samples = (exact_step.round() as usize).max(1);
        let realized_overlap = (window_samples - step_samples.min(window_samples)) as f64;
        let configured_overlap = window_samples as f64 * overlap;
        if (realized_overlap - configured_overlap).abs() > 1.0 {
            return Err(FeatureError::InvalidConfig {
                name: "overlap",
                reason: format!(
                    "realized overlap of {realized_overlap} samples deviates from the \
                     configured {configured_overlap:.2} by more than one sample \
                     ({window_samples}-sample windows cannot step by {exact_step:.2})"
                ),
            });
        }
        Ok(Self {
            fs,
            window_samples,
            step_samples,
        })
    }

    /// The paper's configuration: 4-second windows with 75 % overlap
    /// (a one-second step).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not positive.
    pub fn paper_default(fs: f64) -> Result<Self, FeatureError> {
        Self::new(fs, 4.0, 0.75)
    }

    /// Sampling frequency in Hz.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Window length in samples.
    pub fn window_samples(&self) -> usize {
        self.window_samples
    }

    /// Hop between consecutive windows in samples.
    pub fn step_samples(&self) -> usize {
        self.step_samples
    }

    /// Window length in seconds.
    pub fn window_seconds(&self) -> f64 {
        self.window_samples as f64 / self.fs
    }

    /// Hop between consecutive windows in seconds.
    pub fn step_seconds(&self) -> f64 {
        self.step_samples as f64 / self.fs
    }

    /// Number of complete windows that fit into a signal of `signal_len`
    /// samples.
    pub fn num_windows(&self, signal_len: usize) -> usize {
        if signal_len < self.window_samples {
            0
        } else {
            (signal_len - self.window_samples) / self.step_samples + 1
        }
    }

    /// Sample index at which window `index` starts.
    pub fn window_start_sample(&self, index: usize) -> usize {
        index * self.step_samples
    }

    /// Time in seconds at which window `index` starts.
    pub fn window_start_seconds(&self, index: usize) -> f64 {
        self.window_start_sample(index) as f64 / self.fs
    }

    /// Iterator over the window slices of `signal`.
    pub fn windows<'a>(&self, signal: &'a [f64]) -> impl Iterator<Item = &'a [f64]> + 'a {
        let window = self.window_samples;
        let step = self.step_samples;
        let count = self.num_windows(signal.len());
        (0..count).map(move |i| &signal[i * step..i * step + window])
    }

    /// The one rule that decides which geometries stream. Every hop engine
    /// ([`StreamingRichExtractor`], [`StreamingPaperExtractor`] and the
    /// quality grader), the record driver behind every batch entry point
    /// and the detector accept exactly the geometries it accepts:
    ///
    /// * the step tiles the window, with at least two hops per window, so
    ///   hop summaries merge into windows exactly;
    /// * each hop is at least five samples, the span of an order-5 ordinal
    ///   pattern;
    /// * the window holds at least 16 samples (one db4 level) and at most
    ///   `u32::MAX` (the engines count a window's patterns and runs in
    ///   `u32`), so an absurd rate is refused before an engine asks for its
    ///   window ring.
    ///
    /// The paper's 4 s / 75 % geometry passes at every whole rate from 5 Hz
    /// up to about 1 GHz. Allocates nothing on success.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] (named `config`) stating the
    /// broken clause.
    pub fn check_streamable(&self) -> Result<(), FeatureError> {
        let (window, hop) = (self.window_samples, self.step_samples);
        let reason = if !window.is_multiple_of(hop) || window / hop < 2 {
            format!(
                "a streamed window must be two or more whole hops, got a {window}-sample \
                 window of {hop}-sample hops"
            )
        } else if hop < 5 {
            format!("a streamed hop must hold an order-5 ordinal pattern (5 samples), got {hop}")
        } else if window < 16 {
            format!("a streamed window must hold one db4 level (16 samples), got {window}")
        } else if u32::try_from(window).is_err() {
            format!(
                "the engines count a window in u32, so it holds at most u32::MAX samples, \
                 got {window}"
            )
        } else {
            return Ok(());
        };
        Err(FeatureError::InvalidConfig {
            name: "config",
            reason,
        })
    }
}

/// A feature extractor mapping one pair of channel windows to a feature vector.
///
/// Implementations must return vectors whose length equals
/// [`FeatureExtractor::num_features`] and whose entries line up with
/// [`FeatureExtractor::feature_names`].
pub trait FeatureExtractor {
    /// Names of the produced features, in output order.
    fn feature_names(&self) -> Vec<String>;

    /// Number of features produced per window.
    fn num_features(&self) -> usize {
        self.feature_names().len()
    }

    /// Extracts the feature vector of a single window from the two channels.
    ///
    /// # Errors
    ///
    /// Implementations return [`FeatureError`] when the window is too short or
    /// a numeric routine fails.
    fn extract_window(&self, f7t3: &[f64], f8t4: &[f64]) -> Result<Vec<f64>, FeatureError>;

    /// Extracts the full feature matrix through the batch engine: one flat
    /// row-major buffer, filled in parallel across windows. Allocating
    /// wrapper around [`FeatureExtractor::extract_batch_into`] with a fresh
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the channels differ in
    /// length, [`FeatureError::SignalTooShort`] if not even one window fits,
    /// and [`FeatureError::InvalidConfig`] if `config` is sampled at another
    /// rate than the extractor or [`SlidingWindowConfig::check_streamable`]
    /// refuses it.
    fn extract_batch(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
    ) -> Result<FeatureMatrix, FeatureError> {
        let mut matrix = FeatureMatrix::default();
        self.extract_batch_into(f7t3, f8t4, config, &mut matrix)?;
        Ok(matrix)
    }

    /// Multi-record variant of [`FeatureExtractor::extract_batch`]: refills
    /// `matrix` in place, reusing its allocation, so a whole cohort of
    /// records is extracted into one matrix buffer. Each worker builds its
    /// own per-call state and reuses it across its block of windows. A
    /// refused `config` is reported before `matrix` is touched.
    ///
    /// # Errors
    ///
    /// Same contract as [`FeatureExtractor::extract_batch`].
    fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError>;
}

/// Refuses a window geometry sampled at another rate than an engine's own
/// `fs`: its windows would be analysed on the wrong frequency scale.
pub(crate) fn check_rate(
    engine: &str,
    fs: f64,
    config: &SlidingWindowConfig,
) -> Result<(), FeatureError> {
    if config.sampling_frequency() == fs {
        return Ok(());
    }
    Err(FeatureError::InvalidConfig {
        name: "config",
        reason: format!(
            "the window geometry is sampled at {} Hz but the {engine} at {fs} Hz",
            config.sampling_frequency()
        ),
    })
}

/// Decomposition depth used for the wavelet-domain entropy features.
pub(crate) const PAPER_WAVELET_LEVELS: usize = 7;

/// Number of features [`PaperFeatureSet`] produces per window.
pub(crate) const PAPER_FEATURES: usize = 10;

/// The paper set's column names, built once per process.
pub(crate) fn paper_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(|| {
        [
            "f7t3_theta_power",
            "f7t3_theta_relative_power",
            "f7t3_delta_power",
            "f8t4_theta_relative_power",
            "f8t4_d7_permutation_entropy_n5",
            "f8t4_d7_permutation_entropy_n7",
            "f8t4_d6_permutation_entropy_n7",
            "f8t4_d3_renyi_entropy",
            "f8t4_d6_sample_entropy_k020",
            "f8t4_d6_sample_entropy_k035",
        ]
        .map(String::from)
        .to_vec()
    })
}

/// The paper's ten-feature set (§III-A), selected by backward elimination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperFeatureSet {
    fs: f64,
}

impl PaperFeatureSet {
    /// Creates the extractor for signals sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not positive.
    pub fn new(fs: f64) -> Result<Self, FeatureError> {
        if fs <= 0.0 || fs.is_nan() {
            return Err(FeatureError::InvalidConfig {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        Ok(Self { fs })
    }

    /// Sampling frequency the extractor was built for.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    fn decompose(&self, window: &[f64]) -> Result<WaveletDecomposition, FeatureError> {
        let levels = PAPER_WAVELET_LEVELS.min(max_level(window.len())).max(1);
        Ok(wavedec(window, levels)?)
    }

    /// Detail coefficients at the requested level, falling back to the deepest
    /// available level when the window is too short for the nominal depth.
    fn detail_at(dec: &WaveletDecomposition, level: usize) -> &[f64] {
        let level = level.min(dec.levels()).max(1);
        dec.detail(level).expect("level clamped into valid range")
    }
}

impl FeatureExtractor for PaperFeatureSet {
    fn num_features(&self) -> usize {
        PAPER_FEATURES
    }

    fn feature_names(&self) -> Vec<String> {
        paper_names().to_vec()
    }

    fn extract_window(&self, f7t3: &[f64], f8t4: &[f64]) -> Result<Vec<f64>, FeatureError> {
        if f7t3.is_empty() || f8t4.is_empty() {
            return Err(FeatureError::SignalTooShort {
                actual: f7t3.len().min(f8t4.len()),
                required: 2,
            });
        }
        // Spectral features of F7T3 and F8T4 from one periodogram each.
        let psd_left = periodogram(f7t3, self.fs)?;
        let left = band_powers_from_psd(&psd_left)?;
        let psd_right = periodogram(f8t4, self.fs)?;
        let right = band_powers_from_psd(&psd_right)?;

        // Wavelet-domain nonlinear features of F8T4.
        let dec = self.decompose(f8t4)?;
        let d7 = Self::detail_at(&dec, 7);
        let d6 = Self::detail_at(&dec, 6);
        let d3 = Self::detail_at(&dec, 3);

        Ok(vec![
            left.absolute(Band::Theta),
            left.relative(Band::Theta),
            left.absolute(Band::Delta),
            right.relative(Band::Theta),
            permutation_entropy(d7, 5, 1)?,
            permutation_entropy(d7, 7, 1)?,
            permutation_entropy(d6, 7, 1)?,
            renyi_entropy_quadratic(d3),
            sample_entropy(d6, 2, 0.2)?,
            sample_entropy(d6, 2, 0.35)?,
        ])
    }

    /// Streams the record through [`StreamingPaperExtractor`]s, one per
    /// worker, in the crate's one record driver (see
    /// [`crate::streaming`]). A geometry
    /// [`SlidingWindowConfig::check_streamable`] refuses (an untiled step,
    /// say) is refused with its error before `matrix` is touched.
    fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        check_rate("paper set", self.fs, config)?;
        stream_rows_into(
            f7t3,
            f8t4,
            config,
            None,
            || StreamingPaperExtractor::new(config),
            matrix,
        )
    }
}

/// A 54-feature catalogue (27 per electrode pair) mirroring the feature
/// families of the e-Glass real-time detector: band powers, statistics,
/// Hjorth descriptors, waveform features, permutation entropies and wavelet
/// Shannon entropies.
///
/// The rich set has one engine. Both batch entry points,
/// [`FeatureExtractor::extract_batch_into`] and
/// [`RichFeatureSet::extract_windows_into`], stream their rows through the
/// detector's [`StreamingRichExtractor`], so the rows the forest is trained
/// on are the bits detection computes. They accept only the geometries
/// [`StreamingRichExtractor::new`] accepts and return its error for any
/// other, before the matrix is touched. [`FeatureExtractor::extract_window`]
/// is the allocating two-pass textbook reference, which the engine matches
/// to rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RichFeatureSet {
    fs: f64,
}

/// Number of features [`RichFeatureSet`] produces per channel.
pub(crate) const RICH_FEATURES_PER_CHANNEL: usize = 27;

/// Decomposition depth used for the rich set's wavelet entropy features.
pub(crate) const RICH_WAVELET_LEVELS: usize = 5;

/// The rich set's column names, built once per process.
pub(crate) fn rich_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let mut names = RichFeatureSet::channel_feature_names("f7t3");
        names.extend(RichFeatureSet::channel_feature_names("f8t4"));
        names
    })
}

impl RichFeatureSet {
    /// Creates the extractor for signals sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not positive.
    pub fn new(fs: f64) -> Result<Self, FeatureError> {
        if fs <= 0.0 || fs.is_nan() {
            return Err(FeatureError::InvalidConfig {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        Ok(Self { fs })
    }

    /// Sampling frequency the extractor was built for.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    fn channel_feature_names(channel: &str) -> Vec<String> {
        let mut names = Vec::with_capacity(RICH_FEATURES_PER_CHANNEL);
        for band in Band::ALL {
            names.push(format!("{channel}_{band}_power"));
        }
        for band in Band::ALL {
            names.push(format!("{channel}_{band}_relative_power"));
        }
        names.push(format!("{channel}_total_power"));
        for stat in ["mean", "variance", "skewness", "kurtosis", "rms"] {
            names.push(format!("{channel}_{stat}"));
        }
        names.push(format!("{channel}_hjorth_mobility"));
        names.push(format!("{channel}_hjorth_complexity"));
        for wf in [
            "line_length",
            "nonlinear_energy",
            "zero_crossings",
            "peak_to_peak",
        ] {
            names.push(format!("{channel}_{wf}"));
        }
        names.push(format!("{channel}_permutation_entropy_n3"));
        names.push(format!("{channel}_permutation_entropy_n5"));
        for level in [3, 4, 5] {
            names.push(format!("{channel}_d{level}_shannon_entropy"));
        }
        names
    }

    fn channel_features(&self, window: &[f64]) -> Result<Vec<f64>, FeatureError> {
        if window.len() < 3 {
            return Err(FeatureError::SignalTooShort {
                actual: window.len(),
                required: 3,
            });
        }
        let mut out = Vec::with_capacity(RICH_FEATURES_PER_CHANNEL);
        let psd = periodogram(window, self.fs)?;
        let bands = band_powers_from_psd(&psd)?;
        out.extend_from_slice(&bands.absolute);
        out.extend_from_slice(&bands.relative);
        out.push(bands.total);

        let stats = window_statistics(window)?;
        out.extend_from_slice(&[
            stats.mean,
            stats.variance,
            stats.skewness,
            stats.kurtosis,
            stats.rms,
        ]);

        let hjorth = hjorth_parameters(window)?;
        out.push(hjorth.mobility);
        out.push(hjorth.complexity);

        out.push(line_length(window)?);
        out.push(nonlinear_energy(window)?);
        out.push(zero_crossings(window)? as f64);
        out.push(peak_to_peak(window)?);

        out.push(permutation_entropy(window, 3, 1)?);
        out.push(permutation_entropy(window, 5, 1)?);

        let levels = RICH_WAVELET_LEVELS.min(max_level(window.len())).max(1);
        let dec = wavedec(window, levels)?;
        for level in [3usize, 4, 5] {
            let level = level.min(dec.levels()).max(1);
            let detail = dec.detail(level).expect("clamped level");
            out.push(shannon_entropy(detail));
        }
        debug_assert_eq!(out.len(), RICH_FEATURES_PER_CHANNEL);
        Ok(out)
    }

    /// Extracts only the selected windows of a record: refills `matrix` with
    /// one row per entry of `windows`, row `j` holding window `windows[j]`
    /// (any order, repeats allowed; an empty list yields no rows). Each row
    /// is streamed from its window's own hops through the same
    /// [`StreamingRichExtractor`] as [`FeatureExtractor::extract_batch_into`]
    /// (see [`RichFeatureSet`]), so it equals row `windows[j]` of the full
    /// extraction bit for bit. The self-learning loop uses it to extract just
    /// the windows its balanced batch keeps.
    ///
    /// # Errors
    ///
    /// Same contract as [`FeatureExtractor::extract_batch_into`] (the record
    /// must hold at least one window even when `windows` is empty), plus
    /// [`FeatureError::DimensionMismatch`] for an index past the record's
    /// last window, reported before `matrix` is touched.
    pub fn extract_windows_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        windows: &[usize],
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        self.stream_rows_into(f7t3, f8t4, config, Some(windows), matrix)
    }

    /// Checks the rate and hands the record to the crate's one record
    /// driver with a [`StreamingRichExtractor`] per worker (see
    /// [`crate::streaming`]).
    fn stream_rows_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        windows: Option<&[usize]>,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        check_rate("rich set", self.fs, config)?;
        stream_rows_into(
            f7t3,
            f8t4,
            config,
            windows,
            || StreamingRichExtractor::new(config),
            matrix,
        )
    }
}

impl FeatureExtractor for RichFeatureSet {
    fn num_features(&self) -> usize {
        2 * RICH_FEATURES_PER_CHANNEL
    }

    fn feature_names(&self) -> Vec<String> {
        rich_names().to_vec()
    }

    fn extract_window(&self, f7t3: &[f64], f8t4: &[f64]) -> Result<Vec<f64>, FeatureError> {
        let mut out = self.channel_features(f7t3)?;
        out.extend(self.channel_features(f8t4)?);
        Ok(out)
    }

    /// Streams the record through [`StreamingRichExtractor`]s, one per
    /// worker (see [`RichFeatureSet`]).
    fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        self.stream_rows_into(f7t3, f8t4, config, None, matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn two_channels(fs: f64, secs: f64) -> (Vec<f64>, Vec<f64>) {
        let n = (fs * secs) as usize;
        (tone(6.0, fs, n, 1.0), tone(3.0, fs, n, 0.8))
    }

    #[test]
    fn config_paper_default_matches_paper() {
        let cfg = SlidingWindowConfig::paper_default(256.0).unwrap();
        assert_eq!(cfg.window_samples(), 1024);
        assert_eq!(cfg.step_samples(), 256);
        assert!((cfg.window_seconds() - 4.0).abs() < 1e-12);
        assert!((cfg.step_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        assert!(SlidingWindowConfig::new(0.0, 4.0, 0.75).is_err());
        assert!(SlidingWindowConfig::new(256.0, 0.0, 0.75).is_err());
        assert!(SlidingWindowConfig::new(256.0, 4.0, 1.0).is_err());
        assert!(SlidingWindowConfig::new(256.0, 4.0, -0.1).is_err());
    }

    #[test]
    fn fractional_overlap_steps_round_to_nearest() {
        // Regression: 4 s at 256 Hz with 60 % overlap gives an exact step of
        // 409.6 samples; the step must round to 410 (not truncate to 409),
        // keeping the realized overlap within one sample of the configured.
        let cfg = SlidingWindowConfig::new(256.0, 4.0, 0.6).unwrap();
        assert_eq!(cfg.window_samples(), 1024);
        assert_eq!(cfg.step_samples(), 410);
        let realized = (cfg.window_samples() - cfg.step_samples()) as f64;
        assert!((realized - 1024.0 * 0.6).abs() <= 1.0);

        // Extreme overlaps clamp the step at one sample but still stay
        // within the one-sample deviation budget.
        let tight = SlidingWindowConfig::new(64.0, 1.0, 0.999).unwrap();
        assert_eq!(tight.step_samples(), 1);
    }

    #[test]
    fn num_windows_formula() {
        let cfg = SlidingWindowConfig::paper_default(256.0).unwrap();
        // A 60-second signal at 256 Hz yields 57 four-second windows stepping by 1 s.
        assert_eq!(cfg.num_windows(60 * 256), 57);
        assert_eq!(cfg.num_windows(1024), 1);
        assert_eq!(cfg.num_windows(1023), 0);
    }

    #[test]
    fn window_index_time_mapping_roundtrip() {
        let cfg = SlidingWindowConfig::paper_default(256.0).unwrap();
        assert_eq!(cfg.window_start_sample(10), 2560);
        assert!((cfg.window_start_seconds(10) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn windows_iterator_covers_signal() {
        let cfg = SlidingWindowConfig::new(10.0, 1.0, 0.5).unwrap();
        let signal: Vec<f64> = (0..35).map(|i| i as f64).collect();
        let windows: Vec<&[f64]> = cfg.windows(&signal).collect();
        assert_eq!(windows.len(), cfg.num_windows(35));
        assert_eq!(windows[0][0], 0.0);
        assert_eq!(windows[1][0], 5.0);
        assert!(windows.iter().all(|w| w.len() == 10));
    }

    #[test]
    fn paper_feature_set_has_ten_named_features() {
        let ex = PaperFeatureSet::new(256.0).unwrap();
        assert_eq!(ex.num_features(), 10);
        assert_eq!(ex.feature_names().len(), 10);
        assert!(ex.feature_names()[0].starts_with("f7t3"));
        assert!(ex.feature_names()[9].starts_with("f8t4"));
    }

    #[test]
    fn paper_feature_set_rejects_bad_fs() {
        assert!(PaperFeatureSet::new(0.0).is_err());
        assert!(RichFeatureSet::new(-1.0).is_err());
    }

    #[test]
    fn paper_features_on_single_window() {
        let fs = 256.0;
        let ex = PaperFeatureSet::new(fs).unwrap();
        let w1 = tone(6.0, fs, 1024, 2.0);
        let w2 = tone(2.0, fs, 1024, 1.0);
        let features = ex.extract_window(&w1, &w2).unwrap();
        assert_eq!(features.len(), 10);
        assert!(features.iter().all(|f| f.is_finite()));
        // F7T3 carries a theta tone, so its relative theta power is high.
        assert!(features[1] > 0.8);
        // F8T4 carries a delta tone, so its relative theta power is low.
        assert!(features[3] < 0.2);
    }

    #[test]
    fn paper_features_empty_window_rejected() {
        let ex = PaperFeatureSet::new(256.0).unwrap();
        assert!(ex.extract_window(&[], &[]).is_err());
    }

    #[test]
    fn rich_feature_set_has_54_features() {
        let ex = RichFeatureSet::new(256.0).unwrap();
        assert_eq!(ex.num_features(), 54);
        let names = ex.feature_names();
        assert_eq!(names.len(), 54);
        // Names must be unique.
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), 54);
    }

    #[test]
    fn rich_features_on_single_window() {
        let fs = 256.0;
        let ex = RichFeatureSet::new(fs).unwrap();
        let w1 = tone(6.0, fs, 1024, 2.0);
        let w2 = tone(25.0, fs, 1024, 1.0);
        let features = ex.extract_window(&w1, &w2).unwrap();
        assert_eq!(features.len(), 54);
        assert!(features.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn rich_features_distinguish_amplitude_change() {
        let fs = 256.0;
        let ex = RichFeatureSet::new(fs).unwrap();
        let quiet = tone(6.0, fs, 1024, 0.5);
        let loud = tone(6.0, fs, 1024, 3.0);
        let f_quiet = ex.extract_window(&quiet, &quiet).unwrap();
        let f_loud = ex.extract_window(&loud, &loud).unwrap();
        let names = ex.feature_names();
        let ll_idx = names.iter().position(|n| n == "f7t3_line_length").unwrap();
        assert!(f_loud[ll_idx] > 3.0 * f_quiet[ll_idx]);
    }

    fn assert_matrices_close(batch: &FeatureMatrix, reference: &FeatureMatrix, tol: f64) {
        assert_eq!(batch.num_windows(), reference.num_windows());
        assert_eq!(batch.num_features(), reference.num_features());
        assert_eq!(batch.feature_names(), reference.feature_names());
        for (r, (a, b)) in batch.rows().zip(reference.rows()).enumerate() {
            for (c, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!(
                    (x - y).abs() <= tol * (1.0 + y.abs()),
                    "row {r} col {c}: batch {x} vs reference {y}"
                );
            }
        }
    }

    /// Window-by-window reference built directly from `extract_window`, the
    /// way the pre-batch sequential path used to assemble matrices.
    fn sequential_reference<E: FeatureExtractor>(
        ex: &E,
        a: &[f64],
        b: &[f64],
        cfg: &SlidingWindowConfig,
    ) -> FeatureMatrix {
        let mut reference = FeatureMatrix::with_names(ex.feature_names());
        for (w1, w2) in cfg.windows(a).zip(cfg.windows(b)) {
            reference
                .push_row(ex.extract_window(w1, w2).unwrap())
                .unwrap();
        }
        reference
    }

    #[test]
    fn paper_batch_extraction_matches_sequential() {
        let fs = 256.0;
        let (a, b) = two_channels(fs, 20.0);
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = PaperFeatureSet::new(fs).unwrap();
        let batch = ex.extract_batch(&a, &b, &cfg).unwrap();
        let reference = sequential_reference(&ex, &a, &b, &cfg);
        assert_matrices_close(&batch, &reference, 1e-9);
    }

    #[test]
    fn rich_batch_extraction_matches_sequential() {
        let fs = 256.0;
        let (a, b) = two_channels(fs, 16.0);
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = RichFeatureSet::new(fs).unwrap();
        let batch = ex.extract_batch(&a, &b, &cfg).unwrap();
        let reference = sequential_reference(&ex, &a, &b, &cfg);
        assert_matrices_close(&batch, &reference, 1e-9);
    }

    #[test]
    fn batch_extraction_validates_like_sequential() {
        let fs = 256.0;
        let (a, mut b) = two_channels(fs, 8.0);
        b.pop();
        let short = tone(5.0, fs, 512, 1.0);
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let rich = RichFeatureSet::new(fs).unwrap();
        let paper = PaperFeatureSet::new(fs).unwrap();
        let extractors: [&dyn FeatureExtractor; 2] = [&rich, &paper];
        for ex in extractors {
            assert!(matches!(
                ex.extract_batch(&a, &b, &cfg),
                Err(FeatureError::ChannelLengthMismatch { .. })
            ));
            assert!(matches!(
                ex.extract_batch(&short, &short, &cfg),
                Err(FeatureError::SignalTooShort { .. })
            ));
        }
    }

    #[test]
    fn extract_batch_into_reuses_the_matrix_across_records() {
        let fs = 256.0;
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let rich = RichFeatureSet::new(fs).unwrap();
        let paper = PaperFeatureSet::new(fs).unwrap();
        let mut matrix = FeatureMatrix::default();
        // Records of different lengths through one matrix, switching
        // extractors, which renames the columns.
        for secs in [12.0, 20.0, 8.0] {
            let (a, b) = two_channels(fs, secs);
            paper.extract_batch_into(&a, &b, &cfg, &mut matrix).unwrap();
            assert_eq!(matrix.num_features(), 10);
            assert_eq!(matrix, paper.extract_batch(&a, &b, &cfg).unwrap());
            rich.extract_batch_into(&a, &b, &cfg, &mut matrix).unwrap();
            assert_eq!(matrix.num_features(), 54);
            assert_eq!(matrix, rich.extract_batch(&a, &b, &cfg).unwrap());
        }
    }

    #[test]
    fn paper_set_rejects_a_geometry_at_another_rate_before_touching_the_matrix() {
        let (a, b) = two_channels(256.0, 12.0);
        let paper = PaperFeatureSet::new(256.0).unwrap();
        let filled = paper
            .extract_batch(&a, &b, &SlidingWindowConfig::paper_default(256.0).unwrap())
            .unwrap();
        let mut matrix = filled.clone();
        let other_rate = SlidingWindowConfig::paper_default(128.0).unwrap();
        assert!(matches!(
            paper.extract_batch_into(&a, &b, &other_rate, &mut matrix),
            Err(FeatureError::InvalidConfig { name: "config", .. })
        ));
        assert_eq!(matrix, filled);
    }

    #[test]
    fn paper_set_rejects_an_untiled_step_before_touching_the_matrix() {
        let (a, b) = two_channels(256.0, 12.0);
        let paper = PaperFeatureSet::new(256.0).unwrap();
        let filled = paper
            .extract_batch(&a, &b, &SlidingWindowConfig::paper_default(256.0).unwrap())
            .unwrap();
        // A 410-sample step does not divide the 1024-sample window.
        let untiled = SlidingWindowConfig::new(256.0, 4.0, 0.6).unwrap();
        let expected = StreamingPaperExtractor::new(&untiled).unwrap_err();
        assert!(matches!(
            expected,
            FeatureError::InvalidConfig { name: "config", .. }
        ));
        let mut matrix = filled.clone();
        assert_eq!(
            paper.extract_batch_into(&a, &b, &untiled, &mut matrix),
            Err(expected)
        );
        assert_eq!(matrix, filled);
    }

    #[test]
    fn rich_set_rejects_unstreamable_geometries_before_touching_the_matrix() {
        let filled = {
            let (a, b) = two_channels(256.0, 12.0);
            let cfg = SlidingWindowConfig::paper_default(256.0).unwrap();
            RichFeatureSet::new(256.0)
                .unwrap()
                .extract_batch(&a, &b, &cfg)
                .unwrap()
        };
        // A 410-sample step that does not divide the window and a 4-sample
        // hop no longer than the order-5 pattern span.
        for (fs, window_secs, overlap) in [(256.0, 4.0, 0.6), (16.0, 1.0, 0.75)] {
            let bad = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
            let expected = StreamingRichExtractor::new(&bad).unwrap_err();
            let rich = RichFeatureSet::new(fs).unwrap();
            let (a, b) = two_channels(fs, 12.0);
            let mut matrix = filled.clone();
            assert_eq!(
                rich.extract_batch_into(&a, &b, &bad, &mut matrix),
                Err(expected.clone()),
                "{fs} Hz, {window_secs} s, {overlap}"
            );
            assert_eq!(
                rich.extract_windows_into(&a, &b, &bad, &[0], &mut matrix),
                Err(expected)
            );
            assert_eq!(matrix, filled);
        }
        // A 250-sample hop, no multiple of 2^5, is streamed: the wavelet
        // carry recomputes the levels it cannot shift by whole coefficients,
        // and the batch rows are the streamed rows.
        let paper_rate = SlidingWindowConfig::paper_default(250.0).unwrap();
        let (a, b) = distinct_channels(250.0, 12.0);
        let rich = RichFeatureSet::new(250.0).unwrap();
        let mut matrix = filled.clone();
        rich.extract_batch_into(&a, &b, &paper_rate, &mut matrix)
            .unwrap();
        let mut streaming = StreamingRichExtractor::new(&paper_rate).unwrap();
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut row = vec![0.0; 54];
        let mut window = 0;
        for (hop_a, hop_b) in a.chunks_exact(250).zip(b.chunks_exact(250)) {
            if streaming.push_hop(hop_a, hop_b, &mut row).unwrap() {
                assert_eq!(bits(&row), bits(matrix.row(window)), "window {window}");
                window += 1;
            }
        }
        assert_eq!(window, 9);
        // A geometry sampled at another rate than the set's is refused too.
        let (a, b) = two_channels(256.0, 12.0);
        let other_rate = SlidingWindowConfig::paper_default(128.0).unwrap();
        let mut matrix = filled.clone();
        assert!(matches!(
            RichFeatureSet::new(256.0).unwrap().extract_windows_into(
                &a,
                &b,
                &other_rate,
                &[0],
                &mut matrix
            ),
            Err(FeatureError::InvalidConfig { .. })
        ));
        assert_eq!(matrix, filled);
    }

    /// Two channels whose windows all differ (noise plus a tone under a
    /// ramp), so a row taken from the wrong window cannot pass for the
    /// right one.
    fn distinct_channels(fs: f64, secs: f64) -> (Vec<f64>, Vec<f64>) {
        let n = (fs * secs) as usize;
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut noise = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let carrier = tone(6.0, fs, n, 1.0);
        let a = (0..n)
            .map(|i| (1.0 + i as f64 / n as f64) * carrier[i] + noise())
            .collect();
        let b = (0..n).map(|i| 0.8 * noise() + 0.01 * i as f64).collect();
        (a, b)
    }

    #[test]
    fn extract_windows_into_matches_batch_rows_bit_for_bit() {
        let mut selected = FeatureMatrix::default();
        for fs in [256.0, 128.0] {
            let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
            let ex = RichFeatureSet::new(fs).unwrap();
            let (a, b) = distinct_channels(fs, 40.0);
            let full = ex.extract_batch(&a, &b, &cfg).unwrap();
            let last = full.num_windows() - 1;
            // Long enough to fan out across workers, in reverse order.
            let reversed: Vec<usize> = (0..=last).rev().step_by(2).collect();
            let lists: [&[usize]; 8] = [
                &[9, 2, 30, 4, 17, 11],
                &[5, 5, 0, 5, last, 0],
                &[12],
                &[0],
                &[last],
                &[last, 0],
                &reversed,
                &[],
            ];
            for windows in lists {
                ex.extract_windows_into(&a, &b, &cfg, windows, &mut selected)
                    .unwrap();
                assert_eq!(selected.num_windows(), windows.len());
                assert_eq!(selected.feature_names(), full.feature_names());
                for (j, &w) in windows.iter().enumerate() {
                    for (c, (x, y)) in selected.row(j).iter().zip(full.row(w)).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "fs {fs}: row {j} (window {w}), column {c}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extract_windows_into_rejects_what_the_record_lacks() {
        let fs = 256.0;
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = RichFeatureSet::new(fs).unwrap();
        let mut matrix = FeatureMatrix::default();
        let (a, b) = two_channels(fs, 12.0);
        let count = cfg.num_windows(a.len());
        for bad in [&[count][..], &[0, 3, count + 7], &[usize::MAX]] {
            assert!(matches!(
                ex.extract_windows_into(&a, &b, &cfg, bad, &mut matrix),
                Err(FeatureError::DimensionMismatch { .. })
            ));
        }
        // A record without one complete window fails like the full
        // extraction, whatever the selection.
        let short = tone(5.0, fs, 512, 1.0);
        assert_eq!(
            ex.extract_windows_into(&short, &short, &cfg, &[], &mut matrix),
            Err(FeatureError::SignalTooShort {
                actual: 512,
                required: 1024
            })
        );
        assert!(matches!(
            ex.extract_windows_into(&a, &b[1..], &cfg, &[0], &mut matrix),
            Err(FeatureError::ChannelLengthMismatch { .. })
        ));
    }

    #[test]
    fn short_windows_still_produce_paper_features() {
        // A 1-second window at 64 Hz cannot support 7 wavelet levels; the
        // extractor clamps to the deepest available level instead of failing.
        let fs = 64.0;
        let ex = PaperFeatureSet::new(fs).unwrap();
        let w = tone(5.0, fs, 64, 1.0);
        let features = ex.extract_window(&w, &w).unwrap();
        assert_eq!(features.len(), 10);
        assert!(features.iter().all(|f| f.is_finite()));
    }
}
