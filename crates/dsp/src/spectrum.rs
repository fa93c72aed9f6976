//! Power spectral density estimation and band-power integration.
//!
//! The paper's selected feature set (§III-A) uses total and relative delta
//! ([0.5, 4] Hz) and theta ([4, 8] Hz) band powers computed from 4-second EEG
//! windows; this module provides the PSD estimators those features are built on.

use crate::error::DspError;
use crate::fft::{real_fft, Complex, RealFftPlan};
use crate::window::{self, WindowKind};

/// A one-sided power spectral density estimate.
///
/// Frequencies run from DC to the Nyquist frequency with a uniform spacing of
/// [`PowerSpectrum::resolution`] Hz.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpectrum {
    /// Frequency axis in Hz, one entry per PSD bin.
    freqs: Vec<f64>,
    /// Power density per bin (signal-units² / Hz).
    power: Vec<f64>,
    /// Sampling frequency of the originating signal, in Hz.
    fs: f64,
}

impl PowerSpectrum {
    /// Creates a spectrum from raw frequency and power vectors.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if the vectors are empty or of
    /// different lengths, and [`DspError::InvalidParameter`] if `fs` is not
    /// strictly positive.
    pub fn new(freqs: Vec<f64>, power: Vec<f64>, fs: f64) -> Result<Self, DspError> {
        if freqs.is_empty() || freqs.len() != power.len() {
            return Err(DspError::InvalidLength {
                operation: "PowerSpectrum::new",
                actual: power.len(),
                requirement: "non-empty and matching the frequency axis length",
            });
        }
        if fs <= 0.0 || fs.is_nan() {
            return Err(DspError::InvalidParameter {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        Ok(Self { freqs, power, fs })
    }

    /// Frequency axis in Hz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Power density values, aligned with [`PowerSpectrum::freqs`].
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Sampling frequency of the signal the spectrum was estimated from.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Frequency spacing between consecutive bins in Hz.
    pub fn resolution(&self) -> f64 {
        if self.freqs.len() > 1 {
            self.freqs[1] - self.freqs[0]
        } else {
            self.fs / 2.0
        }
    }

    /// Total power integrated over the whole spectrum.
    pub fn total_power(&self) -> f64 {
        self.power.iter().sum::<f64>() * self.resolution()
    }

    /// Number of frequency bins.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Returns `true` if the spectrum has no bins (never the case for values
    /// produced by this crate's estimators).
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }
}

/// Estimates the PSD of `signal` with a single rectangular-windowed periodogram.
///
/// The estimate is one-sided and scaled so that integrating it over frequency
/// recovers the signal power (Parseval-consistent).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if the signal is empty and
/// [`DspError::InvalidParameter`] if `fs` is not strictly positive.
///
/// # Example
///
/// ```
/// use seizure_dsp::spectrum::periodogram;
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let fs = 256.0;
/// let x: Vec<f64> = (0..1024)
///     .map(|n| (2.0 * std::f64::consts::PI * 10.0 * n as f64 / fs).sin())
///     .collect();
/// let psd = periodogram(&x, fs)?;
/// // Total power of a unit sine is 0.5.
/// assert!((psd.total_power() - 0.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn periodogram(signal: &[f64], fs: f64) -> Result<PowerSpectrum, DspError> {
    periodogram_windowed(signal, fs, WindowKind::Rectangular)
}

/// Estimates the PSD of `signal` with a single periodogram using the given taper.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if the signal is empty and
/// [`DspError::InvalidParameter`] if `fs` is not strictly positive.
pub fn periodogram_windowed(
    signal: &[f64],
    fs: f64,
    kind: WindowKind,
) -> Result<PowerSpectrum, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "periodogram",
        });
    }
    if fs <= 0.0 || fs.is_nan() {
        return Err(DspError::InvalidParameter {
            name: "fs",
            reason: format!("sampling frequency must be positive, got {fs}"),
        });
    }
    let n = signal.len();
    let windowed = window::apply(kind, signal)?;
    let spectrum = real_fft(&windowed)?;
    let correction = window::power_correction(kind, n)?;
    let half = n / 2 + 1;
    let mut power = Vec::with_capacity(half);
    let mut freqs = Vec::with_capacity(half);
    for (k, bin) in spectrum.iter().take(half).enumerate() {
        // One-sided scaling: interior bins carry the energy of their negative-
        // frequency mirror as well.
        let two_sided = bin.magnitude_squared() / (fs * correction);
        let one_sided = if k == 0 || (n.is_multiple_of(2) && k == half - 1) {
            two_sided
        } else {
            2.0 * two_sided
        };
        power.push(one_sided);
        freqs.push(k as f64 * fs / n as f64);
    }
    PowerSpectrum::new(freqs, power, fs)
}

/// A precomputed periodogram plan for windows of one fixed length.
///
/// Bundles a [`RealFftPlan`] with the taper coefficients and the window power
/// correction so the one-sided PSD of each analysis window can be computed
/// into caller-provided buffers with **zero heap allocations** on the hot
/// path. Build one per window length, reuse it for every window.
///
/// # Example
///
/// ```
/// use seizure_dsp::fft::Complex;
/// use seizure_dsp::spectrum::{periodogram, PsdPlan};
/// use seizure_dsp::window::WindowKind;
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let fs = 256.0;
/// let x: Vec<f64> = (0..1024)
///     .map(|n| (2.0 * std::f64::consts::PI * 10.0 * n as f64 / fs).sin())
///     .collect();
///
/// let plan = PsdPlan::new(x.len(), WindowKind::Rectangular)?;
/// let mut power = vec![0.0; plan.num_bins()];
/// let mut scratch = vec![Complex::zero(); plan.scratch_len()];
/// plan.power_into(&x, fs, &mut power, &mut scratch)?;
///
/// let reference = periodogram(&x, fs)?;
/// for (a, b) in power.iter().zip(reference.power()) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PsdPlan {
    fft: RealFftPlan,
    kind: WindowKind,
    /// Taper coefficients; `None` for the rectangular window, whose taper is
    /// the identity.
    taper: Option<Vec<f64>>,
    correction: f64,
}

impl PsdPlan {
    /// Builds a plan for analysis windows of `n` samples tapered with `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `n` is zero.
    pub fn new(n: usize, kind: WindowKind) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput {
                operation: "PsdPlan::new",
            });
        }
        let fft = RealFftPlan::new(n)?;
        let taper = match kind {
            WindowKind::Rectangular => None,
            _ => Some(window::coefficients(kind, n)?),
        };
        let correction = window::power_correction(kind, n)?;
        Ok(Self {
            fft,
            kind,
            taper,
            correction,
        })
    }

    /// The window length the plan was built for.
    pub fn window_len(&self) -> usize {
        self.fft.len()
    }

    /// Number of one-sided PSD bins (`n/2 + 1`).
    pub fn num_bins(&self) -> usize {
        self.fft.len() / 2 + 1
    }

    /// Minimum scratch length required by [`PsdPlan::power_into`] (`n/2` on
    /// the packed real-FFT path, `n` on the fallback path).
    pub fn scratch_len(&self) -> usize {
        self.fft.scratch_len()
    }

    /// The taper kind of the plan.
    pub fn window_kind(&self) -> WindowKind {
        self.kind
    }

    /// Frequency spacing between consecutive bins for a signal sampled at
    /// `fs` Hz.
    pub fn resolution(&self, fs: f64) -> f64 {
        fs / self.fft.len() as f64
    }

    /// Computes the one-sided PSD of `signal` into `power`, using `scratch`
    /// for the intermediate spectrum. Produces the same estimate as
    /// [`periodogram_windowed`] without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `signal` does not match the
    /// planned window length, `power` does not have [`PsdPlan::num_bins`]
    /// slots, or `scratch` is shorter than [`PsdPlan::scratch_len`], and
    /// [`DspError::InvalidParameter`] if `fs` is not strictly positive.
    pub fn power_into(
        &self,
        signal: &[f64],
        fs: f64,
        power: &mut [f64],
        scratch: &mut [Complex],
    ) -> Result<(), DspError> {
        if fs <= 0.0 || fs.is_nan() {
            return Err(DspError::InvalidParameter {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        let n = self.fft.len();
        if power.len() != self.num_bins() {
            return Err(DspError::InvalidLength {
                operation: "PsdPlan::power_into",
                actual: power.len(),
                requirement: "power buffer must have n/2 + 1 bins",
            });
        }
        if scratch.len() < self.fft.scratch_len() {
            return Err(DspError::InvalidLength {
                operation: "PsdPlan::power_into",
                actual: scratch.len(),
                requirement: "scratch buffer must cover PsdPlan::scratch_len()",
            });
        }
        self.fft
            .magnitudes_squared_into(signal, self.taper.as_deref(), power, scratch)?;
        let half = self.num_bins();
        let denom = fs * self.correction;
        for (k, slot) in power.iter_mut().enumerate() {
            let two_sided = *slot / denom;
            *slot = if k == 0 || (n.is_multiple_of(2) && k == half - 1) {
                two_sided
            } else {
                2.0 * two_sided
            };
        }
        Ok(())
    }

    /// Convenience wrapper turning one window into an owned [`PowerSpectrum`]
    /// (allocates; the batch paths use [`PsdPlan::power_into`] instead).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`PsdPlan::power_into`].
    pub fn power_spectrum(&self, signal: &[f64], fs: f64) -> Result<PowerSpectrum, DspError> {
        let mut power = vec![0.0; self.num_bins()];
        let mut scratch = vec![Complex::zero(); self.scratch_len()];
        self.power_into(signal, fs, &mut power, &mut scratch)?;
        let n = self.window_len();
        let freqs = (0..self.num_bins())
            .map(|k| k as f64 * fs / n as f64)
            .collect();
        PowerSpectrum::new(freqs, power, fs)
    }
}

/// Welch's averaged-periodogram PSD estimate.
///
/// The signal is split into segments of `segment_len` samples with 50 % overlap,
/// each segment is tapered with a Hann window, and the per-segment periodograms
/// are averaged. If the signal is shorter than `segment_len` a single
/// periodogram over the whole signal is returned.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if the signal is empty,
/// [`DspError::InvalidParameter`] if `fs` is not strictly positive or
/// `segment_len` is zero.
pub fn welch(signal: &[f64], fs: f64, segment_len: usize) -> Result<PowerSpectrum, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput { operation: "welch" });
    }
    if segment_len == 0 {
        return Err(DspError::InvalidParameter {
            name: "segment_len",
            reason: "segment length must be at least 1".to_string(),
        });
    }
    if signal.len() < segment_len {
        return periodogram_windowed(signal, fs, WindowKind::Hann);
    }
    let hop = (segment_len / 2).max(1);
    // One plan for all segments: the per-segment taper, FFT twiddles and
    // scratch are computed once and the periodograms accumulate in place
    // instead of allocating fresh frequency/power vectors per segment.
    let plan = PsdPlan::new(segment_len, WindowKind::Hann)?;
    let mut power = vec![0.0; plan.num_bins()];
    let mut segment_power = vec![0.0; plan.num_bins()];
    let mut scratch = vec![Complex::zero(); segment_len];
    let mut count = 0usize;
    let mut start = 0usize;
    while start + segment_len <= signal.len() {
        plan.power_into(
            &signal[start..start + segment_len],
            fs,
            &mut segment_power,
            &mut scratch,
        )?;
        for (acc, p) in power.iter_mut().zip(segment_power.iter()) {
            *acc += p;
        }
        count += 1;
        start += hop;
    }
    debug_assert!(
        count > 0,
        "signal.len() >= segment_len guarantees one segment"
    );
    for p in &mut power {
        *p /= count as f64;
    }
    let freqs = (0..plan.num_bins())
        .map(|k| k as f64 * fs / segment_len as f64)
        .collect();
    PowerSpectrum::new(freqs, power, fs)
}

/// Integrates the PSD over the frequency band `[low_hz, high_hz]` (inclusive).
///
/// This is the "total band power" quantity used by the paper's spectral
/// features. Relative band power is obtained by dividing by
/// [`PowerSpectrum::total_power`].
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if the band is malformed
/// (`low_hz >= high_hz`, negative bounds, or NaN).
pub fn band_power(psd: &PowerSpectrum, low_hz: f64, high_hz: f64) -> Result<f64, DspError> {
    if low_hz.is_nan() || high_hz.is_nan() || low_hz < 0.0 || low_hz >= high_hz {
        return Err(DspError::InvalidParameter {
            name: "band",
            reason: format!("invalid frequency band [{low_hz}, {high_hz}]"),
        });
    }
    let resolution = psd.resolution();
    let mut acc = 0.0;
    for (f, p) in psd.freqs().iter().zip(psd.power()) {
        if *f >= low_hz && *f <= high_hz {
            acc += p * resolution;
        }
    }
    Ok(acc)
}

/// Relative power of a band: the band power divided by the total power of the
/// spectrum. Returns `0.0` when the spectrum carries no power at all.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if the band is malformed.
pub fn relative_band_power(
    psd: &PowerSpectrum,
    low_hz: f64,
    high_hz: f64,
) -> Result<f64, DspError> {
    let band = band_power(psd, low_hz, high_hz)?;
    let total = psd.total_power();
    if total <= 0.0 {
        return Ok(0.0);
    }
    Ok(band / total)
}

/// Convenience helper returning the magnitude spectrum of a real signal; kept
/// here so that callers that need a quick spectral sketch do not have to deal
/// with [`Complex`] values.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if the signal is empty.
pub fn magnitude_spectrum(signal: &[f64]) -> Result<Vec<f64>, DspError> {
    let spec = real_fft(signal)?;
    Ok(spec
        .iter()
        .take(signal.len() / 2 + 1)
        .map(Complex::magnitude)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(freq: f64, fs: f64, n: usize, amplitude: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amplitude * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn periodogram_rejects_empty_and_bad_fs() {
        assert!(periodogram(&[], 256.0).is_err());
        assert!(periodogram(&[1.0, 2.0], 0.0).is_err());
        assert!(periodogram(&[1.0, 2.0], -5.0).is_err());
    }

    #[test]
    fn periodogram_total_power_matches_signal_power() {
        let fs = 256.0;
        let x = sine(16.0, fs, 1024, 1.0);
        let psd = periodogram(&x, fs).unwrap();
        // A unit-amplitude sine has power 0.5.
        assert!((psd.total_power() - 0.5).abs() < 0.02);
    }

    #[test]
    fn periodogram_peak_at_tone_frequency() {
        let fs = 256.0;
        let x = sine(20.0, fs, 2048, 2.0);
        let psd = periodogram(&x, fs).unwrap();
        let (idx, _) = psd
            .power()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!((psd.freqs()[idx] - 20.0).abs() < 0.2);
    }

    #[test]
    fn psd_peak_selection_is_nan_safe() {
        // Regression companion to the `total_cmp` sweep: the peak-bin idiom
        // used across these tests must not panic or scramble when a power
        // bin is poisoned with NaN — NaN ranks above all finite bins.
        let power = [0.1, 2.0, f64::NAN, 0.4];
        let (idx, _) = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(idx, 2);
    }

    #[test]
    fn band_power_isolates_tone() {
        let fs = 256.0;
        let n = 1024;
        let mut x = sine(6.0, fs, n, 1.0); // theta tone
        let x2 = sine(30.0, fs, n, 1.0); // beta tone
        for (a, b) in x.iter_mut().zip(x2.iter()) {
            *a += b;
        }
        let psd = periodogram(&x, fs).unwrap();
        let theta = band_power(&psd, 4.0, 8.0).unwrap();
        let beta = band_power(&psd, 25.0, 35.0).unwrap();
        let delta = band_power(&psd, 0.5, 4.0).unwrap();
        assert!(theta > 0.4 && theta < 0.6);
        assert!(beta > 0.4 && beta < 0.6);
        assert!(delta < 0.05);
    }

    #[test]
    fn relative_band_power_sums_close_to_one_over_full_range() {
        let fs = 256.0;
        let x = sine(10.0, fs, 512, 1.5);
        let psd = periodogram(&x, fs).unwrap();
        let rel = relative_band_power(&psd, 0.0, fs / 2.0).unwrap();
        assert!((rel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn relative_band_power_zero_signal() {
        let psd = periodogram(&vec![0.0; 256], 256.0).unwrap();
        assert_eq!(relative_band_power(&psd, 4.0, 8.0).unwrap(), 0.0);
    }

    #[test]
    fn band_power_rejects_bad_band() {
        let psd = periodogram(&vec![1.0; 64], 64.0).unwrap();
        assert!(band_power(&psd, 8.0, 4.0).is_err());
        assert!(band_power(&psd, -1.0, 4.0).is_err());
        assert!(band_power(&psd, f64::NAN, 4.0).is_err());
    }

    #[test]
    fn welch_reduces_variance_relative_to_periodogram() {
        // White-ish noise from a deterministic chaotic-ish generator.
        let mut state = 0.123_f64;
        let noise: Vec<f64> = (0..4096)
            .map(|_| {
                state = (state * 997.0).fract();
                state - 0.5
            })
            .collect();
        let fs = 256.0;
        let p1 = periodogram(&noise, fs).unwrap();
        let pw = welch(&noise, fs, 512).unwrap();
        let var = |p: &PowerSpectrum| {
            let m = p.power().iter().sum::<f64>() / p.len() as f64;
            p.power().iter().map(|x| (x - m) * (x - m)).sum::<f64>() / p.len() as f64
        };
        assert!(var(&pw) < var(&p1));
    }

    #[test]
    fn welch_short_signal_falls_back_to_single_segment() {
        let x = sine(5.0, 64.0, 100, 1.0);
        let psd = welch(&x, 64.0, 1024).unwrap();
        assert_eq!(psd.len(), 100 / 2 + 1);
    }

    #[test]
    fn welch_rejects_zero_segment() {
        assert!(welch(&[1.0, 2.0], 10.0, 0).is_err());
    }

    #[test]
    fn power_spectrum_accessors() {
        let psd = PowerSpectrum::new(vec![0.0, 1.0, 2.0], vec![0.5, 0.25, 0.25], 4.0).unwrap();
        assert_eq!(psd.len(), 3);
        assert!(!psd.is_empty());
        assert_eq!(psd.resolution(), 1.0);
        assert_eq!(psd.sampling_frequency(), 4.0);
        assert!((psd.total_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_spectrum_rejects_mismatched_lengths() {
        assert!(PowerSpectrum::new(vec![0.0, 1.0], vec![1.0], 2.0).is_err());
        assert!(PowerSpectrum::new(vec![], vec![], 2.0).is_err());
        assert!(PowerSpectrum::new(vec![0.0], vec![1.0], 0.0).is_err());
    }

    #[test]
    fn psd_plan_matches_periodogram_for_all_tapers() {
        let fs = 256.0;
        let x = sine(12.0, fs, 600, 1.3);
        for kind in [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
        ] {
            let plan = PsdPlan::new(x.len(), kind).unwrap();
            assert_eq!(plan.window_kind(), kind);
            let mut power = vec![0.0; plan.num_bins()];
            let mut scratch = vec![Complex::zero(); plan.window_len()];
            plan.power_into(&x, fs, &mut power, &mut scratch).unwrap();
            let reference = periodogram_windowed(&x, fs, kind).unwrap();
            for (a, b) in power.iter().zip(reference.power()) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{kind:?}");
            }
        }
    }

    #[test]
    fn psd_plan_power_spectrum_equals_periodogram() {
        let fs = 128.0;
        let x = sine(9.0, fs, 256, 0.7);
        let plan = PsdPlan::new(x.len(), WindowKind::Rectangular).unwrap();
        let a = plan.power_spectrum(&x, fs).unwrap();
        let b = periodogram(&x, fs).unwrap();
        assert_eq!(a.freqs(), b.freqs());
        for (pa, pb) in a.power().iter().zip(b.power()) {
            assert!((pa - pb).abs() < 1e-10 * (1.0 + pb.abs()));
        }
    }

    #[test]
    fn psd_plan_rejects_bad_buffers() {
        assert!(PsdPlan::new(0, WindowKind::Hann).is_err());
        let plan = PsdPlan::new(64, WindowKind::Hann).unwrap();
        assert_eq!(plan.num_bins(), 33);
        assert!((plan.resolution(64.0) - 1.0).abs() < 1e-12);
        let x = vec![0.0; 64];
        let mut power = vec![0.0; 33];
        let mut scratch = vec![Complex::zero(); 64];
        assert!(plan.power_into(&x, 0.0, &mut power, &mut scratch).is_err());
        assert!(plan
            .power_into(&x[..10], 64.0, &mut power, &mut scratch)
            .is_err());
        let mut bad_power = vec![0.0; 10];
        assert!(plan
            .power_into(&x, 64.0, &mut bad_power, &mut scratch)
            .is_err());
        let mut bad_scratch = vec![Complex::zero(); 10];
        assert!(plan
            .power_into(&x, 64.0, &mut power, &mut bad_scratch)
            .is_err());
    }

    #[test]
    fn magnitude_spectrum_has_expected_length() {
        let x = vec![1.0; 128];
        assert_eq!(magnitude_spectrum(&x).unwrap().len(), 65);
    }
}
