//! Power spectral density estimation and band-power integration.
//!
//! The paper's selected feature set (§III-A) uses total and relative delta
//! ([0.5, 4] Hz) and theta ([4, 8] Hz) band powers computed from 4-second EEG
//! windows; this module provides the rectangular periodogram those features are
//! built on, as an allocating reference and as an allocation-free plan that
//! estimates both channels' spectra in one two-lane pass.

use crate::error::DspError;
use crate::fft::{real_fft, ComplexPair, RealFftPlan};

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
    let spectrum = real_fft(signal)?;
    let half = n / 2 + 1;
    let mut power = Vec::with_capacity(half);
    let mut freqs = Vec::with_capacity(half);
    for (k, bin) in spectrum.iter().take(half).enumerate() {
        // One-sided scaling: interior bins carry the energy of their negative-
        // frequency mirror as well.
        let two_sided = bin.magnitude_squared() / (fs * n as f64);
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
/// Wraps a [`RealFftPlan`] so the one-sided rectangular periodograms of both
/// channels' analysis windows are computed in one two-lane pass into
/// caller-provided buffers, with **zero heap allocations** on the hot path.
/// Each channel's estimate is bit-identical to running that channel alone.
/// Build one per window length, reuse it for every window.
///
/// # Example
///
/// ```
/// use seizure_dsp::fft::ComplexPair;
/// use seizure_dsp::spectrum::{periodogram, PsdPlan};
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let fs = 256.0;
/// let tone = |hz: f64| -> Vec<f64> {
///     (0..1024)
///         .map(|n| (2.0 * std::f64::consts::PI * hz * n as f64 / fs).sin())
///         .collect()
/// };
/// let (a, b) = (tone(10.0), tone(3.0));
///
/// let plan = PsdPlan::new(a.len())?;
/// let mut power = [vec![0.0; plan.num_bins()], vec![0.0; plan.num_bins()]];
/// let mut scratch = vec![ComplexPair::default(); plan.scratch_len()];
/// let [pa, pb] = &mut power;
/// plan.power_pair_into([&a, &b], fs, [pa, pb], &mut scratch)?;
///
/// for (signal, lane) in [&a, &b].into_iter().zip(&power) {
///     let reference = periodogram(signal, fs)?;
///     for (x, y) in lane.iter().zip(reference.power()) {
///         assert!((x - y).abs() < 1e-9);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PsdPlan {
    fft: RealFftPlan,
}

impl PsdPlan {
    /// Builds a plan for analysis windows of `n` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `n` is zero.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput {
                operation: "PsdPlan::new",
            });
        }
        Ok(Self {
            fft: RealFftPlan::new(n)?,
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

    /// Minimum lane-buffer length required by [`PsdPlan::power_pair_into`]
    /// (`n/2` on the packed real-FFT path, none on the fallback path).
    pub fn scratch_len(&self) -> usize {
        self.fft.scratch_len()
    }

    /// Heap bytes the plan holds: the packed real FFT's bit-reversal,
    /// stage-twiddle and untangling tables, or the direct-DFT fallback's
    /// roots of unity.
    pub fn heap_bytes(&self) -> usize {
        self.fft.heap_bytes()
    }

    /// Frequency spacing between consecutive bins for a signal sampled at
    /// `fs` Hz.
    pub fn resolution(&self, fs: f64) -> f64 {
        fs / self.fft.len() as f64
    }

    /// Computes the one-sided PSDs of both `signals` into `power` (lane 0
    /// into `power[0]`, lane 1 into `power[1]`), using `scratch` for the
    /// two-lane transform. Each row is the estimate [`periodogram`] makes of
    /// its signal, bit for bit as the one-channel plan computed it, without
    /// allocating.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if a signal does not match the
    /// planned window length, a `power` row does not have
    /// [`PsdPlan::num_bins`] slots, or `scratch` is shorter than
    /// [`PsdPlan::scratch_len`], and [`DspError::InvalidParameter`] if `fs`
    /// is not strictly positive.
    // lint: hot-path
    pub fn power_pair_into(
        &self,
        signals: [&[f64]; 2],
        fs: f64,
        power: [&mut [f64]; 2],
        scratch: &mut [ComplexPair],
    ) -> Result<(), DspError> {
        if fs <= 0.0 || fs.is_nan() {
            return Err(non_positive_fs(fs));
        }
        for row in &power {
            if row.len() != self.num_bins() {
                return Err(DspError::InvalidLength {
                    operation: "PsdPlan::power_pair_into",
                    actual: row.len(),
                    requirement: "power buffer must have n/2 + 1 bins",
                });
            }
        }
        if scratch.len() < self.fft.scratch_len() {
            return Err(DspError::InvalidLength {
                operation: "PsdPlan::power_pair_into",
                actual: scratch.len(),
                requirement: "scratch buffer must cover PsdPlan::scratch_len()",
            });
        }
        let [row0, row1] = power;
        self.fft
            .magnitudes_squared_pair_into(signals, [&mut *row0, &mut *row1], scratch)?;
        self.scale_one_sided(row0, fs);
        self.scale_one_sided(row1, fs);
        Ok(())
    }

    /// Turns `|X[k]|²` bins into the one-sided PSD in place: divided by
    /// `fs · n`, interior bins doubled for their negative-frequency mirror.
    fn scale_one_sided(&self, power: &mut [f64], fs: f64) {
        let n = self.fft.len();
        let half = self.num_bins();
        let denom = fs * n as f64;
        for (k, slot) in power.iter_mut().enumerate() {
            let two_sided = *slot / denom;
            *slot = if k == 0 || (n.is_multiple_of(2) && k == half - 1) {
                two_sided
            } else {
                2.0 * two_sided
            };
        }
    }

    /// The one-channel periodogram the two-lane one replaced, kept as its
    /// oracle.
    #[cfg(test)]
    pub(crate) fn power_into(
        &self,
        signal: &[f64],
        fs: f64,
        power: &mut [f64],
        scratch: &mut [crate::fft::Complex],
    ) -> Result<(), DspError> {
        assert!(fs > 0.0);
        self.fft.magnitudes_squared_into(signal, power, scratch)?;
        self.scale_one_sided(power, fs);
        Ok(())
    }
}

/// Misuse-only error constructor, kept out of the hot path.
#[cold]
fn non_positive_fs(fs: f64) -> DspError {
    DspError::InvalidParameter {
        name: "fs",
        reason: format!("sampling frequency must be positive, got {fs}"),
    }
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
    fn band_power_rejects_bad_band() {
        let psd = periodogram(&vec![1.0; 64], 64.0).unwrap();
        assert!(band_power(&psd, 8.0, 4.0).is_err());
        assert!(band_power(&psd, -1.0, 4.0).is_err());
        assert!(band_power(&psd, f64::NAN, 4.0).is_err());
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
    fn psd_plan_matches_periodogram() {
        // A power-of-two length takes the packed real FFT, any other length
        // the DFT fallback.
        let fs = 256.0;
        for n in [1024, 600] {
            let x = sine(12.0, fs, n, 1.3);
            let y = sine(3.0, fs, n, 0.4);
            let plan = PsdPlan::new(x.len()).unwrap();
            let mut power = [vec![0.0; plan.num_bins()], vec![0.0; plan.num_bins()]];
            let mut scratch = vec![ComplexPair::default(); plan.scratch_len()];
            let [px, py] = &mut power;
            plan.power_pair_into([&x, &y], fs, [px, py], &mut scratch)
                .unwrap();
            for (signal, lane) in [&x, &y].into_iter().zip(&power) {
                let reference = periodogram(signal, fs).unwrap();
                assert_eq!(lane.len(), reference.len());
                for (a, b) in lane.iter().zip(reference.power()) {
                    assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "n={n}");
                }
            }
        }
    }

    #[test]
    fn two_lane_psd_equals_the_one_channel_plan_bit_for_bit() {
        let fs = 256.0;
        for n in [1, 2, 3, 6, 8, 64, 100, 256, 1000, 1024, 4096] {
            let plan = PsdPlan::new(n).unwrap();
            let bins = plan.num_bins();
            let tone = sine(7.0, fs, n, 30.0);
            let mut hostile = sine(2.0, fs, n, 1e-300);
            for (i, x) in hostile.iter_mut().enumerate() {
                if i % 5 == 1 {
                    *x = [f64::NAN, -0.0, f64::INFINITY, 1e300][i % 4];
                }
            }
            let mut scratch = vec![ComplexPair::default(); plan.scratch_len()];
            let mut spectrum = vec![crate::fft::Complex::zero(); n];
            for (a, b) in [(&tone, &hostile), (&hostile, &tone), (&tone, &tone)] {
                let mut pair = [vec![0.0; bins], vec![0.0; bins]];
                let [p0, p1] = &mut pair;
                plan.power_pair_into([a, b], fs, [p0, p1], &mut scratch)
                    .unwrap();
                for (lane, (signal, got)) in [a, b].into_iter().zip(&pair).enumerate() {
                    let mut want = vec![0.0; bins];
                    plan.power_into(signal, fs, &mut want, &mut spectrum)
                        .unwrap();
                    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.to_bits() == w.to_bits(),
                            "n {n}, lane {lane}, bin {k}: {g:e} vs the one-channel plan's {w:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn psd_plan_rejects_bad_buffers() {
        assert!(PsdPlan::new(0).is_err());
        let plan = PsdPlan::new(64).unwrap();
        assert_eq!(plan.num_bins(), 33);
        assert_eq!(plan.window_len(), 64);
        assert!((plan.resolution(64.0) - 1.0).abs() < 1e-12);
        let x = vec![0.0; 64];
        let (mut p0, mut p1) = (vec![0.0; 33], vec![0.0; 33]);
        let mut scratch = vec![ComplexPair::default(); 32];
        assert!(plan
            .power_pair_into([&x, &x], 0.0, [&mut p0, &mut p1], &mut scratch)
            .is_err());
        assert!(plan
            .power_pair_into([&x, &x[..10]], 64.0, [&mut p0, &mut p1], &mut scratch)
            .is_err());
        let mut bad_power = vec![0.0; 10];
        assert!(plan
            .power_pair_into([&x, &x], 64.0, [&mut bad_power, &mut p1], &mut scratch)
            .is_err());
        assert!(plan
            .power_pair_into([&x, &x], 64.0, [&mut p0, &mut p1], &mut scratch[..10])
            .is_err());
        assert!(plan
            .power_pair_into([&x, &x], 64.0, [&mut p0, &mut p1], &mut scratch)
            .is_ok());
    }
}
