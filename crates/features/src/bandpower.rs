//! Spectral band-power features.
//!
//! The clinical EEG bands used throughout the crate follow the paper: delta is
//! [0.5, 4] Hz and theta is [4, 8] Hz; the remaining standard bands are provided
//! for the rich feature set of the real-time detector.

use crate::error::FeatureError;
use seizure_dsp::spectrum::{band_power, periodogram, PowerSpectrum};

/// Standard clinical EEG frequency bands.
///
/// # Example
///
/// ```
/// use seizure_features::bandpower::Band;
///
/// assert_eq!(Band::Theta.range(), (4.0, 8.0));
/// assert_eq!(Band::Delta.range(), (0.5, 4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Band {
    /// Delta band, [0.5, 4] Hz.
    Delta,
    /// Theta band, [4, 8] Hz.
    Theta,
    /// Alpha band, [8, 13] Hz.
    Alpha,
    /// Beta band, [13, 30] Hz.
    Beta,
    /// Gamma band, [30, 45] Hz (upper edge kept below typical notch filters).
    Gamma,
}

impl Band {
    /// All bands in ascending frequency order.
    pub const ALL: [Band; 5] = [
        Band::Delta,
        Band::Theta,
        Band::Alpha,
        Band::Beta,
        Band::Gamma,
    ];

    /// Frequency range `(low, high)` of the band in Hz.
    pub fn range(&self) -> (f64, f64) {
        match self {
            Band::Delta => (0.5, 4.0),
            Band::Theta => (4.0, 8.0),
            Band::Alpha => (8.0, 13.0),
            Band::Beta => (13.0, 30.0),
            Band::Gamma => (30.0, 45.0),
        }
    }

    /// Lowercase band name.
    pub fn name(&self) -> &'static str {
        match self {
            Band::Delta => "delta",
            Band::Theta => "theta",
            Band::Alpha => "alpha",
            Band::Beta => "beta",
            Band::Gamma => "gamma",
        }
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Band-power summary of one analysis window.
#[derive(Debug, Clone, PartialEq)]
pub struct BandPowers {
    /// Absolute power per band, ordered as [`Band::ALL`].
    pub absolute: [f64; 5],
    /// Relative power per band (absolute divided by total signal power).
    pub relative: [f64; 5],
    /// Total power over the whole spectrum.
    pub total: f64,
}

impl BandPowers {
    /// Absolute power of a specific band.
    pub fn absolute(&self, band: Band) -> f64 {
        self.absolute[Band::ALL
            .iter()
            .position(|b| *b == band)
            .expect("band in ALL")]
    }

    /// Relative power of a specific band.
    pub fn relative(&self, band: Band) -> f64 {
        self.relative[Band::ALL
            .iter()
            .position(|b| *b == band)
            .expect("band in ALL")]
    }
}

/// Computes absolute and relative power for all five clinical bands from a
/// single PSD estimate.
///
/// # Errors
///
/// Propagates [`FeatureError::Dsp`] from the underlying PSD estimation.
pub fn all_band_powers(window: &[f64], fs: f64) -> Result<BandPowers, FeatureError> {
    let psd = periodogram(window, fs)?;
    Ok(band_powers_from_psd(&psd)?)
}

/// Computes absolute and relative band powers from an existing PSD.
///
/// # Errors
///
/// Propagates [`seizure_dsp::DspError`] if a band is malformed (cannot happen
/// for the fixed clinical bands).
pub fn band_powers_from_psd(psd: &PowerSpectrum) -> Result<BandPowers, seizure_dsp::DspError> {
    let total = psd.total_power();
    let mut absolute = [0.0; 5];
    let mut relative = [0.0; 5];
    for (i, band) in Band::ALL.iter().enumerate() {
        let (lo, hi) = band.range();
        absolute[i] = band_power(psd, lo, hi)?;
        relative[i] = if total > 0.0 {
            absolute[i] / total
        } else {
            0.0
        };
    }
    Ok(BandPowers {
        absolute,
        relative,
        total,
    })
}

/// Computes absolute and relative band powers of two spectra at once,
/// straight from raw one-sided PSD bins (as filled by
/// [`seizure_dsp::spectrum::PsdPlan::power_pair_into`]) without
/// materializing a [`PowerSpectrum`]. `window_len` is the analysis-window
/// length the bins came from; both rows must hold the same number of bins.
/// This is the allocation-free twin of [`band_powers_from_psd`] used by the
/// batch paper and rich extractors and by the streaming extractor's spectral
/// block, one lane per channel.
///
/// Bin `k` sits at `k as f64 * fs / window_len as f64` Hz. That frequency
/// never decreases with `k`, so each band's bins form one contiguous range,
/// found from the band edges divided by the resolution and then walked to
/// the exact edge with that same expression: a handful of divisions per
/// band instead of one division and five range tests per bin. Each band
/// and the total are then `0.0`-seeded folds in ascending bin order, the
/// two rows' folds interleaved in one pass, so every output is
/// bit-identical to testing every bin of its own row against every band
/// (NaN and infinite bins included), and a band without bins reads `0.0`,
/// never `-0.0`.
///
/// # Errors
///
/// Propagates [`seizure_dsp::DspError`] for a non-positive `fs`, zero
/// `window_len` or rows of different lengths.
// lint: hot-path
pub fn band_powers_from_bin_pair(
    power: [&[f64]; 2],
    fs: f64,
    window_len: usize,
) -> Result<[BandPowers; 2], seizure_dsp::DspError> {
    if fs <= 0.0 || fs.is_nan() || window_len == 0 {
        return Err(bad_bin_geometry());
    }
    let [row0, row1] = power;
    if row0.len() != row1.len() {
        return Err(seizure_dsp::DspError::InvalidLength {
            operation: "band_powers_from_bin_pair",
            actual: row1.len(),
            requirement: "both power rows must hold the same number of bins",
        });
    }
    let resolution = fs / window_len as f64;
    let freq = |k: usize| k as f64 * fs / window_len as f64;
    let sums = |start: usize, end: usize| {
        let mut acc = [0.0; 2];
        for (a, b) in row0[start..end].iter().zip(&row1[start..end]) {
            acc[0] += a;
            acc[1] += b;
        }
        acc
    };
    let totals = sums(0, row0.len()).map(|sum| sum * resolution);
    let mut out = totals.map(|total| BandPowers {
        absolute: [0.0; 5],
        relative: [0.0; 5],
        total,
    });
    for (i, band) in Band::ALL.iter().enumerate() {
        let (lo, hi) = band.range();
        // Only bin 0 can sit at NaN Hz (`0 · ∞` for an infinite fs), and it
        // then fails `>= lo`, so every bin from `start` on has a number.
        let start = first_bin_where(0, row0.len(), lo / resolution, |k| freq(k) >= lo);
        let end = first_bin_where(start, row0.len(), hi / resolution, |k| freq(k) > hi);
        for (bands, sum) in out.iter_mut().zip(sums(start, end)) {
            bands.absolute[i] = sum * resolution;
            bands.relative[i] = if bands.total > 0.0 {
                bands.absolute[i] / bands.total
            } else {
                0.0
            };
        }
    }
    Ok(out)
}

/// Misuse-only error constructor, kept out of the hot path.
#[cold]
fn bad_bin_geometry() -> seizure_dsp::DspError {
    seizure_dsp::DspError::InvalidParameter {
        name: "fs",
        reason: "band_powers_from_bin_pair requires a positive fs and window length".to_string(),
    }
}

/// The one-spectrum band fold the two-lane one replaced, kept as its
/// oracle.
#[cfg(test)]
pub(crate) fn band_powers_from_bins(power: &[f64], fs: f64, window_len: usize) -> BandPowers {
    let resolution = fs / window_len as f64;
    let freq = |k: usize| k as f64 * fs / window_len as f64;
    let sum = |bins: &[f64]| bins.iter().fold(0.0, |acc, p| acc + p);
    let total = sum(power) * resolution;
    let mut absolute = [0.0; 5];
    let mut relative = [0.0; 5];
    for (i, band) in Band::ALL.iter().enumerate() {
        let (lo, hi) = band.range();
        let start = first_bin_where(0, power.len(), lo / resolution, |k| freq(k) >= lo);
        let end = first_bin_where(start, power.len(), hi / resolution, |k| freq(k) > hi);
        absolute[i] = sum(&power[start..end]) * resolution;
        relative[i] = if total > 0.0 {
            absolute[i] / total
        } else {
            0.0
        };
    }
    BandPowers {
        absolute,
        relative,
        total,
    }
}

/// First bin of `from..len` where `reached` holds (or `len`), for a
/// predicate that stays true once it holds. The walk starts from `guess`
/// (saturated into range), so a close guess costs a few evaluations.
fn first_bin_where(from: usize, len: usize, guess: f64, reached: impl Fn(usize) -> bool) -> usize {
    let mut k = (guess as usize).clamp(from, len);
    while k > from && reached(k - 1) {
        k -= 1;
    }
    while k < len && !reached(k) {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn band_ranges_match_paper() {
        assert_eq!(Band::Delta.range(), (0.5, 4.0));
        assert_eq!(Band::Theta.range(), (4.0, 8.0));
        assert_eq!(Band::Alpha.range(), (8.0, 13.0));
        assert_eq!(Band::Beta.range(), (13.0, 30.0));
        assert_eq!(Band::Gamma.range(), (30.0, 45.0));
    }

    #[test]
    fn band_display_names() {
        assert_eq!(Band::Theta.to_string(), "theta");
        assert_eq!(Band::Gamma.to_string(), "gamma");
    }

    #[test]
    fn theta_tone_dominates_theta_band() {
        let fs = 256.0;
        let window = tone(6.0, fs, 1024, 1.0);
        let bp = all_band_powers(&window, fs).unwrap();
        let theta = bp.absolute(Band::Theta);
        let delta = bp.absolute(Band::Delta);
        let beta = bp.absolute(Band::Beta);
        assert!(theta > 10.0 * delta);
        assert!(theta > 10.0 * beta);
    }

    #[test]
    fn relative_power_of_pure_tone_is_near_one() {
        let fs = 256.0;
        let window = tone(6.0, fs, 1024, 3.0);
        let rel = all_band_powers(&window, fs).unwrap().relative(Band::Theta);
        assert!(rel > 0.95);
    }

    #[test]
    fn relative_powers_sum_to_at_most_one() {
        let fs = 256.0;
        let mut window = tone(2.0, fs, 1024, 1.0);
        let t2 = tone(10.0, fs, 1024, 0.5);
        for (a, b) in window.iter_mut().zip(t2.iter()) {
            *a += b;
        }
        let bp = all_band_powers(&window, fs).unwrap();
        let sum: f64 = bp.relative.iter().sum();
        assert!(sum <= 1.0 + 1e-9);
        assert!(bp.total > 0.0);
    }

    #[test]
    fn accessors_are_consistent_with_arrays() {
        let fs = 256.0;
        let window = tone(6.0, fs, 512, 1.0);
        let bp = all_band_powers(&window, fs).unwrap();
        assert_eq!(bp.absolute(Band::Theta), bp.absolute[1]);
        assert_eq!(bp.relative(Band::Delta), bp.relative[0]);
    }

    #[test]
    fn empty_window_is_rejected() {
        assert!(all_band_powers(&[], 256.0).is_err());
    }

    #[test]
    fn zero_signal_has_zero_relative_power() {
        let bp = all_band_powers(&vec![0.0; 512], 256.0).unwrap();
        assert!(bp.relative.iter().all(|&r| r == 0.0));
    }

    /// The per-bin scan the bin-range sums replaced: one frequency division
    /// per bin, tested against every band, all six sums in one pass.
    fn per_bin_oracle(power: &[f64], fs: f64, window_len: usize) -> BandPowers {
        let resolution = fs / window_len as f64;
        let mut sums = [0.0; 5];
        let mut total_sum = 0.0;
        for (k, p) in power.iter().enumerate() {
            let f = k as f64 * fs / window_len as f64;
            total_sum += p;
            for (sum, band) in sums.iter_mut().zip(Band::ALL) {
                let (lo, hi) = band.range();
                if f >= lo && f <= hi {
                    *sum += p;
                }
            }
        }
        let total = total_sum * resolution;
        let absolute = sums.map(|s| s * resolution);
        let relative = absolute.map(|a| if total > 0.0 { a / total } else { 0.0 });
        BandPowers {
            absolute,
            relative,
            total,
        }
    }

    fn flat(b: &BandPowers) -> Vec<f64> {
        let mut all = b.absolute.to_vec();
        all.extend_from_slice(&b.relative);
        all.push(b.total);
        all
    }

    /// Folds `power` in lane 0 next to a different row of the same length
    /// in lane 1, then the two swapped, and checks each lane against the
    /// per-bin scan and against the one-spectrum fold, bit for bit.
    fn assert_same_bits(power: &[f64], fs: f64, window_len: usize, case: &str) {
        let partner: Vec<f64> = power.iter().rev().map(|p| 0.5 * p - 1.0).collect();
        for (lane_rows, lane) in [([power, &partner[..]], 0), ([&partner[..], power], 1)] {
            let actual = band_powers_from_bin_pair(lane_rows, fs, window_len).unwrap();
            for (row, got) in lane_rows.iter().zip(&actual) {
                for (oracle, expected) in [
                    ("the per-bin scan", per_bin_oracle(row, fs, window_len)),
                    (
                        "the one-spectrum fold",
                        band_powers_from_bins(row, fs, window_len),
                    ),
                ] {
                    for (slot, (a, e)) in flat(got).iter().zip(&flat(&expected)).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            e.to_bits(),
                            "{case} in lane {lane}, fs {fs}, window {window_len}, {} bins: \
                             output {slot} reads {a:e}, {oracle} {e:e}",
                            power.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn range_sums_match_the_per_bin_scan_bit_for_bit() {
        let mut state = 0x853C_49E6_748F_EA9B_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for fs in [64.0, 128.0, 173.5, 256.0] {
            for window_len in 1..=2048usize {
                let bins = window_len / 2 + 1;
                let mut power: Vec<f64> = (0..bins).map(|_| next() * 10.0).collect();
                assert_same_bits(&power, fs, window_len, "random bins");
                // Non-finite bins poison exactly the bands that hold them.
                if window_len % 7 == 3 {
                    power[bins / 2] = f64::NAN;
                    power[bins - 1] = f64::INFINITY;
                    power[bins / 3] = f64::NEG_INFINITY;
                    assert_same_bits(&power, fs, window_len, "NaN/inf bins");
                }
            }
            // Bin counts that do not follow from the window length (the
            // hop-averaged spectrum passes the hop length) and signed zeros.
            for (bins, window_len) in [(0, 256), (1, 256), (129, 64), (3, 1024), (65, 7)] {
                let power: Vec<f64> = (0..bins).map(|k| next() - 0.5 * k as f64).collect();
                assert_same_bits(&power, fs, window_len, "mismatched bin count");
                assert_same_bits(&vec![-0.0; bins], fs, window_len, "negative zeros");
            }
        }
        // An infinite fs puts bin 0 at NaN Hz and the rest at +inf Hz.
        assert_same_bits(&[1.0, 2.0, 3.0], f64::INFINITY, 4, "infinite fs");
    }

    #[test]
    fn bin_walk_finds_the_boundary_from_any_guess() {
        for boundary in 0..=9 {
            for guess in [-1.0, 0.0, 3.0, 7.9, 8.0, 100.0, f64::NAN, f64::INFINITY] {
                for from in [0, 2, 8] {
                    assert_eq!(
                        first_bin_where(from, 8, guess, |k| k >= boundary),
                        boundary.clamp(from, 8),
                        "boundary {boundary}, guess {guess}, from {from}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_band_without_bins_reads_positive_zero() {
        // At 16 Hz resolution no bin lands in delta, theta or alpha.
        let row = [-0.0, 2.0, 3.0];
        let [bp, _] = band_powers_from_bin_pair([&row, &row], 64.0, 4).unwrap();
        for band in [Band::Delta, Band::Theta, Band::Alpha] {
            assert_eq!(bp.absolute(band).to_bits(), 0.0_f64.to_bits(), "{band}");
            assert_eq!(bp.relative(band).to_bits(), 0.0_f64.to_bits(), "{band}");
        }
        assert_eq!(bp.absolute(Band::Beta), 2.0 * 16.0);
        assert_eq!(bp.absolute(Band::Gamma), 3.0 * 16.0);
    }

    #[test]
    fn bin_pair_rejects_bad_geometry_and_ragged_rows() {
        let row = [1.0, 2.0, 3.0];
        assert!(band_powers_from_bin_pair([&row, &row], 0.0, 4).is_err());
        assert!(band_powers_from_bin_pair([&row, &row], f64::NAN, 4).is_err());
        assert!(band_powers_from_bin_pair([&row, &row], 64.0, 0).is_err());
        assert!(band_powers_from_bin_pair([&row, &row[..2]], 64.0, 4).is_err());
    }
}
