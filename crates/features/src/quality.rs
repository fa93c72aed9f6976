//! Cheap per-window signal-quality indicators for artifact rejection.
//!
//! A wearable EEG front end sees railed amplifiers, dropped electrodes,
//! mains hum, baseline wander and electrode pops long before it sees a
//! seizure. This module computes a small set of O(n) indicators per sliding
//! window — no FFT, no wavelet decomposition — that a downstream quality
//! gate can threshold into `Clean / Suspect / Reject` verdicts:
//!
//! | indicator | catches |
//! |---|---|
//! | `line_length` | overall waveform activity (context for the others) |
//! | `railed_frac` | amplifier saturation / clipping (plus non-finite samples) |
//! | `flat_run_frac` | dropouts: longest run of identical samples |
//! | `hum_ratio` | mains interference at the aliased 50/60 Hz family |
//! | `drift_ratio` | baseline wander: sub-1 Hz + DC share of window energy |
//! | `max_jump_sigma` | electrode pops: largest step in robust-sigma units |
//! | `log_std` | per-channel amplitude envelope (feeds gain tracking) |
//!
//! plus one cross-channel feature, the absolute difference of the two
//! channels' `log_std` (a loose electrode makes one channel disagree wildly
//! with the other).
//!
//! All indicators are deterministic and guaranteed finite, including on
//! flatline, railed and NaN/∞-contaminated inputs: non-finite samples are
//! counted as railed and replaced by zero before any arithmetic.
//!
//! Mains bins are *aliased*: at the wearable's low sampling rates the
//! 50/60 Hz family folds below Nyquist (50 Hz → 14 Hz at fs = 64). Folded
//! bins that land below [`MIN_HUM_FREQ`] are skipped because they would
//! collide with the ictal fundamental band (≈ 2.5–12 Hz) — a documented
//! blind spot of the cheap detector, not a bug.

use crate::error::FeatureError;
use crate::extractor::SlidingWindowConfig;
use crate::matrix::FeatureMatrix;
use std::f64::consts::PI;

/// Number of per-channel indicators.
pub const QUALITY_FEATURES_PER_CHANNEL: usize = 7;
/// Total quality features per window (two channels plus one cross-channel).
pub const NUM_QUALITY_FEATURES: usize = 2 * QUALITY_FEATURES_PER_CHANNEL + 1;

/// Per-channel column offset of the line-length indicator.
pub const IDX_LINE_LENGTH: usize = 0;
/// Per-channel column offset of the railed-sample fraction.
pub const IDX_RAILED_FRAC: usize = 1;
/// Per-channel column offset of the longest flat-run fraction.
pub const IDX_FLAT_RUN_FRAC: usize = 2;
/// Per-channel column offset of the aliased mains-hum energy ratio.
pub const IDX_HUM_RATIO: usize = 3;
/// Per-channel column offset of the baseline-drift energy ratio.
pub const IDX_DRIFT_RATIO: usize = 4;
/// Per-channel column offset of the largest sample step in robust sigmas.
pub const IDX_MAX_JUMP_SIGMA: usize = 5;
/// Per-channel column offset of the log standard deviation.
pub const IDX_LOG_STD: usize = 6;
/// Column of the cross-channel log-amplitude disagreement.
pub const IDX_DISAGREEMENT: usize = NUM_QUALITY_FEATURES - 1;

/// Folded mains bins below this frequency are skipped: they would overlap
/// the ictal fundamental band and its first harmonics.
pub const MIN_HUM_FREQ: f64 = 12.0;

/// Mains fundamentals and first harmonics probed (before aliasing).
const MAINS_FAMILY: [f64; 4] = [50.0, 60.0, 100.0, 120.0];

/// Column of `indicator` (an `IDX_*` per-channel offset) for `channel`
/// (0 = F7T3, 1 = F8T4) in the quality feature matrix.
#[must_use]
pub fn channel_column(channel: usize, indicator: usize) -> usize {
    channel * QUALITY_FEATURES_PER_CHANNEL + indicator
}

/// Folds a frequency below Nyquist (classic aliasing map).
fn fold(freq: f64, fs: f64) -> f64 {
    let r = freq % fs;
    if r > fs / 2.0 {
        fs - r
    } else {
        r
    }
}

/// Drift bins probed per window: the lowest three DFT bins.
const DRIFT_BINS: usize = 3;

/// Lanes of the interleaved Goertzel bank: every mains bin with its two
/// sharpness neighbours plus the drift bins, rounded up to a whole number of
/// vector registers.
const GOERTZEL_LANES: usize = 16;
const _: () = assert!(3 * MAINS_FAMILY.len() + DRIFT_BINS <= GOERTZEL_LANES);

/// Interleaved Goertzel bank: one lane per probed frequency, all stepped by
/// the same sample. Each lane runs the classic `v + coeff·s1 − s2`
/// recurrence; the lanes are independent, so a step is one vectorizable
/// block instead of one serial dependency chain per frequency. Spare lanes
/// idle on a zero coefficient and are never read.
struct GoertzelBank {
    coeff: [f64; GOERTZEL_LANES],
    s1: [f64; GOERTZEL_LANES],
    s2: [f64; GOERTZEL_LANES],
    lanes: usize,
}

impl GoertzelBank {
    fn new() -> Self {
        Self {
            coeff: [0.0; GOERTZEL_LANES],
            s1: [0.0; GOERTZEL_LANES],
            s2: [0.0; GOERTZEL_LANES],
            lanes: 0,
        }
    }

    /// Adds the next lane, probing `freq` Hz.
    fn probe(&mut self, freq: f64, fs: f64) {
        self.coeff[self.lanes] = 2.0 * (2.0 * PI * freq / fs).cos();
        self.lanes += 1;
    }

    fn step(&mut self, v: f64) {
        for lane in 0..GOERTZEL_LANES {
            let s0 = v + self.coeff[lane] * self.s1[lane] - self.s2[lane];
            self.s2[lane] = self.s1[lane];
            self.s1[lane] = s0;
        }
    }

    /// Squared DFT magnitude of the samples stepped so far at `lane`.
    fn power(&self, lane: usize) -> f64 {
        let (s1, s2, coeff) = (self.s1[lane], self.s2[lane], self.coeff[lane]);
        (s1 * s1 + s2 * s2 - coeff * s1 * s2).max(0.0)
    }
}

/// Reusable buffers for one window's worth of quality arithmetic. Acquire
/// one per worker (or per streaming detector) and hand it to
/// [`QualityExtractor::assess_window_into`] so repeated assessments stay
/// allocation-free after warm-up.
#[derive(Debug, Default)]
pub struct QualityScratch {
    cleaned: Vec<f64>,
    diffs: Vec<f64>,
}

/// Computes the per-window quality indicator matrix for a channel pair.
///
/// Construction pre-resolves which aliased mains bins are observable at the
/// given sampling rate; everything else is stateless.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityExtractor {
    fs: f64,
    hum_bins: Vec<f64>,
}

impl QualityExtractor {
    /// Creates the extractor for signals sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not a positive
    /// finite number.
    pub fn new(fs: f64) -> Result<Self, FeatureError> {
        if !(fs.is_finite() && fs > 0.0) {
            return Err(FeatureError::InvalidConfig {
                name: "fs",
                reason: format!("sampling frequency must be positive and finite, got {fs}"),
            });
        }
        let mut hum_bins: Vec<f64> = Vec::new();
        for f in MAINS_FAMILY {
            let alias = fold(f, fs);
            // Keep bins clear of the seizure band and of Nyquist (their ±2 Hz
            // sharpness neighbours must also stay inside (0, fs/2)).
            if alias >= MIN_HUM_FREQ
                && alias + 2.0 < fs / 2.0
                && !hum_bins.iter().any(|&b| (b - alias).abs() < 1e-9)
            {
                hum_bins.push(alias);
            }
        }
        Ok(Self { fs, hum_bins })
    }

    /// Sampling frequency the extractor was built for.
    #[must_use]
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Aliased mains bins (Hz) actually probed at this sampling rate.
    #[must_use]
    pub fn hum_bins(&self) -> &[f64] {
        &self.hum_bins
    }

    /// Names of the produced quality features, in column order.
    #[must_use]
    pub fn feature_names() -> Vec<String> {
        let per_channel = [
            "line_length",
            "railed_frac",
            "flat_run_frac",
            "hum_ratio",
            "drift_ratio",
            "max_jump_sigma",
            "log_std",
        ];
        let mut names: Vec<String> = Vec::with_capacity(NUM_QUALITY_FEATURES);
        for prefix in ["f7t3", "f8t4"] {
            for name in per_channel {
                names.push(format!("quality_{prefix}_{name}"));
            }
        }
        names.push("quality_cross_channel_disagreement".to_string());
        names
    }

    /// Quality indicators of a single window pair as a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] on unequal channels
    /// and [`FeatureError::SignalTooShort`] for windows of fewer than four
    /// samples.
    pub fn assess_window(&self, f7t3: &[f64], f8t4: &[f64]) -> Result<Vec<f64>, FeatureError> {
        let mut out = vec![0.0; NUM_QUALITY_FEATURES];
        let mut scratch = QualityScratch::default();
        self.assess_window_into(f7t3, f8t4, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Fills the quality feature matrix for every sliding window of the
    /// channel pair, reusing `matrix`'s allocation across calls.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::extractor::FeatureExtractor::extract_matrix`].
    pub fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        let count = config.num_windows(f7t3.len());
        if count == 0 {
            return Err(FeatureError::SignalTooShort {
                actual: f7t3.len(),
                required: config.window_samples(),
            });
        }
        matrix.ensure_names(Self::feature_names);
        let data = matrix.reset_rows(count);
        let mut scratch = QualityScratch::default();
        for ((row, w1), w2) in data
            .chunks_mut(NUM_QUALITY_FEATURES)
            .zip(config.windows(f7t3))
            .zip(config.windows(f8t4))
        {
            self.assess_window_into(w1, w2, row, &mut scratch)?;
        }
        Ok(())
    }

    /// Assesses one window pair into a caller-provided row of
    /// [`NUM_QUALITY_FEATURES`] slots, reusing `scratch` buffers — the
    /// single-window building block behind
    /// [`QualityExtractor::extract_batch_into`], exposed so streaming
    /// callers can grade windows as they complete without a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the windows differ
    /// in length and [`FeatureError::SignalTooShort`] below four samples.
    // lint: hot-path
    pub fn assess_window_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        out: &mut [f64],
        scratch: &mut QualityScratch,
    ) -> Result<(), FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        debug_assert_eq!(out.len(), NUM_QUALITY_FEATURES);
        self.channel_into(f7t3, &mut out[..QUALITY_FEATURES_PER_CHANNEL], scratch)?;
        self.channel_into(
            f8t4,
            &mut out[QUALITY_FEATURES_PER_CHANNEL..2 * QUALITY_FEATURES_PER_CHANNEL],
            scratch,
        )?;
        let log_a = out[channel_column(0, IDX_LOG_STD)];
        let log_b = out[channel_column(1, IDX_LOG_STD)];
        out[IDX_DISAGREEMENT] = (log_a - log_b).abs();
        Ok(())
    }

    /// The per-channel kernel: two sweeps over the window.
    ///
    /// Sweep 1 reads the raw samples once for the finite-extrema census,
    /// the longest flat run, the sanitized copy and the sum and energy
    /// folds. Sweep 2 reads the sanitized copy once to remove the mean, fold
    /// the AC energy, fill the first differences (line length, max step),
    /// count railed samples and step one interleaved Goertzel bank holding
    /// every probed frequency. The median step comes from O(n) selection.
    ///
    /// Every indicator is bit-identical to evaluating each statistic in a
    /// pass of its own: each fold keeps its sequential left-to-right order
    /// and `Iterator::sum`'s `-0.0` start, and each Goertzel lane runs the
    /// unchanged `v + coeff * s1 - s2` recurrence.
    // lint: hot-path
    fn channel_into(
        &self,
        raw: &[f64],
        out: &mut [f64],
        scratch: &mut QualityScratch,
    ) -> Result<(), FeatureError> {
        let n = raw.len();
        if n < 4 {
            return Err(FeatureError::SignalTooShort {
                actual: n,
                required: 4,
            });
        }
        let nf = n as f64;

        // Sweep 1 over the raw samples.
        let mut non_finite = 0usize;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        // Longest run of repeated samples (non-finite values count as equal
        // to each other: a dead channel full of NaN is one long dropout). The
        // first sample compares equal to itself, which starts the run at 1.
        let mut longest = 1usize;
        let mut run = 0usize;
        let mut prev = raw[0];
        let mut sum = -0.0_f64;
        let mut total_energy = -0.0_f64;
        // Sanitized copy: all downstream arithmetic sees finite samples.
        let cleaned = &mut scratch.cleaned;
        cleaned.clear();
        cleaned.extend(raw.iter().map(|&v| {
            let finite = v.is_finite();
            let same = v == prev || (!finite && !prev.is_finite());
            run = if same { run + 1 } else { 1 };
            longest = longest.max(run);
            prev = v;
            let c = if finite {
                lo = lo.min(v);
                hi = hi.max(v);
                v
            } else {
                non_finite += 1;
                0.0
            };
            sum += c;
            total_energy += c * c;
            c
        }));
        let flat_run = longest as f64 / nf;
        let mean = sum / nf;

        // Sweep 2 over the sanitized samples. The bank probes each hum bin
        // with its ±2 Hz sharpness neighbours (three consecutive lanes per
        // bin), then the drift bins.
        let mut bank = GoertzelBank::new();
        for &bin in &self.hum_bins {
            for freq in [bin, bin - 2.0, bin + 2.0] {
                bank.probe(freq, self.fs);
            }
        }
        let hum_lanes = bank.lanes;
        for k in 1..=DRIFT_BINS {
            let freq = k as f64 * self.fs / nf;
            if freq < self.fs / 2.0 {
                bank.probe(freq, self.fs);
            }
        }
        let mut ac_energy = -0.0_f64;
        let mut line_sum = -0.0_f64;
        let mut max_step = 0.0_f64;
        // Railed samples are pinned to either finite rail; they are counted
        // on `raw` because a sanitized 0.0 may coincide with a rail.
        let mut pinned = 0usize;
        let diffs = &mut scratch.diffs;
        diffs.clear();
        diffs.resize(n - 1, 0.0);
        let (head, tail) = cleaned.split_at_mut(1);
        head[0] -= mean;
        let mut prev = head[0];
        ac_energy += prev * prev;
        pinned += usize::from(raw[0] == lo || raw[0] == hi);
        bank.step(prev);
        for ((c, &r), d) in tail.iter_mut().zip(&raw[1..]).zip(diffs.iter_mut()) {
            *c -= mean;
            let x = *c;
            ac_energy += x * x;
            let step = (x - prev).abs();
            *d = step;
            line_sum += step;
            max_step = max_step.max(step);
            prev = x;
            pinned += usize::from(r == lo || r == hi);
            bank.step(x);
        }

        // Railed fraction: samples pinned to either finite rail, plus every
        // non-finite sample (an overflowed ADC reads as railed, not absent).
        let railed = if hi > lo {
            ((pinned + non_finite) as f64 / nf).min(1.0)
        } else {
            (non_finite as f64 / nf).min(1.0)
        };

        let std = (ac_energy / nf).sqrt();
        let log_std = (std + 1e-12).ln();

        // Line length and step statistics over first differences.
        let line_length = line_sum / (nf - 1.0);
        // Selection puts the element a full sort would place at `len / 2`
        // there, so the median is the same value bit for bit. `total_cmp`
        // instead of `partial_cmp().expect(...)`: the diffs are built from
        // the sanitized copy so they are finite today, but a NaN must never
        // be able to panic the quality front end that exists to absorb
        // hostile inputs.
        let mid = diffs.len() / 2;
        let (_, &mut median_step, _) = diffs.select_nth_unstable_by(mid, f64::total_cmp);
        let max_jump = (max_step / (1.4826 * median_step + 1e-12)).min(1e6);

        // Aliased mains hum: tone-energy fraction at each observable folded
        // bin, weighted by spectral sharpness against ±2 Hz neighbours so
        // broadband (or ictal) energy cannot trip it.
        let tone_norm = 2.0 / (nf * ac_energy + 1e-12);
        let mut hum: f64 = 0.0;
        for lane in (0..hum_lanes).step_by(3) {
            let p = bank.power(lane);
            let p_lo = bank.power(lane + 1);
            let p_hi = bank.power(lane + 2);
            let sharpness = p / (p + p_lo + p_hi + 1e-12);
            // A pure tone scores sharpness ≈ 1, broadband noise ≈ 1/3.
            let weight = ((sharpness - 1.0 / 3.0) / (2.0 / 3.0)).clamp(0.0, 1.0);
            hum = hum.max((p * tone_norm).min(1.0) * weight);
        }

        // Baseline drift: DC offset plus the lowest three DFT bins of the
        // window (k / window_secs for k = 1..3, i.e. < 1 Hz for 4 s windows)
        // as a share of total window energy.
        let mut drift_energy = nf * mean * mean;
        for lane in hum_lanes..bank.lanes {
            drift_energy += bank.power(lane) * 2.0 / nf;
        }
        let drift = (drift_energy / (total_energy + 1e-12)).clamp(0.0, 1.0);

        out[IDX_LINE_LENGTH] = line_length;
        out[IDX_RAILED_FRAC] = railed;
        out[IDX_FLAT_RUN_FRAC] = flat_run;
        out[IDX_HUM_RATIO] = hum;
        out[IDX_DRIFT_RATIO] = drift;
        out[IDX_MAX_JUMP_SIGMA] = max_jump;
        out[IDX_LOG_STD] = log_std;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(fs: f64, freq: f64, amp: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn noise(seed: u64, n: usize) -> Vec<f64> {
        // Tiny deterministic LCG; good enough for indicator-level tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn names_match_layout() {
        let names = QualityExtractor::feature_names();
        assert_eq!(names.len(), NUM_QUALITY_FEATURES);
        assert_eq!(
            names[channel_column(0, IDX_HUM_RATIO)],
            "quality_f7t3_hum_ratio"
        );
        assert_eq!(
            names[channel_column(1, IDX_LOG_STD)],
            "quality_f8t4_log_std"
        );
        assert_eq!(
            names[IDX_DISAGREEMENT],
            "quality_cross_channel_disagreement"
        );
    }

    #[test]
    fn aliased_bins_skip_the_seizure_band() {
        // At 64 Hz: 50 → 14 and 100 → 28 are kept; 60 → 4 and 120 → 8 fold
        // into the ictal band and are skipped.
        let q = QualityExtractor::new(64.0).unwrap();
        assert_eq!(q.hum_bins(), &[14.0, 28.0]);
        // At 256 Hz nothing folds and everything is observable.
        let q = QualityExtractor::new(256.0).unwrap();
        assert_eq!(q.hum_bins(), &[50.0, 60.0, 100.0, 120.0]);
    }

    #[test]
    fn indicators_are_deterministic() {
        let q = QualityExtractor::new(64.0).unwrap();
        let a = noise(7, 256);
        let b = noise(9, 256);
        assert_eq!(
            q.assess_window(&a, &b).unwrap(),
            q.assess_window(&a, &b).unwrap()
        );
    }

    #[test]
    fn nan_laced_window_yields_finite_deterministic_indicators() {
        // Regression for the NaN-unsafe median-step sort: indicators must
        // come out finite and reproducible even when the raw window carries
        // NaN/±inf samples (they are sanitized to 0 before any arithmetic).
        let q = QualityExtractor::new(64.0).unwrap();
        let mut a = noise(11, 256);
        a[3] = f64::NAN;
        a[100] = f64::INFINITY;
        a[200] = f64::NEG_INFINITY;
        let b = noise(13, 256);
        let first = q.assess_window(&a, &b).unwrap();
        assert!(first.iter().all(|v| v.is_finite()), "{first:?}");
        assert_eq!(first, q.assess_window(&a, &b).unwrap());
    }

    #[test]
    fn hum_is_detected_and_clean_noise_is_not() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let clean = noise(3, n);
        let mut hummy = clean.clone();
        for (i, v) in hummy.iter_mut().enumerate() {
            // 50 Hz sampled at 64 Hz lands on the 14 Hz alias.
            *v += 2.0 * (2.0 * PI * 50.0 * i as f64 / 64.0).sin();
        }
        let base = q.assess_window(&clean, &clean).unwrap();
        let hum = q.assess_window(&hummy, &hummy).unwrap();
        assert!(base[IDX_HUM_RATIO] < 0.1, "clean {}", base[IDX_HUM_RATIO]);
        assert!(hum[IDX_HUM_RATIO] > 0.5, "hum {}", hum[IDX_HUM_RATIO]);
    }

    #[test]
    fn drift_is_detected() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let mut wander = noise(5, n);
        let slow = sine(64.0, 0.4, 6.0, n);
        for (v, s) in wander.iter_mut().zip(&slow) {
            *v += s;
        }
        let clean = q.assess_window(&noise(5, n), &noise(6, n)).unwrap();
        let drifted = q.assess_window(&wander, &wander).unwrap();
        assert!(drifted[IDX_DRIFT_RATIO] > 0.8);
        assert!(clean[IDX_DRIFT_RATIO] < drifted[IDX_DRIFT_RATIO]);
    }

    #[test]
    fn hostile_inputs_stay_finite_and_deterministic() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let flat = vec![3.25; n];
        let mut railed = noise(1, n);
        for v in railed.iter_mut() {
            *v = v.clamp(-0.1, 0.1);
        }
        let mut nans = noise(2, n);
        for v in nans.iter_mut().step_by(5) {
            *v = f64::NAN;
        }
        nans[17] = f64::INFINITY;
        nans[42] = f64::NEG_INFINITY;
        let all_nan = vec![f64::NAN; n];
        let zeros = vec![0.0; n];

        for (a, b) in [
            (&flat, &zeros),
            (&railed, &flat),
            (&nans, &railed),
            (&all_nan, &all_nan),
        ] {
            let row = q.assess_window(a, b).unwrap();
            assert_eq!(row.len(), NUM_QUALITY_FEATURES);
            assert!(row.iter().all(|v| v.is_finite()), "{row:?}");
            assert_eq!(row, q.assess_window(a, b).unwrap());
        }

        let flat_row = q.assess_window(&flat, &flat).unwrap();
        assert!(flat_row[IDX_FLAT_RUN_FRAC] > 0.99);
        let rail_row = q.assess_window(&railed, &railed).unwrap();
        assert!(
            rail_row[IDX_RAILED_FRAC] > 0.3,
            "{}",
            rail_row[IDX_RAILED_FRAC]
        );
        let nan_row = q.assess_window(&all_nan, &all_nan).unwrap();
        assert!(nan_row[IDX_RAILED_FRAC] > 0.99);
        assert!(nan_row[IDX_FLAT_RUN_FRAC] > 0.99);
    }

    #[test]
    fn electrode_pop_spikes_the_jump_indicator() {
        let q = QualityExtractor::new(64.0).unwrap();
        let mut popped = noise(11, 256);
        let rms = (popped.iter().map(|v| v * v).sum::<f64>() / 256.0).sqrt();
        for v in popped.iter_mut().skip(100) {
            *v += 12.0 * rms;
        }
        let clean = q.assess_window(&noise(11, 256), &noise(12, 256)).unwrap();
        let pop = q.assess_window(&popped, &popped).unwrap();
        assert!(pop[IDX_MAX_JUMP_SIGMA] > 3.0 * clean[IDX_MAX_JUMP_SIGMA]);
    }

    #[test]
    fn disagreement_tracks_amplitude_mismatch() {
        let q = QualityExtractor::new(64.0).unwrap();
        let a = noise(21, 256);
        let big: Vec<f64> = a.iter().map(|v| v * 40.0).collect();
        let same = q.assess_window(&a, &a).unwrap();
        let differ = q.assess_window(&a, &big).unwrap();
        assert!(same[IDX_DISAGREEMENT] < 1e-9);
        assert!((differ[IDX_DISAGREEMENT] - 40.0_f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn batch_fill_matches_single_window_and_reuses_the_matrix() {
        let q = QualityExtractor::new(64.0).unwrap();
        let config = SlidingWindowConfig::new(64.0, 4.0, 0.75).unwrap();
        let a = noise(31, 64 * 20);
        let b = noise(32, 64 * 20);
        let mut matrix = FeatureMatrix::with_names(QualityExtractor::feature_names());
        q.extract_batch_into(&a, &b, &config, &mut matrix).unwrap();
        assert_eq!(matrix.num_features(), NUM_QUALITY_FEATURES);
        assert_eq!(matrix.num_windows(), config.num_windows(a.len()));
        let w = config.window_samples();
        let step = config.step_samples();
        for i in [0usize, 3, matrix.num_windows() - 1] {
            let s = i * step;
            let row = q.assess_window(&a[s..s + w], &b[s..s + w]).unwrap();
            assert_eq!(matrix.row(i), row.as_slice());
        }
        // Refill with a shorter signal: the matrix shrinks accordingly.
        q.extract_batch_into(&a[..64 * 8], &b[..64 * 8], &config, &mut matrix)
            .unwrap();
        assert_eq!(matrix.num_windows(), config.num_windows(64 * 8));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(QualityExtractor::new(0.0).is_err());
        assert!(QualityExtractor::new(f64::NAN).is_err());
        let q = QualityExtractor::new(64.0).unwrap();
        assert!(q.assess_window(&[1.0; 8], &[1.0; 9]).is_err());
        assert!(q.assess_window(&[1.0; 2], &[1.0; 2]).is_err());
    }
}
