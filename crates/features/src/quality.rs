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
//! # One definition: hop summaries merged per window
//!
//! Windows overlap: a 4 s window advances by a 1 s step, so every sample
//! sits in four windows. The indicators are therefore *defined* through
//! per-hop summaries. A hop is the window step, and a window holds
//! `k = window / step` hops. [`QualityGrader`] summarizes each hop of each
//! channel once, in two sweeps over its samples. When a window completes,
//! it merges the window's `k` summaries into the 15-indicator row:
//!
//! * **Exact merges.** The non-finite count, the railed count (the finite
//!   extrema carry the count of samples at each, and only hops whose
//!   extremum is the window's contribute), the flat runs (each hop's
//!   prefix, suffix and longest run, joined across hop boundaries) and the
//!   maximum step.
//! * **Moments.** The mean and AC energy use Chan's pairwise update; the
//!   raw energy and the step sum add up per hop.
//! * **Goertzel.** Each probed lane keeps the hop's partial DFT `P_h` over
//!   the hop's mean-removed samples. The window's DFT is
//!   `Σ_h e^{−jωhL}·(P_h + (m_h − m)·D_L(ω))`, with `L` the hop length,
//!   `m_h` and `m` the hop and window means and
//!   `D_L(ω) = Σ_{n<L} e^{−jωn}`. The rotations and `D_L` are constants of
//!   the geometry.
//! * **Median step.** One selection over the window's internal steps and
//!   its `k − 1` boundary steps: exact.
//!
//! Both engines run this definition. The streaming detector pushes each hop
//! into a [`QualityGrader`] as it is buffered. The record-level batch
//! ([`QualityExtractor::extract_batch_into`]) drives one grader per worker
//! over its block of windows, after `k − 1` warm-up hops, so batch rows equal
//! a one-thread streamed pass bit for bit. Both refuse the geometries
//! [`SlidingWindowConfig::check_streamable`] refuses, as the streaming
//! detector does. A standalone window
//! ([`QualityExtractor::assess_window_into`]) is graded as one hop.
//!
//! # Error model
//!
//! The reference formulation computes each statistic in a pass of its own
//! over the whole window, with the window mean removed before differencing
//! and before the Goertzel recurrences. Against it:
//!
//! * `railed_frac` and `flat_run_frac` are bit-exact (integer counts).
//! * A one-hop grade removes the same mean, so its line length, max jump and
//!   log std are bit-exact too. Hum and drift differ by rounding, because
//!   the window power is `|X|²` of the complex DFT instead of the real
//!   `s1² + s2² − 2cos ω·s1·s2`.
//! * With `k > 1` hops every indicator but those two counts moves by
//!   floating-point re-association only: the steps and Goertzel lanes see
//!   hop means instead of the window mean, the moments are Chan-merged and
//!   the DFT is summed from rotated partials.
//!
//! `tests/quality_kernel.rs` keeps the reference as an oracle and pins each
//! indicator's bound, plus identical gate verdicts, across rates, lengths,
//! random records, every hostile scenario and degenerate windows.
//!
//! # Finiteness
//!
//! Non-finite samples are counted as railed and replaced by zero before any
//! arithmetic, so every indicator is deterministic, and finite whenever the
//! squares of the samples stay finite (|x| below about 1e154). The grader
//! does not rescale: on larger samples the energy folds overflow and some
//! indicators come out ∞ or NaN. The quality gate reads any non-finite
//! indicator as beyond its reject threshold.
//!
//! Mains bins are *aliased*: at the wearable's low sampling rates the
//! 50/60 Hz family folds below Nyquist (50 Hz → 14 Hz at fs = 64). Folded
//! bins that land below [`MIN_HUM_FREQ`] are skipped because they would
//! collide with the ictal fundamental band (≈ 2.5–12 Hz) — a documented
//! blind spot of the cheap detector, not a bug.

use crate::error::FeatureError;
use crate::extractor::{check_rate, SlidingWindowConfig};
use crate::matrix::FeatureMatrix;
use crate::streaming::{stream_rows_into, HopEngine};
use std::f64::consts::PI;
use std::sync::OnceLock;

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
/// vector registers. Spare lanes idle on zero constants and are never read.
const GOERTZEL_LANES: usize = 16;
const _: () = assert!(3 * MAINS_FAMILY.len() + DRIFT_BINS <= GOERTZEL_LANES);

/// A non-finite sample grades as zero in every arithmetic indicator.
fn sanitize(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Flat-run equality: non-finite values count as equal to each other (a
/// dead channel full of NaN is one long dropout).
fn same(a: f64, b: f64) -> bool {
    a == b || (!a.is_finite() && !b.is_finite())
}

/// `e^{−j2π·turns}` as `(re, im)`. The angle is reduced to the nearest whole
/// turn first, so whole cycles come out as exactly `1`.
fn phasor(turns: f64) -> (f64, f64) {
    let angle = 2.0 * PI * (turns - turns.round());
    (angle.cos(), -angle.sin())
}

/// Constants of one grading geometry: the segment layout and, per probed
/// lane, the Goertzel coefficient and the phase factors that place a hop's
/// partial DFT in its window.
#[derive(Debug, Clone)]
struct HopPlan {
    fs: f64,
    /// Window length in samples.
    window: usize,
    /// Hop length in samples; divides `window`.
    hop: usize,
    /// Lanes in use: three per hum bin (the bin, then its −2 Hz and +2 Hz
    /// sharpness neighbours), then the drift bins.
    lanes: usize,
    /// Leading lanes that probe hum bins.
    hum_lanes: usize,
    /// Goertzel coefficient `2 cos ω`.
    coeff: [f64; GOERTZEL_LANES],
    /// `e^{−jω}`.
    unit_re: [f64; GOERTZEL_LANES],
    unit_im: [f64; GOERTZEL_LANES],
    /// `e^{−jω(L−1)}`: turns the final Goertzel state into the hop's DFT.
    tail_re: [f64; GOERTZEL_LANES],
    tail_im: [f64; GOERTZEL_LANES],
    /// `D_L(ω) = Σ_{n<L} e^{−jωn}`: the DFT of a unit offset over one hop.
    dirichlet_re: [f64; GOERTZEL_LANES],
    dirichlet_im: [f64; GOERTZEL_LANES],
    /// `e^{−jωpL}` for the hop at window position `p`, at
    /// `[p * GOERTZEL_LANES + lane]`.
    rot_re: Vec<f64>,
    rot_im: Vec<f64>,
}

impl HopPlan {
    /// The plan for `window`-sample windows made of `hop`-sample hops of a
    /// signal sampled at `fs` Hz, probing `hum_bins`.
    fn new(fs: f64, hum_bins: &[f64], window: usize, hop: usize) -> Self {
        let mut freqs = [0.0; GOERTZEL_LANES];
        let mut lanes = 0;
        for &bin in hum_bins {
            for freq in [bin, bin - 2.0, bin + 2.0] {
                freqs[lanes] = freq;
                lanes += 1;
            }
        }
        let hum_lanes = lanes;
        for k in 1..=DRIFT_BINS {
            let freq = k as f64 * fs / window as f64;
            if freq < fs / 2.0 {
                freqs[lanes] = freq;
                lanes += 1;
            }
        }
        let hops = window / hop;
        let len = hop as f64;
        let mut plan = Self {
            fs,
            window,
            hop,
            lanes,
            hum_lanes,
            coeff: [0.0; GOERTZEL_LANES],
            unit_re: [0.0; GOERTZEL_LANES],
            unit_im: [0.0; GOERTZEL_LANES],
            tail_re: [0.0; GOERTZEL_LANES],
            tail_im: [0.0; GOERTZEL_LANES],
            dirichlet_re: [0.0; GOERTZEL_LANES],
            dirichlet_im: [0.0; GOERTZEL_LANES],
            rot_re: vec![0.0; hops * GOERTZEL_LANES],
            rot_im: vec![0.0; hops * GOERTZEL_LANES],
        };
        for (lane, &freq) in freqs.iter().enumerate().take(lanes) {
            let omega = 2.0 * PI * freq / fs;
            plan.coeff[lane] = 2.0 * omega.cos();
            (plan.unit_re[lane], plan.unit_im[lane]) = (omega.cos(), -omega.sin());
            let cycles = freq / fs;
            (plan.tail_re[lane], plan.tail_im[lane]) = phasor(cycles * (len - 1.0));
            // Dirichlet kernel: D_L = e^{−jω(L−1)/2}·sin(ωL/2)/sin(ω/2); the
            // lanes sit strictly inside (0, fs/2), so sin(ω/2) > 0.
            let half = cycles * len / 2.0;
            let gain = (2.0 * PI * (half - half.round())).sin() / (omega / 2.0).sin();
            let (re, im) = phasor(cycles * (len - 1.0) / 2.0);
            (plan.dirichlet_re[lane], plan.dirichlet_im[lane]) = (gain * re, gain * im);
            for p in 0..hops {
                let at = p * GOERTZEL_LANES + lane;
                (plan.rot_re[at], plan.rot_im[at]) = phasor(cycles * (p * hop) as f64);
            }
        }
        plan
    }
}

/// Interleaved Goertzel bank: one lane per probed frequency, all stepped by
/// the same sample. Each lane runs the classic `v + coeff·s1 − s2`
/// recurrence; the lanes are independent, so a step is one vectorizable
/// block instead of one serial dependency chain per frequency.
struct GoertzelBank {
    coeff: [f64; GOERTZEL_LANES],
    s1: [f64; GOERTZEL_LANES],
    s2: [f64; GOERTZEL_LANES],
}

impl GoertzelBank {
    fn new(coeff: [f64; GOERTZEL_LANES]) -> Self {
        Self {
            coeff,
            s1: [0.0; GOERTZEL_LANES],
            s2: [0.0; GOERTZEL_LANES],
        }
    }

    fn step(&mut self, v: f64) {
        for lane in 0..GOERTZEL_LANES {
            let s0 = v + self.coeff[lane] * self.s1[lane] - self.s2[lane];
            self.s2[lane] = self.s1[lane];
            self.s1[lane] = s0;
        }
    }
}

/// Everything one hop of one channel contributes to the windows that cover
/// it (the hop's internal steps are kept next to it, in the grader's step
/// ring).
#[derive(Debug, Clone, Copy)]
struct HopSummary {
    /// Finite minimum and maximum (`+∞` / `−∞` without a finite sample).
    lo: f64,
    hi: f64,
    /// First and last raw samples (flat-run joins and boundary steps).
    first: f64,
    last: f64,
    /// Mean, central M2 and raw energy `Σc²` of the sanitized samples.
    mean: f64,
    m2: f64,
    energy: f64,
    /// Sum and maximum of the internal steps.
    line_sum: f64,
    max_step: f64,
    /// Partial DFT per lane over the hop's mean-removed samples.
    partial_re: [f64; GOERTZEL_LANES],
    partial_im: [f64; GOERTZEL_LANES],
    /// Non-finite samples.
    non_finite: u32,
    /// Samples equal to `lo` and to `hi`.
    at_lo: u32,
    at_hi: u32,
    /// Lengths of the hop's first, last and longest flat runs.
    flat_prefix: u32,
    flat_suffix: u32,
    flat_longest: u32,
}

impl HopSummary {
    const EMPTY: Self = Self {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
        first: 0.0,
        last: 0.0,
        mean: 0.0,
        m2: 0.0,
        energy: 0.0,
        line_sum: 0.0,
        max_step: 0.0,
        partial_re: [0.0; GOERTZEL_LANES],
        partial_im: [0.0; GOERTZEL_LANES],
        non_finite: 0,
        at_lo: 0,
        at_hi: 0,
        flat_prefix: 0,
        flat_suffix: 0,
        flat_longest: 0,
    };

    /// Summarizes one hop of raw samples in two sweeps and writes its
    /// `raw.len() − 1` internal steps into `steps`.
    ///
    /// Sweep 1 reads the raw samples for the finite extrema, the non-finite
    /// count, the flat runs and the sum and energy folds. Sweep 2 reads them
    /// again, sanitized and with the hop mean removed, for the AC energy, the
    /// steps, the counts at both extrema and one step of the Goertzel bank.
    /// Each fold keeps its left-to-right order and `Iterator::sum`'s `-0.0`
    /// start, so a one-hop window reproduces the one-pass-per-statistic
    /// formulation in everything but the Goertzel power.
    // lint: hot-path
    fn summarize(plan: &HopPlan, raw: &[f64], steps: &mut [u64]) -> Self {
        debug_assert_eq!(steps.len() + 1, raw.len());
        let mut non_finite = 0u32;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        // The first sample compares equal to itself, which starts the first
        // run at 1; the prefix grows while every sample repeats the first.
        let mut prev = raw[0];
        let mut run = 0u32;
        let mut longest = 0u32;
        let mut prefix = 0u32;
        let mut in_prefix = true;
        let mut sum = -0.0_f64;
        let mut energy = -0.0_f64;
        for &v in raw {
            let repeat = same(v, prev);
            run = if repeat { run + 1 } else { 1 };
            longest = longest.max(run);
            in_prefix &= repeat;
            prefix += u32::from(in_prefix);
            prev = v;
            let c = if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
                v
            } else {
                non_finite += 1;
                0.0
            };
            sum += c;
            energy += c * c;
        }
        let mean = sum / raw.len() as f64;

        let mut bank = GoertzelBank::new(plan.coeff);
        let mut m2 = -0.0_f64;
        let mut line_sum = -0.0_f64;
        let mut max_step = 0.0_f64;
        let head = sanitize(raw[0]) - mean;
        m2 += head * head;
        let mut at_lo = u32::from(raw[0] == lo);
        let mut at_hi = u32::from(raw[0] == hi);
        bank.step(head);
        let mut prev = head;
        for (&v, s) in raw[1..].iter().zip(steps.iter_mut()) {
            let y = sanitize(v) - mean;
            m2 += y * y;
            let step = (y - prev).abs();
            *s = step.to_bits();
            line_sum += step;
            max_step = max_step.max(step);
            prev = y;
            at_lo += u32::from(v == lo);
            at_hi += u32::from(v == hi);
            bank.step(y);
        }

        // The Goertzel output s1 − e^{−jω}·s2 is e^{jω(L−1)} times the DFT.
        let mut partial_re = [0.0; GOERTZEL_LANES];
        let mut partial_im = [0.0; GOERTZEL_LANES];
        for lane in 0..GOERTZEL_LANES {
            let (s1, s2) = (bank.s1[lane], bank.s2[lane]);
            let t_re = s1 - plan.unit_re[lane] * s2;
            let t_im = -(plan.unit_im[lane] * s2);
            partial_re[lane] = plan.tail_re[lane] * t_re - plan.tail_im[lane] * t_im;
            partial_im[lane] = plan.tail_re[lane] * t_im + plan.tail_im[lane] * t_re;
        }
        Self {
            lo,
            hi,
            first: raw[0],
            last: raw[raw.len() - 1],
            mean,
            m2,
            energy,
            line_sum,
            max_step,
            partial_re,
            partial_im,
            non_finite,
            at_lo,
            at_hi,
            flat_prefix: prefix,
            flat_suffix: run,
            flat_longest: longest,
        }
    }
}

/// One channel's carried grading state.
#[derive(Debug, Clone)]
struct GraderChannel {
    /// The last `k` hop summaries, at slot `hop index % k`.
    ring: Vec<HopSummary>,
    /// Each ring slot's internal steps as IEEE bits (see `merge_channel`),
    /// `hop − 1` per slot, slot-major.
    steps: Vec<u64>,
}

/// Merges one channel's window — the `k` summaries of `channel.ring`,
/// oldest at slot `oldest` — into its seven indicators. The result is a
/// pure function of those summaries and their steps: it does not depend on
/// how many hops were pushed before, which is what lets batch workers start
/// anywhere in a record. `select` receives the window's `window − 1` steps.
// lint: hot-path
fn merge_channel(
    plan: &HopPlan,
    channel: &GraderChannel,
    oldest: usize,
    select: &mut [u64],
    out: &mut [f64],
) {
    let ring = &channel.ring;
    let k = ring.len();
    let nf = plan.window as f64;
    let hop = plan.hop as f64;
    let first = &ring[oldest];
    let mut non_finite = first.non_finite as usize;
    let (mut lo, mut hi) = (first.lo, first.hi);
    let mut longest = first.flat_longest as usize;
    // Length of the flat run ending at the last merged sample.
    let mut run = first.flat_suffix as usize;
    let mut count = hop;
    let (mut mean, mut m2, mut energy) = (first.mean, first.m2, first.energy);
    let (mut line_sum, mut max_step) = (first.line_sum, first.max_step);
    // The steps of all k slots, in any order: selection only sees values.
    let internal = channel.steps.len();
    select[..internal].copy_from_slice(&channel.steps);
    let mut prev = first;
    for p in 1..k {
        let h = &ring[(oldest + p) % k];
        non_finite += h.non_finite as usize;
        lo = lo.min(h.lo);
        hi = hi.max(h.hi);
        let prefix = h.flat_prefix as usize;
        run = if same(prev.last, h.first) {
            let joined = run + prefix;
            longest = longest.max(joined);
            if prefix == plan.hop {
                joined
            } else {
                h.flat_suffix as usize
            }
        } else {
            h.flat_suffix as usize
        };
        longest = longest.max(h.flat_longest as usize);
        // Chan's pairwise update.
        let total = count + hop;
        let delta = h.mean - mean;
        mean += delta * hop / total;
        m2 = m2 + h.m2 + delta * delta * count * hop / total;
        count = total;
        energy += h.energy;
        let step = (sanitize(h.first) - sanitize(prev.last)).abs();
        select[internal + p - 1] = step.to_bits();
        line_sum += step;
        line_sum += h.line_sum;
        max_step = max_step.max(step).max(h.max_step);
        prev = h;
    }

    // Railed fraction: samples pinned to either finite rail, plus every
    // non-finite sample (an overflowed ADC reads as railed, not absent).
    let mut pinned = 0usize;
    for h in ring {
        if h.lo == lo {
            pinned += h.at_lo as usize;
        }
        if h.hi == hi {
            pinned += h.at_hi as usize;
        }
    }
    let railed = if hi > lo {
        ((pinned + non_finite) as f64 / nf).min(1.0)
    } else {
        (non_finite as f64 / nf).min(1.0)
    };

    let std = (m2 / nf).sqrt();
    let log_std = (std + 1e-12).ln();

    let line_length = line_sum / (nf - 1.0);
    // Selection puts the element a full sort would place at `len / 2`
    // there, so the median is exact. Every step is an absolute value, so its
    // sign bit is clear, and for such values (NaN from overflowed arithmetic
    // included) the IEEE bit patterns order exactly as `f64::total_cmp`
    // does: selecting over the bits is that selection with integer
    // comparisons, and it can never panic on a NaN.
    let mid = select.len() / 2;
    let (_, &mut median_bits, _) = select.select_nth_unstable(mid);
    let median_step = f64::from_bits(median_bits);
    let max_jump = (max_step / (1.4826 * median_step + 1e-12)).min(1e6);

    // The window's DFT per lane, from the rotated, mean-corrected partials.
    let mut x_re = [0.0; GOERTZEL_LANES];
    let mut x_im = [0.0; GOERTZEL_LANES];
    for p in 0..k {
        let h = &ring[(oldest + p) % k];
        let shift = h.mean - mean;
        let rot_re = &plan.rot_re[p * GOERTZEL_LANES..(p + 1) * GOERTZEL_LANES];
        let rot_im = &plan.rot_im[p * GOERTZEL_LANES..(p + 1) * GOERTZEL_LANES];
        for lane in 0..GOERTZEL_LANES {
            let q_re = h.partial_re[lane] + shift * plan.dirichlet_re[lane];
            let q_im = h.partial_im[lane] + shift * plan.dirichlet_im[lane];
            x_re[lane] += rot_re[lane] * q_re - rot_im[lane] * q_im;
            x_im[lane] += rot_re[lane] * q_im + rot_im[lane] * q_re;
        }
    }
    let power = |lane: usize| (x_re[lane] * x_re[lane] + x_im[lane] * x_im[lane]).max(0.0);

    // Aliased mains hum: tone-energy fraction at each observable folded
    // bin, weighted by spectral sharpness against ±2 Hz neighbours so
    // broadband (or ictal) energy cannot trip it.
    let tone_norm = 2.0 / (nf * m2 + 1e-12);
    let mut hum: f64 = 0.0;
    for lane in (0..plan.hum_lanes).step_by(3) {
        let p = power(lane);
        let p_lo = power(lane + 1);
        let p_hi = power(lane + 2);
        let sharpness = p / (p + p_lo + p_hi + 1e-12);
        // A pure tone scores sharpness ≈ 1, broadband noise ≈ 1/3.
        let weight = ((sharpness - 1.0 / 3.0) / (2.0 / 3.0)).clamp(0.0, 1.0);
        hum = hum.max((p * tone_norm).min(1.0) * weight);
    }

    // Baseline drift: DC offset plus the lowest three DFT bins of the
    // window (k / window_secs for k = 1..3, i.e. < 1 Hz for 4 s windows)
    // as a share of total window energy.
    let mut drift_energy = nf * mean * mean;
    for lane in plan.hum_lanes..plan.lanes {
        drift_energy += power(lane) * 2.0 / nf;
    }
    let drift = (drift_energy / (energy + 1e-12)).clamp(0.0, 1.0);

    out[IDX_LINE_LENGTH] = line_length;
    out[IDX_RAILED_FRAC] = railed;
    out[IDX_FLAT_RUN_FRAC] = longest as f64 / nf;
    out[IDX_HUM_RATIO] = hum;
    out[IDX_DRIFT_RATIO] = drift;
    out[IDX_MAX_JUMP_SIGMA] = max_jump;
    out[IDX_LOG_STD] = log_std;
}

/// Streaming quality grader: summarizes each hop of both channels once and
/// emits one 15-indicator row per completed window (see the module docs for
/// the definition and its error model).
///
/// The streaming detector feeds it one hop at a time through
/// [`QualityGrader::push_hop`]; [`QualityExtractor::extract_batch_into`]
/// drives one per worker, so both produce the same rows bit for bit. All
/// buffers are sized at construction, so pushing hops allocates nothing and
/// [`QualityGrader::heap_bytes`] is the grader's whole heap.
///
/// # Example
///
/// ```
/// use seizure_features::extractor::SlidingWindowConfig;
/// use seizure_features::quality::{QualityExtractor, QualityGrader, NUM_QUALITY_FEATURES};
/// use seizure_features::FeatureMatrix;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let config = SlidingWindowConfig::paper_default(64.0)?;
/// let n = config.window_samples() + 5 * config.step_samples();
/// let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
/// let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
///
/// let extractor = QualityExtractor::new(64.0)?;
/// let mut batch = FeatureMatrix::default();
/// extractor.extract_batch_into(&a, &b, &config, &mut batch)?;
///
/// let mut grader = QualityGrader::new(&extractor, &config)?;
/// let (hop, mut row, mut window) = (config.step_samples(), [0.0; NUM_QUALITY_FEATURES], 0);
/// for start in (0..n).step_by(hop) {
///     let (ha, hb) = (&a[start..start + hop], &b[start..start + hop]);
///     if grader.push_hop(ha, hb, &mut row)? {
///         assert_eq!(&row[..], batch.row(window));
///         window += 1;
///     }
/// }
/// assert_eq!(window, batch.num_windows());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QualityGrader {
    plan: HopPlan,
    channels: [GraderChannel; 2],
    /// Hops pushed since construction or [`QualityGrader::reset`].
    hops_seen: usize,
    /// The window's steps, permuted in place by the median selection
    /// (rewritten every window).
    select: Vec<u64>,
}

impl QualityGrader {
    /// Builds the grader for the window geometry of `config`, probing the
    /// bins of `extractor`.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] when `config` is sampled at
    /// another rate than `extractor`, and
    /// [`SlidingWindowConfig::check_streamable`]'s error for a geometry the
    /// engines cannot stream, both before anything is allocated.
    pub fn new(
        extractor: &QualityExtractor,
        config: &SlidingWindowConfig,
    ) -> Result<Self, FeatureError> {
        check_rate("quality extractor", extractor.fs, config)?;
        config.check_streamable()?;
        Ok(Self::with_segments(
            extractor,
            config.window_samples(),
            config.step_samples(),
        ))
    }

    /// The grader for `window`-sample windows of `hop`-sample hops (`hop`
    /// divides `window`; at least four samples, at most `u32::MAX`).
    fn with_segments(extractor: &QualityExtractor, window: usize, hop: usize) -> Self {
        let plan = HopPlan::new(extractor.fs, &extractor.hum_bins, window, hop);
        let hops = window / hop;
        let channel = GraderChannel {
            ring: vec![HopSummary::EMPTY; hops],
            steps: vec![0; hops * (hop - 1)],
        };
        Self {
            plan,
            channels: [channel.clone(), channel],
            hops_seen: 0,
            select: vec![0; window - 1],
        }
    }

    /// Whether this grader grades `window`-sample windows of `hop`-sample
    /// hops for `extractor`'s sampling rate.
    fn fits(&self, extractor: &QualityExtractor, window: usize, hop: usize) -> bool {
        self.plan.fs == extractor.fs && self.plan.window == window && self.plan.hop == hop
    }

    /// Heap bytes the grader holds, the capacity of every buffer it owns: per
    /// channel the ring of `window / hop` hop summaries and the ring of
    /// their internal steps, the selection buffer of `window − 1` steps, and
    /// the plan's per-hop Goertzel rotations. At the paper geometry (256 Hz,
    /// 4 s, 75 % overlap) that is 28 344 B.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let rings: usize = self
            .channels
            .iter()
            .map(|c| {
                size_of::<HopSummary>() * c.ring.capacity() + size_of::<u64>() * c.steps.capacity()
            })
            .sum();
        rings
            + size_of::<u64>() * self.select.capacity()
            + size_of::<f64>() * (self.plan.rot_re.capacity() + self.plan.rot_im.capacity())
    }

    /// Forgets the carried hops so the next hop starts a new record.
    pub fn reset(&mut self) {
        self.hops_seen = 0;
    }

    /// Ingests one hop of both channels. Returns `Ok(false)` while the first
    /// window is still filling; once `window / step` hops are in, every call
    /// completes a window, writes its [`NUM_QUALITY_FEATURES`] indicators
    /// into `row` and returns `Ok(true)`. `row` is only touched (and its
    /// length only validated) when a window completes.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the hop slices
    /// differ in length, and [`FeatureError::DimensionMismatch`] if they are
    /// not one step long or `row` has the wrong length at window completion.
    // lint: hot-path
    pub fn push_hop(
        &mut self,
        f7t3: &[f64],
        f8t4: &[f64],
        row: &mut [f64],
    ) -> Result<bool, FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        let hop = self.plan.hop;
        if f7t3.len() != hop {
            return Err(hop_size_mismatch(f7t3.len(), hop));
        }
        let k = self.channels[0].ring.len();
        let slot = self.hops_seen % k;
        let gaps = hop - 1;
        for (channel, raw) in self.channels.iter_mut().zip([f7t3, f8t4]) {
            let steps = &mut channel.steps[slot * gaps..(slot + 1) * gaps];
            channel.ring[slot] = HopSummary::summarize(&self.plan, raw, steps);
        }
        self.hops_seen += 1;
        if self.hops_seen < k {
            return Ok(false);
        }
        if row.len() != NUM_QUALITY_FEATURES {
            return Err(row_size_mismatch(row.len()));
        }
        let oldest = self.hops_seen % k;
        let (left, right) = row.split_at_mut(QUALITY_FEATURES_PER_CHANNEL);
        let right = &mut right[..QUALITY_FEATURES_PER_CHANNEL];
        for (channel, out) in self.channels.iter().zip([left, right]) {
            merge_channel(&self.plan, channel, oldest, &mut self.select, out);
        }
        let log_a = row[channel_column(0, IDX_LOG_STD)];
        let log_b = row[channel_column(1, IDX_LOG_STD)];
        row[IDX_DISAGREEMENT] = (log_a - log_b).abs();
        Ok(true)
    }
}

impl HopEngine for QualityGrader {
    fn names() -> &'static [String] {
        static NAMES: OnceLock<Vec<String>> = OnceLock::new();
        NAMES.get_or_init(|| {
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
        })
    }

    fn push_hop(
        &mut self,
        f7t3: &[f64],
        f8t4: &[f64],
        row: &mut [f64],
    ) -> Result<bool, FeatureError> {
        Self::push_hop(self, f7t3, f8t4, row)
    }

    fn reset(&mut self) {
        Self::reset(self);
    }
}

/// Misuse-only error constructor, kept outside the hot blocks so the
/// formatting allocation never sits on the per-hop path.
#[cold]
fn hop_size_mismatch(actual: usize, expected: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!(
            "hop has {actual} samples but the quality grader was built for {expected}-sample hops"
        ),
    }
}

/// Misuse-only error constructor for a wrongly sized output row.
#[cold]
fn row_size_mismatch(actual: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!(
            "output row has {actual} slots but the quality grader produces \
             {NUM_QUALITY_FEATURES} indicators"
        ),
    }
}

/// Reusable state for grading standalone windows: the one-hop
/// [`QualityGrader`] of the last window length seen. Acquire one per worker
/// and hand it to [`QualityExtractor::assess_window_into`] so repeated
/// assessments of one length stay allocation-free after the first.
#[derive(Debug, Default)]
pub struct QualityScratch {
    grader: Option<QualityGrader>,
}

impl QualityScratch {
    /// The one-hop grader for `len`-sample windows of `extractor`, rebuilt
    /// when the geometry changes. Refuses windows of fewer than four samples
    /// and windows past the grader's `u32` run counters.
    fn one_hop_grader(
        &mut self,
        extractor: &QualityExtractor,
        len: usize,
    ) -> Result<&mut QualityGrader, FeatureError> {
        if len < 4 {
            return Err(FeatureError::SignalTooShort {
                actual: len,
                required: 4,
            });
        }
        if u32::try_from(len).is_err() {
            return Err(FeatureError::InvalidConfig {
                name: "config",
                reason: format!("quality hops are limited to u32::MAX samples, got {len}"),
            });
        }
        let grader = match self.grader.take() {
            Some(grader) if grader.fits(extractor, len, len) => grader,
            _ => QualityGrader::with_segments(extractor, len, len),
        };
        Ok(self.grader.insert(grader))
    }
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
        QualityGrader::names().to_vec()
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
    /// Each hop is summarized once and every window merges its hops (see the
    /// module docs). The record runs through the crate's one record driver
    /// (see [`crate::streaming`]): each worker of
    /// [`seizure_parallel::par_process_rows`] (records of fewer than 16
    /// windows stay on the calling thread) drives a clone of one
    /// [`QualityGrader`] over its block, after `k − 1` warm-up hops. A
    /// window's row depends only on its own hops, so the matrix is
    /// bit-identical to one grader streamed over the whole record on one
    /// thread. The first error in window order is returned.
    ///
    /// # Errors
    ///
    /// Returns [`QualityGrader::new`]'s errors (a geometry sampled at another
    /// rate, or one [`SlidingWindowConfig::check_streamable`] refuses) before
    /// `matrix` is touched, and otherwise the contract of
    /// [`crate::extractor::FeatureExtractor::extract_batch`].
    pub fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        check_rate("quality extractor", self.fs, config)?;
        stream_rows_into(
            f7t3,
            f8t4,
            config,
            None,
            || QualityGrader::new(self, config),
            matrix,
        )
    }

    /// Assesses one standalone window pair into a caller-provided row of
    /// [`NUM_QUALITY_FEATURES`] slots: the window is graded as a single hop
    /// through the same summary and merge as the streaming grader. `scratch`
    /// keeps the one-hop grader, so repeated windows of one length stay
    /// allocation-free.
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
        let grader = scratch.one_hop_grader(self, f7t3.len())?;
        let graded = grader.push_hop(f7t3, f8t4, out)?;
        debug_assert!(graded, "a one-hop grader completes a window on every push");
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
    fn batch_fill_matches_the_streamed_grader_and_reuses_the_matrix() {
        let q = QualityExtractor::new(64.0).unwrap();
        let config = SlidingWindowConfig::new(64.0, 4.0, 0.75).unwrap();
        let a = noise(31, 64 * 20);
        let b = noise(32, 64 * 20);
        let mut matrix = FeatureMatrix::with_names(QualityExtractor::feature_names());
        q.extract_batch_into(&a, &b, &config, &mut matrix).unwrap();
        assert_eq!(matrix.num_features(), NUM_QUALITY_FEATURES);
        assert_eq!(matrix.num_windows(), config.num_windows(a.len()));
        let step = config.step_samples();
        let mut grader = QualityGrader::new(&q, &config).unwrap();
        let mut row = [0.0; NUM_QUALITY_FEATURES];
        let mut window = 0;
        for s in (0..a.len()).step_by(step) {
            if grader
                .push_hop(&a[s..s + step], &b[s..s + step], &mut row)
                .unwrap()
            {
                let streamed = row.map(f64::to_bits);
                let batch: Vec<u64> = matrix.row(window).iter().map(|v| v.to_bits()).collect();
                assert_eq!(batch, streamed, "window {window}");
                window += 1;
            }
        }
        assert_eq!(window, matrix.num_windows());
        // Refill with a shorter signal: the matrix shrinks accordingly.
        q.extract_batch_into(&a[..64 * 8], &b[..64 * 8], &config, &mut matrix)
            .unwrap();
        assert_eq!(matrix.num_windows(), config.num_windows(64 * 8));
    }

    #[test]
    fn batch_and_grader_refuse_a_geometry_at_another_rate() {
        let q = QualityExtractor::new(64.0).unwrap();
        let (a, b) = (noise(33, 64 * 12), noise(34, 64 * 12));
        let mut matrix = FeatureMatrix::default();
        let config = SlidingWindowConfig::paper_default(64.0).unwrap();
        q.extract_batch_into(&a, &b, &config, &mut matrix).unwrap();
        let filled = matrix.clone();
        let other_rate = SlidingWindowConfig::paper_default(128.0).unwrap();
        assert!(matches!(
            q.extract_batch_into(&a, &b, &other_rate, &mut matrix),
            Err(FeatureError::InvalidConfig { name: "config", .. })
        ));
        assert_eq!(matrix, filled);
        assert!(matches!(
            QualityGrader::new(&q, &other_rate),
            Err(FeatureError::InvalidConfig { name: "config", .. })
        ));
    }

    #[test]
    fn one_hop_grade_is_the_window_as_one_hop() {
        // A standalone window and the first window of a grader whose only hop
        // is that window agree bit for bit; a second length rebuilds the
        // scratch's grader.
        let q = QualityExtractor::new(128.0).unwrap();
        let a = noise(41, 300);
        let b = noise(42, 300);
        let mut scratch = QualityScratch::default();
        let mut out = [0.0; NUM_QUALITY_FEATURES];
        for len in [300, 257, 300] {
            q.assess_window_into(&a[..len], &b[..len], &mut out, &mut scratch)
                .unwrap();
            let mut grader = QualityGrader::with_segments(&q, len, len);
            let mut row = [0.0; NUM_QUALITY_FEATURES];
            assert!(grader.push_hop(&a[..len], &b[..len], &mut row).unwrap());
            assert_eq!(out.map(f64::to_bits), row.map(f64::to_bits), "{len}");
        }
    }

    #[test]
    fn grader_counts_its_heap_and_rejects_untiled_geometries() {
        let q = QualityExtractor::new(256.0).unwrap();
        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        let grader = QualityGrader::new(&q, &config).unwrap();
        // Per channel four 352-byte hop summaries (41 f64 and 6 u32) and
        // 4 × 255 internal steps; one 1023-step selection buffer; four hops
        // of rotations on 16 complex lanes.
        assert_eq!(size_of::<HopSummary>(), 352);
        let per_channel = 4 * 352 + 4 * 255 * 8;
        assert_eq!(
            grader.heap_bytes(),
            2 * per_channel + 1023 * 8 + 4 * 16 * 16
        );
        let uneven = SlidingWindowConfig::new(256.0, 4.0, 0.6).unwrap();
        assert!(QualityGrader::new(&q, &uneven).is_err());
        let mut grader = grader;
        let mut row = [0.0; NUM_QUALITY_FEATURES];
        assert!(grader.push_hop(&[0.0; 255], &[0.0; 255], &mut row).is_err());
        assert!(grader.push_hop(&[0.0; 256], &[0.0; 255], &mut row).is_err());
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
