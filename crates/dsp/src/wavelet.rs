//! Discrete wavelet transform.
//!
//! The paper decomposes each 4-second EEG window "until level seven using the
//! Daubechies 4 (db4) wavelet basis function" (§III-A) and computes nonlinear
//! entropy features on the resulting sub-band coefficients. This module
//! implements the db4 analysis/synthesis filter bank, single-level and
//! multi-level decompositions with periodic signal extension, and the
//! corresponding reconstructions.

use crate::error::DspError;

/// Number of db4 filter taps.
const TAPS: usize = 8;

/// db4 scaling (low-pass analysis) filter coefficients.
const DB4_LOW: [f64; TAPS] = [
    0.230_377_813_308_855_23,
    0.714_846_570_552_541_5,
    0.630_880_767_929_590_4,
    -0.027_983_769_416_983_85,
    -0.187_034_811_718_881_14,
    0.030_841_381_835_986_965,
    0.032_883_011_666_982_945,
    -0.010_597_401_784_997_278,
];

/// db4 wavelet (high-pass analysis) filter coefficients, derived from the
/// low-pass filter by the quadrature-mirror relation
/// `high[k] = (-1)^k · low[TAPS - 1 - k]`.
const DB4_HIGH: [f64; TAPS] = [
    DB4_LOW[7],
    -DB4_LOW[6],
    DB4_LOW[5],
    -DB4_LOW[4],
    DB4_LOW[3],
    -DB4_LOW[2],
    DB4_LOW[1],
    -DB4_LOW[0],
];

/// Maximum number of db4 decomposition levels that keeps every level at
/// least as long as the filter, following the usual `wmaxlev` convention.
///
/// # Example
///
/// ```
/// // A 4-second window at 256 Hz supports the paper's level 7.
/// assert_eq!(seizure_dsp::wavelet::max_level(1024), 7);
/// ```
pub fn max_level(signal_len: usize) -> usize {
    if signal_len < TAPS {
        return 0;
    }
    let ratio = signal_len as f64 / (TAPS as f64 - 1.0);
    ratio.log2().floor().max(0.0) as usize
}

/// Rejects an empty signal, zero levels, and a depth the signal cannot
/// support: more levels than [`max_level`] or fewer samples than two filter
/// lengths.
fn check_depth(operation: &'static str, signal_len: usize, levels: usize) -> Result<(), DspError> {
    if signal_len == 0 {
        return Err(DspError::EmptyInput { operation });
    }
    if levels == 0 {
        return Err(DspError::InvalidParameter {
            name: "levels",
            reason: "decomposition requires at least one level".to_string(),
        });
    }
    if levels > max_level(signal_len) || signal_len < TAPS * 2 {
        return Err(DspError::InvalidLength {
            operation,
            actual: signal_len,
            requirement: "signal too short for the requested number of levels",
        });
    }
    Ok(())
}

/// Result of a multi-level wavelet decomposition (the analogue of `wavedec`).
///
/// The decomposition of a signal at level `L` consists of one approximation
/// band `a_L` and detail bands `d_L, d_{L-1}, …, d_1`, ordered from the coarsest
/// (lowest-frequency) to the finest (highest-frequency) detail.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletDecomposition {
    levels: usize,
    original_len: usize,
    approximation: Vec<f64>,
    details: Vec<Vec<f64>>,
}

impl WaveletDecomposition {
    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Length of the signal that was decomposed.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Approximation coefficients at the deepest level.
    pub fn approximation(&self) -> &[f64] {
        &self.approximation
    }

    /// Detail coefficients for a given level, `1` being the finest level and
    /// `levels()` the coarsest. Returns `None` if the level is out of range.
    pub fn detail(&self, level: usize) -> Option<&[f64]> {
        if level == 0 || level > self.levels {
            return None;
        }
        // details are stored from coarsest (index 0 == level `levels`) to finest.
        Some(&self.details[self.levels - level])
    }

    /// All detail bands ordered from the coarsest (level `levels()`) to the
    /// finest (level 1), mirroring the MATLAB `wavedec` coefficient ordering.
    pub fn details(&self) -> &[Vec<f64>] {
        &self.details
    }
}

/// Symmetrically maps an arbitrary (possibly negative) index into `0..len` via
/// periodic extension.
fn periodic_index(idx: isize, len: usize) -> usize {
    let len = len as isize;
    (((idx % len) + len) % len) as usize
}

/// Single-level DWT: returns `(approximation, detail)` coefficient vectors,
/// each of length `ceil(signal.len() / 2)`, using periodic extension.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if the signal is empty and
/// [`DspError::InvalidLength`] if it is shorter than the wavelet filter.
///
/// # Example
///
/// ```
/// use seizure_dsp::dwt_single;
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
/// let (approx, detail) = dwt_single(&signal)?;
/// assert_eq!(approx.len(), 32);
/// assert_eq!(detail.len(), 32);
/// # Ok(())
/// # }
/// ```
pub fn dwt_single(signal: &[f64]) -> Result<(Vec<f64>, Vec<f64>), DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "dwt_single",
        });
    }
    if signal.len() < TAPS {
        return Err(DspError::InvalidLength {
            operation: "dwt_single",
            actual: signal.len(),
            requirement: "signal must be at least as long as the wavelet filter",
        });
    }
    let half = signal.len().div_ceil(2);
    let mut approx = vec![0.0; half];
    let mut detail = vec![0.0; half];
    dwt_step(signal, &mut approx, &mut detail);
    Ok((approx, detail))
}

/// One analysis filter-bank step with periodic extension, writing into
/// caller-provided coefficient slices of length `ceil(signal.len() / 2)`.
///
/// The output range is split into an interior part, where all filter taps
/// land inside the signal and index with a plain slice window, and a small
/// boundary tail that wraps periodically — the interior loop carries no
/// modulo arithmetic, which is where nearly all of the time goes on the
/// paper's 1024-sample windows.
fn dwt_step(signal: &[f64], approx: &mut [f64], detail: &mut [f64]) {
    let n = signal.len();
    // Outputs with 2i + TAPS - 1 < n never wrap.
    let interior = if n >= TAPS { (n - TAPS) / 2 + 1 } else { 0 };
    let interior = interior.min(approx.len());
    for (i, (a_slot, d_slot)) in approx[..interior]
        .iter_mut()
        .zip(detail[..interior].iter_mut())
        .enumerate()
    {
        let window = &signal[2 * i..2 * i + TAPS];
        let mut a = 0.0;
        let mut d = 0.0;
        for ((&lo, &hi), &x) in DB4_LOW.iter().zip(DB4_HIGH.iter()).zip(window.iter()) {
            a += lo * x;
            d += hi * x;
        }
        *a_slot = a;
        *d_slot = d;
    }
    for (i, (a_slot, d_slot)) in approx
        .iter_mut()
        .zip(detail.iter_mut())
        .enumerate()
        .skip(interior)
    {
        let mut a = 0.0;
        let mut d = 0.0;
        for (k, (&lo, &hi)) in DB4_LOW.iter().zip(DB4_HIGH.iter()).enumerate() {
            let idx = periodic_index(2 * i as isize + k as isize, n);
            a += lo * signal[idx];
            d += hi * signal[idx];
        }
        *a_slot = a;
        *d_slot = d;
    }
}

/// Single-level inverse DWT reconstructing a signal of length `output_len` from
/// approximation and detail coefficients produced by [`dwt_single`].
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either coefficient vector is empty and
/// [`DspError::InvalidLength`] if the vectors have different lengths or
/// `output_len` is inconsistent with them.
pub fn idwt_single(
    approx: &[f64],
    detail: &[f64],
    output_len: usize,
) -> Result<Vec<f64>, DspError> {
    if approx.is_empty() || detail.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "idwt_single",
        });
    }
    if approx.len() != detail.len() {
        return Err(DspError::InvalidLength {
            operation: "idwt_single",
            actual: detail.len(),
            requirement: "approximation and detail must have the same length",
        });
    }
    if output_len > 2 * approx.len() || output_len + 1 < 2 * approx.len() {
        return Err(DspError::InvalidLength {
            operation: "idwt_single",
            actual: output_len,
            requirement: "output length must be 2*len or 2*len-1 of the coefficient vectors",
        });
    }
    let mut out = vec![0.0; output_len];
    for i in 0..approx.len() {
        for (k, (&lo, &hi)) in DB4_LOW.iter().zip(DB4_HIGH.iter()).enumerate() {
            let idx = periodic_index(2 * i as isize + k as isize, output_len);
            out[idx] += lo * approx[i] + hi * detail[i];
        }
    }
    Ok(out)
}

/// Multi-level wavelet decomposition (`wavedec`) down to `levels` levels.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal,
/// [`DspError::InvalidParameter`] if `levels` is zero and
/// [`DspError::InvalidLength`] if the signal is too short to support the
/// requested number of levels.
///
/// # Example
///
/// Decompose a 4-second, 256 Hz window to level 7, as the paper does:
///
/// ```
/// use seizure_dsp::wavedec;
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let window: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.05).sin()).collect();
/// let dec = wavedec(&window, 7)?;
/// assert_eq!(dec.levels(), 7);
/// assert_eq!(dec.detail(7).unwrap().len(), 8);
/// # Ok(())
/// # }
/// ```
pub fn wavedec(signal: &[f64], levels: usize) -> Result<WaveletDecomposition, DspError> {
    check_depth("wavedec", signal.len(), levels)?;
    let mut details: Vec<Vec<f64>> = Vec::with_capacity(levels);
    let mut current = signal.to_vec();
    for _ in 0..levels {
        let (a, d) = dwt_single(&current)?;
        details.push(d);
        current = a;
    }
    details.reverse(); // coarsest first
    Ok(WaveletDecomposition {
        levels,
        original_len: signal.len(),
        approximation: current,
        details,
    })
}

/// Reconstructs the original signal from a [`WaveletDecomposition`] (`waverec`).
///
/// # Errors
///
/// Returns the errors of [`idwt_single`] if the stored coefficient vectors are
/// inconsistent (which cannot happen for values produced by [`wavedec`]).
pub fn waverec(decomposition: &WaveletDecomposition) -> Result<Vec<f64>, DspError> {
    let mut lengths = Vec::with_capacity(decomposition.levels);
    let mut len = decomposition.original_len;
    for _ in 0..decomposition.levels {
        lengths.push(len);
        len = len.div_ceil(2);
    }
    let mut current = decomposition.approximation.clone();
    // details are stored coarsest-first; reconstruct from the deepest level up.
    for (i, detail) in decomposition.details.iter().enumerate() {
        let target_len = lengths[decomposition.levels - 1 - i];
        current = idwt_single(&current, detail, target_len)?;
    }
    Ok(current)
}

/// Streaming multi-level DWT over sliding windows that advance by a fixed
/// hop, reusing every coefficient the window overlap already paid for. It is
/// the crate's one forward db4 engine for sliding windows: it decomposes
/// every window [`wavedec`] accepts, odd lengths included (bands halve
/// rounding up, as [`wavedec`]'s do), and any hop of at least one sample.
///
/// With periodic extension, a window's level-`l` coefficient band splits into
/// a **clean prefix** — coefficients whose filter taps land entirely inside
/// the clean prefix of the band above — and a short **corrupted tail**, whose
/// taps read the band above's own tail or wrap around the periodic boundary.
/// A clean coefficient depends only on the record, not on where the window
/// starts. So when the hop shifts level `l` by a whole number
/// `s = step / 2^l` of coefficients, window `w+1`'s clean coefficient `i` is
/// window `w`'s coefficient `i + s` wherever that one is clean too. A level
/// whose shift is whole and shorter than its clean prefix shifts the prefix
/// left with `copy_within`, computes only the `s` newly exposed clean
/// coefficients and recomputes the tail. Any other level (a fractional
/// shift, or a hop the prefix does not cover) is recomputed in full, and so
/// are all levels of the first window after construction or
/// [`StreamingWavelet::reset`]. For the paper's 1024-sample window with a
/// 256-sample hop every level reuses, roughly a 4–5× reduction in filter
/// work.
///
/// Outputs are **bit-identical** to [`wavedec`] on the same window: clean,
/// interior-tail and wrapping-tail coefficients are all produced by the same
/// ascending-tap accumulation as the batch filter step, so there is no error
/// model to carry — only the operation schedule changes.
///
/// Approximation bands are maintained for every level (each feeds the next);
/// detail bands are maintained only for `min_detail_level..=levels`, so
/// callers that consume only coarse sub-bands (like the rich feature set's
/// level 3–5 wavelet entropies) don't pay memory or shifts for the fine ones.
///
/// The contract is that consecutive [`StreamingWavelet::update`] calls
/// receive windows of the same record offset by exactly `step` samples;
/// [`StreamingWavelet::reset`] starts a new record.
///
/// # Example
///
/// ```
/// use seizure_dsp::wavelet::{wavedec, StreamingWavelet};
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let record: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.05).sin()).collect();
/// let mut streaming = StreamingWavelet::new(1024, 256, 5, 3)?;
/// for start in (0..=1024).step_by(256) {
///     let window = &record[start..start + 1024];
///     streaming.update(window)?;
///     let batch = wavedec(window, 5)?;
///     assert_eq!(streaming.detail(4).unwrap(), batch.detail(4).unwrap());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingWavelet {
    levels: usize,
    window_len: usize,
    step: usize,
    min_detail_level: usize,
    /// Per level, level 1 first: the clean-prefix length, which follows
    /// `c_l = (c_{l-1} - TAPS) / 2 + 1` from `c_0 = window_len`, and how many
    /// of its coefficients the next window inherits (0 when the level is
    /// recomputed in full).
    reuse: Vec<LevelReuse>,
    /// Per-level approximation band of the current window, level 1 first,
    /// `ceil(len_{l-1} / 2)` coefficients each: clean prefix then corrupted
    /// tail.
    approx: Vec<Vec<f64>>,
    /// Per-level detail band, empty below `min_detail_level`.
    detail: Vec<Vec<f64>>,
    /// Whether `update` has run at least once since construction/reset.
    ready: bool,
}

/// How one level of a [`StreamingWavelet`] carries coefficients across a hop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LevelReuse {
    /// Length of the band's clean prefix.
    clean: usize,
    /// Clean coefficients the next window inherits, shifted to the front.
    carry: usize,
}

impl StreamingWavelet {
    /// Builds a streaming decomposition of `window_len`-sample windows
    /// advancing by `step` samples, down to `levels` levels, keeping detail
    /// bands from `min_detail_level` up.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for a zero-length window,
    /// [`DspError::InvalidParameter`] for zero levels, a zero `step` or a
    /// `min_detail_level` outside `1..=levels`, and
    /// [`DspError::InvalidLength`] when the window cannot support the depth
    /// (as [`wavedec`] refuses it), all before anything is allocated.
    pub fn new(
        window_len: usize,
        step: usize,
        levels: usize,
        min_detail_level: usize,
    ) -> Result<Self, DspError> {
        check_depth("StreamingWavelet::new", window_len, levels)?;
        if step == 0 {
            return Err(DspError::InvalidParameter {
                name: "step",
                reason: "hop must be at least one sample".to_string(),
            });
        }
        if min_detail_level == 0 || min_detail_level > levels {
            return Err(DspError::InvalidParameter {
                name: "min_detail_level",
                reason: format!("must be within 1..=levels ({levels}), got {min_detail_level}"),
            });
        }
        let mut reuse = Vec::with_capacity(levels);
        let mut approx = Vec::with_capacity(levels);
        let mut detail = Vec::with_capacity(levels);
        let (mut len, mut clean) = (window_len, window_len);
        for level in 1..=levels {
            clean = if clean >= TAPS {
                (clean - TAPS) / 2 + 1
            } else {
                0
            };
            len = len.div_ceil(2);
            // The hop shifts this level by `step / 2^level` coefficients.
            let shift = step >> level;
            let whole = step.is_multiple_of(1 << level);
            let carry = if whole && shift < clean {
                clean - shift
            } else {
                0
            };
            reuse.push(LevelReuse { clean, carry });
            approx.push(vec![0.0; len]);
            detail.push(if level >= min_detail_level {
                vec![0.0; len]
            } else {
                Vec::new()
            });
        }
        Ok(Self {
            levels,
            window_len,
            step,
            min_detail_level,
            reuse,
            approx,
            detail,
            ready: false,
        })
    }

    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The window length the operator was built for.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Samples the window advances between consecutive `update` calls.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Finest detail level that is maintained.
    pub fn min_detail_level(&self) -> usize {
        self.min_detail_level
    }

    /// Heap bytes the operator holds: the per-level reuse plan, the
    /// per-level band vectors and their coefficients (every approximation
    /// band, and the detail bands from `min_detail_level` up).
    pub fn heap_bytes(&self) -> usize {
        let coefficients: usize = self
            .approx
            .iter()
            .chain(&self.detail)
            .map(Vec::capacity)
            .sum();
        size_of::<LevelReuse>() * self.reuse.capacity()
            + size_of::<Vec<f64>>() * (self.approx.capacity() + self.detail.capacity())
            + size_of::<f64>() * coefficients
    }

    /// Forgets all carried coefficients so the next [`update`] treats its
    /// window as the start of a new record.
    ///
    /// [`update`]: StreamingWavelet::update
    pub fn reset(&mut self) {
        self.ready = false;
    }

    /// Decomposes the next window of the record. The first call after
    /// construction or [`reset`] computes every band in full; subsequent
    /// calls assume `window` is the previous window advanced by exactly
    /// `step` samples and only compute what the overlap cannot supply.
    /// No heap allocations are performed.
    ///
    /// [`reset`]: StreamingWavelet::reset
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `window` does not match the
    /// planned length.
    // lint: hot-path
    pub fn update(&mut self, window: &[f64]) -> Result<(), DspError> {
        if window.len() != self.window_len {
            return Err(DspError::InvalidLength {
                operation: "StreamingWavelet::update",
                actual: window.len(),
                requirement: "window length must match the operator's planned length",
            });
        }
        let first = !self.ready;
        for level in 1..=self.levels {
            let LevelReuse { clean, carry } = self.reuse[level - 1];
            let carry = if first { 0 } else { carry };
            let (prev_bufs, cur_bufs) = self.approx.split_at_mut(level - 1);
            let prev: &[f64] = if level == 1 {
                window
            } else {
                &prev_bufs[level - 2]
            };
            let approx = &mut cur_bufs[0];
            let detail = &mut self.detail[level - 1];
            let has_detail = !detail.is_empty();
            if carry > 0 {
                // Clean coefficients are shift-covariant: drop the first
                // `clean - carry` of them, keep the rest.
                approx.copy_within(clean - carry..clean, 0);
                if has_detail {
                    detail.copy_within(clean - carry..clean, 0);
                }
            }
            // Newly exposed clean coefficients: every tap lands inside the
            // previous band's clean prefix (guaranteed by the `clean`
            // recurrence), so a plain slice window suffices — identical
            // arithmetic to the batch filter step's interior loop.
            for i in carry..clean {
                let input = &prev[2 * i..2 * i + TAPS];
                let mut a = 0.0;
                let mut d = 0.0;
                for ((&lo, &hi), &x) in DB4_LOW.iter().zip(DB4_HIGH.iter()).zip(input.iter()) {
                    a += lo * x;
                    d += hi * x;
                }
                approx[i] = a;
                if has_detail {
                    detail[i] = d;
                }
            }
            // Corrupted tail: taps either read the previous band's own tail
            // or wrap around the periodic boundary; recomputed every window
            // with the same indexing as the batch boundary loop.
            for i in clean..approx.len() {
                let mut a = 0.0;
                let mut d = 0.0;
                for (k, (&lo, &hi)) in DB4_LOW.iter().zip(DB4_HIGH.iter()).enumerate() {
                    let x = prev[periodic_index(2 * i as isize + k as isize, prev.len())];
                    a += lo * x;
                    d += hi * x;
                }
                approx[i] = a;
                if has_detail {
                    detail[i] = d;
                }
            }
        }
        self.ready = true;
        Ok(())
    }

    /// Detail coefficients of the most recent window, `1` being the finest
    /// level. Returns `None` before the first [`update`] call, for an
    /// out-of-range level, or for a level below `min_detail_level`.
    ///
    /// [`update`]: StreamingWavelet::update
    pub fn detail(&self, level: usize) -> Option<&[f64]> {
        if !self.ready || level == 0 || level > self.levels {
            return None;
        }
        let buf = &self.detail[level - 1];
        if buf.is_empty() {
            None
        } else {
            Some(buf.as_slice())
        }
    }

    /// Approximation coefficients at the deepest level of the most recent
    /// window (empty before the first [`update`] call).
    ///
    /// [`update`]: StreamingWavelet::update
    pub fn approximation(&self) -> &[f64] {
        if !self.ready {
            return &[];
        }
        self.approx[self.levels - 1].as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 256.0;
                (2.0 * std::f64::consts::PI * 3.0 * t).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 17.0 * t).cos()
                    + 0.1 * (i as f64 * 0.71).sin()
            })
            .collect()
    }

    #[test]
    fn low_pass_filter_sums_to_sqrt_two() {
        let sum: f64 = DB4_LOW.iter().sum();
        assert!((sum - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn high_pass_filter_sums_to_zero() {
        let sum: f64 = DB4_HIGH.iter().sum();
        assert!(sum.abs() < 1e-9);
    }

    #[test]
    fn high_pass_is_the_quadrature_mirror_of_low_pass() {
        for (k, &hi) in DB4_HIGH.iter().enumerate() {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(hi, sign * DB4_LOW[TAPS - 1 - k], "tap {k}");
        }
    }

    #[test]
    fn filters_are_orthonormal() {
        let norm: f64 = DB4_LOW.iter().map(|c| c * c).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dwt_rejects_degenerate_inputs() {
        assert!(dwt_single(&[]).is_err());
        assert!(dwt_single(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn dwt_output_lengths() {
        let x = test_signal(100);
        let (a, d) = dwt_single(&x).unwrap();
        assert_eq!(a.len(), 50);
        assert_eq!(d.len(), 50);
        let x = test_signal(101);
        let (a, d) = dwt_single(&x).unwrap();
        assert_eq!(a.len(), 51);
        assert_eq!(d.len(), 51);
    }

    #[test]
    fn single_level_perfect_reconstruction_even_length() {
        let x = test_signal(256);
        let (a, d) = dwt_single(&x).unwrap();
        let rec = idwt_single(&a, &d, x.len()).unwrap();
        assert!(max_abs_diff(&x, &rec) < 1e-9);
    }

    #[test]
    fn constant_signal_has_zero_details() {
        let x = vec![3.0; 128];
        let (_, d) = dwt_single(&x).unwrap();
        assert!(d.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn db4_kills_cubic_polynomials_in_detail_band() {
        // db4 has 4 vanishing moments, so details of a cubic are ~0 away from
        // the periodic wrap-around boundary.
        let x: Vec<f64> = (0..256)
            .map(|i| {
                let t = i as f64 / 256.0;
                1.0 + t + t * t + t * t * t
            })
            .collect();
        let (_, d) = dwt_single(&x).unwrap();
        // Ignore the last few coefficients affected by periodic wrap-around.
        let interior = &d[..d.len() - 4];
        assert!(interior.iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn wavedec_level7_on_paper_window() {
        // 4-second window at 256 Hz = 1024 samples, decomposed to level 7.
        let x = test_signal(1024);
        let dec = wavedec(&x, 7).unwrap();
        assert_eq!(dec.levels(), 7);
        assert_eq!(dec.approximation().len(), 8);
        assert_eq!(dec.detail(1).unwrap().len(), 512);
        assert_eq!(dec.detail(7).unwrap().len(), 8);
        assert!(dec.detail(8).is_none());
        assert!(dec.detail(0).is_none());
    }

    #[test]
    fn wavedec_rejects_invalid_requests() {
        let x = test_signal(64);
        assert!(wavedec(&[], 3).is_err());
        assert!(wavedec(&x, 0).is_err());
        // 64 samples cannot support 7 levels of db4.
        assert!(wavedec(&x, 7).is_err());
    }

    #[test]
    fn waverec_inverts_wavedec() {
        for levels in 1..=5 {
            let x = test_signal(1024);
            let dec = wavedec(&x, levels).unwrap();
            let rec = waverec(&dec).unwrap();
            assert_eq!(rec.len(), x.len());
            assert!(max_abs_diff(&x, &rec) < 1e-8, "levels={levels}");
        }
    }

    #[test]
    fn waverec_inverts_wavedec_level7() {
        let x = test_signal(1024);
        let dec = wavedec(&x, 7).unwrap();
        let rec = waverec(&dec).unwrap();
        assert!(max_abs_diff(&x, &rec) < 1e-8);
    }

    #[test]
    fn energy_is_preserved_by_orthonormal_transform() {
        let x = test_signal(512);
        let dec = wavedec(&x, 4).unwrap();
        let coeff_energy: f64 = dec.approximation().iter().map(|c| c * c).sum::<f64>()
            + dec
                .details()
                .iter()
                .map(|d| d.iter().map(|c| c * c).sum::<f64>())
                .sum::<f64>();
        let signal_energy: f64 = x.iter().map(|v| v * v).sum();
        assert!((coeff_energy - signal_energy).abs() / signal_energy < 1e-9);
    }

    #[test]
    fn max_level_matches_wmaxlev_convention() {
        assert_eq!(max_level(1024), 7);
        assert_eq!(max_level(768), 6);
        assert_eq!(max_level(4), 0);
    }

    /// Asserts that `streaming`'s maintained bands equal `wavedec` of
    /// `window` bit for bit (a NaN equals a NaN).
    fn assert_matches_wavedec(streaming: &StreamingWavelet, window: &[f64], context: &str) {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        };
        let reference = wavedec(window, streaming.levels()).unwrap();
        for level in 1..=streaming.levels() {
            let detail = streaming.detail(level);
            if level < streaming.min_detail_level() {
                assert!(detail.is_none(), "{context} level {level}");
                continue;
            }
            assert!(
                same(detail.unwrap(), reference.detail(level).unwrap()),
                "{context} level {level}"
            );
        }
        assert!(
            same(streaming.approximation(), reference.approximation()),
            "{context} approximation"
        );
    }

    /// Every window `streaming` decomposes while it slides over `record`
    /// from `first` by its step, checked against `wavedec`; returns how many.
    fn sweep(
        streaming: &mut StreamingWavelet,
        record: &[f64],
        first: usize,
        context: &str,
    ) -> usize {
        let (window, step) = (streaming.window_len(), streaming.step());
        let mut windows = 0;
        for start in (first..=record.len() - window).step_by(step) {
            streaming.update(&record[start..start + window]).unwrap();
            let context = format!("{context} start={start}");
            assert_matches_wavedec(streaming, &record[start..start + window], &context);
            windows += 1;
        }
        windows
    }

    #[test]
    fn streaming_matches_wavedec_on_every_length_hop_and_depth() {
        // Even, odd and prime window lengths; hops that shift every level by
        // whole coefficients, hops with a fractional shift from level 1 or
        // deeper, a hop the clean prefixes cannot cover, non-overlapping
        // windows and a gap between windows; every depth the window allows,
        // with all detail bands and with the fine ones skipped.
        let mut windows = 0;
        for window in [
            16usize, 17, 31, 64, 100, 127, 257, 500, 768, 1000, 1024, 1280,
        ] {
            let record = test_signal(3 * window + 97);
            for step in [
                1,
                2,
                3,
                8,
                24,
                64,
                250,
                256,
                window / 4,
                window - 1,
                window,
                window + 5,
            ] {
                let step = step.max(1);
                for levels in 1..=max_level(window) {
                    for min_detail in [1, 3.min(levels)] {
                        let mut streaming =
                            StreamingWavelet::new(window, step, levels, min_detail).unwrap();
                        let context = format!("window={window} step={step} levels={levels}");
                        // A few windows per geometry keep the sweep quick.
                        let span = (window + 4 * step).min(record.len());
                        windows += sweep(&mut streaming, &record[..span], 0, &context);
                    }
                }
            }
        }
        assert!(windows > 5_000, "{windows} windows");
    }

    #[test]
    fn streaming_matches_wavedec_on_nan_and_infinite_input() {
        // A non-finite sample poisons the coefficients whose taps read it;
        // carried and recomputed coefficients must poison alike.
        let mut record = test_signal(1024 + 12 * 256);
        record[700] = f64::NAN;
        record[1500] = f64::INFINITY;
        record[1501] = f64::NEG_INFINITY;
        record[3000] = f64::NAN;
        for (window, step, levels) in [
            (1024usize, 256usize, 7usize),
            (1024, 256, 5),
            (1000, 250, 7),
        ] {
            let mut streaming = StreamingWavelet::new(window, step, levels, 1).unwrap();
            let context = format!("window={window} step={step} levels={levels}");
            assert!(sweep(&mut streaming, &record, 0, &context) > 10);
        }
    }

    #[test]
    fn streaming_min_detail_level_skips_fine_bands() {
        let record = test_signal(1024 + 4 * 256);
        let mut streaming = StreamingWavelet::new(1024, 256, 5, 3).unwrap();
        assert_eq!(sweep(&mut streaming, &record, 0, "min detail 3"), 5);
        assert!(streaming.detail(1).is_none());
        assert!(streaming.detail(2).is_none());
        // Skipped fine bands shrink the held heap accordingly.
        let full = StreamingWavelet::new(1024, 256, 5, 1).unwrap();
        assert_eq!(full.heap_bytes() - streaming.heap_bytes(), (512 + 256) * 8);
        // Odd bands halve rounding up: 1000 → 500, 250, 125, 63, 32. Each
        // level also holds its reuse entry and two band vectors.
        let odd = StreamingWavelet::new(1000, 250, 5, 3).unwrap();
        let per_level = size_of::<LevelReuse>() + 2 * size_of::<Vec<f64>>();
        assert_eq!(
            odd.heap_bytes(),
            5 * per_level + 8 * ((500 + 250 + 125 + 63 + 32) + (125 + 63 + 32))
        );
    }

    #[test]
    fn streaming_reset_restarts_the_record() {
        let record = test_signal(1024 + 6 * 256);
        for step in [256usize, 100] {
            let mut streaming = StreamingWavelet::new(1024, step, 7, 1).unwrap();
            sweep(
                &mut streaming,
                &record[..1024 + 2 * step],
                0,
                "first record",
            );
            // Jump to an unrelated offset: without a reset the shift
            // assumption is violated, with one the output matches a fresh
            // decomposition, and so does every window sliding on from it.
            streaming.reset();
            assert!(streaming.detail(3).is_none());
            assert!(streaming.approximation().is_empty());
            assert!(sweep(&mut streaming, &record, 133, "after reset") >= 3);
        }
    }

    #[test]
    fn streaming_validation() {
        // Zero hop, zero levels, empty window.
        assert!(StreamingWavelet::new(1024, 0, 5, 1).is_err());
        assert!(StreamingWavelet::new(1024, 256, 0, 1).is_err());
        assert!(StreamingWavelet::new(0, 256, 5, 1).is_err());
        // min_detail_level outside 1..=levels.
        assert!(StreamingWavelet::new(1024, 256, 5, 0).is_err());
        assert!(StreamingWavelet::new(1024, 256, 5, 6).is_err());
        // Too deep for the window, and shorter than two filter lengths.
        assert!(StreamingWavelet::new(64, 32, 7, 1).is_err());
        assert!(StreamingWavelet::new(15, 1, 1, 1).is_err());
        // A hop that is no multiple of 2^levels, and non-overlapping
        // windows, decompose every window as `wavedec` does.
        let record = test_signal(3 * 1024);
        for step in [100usize, 1024] {
            let mut streaming = StreamingWavelet::new(1024, step, 5, 1).unwrap();
            assert!(sweep(&mut streaming, &record, 0, &format!("step={step}")) >= 3);
        }

        let mut ok = StreamingWavelet::new(1024, 256, 5, 3).unwrap();
        assert_eq!(ok.levels(), 5);
        assert_eq!(ok.window_len(), 1024);
        assert_eq!(ok.step(), 256);
        assert_eq!(ok.min_detail_level(), 3);
        assert!(ok.detail(3).is_none());
        assert!(ok.approximation().is_empty());
        assert!(ok.update(&[0.0; 512]).is_err());
    }
}
