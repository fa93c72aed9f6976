//! Fast Fourier transform.
//!
//! Provides an iterative radix-2 decimation-in-time FFT for power-of-two lengths
//! and a direct DFT fallback for arbitrary lengths, together with helpers for
//! real-valued signals. Everything is implemented from scratch on `f64` so the
//! crate carries no external numerical dependencies.

use crate::error::DspError;

/// A complex number with `f64` components.
///
/// This is a minimal value type used by the FFT routines; it intentionally only
/// implements the operations the crate needs.
///
/// # Example
///
/// ```
/// use seizure_dsp::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// let sum = a + b;
/// assert_eq!(sum, Complex::new(4.0, 1.0));
/// assert!((a.magnitude() - 5.0_f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Self { re: 0.0, im: 0.0 }
    }

    /// Creates a complex number on the unit circle with the given phase angle
    /// in radians, i.e. `e^{i theta}`.
    pub fn from_polar_unit(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude (absolute value).
    pub fn magnitude(&self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, cheaper than [`Complex::magnitude`] when only the
    /// power is needed.
    pub fn magnitude_squared(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Scales both components by a real factor.
    pub fn scale(&self, factor: f64) -> Self {
        Self {
            re: self.re * factor,
            im: self.im * factor,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

/// Two complex numbers side by side, one per lane, stored component-wise:
/// both real parts, then both imaginary parts. The two-lane real FFT keeps
/// one channel in each lane and applies the one-channel expression to each
/// lane, so the compiler can pack every step into two-wide SIMD ops while
/// each lane keeps its scalar bits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComplexPair {
    re: [f64; 2],
    im: [f64; 2],
}

/// `[f(0), f(1)]`: one expression, evaluated once per lane.
#[inline(always)]
fn lanes(f: impl Fn(usize) -> f64) -> [f64; 2] {
    [f(0), f(1)]
}

impl ComplexPair {
    /// Lane-wise [`Complex`] product with a factor both lanes share.
    #[inline(always)]
    fn mul_shared(self, w: Complex) -> Self {
        Self {
            re: lanes(|l| self.re[l] * w.re - self.im[l] * w.im),
            im: lanes(|l| self.re[l] * w.im + self.im[l] * w.re),
        }
    }

    /// Lane-wise [`Complex::conj`].
    #[inline(always)]
    fn conj(self) -> Self {
        Self {
            re: self.re,
            im: lanes(|l| -self.im[l]),
        }
    }

    /// Lane-wise [`Complex::scale`].
    #[inline(always)]
    fn scale(self, factor: f64) -> Self {
        Self {
            re: lanes(|l| self.re[l] * factor),
            im: lanes(|l| self.im[l] * factor),
        }
    }

    /// Lane-wise [`Complex::magnitude_squared`].
    #[inline(always)]
    fn magnitude_squared(self) -> [f64; 2] {
        lanes(|l| self.re[l] * self.re[l] + self.im[l] * self.im[l])
    }
}

impl std::ops::Add for ComplexPair {
    type Output = ComplexPair;

    #[inline(always)]
    fn add(self, rhs: ComplexPair) -> ComplexPair {
        ComplexPair {
            re: lanes(|l| self.re[l] + rhs.re[l]),
            im: lanes(|l| self.im[l] + rhs.im[l]),
        }
    }
}

impl std::ops::Sub for ComplexPair {
    type Output = ComplexPair;

    #[inline(always)]
    fn sub(self, rhs: ComplexPair) -> ComplexPair {
        ComplexPair {
            re: lanes(|l| self.re[l] - rhs.re[l]),
            im: lanes(|l| self.im[l] - rhs.im[l]),
        }
    }
}

/// Returns `true` when `n` is a power of two (and non-zero).
fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Computes the forward discrete Fourier transform of `input`.
///
/// Power-of-two lengths use an iterative radix-2 Cooley–Tukey FFT
/// (`O(n log n)`); other lengths fall back to a direct `O(n^2)` DFT, which is
/// adequate for the short windows used in EEG feature extraction.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `input` is empty.
///
/// # Example
///
/// ```
/// use seizure_dsp::{fft, Complex};
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let x = vec![Complex::from(1.0); 8];
/// let spectrum = fft(&x)?;
/// // A constant signal concentrates all energy in bin 0.
/// assert!((spectrum[0].re - 8.0).abs() < 1e-12);
/// assert!(spectrum[1].magnitude() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fft(input: &[Complex]) -> Result<Vec<Complex>, DspError> {
    if input.is_empty() {
        return Err(DspError::EmptyInput { operation: "fft" });
    }
    if is_power_of_two(input.len()) {
        Ok(radix2(input))
    } else {
        Ok(dft(input))
    }
}

/// Computes the forward FFT of a real-valued signal.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `signal` is empty.
pub fn real_fft(signal: &[f64]) -> Result<Vec<Complex>, DspError> {
    let buf: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
    fft(&buf)
}

/// Iterative radix-2 decimation-in-time FFT. `input.len()` must be a power of two.
fn radix2(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut data = input.to_vec();
    if n == 1 {
        // A single-point transform is the identity; the bit-reversal shift
        // below would be undefined for n = 1.
        return data;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }

    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::from(1.0);
            for k in 0..len / 2 {
                let even = data[start + k];
                let odd = data[start + k + len / 2] * w;
                data[start + k] = even + odd;
                data[start + k + len / 2] = even - odd;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    data
}

/// Direct DFT used for non-power-of-two lengths.
fn dft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::zero(); n];
    for (k, out_k) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (t, &x) in input.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc = acc + x * Complex::from_polar_unit(ang);
        }
        *out_k = acc;
    }
    out
}

/// The direct-DFT fallback of [`RealFftPlan`] for the lengths its packed
/// path cannot take, `n = 1` and every length that is not a power of two:
/// the table of roots of unity, from which each kept bin is summed on its
/// own.
#[derive(Debug, Clone, PartialEq)]
struct FftPlan {
    /// The `n` roots of unity `e^{-2πij/n}`.
    roots: Vec<Complex>,
}

/// Bit-reversal permutation table for a power-of-two length.
fn bit_reversal_table(n: usize) -> Vec<u32> {
    let bits = n.trailing_zeros();
    (0..n)
        .map(|i| {
            if n == 1 {
                0
            } else {
                ((i.reverse_bits() >> (usize::BITS - bits)) & (n - 1)) as u32
            }
        })
        .collect()
}

/// Flattened per-stage forward twiddle factors (`n - 1` values) for an
/// iterative radix-2 FFT of a power-of-two length.
fn stage_twiddles(n: usize) -> Vec<Complex> {
    let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        for k in 0..len / 2 {
            twiddles.push(Complex::from_polar_unit(ang * k as f64));
        }
        len <<= 1;
    }
    twiddles
}

/// In-place radix-2 butterfly passes over bit-reversal-ordered data, on two
/// lanes at once: each stage walks the buffer in fixed-width `len` chunks
/// and splits every chunk into its even/odd halves up front, so the inner
/// loop is a straight zip over three equal-length slices with all bounds
/// checks hoisted. Each lane takes the one-channel oracle's stages, blocks,
/// twiddles and expressions.
// lint: hot-path
fn butterfly_passes_pair(data: &mut [ComplexPair], twiddles: &[Complex]) {
    let n = data.len();
    let mut len = 2;
    let mut stage_offset = 0;
    while len <= n {
        let half = len / 2;
        let stage = &twiddles[stage_offset..stage_offset + half];
        for block in data.chunks_exact_mut(len) {
            let (evens, odds) = block.split_at_mut(half);
            for ((a, b), &w) in evens.iter_mut().zip(odds.iter_mut()).zip(stage) {
                let even = *a;
                let odd = b.mul_shared(w);
                *a = even + odd;
                *b = even - odd;
            }
        }
        stage_offset += half;
        len <<= 1;
    }
}

/// Bin `k` of the direct DFT of a real signal over the roots of unity
/// `roots`: the products summed in sample order from zero.
fn dft_bin(roots: &[Complex], signal: &[f64], k: usize) -> Complex {
    let n = roots.len();
    let mut acc = Complex::zero();
    let mut idx = 0;
    for &x in signal {
        acc = acc + roots[idx].scale(x);
        idx += k;
        if idx >= n {
            idx -= n;
        }
    }
    acc
}

impl FftPlan {
    /// Builds the fallback for real signals of length `n >= 1`.
    fn new(n: usize) -> Self {
        let roots = (0..n)
            .map(|j| Complex::from_polar_unit(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        Self { roots }
    }

    /// `|X[k]|²` of a real signal of the planned length for the first
    /// `out.len()` bins, without a spectrum buffer: each bin is summed on
    /// its own. The one-point transform is the identity: summed over its
    /// one root, the imaginary part would be `0 + (−0·x)`, which turns an
    /// infinite sample into NaN.
    fn power_bins_into(&self, signal: &[f64], out: &mut [f64]) {
        if let [x] = signal {
            out[0] = Complex::from(*x).magnitude_squared();
            return;
        }
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = dft_bin(&self.roots, signal, k).magnitude_squared();
        }
    }
}

/// A real-input FFT plan computing the one-sided power spectra of two
/// channels at once with the classic "two-for-one" trick.
///
/// For even power-of-two lengths each real signal is packed into a
/// half-length complex buffer (`z[j] = x[2j] + i·x[2j+1]`), transformed with
/// an `n/2` point FFT and untangled into `|X[k]|²` for `k = 0..=n/2` — half
/// the butterfly work of a full complex transform and no materialized
/// spectrum. The two channels ride in the two lanes of one
/// [`ComplexPair`] buffer: every load, butterfly and untangle step applies
/// the one-channel expression to each lane in the one-channel order, so
/// each lane's bins are bit-identical to transforming that channel alone,
/// and a NaN or infinity in one lane never reaches the other. Other lengths
/// run a direct DFT once per lane, summing only the `n/2 + 1` bins kept.
/// Execution is allocation-free into caller-provided buffers.
///
/// # Example
///
/// ```
/// use seizure_dsp::fft::{real_fft, ComplexPair, RealFftPlan};
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let a: Vec<f64> = (0..128).map(|i| (i as f64 * 0.2).sin()).collect();
/// let b: Vec<f64> = (0..128).map(|i| (i as f64 * 0.7).cos()).collect();
/// let plan = RealFftPlan::new(a.len())?;
/// let mut power = [vec![0.0; plan.num_bins()], vec![0.0; plan.num_bins()]];
/// let mut scratch = vec![ComplexPair::default(); plan.scratch_len()];
/// let [pa, pb] = &mut power;
/// plan.magnitudes_squared_pair_into([&a, &b], [pa, pb], &mut scratch)?;
///
/// for (signal, lane) in [&a, &b].into_iter().zip(&power) {
///     let reference = real_fft(signal)?;
///     for (p, bin) in lane.iter().zip(reference.iter()) {
///         assert!((p - bin.magnitude_squared()).abs() < 1e-6);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RealFftPlan {
    n: usize,
    kind: RealPlanKind,
}

#[derive(Debug, Clone, PartialEq)]
enum RealPlanKind {
    /// Packed two-for-one path: tables for the half-length complex FFT plus
    /// the untangling twiddles `e^{-2πik/n}` for `k = 0..=n/4`.
    Packed {
        rev: Vec<u32>,
        twiddles: Vec<Complex>,
        untangle: Vec<Complex>,
    },
    /// Direct DFT for lengths the packed path cannot handle.
    Fallback(FftPlan),
}

impl RealFftPlan {
    /// Builds a plan for real signals of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `n` is zero.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput {
                operation: "RealFftPlan::new",
            });
        }
        let kind = if n >= 2 && is_power_of_two(n) {
            let m = n / 2;
            let untangle = (0..=m / 2)
                .map(|k| {
                    Complex::from_polar_unit(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
                })
                .collect();
            RealPlanKind::Packed {
                rev: bit_reversal_table(m),
                twiddles: stage_twiddles(m),
                untangle,
            }
        } else {
            RealPlanKind::Fallback(FftPlan::new(n))
        };
        Ok(Self { n, kind })
    }

    /// The signal length the plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `false`; plans always cover at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of one-sided output bins (`n/2 + 1`).
    pub fn num_bins(&self) -> usize {
        self.n / 2 + 1
    }

    /// Required lane-buffer length: `n/2` on the packed path; the fallback
    /// path sums each bin straight from the signal and needs none.
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            RealPlanKind::Packed { .. } => self.n / 2,
            RealPlanKind::Fallback(_) => 0,
        }
    }

    /// Heap bytes of the plan's tables: the packed path's bit-reversal,
    /// stage-twiddle and untangling tables, or the fallback's roots.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.kind {
            RealPlanKind::Packed {
                rev,
                twiddles,
                untangle,
            } => {
                size_of::<u32>() * rev.capacity()
                    + size_of::<Complex>() * (twiddles.capacity() + untangle.capacity())
            }
            RealPlanKind::Fallback(plan) => size_of::<Complex>() * plan.roots.capacity(),
        }
    }

    /// Computes `|X[k]|²` for `k = 0..=n/2` of both real signals, lane 0
    /// into `out[0]` and lane 1 into `out[1]`, without allocating. Each
    /// lane's bins equal the one-channel transform's bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if a signal, an output row or
    /// `scratch` has the wrong length.
    // lint: hot-path
    pub fn magnitudes_squared_pair_into(
        &self,
        signals: [&[f64]; 2],
        out: [&mut [f64]; 2],
        scratch: &mut [ComplexPair],
    ) -> Result<(), DspError> {
        const OPERATION: &str = "RealFftPlan::magnitudes_squared_pair_into";
        for (signal, row) in signals.iter().zip(&out) {
            if signal.len() != self.n {
                return Err(DspError::InvalidLength {
                    operation: OPERATION,
                    actual: signal.len(),
                    requirement: "signal length must match the planned length",
                });
            }
            if row.len() != self.num_bins() {
                return Err(DspError::InvalidLength {
                    operation: OPERATION,
                    actual: row.len(),
                    requirement: "output must have n/2 + 1 bins",
                });
            }
        }
        if scratch.len() < self.scratch_len() {
            return Err(DspError::InvalidLength {
                operation: OPERATION,
                actual: scratch.len(),
                requirement: "scratch must cover the plan's scratch length",
            });
        }
        let [out0, out1] = out;
        match &self.kind {
            RealPlanKind::Fallback(plan) => {
                plan.power_bins_into(signals[0], out0);
                plan.power_bins_into(signals[1], out1);
            }
            RealPlanKind::Packed {
                rev,
                twiddles,
                untangle,
            } => {
                let m = self.n / 2;
                let z = &mut scratch[..m];
                // Load sample pairs straight into bit-reversed order.
                let pairs = signals[0].chunks_exact(2).zip(signals[1].chunks_exact(2));
                for ((x0, x1), &dst) in pairs.zip(rev) {
                    z[dst as usize] = ComplexPair {
                        re: [x0[0], x1[0]],
                        im: [x0[1], x1[1]],
                    };
                }
                butterfly_passes_pair(z, twiddles);

                // Untangle: with E/O the transforms of the even/odd samples,
                // Z[k] = E[k] + i·O[k] and conj(Z[m-k]) = E[k] - i·O[k], so
                // X[k]   = E[k] + W_k·O[k]      (W_k = e^{-2πik/n})
                // X[m-k] = conj(E[k] - W_k·O[k])
                // and only the squared magnitudes are kept.
                let z0 = z[0];
                let first = lanes(|l| {
                    let s = z0.re[l] + z0.im[l];
                    s * s
                });
                let last = lanes(|l| {
                    let d = z0.re[l] - z0.im[l];
                    d * d
                });
                (out0[0], out1[0]) = (first[0], first[1]);
                (out0[m], out1[m]) = (last[0], last[1]);
                for k in 1..=m / 2 {
                    let a = z[k];
                    let b = z[m - k].conj();
                    let e = (a + b).scale(0.5);
                    let o = (a - b).scale(0.5);
                    // W_k · O[k], with O[k] = -i·o.
                    let w = untangle[k];
                    let t = ComplexPair {
                        re: lanes(|l| w.re * o.im[l] + w.im * o.re[l]),
                        im: lanes(|l| w.im * o.im[l] - w.re * o.re[l]),
                    };
                    // At k = m/2 both writes hit one bin; the second wins,
                    // as in the one-channel untangle.
                    let sum = (e + t).magnitude_squared();
                    (out0[k], out1[k]) = (sum[0], sum[1]);
                    let diff = (e - t).magnitude_squared();
                    (out0[m - k], out1[m - k]) = (diff[0], diff[1]);
                }
            }
        }
        Ok(())
    }

    /// The one-channel periodogram kernel the two-lane one replaced, kept
    /// as its oracle: `|X[k]|²` of one real signal.
    #[cfg(test)]
    pub(crate) fn magnitudes_squared_into(
        &self,
        signal: &[f64],
        out: &mut [f64],
        scratch: &mut [Complex],
    ) -> Result<(), DspError> {
        assert_eq!(signal.len(), self.n);
        assert_eq!(out.len(), self.num_bins());
        match &self.kind {
            RealPlanKind::Fallback(plan) => {
                plan.forward_real_into(signal, &mut scratch[..self.n]);
                for (slot, bin) in out.iter_mut().zip(scratch.iter()) {
                    *slot = bin.magnitude_squared();
                }
                Ok(())
            }
            RealPlanKind::Packed {
                rev,
                twiddles,
                untangle,
            } => {
                let m = self.n / 2;
                let z = &mut scratch[..m];
                for (j, &dst) in rev.iter().enumerate() {
                    z[dst as usize] = Complex::new(signal[2 * j], signal[2 * j + 1]);
                }
                butterfly_passes(z, twiddles);
                out[0] = {
                    let s = z[0].re + z[0].im;
                    s * s
                };
                out[m] = {
                    let d = z[0].re - z[0].im;
                    d * d
                };
                for k in 1..=m / 2 {
                    let a = z[k];
                    let b = z[m - k].conj();
                    let e = (a + b).scale(0.5);
                    let o = (a - b).scale(0.5);
                    let w = untangle[k];
                    let t = Complex::new(w.re * o.im + w.im * o.re, w.im * o.im - w.re * o.re);
                    out[k] = (e + t).magnitude_squared();
                    out[m - k] = (e - t).magnitude_squared();
                }
                Ok(())
            }
        }
    }
}

/// The one-channel radix-2 butterfly passes the two-lane ones replaced,
/// kept for the oracle.
#[cfg(test)]
fn butterfly_passes(data: &mut [Complex], twiddles: &[Complex]) {
    let n = data.len();
    let mut len = 2;
    let mut stage_offset = 0;
    while len <= n {
        let half = len / 2;
        let stage = &twiddles[stage_offset..stage_offset + half];
        for block in data.chunks_exact_mut(len) {
            let (evens, odds) = block.split_at_mut(half);
            for ((a, b), &w) in evens.iter_mut().zip(odds.iter_mut()).zip(stage) {
                let even = *a;
                let odd = *b * w;
                *a = even + odd;
                *b = even - odd;
            }
        }
        stage_offset += half;
        len <<= 1;
    }
}

#[cfg(test)]
impl FftPlan {
    /// The full complex spectrum of a real signal of the planned length,
    /// the fallback's half of the one-channel oracle. The one-point
    /// transform is the identity, as in [`FftPlan::power_bins_into`].
    fn forward_real_into(&self, signal: &[f64], out: &mut [Complex]) {
        assert_eq!(signal.len(), self.roots.len());
        assert_eq!(out.len(), self.roots.len());
        if let [x] = signal {
            out[0] = Complex::from(*x);
            return;
        }
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = dft_bin(&self.roots, signal, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn fft_of_empty_is_error() {
        assert!(fft(&[]).is_err());
    }

    #[test]
    fn fft_of_single_sample_is_identity() {
        let x = vec![Complex::new(3.5, -1.25)];
        let spec = fft(&x).unwrap();
        assert_eq!(spec, x);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::zero(); 16];
        x[0] = Complex::from(1.0);
        let spec = fft(&x).unwrap();
        for bin in spec {
            assert!(close(bin.re, 1.0, 1e-12));
            assert!(close(bin.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn fft_of_constant_concentrates_in_dc() {
        let x = vec![Complex::from(2.5); 32];
        let spec = fft(&x).unwrap();
        assert!(close(spec[0].re, 80.0, 1e-9));
        for bin in &spec[1..] {
            assert!(bin.magnitude() < 1e-9);
        }
    }

    #[test]
    fn fft_single_tone_peaks_at_expected_bin() {
        let n = 128;
        let k0 = 10;
        let x: Vec<Complex> = (0..n)
            .map(|n_| {
                Complex::from((2.0 * std::f64::consts::PI * k0 as f64 * n_ as f64 / n as f64).sin())
            })
            .collect();
        let spec = fft(&x).unwrap();
        let peak = spec
            .iter()
            .take(n / 2)
            .enumerate()
            .max_by(|a, b| a.1.magnitude().total_cmp(&b.1.magnitude()))
            .unwrap()
            .0;
        assert_eq!(peak, k0);
    }

    #[test]
    fn total_cmp_peak_selection_survives_nan_bins() {
        // Regression for the NaN-unsafe peak argmax this test file used to
        // carry: with `total_cmp` a NaN magnitude ranks above every finite
        // bin (it is selected, not silently scrambled), and removing it
        // restores the true peak — no comparator panic either way.
        let mags = [1.0, 5.0, f64::NAN, 3.0];
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 2);
        let finite_peak = mags
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(finite_peak, 1);
    }

    #[test]
    fn dft_matches_radix2_on_power_of_two() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let a = radix2(&x);
        let b = dft(&x);
        for (u, v) in a.iter().zip(b.iter()) {
            assert!(close(u.re, v.re, 1e-8));
            assert!(close(u.im, v.im, 1e-8));
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<Complex> = (0..256)
            .map(|i| Complex::from((i as f64 * 0.05).sin() + 0.3 * (i as f64 * 0.31).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(Complex::magnitude_squared).sum();
        let spec = fft(&x).unwrap();
        let freq_energy: f64 =
            spec.iter().map(Complex::magnitude_squared).sum::<f64>() / x.len() as f64;
        assert!(close(time_energy, freq_energy, 1e-6));
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        let p = a * b;
        assert!(close(p.re, -4.0, 1e-12));
        assert!(close(p.im, -5.5, 1e-12));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert_eq!(a.scale(2.0), Complex::new(2.0, 4.0));
    }

    #[test]
    fn fallback_matches_fft_on_arbitrary_length() {
        let signal: Vec<f64> = (0..77).map(|i| (i as f64 * 0.31).cos()).collect();
        let plan = FftPlan::new(signal.len());
        let mut out = vec![Complex::zero(); signal.len()];
        plan.forward_real_into(&signal, &mut out);
        let reference = real_fft(&signal).unwrap();
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!(close(a.re, b.re, 1e-7));
            assert!(close(a.im, b.im, 1e-7));
        }
        let mut power = vec![0.0; 39];
        plan.power_bins_into(&signal, &mut power);
        for (p, bin) in power.iter().zip(&out) {
            assert_eq!(p.to_bits(), bin.magnitude_squared().to_bits());
        }
    }

    /// `n` samples of one hostile family, from a fixed xorshift stream.
    fn lane_family(family: usize, n: usize, seed: u64) -> Vec<f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64 ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|i| {
                let u = next();
                match family {
                    0 => 80.0 * u,
                    // Few levels: ties and exact cancellations.
                    1 => (u * 6.0).round(),
                    2 => [0.0, -0.0, 1e-3 * u][i % 3],
                    3 => u * 1e-310,
                    // Squares overflow to infinity.
                    4 => [1e300, -1e300, u][i % 3],
                    5 => [f64::INFINITY, f64::NEG_INFINITY, 5.0 * u, u][i % 4],
                    6 if i % 7 == 3 => f64::NAN,
                    6 if i % 11 == 5 => -f64::NAN,
                    6 => u,
                    7 => f64::NAN,
                    _ => 0.0,
                }
            })
            .collect()
    }

    #[test]
    fn two_lane_bins_equal_the_one_channel_kernel_per_lane() {
        const FAMILIES: usize = 9;
        for n in [1, 2, 3, 6, 8, 64, 100, 256, 1000, 1024, 4096] {
            let plan = RealFftPlan::new(n).unwrap();
            let bins = plan.num_bins();
            // One lane buffer and one spectrum across every case: stale
            // contents from the previous case must not leak into the next.
            let mut lanes = vec![ComplexPair::default(); plan.scratch_len()];
            let mut spectrum = vec![Complex::zero(); n];
            let mut pair = [vec![0.0; bins], vec![0.0; bins]];
            for a_family in 0..FAMILIES {
                // Each family against itself, its neighbour and all-NaN,
                // with the lanes swapped too.
                for b_family in [a_family, (a_family + 1) % FAMILIES, 7] {
                    let a = lane_family(a_family, n, 1);
                    let b = lane_family(b_family, n, 2);
                    for (x, y) in [(&a, &b), (&b, &a)] {
                        let [p0, p1] = &mut pair;
                        plan.magnitudes_squared_pair_into([x, y], [p0, p1], &mut lanes)
                            .unwrap();
                        for (lane, (signal, got)) in [x, y].into_iter().zip(&pair).enumerate() {
                            let mut want = vec![0.0; bins];
                            plan.magnitudes_squared_into(signal, &mut want, &mut spectrum)
                                .unwrap();
                            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    g.to_bits() == w.to_bits(),
                                    "n {n}, families {a_family}/{b_family}, lane {lane}, \
                                     bin {k}: {g:e} vs the one-channel kernel's {w:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn two_lane_plan_rejects_mismatched_buffers() {
        let plan = RealFftPlan::new(16).unwrap();
        assert_eq!(plan.scratch_len(), 8);
        assert_eq!(RealFftPlan::new(12).unwrap().scratch_len(), 0);
        let x = vec![0.0; 16];
        let mut lanes = vec![ComplexPair::default(); 8];
        let (mut p0, mut p1) = (vec![0.0; 9], vec![0.0; 9]);
        let mut short = vec![0.0; 8];
        assert!(plan
            .magnitudes_squared_pair_into([&x, &x[..8]], [&mut p0, &mut p1], &mut lanes)
            .is_err());
        assert!(plan
            .magnitudes_squared_pair_into([&x, &x], [&mut p0, &mut short], &mut lanes)
            .is_err());
        assert!(plan
            .magnitudes_squared_pair_into([&x, &x], [&mut p0, &mut p1], &mut lanes[..7])
            .is_err());
        assert!(plan
            .magnitudes_squared_pair_into([&x, &x], [&mut p0, &mut p1], &mut lanes)
            .is_ok());
    }

    #[test]
    fn single_sample_fallback_is_the_identity() {
        let plan = FftPlan::new(1);
        let mut out = vec![Complex::zero(); 1];
        plan.forward_real_into(&[2.5], &mut out);
        assert_eq!(out[0], Complex::new(2.5, 0.0));
        // Summed over its one root, an infinite sample would come out NaN.
        let mut power = [0.0];
        for (x, want) in [(2.5, 6.25), (f64::INFINITY, f64::INFINITY), (-0.0, 0.0)] {
            plan.power_bins_into(&[x], &mut power);
            assert_eq!(power[0].to_bits(), f64::to_bits(want), "{x}");
        }
    }
}
