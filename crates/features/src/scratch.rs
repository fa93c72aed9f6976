//! Reusable per-thread scratch space for allocation-free feature extraction.
//!
//! Extracting the paper features from a 4-second window runs one
//! periodogram per channel and one multi-level wavelet decomposition; in the
//! seed implementation each of those allocated fresh buffers for every
//! window of every record. [`FeatureScratch`] bundles the precomputed
//! [`PsdPlan`] and [`WaveletWorkspace`] plus their output buffers: a lane
//! buffer of `n/2` [`ComplexPair`]s (16 KB at `n = 1024`), in which the two
//! channels' periodograms run side by side, and two power rows, one per
//! channel. The paper set's batch path thus performs the FFTs and the DWT of
//! every sliding window without touching the heap. Each worker of a batch
//! call builds one scratch and reuses it across all the windows it
//! processes, so a call allocates per worker, never per window. The rich set
//! keeps no per-window scratch: its batch rows are streamed (see
//! [`crate::streaming`]), and only the two-lane periodogram is shared with
//! it.

use crate::bandpower::{band_powers_from_bin_pair, BandPowers};
use crate::entropy::permutation_entropy_scratch;
use crate::error::FeatureError;
use crate::extractor::PAPER_WAVELET_LEVELS;
use seizure_dsp::fft::ComplexPair;
use seizure_dsp::spectrum::PsdPlan;
use seizure_dsp::wavelet::{max_level, WaveletWorkspace};

/// The two-lane periodogram of both channels' windows and its buffers:
/// the plan, the lane buffer and one power row per channel. Transient
/// scratch, shared by the paper set's [`FeatureScratch`] and the streaming
/// rich extractor.
#[derive(Debug, Clone)]
pub(crate) struct PairSpectrum {
    fs: f64,
    psd: PsdPlan,
    lanes: Vec<ComplexPair>,
    power: [Vec<f64>; 2],
}

impl PairSpectrum {
    /// Builds the buffers for windows of `window_len` samples at `fs` Hz.
    pub(crate) fn new(fs: f64, window_len: usize) -> Result<Self, FeatureError> {
        let psd = PsdPlan::new(window_len)?;
        Ok(Self {
            fs,
            lanes: vec![ComplexPair::default(); psd.scratch_len()],
            power: [vec![0.0; psd.num_bins()], vec![0.0; psd.num_bins()]],
            psd,
        })
    }

    /// Band powers of both channels' windows (F7T3 first), from one
    /// two-lane periodogram and one interleaved band fold.
    // lint: hot-path
    pub(crate) fn band_powers(
        &mut self,
        windows: [&[f64]; 2],
    ) -> Result<[BandPowers; 2], FeatureError> {
        let [row0, row1] = &mut self.power;
        self.psd
            .power_pair_into(windows, self.fs, [row0, row1], &mut self.lanes)?;
        Ok(band_powers_from_bin_pair(
            [row0, row1],
            self.fs,
            self.psd.window_len(),
        )?)
    }
}

/// Preallocated workspace for extracting the paper features of one analysis
/// window.
///
/// Built by [`PaperFeatureSet::scratch`] for a fixed window length; the depth
/// of the wavelet decomposition is the paper's level 7, clamped to what the
/// window supports, exactly mirroring the allocating extractor.
///
/// [`PaperFeatureSet::scratch`]: crate::extractor::PaperFeatureSet::scratch
///
/// # Example
///
/// ```
/// use seizure_features::extractor::{FeatureExtractor, PaperFeatureSet};
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let fs = 256.0;
/// let extractor = PaperFeatureSet::new(fs)?;
/// let window: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.1).sin()).collect();
///
/// let mut scratch = extractor.scratch(window.len())?;
/// let mut features = vec![0.0; extractor.num_features()];
/// extractor.extract_window_into(&window, &window, &mut features, &mut scratch)?;
///
/// let reference = extractor.extract_window(&window, &window)?;
/// for (a, b) in features.iter().zip(reference.iter()) {
///     assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FeatureScratch {
    fs: f64,
    window_len: usize,
    spectrum: PairSpectrum,
    wavelet: WaveletWorkspace,
    /// Dense ordinal-pattern counting table reused by the allocation-free
    /// permutation entropies.
    perm_counts: Vec<u32>,
}

impl FeatureScratch {
    /// Builds a scratch for windows of `window_len` samples at `fs` Hz, with
    /// the paper's wavelet decomposition depth of seven levels clamped to
    /// what the window supports (at least one).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not positive and
    /// [`FeatureError::Dsp`] if the window is too short to support even one
    /// db4 decomposition level.
    pub fn new(fs: f64, window_len: usize) -> Result<Self, FeatureError> {
        if fs <= 0.0 || fs.is_nan() {
            return Err(FeatureError::InvalidConfig {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        let levels = PAPER_WAVELET_LEVELS.min(max_level(window_len)).max(1);
        let workspace = WaveletWorkspace::new(window_len, levels)?;
        Ok(Self {
            fs,
            window_len,
            spectrum: PairSpectrum::new(fs, window_len)?,
            wavelet: workspace,
            perm_counts: Vec::new(),
        })
    }

    /// Sampling frequency the scratch was built for.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// The window length the scratch was built for.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// The (clamped) wavelet decomposition depth.
    pub fn wavelet_levels(&self) -> usize {
        self.wavelet.levels()
    }

    /// Band powers of both channels' windows (F7T3 first) from the
    /// scratch's two-lane periodogram.
    pub(crate) fn band_powers(
        &mut self,
        windows: [&[f64]; 2],
    ) -> Result<[BandPowers; 2], FeatureError> {
        self.spectrum.band_powers(windows)
    }

    /// Runs the db4 decomposition of `window` into the internal workspace.
    pub(crate) fn decompose(&mut self, window: &[f64]) -> Result<&WaveletWorkspace, FeatureError> {
        self.wavelet.decompose(window)?;
        Ok(&self.wavelet)
    }

    /// Detail coefficients at `level`, clamped into the workspace's valid
    /// range the same way the allocating extractors clamp (`1..=levels`).
    /// Only valid after [`FeatureScratch::decompose`] has run.
    pub(crate) fn detail_clamped(&self, level: usize) -> &[f64] {
        let level = level.min(self.wavelet.levels()).max(1);
        self.wavelet
            .detail(level)
            .expect("decompose ran and level is clamped into range")
    }

    /// Permutation entropy of the (clamped) detail band of the most recent
    /// decomposition, without cloning the coefficients.
    pub(crate) fn detail_perm_entropy(
        &mut self,
        level: usize,
        order: usize,
        delay: usize,
    ) -> Result<f64, FeatureError> {
        let level = level.min(self.wavelet.levels()).max(1);
        let detail = self
            .wavelet
            .detail(level)
            .expect("decompose ran and level is clamped into range");
        permutation_entropy_scratch(detail, order, delay, &mut self.perm_counts)
    }
}
