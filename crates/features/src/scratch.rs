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
//! every sliding window without touching the heap. One scratch is created
//! per worker thread and reused across all windows that worker processes.
//! The rich set keeps no per-window scratch: its batch rows are streamed
//! (see [`crate::streaming`]), and only the two-lane periodogram is shared
//! with it.

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

/// A shared pool of [`FeatureScratch`] workspaces, so multi-record batch
/// extraction of the paper set reuses the FFT/wavelet buffers across records
/// instead of rebuilding them per record per worker.
///
/// Workers of the parallel extraction path check a scratch out once per
/// record block and return it when done; a scratch is only built when the
/// pool has none matching the requested window geometry. The mutex is
/// touched once per worker block, never per window.
#[derive(Debug, Default)]
pub struct FeatureScratchPool {
    inner: std::sync::Mutex<Vec<FeatureScratch>>,
}

impl FeatureScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of idle workspaces currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.inner.lock().expect("scratch pool poisoned").len()
    }

    /// Checks out a scratch for the given geometry, building one only when no
    /// pooled scratch matches.
    ///
    /// # Errors
    ///
    /// Propagates [`FeatureScratch::new`] failures when a fresh scratch must
    /// be built.
    pub(crate) fn acquire(
        &self,
        fs: f64,
        window_len: usize,
    ) -> Result<FeatureScratch, FeatureError> {
        {
            let mut pool = self.inner.lock().expect("scratch pool poisoned");
            if let Some(pos) = pool
                .iter()
                .position(|s| s.sampling_frequency() == fs && s.window_len() == window_len)
            {
                return Ok(pool.swap_remove(pos));
            }
        }
        FeatureScratch::new(fs, window_len)
    }

    /// Returns a scratch to the pool for the next record.
    pub(crate) fn release(&self, scratch: FeatureScratch) {
        self.inner
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }
}

impl Clone for FeatureScratchPool {
    /// Cloning a pool yields an empty pool: pooled scratches are a cache, not
    /// state, and each clone refills on first use.
    fn clone(&self) -> Self {
        Self::new()
    }
}
