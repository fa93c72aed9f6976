//! Streaming (hop-structured) feature extraction: one hop engine per feature
//! set, and the one record driver that runs them.
//!
//! The paper slides 4-second windows with 75 % overlap, so consecutive
//! windows share three quarters of their samples. Recomputing every moment,
//! spectrum and wavelet band from scratch for every window would scan each
//! sample four times. [`StreamingRichExtractor`] restructures the rich set's
//! extraction into per-hop operators that carry work across windows:
//!
//! * **Moments / Hjorth / waveform** — every hop is summarized once
//!   ([`MomentSummary`] of the raw samples, second-order
//!   [`SpreadSummary`]s of its internal first and second differences,
//!   partial line-length/Teager/zero-crossing/min-max
//!   folds, the hop's first and last four samples for the boundary terms);
//!   a window merges its `k = window/hop` hop summaries, oldest first,
//!   instead of rescanning `window` samples.
//! * **Permutation entropy** — each hop counts its ordinal patterns into a
//!   dense Lehmer table once; straddling patterns are added when the next
//!   hop arrives. Window tables are integer sums of hop tables.
//! * **Wavelet** — a [`StreamingWavelet`] shifts clean db4 coefficients
//!   across windows and recomputes only the newly exposed ones plus the
//!   periodic-boundary tail; the first window after construction or
//!   [`StreamingRichExtractor::reset`] is a full decomposition, and the
//!   carried bands equal it bit for bit.
//! * **Spectrum** — one full-window rectangular periodogram per window, both
//!   channels in one two-lane pass.
//!
//! [`StreamingPaperExtractor`] is the paper set's engine: the two-lane
//! periodogram of both channels' windows, a seven-level [`StreamingWavelet`]
//! carry of F8T4, whose bands equal `wavedec`'s bit for bit, and the
//! allocation-free entropy kernels on those bands. It stays within 1e-9 of
//! the textbook reference [`PaperFeatureSet::extract_window`].
//!
//! # One record driver
//!
//! Detection pushes hops as they arrive ([`StreamingRichExtractor::push_hop`]).
//! Every record-level batch entry point — the rich set's
//! ([`RichFeatureSet::extract_windows_into`] and `extract_batch_into`), the
//! paper set's and quality grading's
//! ([`QualityExtractor::extract_batch_into`]) — runs one driver over its
//! set's hop engine. The driver vets the geometry with the one rule every
//! engine shares ([`SlidingWindowConfig::check_streamable`], which allocates
//! nothing) and checks the record before it builds an engine. It then
//! splits the rows into one block per worker and streams each block through
//! a clone of the engine: a row that continues its predecessor's window
//! costs one hop, and any other row resets the engine and pushes its
//! window's `k` hops. A window's row is a pure function of its own hops, so
//! every batch row equals the row one engine streams over the whole record,
//! bit for bit, at any thread count.
//!
//! The allocating two-pass [`FeatureExtractor::extract_window`] of
//! [`RichFeatureSet`] stays as the textbook reference. Against it, the zero
//! crossings, peak-to-peak and the permutation and wavelet entropies (20–26
//! of each 27-column channel block) agree exactly. The other columns differ
//! only by floating-point re-association: the merged moments, Hjorth
//! descriptors, line length and nonlinear energy (11–19), and the band
//! powers (0–10), which the reference sums bin by bin from a one-channel
//! periodogram. The equivalence suite bounds that at
//! `1e-7 · (1 + |reference|)` across random, hostile and geometric cohorts.
//! One carve-out: skewness and kurtosis are
//! ill-conditioned when a window's variance underflows relative to its power
//! (e.g. a dropout holding one constant value: the standardized residuals are
//! pure rounding dust in *both* computations, and their sign is an accident
//! of summation order), so there the suite only requires them to stay finite.
//!
//! [`FeatureExtractor::extract_window`]: crate::extractor::FeatureExtractor::extract_window
//! [`PaperFeatureSet::extract_window`]: crate::extractor::FeatureExtractor::extract_window
//! [`RichFeatureSet`]: crate::extractor::RichFeatureSet
//! [`RichFeatureSet::extract_windows_into`]: crate::extractor::RichFeatureSet::extract_windows_into
//! [`QualityExtractor::extract_batch_into`]: crate::quality::QualityExtractor::extract_batch_into

use crate::bandpower::{band_powers_from_bin_pair, Band, BandPowers};
use crate::entropy::{
    accumulate_pattern_counts, accumulate_pattern_counts_delay1, entropy_from_counts,
    permutation_entropy_scratch, renyi_entropy_quadratic, sample_entropy_pair,
    shannon_entropy_noalloc,
};
use crate::error::FeatureError;
use crate::extractor::{
    paper_names, rich_names, SlidingWindowConfig, PAPER_FEATURES, PAPER_WAVELET_LEVELS,
    RICH_FEATURES_PER_CHANNEL, RICH_WAVELET_LEVELS,
};
use crate::matrix::FeatureMatrix;
use crate::statistics::{MomentSummary, SpreadSummary};
use seizure_dsp::fft::ComplexPair;
use seizure_dsp::spectrum::PsdPlan;
use seizure_dsp::wavelet::{max_level, StreamingWavelet};

/// A hop-by-hop engine of one feature set: [`StreamingRichExtractor`],
/// [`StreamingPaperExtractor`] and the quality grader. [`stream_rows_into`]
/// drives any of them over a record.
pub(crate) trait HopEngine: Clone + Sync {
    /// The set's column names, built once per process.
    fn names() -> &'static [String];

    /// Ingests one hop of both channels; `Ok(true)` once it completed a
    /// window into `row`, which it touches only then.
    fn push_hop(
        &mut self,
        f7t3: &[f64],
        f8t4: &[f64],
        row: &mut [f64],
    ) -> Result<bool, FeatureError>;

    /// Forgets the carried hops so the next one starts a new record.
    fn reset(&mut self);
}

/// Misuse-only error constructor for a selected window the record lacks.
#[cold]
fn window_out_of_range(index: usize, count: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!("window index {index} out of range for a record of {count} windows"),
    }
}

/// Checks a record's channels against the window geometry and returns its
/// number of complete windows (at least one).
fn record_windows(
    f7t3: &[f64],
    f8t4: &[f64],
    config: &SlidingWindowConfig,
) -> Result<usize, FeatureError> {
    if f7t3.len() != f8t4.len() {
        return Err(FeatureError::ChannelLengthMismatch {
            left: f7t3.len(),
            right: f8t4.len(),
        });
    }
    match config.num_windows(f7t3.len()) {
        0 => Err(FeatureError::SignalTooShort {
            actual: f7t3.len(),
            required: config.window_samples(),
        }),
        count => Ok(count),
    }
}

/// The crate's one record driver: refills `matrix` with one row per
/// selected window of the record, streamed through `E` (see the module
/// docs). Row `j` holds window `windows[j]` (any order, repeats allowed);
/// `None` selects every window in order.
///
/// The geometry ([`SlidingWindowConfig::check_streamable`]), the channels,
/// the record's length and the selection are all checked before `engine`
/// builds the engine and before `matrix` is touched, so a refused call
/// allocates no engine. Each worker of
/// [`seizure_parallel::par_process_rows`] streams its block of rows through
/// a clone of the engine; the first error in row order is returned.
pub(crate) fn stream_rows_into<E: HopEngine>(
    f7t3: &[f64],
    f8t4: &[f64],
    config: &SlidingWindowConfig,
    windows: Option<&[usize]>,
    engine: impl FnOnce() -> Result<E, FeatureError>,
    matrix: &mut FeatureMatrix,
) -> Result<(), FeatureError> {
    config.check_streamable()?;
    let count = record_windows(f7t3, f8t4, config)?;
    let rows = match windows {
        Some(windows) => {
            if let Some(&index) = windows.iter().find(|&&w| w >= count) {
                return Err(window_out_of_range(index, count));
            }
            windows.len()
        }
        None => count,
    };
    let engine = engine()?;
    let names = E::names();
    let width = names.len();
    let hop = config.step_samples();
    let k = config.window_samples() / hop;
    matrix.ensure_names(names);
    let data = matrix.reset_rows(rows);
    seizure_parallel::par_process_rows(data, width, |first_row, block| {
        let mut engine = engine.clone();
        // The window the engine completed last, while it is mid-record.
        let mut prev: Option<usize> = None;
        for (offset, row) in block.chunks_mut(width).enumerate() {
            let j = first_row + offset;
            let w = windows.map_or(j, |windows| windows[j]);
            // Window `w` covers hops `w..w + k`.
            let first_hop = if prev.map(|p| p + 1) == Some(w) {
                w + k - 1
            } else {
                engine.reset();
                w
            };
            for h in first_hop..w + k {
                let span = h * hop..(h + 1) * hop;
                let wrote = engine.push_hop(&f7t3[span.clone()], &f8t4[span], row)?;
                debug_assert_eq!(wrote, h + 1 == w + k, "window {w} completes at hop {h}");
            }
            prev = Some(w);
        }
        Ok(())
    })
}

/// Appends one hop to a linearized window of `window.len() / hop.len()`
/// hops that holds the `hops_seen` hops before it: in place while the
/// window is still filling, else after shifting the oldest hop out.
// lint: hot-path
fn slide_in(window: &mut [f64], hop: &[f64], hops_seen: usize) {
    let at = if hops_seen < window.len() / hop.len() {
        hops_seen * hop.len()
    } else {
        window.copy_within(hop.len().., 0);
        window.len() - hop.len()
    };
    window[at..at + hop.len()].copy_from_slice(hop);
}

/// The two-lane periodogram of both channels' windows and its buffers:
/// the plan, the lane buffer and one power row per channel. Transient
/// scratch of the streaming rich and paper extractors.
#[derive(Debug, Clone)]
struct PairSpectrum {
    fs: f64,
    psd: PsdPlan,
    lanes: Vec<ComplexPair>,
    power: [Vec<f64>; 2],
}

impl PairSpectrum {
    /// Builds the buffers for windows of `window_len` samples at `fs` Hz.
    fn new(fs: f64, window_len: usize) -> Result<Self, FeatureError> {
        let psd = PsdPlan::new(window_len)?;
        Ok(Self {
            fs,
            lanes: vec![ComplexPair::default(); psd.scratch_len()],
            power: [vec![0.0; psd.num_bins()], vec![0.0; psd.num_bins()]],
            psd,
        })
    }

    /// Heap bytes held: the plan's tables, the lane buffer and both power
    /// rows.
    fn heap_bytes(&self) -> usize {
        self.psd.heap_bytes()
            + size_of::<ComplexPair>() * self.lanes.capacity()
            + size_of::<f64>() * self.power.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Band powers of both channels' windows (F7T3 first), from one
    /// two-lane periodogram and one interleaved band fold.
    // lint: hot-path
    fn band_powers(&mut self, windows: [&[f64]; 2]) -> Result<[BandPowers; 2], FeatureError> {
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

/// Everything one hop contributes to the windows that cover it.
#[derive(Debug, Clone)]
struct HopSummary {
    /// Central moments of the hop's raw samples.
    raw: MomentSummary,
    /// Raw power sum `Σx²` of the hop (for the window RMS).
    sum_sq: f64,
    /// Second-order summary of the first differences internal to the hop.
    d1: SpreadSummary,
    /// Second-order summary of the second differences internal to the hop.
    d2: SpreadSummary,
    /// `Σ|Δ|` over the hop-internal differences.
    line_length: f64,
    /// Teager energy sum over the hop-internal triples.
    nle_sum: f64,
    /// Sign-change count over the hop-internal sample pairs.
    zero_crossings: u32,
    /// Minimum sample of the hop.
    lo: f64,
    /// Maximum sample of the hop.
    hi: f64,
    /// First four samples (boundary terms and pattern straddles).
    first: [f64; 4],
    /// Last four samples.
    last: [f64; 4],
    /// Order-3 ordinal pattern counts of the hop (own starts; straddling
    /// starts are added in place when the next hop arrives).
    counts3: [u32; 6],
    /// Order-5 ordinal pattern counts of the hop.
    counts5: [u32; 120],
}

impl HopSummary {
    /// Summarizes one hop of samples (`hop.len() >= 5`, enforced by
    /// [`SlidingWindowConfig::check_streamable`]).
    // lint: hot-path
    fn from_hop(hop: &[f64]) -> Self {
        let raw = MomentSummary::from_slice(hop);
        let sum_sq = hop.iter().map(|x| x * x).sum();
        let d1 = SpreadSummary::from_first_differences(hop);
        let d2 = SpreadSummary::from_second_differences(hop);
        let mut line_length = 0.0;
        let mut zero_crossings = 0u32;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for pair in hop.windows(2) {
            let diff = pair[1] - pair[0];
            line_length += diff.abs();
            if (pair[0] >= 0.0) != (pair[1] >= 0.0) {
                zero_crossings += 1;
            }
        }
        let mut nle_sum = 0.0;
        for triple in hop.windows(3) {
            nle_sum += triple[1] * triple[1] - triple[0] * triple[2];
        }
        for &x in hop {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let mut counts3 = [0u32; 6];
        let mut counts5 = [0u32; 120];
        accumulate_pattern_counts_delay1(hop, 3, &mut counts3);
        accumulate_pattern_counts_delay1(hop, 5, &mut counts5);
        Self {
            raw,
            sum_sq,
            d1,
            d2,
            line_length,
            nle_sum,
            zero_crossings,
            lo,
            hi,
            first: [hop[0], hop[1], hop[2], hop[3]],
            last: [
                hop[hop.len() - 4],
                hop[hop.len() - 3],
                hop[hop.len() - 2],
                hop[hop.len() - 1],
            ],
            counts3,
            counts5,
        }
    }

    /// Adds the ordinal patterns that straddle from this hop into `next`,
    /// turning the hop's "own" tables into full tables. A pattern spans at
    /// most `span = 4` samples, so the straddle slice of the last four
    /// samples of this hop plus the first four of the next covers every
    /// crossing start exactly once.
    // lint: hot-path
    fn complete_with(&mut self, next: &HopSummary) {
        let straddle3 = [self.last[2], self.last[3], next.first[0], next.first[1]];
        accumulate_pattern_counts(&straddle3, 3, 1, &mut self.counts3);
        let straddle5 = [
            self.last[0],
            self.last[1],
            self.last[2],
            self.last[3],
            next.first[0],
            next.first[1],
            next.first[2],
            next.first[3],
        ];
        accumulate_pattern_counts(&straddle5, 5, 1, &mut self.counts5);
    }
}

/// Per-channel streaming state: the linearized current window, the ring of
/// hop summaries and the carried wavelet coefficients.
#[derive(Debug, Clone)]
struct ChannelStream {
    /// The last `window` samples, linearized (shifted left one hop at a
    /// time) — the input of the exact periodogram and the wavelet update.
    window_buf: Vec<f64>,
    /// Ring of the last `k` hop summaries, indexed by `hop_index % k`.
    ring: Vec<HopSummary>,
    /// Carried wavelet coefficients.
    wavelet: StreamingWavelet,
}

/// Stateful hop-by-hop extractor of the [`RichFeatureSet`] features: feeds
/// on one hop of both channels at a time and emits one 54-feature row per
/// completed window, reusing all work the window overlap already paid for.
///
/// [`StreamingRichExtractor::push_hop`] drives it in real time; the rich
/// set's batch entry points drive the same extractor over a record (see the
/// module docs), so a streamed row and a batch row are the same bits. All
/// buffers are sized at construction, so [`StreamingRichExtractor::heap_bytes`]
/// is the extractor's whole heap.
///
/// # Example
///
/// ```
/// use seizure_features::extractor::{FeatureExtractor, RichFeatureSet, SlidingWindowConfig};
/// use seizure_features::streaming::StreamingRichExtractor;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let fs = 256.0;
/// let config = SlidingWindowConfig::paper_default(fs)?;
/// let n = 1024 + 3 * 256;
/// let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin()).collect();
/// let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
///
/// let batch = RichFeatureSet::new(fs)?.extract_batch(&a, &b, &config)?;
/// let mut streaming = StreamingRichExtractor::new(&config)?;
/// let mut row = vec![0.0; streaming.num_features()];
/// let mut window = 0;
/// for (hop_a, hop_b) in a.chunks(256).zip(b.chunks(256)) {
///     if streaming.push_hop(hop_a, hop_b, &mut row)? {
///         assert_eq!(row.as_slice(), batch.row(window));
///         window += 1;
///     }
/// }
/// assert_eq!(window, batch.num_windows());
/// # Ok(())
/// # }
/// ```
///
/// [`RichFeatureSet`]: crate::extractor::RichFeatureSet
#[derive(Debug, Clone)]
pub struct StreamingRichExtractor {
    fs: f64,
    window: usize,
    hop: usize,
    /// Hops per window.
    k: usize,
    /// Two-lane full-window periodogram with its lane buffer and power
    /// rows, rewritten every window.
    spectrum: PairSpectrum,
    channels: [ChannelStream; 2],
    /// Hops ingested since construction or [`StreamingRichExtractor::reset`].
    hops_seen: usize,
}

impl StreamingRichExtractor {
    /// Builds a streaming extractor for the window geometry of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SlidingWindowConfig::check_streamable`]'s error, before
    /// anything is allocated, for a geometry the engines cannot stream.
    pub fn new(config: &SlidingWindowConfig) -> Result<Self, FeatureError> {
        config.check_streamable()?;
        let fs = config.sampling_frequency();
        let window = config.window_samples();
        let hop = config.step_samples();
        let k = window / hop;
        let levels = RICH_WAVELET_LEVELS.min(max_level(window)).max(1);
        let make_channel = || -> Result<ChannelStream, FeatureError> {
            Ok(ChannelStream {
                window_buf: vec![0.0; window],
                ring: Vec::with_capacity(k),
                wavelet: StreamingWavelet::new(window, hop, levels, 3.min(levels))?,
            })
        };
        Ok(Self {
            fs,
            window,
            hop,
            k,
            spectrum: PairSpectrum::new(fs, window)?,
            channels: [make_channel()?, make_channel()?],
            hops_seen: 0,
        })
    }

    /// Sampling frequency of the geometry.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Window length in samples.
    pub fn window_samples(&self) -> usize {
        self.window
    }

    /// Hop length in samples.
    pub fn step_samples(&self) -> usize {
        self.hop
    }

    /// Number of features per emitted row (54: 27 per channel).
    pub fn num_features(&self) -> usize {
        2 * RICH_FEATURES_PER_CHANNEL
    }

    /// The linearized samples of the current window for `channel`
    /// (0 = F7T3, 1 = F8T4) — the exact slice the spectral and wavelet
    /// operators see. Meaningful once a [`StreamingRichExtractor::push_hop`]
    /// call has returned `true`. While the first window is still filling,
    /// the unfilled tail holds zeros after construction and the previous
    /// record's samples after [`StreamingRichExtractor::reset`], which does
    /// not clear the buffer. Lets streaming callers run window-level side
    /// analyses (e.g. signal-quality grading) without buffering the samples a
    /// second time.
    ///
    /// # Panics
    ///
    /// Panics if `channel > 1`.
    pub fn current_window(&self, channel: usize) -> &[f64] {
        &self.channels[channel].window_buf
    }

    /// Heap bytes the extractor holds, the capacity of every buffer it owns:
    /// the two-lane periodogram's plan tables, lane buffer and power rows, and
    /// per channel the window ring, the ring of `window / hop` hop summaries
    /// and the wavelet carry ([`StreamingWavelet::heap_bytes`]). At the
    /// paper geometry (256 Hz, 4 s, 75 % overlap) that is 81 040 B.
    pub fn heap_bytes(&self) -> usize {
        let channels: usize = self
            .channels
            .iter()
            .map(|chan| {
                size_of::<f64>() * chan.window_buf.capacity()
                    + size_of::<HopSummary>() * chan.ring.capacity()
                    + chan.wavelet.heap_bytes()
            })
            .sum();
        self.spectrum.heap_bytes() + channels
    }

    /// Forgets all carried state so the next hop starts a new record.
    pub fn reset(&mut self) {
        self.hops_seen = 0;
        for chan in &mut self.channels {
            chan.ring.clear();
            chan.wavelet.reset();
        }
    }

    /// Ingests one hop of both channels. Returns `Ok(false)` while the first
    /// window is still filling; once `window / hop` hops are buffered, every
    /// call completes a window, writes its 54 features into `row` and
    /// returns `Ok(true)`. `row` is only touched (and its length only
    /// validated) when a window completes. No heap allocations are performed
    /// after the first `k` hops of a record.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the hop slices
    /// differ in length, [`FeatureError::DimensionMismatch`] if they do not
    /// match the configured hop or `row` does not have 54 slots at window
    /// completion, and propagates numeric failures.
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
        if f7t3.len() != self.hop {
            return Err(hop_size_mismatch(f7t3.len(), self.hop));
        }
        let slot = self.hops_seen % self.k;
        for (chan, hop_samples) in self.channels.iter_mut().zip([f7t3, f8t4]) {
            slide_in(&mut chan.window_buf, hop_samples, self.hops_seen);
            let summary = HopSummary::from_hop(hop_samples);
            if self.hops_seen > 0 {
                // The previous hop can now count its straddling patterns.
                let prev_slot = (self.hops_seen - 1) % self.k;
                chan.ring[prev_slot].complete_with(&summary);
            }
            if chan.ring.len() < self.k {
                chan.ring.push(summary);
            } else {
                chan.ring[slot] = summary;
            }
        }
        self.hops_seen += 1;
        if self.hops_seen < self.k {
            return Ok(false);
        }
        if row.len() != 2 * RICH_FEATURES_PER_CHANNEL {
            return Err(row_size_mismatch(row.len(), 2 * RICH_FEATURES_PER_CHANNEL));
        }
        let base = self.hops_seen - self.k;
        // Spectral blocks: the bit-exact full-window periodograms of both
        // channels, side by side.
        let [c0, c1] = &self.channels;
        let bands = self
            .spectrum
            .band_powers([&c0.window_buf, &c1.window_buf])?;
        let (left, right) = row.split_at_mut(RICH_FEATURES_PER_CHANNEL);
        for ((chan, bands), out) in self.channels.iter_mut().zip(&bands).zip([left, right]) {
            finalize_channel(chan, bands, self.window, self.k, base, out)?;
        }
        Ok(true)
    }
}

impl HopEngine for StreamingRichExtractor {
    fn names() -> &'static [String] {
        rich_names()
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

/// Stateful hop-by-hop extractor of the [`PaperFeatureSet`]'s ten features:
/// feeds on one hop of both channels at a time and emits one row per
/// completed window. The paper set's batch entry point drives it over a
/// record (see the module docs), so a streamed row and a batch row are the
/// same bits.
///
/// It keeps both channels' windows linearized, one hop at a time. A
/// completed window takes the two-lane periodogram of both (the F7T3 theta
/// and delta powers and both relative theta powers), and the F8T4 window
/// advances a [`StreamingWavelet`] carry of the paper's seven db4 levels,
/// clamped to what the window supports. The permutation, Rényi and sample
/// entropies then read the carried d7, d6 and d3 bands, which equal
/// `wavedec`'s bit for bit.
///
/// # Example
///
/// ```
/// use seizure_features::extractor::{FeatureExtractor, PaperFeatureSet, SlidingWindowConfig};
/// use seizure_features::streaming::StreamingPaperExtractor;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let fs = 256.0;
/// let config = SlidingWindowConfig::paper_default(fs)?;
/// let n = 1024 + 3 * 256;
/// let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin()).collect();
/// let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
///
/// let batch = PaperFeatureSet::new(fs)?.extract_batch(&a, &b, &config)?;
/// let mut streaming = StreamingPaperExtractor::new(&config)?;
/// let mut row = [0.0; 10];
/// let mut window = 0;
/// for (hop_a, hop_b) in a.chunks(256).zip(b.chunks(256)) {
///     if streaming.push_hop(hop_a, hop_b, &mut row)? {
///         assert_eq!(&row[..], batch.row(window));
///         window += 1;
///     }
/// }
/// assert_eq!(window, batch.num_windows());
/// # Ok(())
/// # }
/// ```
///
/// [`PaperFeatureSet`]: crate::extractor::PaperFeatureSet
#[derive(Debug, Clone)]
pub struct StreamingPaperExtractor {
    hop: usize,
    /// Hops per window.
    k: usize,
    /// Two-lane full-window periodogram (transient scratch).
    spectrum: PairSpectrum,
    /// The last window of each channel (F7T3, F8T4), linearized.
    windows: [Vec<f64>; 2],
    /// Carried db4 coefficients of the F8T4 window.
    wavelet: StreamingWavelet,
    /// Ordinal-pattern counting table of the permutation entropies, sized
    /// by the first window.
    perm_counts: Vec<u32>,
    /// Hops ingested since construction or [`StreamingPaperExtractor::reset`].
    hops_seen: usize,
}

impl StreamingPaperExtractor {
    /// Builds a streaming extractor for the window geometry of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SlidingWindowConfig::check_streamable`]'s error, before
    /// anything is allocated, for a geometry the engines cannot stream.
    pub fn new(config: &SlidingWindowConfig) -> Result<Self, FeatureError> {
        config.check_streamable()?;
        let window = config.window_samples();
        let hop = config.step_samples();
        let levels = PAPER_WAVELET_LEVELS.min(max_level(window)).max(1);
        Ok(Self {
            hop,
            k: window / hop,
            spectrum: PairSpectrum::new(config.sampling_frequency(), window)?,
            windows: [vec![0.0; window], vec![0.0; window]],
            wavelet: StreamingWavelet::new(window, hop, levels, 3.min(levels))?,
            perm_counts: Vec::new(),
            hops_seen: 0,
        })
    }

    /// Forgets all carried state so the next hop starts a new record.
    pub fn reset(&mut self) {
        self.hops_seen = 0;
        self.wavelet.reset();
    }

    /// Ingests one hop of both channels. Returns `Ok(false)` while the first
    /// window is still filling; once `window / hop` hops are buffered, every
    /// call completes a window, writes its ten features into `row` and
    /// returns `Ok(true)`. `row` is only touched (and its length only
    /// validated) when a window completes. No heap allocations are performed
    /// after the first completed window of the extractor's life.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the hop slices
    /// differ in length, [`FeatureError::DimensionMismatch`] if they do not
    /// match the configured hop or `row` does not have ten slots at window
    /// completion, and propagates numeric failures.
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
        if f7t3.len() != self.hop {
            return Err(hop_size_mismatch(f7t3.len(), self.hop));
        }
        for (window, hop_samples) in self.windows.iter_mut().zip([f7t3, f8t4]) {
            slide_in(window, hop_samples, self.hops_seen);
        }
        self.hops_seen += 1;
        if self.hops_seen < self.k {
            return Ok(false);
        }
        if row.len() != PAPER_FEATURES {
            return Err(row_size_mismatch(row.len(), PAPER_FEATURES));
        }
        let Self {
            spectrum,
            windows: [f7t3_window, f8t4_window],
            wavelet,
            perm_counts,
            ..
        } = self;
        // Spectral features of both channels from one two-lane periodogram.
        let [left, right] = spectrum.band_powers([f7t3_window, f8t4_window])?;
        row[0] = left.absolute(Band::Theta);
        row[1] = left.relative(Band::Theta);
        row[2] = left.absolute(Band::Delta);
        row[3] = right.relative(Band::Theta);
        // Wavelet-domain nonlinear features of F8T4 from the carried bands,
        // the paper's levels clamped into the carry's depth.
        wavelet.update(f8t4_window)?;
        let levels = wavelet.levels();
        let detail = |level: usize| {
            wavelet
                .detail(level.min(levels).max(1))
                .expect("clamped level is maintained by construction")
        };
        let (d7, d6, d3) = (detail(7), detail(6), detail(3));
        row[4] = permutation_entropy_scratch(d7, 5, 1, perm_counts)?;
        row[5] = permutation_entropy_scratch(d7, 7, 1, perm_counts)?;
        row[6] = permutation_entropy_scratch(d6, 7, 1, perm_counts)?;
        row[7] = renyi_entropy_quadratic(d3);
        [row[8], row[9]] = sample_entropy_pair(d6, [0.2, 0.35])?;
        Ok(true)
    }
}

impl HopEngine for StreamingPaperExtractor {
    fn names() -> &'static [String] {
        paper_names()
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
            "hop has {actual} samples but the extractor was built for {expected}-sample hops"
        ),
    }
}

/// Misuse-only error constructor for a wrongly sized output row.
#[cold]
fn row_size_mismatch(actual: usize, expected: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!(
            "output row has {actual} slots but the extractor produces {expected} features"
        ),
    }
}

/// Writes one channel's band powers and merges its hop ring into its
/// 27-feature block. `base` is the absolute index of the oldest hop of the
/// window; ring slots are visited in temporal order so the merged moments
/// are a pure function of the hop history.
// lint: hot-path
fn finalize_channel(
    chan: &mut ChannelStream,
    bands: &BandPowers,
    window: usize,
    k: usize,
    base: usize,
    out: &mut [f64],
) -> Result<(), FeatureError> {
    debug_assert_eq!(out.len(), RICH_FEATURES_PER_CHANNEL);
    out[..5].copy_from_slice(&bands.absolute);
    out[5..10].copy_from_slice(&bands.relative);
    out[10] = bands.total;

    // Merge the hop summaries in temporal order, stitching the boundary
    // terms (one first difference, two second differences, two Teager
    // triples, one sign pair per hop boundary) from the carried edge
    // samples.
    let slot = |j: usize| (base + j) % k;
    let oldest = &chan.ring[slot(0)];
    let mut raw = oldest.raw;
    let mut sum_sq = oldest.sum_sq;
    let mut d1 = oldest.d1;
    let mut d2 = oldest.d2;
    let mut line_length = oldest.line_length;
    let mut nle_sum = oldest.nle_sum;
    let mut zero_crossings = oldest.zero_crossings;
    let mut lo = oldest.lo;
    let mut hi = oldest.hi;
    let mut counts3 = oldest.counts3;
    let mut counts5 = oldest.counts5;
    let mut prev_last = oldest.last;
    for j in 1..k {
        let cur = &chan.ring[slot(j)];
        let b_d1 = cur.first[0] - prev_last[3];
        d1.push(b_d1);
        d2.push(b_d1 - (prev_last[3] - prev_last[2]));
        d2.push((cur.first[1] - cur.first[0]) - b_d1);
        line_length += b_d1.abs();
        nle_sum += prev_last[3] * prev_last[3] - prev_last[2] * cur.first[0];
        nle_sum += cur.first[0] * cur.first[0] - prev_last[3] * cur.first[1];
        if (prev_last[3] >= 0.0) != (cur.first[0] >= 0.0) {
            zero_crossings += 1;
        }
        raw = raw.merge(cur.raw);
        sum_sq += cur.sum_sq;
        d1 = d1.merge(cur.d1);
        d2 = d2.merge(cur.d2);
        line_length += cur.line_length;
        nle_sum += cur.nle_sum;
        zero_crossings += cur.zero_crossings;
        lo = lo.min(cur.lo);
        hi = hi.max(cur.hi);
        for (acc, c) in counts3.iter_mut().zip(cur.counts3.iter()) {
            *acc += c;
        }
        for (acc, c) in counts5.iter_mut().zip(cur.counts5.iter()) {
            *acc += c;
        }
        prev_last = cur.last;
    }

    let stats = raw.statistics(sum_sq);
    out[11] = stats.mean;
    out[12] = stats.variance;
    out[13] = stats.skewness;
    out[14] = stats.kurtosis;
    out[15] = stats.rms;

    // Hjorth descriptors with the batch path's degenerate guards.
    let activity = raw.variance();
    let var_d1 = d1.variance();
    let var_d2 = d2.variance();
    let mobility = if activity > 0.0 {
        (var_d1 / activity).sqrt()
    } else {
        0.0
    };
    let mobility_d1 = if var_d1 > 0.0 {
        (var_d2 / var_d1).sqrt()
    } else {
        0.0
    };
    out[16] = mobility;
    out[17] = if mobility > 0.0 {
        mobility_d1 / mobility
    } else {
        0.0
    };

    out[18] = line_length;
    out[19] = nle_sum / (window - 2) as f64;
    out[20] = f64::from(zero_crossings);
    out[21] = hi - lo;

    // Integer pattern tables sum exactly, so these match the batch
    // `permutation_entropy_scratch` bit for bit.
    out[22] = entropy_from_counts(&counts3, window - 2, 3);
    out[23] = entropy_from_counts(&counts5, window - 4, 5);

    chan.wavelet.update(&chan.window_buf)?;
    let levels = chan.wavelet.levels();
    for (slot, level) in out[24..27].iter_mut().zip([3usize, 4, 5]) {
        let clamped = level.min(levels).max(1);
        let detail = chan
            .wavelet
            .detail(clamped)
            .expect("clamped level is maintained by construction");
        *slot = shannon_entropy_noalloc(detail);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::{FeatureExtractor, RichFeatureSet};
    use crate::matrix::FeatureMatrix;

    fn synth(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                (i as f64 * 0.043).sin() + 0.6 * (i as f64 * 0.171).cos() + 0.3 * noise
            })
            .collect()
    }

    /// Every row `push_hop` emits over the whole record, in window order.
    fn stream(streaming: &mut StreamingRichExtractor, a: &[f64], b: &[f64]) -> Vec<Vec<f64>> {
        let hop = streaming.step_samples();
        let mut row = vec![0.0; streaming.num_features()];
        let mut rows = Vec::new();
        for (hop_a, hop_b) in a.chunks_exact(hop).zip(b.chunks_exact(hop)) {
            if streaming.push_hop(hop_a, hop_b, &mut row).unwrap() {
                rows.push(row.clone());
            }
        }
        rows
    }

    fn assert_rows_bitwise_equal(streamed: &[Vec<f64>], batch: &FeatureMatrix) {
        assert_eq!(streamed.len(), batch.num_windows());
        for (w, row) in streamed.iter().enumerate() {
            for (c, (s, b)) in row.iter().zip(batch.row(w)).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    b.to_bits(),
                    "window {w} column {c}: {s} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batch_rows_are_the_streamed_rows() {
        let fs = 256.0;
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        // Long enough for the batch engine to fan out across workers.
        let a = synth(1024 + 40 * 256, 7);
        let b = synth(1024 + 40 * 256, 99);
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let streamed = stream(&mut streaming, &a, &b);
        let batch = RichFeatureSet::new(fs)
            .unwrap()
            .extract_batch(&a, &b, &config)
            .unwrap();
        assert_rows_bitwise_equal(&streamed, &batch);
    }

    #[test]
    fn streamed_rows_match_the_two_pass_reference() {
        let fs = 256.0;
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let a = synth(1024 + 5 * 256, 21);
        let b = synth(1024 + 5 * 256, 22);
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let reference = RichFeatureSet::new(fs).unwrap();
        for (w, row) in stream(&mut streaming, &a, &b).iter().enumerate() {
            let span = w * 256..w * 256 + 1024;
            let expected = reference
                .extract_window(&a[span.clone()], &b[span])
                .unwrap();
            for (c, (s, r)) in row.iter().zip(&expected).enumerate() {
                assert!(
                    (s - r).abs() <= 1e-9 * (1.0 + r.abs()),
                    "window {w} column {c}: streamed {s} vs reference {r}"
                );
            }
        }
    }

    #[test]
    fn push_hop_streams_one_row_per_hop_after_warmup() {
        let fs = 256.0;
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let a = synth(1024 + 3 * 256, 31);
        let b = synth(1024 + 3 * 256, 32);
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let mut row = vec![0.0; streaming.num_features()];
        let mut completed = 0usize;
        for h in 0..a.len() / 256 {
            let s = h * 256;
            let wrote = streaming
                .push_hop(&a[s..s + 256], &b[s..s + 256], &mut row)
                .unwrap();
            assert_eq!(wrote, h + 1 >= 4, "hop {h}");
            completed += usize::from(wrote);
        }
        assert_eq!(completed, config.num_windows(a.len()));
    }

    #[test]
    fn reset_isolates_records() {
        let fs = 256.0;
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let a = synth(1024 + 2 * 256, 51);
        let b = synth(1024 + 2 * 256, 52);
        let mut fresh = StreamingRichExtractor::new(&config).unwrap();
        let expected = stream(&mut fresh, &a, &b);
        // Another record, cut off mid-window, then a reset: the first
        // record streams exactly as through a fresh extractor.
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let burn = synth(1024 + 5 * 256 + 2 * 256, 53);
        stream(&mut streaming, &burn, &burn);
        streaming.reset();
        assert_eq!(stream(&mut streaming, &a, &b), expected);
    }

    #[test]
    fn rejects_unstreamable_geometries_and_bad_inputs() {
        // 60 % overlap: 1024-sample window, 410-sample step — not a divisor.
        let uneven = SlidingWindowConfig::new(256.0, 4.0, 0.6).unwrap();
        assert!(StreamingRichExtractor::new(&uneven).is_err());
        // A window past u32::MAX samples is refused before any allocation
        // (a 4e15-sample window would otherwise abort the process).
        let absurd = SlidingWindowConfig::paper_default(1e15).unwrap();
        assert!(matches!(
            StreamingPaperExtractor::new(&absurd),
            Err(FeatureError::InvalidConfig { name: "config", .. })
        ));

        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        assert!(StreamingPaperExtractor::new(&config).is_ok());
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let mut row = vec![0.0; 54];
        assert!(streaming
            .push_hop(&[0.0; 256], &[0.0; 100], &mut row)
            .is_err());
        assert!(streaming
            .push_hop(&[0.0; 100], &[0.0; 100], &mut row)
            .is_err());
        let a = synth(1024, 1);
        let mut bad_row = vec![0.0; 10];
        for h in 0..3 {
            streaming
                .push_hop(
                    &a[h * 256..(h + 1) * 256],
                    &a[h * 256..(h + 1) * 256],
                    &mut bad_row,
                )
                .unwrap();
        }
        // The fourth hop completes a window and must reject the short row.
        assert!(streaming
            .push_hop(&a[768..1024], &a[768..1024], &mut bad_row)
            .is_err());
    }

    #[test]
    fn heap_bytes_count_every_buffer() {
        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        let streaming = StreamingRichExtractor::new(&config).unwrap();
        // The periodogram: plan tables (512 u32 and 511 + 257 complex),
        // 512 two-lane values and two 513-bin power rows.
        assert_eq!(streaming.spectrum.heap_bytes(), 14_336 + 16_384 + 8_208);
        // Per channel: a 1024-sample window, four 704-byte hop summaries
        // (24 f64, 127 u32 and padding) and the five-level wavelet carry.
        assert_eq!(size_of::<HopSummary>(), 704);
        let wavelet = streaming.channels[0].wavelet.heap_bytes();
        assert_eq!(wavelet, 10_048);
        let per_channel = 8_192 + 4 * 704 + wavelet;
        assert_eq!(streaming.heap_bytes(), 38_928 + 2 * per_channel);
    }
}
