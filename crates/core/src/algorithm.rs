//! Algorithm 1: a-posteriori epileptic seizure detection.
//!
//! The algorithm receives the feature matrix `X[L][F]` (one row per sliding
//! window of the EEG signal) and the window length `W` (the patient's average
//! seizure duration expressed in feature-matrix rows). It slides a window of
//! `W` rows over the matrix and, for each position, accumulates the mean
//! absolute per-feature difference between the rows inside the window and every
//! fourth row outside it. The Euclidean norm of that per-feature distance
//! vector gives a single distance per position; the position with the maximum
//! distance is labeled as the seizure.
//!
//! The paper's pseudo-code costs `O(L² · W · F)`. This implementation produces
//! the same distances from sorted prefix sums over the subsampled rows and
//! subtraction chains shared by neighbouring candidates: an `O(L · F · log L)`
//! index, about `⌈(L − W)/s⌉ · (W + s − 1) · (W/s + 1) · F` subtractions and
//! `(L − W) · W · F` additions. That makes the full-scale experiments
//! tractable; the literal pseudo-code stays in the test suite as its oracle.

use crate::error::CoreError;
use seizure_features::normalize::normalize_features;
use seizure_features::FeatureMatrix;

/// Configuration of the a-posteriori detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Subsampling step for the points outside the window (the paper uses every
    /// fourth point because consecutive windows overlap by 75 %).
    pub subsample_step: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self { subsample_step: 4 }
    }
}

/// Result of running Algorithm 1 on a feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Index `y` of the window (feature-matrix row) where the detected seizure
    /// starts.
    pub window_index: usize,
    /// The window length `W` in feature-matrix rows the detection was run with.
    pub window_length: usize,
    /// Distance value for every candidate position (`L - W` entries).
    pub distances: Vec<f64>,
}

impl Detection {
    /// The maximum distance value (the score of the detected position).
    pub fn peak_distance(&self) -> f64 {
        self.distances[self.window_index]
    }
}

/// Runs Algorithm 1 on `features` with a seizure window of `window_length` rows.
///
/// Each feature is first z-normalized across the signal (Line 1 of the
/// pseudo-code). The `L − W` candidate positions are then scored in one
/// block, and the peak selected, on the calling thread (the wearable has
/// one core).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `window_length` or the
/// subsampling step is zero, and [`CoreError::SignalTooShort`] if the matrix
/// does not contain strictly more rows than `window_length`.
///
/// # Example
///
/// ```
/// use seizure_core::algorithm::{posteriori_detect, DetectorConfig};
/// use seizure_features::FeatureMatrix;
///
/// # fn main() -> Result<(), seizure_core::CoreError> {
/// // 30 windows with one feature; rows 10..15 are strongly different.
/// let rows: Vec<Vec<f64>> = (0..30)
///     .map(|i| vec![if (10..15).contains(&i) { 8.0 } else { 0.0 }])
///     .collect();
/// let matrix = FeatureMatrix::from_rows(vec!["f".into()], rows)?;
/// let detection = posteriori_detect(&matrix, 5, &DetectorConfig::default())?;
/// assert_eq!(detection.window_index, 10);
/// # Ok(())
/// # }
/// ```
pub fn posteriori_detect(
    features: &FeatureMatrix,
    window_length: usize,
    config: &DetectorConfig,
) -> Result<Detection, CoreError> {
    if window_length == 0 {
        return Err(CoreError::InvalidParameter {
            name: "window_length",
            reason: "the seizure window must span at least one feature row".to_string(),
        });
    }
    if config.subsample_step == 0 {
        return Err(CoreError::InvalidParameter {
            name: "subsample_step",
            reason: "the subsampling step must be at least 1".to_string(),
        });
    }
    let rows = features.num_windows();
    if rows <= window_length {
        return Err(CoreError::SignalTooShort {
            detail: format!(
                "the feature matrix has {rows} rows but the seizure window alone spans {window_length}"
            ),
        });
    }

    let matrix = normalize_features(features)?;
    let distances = distance_profile(&matrix, window_length, config.subsample_step);
    Ok(Detection {
        window_index: peak_index(&distances),
        window_length,
        distances,
    })
}

/// NaN-safe peak selection with NaN ranked *worst*: a candidate whose
/// distance was poisoned by a NaN feature value must never outrank a finite
/// one. (The former `partial_cmp` fallback to `Equal` let a NaN candidate
/// late in the profile displace the true peak, silently mislabeling the
/// seizure.) Ties go to the later candidate.
fn peak_index(distances: &[f64]) -> usize {
    distances
        .iter()
        .enumerate()
        .max_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => a.1.total_cmp(b.1),
        })
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Algorithm 1's distance profile, with prefix sums in place of the
/// pseudo-code's scan over every outside row and one subtraction chain per
/// row for each group of candidates.
///
/// For each feature, the subsampled rows (`0, s, 2s, …`) are sorted once so
/// that `Σ_k |v - X[k]|` over **all** subsampled rows can be answered per query
/// in `O(log L)`, and it is asked once per (row, feature). The contribution of
/// subsampled rows that fall *inside* a candidate window is then subtracted
/// directly (there are at most `W / s + 1` of them), which reproduces the
/// pseudo-code's result up to rounding.
///
/// Candidates `i` with the same first in-window grid row `g = ⌈i/s⌉·s`, at
/// most `s` of them, subtract the same grid rows `g, g + s, …` from the same
/// totals in the same order, each up to its own last grid row
/// `⌊(i + W − 1)/s⌋·s`: one candidate's chain is a prefix of its
/// neighbour's. Their windows end on at most `s` adjacent rows, so the
/// chains of a group end at two adjacent lengths at most. The group walks
/// one chain per row, with the totals of up to eight features at a time in
/// registers, and computes `total / norm_outside` at each end that a
/// candidate holding the row reads (the bare grid sum when no grid row falls
/// inside the window). Each candidate adds its rows' quotients into its own
/// distance vector in ascending row order. Every distance is therefore the
/// same sequence of IEEE operations as a chain per candidate (the oracle of
/// `tests/algorithm_kernel.rs`), bit for bit.
///
/// Cost: the index and the per-(row, feature) grid sums are
/// `O(L · F · log L)`. The candidate loop takes about
/// `⌈(L − W)/s⌉ · (W + s − 1) · (W/s + 1) · F` subtractions (`s`× fewer
/// than a chain per candidate) and `(L − W) · W · F` additions. It keeps
/// `min(s, L − W)` distance vectors of `F` values plus one quotient row per
/// chain end, whatever the step.
fn distance_profile(matrix: &FeatureMatrix, w_len: usize, step: usize) -> Vec<f64> {
    let rows = matrix.num_windows();
    let features = matrix.num_features();
    let candidates = rows - w_len;
    let norm_outside = ((rows - w_len) as f64 / step as f64).max(1.0);

    // Subsampled row indices (the `k` loop of the pseudo-code).
    let grid: Vec<usize> = (0..rows).step_by(step).collect();

    // Per feature: sorted grid values plus prefix sums.
    struct FeatureIndex {
        sorted: Vec<f64>,
        prefix: Vec<f64>,
    }
    let mut index = Vec::with_capacity(features);
    for f in 0..features {
        // `total_cmp` keeps the prefix-sum index totally ordered even when a
        // corrupted feature column carries NaN (the former `Equal` fallback
        // produced an arbitrarily mis-sorted index, skewing every query).
        let mut sorted: Vec<f64> = grid.iter().map(|&k| matrix.get(k, f)).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        for v in &sorted {
            prefix.push(prefix.last().unwrap() + v);
        }
        index.push(FeatureIndex { sorted, prefix });
    }

    // Σ over all grid rows of |v - x| for one feature, in O(log G).
    let sum_abs_all = |f: usize, v: f64| -> f64 {
        let fi = &index[f];
        let n = fi.sorted.len();
        let pos = fi.sorted.partition_point(|x| *x <= v);
        let below = v * pos as f64 - fi.prefix[pos];
        let above = (fi.prefix[n] - fi.prefix[pos]) - v * (n - pos) as f64;
        below + above
    };

    // The grid sum of a value depends only on its row and feature, so it is
    // computed once per (row, feature) here instead of once for every
    // candidate window containing the row.
    let data = matrix.data();
    let grid_sums: Vec<f64> = data
        .iter()
        .enumerate()
        .map(|(at, &v)| sum_abs_all(at % features, v))
        .collect();

    // One chain group at a time, in candidate order.
    let mut distances = vec![0.0; candidates];
    let mut distance_vectors = vec![0.0; step.min(candidates) * features];
    let (mut at_short, mut at_long) = (vec![0.0; features], vec![0.0; features]);
    let mut i0 = 0;
    while i0 < candidates {
        // Candidates `i0..=last` share the first in-window grid row
        // `chain_row · step`, which is less than `i0 + step`, so no sum here
        // overflows.
        let chain_row = i0.div_ceil(step);
        let len = (chain_row * step - i0 + 1).min(candidates - i0);
        let last = i0 + len - 1;
        // The number of grid rows inside candidate `i`'s window. The group's
        // windows end on at most `step` adjacent rows, so it takes two
        // adjacent values at most: `short` and `long`.
        let chain_len = |i: usize| (i + w_len - 1) / step + 1 - chain_row;
        let (short, long) = (chain_len(i0), chain_len(last));
        let group = &mut distance_vectors[..len * features];
        group.fill(0.0);
        for r in i0..last + w_len {
            // The group's candidates whose windows hold row `r`.
            let (lo, hi) = ((r + 1).saturating_sub(w_len).max(i0), r.min(last));
            let chain = RowChain {
                data,
                features,
                row: r,
                chain_row,
                step,
                short,
                norm_outside,
                need_short: chain_len(lo) == short,
                need_long: long > short && chain_len(hi) == long,
            };
            let totals = &grid_sums[r * features..(r + 1) * features];
            let mut c0 = 0;
            while c0 < features {
                c0 += match features - c0 {
                    8.. => chain.walk::<8>(c0, totals, &mut at_short, &mut at_long),
                    4.. => chain.walk::<4>(c0, totals, &mut at_short, &mut at_long),
                    2.. => chain.walk::<2>(c0, totals, &mut at_short, &mut at_long),
                    _ => chain.walk::<1>(c0, totals, &mut at_short, &mut at_long),
                };
            }
            for i in lo..=hi {
                let quotients = if chain_len(i) == short {
                    &at_short
                } else {
                    &at_long
                };
                let at = (i - i0) * features;
                for (d, &q) in group[at..at + features].iter_mut().zip(quotients) {
                    *d += q;
                }
            }
        }
        for (distance, vector) in distances[i0..=last]
            .iter_mut()
            .zip(group.chunks_exact(features))
        {
            *distance = vector
                .iter()
                .map(|v| {
                    let v = v / w_len as f64;
                    v * v
                })
                .sum::<f64>()
                .sqrt();
        }
        i0 += len;
    }
    distances
}

/// One row's subtraction chain for a group of candidates that share their
/// first in-window grid row.
struct RowChain<'a> {
    data: &'a [f64],
    features: usize,
    row: usize,
    /// The first in-window grid row is `chain_row · step`.
    chain_row: usize,
    step: usize,
    /// Grid rows in the group's shorter windows; the longer hold one more.
    short: usize,
    norm_outside: f64,
    /// Whether a candidate holding this row ends its chain at `short`, or
    /// at `short + 1`, grid rows.
    need_short: bool,
    need_long: bool,
}

impl RowChain<'_> {
    /// Walks the chain over features `c0..c0 + N`, whose totals stay in
    /// registers: from the row's grid sums, subtracts `|v − X[k]|` for the
    /// `short` grid rows in ascending order and stores `total /
    /// norm_outside` in `at_short`, then subtracts one more grid row and
    /// stores into `at_long`, each only where a candidate reads it. Returns
    /// `N`.
    // lint: hot-path
    #[inline(always)]
    fn walk<const N: usize>(
        &self,
        c0: usize,
        grid_sums: &[f64],
        at_short: &mut [f64],
        at_long: &mut [f64],
    ) -> usize {
        let mut totals = [0.0; N];
        totals.copy_from_slice(&grid_sums[c0..c0 + N]);
        let inside = &self.data[self.row * self.features + c0..][..N];
        let subtract = |totals: &mut [f64; N], j: usize| {
            let k = (self.chain_row + j) * self.step;
            let grid_row = &self.data[k * self.features + c0..][..N];
            for ((total, &v), &x) in totals.iter_mut().zip(inside).zip(grid_row) {
                *total -= (v - x).abs();
            }
        };
        for j in 0..self.short {
            subtract(&mut totals, j);
        }
        if self.need_short {
            for (q, &total) in at_short[c0..c0 + N].iter_mut().zip(&totals) {
                *q = total / self.norm_outside;
            }
        }
        if self.need_long {
            subtract(&mut totals, self.short);
            for (q, &total) in at_long[c0..c0 + N].iter_mut().zip(&totals) {
                *q = total / self.norm_outside;
            }
        }
        N
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_with_anomaly(
        rows: usize,
        anomaly: std::ops::Range<usize>,
        strength: f64,
    ) -> FeatureMatrix {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|i| {
                let base = (i as f64 * 0.7).sin() * 0.3;
                let spike = if anomaly.contains(&i) { strength } else { 0.0 };
                vec![
                    base + spike,
                    base * 0.5 - spike,
                    (i as f64 * 0.31).cos() * 0.2,
                ]
            })
            .collect();
        FeatureMatrix::from_rows(vec!["a".into(), "b".into(), "c".into()], data).unwrap()
    }

    #[test]
    fn detects_an_obvious_anomaly() {
        let matrix = matrix_with_anomaly(120, 40..60, 6.0);
        let detection = posteriori_detect(&matrix, 20, &DetectorConfig::default()).unwrap();
        assert!((38..=42).contains(&detection.window_index));
        assert!(detection.peak_distance() > 0.0);
        assert_eq!(detection.distances.len(), 100);
    }

    /// Regression for the NaN-unsafe peak selection: a NaN feature value
    /// poisons the distance of every candidate window containing it, and
    /// those candidates sit *after* the true peak here — the former
    /// `partial_cmp().unwrap_or(Equal)` fold let the last NaN candidate
    /// displace the real seizure window. NaN must rank worst, without
    /// panicking.
    #[test]
    fn nan_features_never_win_the_detection() {
        let mut distances: Vec<f64> = (0..25)
            .map(|i| 1.0 / (1.0 + (i as f64 - 10.0).abs()))
            .collect();
        distances[21..25].fill(f64::NAN);
        assert_eq!(peak_index(&distances), 10);
        assert_eq!(peak_index(&[f64::NAN, 0.5, f64::NAN, 0.25]), 1);
        // A profile poisoned throughout still selects a candidate.
        assert_eq!(peak_index(&[f64::NAN; 3]), 2);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let matrix = matrix_with_anomaly(50, 10..20, 3.0);
        assert!(posteriori_detect(&matrix, 0, &DetectorConfig::default()).is_err());
        assert!(posteriori_detect(&matrix, 50, &DetectorConfig::default()).is_err());
        assert!(posteriori_detect(&matrix, 60, &DetectorConfig::default()).is_err());
        let bad_step = DetectorConfig { subsample_step: 0 };
        assert!(posteriori_detect(&matrix, 10, &bad_step).is_err());
    }

    #[test]
    fn anomaly_at_the_very_start_and_end() {
        let start = matrix_with_anomaly(90, 0..15, 5.0);
        let det = posteriori_detect(&start, 15, &DetectorConfig::default()).unwrap();
        assert!(det.window_index <= 2);

        let end = matrix_with_anomaly(90, 75..90, 5.0);
        let det = posteriori_detect(&end, 15, &DetectorConfig::default()).unwrap();
        assert!(det.window_index >= 72);
    }

    #[test]
    fn distance_profile_peaks_at_the_anomaly_and_decays_away() {
        let matrix = matrix_with_anomaly(150, 60..80, 5.0);
        let det = posteriori_detect(&matrix, 20, &DetectorConfig::default()).unwrap();
        let far_away = det.distances[5];
        let at_peak = det.distances[det.window_index];
        assert!(at_peak > 2.0 * far_away);
    }

    #[test]
    fn window_length_one_is_supported() {
        let matrix = matrix_with_anomaly(40, 20..21, 8.0);
        let det = posteriori_detect(&matrix, 1, &DetectorConfig::default()).unwrap();
        assert_eq!(det.window_index, 20);
    }

    #[test]
    fn normalization_makes_detection_scale_invariant() {
        // Multiply one feature by a huge constant: with normalization the
        // detected position must not change.
        let matrix = matrix_with_anomaly(100, 40..55, 4.0);
        let mut scaled_rows = matrix.to_rows();
        for row in &mut scaled_rows {
            row[2] *= 1e6;
        }
        let scaled =
            FeatureMatrix::from_rows(matrix.feature_names().to_vec(), scaled_rows).unwrap();
        let a = posteriori_detect(&matrix, 15, &DetectorConfig::default()).unwrap();
        let b = posteriori_detect(&scaled, 15, &DetectorConfig::default()).unwrap();
        assert_eq!(a.window_index, b.window_index);
    }
}
