//! Bit-identity of Algorithm 1's hoisted grid sums.
//!
//! The optimized implementation answers `Σ_k |v − X[k][f]|` over the whole
//! subsample grid once per (row, feature) and reuses it for every candidate
//! window that contains the row. The oracle below is the loop it replaced:
//! it asks the sorted prefix-sum index again for each candidate and collects
//! the in-window grid rows per candidate. Every distance is compared under
//! `to_bits()`, on random matrices with and without NaN-laced rows, for
//! subsampling steps 1–5 and every window length from 1 to rows − 1, and for
//! steps past the window and the record up to `usize::MAX`. The
//! optimized scorer walks the candidates on the calling thread in groups
//! that share a subtraction chain, so the oracle is also checked on
//! candidate counts that fill a group partly, exactly or with a remainder.
//!
//! The oracle cases stop at 300 rows, so the labeling-scale distances are
//! also pinned: the length and FNV-1a hash of the distance bits and the
//! detected row, on the paper features of a 45-minute cohort record per
//! patient at the self-learning loop's geometry. Those features stream
//! through the batch engine one block of rows per worker, so the pins also
//! hold the paper rows to their bits at any thread count.

use proptest::prelude::*;
use selflearn_seizure::core::algorithm::{posteriori_detect, DetectorConfig};
use selflearn_seizure::core::labeler::PosterioriLabeler;
use selflearn_seizure::core::workspace::FeatureWorkspace;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;
use selflearn_seizure::features::normalize::normalize_features;
use selflearn_seizure::features::FeatureMatrix;
use selflearn_seizure::ml::persist::fnv1a;

/// The per-candidate loop the hoist replaced, on the normalized matrix the
/// detector scores.
fn oracle_distances(matrix: &FeatureMatrix, w_len: usize, step: usize) -> Vec<f64> {
    let rows = matrix.num_windows();
    let features = matrix.num_features();
    let candidates = rows - w_len;
    let norm_outside = ((rows - w_len) as f64 / step as f64).max(1.0);
    let grid: Vec<usize> = (0..rows).step_by(step).collect();
    let mut sorted_columns = Vec::with_capacity(features);
    let mut prefixes = Vec::with_capacity(features);
    for f in 0..features {
        let mut sorted: Vec<f64> = grid.iter().map(|&k| matrix.get(k, f)).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut prefix = vec![0.0];
        for v in &sorted {
            prefix.push(prefix.last().unwrap() + v);
        }
        sorted_columns.push(sorted);
        prefixes.push(prefix);
    }
    let sum_abs_all = |f: usize, v: f64| -> f64 {
        let (sorted, prefix) = (&sorted_columns[f], &prefixes[f]);
        let n = sorted.len();
        let pos = sorted.partition_point(|x| *x <= v);
        let below = v * pos as f64 - prefix[pos];
        let above = (prefix[n] - prefix[pos]) - v * (n - pos) as f64;
        below + above
    };

    let mut distances = Vec::with_capacity(candidates);
    for i in 0..candidates {
        let first_inside = i.div_ceil(step) * step;
        let inside_grid: Vec<usize> = (first_inside..i + w_len).step_by(step).collect();
        let mut distance_vector = vec![0.0; features];
        for w in 0..w_len {
            let inside = matrix.row(i + w);
            for f in 0..features {
                let v = inside[f];
                let mut total = sum_abs_all(f, v);
                for &k in &inside_grid {
                    total -= (v - matrix.get(k, f)).abs();
                }
                distance_vector[f] += total / norm_outside;
            }
        }
        let norm: f64 = distance_vector
            .iter()
            .map(|v| {
                let v = v / w_len as f64;
                v * v
            })
            .sum::<f64>()
            .sqrt();
        distances.push(norm);
    }
    distances
}

/// A `rows × features` matrix of uniform noise; with `nan_every > 0`, every
/// row whose index is a multiple of it has one NaN feature.
fn random_matrix(seed: u64, rows: usize, features: usize, nan_every: usize) -> FeatureMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let names = (0..features).map(|i| format!("f{i}")).collect();
    let data = (0..rows)
        .map(|r| {
            (0..features)
                .map(|f| {
                    if nan_every > 0 && r % nan_every == 0 && f == r % features {
                        f64::NAN
                    } else {
                        next()
                    }
                })
                .collect()
        })
        .collect();
    FeatureMatrix::from_rows(names, data).unwrap()
}

/// The detector's distances for one window length and step against the
/// oracle, bit for bit.
fn assert_matches_oracle(
    matrix: &FeatureMatrix,
    normalized: &FeatureMatrix,
    w: usize,
    step: usize,
    case: &str,
) {
    let rows = matrix.num_windows();
    let config = DetectorConfig {
        subsample_step: step,
    };
    let detection = posteriori_detect(matrix, w, &config).unwrap();
    let expected = oracle_distances(normalized, w, step);
    assert_eq!(detection.distances.len(), expected.len());
    for (c, (a, b)) in detection.distances.iter().zip(&expected).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{case}, rows {rows}, W {w}, step {step}: \
             candidate {c} reads {a}, the pre-hoist loop {b}"
        );
    }
}

/// The given window lengths at steps 1–5 against the oracle.
fn assert_bit_identical(matrix: &FeatureMatrix, windows: &[usize], case: &str) {
    let normalized = normalize_features(matrix).unwrap();
    for step in 1..=5 {
        for &w in windows {
            assert_matches_oracle(matrix, &normalized, w, step, case);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hoisted_grid_sums_match_the_per_candidate_loop(
        seed in 0u64..1_000_000,
        rows in 2usize..48,
        features in 1usize..6,
        nan_every in 0usize..8,
    ) {
        let matrix = random_matrix(seed, rows, features, nan_every);
        let every_window: Vec<usize> = (1..rows).collect();
        assert_bit_identical(&matrix, &every_window, &format!("seed {seed}, nan_every {nan_every}"));
    }
}

#[test]
fn hoisted_grid_sums_match_at_labeling_scale() {
    // A paper-like shape: ten features and a 74-row seizure window, plus
    // the extreme window lengths: up to 299 candidates.
    let matrix = random_matrix(7, 300, 10, 0);
    assert_bit_identical(&matrix, &[1, 2, 37, 74, 299], "seed 7, clean");
    let laced = random_matrix(8, 300, 10, 13);
    assert_bit_identical(&laced, &[1, 74, 299], "seed 8, nan_every 13");
}

#[test]
fn candidate_counts_around_the_serial_cutoff_match() {
    // Candidate counts from one to a few dozen: chain groups of the default
    // step filled partly, exactly and with a remainder.
    for candidates in [1usize, 2, 7, 8, 15, 16, 17, 31, 33] {
        for w in [1usize, 9, 74] {
            let matrix = random_matrix(candidates as u64, w + candidates, 4, 5);
            assert_bit_identical(&matrix, &[w], &format!("{candidates} candidates"));
        }
    }
}

#[test]
fn steps_past_the_window_and_the_record_match() {
    // Candidates that share their first in-window grid row share one
    // subtraction chain, so a group holds up to `step` candidates. Window
    // lengths around the step put zero, one or two grid rows in a window;
    // candidate counts around it fill a group partly, exactly or with a
    // remainder.
    for step in [6usize, 7, 16, 64] {
        for w in [1, step - 1, step, step + 1] {
            for candidates in [step - 1, step, step + 1, 2 * step + 3, 40] {
                for nan_every in [0, 5] {
                    let seed = (step * 1_000 + w * 10 + candidates) as u64;
                    let matrix = random_matrix(seed, w + candidates, 3, nan_every);
                    let normalized = normalize_features(&matrix).unwrap();
                    let case = format!("{candidates} candidates, nan_every {nan_every}");
                    assert_matches_oracle(&matrix, &normalized, w, step, &case);
                }
            }
        }
    }
    // Steps at and past the record: one grid row (row 0), so every
    // candidate but the first falls in one group, and `usize::MAX` must not
    // overflow the group or grid-row arithmetic.
    for rows in [2usize, 9, 33, 61] {
        for nan_every in [0, 4] {
            let matrix = random_matrix(rows as u64, rows, 4, nan_every);
            let normalized = normalize_features(&matrix).unwrap();
            let case = format!("nan_every {nan_every}");
            for step in [
                rows - 1,
                rows,
                rows + 1,
                usize::MAX / 2,
                usize::MAX - 1,
                usize::MAX,
            ] {
                for w in [1, 2, rows / 2, rows - 1] {
                    if (1..rows).contains(&w) {
                        assert_matches_oracle(&matrix, &normalized, w, step, &case);
                    }
                }
            }
        }
    }
}

#[test]
fn labeling_scale_distances_are_pinned() {
    // 45-minute records at 256 Hz: 4 s windows with a 1 s hop give
    // L = 2 697 rows, scored at the paper's step s = 4. The window length
    // is each patient's average seizure duration in rows.
    let cohort = Cohort::chb_mit_like(2019);
    let config = SampleConfig::new(2700.0, 2700.0, 256.0).unwrap();
    let labeler = PosterioriLabeler::default();
    let expected = [
        // (patient index, W, (distances, FNV-1a of their bits), peak row)
        (8, 60, (2637, 0x5c53_fc95_809a_aa28), 1440),
        (3, 74, (2623, 0xccd5_f59a_6fce_9ebf), 1709),
    ];
    for (patient, w_rows, pin, peak) in expected {
        let w = cohort.average_seizure_duration(patient).unwrap().round() as usize;
        assert_eq!(w, w_rows, "patient {}: average seizure rows", patient + 1);
        let record = cohort.sample_record(patient, 0, &config, 1).unwrap();
        let mut workspace = FeatureWorkspace::new();
        labeler
            .extract_features_with(record.signal(), &mut workspace)
            .unwrap();
        assert_eq!(workspace.matrix().num_windows(), 2697);
        let detection =
            posteriori_detect(workspace.matrix(), w_rows, &labeler.config().detector).unwrap();
        let bytes: Vec<u8> = detection
            .distances
            .iter()
            .flat_map(|d| d.to_bits().to_le_bytes())
            .collect();
        let got = (detection.distances.len(), fnv1a(&bytes));
        assert_eq!(
            (got, detection.window_index),
            (pin, peak),
            "patient {}, W {w_rows}: the distance bits moved (got len {}, fnv1a {:#018x}, peak {})",
            patient + 1,
            got.0,
            got.1,
            detection.window_index
        );
    }
}
