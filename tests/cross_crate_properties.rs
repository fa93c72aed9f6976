//! Cross-crate property-based tests on the core invariants of the
//! methodology.

use proptest::prelude::*;
use selflearn_seizure::core::algorithm::{posteriori_detect, DetectorConfig};
use selflearn_seizure::core::metric::{deviation_seconds, normalized_deviation};
use selflearn_seizure::features::normalize::normalize_features;
use selflearn_seizure::features::FeatureMatrix;

fn feature_matrix(rows: usize, features: usize, seed: u64) -> FeatureMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let names = (0..features).map(|i| format!("f{i}")).collect();
    let data = (0..rows)
        .map(|_| (0..features).map(|_| next()).collect())
        .collect();
    FeatureMatrix::from_rows(names, data).unwrap()
}

/// Literal transcription of the paper's pseudo-code (`O(L²WF)`), on the
/// normalized matrix.
fn reference_distances(matrix: &FeatureMatrix, w_len: usize, step: usize) -> Vec<f64> {
    let rows = matrix.num_windows();
    let features = matrix.num_features();
    let candidates = rows - w_len;
    let norm_outside = ((rows - w_len) as f64 / step as f64).max(1.0);
    let mut distances = Vec::with_capacity(candidates);

    for i in 0..candidates {
        let mut distance_vector = vec![0.0; features];
        for w in 0..w_len {
            let inside = matrix.row(i + w);
            let mut edge = vec![0.0; features];
            let mut k = 0;
            while k < rows {
                if k < i || k >= i + w_len {
                    let outside = matrix.row(k);
                    for f in 0..features {
                        edge[f] += (inside[f] - outside[f]).abs();
                    }
                }
                k += step;
            }
            for f in 0..features {
                distance_vector[f] += edge[f] / norm_outside;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Algorithm 1's prefix-sum implementation is equivalent to the paper's
    /// pseudo-code on arbitrary feature matrices.
    #[test]
    fn optimized_algorithm_matches_reference(
        rows in 20usize..70,
        features in 1usize..6,
        window in 2usize..12,
        step in 1usize..6,
        seed in 0u64..500,
    ) {
        prop_assume!(rows > window + 2);
        let matrix = feature_matrix(rows, features, seed);
        let reference = reference_distances(&normalize_features(&matrix).unwrap(), window, step);
        let optimized = posteriori_detect(&matrix, window, &DetectorConfig { subsample_step: step })
            .unwrap();
        let reference_peak = reference
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        prop_assert_eq!(reference_peak, optimized.window_index);
        prop_assert_eq!(reference.len(), optimized.distances.len());
        for (a, b) in reference.iter().zip(optimized.distances.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// A strong injected anomaly is always found near its true position.
    #[test]
    fn algorithm_finds_a_strong_anomaly(
        rows in 40usize..100,
        window in 5usize..15,
        onset_frac in 0.1f64..0.8,
        seed in 0u64..200,
    ) {
        let onset = ((rows as f64 * onset_frac) as usize).min(rows - window - 1);
        let mut matrix = feature_matrix(rows, 4, seed);
        for r in onset..onset + window {
            for c in 0..4 {
                *matrix.get_mut(r, c) += 15.0;
            }
        }
        let detection = posteriori_detect(&matrix, window, &DetectorConfig::default()).unwrap();
        let error = detection.window_index.abs_diff(onset);
        prop_assert!(error <= 2, "onset {onset}, detected {}", detection.window_index);
    }

    /// δ is symmetric in its arguments, zero only for identical intervals, and
    /// δ_norm always lies in [0, 1].
    #[test]
    fn metric_properties(
        a_start in 0.0f64..1000.0,
        a_len in 1.0f64..300.0,
        b_start in 0.0f64..1000.0,
        b_len in 1.0f64..300.0,
    ) {
        let a = (a_start, a_start + a_len);
        let b = (b_start, b_start + b_len);
        let dab = deviation_seconds(a, b).unwrap();
        let dba = deviation_seconds(b, a).unwrap();
        prop_assert!((dab - dba).abs() < 1e-9);
        prop_assert!(dab >= 0.0);
        prop_assert_eq!(deviation_seconds(a, a).unwrap(), 0.0);

        let signal_len = 4000.0;
        let dnorm = normalized_deviation(a, b, signal_len).unwrap();
        prop_assert!((0.0..=1.0).contains(&dnorm));
        prop_assert_eq!(normalized_deviation(a, a, signal_len).unwrap(), 1.0);
    }

    /// δ satisfies the triangle inequality (it is half an L1 distance on
    /// interval endpoints).
    #[test]
    fn metric_triangle_inequality(
        a in (0.0f64..500.0, 1.0f64..100.0),
        b in (0.0f64..500.0, 1.0f64..100.0),
        c in (0.0f64..500.0, 1.0f64..100.0),
    ) {
        let ia = (a.0, a.0 + a.1);
        let ib = (b.0, b.0 + b.1);
        let ic = (c.0, c.0 + c.1);
        let ab = deviation_seconds(ia, ib).unwrap();
        let bc = deviation_seconds(ib, ic).unwrap();
        let ac = deviation_seconds(ia, ic).unwrap();
        prop_assert!(ac <= ab + bc + 1e-9);
    }
}
