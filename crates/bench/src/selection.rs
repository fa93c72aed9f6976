//! Backward elimination and column projection for study E9.
//!
//! The paper sorts its candidate features "in order of relevance" with
//! backward elimination (Devijver & Kittler, 1982) and keeps the ten most
//! relevant ones. E9 ranks those ten on held-out records with the same
//! procedure and then labels with the top `k`; these are the two steps it
//! runs.

use seizure_dsp::stats;
use seizure_features::{FeatureError, FeatureMatrix};

/// Ranks the features of `matrix` from most to least relevant by backward
/// elimination.
///
/// A subset scores the mean Fisher score of its columns, a
/// class-separability criterion that needs no classifier. Starting from the
/// full set, the feature whose removal leaves the best-scoring subset is
/// eliminated, until one is left; the elimination order, reversed, is the
/// ranking. A NaN subset score counts as the worst possible, so a corrupted
/// column is shed first instead of scrambling the order.
///
/// # Errors
///
/// Returns [`FeatureError::DimensionMismatch`] if `labels` does not have one
/// entry per window or the matrix has no features.
pub(crate) fn backward_elimination(
    matrix: &FeatureMatrix,
    labels: &[bool],
) -> Result<Vec<usize>, FeatureError> {
    if labels.len() != matrix.num_windows() {
        return Err(FeatureError::DimensionMismatch {
            detail: format!(
                "expected one label per window ({} windows, {} labels)",
                matrix.num_windows(),
                labels.len()
            ),
        });
    }
    if matrix.num_features() == 0 {
        return Err(FeatureError::DimensionMismatch {
            detail: "cannot run backward elimination without features".to_string(),
        });
    }
    let fisher: Vec<f64> = (0..matrix.num_features())
        .map(|c| fisher_score_column(&matrix.column(c), labels))
        .collect();
    let mut remaining: Vec<usize> = (0..matrix.num_features()).collect();
    let mut eliminated: Vec<usize> = Vec::with_capacity(matrix.num_features());
    while remaining.len() > 1 {
        // Find the feature whose removal leaves the best-scoring subset.
        let mut best_idx = 0;
        let mut best_score = f64::NEG_INFINITY;
        for pos in 0..remaining.len() {
            let mut total = 0.0;
            for (p, &f) in remaining.iter().enumerate() {
                if p != pos {
                    total += fisher[f];
                }
            }
            let s = total / (remaining.len() - 1) as f64;
            let s = if s.is_nan() { f64::NEG_INFINITY } else { s };
            if s > best_score {
                best_score = s;
                best_idx = pos;
            }
        }
        eliminated.push(remaining.remove(best_idx));
    }
    eliminated.push(remaining[0]);
    eliminated.reverse();
    Ok(eliminated)
}

/// Fisher score of one feature column for a binary labeling:
/// `(mean_1 - mean_0)^2 / (var_1 + var_0)`. Returns `0` for degenerate cases
/// (one class empty or both variances zero with equal means).
fn fisher_score_column(column: &[f64], labels: &[bool]) -> f64 {
    let positives: Vec<f64> = column
        .iter()
        .zip(labels.iter())
        .filter_map(|(x, &l)| l.then_some(*x))
        .collect();
    let negatives: Vec<f64> = column
        .iter()
        .zip(labels.iter())
        .filter_map(|(x, &l)| (!l).then_some(*x))
        .collect();
    if positives.is_empty() || negatives.is_empty() {
        return 0.0;
    }
    let m1 = stats::mean(&positives).unwrap_or(0.0);
    let m0 = stats::mean(&negatives).unwrap_or(0.0);
    let v1 = stats::variance(&positives).unwrap_or(0.0);
    let v0 = stats::variance(&negatives).unwrap_or(0.0);
    let denom = v1 + v0;
    let num = (m1 - m0) * (m1 - m0);
    if denom <= 0.0 {
        if num > 0.0 {
            return f64::INFINITY;
        }
        return 0.0;
    }
    num / denom
}

/// A new matrix holding the columns of `matrix` at `indices`, in that order.
///
/// # Errors
///
/// Returns [`FeatureError::DimensionMismatch`] if any index is out of range.
pub(crate) fn select_columns(
    matrix: &FeatureMatrix,
    indices: &[usize],
) -> Result<FeatureMatrix, FeatureError> {
    if let Some(i) = indices.iter().find(|&&i| i >= matrix.num_features()) {
        return Err(FeatureError::DimensionMismatch {
            detail: format!(
                "column index {i} out of range for a matrix with {} features",
                matrix.num_features()
            ),
        });
    }
    let names = indices
        .iter()
        .map(|&i| matrix.feature_names()[i].clone())
        .collect();
    let rows = matrix
        .rows()
        .map(|row| indices.iter().map(|&i| row[i]).collect())
        .collect();
    FeatureMatrix::from_rows(names, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three features: #0 strongly separates classes, #1 weakly, #2 is noise.
    fn labeled_matrix() -> (FeatureMatrix, Vec<bool>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let noise = ((i * 37 + 11) % 17) as f64 / 17.0 - 0.5;
            if i < 20 {
                rows.push(vec![0.0 + noise * 0.1, 1.0 + noise, noise]);
                labels.push(false);
            } else {
                rows.push(vec![10.0 + noise * 0.1, 1.8 + noise, noise]);
                labels.push(true);
            }
        }
        (
            FeatureMatrix::from_rows(vec!["strong".into(), "weak".into(), "noise".into()], rows)
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn fisher_score_orders_by_separability() {
        let (m, labels) = labeled_matrix();
        let scores: Vec<f64> = (0..3)
            .map(|c| fisher_score_column(&m.column(c), &labels))
            .collect();
        assert!(scores[0] > scores[1]);
        assert!(scores[1] > scores[2]);
    }

    #[test]
    fn fisher_score_degenerate_cases() {
        assert_eq!(fisher_score_column(&[1.0, 2.0], &[true, true]), 0.0);
        assert_eq!(fisher_score_column(&[1.0, 1.0], &[true, false]), 0.0);
        assert_eq!(
            fisher_score_column(&[1.0, 2.0], &[false, true]),
            f64::INFINITY
        );
    }

    #[test]
    fn backward_elimination_ranks_strong_feature_first() {
        let (m, labels) = labeled_matrix();
        assert_eq!(backward_elimination(&m, &labels).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn nan_feature_column_is_ranked_last_without_panicking() {
        // A corrupted (NaN) column makes every subset containing it score
        // NaN; the ranking must shed it first instead of letting NaN
        // comparisons scramble the elimination order.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let x = if i < 15 { 0.0 } else { 10.0 };
            rows.push(vec![x, f64::NAN]);
            labels.push(i >= 15);
        }
        let m = FeatureMatrix::from_rows(vec!["clean".into(), "nan".into()], rows).unwrap();
        assert_eq!(backward_elimination(&m, &labels).unwrap(), vec![0, 1]);
    }

    #[test]
    fn single_feature_matrix_ranks_trivially() {
        let m = FeatureMatrix::from_rows(
            vec!["only".into()],
            vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]],
        )
        .unwrap();
        let labels = vec![false, false, true, true];
        assert_eq!(backward_elimination(&m, &labels).unwrap(), vec![0]);
    }

    #[test]
    fn label_length_mismatch_and_empty_matrix_are_rejected() {
        let (m, _) = labeled_matrix();
        assert!(backward_elimination(&m, &[true]).is_err());
        let empty = FeatureMatrix::with_names(vec![]);
        assert!(backward_elimination(&empty, &[]).is_err());
    }

    #[test]
    fn select_columns_projects_and_orders() {
        let m = FeatureMatrix::from_rows(
            vec!["f1".into(), "f2".into(), "f3".into()],
            vec![
                vec![1.0, 2.0, 3.0],
                vec![4.0, 5.0, 6.0],
                vec![7.0, 8.0, 9.0],
            ],
        )
        .unwrap();
        let p = select_columns(&m, &[2, 0]).unwrap();
        assert_eq!(p.num_features(), 2);
        assert_eq!(p.feature_names(), &["f3".to_string(), "f1".to_string()]);
        assert_eq!(p.row(1), &[6.0, 4.0]);
        assert!(select_columns(&m, &[5]).is_err());
    }
}
