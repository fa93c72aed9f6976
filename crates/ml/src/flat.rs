//! Flat, cache-friendly storage of fitted random forests.
//!
//! [`FlatForest`] holds every tree of the ensemble in struct-of-arrays node
//! storage — split feature, threshold, child indices and leaf probability
//! each in one contiguous `Vec`, trees in DFS preorder — and predicts
//! batches over a single flat row-major feature matrix, one row after
//! another on the calling thread. The training engine grows its trees
//! straight into this layout ([`crate::incremental::IncrementalTrainer::retrain`]
//! returns one), so a prediction never chases a boxed node pointer.
//!
//! A tree's probability is its leaf's positive fraction, reached by `<=`
//! comparisons from the root; the ensemble probability sums the trees in
//! order and divides by their count. The crate's test oracle checks both
//! against a recursive walk of boxed trees, bit for bit.

use crate::error::MlError;

/// Sentinel marking a leaf in the `feature` array.
pub(crate) const LEAF: u32 = u32::MAX;

/// A fitted random forest in struct-of-arrays node storage.
///
/// # Example
///
/// ```
/// use seizure_ml::{IncrementalTrainer, IncrementalTrainerConfig};
///
/// # fn main() -> Result<(), seizure_ml::MlError> {
/// // Thirty samples of two features, row-major; the second half positive.
/// let rows: Vec<f64> = (0..30).flat_map(|i| [i as f64, (i * 7 % 5) as f64]).collect();
/// let labels: Vec<bool> = (0..30).map(|i| i >= 15).collect();
/// let mut trainer = IncrementalTrainer::new(IncrementalTrainerConfig::default(), 1);
/// let flat = trainer.retrain(&rows, 2, &labels)?;
///
/// // Flat batch input: two samples ([29, 1] and [1, 3]).
/// let matrix = [29.0, 1.0, 1.0, 3.0];
/// assert_eq!(flat.predict_batch(&matrix, 2)?, [true, false]);
/// assert!(flat.predict_proba(&[29.0, 1.0]) > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    pub(crate) num_features: usize,
    /// Index of each tree's root node in the node arrays.
    pub(crate) roots: Vec<u32>,
    /// Split feature per node; [`LEAF`] marks leaves.
    pub(crate) feature: Vec<u32>,
    /// Split threshold per node (unused for leaves).
    pub(crate) threshold: Vec<f64>,
    /// Left child (taken when `sample[feature] <= threshold`).
    pub(crate) left: Vec<u32>,
    /// Right child.
    pub(crate) right: Vec<u32>,
    /// Positive-class probability for leaves (unused for splits).
    pub(crate) leaf_prob: Vec<f64>,
}

impl FlatForest {
    /// Assembles a flat forest directly from struct-of-arrays node storage,
    /// as the training engine stitches its per-tree arenas.
    pub(crate) fn from_raw_parts(
        num_features: usize,
        roots: Vec<u32>,
        feature: Vec<u32>,
        threshold: Vec<f64>,
        left: Vec<u32>,
        right: Vec<u32>,
        leaf_prob: Vec<f64>,
    ) -> Self {
        Self {
            num_features,
            roots,
            feature,
            threshold,
            left,
            right,
            leaf_prob,
        }
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Number of features the forest was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Total number of nodes across all trees.
    pub fn num_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Positive-class probability of one tree for one sample.
    // lint: hot-path
    #[inline]
    fn tree_proba(&self, root: u32, sample: &[f64]) -> f64 {
        let mut idx = root as usize;
        loop {
            let feature = self.feature[idx];
            if feature == LEAF {
                return self.leaf_prob[idx];
            }
            idx = if sample[feature as usize] <= self.threshold[idx] {
                self.left[idx] as usize
            } else {
                self.right[idx] as usize
            };
        }
    }

    /// Average positive-class probability over all trees, summed in tree
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the sample has fewer features than the training data.
    // lint: hot-path
    pub fn predict_proba(&self, sample: &[f64]) -> f64 {
        let sum: f64 = self.roots.iter().map(|&r| self.tree_proba(r, sample)).sum();
        sum / self.roots.len() as f64
    }

    /// Majority-vote class prediction: positive when at least half the
    /// trees reach a leaf with probability `>= 0.5`.
    pub fn predict(&self, sample: &[f64]) -> bool {
        2 * self.votes(sample) >= self.roots.len()
    }

    // lint: hot-path
    fn votes(&self, sample: &[f64]) -> usize {
        self.roots
            .iter()
            .filter(|&&r| self.tree_proba(r, sample) >= 0.5)
            .count()
    }

    fn validate_matrix(&self, matrix: &[f64], num_features: usize) -> Result<(), MlError> {
        if num_features != self.num_features {
            return Err(MlError::DimensionMismatch {
                detail: format!(
                    "matrix has {num_features} features but the forest was trained on {}",
                    self.num_features
                ),
            });
        }
        if num_features == 0 || !matrix.len().is_multiple_of(num_features) {
            return Err(MlError::DimensionMismatch {
                detail: format!(
                    "flat matrix of {} values is not a multiple of {num_features} features",
                    matrix.len()
                ),
            });
        }
        Ok(())
    }

    /// Majority-vote predictions for every row of a flat row-major matrix
    /// (`num_samples * num_features` values), in row order on the calling
    /// thread. Each prediction equals [`FlatForest::predict`] on its row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `num_features` does not
    /// match the training data or does not divide `matrix.len()`.
    pub fn predict_batch(&self, matrix: &[f64], num_features: usize) -> Result<Vec<bool>, MlError> {
        let mut out = Vec::new();
        self.predict_batch_into(matrix, num_features, &mut out)?;
        Ok(out)
    }

    /// Allocation-free twin of [`FlatForest::predict_batch`]: clears `out`
    /// and refills it in place (votes are compared against the majority
    /// threshold row by row, no staging buffer).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] under the same conditions as
    /// [`FlatForest::predict_batch`] (leaving `out` untouched).
    // lint: hot-path
    pub fn predict_batch_into(
        &self,
        matrix: &[f64],
        num_features: usize,
        out: &mut Vec<bool>,
    ) -> Result<(), MlError> {
        self.validate_matrix(matrix, num_features)?;
        let rows = matrix.chunks_exact(num_features);
        out.clear();
        out.extend(rows.map(|row| self.predict(row)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestConfig;
    use crate::oracle::{blob_rows, fit};

    /// A 15-tree forest over 80 three-feature blob rows.
    fn fitted(seed: u64) -> (Vec<f64>, FlatForest) {
        let (rows, labels) = blob_rows(40, 2.0);
        let config = RandomForestConfig {
            n_trees: 15,
            max_depth: 7,
            ..RandomForestConfig::default()
        };
        let forest = fit(&rows, 3, &labels, config, seed);
        (rows, forest)
    }

    #[test]
    fn fitted_forest_reports_its_shape() {
        let (_, flat) = fitted(1);
        assert_eq!(flat.num_trees(), 15);
        assert_eq!(flat.num_features(), 3);
        assert!(flat.num_nodes() >= flat.num_trees());
    }

    #[test]
    fn batch_predictions_match_per_sample_paths() {
        let (matrix, flat) = fitted(3);
        let classes = flat.predict_batch(&matrix, 3).unwrap();
        assert_eq!(classes.len(), 80);
        for (row, c) in matrix.chunks_exact(3).zip(&classes) {
            assert_eq!(flat.predict(row), *c);
        }
    }

    #[test]
    fn into_variants_reuse_buffers_across_batches() {
        let (matrix, flat) = fitted(5);
        let samples = matrix.len() / 3;
        let mut classes = Vec::new();
        // Shrinking and growing batches through the same buffer.
        for take in [samples, 3, samples / 2] {
            let slice = &matrix[..take * 3];
            flat.predict_batch_into(slice, 3, &mut classes).unwrap();
            assert_eq!(classes, flat.predict_batch(slice, 3).unwrap());
        }
        // Errors leave the buffer untouched.
        let before = classes.clone();
        assert!(flat
            .predict_batch_into(&[1.0, 2.0], 2, &mut classes)
            .is_err());
        assert_eq!(classes, before);
    }

    #[test]
    fn batch_rejects_bad_matrices() {
        let (_, flat) = fitted(4);
        // Wrong feature count.
        assert!(flat.predict_batch(&[1.0, 2.0], 2).is_err());
        // Right feature count, misaligned buffer.
        assert!(flat.predict_batch(&[1.0, 2.0, 3.0, 4.0], 3).is_err());
        // Empty batch is fine.
        assert_eq!(flat.predict_batch(&[], 3).unwrap().len(), 0);
    }
}
