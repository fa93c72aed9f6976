//! Flat, cache-friendly compilation of fitted random forests.
//!
//! The boxed [`DecisionTree`](crate::DecisionTree) representation chases a `Box<Node>` pointer per
//! split, so every level of every tree of every window prediction is a
//! dependent cache miss. [`FlatForest`] compiles a fitted ensemble into
//! struct-of-arrays node storage — split feature, threshold, child indices
//! and leaf probability each in one contiguous `Vec` — and predicts batches
//! over a single flat row-major feature matrix, parallel across samples.
//!
//! Predictions are **bit-identical** to the boxed forest: node traversal
//! applies the same `<=` comparisons in the same order and the ensemble
//! probability is accumulated in the same tree order with the same floating
//! point operations (a property-tested invariant).

use crate::error::MlError;
use crate::forest::RandomForest;
use crate::tree::Node;

/// Sentinel marking a leaf in the `feature` array.
pub(crate) const LEAF: u32 = u32::MAX;

/// A fitted random forest compiled into struct-of-arrays node storage.
///
/// # Example
///
/// ```
/// use seizure_ml::{Dataset, FlatForest, RandomForest, RandomForestConfig};
///
/// # fn main() -> Result<(), seizure_ml::MlError> {
/// let data = Dataset::new(
///     (0..30).map(|i| vec![i as f64, (i * 7 % 5) as f64]).collect(),
///     (0..30).map(|i| i >= 15).collect(),
/// )?;
/// let forest = RandomForest::fit(&data, &RandomForestConfig::default(), 1)?;
/// let flat = FlatForest::from_forest(&forest);
///
/// // Same predictions, flat batch input: two samples ([29, 1] and [1, 3]).
/// let matrix = [29.0, 1.0, 1.0, 3.0];
/// let probas = flat.predict_proba_batch(&matrix, 2)?;
/// assert_eq!(probas[0], forest.predict_proba(&[29.0, 1.0]));
/// assert_eq!(probas[1], forest.predict_proba(&[1.0, 3.0]));
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
    /// Compiles a fitted boxed forest into flat node storage.
    pub fn from_forest(forest: &RandomForest) -> Self {
        let mut flat = Self {
            num_features: forest.num_features(),
            roots: Vec::with_capacity(forest.num_trees()),
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            leaf_prob: Vec::new(),
        };
        for tree in forest.trees() {
            let root = flat.flatten(tree.root());
            flat.roots.push(root);
        }
        flat
    }

    /// Assembles a flat forest directly from struct-of-arrays node storage.
    /// Used by the training engine, which grows trees in arena layout and
    /// never materializes boxed nodes.
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

    fn push_node(&mut self, feature: u32, threshold: f64, prob: f64) -> u32 {
        let idx = self.feature.len() as u32;
        assert!(idx < LEAF, "forest exceeds u32 node indexing");
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(0);
        self.right.push(0);
        self.leaf_prob.push(prob);
        idx
    }

    fn flatten(&mut self, node: &Node) -> u32 {
        match node {
            Node::Leaf { probability } => self.push_node(LEAF, 0.0, *probability),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let idx = self.push_node(*feature as u32, *threshold, 0.0);
                let left_idx = self.flatten(left);
                let right_idx = self.flatten(right);
                self.left[idx as usize] = left_idx;
                self.right[idx as usize] = right_idx;
                idx
            }
        }
    }

    /// Number of trees in the compiled ensemble.
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

    /// Average positive-class probability over all trees — bit-identical to
    /// [`RandomForest::predict_proba`].
    ///
    /// # Panics
    ///
    /// Panics if the sample has fewer features than the training data.
    // lint: hot-path
    pub fn predict_proba(&self, sample: &[f64]) -> f64 {
        let sum: f64 = self.roots.iter().map(|&r| self.tree_proba(r, sample)).sum();
        sum / self.roots.len() as f64
    }

    /// Majority-vote class prediction — identical to
    /// [`RandomForest::predict`].
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

    fn validate_matrix(&self, matrix: &[f64], num_features: usize) -> Result<usize, MlError> {
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
        Ok(matrix.len() / num_features)
    }

    /// Predicts class probabilities for every row of a flat row-major matrix
    /// (`num_samples * num_features` values), parallel over samples. Each
    /// probability is bit-identical to [`RandomForest::predict_proba`] on the
    /// corresponding row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `num_features` does not
    /// match the training data or does not divide `matrix.len()`.
    pub fn predict_proba_batch(
        &self,
        matrix: &[f64],
        num_features: usize,
    ) -> Result<Vec<f64>, MlError> {
        let mut out = Vec::new();
        self.predict_proba_batch_into(matrix, num_features, &mut out)?;
        Ok(out)
    }

    /// Allocation-free twin of [`FlatForest::predict_proba_batch`]: clears
    /// `out` and refills it in place, so a buffer reused across calls only
    /// allocates when a batch first outgrows it.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] under the same conditions as
    /// [`FlatForest::predict_proba_batch`] (leaving `out` untouched).
    // lint: hot-path
    pub fn predict_proba_batch_into(
        &self,
        matrix: &[f64],
        num_features: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        let samples = self.validate_matrix(matrix, num_features)?;
        out.clear();
        out.resize(samples, 0.0);
        seizure_parallel::par_fill_slice(out, |i| {
            self.predict_proba(&matrix[i * num_features..(i + 1) * num_features])
        });
        Ok(())
    }

    /// Majority-vote predictions for every row of a flat row-major matrix,
    /// parallel over samples.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] under the same conditions as
    /// [`FlatForest::predict_proba_batch`].
    pub fn predict_batch(&self, matrix: &[f64], num_features: usize) -> Result<Vec<bool>, MlError> {
        let mut out = Vec::new();
        self.predict_batch_into(matrix, num_features, &mut out)?;
        Ok(out)
    }

    /// Allocation-free twin of [`FlatForest::predict_batch`]: clears `out`
    /// and refills it in place (votes are compared against the majority
    /// threshold directly in the parallel fill, no staging buffer).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] under the same conditions as
    /// [`FlatForest::predict_proba_batch`] (leaving `out` untouched).
    // lint: hot-path
    pub fn predict_batch_into(
        &self,
        matrix: &[f64],
        num_features: usize,
        out: &mut Vec<bool>,
    ) -> Result<(), MlError> {
        let samples = self.validate_matrix(matrix, num_features)?;
        out.clear();
        out.resize(samples, false);
        seizure_parallel::par_fill_slice(out, |i| {
            2 * self.votes(&matrix[i * num_features..(i + 1) * num_features]) >= self.roots.len()
        });
        Ok(())
    }
}

impl From<&RandomForest> for FlatForest {
    fn from(forest: &RandomForest) -> Self {
        Self::from_forest(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForestConfig;

    fn blob_dataset(n_per_class: usize, separation: f64) -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per_class {
            let jitter1 = ((i * 37 + 13) % 101) as f64 / 101.0 - 0.5;
            let jitter2 = ((i * 53 + 29) % 97) as f64 / 97.0 - 0.5;
            rows.push(vec![jitter1, jitter2, ((i % 7) as f64) / 7.0]);
            labels.push(false);
            rows.push(vec![
                separation + jitter2,
                separation + jitter1,
                ((i % 5) as f64) / 5.0,
            ]);
            labels.push(true);
        }
        Dataset::new(rows, labels).unwrap()
    }

    fn fitted(seed: u64) -> (Dataset, RandomForest) {
        let data = blob_dataset(40, 2.0);
        let config = RandomForestConfig {
            n_trees: 15,
            max_depth: 7,
            ..RandomForestConfig::default()
        };
        let forest = RandomForest::fit(&data, &config, seed).unwrap();
        (data, forest)
    }

    #[test]
    fn compilation_preserves_shape() {
        let (_, forest) = fitted(1);
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.num_trees(), forest.num_trees());
        assert_eq!(flat.num_features(), forest.num_features());
        assert!(flat.num_nodes() >= flat.num_trees());
        let also_flat: FlatForest = (&forest).into();
        assert_eq!(also_flat, flat);
    }

    #[test]
    fn predictions_are_bit_identical_to_boxed_forest() {
        let (data, forest) = fitted(2);
        let flat = FlatForest::from_forest(&forest);
        for row in data.features() {
            assert_eq!(
                forest.predict_proba(row).to_bits(),
                flat.predict_proba(row).to_bits()
            );
            assert_eq!(forest.predict(row), flat.predict(row));
        }
    }

    #[test]
    fn batch_predictions_match_per_sample_paths() {
        let (data, forest) = fitted(3);
        let flat = FlatForest::from_forest(&forest);
        let matrix: Vec<f64> = data.features().iter().flatten().copied().collect();
        let probas = flat.predict_proba_batch(&matrix, 3).unwrap();
        let classes = flat.predict_batch(&matrix, 3).unwrap();
        assert_eq!(probas.len(), data.len());
        assert_eq!(classes.len(), data.len());
        for ((row, p), c) in data.features().iter().zip(&probas).zip(&classes) {
            assert_eq!(forest.predict_proba(row).to_bits(), p.to_bits());
            assert_eq!(forest.predict(row), *c);
        }
    }

    #[test]
    fn into_variants_reuse_buffers_across_batches() {
        let (data, forest) = fitted(5);
        let flat = FlatForest::from_forest(&forest);
        let matrix: Vec<f64> = data.features().iter().flatten().copied().collect();
        let mut probas = Vec::new();
        let mut classes = Vec::new();
        // Shrinking and growing batches through the same buffers.
        for take in [data.len(), 3, data.len() / 2] {
            let slice = &matrix[..take * 3];
            flat.predict_proba_batch_into(slice, 3, &mut probas)
                .unwrap();
            flat.predict_batch_into(slice, 3, &mut classes).unwrap();
            assert_eq!(probas, flat.predict_proba_batch(slice, 3).unwrap());
            assert_eq!(classes, flat.predict_batch(slice, 3).unwrap());
        }
        // Errors leave the buffers untouched.
        let before = classes.clone();
        assert!(flat
            .predict_batch_into(&[1.0, 2.0], 2, &mut classes)
            .is_err());
        assert_eq!(classes, before);
    }

    #[test]
    fn batch_rejects_bad_matrices() {
        let (_, forest) = fitted(4);
        let flat = FlatForest::from_forest(&forest);
        // Wrong feature count.
        assert!(flat.predict_proba_batch(&[1.0, 2.0], 2).is_err());
        // Right feature count, misaligned buffer.
        assert!(flat.predict_proba_batch(&[1.0, 2.0, 3.0, 4.0], 3).is_err());
        assert!(flat.predict_batch(&[1.0, 2.0, 3.0, 4.0], 3).is_err());
        // Empty batch is fine.
        assert_eq!(flat.predict_proba_batch(&[], 3).unwrap().len(), 0);
    }

    #[test]
    fn single_leaf_forest_flattens() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![true, true]).unwrap();
        let config = RandomForestConfig {
            n_trees: 3,
            ..RandomForestConfig::default()
        };
        let forest = RandomForest::fit(&data, &config, 0).unwrap();
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.num_nodes(), 3);
        assert_eq!(flat.predict_proba(&[5.0]), 1.0);
        assert!(flat.predict(&[0.0]));
    }
}
