//! CART-style decision trees with Gini impurity.
//!
//! The trees support per-split feature subsampling and bootstrap-weighted
//! training so they can serve as the base learners of the random forest used
//! by the paper's real-time detector.

use crate::dataset::Dataset;
use crate::error::MlError;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters of a [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (the root is depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features considered at each split; `None` uses all features.
    pub max_features: Option<usize>,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        /// Fraction of positive samples that reached this leaf.
        probability: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted binary decision tree.
///
/// # Example
///
/// ```
/// use seizure_ml::{Dataset, DecisionTree, DecisionTreeConfig};
///
/// # fn main() -> Result<(), seizure_ml::MlError> {
/// let data = Dataset::new(
///     vec![vec![0.0], vec![0.2], vec![0.9], vec![1.0]],
///     vec![false, false, true, true],
/// )?;
/// let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), 1)?;
/// assert_eq!(tree.predict(&[0.1]), false);
/// assert_eq!(tree.predict(&[0.95]), true);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    num_features: usize,
}

impl DecisionTree {
    /// Fits a tree to `data` with the given configuration. `seed` controls the
    /// feature subsampling (only relevant when `max_features` is set).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] for a zero `max_depth` or an
    /// out-of-range `max_features`.
    pub fn fit(data: &Dataset, config: &DecisionTreeConfig, seed: u64) -> Result<Self, MlError> {
        Self::fit_with_indices(data, &(0..data.len()).collect::<Vec<_>>(), config, seed)
    }

    /// Fits a tree on the samples selected by `indices` (repetitions allowed,
    /// which is how the forest implements bootstrap sampling).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] for invalid hyper-parameters and
    /// [`MlError::DimensionMismatch`] for out-of-range indices or an empty
    /// selection.
    pub fn fit_with_indices(
        data: &Dataset,
        indices: &[usize],
        config: &DecisionTreeConfig,
        seed: u64,
    ) -> Result<Self, MlError> {
        if config.max_depth == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_depth",
                reason: "maximum depth must be at least 1".to_string(),
            });
        }
        if let Some(k) = config.max_features {
            if k == 0 || k > data.num_features() {
                return Err(MlError::InvalidParameter {
                    name: "max_features",
                    reason: format!("must lie in [1, {}], got {k}", data.num_features()),
                });
            }
        }
        if indices.is_empty() {
            return Err(MlError::DimensionMismatch {
                detail: "cannot fit a tree on an empty sample selection".to_string(),
            });
        }
        if let Some(&bad) = indices.iter().find(|&&i| i >= data.len()) {
            return Err(MlError::DimensionMismatch {
                detail: format!("sample index {bad} out of range for {} samples", data.len()),
            });
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let root = build_node(data, indices, config, 0, &mut rng);
        Ok(Self {
            root,
            num_features: data.num_features(),
        })
    }

    /// Number of features the tree was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Root node, used by the flat-forest compiler.
    pub(crate) fn root(&self) -> &Node {
        &self.root
    }

    /// Probability that `sample` belongs to the positive (seizure) class.
    ///
    /// # Panics
    ///
    /// Panics if the sample has fewer features than the training data.
    pub fn predict_proba(&self, sample: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { probability } => return *probability,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if sample[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predicted class of `sample` with a 0.5 probability threshold.
    pub fn predict(&self, sample: &[f64]) -> bool {
        self.predict_proba(sample) >= 0.5
    }

    /// Depth of the fitted tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth_of(left).max(depth_of(right)),
            }
        }
        depth_of(&self.root)
    }
}

use rand::SeedableRng;

fn positive_fraction(data: &Dataset, indices: &[usize]) -> f64 {
    let positives = indices.iter().filter(|&&i| data.labels()[i]).count();
    positives as f64 / indices.len() as f64
}

/// Gini impurity of a binary class mixture; shared with the scratch-backed
/// training engine so both split finders apply identical arithmetic.
pub(crate) fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

fn build_node<R: Rng>(
    data: &Dataset,
    indices: &[usize],
    config: &DecisionTreeConfig,
    depth: usize,
    rng: &mut R,
) -> Node {
    let p = positive_fraction(data, indices);
    if depth >= config.max_depth || indices.len() < config.min_samples_split || p == 0.0 || p == 1.0
    {
        return Node::Leaf { probability: p };
    }

    let num_features = data.num_features();
    let mut candidate_features: Vec<usize> = (0..num_features).collect();
    if let Some(k) = config.max_features {
        candidate_features.shuffle(rng);
        candidate_features.truncate(k);
    }

    let parent_impurity = gini(p);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)

    for &feature in &candidate_features {
        // Sort the samples by this feature and scan candidate thresholds.
        // `total_cmp` gives a NaN-safe total order (NaNs sort to the ends and
        // cannot scramble the sort): a NaN feature value degrades the split
        // it would anchor into a leaf instead of corrupting the ordering.
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted
            .sort_by(|&a, &b| data.features()[a][feature].total_cmp(&data.features()[b][feature]));
        let total_pos = sorted.iter().filter(|&&i| data.labels()[i]).count();
        let n = sorted.len();
        let mut left_pos = 0usize;
        for split_at in 1..n {
            if data.labels()[sorted[split_at - 1]] {
                left_pos += 1;
            }
            let prev = data.features()[sorted[split_at - 1]][feature];
            let next = data.features()[sorted[split_at]][feature];
            if prev == next {
                continue; // cannot split between identical values
            }
            let left_n = split_at;
            let right_n = n - split_at;
            let p_left = left_pos as f64 / left_n as f64;
            let p_right = (total_pos - left_pos) as f64 / right_n as f64;
            let weighted =
                (left_n as f64 * gini(p_left) + right_n as f64 * gini(p_right)) / n as f64;
            let gain = parent_impurity - weighted;
            if gain > best.map_or(1e-12, |(_, _, g)| g) {
                best = Some((feature, 0.5 * (prev + next), gain));
            }
        }
    }

    match best {
        None => Node::Leaf { probability: p },
        Some((feature, threshold, _)) => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| data.features()[i][feature] <= threshold);
            if left_idx.is_empty() || right_idx.is_empty() {
                return Node::Leaf { probability: p };
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(build_node(data, &left_idx, config, depth + 1, rng)),
                right: Box::new(build_node(data, &right_idx, config, depth + 1, rng)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An AND-style pattern (positive only when both features are high) that
    /// needs depth >= 2 to classify perfectly but is learnable greedily.
    fn and_dataset() -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let jitter = i as f64 * 0.01;
            rows.push(vec![0.0 + jitter, 0.0 + jitter]);
            labels.push(false);
            rows.push(vec![0.0 + jitter, 1.0 - jitter]);
            labels.push(false);
            rows.push(vec![1.0 - jitter, 0.0 + jitter]);
            labels.push(false);
            rows.push(vec![1.0 - jitter, 1.0 - jitter]);
            labels.push(true);
        }
        Dataset::new(rows, labels).unwrap()
    }

    #[test]
    fn fits_linearly_separable_data_perfectly() {
        let data = Dataset::new(
            (0..20).map(|i| vec![i as f64]).collect(),
            (0..20).map(|i| i >= 10).collect(),
        )
        .unwrap();
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), 0).unwrap();
        for (row, &label) in data.features().iter().zip(data.labels()) {
            assert_eq!(tree.predict(row), label);
        }
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn learns_and_pattern_with_sufficient_depth() {
        let data = and_dataset();
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), 0).unwrap();
        for (row, &label) in data.features().iter().zip(data.labels()) {
            assert_eq!(tree.predict(row), label);
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn max_depth_one_cannot_learn_and_pattern() {
        let data = and_dataset();
        let config = DecisionTreeConfig {
            max_depth: 1,
            ..DecisionTreeConfig::default()
        };
        let tree = DecisionTree::fit(&data, &config, 0).unwrap();
        let errors = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(row, &label)| tree.predict(row) != label)
            .count();
        assert!(errors > 0);
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![true, true]).unwrap();
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), 0).unwrap();
        assert_eq!(tree.depth(), 0);
        assert!(tree.predict(&[100.0]));
        assert_eq!(tree.predict_proba(&[0.0]), 1.0);
    }

    #[test]
    fn invalid_hyper_parameters_are_rejected() {
        let data = Dataset::new(vec![vec![1.0]], vec![true]).unwrap();
        let bad_depth = DecisionTreeConfig {
            max_depth: 0,
            ..DecisionTreeConfig::default()
        };
        assert!(DecisionTree::fit(&data, &bad_depth, 0).is_err());
        let bad_features = DecisionTreeConfig {
            max_features: Some(5),
            ..DecisionTreeConfig::default()
        };
        assert!(DecisionTree::fit(&data, &bad_features, 0).is_err());
        let zero_features = DecisionTreeConfig {
            max_features: Some(0),
            ..DecisionTreeConfig::default()
        };
        assert!(DecisionTree::fit(&data, &zero_features, 0).is_err());
    }

    #[test]
    fn fit_with_indices_validates_selection() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![true, false]).unwrap();
        let config = DecisionTreeConfig::default();
        assert!(DecisionTree::fit_with_indices(&data, &[], &config, 0).is_err());
        assert!(DecisionTree::fit_with_indices(&data, &[5], &config, 0).is_err());
        // Repeated indices (bootstrap style) are allowed.
        assert!(DecisionTree::fit_with_indices(&data, &[0, 0, 1], &config, 0).is_ok());
    }

    #[test]
    fn probabilities_reflect_class_mixture_at_leaves() {
        // Identical feature values with mixed labels cannot be split.
        let data = Dataset::new(
            vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]],
            vec![true, true, true, false],
        )
        .unwrap();
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), 0).unwrap();
        assert!((tree.predict_proba(&[1.0]) - 0.75).abs() < 1e-12);
        assert!(tree.predict(&[1.0]));
    }

    #[test]
    fn nan_feature_values_degrade_gracefully() {
        // One corrupted feature column (NaNs) next to an informative one:
        // fitting must not panic and must still learn from the clean column.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let nan_or_value = if i % 3 == 0 { f64::NAN } else { i as f64 };
            rows.push(vec![nan_or_value, i as f64]);
            labels.push(i >= 10);
        }
        let data = Dataset::new(rows, labels).unwrap();
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), 0).unwrap();
        assert!(tree.predict(&[f64::NAN, 19.0]));
        assert!(!tree.predict(&[f64::NAN, 0.0]));
    }

    #[test]
    fn feature_subsampling_is_deterministic_in_seed() {
        let data = and_dataset();
        let config = DecisionTreeConfig {
            max_features: Some(1),
            ..DecisionTreeConfig::default()
        };
        let a = DecisionTree::fit(&data, &config, 42).unwrap();
        let b = DecisionTree::fit(&data, &config, 42).unwrap();
        assert_eq!(a, b);
    }
}
