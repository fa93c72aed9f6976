//! Boxed CART oracle for the trainer the detector runs.
//!
//! A deliberately naive refit of the state [`IncrementalTrainer`] holds: a
//! trainer's forest is a pure function of its final pool, config and seed,
//! so the oracle fits that pool from scratch, one boxed tree at a time.
//!
//! * **Pools.** Block `b` of `block_size` consecutive pool ids belongs to
//!   tree `b % n_trees`. Tree `t` bootstraps from the union of its blocks,
//!   or from the whole pool while it owns none.
//! * **Draws.** Tree `t` draws `round(pool · bootstrap_fraction).max(1)`
//!   positions in its pool from `ChaCha8(draw_stream_seed(seed, t))`.
//! * **Growth.** Every node copies its samples and sorts them afresh per
//!   candidate feature (a stable `f64::total_cmp` sort), takes the first
//!   strictly best Gini gain over the boundaries between distinct values,
//!   splits at their midpoint and recurses into boxed children. Feature
//!   subsampling shuffles with `ChaCha8(tree_stream_seed(seed, t))`.
//!
//! The trees are then flattened in DFS preorder through
//! [`FlatForest::from_raw_parts`]. The comparison holds on finite values:
//! the engine orders every node by `(value, id)`, while the oracle's stable
//! sort keeps draw order inside a tie. Ties between equal finite values
//! cannot be split, so their order never reaches a node; but `NaN == NaN`
//! is false, so the scan weighs cuts inside a group of bit-identical NaNs,
//! and the two orders can then pick different (degenerate) splits.

use crate::flat::{FlatForest, LEAF};
use crate::forest::RandomForestConfig;
use crate::incremental::{draw_stream_seed, IncrementalTrainer, IncrementalTrainerConfig};
use crate::training::{gini, tree_stream_seed, DecisionTreeConfig, TrainingSet};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A boxed CART node.
enum Node {
    /// Positive fraction of the samples that reached the leaf.
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    /// Positive-class probability of `sample`, by recursion.
    fn proba(&self, sample: &[f64]) -> f64 {
        match self {
            Node::Leaf(p) => *p,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if sample[*feature] <= *threshold {
                    left.proba(sample)
                } else {
                    right.proba(sample)
                }
            }
        }
    }
}

/// The row-major pool and growth limits every tree of one fit shares.
struct Grower<'a> {
    rows: &'a [f64],
    num_features: usize,
    labels: &'a [bool],
    config: DecisionTreeConfig,
}

impl Grower<'_> {
    fn value(&self, id: usize, feature: usize) -> f64 {
        self.rows[id * self.num_features + feature]
    }

    /// Grows the subtree over `ids` (pool ids, repetitions allowed).
    fn grow(&self, ids: &[usize], depth: usize, rng: &mut ChaCha8Rng) -> Node {
        let n = ids.len();
        let positives = ids.iter().filter(|&&i| self.labels[i]).count();
        let p = positives as f64 / n as f64;
        if depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || p == 0.0
            || p == 1.0
        {
            return Node::Leaf(p);
        }
        let mut features: Vec<usize> = (0..self.num_features).collect();
        features.shuffle(rng);
        features.truncate(self.config.max_features);

        let parent = gini(p);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for &feature in &features {
            let mut sorted = ids.to_vec();
            sorted.sort_by(|&a, &b| self.value(a, feature).total_cmp(&self.value(b, feature)));
            let mut left_pos = 0;
            for split_at in 1..n {
                left_pos += usize::from(self.labels[sorted[split_at - 1]]);
                let prev = self.value(sorted[split_at - 1], feature);
                let next = self.value(sorted[split_at], feature);
                if prev == next {
                    continue;
                }
                let (left_n, right_n) = (split_at, n - split_at);
                let p_left = left_pos as f64 / left_n as f64;
                let p_right = (positives - left_pos) as f64 / right_n as f64;
                let weighted =
                    (left_n as f64 * gini(p_left) + right_n as f64 * gini(p_right)) / n as f64;
                let gain = parent - weighted;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    best = Some((feature, 0.5 * (prev + next), gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return Node::Leaf(p);
        };
        let (left, right): (Vec<usize>, Vec<usize>) = ids
            .iter()
            .partition(|&&i| self.value(i, feature) <= threshold);
        if left.is_empty() || right.is_empty() {
            return Node::Leaf(p);
        }
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.grow(&left, depth + 1, rng)),
            right: Box::new(self.grow(&right, depth + 1, rng)),
        }
    }
}

/// Fits, tree by tree, the forest an [`IncrementalTrainer`] with `config`
/// and `seed` holds once its pool is `rows` (row-major) and `labels`.
fn fit_boxed(
    rows: &[f64],
    num_features: usize,
    labels: &[bool],
    config: &IncrementalTrainerConfig,
    seed: u64,
) -> Vec<Node> {
    let forest = &config.forest;
    let default_features = ((num_features as f64).sqrt().ceil() as usize).max(1);
    let grower = Grower {
        rows,
        num_features,
        labels,
        config: DecisionTreeConfig {
            max_depth: forest.max_depth,
            min_samples_split: forest.min_samples_split,
            max_features: forest.max_features.unwrap_or(default_features),
        },
    };
    let n = labels.len();
    (0..forest.n_trees)
        .map(|t| {
            let owned: Vec<usize> = (0..n)
                .filter(|id| id / config.block_size % forest.n_trees == t)
                .collect();
            let pool: Vec<usize> = if owned.is_empty() {
                (0..n).collect()
            } else {
                owned
            };
            let m = ((pool.len() as f64 * forest.bootstrap_fraction).round() as usize).max(1);
            let mut draws = ChaCha8Rng::seed_from_u64(draw_stream_seed(seed, t));
            let sample: Vec<usize> = (0..m)
                .map(|_| pool[draws.gen_range(0..pool.len())])
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(tree_stream_seed(seed, t));
            grower.grow(&sample, 0, &mut rng)
        })
        .collect()
}

/// Flattens boxed trees in DFS preorder: leaves hold the [`LEAF`] sentinel,
/// a zero threshold and 0/0 children; splits a zero leaf probability.
fn flatten(trees: &[Node], num_features: usize) -> FlatForest {
    #[derive(Default)]
    struct Parts {
        feature: Vec<u32>,
        threshold: Vec<f64>,
        left: Vec<u32>,
        right: Vec<u32>,
        leaf_prob: Vec<f64>,
    }
    fn push(parts: &mut Parts, node: &Node) -> u32 {
        let idx = parts.feature.len() as u32;
        let (feature, threshold, prob) = match node {
            Node::Leaf(p) => (LEAF, 0.0, *p),
            Node::Split {
                feature, threshold, ..
            } => (*feature as u32, *threshold, 0.0),
        };
        parts.feature.push(feature);
        parts.threshold.push(threshold);
        parts.left.push(0);
        parts.right.push(0);
        parts.leaf_prob.push(prob);
        if let Node::Split { left, right, .. } = node {
            parts.left[idx as usize] = push(parts, left);
            parts.right[idx as usize] = push(parts, right);
        }
        idx
    }
    let mut parts = Parts::default();
    let roots = trees.iter().map(|tree| push(&mut parts, tree)).collect();
    FlatForest::from_raw_parts(
        num_features,
        roots,
        parts.feature,
        parts.threshold,
        parts.left,
        parts.right,
        parts.leaf_prob,
    )
}

/// Asserts that `flat` predicts every row of `rows` exactly as a recursive
/// walk of `trees` does: probabilities bit for bit, votes class for class.
fn assert_walk_matches(
    flat: &FlatForest,
    trees: &[Node],
    rows: &[f64],
    num_features: usize,
    case: &str,
) {
    for row in rows.chunks_exact(num_features) {
        let walk = trees.iter().map(|t| t.proba(row)).sum::<f64>() / trees.len() as f64;
        let votes = trees.iter().filter(|t| t.proba(row) >= 0.5).count();
        assert_eq!(
            flat.predict_proba(row).to_bits(),
            walk.to_bits(),
            "row {row:?}, {case}"
        );
        assert_eq!(
            flat.predict(row),
            2 * votes >= trees.len(),
            "row {row:?}, {case}"
        );
    }
}

/// Two overlapping three-feature blobs, flat row-major, labels alternating.
pub(crate) fn blob_rows(n_per_class: usize, separation: f64) -> (Vec<f64>, Vec<bool>) {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n_per_class {
        let jitter1 = ((i * 37 + 13) % 101) as f64 / 101.0 - 0.5;
        let jitter2 = ((i * 53 + 29) % 97) as f64 / 97.0 - 0.5;
        rows.extend([jitter1, jitter2, ((i % 7) as f64) / 7.0]);
        labels.push(false);
        rows.extend([
            separation + jitter2,
            separation + jitter1,
            ((i % 5) as f64) / 5.0,
        ]);
        labels.push(true);
    }
    (rows, labels)
}

/// Fits `forest` on `rows` in one retrain of a fresh trainer with the
/// default block size.
pub(crate) fn fit(
    rows: &[f64],
    num_features: usize,
    labels: &[bool],
    forest: RandomForestConfig,
    seed: u64,
) -> FlatForest {
    let config = IncrementalTrainerConfig {
        forest,
        ..IncrementalTrainerConfig::default()
    };
    IncrementalTrainer::new(config, seed)
        .retrain(rows, num_features, labels)
        .unwrap()
}

#[test]
fn flat_predictions_equal_a_recursive_walk() {
    let (rows, labels) = blob_rows(40, 2.0);
    let config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 15,
            max_depth: 7,
            ..RandomForestConfig::default()
        },
        block_size: 16,
    };
    let trees = fit_boxed(&rows, 3, &labels, &config, 2);
    assert_walk_matches(&flatten(&trees, 3), &trees, &rows, 3, "blobs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `IncrementalTrainer::retrain` equals the boxed oracle node for node,
    /// single-shot and grown in two steps, in the cold-start regime (the
    /// block covers the pool, every other tree bootstraps from all of it)
    /// and the owner regime (trees own several blocks, the last one
    /// partial). Two of the three features take seven levels, so values
    /// and split gains tie.
    #[test]
    fn retrain_equals_the_boxed_oracle_node_for_node(
        points in prop::collection::vec(
            (0usize..7, 0usize..7, -50.0f64..50.0, any::<bool>()),
            10..120,
        ),
        seed in 0u64..1_000,
        n_trees in 1usize..13,
        bootstrap_thirds in 1usize..4,
        block_pick in 0usize..5,
        features_pick in 0usize..4,
        max_depth in 1usize..9,
        min_samples_split in 2usize..6,
        two_step in any::<bool>(),
        cut_raw in 0usize..1_000,
    ) {
        let n = points.len();
        let rows: Vec<f64> = points
            .iter()
            .flat_map(|&(a, b, c, _)| [a as f64 * 0.5, b as f64 - 3.0, c])
            .collect();
        let mut labels: Vec<bool> = points.iter().map(|p| p.3).collect();
        let cut = if two_step { 1 + cut_raw % (n - 1) } else { n };
        // Mix both classes into each step's batch: the trainer rejects a
        // single-class batch longer than a block.
        labels[0] = true;
        labels[1] = false;
        if cut + 1 < n {
            labels[cut] = true;
            labels[cut + 1] = false;
        }
        let config = IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees,
                max_depth,
                min_samples_split,
                max_features: (features_pick > 0).then_some(features_pick),
                bootstrap_fraction: bootstrap_thirds as f64 / 3.0,
            },
            block_size: [TrainingSet::MAX_SAMPLES, n, 16, 7, 3][block_pick],
        };
        let case = format!("n {n}, cut {cut}, seed {seed}, {config:?}");

        let mut trainer = IncrementalTrainer::new(config, seed);
        let mut forest = trainer.retrain(&rows[..cut * 3], 3, &labels[..cut]).unwrap();
        if cut < n {
            forest = trainer.retrain(&rows[cut * 3..], 3, &labels[cut..]).unwrap();
        }
        let trees = fit_boxed(&rows, 3, &labels, &config, seed);
        prop_assert_eq!(&forest, &flatten(&trees, 3), "{}", case);
        assert_walk_matches(&forest, &trees, &rows, 3, &case);
    }
}
