//! Incremental forest retraining engine.
//!
//! The paper's self-learning loop retrains its random forest every time a
//! missed seizure is observed, even though the personalized training set only
//! ever *grows*. [`IncrementalTrainer`] is a stateful retraining engine built
//! on the scratch machinery of [`crate::training`]: it owns a growable
//! [`TrainingSet`] (appends merge the sorted batch into each feature's
//! presorted run, no re-sort), and caches one fitted arena per tree together
//! with a fingerprint of the sample pool the tree's bootstrap stream drew
//! from. On [`IncrementalTrainer::retrain`] only the trees whose pools were
//! touched by the growth are refitted; the rest are reused verbatim. A
//! refitted tree maps its bootstrap draws to pool ids and tallies them into
//! distinct ids with their counts, and each of its nodes orders only the
//! features it tries (see [`crate::training`]), so no refit copies every
//! feature's run. The pool is capped at [`TrainingSet::MAX_SAMPLES`] samples, far above
//! what the wearable can persist.
//!
//! # Pool partitioning
//!
//! The sample pool is cut into contiguous **blocks** of
//! [`IncrementalTrainerConfig::block_size`] samples; block `b` is owned by
//! tree `b % n_trees`, and each tree bootstraps (with replacement, scaled by
//! `bootstrap_fraction`) from the union of its blocks. A tree that owns no
//! block yet — fewer blocks than trees, the cold-start regime — falls back to
//! bootstrapping from the **whole pool**, so small ensembles behave like a
//! classic bagged forest until enough data arrives for trees to specialize.
//! Appending samples therefore touches exactly: the owner of the final
//! (possibly partial) block, the owners of newly created blocks, and the
//! full-pool fallback trees. Everything else is reused.
//!
//! # Equivalence guarantee
//!
//! Every retrained state is a pure function of `(final training set, config,
//! seed)`: block ownership depends only on the final sample count, each
//! tree's bootstrap draws replay a private ChaCha8 stream parameterized by
//! its pool length, and [`TrainingSet::append_rows`] reproduces the exact
//! sorted runs a from-scratch build would produce. Consequently a
//! trainer grown through **any** schedule of appends emits a [`FlatForest`]
//! identical — node for node, hence prediction-equivalent on any matrix — to
//! a fresh trainer fitted once on the final dataset with the same seed (a
//! property-tested invariant; see `crates/ml/tests/properties.rs`). The
//! crate's tests also refit that final state with a boxed CART oracle that
//! follows the pool rules above and sorts every node afresh, and assert the
//! two forests equal node for node.
//!
//! # Example
//!
//! ```
//! use seizure_ml::training::{IncrementalTrainer, IncrementalTrainerConfig};
//! use seizure_ml::RandomForestConfig;
//!
//! # fn main() -> Result<(), seizure_ml::MlError> {
//! let config = IncrementalTrainerConfig {
//!     forest: RandomForestConfig { n_trees: 4, ..RandomForestConfig::default() },
//!     block_size: 8,
//! };
//! let mut trainer = IncrementalTrainer::new(config, 7);
//!
//! // Initial fit: one feature, 32 samples.
//! let rows: Vec<f64> = (0..32).map(f64::from).collect();
//! let labels: Vec<bool> = (0..32).map(|i| i >= 16).collect();
//! let forest = trainer.retrain(&rows, 1, &labels)?;
//! assert!(forest.predict(&[30.0]));
//!
//! // Growing the pool refits only the affected trees.
//! let forest = trainer.retrain(&[40.0, 41.0], 1, &[true, true])?;
//! assert!(trainer.last_refit_count() < trainer.num_trees());
//! assert!(forest.predict(&[40.5]));
//! # Ok(())
//! # }
//! ```

use crate::error::MlError;
use crate::flat::FlatForest;
use crate::forest::RandomForestConfig;
use crate::training::{
    fit_tree_jobs, resolve_tree_config, stitch_forest, tree_stream_seed, DecisionTreeConfig,
    NodeArena, TrainingSet, TreeJob,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of an [`IncrementalTrainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalTrainerConfig {
    /// Forest hyper-parameters.
    pub forest: RandomForestConfig,
    /// Samples per ownership block (at most 65 536, the pool cap). Smaller
    /// blocks spread fresh data over more trees and reach tree
    /// specialization sooner; larger blocks keep each tree's pool bigger.
    /// The default (128) puts every tree of a 30-tree ensemble on its own
    /// data once ~4k samples arrived.
    pub block_size: usize,
}

impl Default for IncrementalTrainerConfig {
    fn default() -> Self {
        Self {
            forest: RandomForestConfig::default(),
            block_size: 128,
        }
    }
}

/// One cached tree: its fitted arena plus the fingerprint of the pool the
/// bootstrap stream drew from. A tree is refitted exactly when its
/// fingerprint changes (pools only ever grow, so equal fingerprints imply an
/// identical pool).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TreeState {
    pub(crate) arena: NodeArena,
    pub(crate) blocks_owned: usize,
    pub(crate) pool_len: usize,
}

/// Stateful incremental retraining engine — see the [module docs](self) for
/// the pool partitioning scheme and the from-scratch equivalence guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalTrainer {
    config: IncrementalTrainerConfig,
    seed: u64,
    set: Option<TrainingSet>,
    trees: Vec<TreeState>,
    last_refit: usize,
}

impl IncrementalTrainer {
    /// Creates an empty trainer; the first [`IncrementalTrainer::retrain`]
    /// call builds the training set and fits every tree.
    pub fn new(config: IncrementalTrainerConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            set: None,
            trees: Vec::new(),
            last_refit: 0,
        }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &IncrementalTrainerConfig {
        &self.config
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.config.forest.n_trees
    }

    /// Number of samples accumulated so far.
    pub fn num_samples(&self) -> usize {
        self.set.as_ref().map_or(0, TrainingSet::len)
    }

    /// The accumulated training set, once the first retrain happened.
    pub fn training_set(&self) -> Option<&TrainingSet> {
        self.set.as_ref()
    }

    /// How many trees the last [`IncrementalTrainer::retrain`] actually
    /// refitted (the remaining `num_trees - last_refit_count` were reused).
    /// After a journal replay (every entry appended, one refit) it is the
    /// count the last entry's `retrain` alone would have refit.
    pub fn last_refit_count(&self) -> usize {
        self.last_refit
    }

    /// The seed the per-tree draw and feature-subsampling streams derive
    /// from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Re-stitches the forest the last [`IncrementalTrainer::retrain`]
    /// emitted from the cached per-tree arenas (`None` until the first
    /// retrain). Used when restoring a persisted trainer, whose snapshot
    /// stores the arenas but not the stitched copy.
    pub fn current_forest(&self) -> Option<FlatForest> {
        let set = self.set.as_ref()?;
        if self.trees.len() != self.config.forest.n_trees || self.trees.is_empty() {
            return None;
        }
        let refs: Vec<&NodeArena> = self.trees.iter().map(|s| &s.arena).collect();
        Some(stitch_forest(set.num_features(), &refs))
    }

    /// Decomposes the trainer into the parts the persistence codec stores:
    /// configuration, seed, pool, cached trees with their draw-stream
    /// fingerprints, and the last refit count.
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (
        &IncrementalTrainerConfig,
        u64,
        Option<&TrainingSet>,
        &[TreeState],
        usize,
    ) {
        (
            &self.config,
            self.seed,
            self.set.as_ref(),
            &self.trees,
            self.last_refit,
        )
    }

    /// Reassembles a trainer from persisted parts (the codec validates the
    /// cross-field invariants before calling this).
    pub(crate) fn from_snapshot_parts(
        config: IncrementalTrainerConfig,
        seed: u64,
        set: Option<TrainingSet>,
        trees: Vec<TreeState>,
        last_refit: usize,
    ) -> Self {
        Self {
            config,
            seed,
            set,
            trees,
            last_refit,
        }
    }

    /// Appends new samples (flat row-major, `labels.len() * num_features`
    /// values) to the pool, refits exactly the trees whose bootstrap pools
    /// were affected by the growth, and emits the full flat forest.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] for a zero `block_size`, a
    /// `block_size` above [`TrainingSet::MAX_SAMPLES`] or invalid forest
    /// hyper-parameters, [`MlError::DimensionMismatch`] if the matrix does
    /// not match `labels.len() * num_features` or `num_features` differs
    /// from earlier appends, and [`MlError::InvalidDataset`] for an empty
    /// append, for one that would grow the pool past
    /// [`TrainingSet::MAX_SAMPLES`] samples — or for a
    /// **single-class** append longer than `block_size`: such a batch fills
    /// whole ownership blocks with one label, so every block-specialized
    /// tree drawing from them would silently degrade into a single-class
    /// stump. The error is raised before the pool is touched; interleave
    /// classes in the batch (the pipeline's balanced batches do) or raise
    /// `block_size` above the stream's longest single-class run.
    pub fn retrain(
        &mut self,
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
    ) -> Result<FlatForest, MlError> {
        let tree_config = self.append(rows, num_features, labels)?;
        self.refit(&tree_config, None)
    }

    /// The append half of [`IncrementalTrainer::retrain`]: its checks run
    /// before any mutation, then the batch joins the pool; returns the tree
    /// configuration resolved against it. Refits nothing.
    pub(crate) fn append(
        &mut self,
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
    ) -> Result<DecisionTreeConfig, MlError> {
        let block = self.config.block_size;
        if block == 0 {
            return Err(MlError::InvalidParameter {
                name: "block_size",
                reason: "ownership blocks must hold at least one sample".to_string(),
            });
        }
        if block > TrainingSet::MAX_SAMPLES {
            return Err(MlError::InvalidParameter {
                name: "block_size",
                reason: format!(
                    "ownership blocks are limited to the {} samples a pool holds, got {block}",
                    TrainingSet::MAX_SAMPLES
                ),
            });
        }
        if self.config.forest.n_trees > 1
            && labels.len() > block
            && labels.windows(2).all(|w| w[0] == w[1])
        {
            return Err(MlError::InvalidDataset {
                detail: format!(
                    "single-class append of {} samples exceeds block_size {}: every ownership \
                     block it fills holds one label only, silently degrading block-specialized \
                     tree diversity; interleave both classes in the batch or raise block_size \
                     above the stream's longest single-class run",
                    labels.len(),
                    block
                ),
            });
        }
        match &mut self.set {
            None => self.set = Some(TrainingSet::from_rows(rows, num_features, labels)?),
            Some(set) => {
                if num_features != set.num_features() {
                    return Err(MlError::DimensionMismatch {
                        detail: format!(
                            "append has {num_features} features but the pool was built with {}",
                            set.num_features()
                        ),
                    });
                }
                set.append_rows(rows, labels)?;
            }
        }
        let set = self.set.as_ref().expect("training set installed above");
        resolve_tree_config(set, &self.config.forest)
    }

    /// The refit half of [`IncrementalTrainer::retrain`]: refits the trees
    /// whose pool fingerprint differs from their cached fit, however many
    /// batches were appended since, and stitches the forest.
    /// `last_batch_from` is the pool length before the last of several
    /// appended batches (`None` after one): `last_refit` then counts the
    /// trees that batch alone refits, as a per-batch `retrain` would.
    pub(crate) fn refit(
        &mut self,
        tree_config: &DecisionTreeConfig,
        last_batch_from: Option<usize>,
    ) -> Result<FlatForest, MlError> {
        let set = self
            .set
            .as_ref()
            .expect("refit follows a successful append");
        let block = self.config.block_size;
        let n = set.len();
        let n_trees = self.config.forest.n_trees;

        // Fingerprint every tree's pool and draw fresh bootstrap streams for
        // the ones whose pool grew (or that were never fitted). A tree draws
        // positions `j` in its own pool: a cold-start tree's pool is the
        // whole pool, so `j` is the pool id; an owner's `j`-th sample sits in
        // its `j / block`-th owned block (blocks `t, t + n_trees, ...`, all
        // full except possibly the global tail).
        let mut draw_buf: Vec<u16> = Vec::new();
        // (tree index, draw range, new fingerprint) per refitted tree.
        let mut pending: Vec<(usize, std::ops::Range<usize>, TreeState)> = Vec::new();
        let mut last_refit = 0;
        for t in 0..n_trees {
            let (blocks_owned, pool_len) = fingerprint(t, n, n_trees, block);
            let unchanged = self
                .trees
                .get(t)
                .is_some_and(|s| s.blocks_owned == blocks_owned && s.pool_len == pool_len);
            last_refit += usize::from(match last_batch_from {
                None => !unchanged,
                Some(from) => fingerprint(t, from, n_trees, block) != (blocks_owned, pool_len),
            });
            if unchanged {
                continue;
            }
            let m =
                ((pool_len as f64 * self.config.forest.bootstrap_fraction).round() as usize).max(1);
            let start = draw_buf.len();
            draw_buf.reserve(m);
            let mut rng = ChaCha8Rng::seed_from_u64(draw_stream_seed(self.seed, t));
            // lint: hot-path
            for _ in 0..m {
                let j = rng.gen_range(0..pool_len);
                let id = if blocks_owned == 0 {
                    j
                } else {
                    (t + j / block * n_trees) * block + j % block
                };
                draw_buf.push(id as u16);
            }
            pending.push((
                t,
                start..draw_buf.len(),
                TreeState {
                    arena: NodeArena::default(),
                    blocks_owned,
                    pool_len,
                },
            ));
        }

        let jobs: Vec<TreeJob<'_>> = pending
            .iter()
            .map(|(t, draws, _)| TreeJob {
                draws: &draw_buf[draws.clone()],
                seed: tree_stream_seed(self.seed, *t),
            })
            .collect();
        let arenas = fit_tree_jobs(set, tree_config, &jobs)?;

        self.trees.resize(n_trees, TreeState::default());
        self.last_refit = last_refit;
        for ((t, _, mut state), arena) in pending.into_iter().zip(arenas) {
            state.arena = arena;
            self.trees[t] = state;
        }

        let refs: Vec<&NodeArena> = self.trees.iter().map(|s| &s.arena).collect();
        Ok(stitch_forest(set.num_features(), &refs))
    }
}

/// Tree `t`'s draw-stream fingerprint at pool length `n`: the number of
/// blocks it owns and the size of the pool it bootstraps from.
fn fingerprint(t: usize, n: usize, n_trees: usize, block: usize) -> (usize, usize) {
    let num_blocks = n.div_ceil(block);
    if t >= num_blocks {
        // Cold start: no block reached this tree yet, bootstrap from the
        // whole pool like a classic bagged forest.
        return (0, n);
    }
    let blocks_owned = (num_blocks - 1 - t) / n_trees + 1;
    let owns_tail = (num_blocks - 1) % n_trees == t;
    let tail_short = num_blocks * block - n;
    (
        blocks_owned,
        blocks_owned * block - if owns_tail { tail_short } else { 0 },
    )
}

/// The per-tree bootstrap-draw stream seed, decoupled from the tree's
/// feature-subsampling stream so the two never correlate.
pub(crate) fn draw_stream_seed(seed: u64, t: usize) -> u64 {
    tree_stream_seed(seed, t) ^ 0x5851_F42D_4C95_7F2D
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic two-class rows: one informative feature, one noisy.
    fn rows_and_labels(n: usize) -> (Vec<f64>, Vec<bool>) {
        let mut rows = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let noise = ((i * 37 + 11) % 23) as f64 / 23.0;
            let positive = i % 2 == 0;
            rows.push(if positive { 4.0 + noise } else { noise });
            rows.push(((i * 7) % 13) as f64);
            labels.push(positive);
        }
        (rows, labels)
    }

    fn small_config() -> IncrementalTrainerConfig {
        IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees: 6,
                max_depth: 5,
                ..RandomForestConfig::default()
            },
            block_size: 16,
        }
    }

    #[test]
    fn incremental_equals_from_scratch() {
        let (rows, labels) = rows_and_labels(200);
        for cuts in [vec![200], vec![120, 200], vec![50, 60, 130, 200]] {
            let mut trainer = IncrementalTrainer::new(small_config(), 9);
            let mut prev = 0;
            let mut forest = None;
            for cut in cuts {
                forest = Some(
                    trainer
                        .retrain(&rows[prev * 2..cut * 2], 2, &labels[prev..cut])
                        .unwrap(),
                );
                prev = cut;
            }
            let mut scratch = IncrementalTrainer::new(small_config(), 9);
            let reference = scratch.retrain(&rows, 2, &labels).unwrap();
            assert_eq!(forest.unwrap(), reference);
        }
    }

    #[test]
    fn small_appends_reuse_most_trees() {
        let (rows, labels) = rows_and_labels(400);
        let mut trainer = IncrementalTrainer::new(small_config(), 3);
        trainer.retrain(&rows[..768], 2, &labels[..384]).unwrap();
        // 384 samples / block 16 = 24 blocks over 6 trees: every tree owns
        // blocks, none is on the full-pool fallback. Appending one block's
        // worth of samples touches the tail owner and one fresh block owner.
        assert_eq!(trainer.last_refit_count(), 6);
        trainer.retrain(&rows[768..], 2, &labels[384..]).unwrap();
        assert!(
            trainer.last_refit_count() <= 2,
            "refit {} of {} trees",
            trainer.last_refit_count(),
            trainer.num_trees()
        );
        assert_eq!(trainer.num_samples(), 400);
    }

    #[test]
    fn cold_start_falls_back_to_full_pool() {
        let (rows, labels) = rows_and_labels(20);
        let mut trainer = IncrementalTrainer::new(small_config(), 1);
        let forest = trainer.retrain(&rows, 2, &labels).unwrap();
        // 20 samples -> 2 blocks, so 4 of 6 trees bootstrap the whole pool;
        // the ensemble still separates the classes.
        assert_eq!(forest.num_trees(), 6);
        assert!(forest.predict(&[4.5, 1.0]));
        assert!(!forest.predict(&[0.1, 1.0]));
    }

    #[test]
    fn retrain_validation() {
        let mut trainer = IncrementalTrainer::new(small_config(), 0);
        assert!(trainer.retrain(&[], 2, &[]).is_err());
        assert!(trainer.retrain(&[1.0], 2, &[true]).is_err());
        let (rows, labels) = rows_and_labels(20);
        trainer.retrain(&rows, 2, &labels).unwrap();
        // Feature-count drift across appends is rejected.
        assert!(trainer.retrain(&[1.0, 2.0, 3.0], 3, &[true]).is_err());
        let mut zero_block = IncrementalTrainer::new(
            IncrementalTrainerConfig {
                block_size: 0,
                ..small_config()
            },
            0,
        );
        assert!(zero_block.retrain(&rows, 2, &labels).is_err());
        let mut zero_trees = IncrementalTrainer::new(
            IncrementalTrainerConfig {
                forest: RandomForestConfig {
                    n_trees: 0,
                    ..RandomForestConfig::default()
                },
                ..small_config()
            },
            0,
        );
        assert!(zero_trees.retrain(&rows, 2, &labels).is_err());
    }

    #[test]
    fn single_class_append_longer_than_a_block_is_rejected() {
        // block_size 16 (small_config); a 17-sample one-label batch would
        // fill a whole ownership block with a single class.
        let (rows, labels) = rows_and_labels(40);
        let mut trainer = IncrementalTrainer::new(small_config(), 2);
        trainer.retrain(&rows, 2, &labels).unwrap();
        let bad_rows: Vec<f64> = (0..34).map(f64::from).collect();
        let err = trainer.retrain(&bad_rows, 2, &[true; 17]).unwrap_err();
        assert!(matches!(err, MlError::InvalidDataset { .. }));
        assert!(err.to_string().contains("block_size"), "{err}");
        // The rejected batch never touched the pool.
        assert_eq!(trainer.num_samples(), 40);
        // At exactly block_size a single-class batch is still allowed...
        let ok_rows: Vec<f64> = (0..32).map(f64::from).collect();
        trainer.retrain(&ok_rows, 2, &[true; 16]).unwrap();
        // ...as is a longer batch that mixes classes.
        let mut mixed = vec![true; 17];
        mixed[8] = false;
        trainer.retrain(&bad_rows, 2, &mixed).unwrap();
        assert_eq!(trainer.num_samples(), 40 + 16 + 17);
        // Single-tree ensembles always bootstrap the whole pool, so the
        // block-diversity concern (and the guard) do not apply.
        let mut single = IncrementalTrainer::new(
            IncrementalTrainerConfig {
                forest: RandomForestConfig {
                    n_trees: 1,
                    ..RandomForestConfig::default()
                },
                block_size: 4,
            },
            0,
        );
        single.retrain(&rows, 2, &labels).unwrap();
        single.retrain(&bad_rows, 2, &[true; 17]).unwrap();
    }

    #[test]
    fn current_forest_matches_last_retrain_output() {
        let mut trainer = IncrementalTrainer::new(small_config(), 5);
        assert!(trainer.current_forest().is_none());
        let (rows, labels) = rows_and_labels(60);
        let emitted = trainer.retrain(&rows, 2, &labels).unwrap();
        assert_eq!(trainer.current_forest().unwrap(), emitted);
        assert_eq!(trainer.seed(), 5);
    }

    #[test]
    fn accessors_report_state() {
        let mut trainer = IncrementalTrainer::new(small_config(), 5);
        assert_eq!(trainer.num_samples(), 0);
        assert!(trainer.training_set().is_none());
        assert_eq!(trainer.num_trees(), 6);
        let (rows, labels) = rows_and_labels(40);
        trainer.retrain(&rows, 2, &labels).unwrap();
        assert_eq!(trainer.num_samples(), 40);
        assert_eq!(trainer.training_set().unwrap().num_features(), 2);
        assert_eq!(trainer.config().block_size, 16);
    }
}
