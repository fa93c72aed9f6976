//! Parallel, scratch-backed random-forest training engine.
//!
//! [`RandomForest::fit`](crate::forest::RandomForest::fit) re-sorts the
//! node's samples for every candidate feature of every split and allocates a
//! boxed node per tree position, which makes retraining the dominant cost of
//! the paper's self-learning loop. This module is the training twin of
//! [`FlatForest`]: a [`TrainingSet`] stores the design matrix in
//! **feature-major columns** next to **one presorted run of u16 sample ids
//! per feature**; tree growth then runs on a reusable split scratch whose
//! per-feature index segments are kept sorted by stable partitioning at each
//! split (no per-node sorting), and nodes are appended to a node arena in DFS
//! preorder (no per-node boxing). Trees are fitted in parallel over the
//! `seizure-parallel` scoped threads.
//!
//! The layout is sized to the wearable, whose Flash cannot persist even a
//! few hundred windows next to its signal buffer:
//!
//! * a pool holds at most [`TrainingSet::MAX_SAMPLES`] (65 536) samples, the
//!   u16 id space; larger pools are rejected with a typed error;
//! * [`TrainingSet::append_rows`] sorts the batch and merges it into every
//!   feature's run with one two-way merge (value ties keep ascending ids),
//!   so the grown set equals a from-scratch build of the concatenated rows;
//! * a tree job is only its bootstrap draws (pool ids, repetitions allowed)
//!   and the seed of its feature-subsampling stream: the tree expands every
//!   feature's run by its draw counts, O(pool) per feature.
//!
//! The engine is **bit-identical** to the boxed path: bootstrap draws come
//! from the same shared RNG stream consumed in tree order, each tree's
//! feature subsampling replays the same per-tree ChaCha8 stream, and the
//! split scan applies the same floating-point operations in the same order as
//! [`DecisionTree::fit_with_indices`](crate::tree::DecisionTree::fit_with_indices),
//! so [`train_forest`] equals `FlatForest::from_forest(&RandomForest::fit(..))`
//! node for node (a property-tested invariant).
//!
//! For retraining that reuses trees across pool growth instead of refitting
//! the whole ensemble, see
//! [`crate::incremental::IncrementalTrainer`], which is built on the same
//! scratch machinery.

use crate::error::MlError;
use crate::flat::{FlatForest, LEAF};
use crate::forest::RandomForestConfig;
use crate::tree::{gini, DecisionTreeConfig};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub use crate::incremental::{IncrementalTrainer, IncrementalTrainerConfig};

/// A design matrix prepared for scratch-backed tree growth: feature-major
/// columns (`columns[f * len + i]` is feature `f` of sample `i`), the labels
/// and one presorted run of u16 sample ids per feature (`order[f * len..]`,
/// sorted by `(value, id)` per `f64::total_cmp`), shared read-only by every
/// tree of the ensemble.
///
/// # Example
///
/// ```
/// use seizure_ml::{RandomForestConfig, TrainingSet};
///
/// # fn main() -> Result<(), seizure_ml::MlError> {
/// // Four samples of two features, row-major.
/// let rows = [0.0, 1.0, 0.2, 0.8, 0.9, 0.1, 1.0, 0.0];
/// let set = TrainingSet::from_rows(&rows, 2, &[false, false, true, true])?;
/// let config = RandomForestConfig { n_trees: 5, ..RandomForestConfig::default() };
/// let forest = seizure_ml::train_forest(&set, &config, 1)?;
/// assert_eq!(forest.num_trees(), 5);
/// assert!(forest.predict(&[0.95, 0.05]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSet {
    num_features: usize,
    columns: Vec<f64>,
    labels: Vec<bool>,
    order: Vec<u16>,
}

impl TrainingSet {
    /// Largest pool a training set holds: sample ids are u16.
    pub const MAX_SAMPLES: usize = u16::MAX as usize + 1;

    /// Builds a training set from a flat row-major matrix
    /// (`labels.len() * num_features` values) and presorts every column.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidDataset`] for an empty set, a zero feature
    /// count or more than [`TrainingSet::MAX_SAMPLES`] samples, and
    /// [`MlError::DimensionMismatch`] if the buffer length does not equal
    /// `labels.len() * num_features`.
    pub fn from_rows(rows: &[f64], num_features: usize, labels: &[bool]) -> Result<Self, MlError> {
        check_shape("flat matrix", rows.len(), num_features, labels.len())?;
        let n = labels.len();
        let mut columns = vec![0.0; rows.len()];
        // lint: hot-path
        for (i, row) in rows.chunks_exact(num_features).enumerate() {
            for (f, &x) in row.iter().enumerate() {
                columns[f * n + i] = x;
            }
        }
        Ok(Self::presorted(columns, num_features, labels.to_vec()))
    }

    /// Builds a training set from flat feature-major storage — the persisted
    /// representation. The runs are a pure function of the columns, so the
    /// rebuilt order is identical to the saved set's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainingSet::from_rows`].
    pub(crate) fn from_columns(
        columns: Vec<f64>,
        num_features: usize,
        labels: Vec<bool>,
    ) -> Result<Self, MlError> {
        check_shape("column storage", columns.len(), num_features, labels.len())?;
        Ok(Self::presorted(columns, num_features, labels))
    }

    /// Sorts every column's run with one stable `f64::total_cmp` sort.
    fn presorted(columns: Vec<f64>, num_features: usize, labels: Vec<bool>) -> Self {
        let n = labels.len();
        let mut order = vec![0u16; columns.len()];
        // lint: hot-path
        for (vals, run) in columns.chunks_exact(n).zip(order.chunks_exact_mut(n)) {
            for (i, slot) in run.iter_mut().enumerate() {
                *slot = i as u16;
            }
            run.sort_by(|&a, &b| vals[a as usize].total_cmp(&vals[b as usize]));
        }
        Self {
            num_features,
            columns,
            labels,
            order,
        }
    }

    /// Appends new samples (flat row-major, `labels.len() * num_features`
    /// values): every column grows in place and its run absorbs the sorted
    /// batch through one two-way merge, so the result is exactly the set
    /// [`TrainingSet::from_rows`] would build from the concatenated matrix
    /// (value ties keep ascending sample ids). A rejected append leaves the
    /// set untouched.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidDataset`] for an empty append or one that
    /// would grow the set past [`TrainingSet::MAX_SAMPLES`] samples, and
    /// [`MlError::DimensionMismatch`] if the buffer length does not equal
    /// `labels.len() * num_features`.
    pub fn append_rows(&mut self, rows: &[f64], labels: &[bool]) -> Result<(), MlError> {
        let k = labels.len();
        let nf = self.num_features;
        check_shape("flat matrix", rows.len(), nf, k)?;
        let n = self.len();
        let total = n + k;
        check_capacity(total)?;
        self.columns.resize(total * nf, 0.0);
        self.order.resize(total * nf, 0);
        self.labels.extend_from_slice(labels);

        // Each feature's region moves from stride `n` to stride `total`,
        // back to front so no unread region is overwritten.
        // lint: hot-path
        for f in (1..nf).rev() {
            self.columns.copy_within(f * n..f * n + n, f * total);
            self.order.copy_within(f * n..f * n + n, f * total);
        }
        // lint: hot-path
        for (i, row) in rows.chunks_exact(nf).enumerate() {
            for (f, &x) in row.iter().enumerate() {
                self.columns[f * total + n + i] = x;
            }
        }

        // Merge each column's sorted batch into its run in place, back to
        // front. On value ties the merge takes the batch side, which is
        // correct because every batch id exceeds every existing one.
        let mut fresh: Vec<u16> = Vec::with_capacity(k);
        // lint: hot-path
        for (vals, run) in self
            .columns
            .chunks_exact(total)
            .zip(self.order.chunks_exact_mut(total))
        {
            fresh.clear();
            fresh.extend((n..total).map(|i| i as u16));
            fresh.sort_by(|&a, &b| vals[a as usize].total_cmp(&vals[b as usize]));
            let mut i = n; // the old run occupies run[..n]
            let mut j = k;
            for slot in (0..total).rev() {
                if j == 0 {
                    break; // the remaining old prefix is already in place
                }
                let take_fresh = i == 0
                    || vals[fresh[j - 1] as usize].total_cmp(&vals[run[i - 1] as usize])
                        != std::cmp::Ordering::Less;
                if take_fresh {
                    j -= 1;
                    run[slot] = fresh[j];
                } else {
                    i -= 1;
                    run[slot] = run[i];
                }
            }
        }
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the set holds no samples (never: construction
    /// rejects empty sets).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per sample.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Labels, in sample order.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Feature-major values: feature `f` of sample `i` at `f * len + i`.
    pub(crate) fn columns(&self) -> &[f64] {
        &self.columns
    }

    /// Feature `f`'s values, sample-id indexed.
    fn column(&self, f: usize) -> &[f64] {
        let n = self.len();
        &self.columns[f * n..(f + 1) * n]
    }

    /// Bytes held by the presorted runs: one u16 per sample per feature.
    pub fn order_bytes(&self) -> usize {
        self.order.len() * std::mem::size_of::<u16>()
    }
}

/// Validates a training set's shape: at least one feature, a value buffer
/// covering `samples x num_features`, and 1 to
/// [`TrainingSet::MAX_SAMPLES`] samples.
fn check_shape(
    what: &str,
    values: usize,
    num_features: usize,
    samples: usize,
) -> Result<(), MlError> {
    if num_features == 0 {
        return Err(MlError::InvalidDataset {
            detail: "training set must contain at least one feature".to_string(),
        });
    }
    if samples.checked_mul(num_features) != Some(values) {
        return Err(MlError::DimensionMismatch {
            detail: format!(
                "{what} of {values} values does not cover {samples} samples x {num_features} features"
            ),
        });
    }
    if samples == 0 {
        return Err(MlError::InvalidDataset {
            detail: "training set must contain at least one sample".to_string(),
        });
    }
    check_capacity(samples)
}

/// Rejects pools past the u16 id space.
fn check_capacity(samples: usize) -> Result<(), MlError> {
    if samples > TrainingSet::MAX_SAMPLES {
        return Err(MlError::InvalidDataset {
            detail: format!(
                "training sets are limited to {} samples (u16 ids), got {samples}",
                TrainingSet::MAX_SAMPLES
            ),
        });
    }
    Ok(())
}

/// Reusable per-worker scratch for growing one tree at a time: the per-tree
/// bootstrap multiset orders (one sorted segment per feature), the stable
/// partition buffer, the bootstrap count table and the candidate-feature
/// list. One scratch serves every tree a worker fits, so tree growth touches
/// the heap only when a buffer first grows.
#[derive(Debug, Default)]
struct SplitScratch {
    /// Per-feature bootstrap multiset, column-major: `order[f * m ..][..m]`
    /// lists the drawn sample ids in ascending order of feature `f`.
    order: Vec<u16>,
    /// Stable-partition staging buffer (`m` ids).
    buf: Vec<u16>,
    /// Bootstrap multiplicity per pool sample.
    counts: Vec<u32>,
    /// Split-side table per pool sample (1 = left), evaluated once per
    /// split so partitioning the feature segments never re-gathers the split
    /// column.
    side: Vec<u8>,
    /// Candidate feature list shuffled per node.
    features: Vec<usize>,
}

impl SplitScratch {
    /// Prepares the scratch for one tree: zeroes the count table, tallies the
    /// bootstrap draws and materializes the per-feature sorted multisets by
    /// expanding every feature's presorted run by the bootstrap counts.
    fn load_tree(&mut self, set: &TrainingSet, draws: &[u16]) {
        let n = set.len();
        let m = draws.len();
        self.counts.clear();
        self.counts.resize(n, 0);
        for &d in draws {
            self.counts[d as usize] += 1;
        }
        self.buf.resize(m, 0);
        self.side.clear();
        self.side.resize(n, 0);
        // Three spare slots absorb the unconditional overflow writes of the
        // branch-light emit below.
        let need = set.num_features() * m + 3;
        if self.order.len() != need {
            self.order.resize(need, 0);
        }
        // Every feature's run expands to exactly `m` ids, so the runs'
        // feature-major layout lands on the `m`-per-feature segments.
        let mut k = 0usize;
        // lint: hot-path
        for &id in &set.order {
            let c = self.counts[id as usize] as usize;
            // Branch-light emit: bootstrap multiplicities are almost always
            // <= 3, so three unconditional stores cover ~98% of samples
            // without a data-dependent branch; slots written past `k + c`
            // are overwritten by the following samples (or land in the spare
            // tail).
            let end = k + c;
            self.order[k] = id;
            self.order[k + 1] = id;
            self.order[k + 2] = id;
            if c > 3 {
                for slot in &mut self.order[k + 3..end] {
                    *slot = id;
                }
            }
            k = end;
        }
        debug_assert_eq!(k, set.num_features() * m);
    }
}

/// Append-only struct-of-arrays node storage for one growing tree, mirroring
/// the [`FlatForest`] layout (DFS preorder, [`LEAF`] sentinel in `feature`).
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct NodeArena {
    pub(crate) feature: Vec<u32>,
    pub(crate) threshold: Vec<f64>,
    pub(crate) left: Vec<u32>,
    pub(crate) right: Vec<u32>,
    pub(crate) leaf_prob: Vec<f64>,
}

impl NodeArena {
    fn push(&mut self, feature: u32, threshold: f64, prob: f64) -> u32 {
        let idx = self.feature.len() as u32;
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(0);
        self.right.push(0);
        self.leaf_prob.push(prob);
        idx
    }

    pub(crate) fn len(&self) -> usize {
        self.feature.len()
    }
}

/// The per-tree seed feeding each tree's private feature-subsampling stream
/// (the same mixing the boxed forest applies).
pub(crate) fn tree_stream_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t as u64)
}

/// Validates the forest hyper-parameters against `set` and resolves them
/// into the per-tree configuration (shared by [`train_forest`] and the
/// incremental trainer).
pub(crate) fn resolve_tree_config(
    set: &TrainingSet,
    config: &RandomForestConfig,
) -> Result<DecisionTreeConfig, MlError> {
    if config.n_trees == 0 {
        return Err(MlError::InvalidParameter {
            name: "n_trees",
            reason: "the ensemble needs at least one tree".to_string(),
        });
    }
    if !(config.bootstrap_fraction > 0.0 && config.bootstrap_fraction <= 1.0) {
        return Err(MlError::InvalidParameter {
            name: "bootstrap_fraction",
            reason: format!("must lie in (0, 1], got {}", config.bootstrap_fraction),
        });
    }
    if config.max_depth == 0 {
        return Err(MlError::InvalidParameter {
            name: "max_depth",
            reason: "maximum depth must be at least 1".to_string(),
        });
    }
    let max_features = match config.max_features {
        Some(k) => {
            if k == 0 || k > set.num_features() {
                return Err(MlError::InvalidParameter {
                    name: "max_features",
                    reason: format!("must lie in [1, {}], got {k}", set.num_features()),
                });
            }
            k
        }
        None => ((set.num_features() as f64).sqrt().ceil() as usize).max(1),
    };
    Ok(DecisionTreeConfig {
        max_depth: config.max_depth,
        min_samples_split: config.min_samples_split,
        max_features: Some(max_features),
    })
}

/// One tree-fitting job: the bootstrap draw multiset (pool ids,
/// repetitions allowed) and the seed of the tree's feature-subsampling
/// stream.
pub(crate) struct TreeJob<'a> {
    pub draws: &'a [u16],
    pub seed: u64,
}

/// Fits one arena per job in parallel (per-worker scratch, deterministic
/// per-tree RNG streams).
pub(crate) fn fit_tree_jobs(
    set: &TrainingSet,
    tree_config: &DecisionTreeConfig,
    jobs: &[TreeJob<'_>],
) -> Result<Vec<NodeArena>, MlError> {
    seizure_parallel::par_map_init::<_, _, MlError, _, _>(
        jobs.len(),
        1,
        || Ok(SplitScratch::default()),
        |scratch, t| Ok(build_tree(set, tree_config, &jobs[t], scratch)),
    )
}

/// Stitches per-tree arenas into one flat forest, offsetting split children
/// by each tree's base index (leaves keep the 0/0 children the boxed
/// compiler leaves behind, preserving exact equality).
pub(crate) fn stitch_forest(num_features: usize, trees: &[&NodeArena]) -> FlatForest {
    let total: usize = trees.iter().map(|t| t.len()).sum();
    assert!(
        (total as u64) < LEAF as u64,
        "forest exceeds u32 node indexing"
    );
    let mut roots = Vec::with_capacity(trees.len());
    let mut feature = Vec::with_capacity(total);
    let mut threshold = Vec::with_capacity(total);
    let mut left = Vec::with_capacity(total);
    let mut right = Vec::with_capacity(total);
    let mut leaf_prob = Vec::with_capacity(total);
    for tree in trees {
        let base = feature.len() as u32;
        roots.push(base);
        for i in 0..tree.len() {
            let is_split = tree.feature[i] != LEAF;
            feature.push(tree.feature[i]);
            threshold.push(tree.threshold[i]);
            left.push(if is_split { tree.left[i] + base } else { 0 });
            right.push(if is_split { tree.right[i] + base } else { 0 });
            leaf_prob.push(tree.leaf_prob[i]);
        }
    }
    FlatForest::from_raw_parts(
        num_features,
        roots,
        feature,
        threshold,
        left,
        right,
        leaf_prob,
    )
}

/// Fits a random forest on a prepared [`TrainingSet`], producing the flat
/// compiled representation directly. Trees are fitted in parallel (one
/// deterministic RNG stream per tree), and the result is bit-identical to
/// `FlatForest::from_forest(&RandomForest::fit(..))` with the same
/// configuration and seed.
///
/// The bit-identity contract holds for feature matrices without NaN values
/// (every real feature path). With NaNs, both split finders are panic-free
/// and deterministic (`f64::total_cmp` total order), but the presorted runs
/// here and the boxed path's per-node sorts may order bit-identical NaNs
/// differently within a tie group and then choose different (degenerate)
/// splits.
///
/// # Errors
///
/// Returns [`MlError::InvalidParameter`] under the same conditions as
/// [`RandomForest::fit`](crate::forest::RandomForest::fit): zero `n_trees`,
/// a bootstrap fraction outside `(0, 1]`, zero `max_depth` or an
/// out-of-range `max_features`.
pub fn train_forest(
    set: &TrainingSet,
    config: &RandomForestConfig,
    seed: u64,
) -> Result<FlatForest, MlError> {
    let tree_config = resolve_tree_config(set, config)?;

    // Bootstrap draws replay the boxed path's shared RNG stream: all trees'
    // indices are drawn sequentially up front so the fan-out cannot perturb
    // the sequence.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sample_count = ((set.len() as f64 * config.bootstrap_fraction).round() as usize).max(1);
    let draws: Vec<u16> = (0..config.n_trees * sample_count)
        .map(|_| rng.gen_range(0..set.len()) as u16)
        .collect();
    let jobs: Vec<TreeJob<'_>> = draws
        .chunks_exact(sample_count)
        .enumerate()
        .map(|(t, draws)| TreeJob {
            draws,
            seed: tree_stream_seed(seed, t),
        })
        .collect();
    let trees = fit_tree_jobs(set, &tree_config, &jobs)?;
    let refs: Vec<&NodeArena> = trees.iter().collect();
    Ok(stitch_forest(set.num_features(), &refs))
}

/// Grows one tree on the scratch and returns its arena: expands the
/// presorted runs into the per-feature multisets and recurses over the
/// splits.
fn build_tree(
    set: &TrainingSet,
    config: &DecisionTreeConfig,
    job: &TreeJob<'_>,
    scratch: &mut SplitScratch,
) -> NodeArena {
    scratch.load_tree(set, job.draws);
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    let mut arena = NodeArena::default();
    let labels = set.labels();
    let pos: usize = scratch.order[..job.draws.len()]
        .iter()
        .map(|&s| labels[s as usize] as usize)
        .sum();
    build_node(
        set,
        scratch,
        &mut arena,
        config,
        NodeSpan {
            lo: 0,
            hi: job.draws.len(),
            pos,
        },
        0,
        &mut rng,
    );
    arena
}

/// One node's multiset segment (`[lo, hi)` across every feature's sorted
/// order) plus its positive count, threaded through the recursion so no node
/// recounts its labels.
#[derive(Clone, Copy)]
struct NodeSpan {
    lo: usize,
    hi: usize,
    pos: usize,
}

/// Recursively grows the node covering `span` (the same `[lo, hi)` range
/// across every feature's sorted segment), appending to `arena` in DFS
/// preorder exactly like the boxed builder recursion.
fn build_node(
    set: &TrainingSet,
    scratch: &mut SplitScratch,
    arena: &mut NodeArena,
    config: &DecisionTreeConfig,
    span: NodeSpan,
    depth: usize,
    rng: &mut ChaCha8Rng,
) -> u32 {
    let m = scratch.buf.len();
    let NodeSpan { lo, hi, pos } = span;
    let len = hi - lo;
    let p = pos as f64 / len as f64;
    if depth >= config.max_depth || len < config.min_samples_split || p == 0.0 || p == 1.0 {
        return arena.push(LEAF, 0.0, p);
    }

    let num_features = set.num_features();
    scratch.features.clear();
    scratch.features.extend(0..num_features);
    if let Some(k) = config.max_features {
        scratch.features.shuffle(rng);
        scratch.features.truncate(k);
    }

    let parent_impurity = gini(p);
    let total_pos = pos;
    let labels = set.labels();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)

    for &feature in &scratch.features {
        let seg = &scratch.order[feature * m + lo..feature * m + hi];
        let col = set.column(feature);
        let mut left_pos = 0usize;
        let mut prev_id = seg[0];
        let mut prev = col[prev_id as usize];
        for (split_at, &next_id) in seg.iter().enumerate().skip(1) {
            left_pos += labels[prev_id as usize] as usize;
            let next = col[next_id as usize];
            if prev == next {
                prev_id = next_id;
                continue; // cannot split between identical values
            }
            let left_n = split_at;
            let right_n = len - split_at;
            let p_left = left_pos as f64 / left_n as f64;
            let p_right = (total_pos - left_pos) as f64 / right_n as f64;
            let weighted =
                (left_n as f64 * gini(p_left) + right_n as f64 * gini(p_right)) / len as f64;
            let gain = parent_impurity - weighted;
            if gain > best.map_or(1e-12, |(_, _, g)| g) {
                best = Some((feature, 0.5 * (prev + next), gain));
            }
            prev_id = next_id;
            prev = next;
        }
    }

    let (feature, threshold) = match best {
        None => return arena.push(LEAF, 0.0, p),
        Some((feature, threshold, _)) => (feature, threshold),
    };

    // Evaluate the split predicate once per element into the side table,
    // counting the left side's size and positives; the boxed builder
    // re-checks emptiness on the partitioned sets because midpoint rounding
    // can push every element to one side.
    let mut left_n = 0usize;
    let mut left_pos = 0usize;
    {
        let SplitScratch { order, side, .. } = scratch;
        let col = set.column(feature);
        for &s in &order[feature * m + lo..feature * m + hi] {
            let id = s as usize;
            let is_left = col[id] <= threshold;
            side[id] = is_left as u8;
            left_n += is_left as usize;
            left_pos += (is_left as usize) & labels[id] as usize;
        }
    }
    if left_n == 0 || left_n == len {
        return arena.push(LEAF, 0.0, p);
    }
    let right_n = len - left_n;
    let right_pos = pos - left_pos;

    // A child that will immediately become a leaf never reads its sorted
    // segments (and leaves consume no RNG), so when both children are
    // guaranteed leaves the partition below is skipped entirely — the
    // dominant saving on the deepest tree level.
    let is_leaf = |child_len: usize, child_pos: usize| {
        depth + 1 >= config.max_depth
            || child_len < config.min_samples_split
            || child_pos == 0
            || child_pos == child_len
    };
    let partition_needed = !(is_leaf(left_n, left_pos) && is_leaf(right_n, right_pos));

    // Stable-partition every feature's segment by the chosen split so both
    // children keep presorted segments, staging through the scratch buffer.
    if partition_needed {
        let SplitScratch {
            order, buf, side, ..
        } = scratch;
        for f in 0..num_features {
            let seg = &mut order[f * m + lo..f * m + hi];
            buf[..len].copy_from_slice(seg);
            let mut l = 0usize;
            let mut r = left_n;
            for &s in &buf[..len] {
                // Branch-light select: the destination cursor is chosen with
                // a conditional move, so the (data-dependent) split side
                // never costs a branch misprediction.
                let is_left = side[s as usize] as usize;
                let dst = if is_left == 1 { l } else { r };
                seg[dst] = s;
                l += is_left;
                r += 1 - is_left;
            }
        }
    }

    let idx = arena.push(feature as u32, threshold, 0.0);
    let mid = lo + left_n;
    let left_span = NodeSpan {
        lo,
        hi: mid,
        pos: left_pos,
    };
    let right_span = NodeSpan {
        lo: mid,
        hi,
        pos: pos - left_pos,
    };
    let left_idx = build_node(set, scratch, arena, config, left_span, depth + 1, rng);
    let right_idx = build_node(set, scratch, arena, config, right_span, depth + 1, rng);
    arena.left[idx as usize] = left_idx;
    arena.right[idx as usize] = right_idx;
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForest;

    /// The training set of a row-vector [`Dataset`].
    fn training_set(data: &Dataset) -> TrainingSet {
        let rows: Vec<f64> = data.features().iter().flatten().copied().collect();
        TrainingSet::from_rows(&rows, data.num_features(), data.labels()).unwrap()
    }

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

    #[test]
    fn training_set_validation() {
        assert!(TrainingSet::from_rows(&[], 1, &[]).is_err());
        assert!(TrainingSet::from_rows(&[1.0], 0, &[true]).is_err());
        assert!(TrainingSet::from_rows(&[1.0, 2.0, 3.0], 2, &[true, false]).is_err());
        let set = TrainingSet::from_rows(&[1.0, 2.0, 3.0, 4.0], 2, &[true, false]).unwrap();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.num_features(), 2);
        assert_eq!(set.labels(), &[true, false]);
    }

    #[test]
    fn training_set_presorts_every_column() {
        let rows = [3.0, 0.5, 1.0, 0.7, 2.0, 0.1];
        let set = TrainingSet::from_rows(&rows, 2, &[true, false, true]).unwrap();
        // Feature-major columns: [3, 1, 2] then [0.5, 0.7, 0.1].
        assert_eq!(set.columns(), &[3.0, 1.0, 2.0, 0.5, 0.7, 0.1]);
        assert_eq!(set.column(1), &[0.5, 0.7, 0.1]);
        // Column 0 ascends over ids 1, 2, 0 and column 1 over ids 2, 0, 1.
        assert_eq!(set.order, &[1, 2, 0, 2, 0, 1]);
        assert_eq!(set.order_bytes(), 12);
    }

    #[test]
    fn append_rows_matches_full_rebuild() {
        // Values with heavy ties across the prefix/suffix boundary exercise
        // the merge's stable tie-breaking.
        let full_rows: Vec<f64> = (0..60).map(|i| ((i * 7) % 5) as f64 * 0.5).collect();
        let full_labels: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
        for cut in [1usize, 10, 17, 29] {
            let mut grown =
                TrainingSet::from_rows(&full_rows[..cut * 2], 2, &full_labels[..cut]).unwrap();
            grown
                .append_rows(&full_rows[cut * 2..], &full_labels[cut..])
                .unwrap();
            let rebuilt = TrainingSet::from_rows(&full_rows, 2, &full_labels).unwrap();
            assert_eq!(grown, rebuilt, "cut {cut}");
        }
    }

    #[test]
    fn append_rows_validation() {
        let mut set = TrainingSet::from_rows(&[1.0, 2.0], 2, &[true]).unwrap();
        assert!(set.append_rows(&[], &[]).is_err());
        assert!(set.append_rows(&[1.0], &[true]).is_err());
        assert!(set.append_rows(&[1.0, 2.0, 3.0], &[true]).is_err());
        set.append_rows(&[3.0, 4.0], &[false]).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.labels(), &[true, false]);
    }

    #[test]
    fn engine_matches_boxed_forest_exactly() {
        let data = blob_dataset(40, 1.5);
        let config = RandomForestConfig {
            n_trees: 13,
            max_depth: 7,
            ..RandomForestConfig::default()
        };
        for seed in [0, 1, 7, 42] {
            let boxed = RandomForest::fit(&data, &config, seed).unwrap();
            let reference = FlatForest::from_forest(&boxed);
            let set = training_set(&data);
            let engine = train_forest(&set, &config, seed).unwrap();
            assert_eq!(engine, reference, "seed {seed}");
        }
    }

    #[test]
    fn engine_handles_duplicate_feature_values() {
        // Constant column plus a discrete column with heavy ties.
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![1.0, (i % 3) as f64, (i % 5) as f64])
            .collect();
        let labels: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let config = RandomForestConfig {
            n_trees: 9,
            max_depth: 5,
            ..RandomForestConfig::default()
        };
        let reference = FlatForest::from_forest(&RandomForest::fit(&data, &config, 3).unwrap());
        let set = training_set(&data);
        assert_eq!(train_forest(&set, &config, 3).unwrap(), reference);
    }

    #[test]
    fn engine_rejects_invalid_parameters() {
        let set = TrainingSet::from_rows(&[1.0, 2.0], 1, &[true, false]).unwrap();
        let bad = |config: RandomForestConfig| train_forest(&set, &config, 0).is_err();
        assert!(bad(RandomForestConfig {
            n_trees: 0,
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            bootstrap_fraction: 0.0,
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            bootstrap_fraction: 1.5,
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            max_depth: 0,
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            max_features: Some(0),
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            max_features: Some(9),
            ..RandomForestConfig::default()
        }));
    }

    #[test]
    fn pure_training_set_yields_single_leaves() {
        let set = TrainingSet::from_rows(&[1.0, 2.0, 3.0], 1, &[true, true, true]).unwrap();
        let config = RandomForestConfig {
            n_trees: 4,
            ..RandomForestConfig::default()
        };
        let forest = train_forest(&set, &config, 0).unwrap();
        assert_eq!(forest.num_nodes(), 4);
        assert_eq!(forest.predict_proba(&[9.0]), 1.0);
    }

    #[test]
    fn nan_features_train_without_panicking() {
        // A column of NaNs cannot anchor a usable split; training must fall
        // back to the clean column instead of panicking mid-retrain.
        let rows: Vec<f64> = (0..40)
            .flat_map(|i| [if i % 4 == 0 { f64::NAN } else { 0.5 }, i as f64])
            .collect();
        let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let set = TrainingSet::from_rows(&rows, 2, &labels).unwrap();
        let config = RandomForestConfig {
            n_trees: 5,
            max_depth: 4,
            max_features: Some(2),
            ..RandomForestConfig::default()
        };
        let forest = train_forest(&set, &config, 1).unwrap();
        assert!(forest.predict(&[0.5, 39.0]));
        assert!(!forest.predict(&[0.5, 0.0]));
    }
}
