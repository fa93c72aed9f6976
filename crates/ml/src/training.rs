//! Parallel, scratch-backed random-forest training engine.
//!
//! This module grows the trees [`IncrementalTrainer`] fits, straight into
//! the [`FlatForest`] layout the detector runs. A [`TrainingSet`] stores the
//! design matrix in **feature-major columns** next to **one presorted run of
//! u16 sample ids per feature**. A tree keeps only its distinct drawn pool
//! ids with their bootstrap counts, and a node is one contiguous range of
//! them: for each candidate feature the node puts its ids in that feature's
//! run order (filtering the run through a per-id node tag while the node
//! holds a large share of the pool, sorting its ids on `(value total_cmp,
//! id)` once it is small), then the chosen split partitions the range once.
//! Nodes are appended to a node arena in DFS preorder (no per-node boxing).
//! Trees are fitted in parallel over the `seizure-parallel` scoped threads.
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
//!   and the seed of its feature-subsampling stream, and a worker's scratch
//!   holds a few bytes per pool id, never a copy of every feature's run.
//!
//! Each tree's feature subsampling replays a private ChaCha8 stream, and the
//! split scan is plain CART over the node's bootstrap multiset, each id
//! replayed as often as it was drawn: Gini gain at every boundary between
//! distinct values, the first strictly best gain wins, and the threshold is
//! the midpoint of the two values. The crate's tests hold a boxed CART
//! oracle that sorts every node's samples afresh, and assert on finite
//! values that [`IncrementalTrainer::retrain`] equals it node for node.

use crate::error::MlError;
use crate::flat::{FlatForest, LEAF};
use crate::forest::RandomForestConfig;
use rand::seq::SliceRandom;
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
/// use seizure_ml::TrainingSet;
///
/// # fn main() -> Result<(), seizure_ml::MlError> {
/// // Four samples of two features, row-major, then one more.
/// let rows = [0.0, 1.0, 0.2, 0.8, 0.9, 0.1, 1.0, 0.0];
/// let mut set = TrainingSet::from_rows(&rows, 2, &[false, false, true, true])?;
/// set.append_rows(&[0.5, 0.5], &[true])?;
/// assert_eq!(set.len(), 5);
/// // One u16 id per sample per feature.
/// assert_eq!(set.order_bytes(), 5 * 2 * 2);
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

    /// Feature `f`'s presorted run of sample ids.
    fn run(&self, f: usize) -> &[u16] {
        let n = self.len();
        &self.order[f * n..(f + 1) * n]
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

/// Reusable per-worker scratch for growing one tree at a time: the tree's
/// distinct drawn pool ids (each node owns one contiguous range of them),
/// their bootstrap counts, the per-id node tags the run filter reads, one
/// candidate feature's ordered node ids and the candidate-feature list. One
/// scratch serves every tree a worker fits, so tree growth touches the heap
/// only when a buffer first grows.
#[derive(Debug, Default)]
struct SplitScratch {
    /// The tree's distinct drawn pool ids; a node is one contiguous range.
    ids: Vec<u16>,
    /// Bootstrap multiplicity per pool id (0 = not drawn).
    counts: Vec<u32>,
    /// Per pool id, the stamp of the last node that filtered the presorted
    /// runs through it (0 = none this tree).
    tag: Vec<u32>,
    /// The last stamp handed out this tree.
    stamp: u32,
    /// One candidate feature's node ids in `(value, id)` order, plus one
    /// spare slot for the filter's branch-free store.
    sorted: Vec<u16>,
    /// Candidate feature list shuffled per node.
    features: Vec<usize>,
}

impl SplitScratch {
    /// Prepares the scratch for one tree over a pool of `n` ids: tallies the
    /// bootstrap draws per id and lists the distinct drawn ids in ascending
    /// order.
    fn load_tree(&mut self, n: usize, draws: &[u16]) {
        self.counts.clear();
        self.counts.resize(n, 0);
        for &d in draws {
            self.counts[d as usize] += 1;
        }
        self.ids.clear();
        self.ids
            .extend((0..n).filter(|&i| self.counts[i] > 0).map(|i| i as u16));
        self.tag.clear();
        self.tag.resize(n, 0);
        self.stamp = 0;
        self.sorted.resize(n + 1, 0);
    }

    /// Chooses from its size alone how the node `[lo, hi)` orders its
    /// candidates, and returns whether it filters: a node holding a large
    /// share of the `n`-id pool stamps its ids with a fresh tag and filters
    /// each candidate's presorted run (O(n) per candidate), a smaller one
    /// sorts its own `d` ids (O(d log d) per candidate).
    // lint: hot-path
    fn begin_node(&mut self, lo: usize, hi: usize, n: usize) -> bool {
        let d = hi - lo;
        let filters = 4 * d * (usize::BITS - d.leading_zeros()) as usize >= n;
        if filters {
            self.stamp += 1;
            for &id in &self.ids[lo..hi] {
                self.tag[id as usize] = self.stamp;
            }
        }
        filters
    }

    /// Writes the ids of the node `[lo, hi)` into `sorted[..hi - lo]` in
    /// feature `f`'s presorted-run order, `(value total_cmp, id)`, the way
    /// [`SplitScratch::begin_node`] chose.
    // lint: hot-path
    fn order_node(&mut self, set: &TrainingSet, f: usize, lo: usize, hi: usize, filters: bool) {
        if filters {
            let mut k = 0usize;
            for &id in set.run(f) {
                self.sorted[k] = id;
                k += usize::from(self.tag[id as usize] == self.stamp);
            }
            debug_assert_eq!(k, hi - lo);
        } else {
            let col = set.column(f);
            let out = &mut self.sorted[..hi - lo];
            out.copy_from_slice(&self.ids[lo..hi]);
            out.sort_unstable_by(|&a, &b| {
                col[a as usize].total_cmp(&col[b as usize]).then(a.cmp(&b))
            });
        }
    }

    /// Partitions the node's ids `[lo, hi)` so the ids whose value in `col`
    /// is at most `threshold` come first; returns where the right side starts
    /// and the left side's bootstrap size and positive count.
    // lint: hot-path
    fn partition(
        &mut self,
        col: &[f64],
        labels: &[bool],
        threshold: f64,
        lo: usize,
        hi: usize,
    ) -> (usize, usize, usize) {
        let mut mid = lo;
        let mut left_n = 0usize;
        let mut left_pos = 0usize;
        for i in lo..hi {
            let id = self.ids[i] as usize;
            if col[id] <= threshold {
                let c = self.counts[id] as usize;
                left_n += c;
                left_pos += c * labels[id] as usize;
                self.ids.swap(mid, i);
                mid += 1;
            }
        }
        (mid, left_n, left_pos)
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

/// Per-tree growth limits, resolved from a [`RandomForestConfig`] by
/// [`resolve_tree_config`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DecisionTreeConfig {
    /// Maximum tree depth (the root is depth 0).
    pub(crate) max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub(crate) min_samples_split: usize,
    /// Number of features considered at each split.
    pub(crate) max_features: usize,
}

/// Gini impurity of a binary class mixture with positive fraction `p`.
pub(crate) fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

/// The per-tree seed feeding each tree's private feature-subsampling stream.
pub(crate) fn tree_stream_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t as u64)
}

/// Validates the forest hyper-parameters against `set` and resolves them
/// into the per-tree configuration.
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
        max_features,
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
/// by each tree's base index (leaves keep 0/0 children).
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

/// Grows one tree on the scratch and returns its arena: tallies the draws
/// into distinct pool ids and recurses over the splits.
fn build_tree(
    set: &TrainingSet,
    config: &DecisionTreeConfig,
    job: &TreeJob<'_>,
    scratch: &mut SplitScratch,
) -> NodeArena {
    scratch.load_tree(set.len(), job.draws);
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    let mut arena = NodeArena::default();
    let labels = set.labels();
    let pos: usize = job.draws.iter().map(|&s| labels[s as usize] as usize).sum();
    let span = NodeSpan {
        lo: 0,
        hi: scratch.ids.len(),
        len: job.draws.len(),
        pos,
    };
    build_node(set, scratch, &mut arena, config, span, 0, &mut rng);
    arena
}

/// One node: its range `[lo, hi)` of the tree's distinct ids, the size of
/// its bootstrap multiset and its positive count, threaded through the
/// recursion so no node recounts its labels.
#[derive(Clone, Copy)]
struct NodeSpan {
    lo: usize,
    hi: usize,
    len: usize,
    pos: usize,
}

/// Recursively grows the node covering `span`, appending to `arena` in DFS
/// preorder.
fn build_node(
    set: &TrainingSet,
    scratch: &mut SplitScratch,
    arena: &mut NodeArena,
    config: &DecisionTreeConfig,
    span: NodeSpan,
    depth: usize,
    rng: &mut ChaCha8Rng,
) -> u32 {
    let NodeSpan { lo, hi, len, pos } = span;
    let p = pos as f64 / len as f64;
    if depth >= config.max_depth || len < config.min_samples_split || p == 0.0 || p == 1.0 {
        return arena.push(LEAF, 0.0, p);
    }

    scratch.features.clear();
    scratch.features.extend(0..set.num_features());
    scratch.features.shuffle(rng);
    scratch.features.truncate(config.max_features);

    let filters = scratch.begin_node(lo, hi, set.len());
    let mut search = SplitSearch {
        parent_impurity: gini(p),
        len,
        pos,
        best: None,
    };
    for c in 0..scratch.features.len() {
        let feature = scratch.features[c];
        scratch.order_node(set, feature, lo, hi, filters);
        search.scan(
            feature,
            set.column(feature),
            set.labels(),
            &scratch.counts,
            &scratch.sorted[..hi - lo],
        );
    }

    let (feature, threshold) = match search.best {
        None => return arena.push(LEAF, 0.0, p),
        Some((feature, threshold, _)) => (feature, threshold),
    };

    // Partition the node's ids by the split, counting the left side's
    // bootstrap size and positives. Midpoint rounding can push every
    // element to one side; such a node becomes a leaf.
    let (mid, left_n, left_pos) =
        scratch.partition(set.column(feature), set.labels(), threshold, lo, hi);
    if left_n == 0 || left_n == len {
        return arena.push(LEAF, 0.0, p);
    }

    let idx = arena.push(feature as u32, threshold, 0.0);
    let left_span = NodeSpan {
        lo,
        hi: mid,
        len: left_n,
        pos: left_pos,
    };
    let right_span = NodeSpan {
        lo: mid,
        hi,
        len: len - left_n,
        pos: pos - left_pos,
    };
    let left_idx = build_node(set, scratch, arena, config, left_span, depth + 1, rng);
    let right_idx = build_node(set, scratch, arena, config, right_span, depth + 1, rng);
    arena.left[idx as usize] = left_idx;
    arena.right[idx as usize] = right_idx;
    idx
}

/// One node's split search: its totals and the best split seen so far.
struct SplitSearch {
    parent_impurity: f64,
    /// Size of the node's bootstrap multiset.
    len: usize,
    /// Positives in the node's bootstrap multiset.
    pos: usize,
    /// `(feature, threshold, gain)` of the first strictly best boundary.
    best: Option<(usize, f64, f64)>,
}

impl SplitSearch {
    /// Plain CART over one candidate feature: weighs the Gini gain at every
    /// boundary of the node's bootstrap multiset in `(value, id)` order,
    /// replaying each id of `order` as many times as it was drawn. Equal
    /// values cannot be split, so the copies of a finite value only join the
    /// left side, while NaN copies (`NaN == NaN` is false) are weighed one
    /// boundary at a time. The threshold is the midpoint of the two values.
    // lint: hot-path
    fn scan(
        &mut self,
        feature: usize,
        col: &[f64],
        labels: &[bool],
        counts: &[u32],
        order: &[u16],
    ) {
        let mut left_n = 0usize;
        let mut left_pos = 0usize;
        let mut prev = col[order[0] as usize];
        for &id in order {
            let id = id as usize;
            let next = col[id];
            let label = labels[id] as usize;
            let copies = counts[id] as usize;
            if left_n > 0 && prev != next {
                self.weigh(feature, left_n, left_pos, prev, next);
                prev = next;
            }
            left_n += 1;
            left_pos += label;
            if !next.is_nan() {
                left_n += copies - 1;
                left_pos += label * (copies - 1);
            } else {
                for _ in 1..copies {
                    self.weigh(feature, left_n, left_pos, prev, next);
                    left_n += 1;
                    left_pos += label;
                }
            }
        }
    }

    /// Weighs the boundary between `left_n` elements ending in value `prev`
    /// and the rest starting at `next`.
    fn weigh(&mut self, feature: usize, left_n: usize, left_pos: usize, prev: f64, next: f64) {
        let right_n = self.len - left_n;
        let p_left = left_pos as f64 / left_n as f64;
        let p_right = (self.pos - left_pos) as f64 / right_n as f64;
        let weighted =
            (left_n as f64 * gini(p_left) + right_n as f64 * gini(p_right)) / self.len as f64;
        let gain = self.parent_impurity - weighted;
        if gain > self.best.map_or(1e-12, |(_, _, g)| g) {
            self.best = Some((feature, 0.5 * (prev + next), gain));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{blob_rows, fit};
    use rand::Rng;

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
    fn engine_rejects_invalid_parameters() {
        let bad = |forest: RandomForestConfig| {
            let config = IncrementalTrainerConfig {
                forest,
                ..IncrementalTrainerConfig::default()
            };
            IncrementalTrainer::new(config, 0)
                .retrain(&[1.0, 2.0], 1, &[true, false])
                .is_err()
        };
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
        let config = RandomForestConfig {
            n_trees: 4,
            ..RandomForestConfig::default()
        };
        let forest = fit(&[1.0, 2.0, 3.0], 1, &[true, true, true], config, 0);
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
        let config = RandomForestConfig {
            n_trees: 5,
            max_depth: 4,
            max_features: Some(2),
            ..RandomForestConfig::default()
        };
        let forest = fit(&rows, 2, &labels, config, 1);
        assert!(forest.predict(&[0.5, 39.0]));
        assert!(!forest.predict(&[0.5, 0.0]));
    }

    /// The fraction of `rows` whose majority vote matches its label.
    fn accuracy(forest: &FlatForest, rows: &[f64], labels: &[bool]) -> f64 {
        let nf = forest.num_features();
        let correct = rows
            .chunks_exact(nf)
            .zip(labels)
            .filter(|(row, &label)| forest.predict(row) == label)
            .count();
        correct as f64 / labels.len() as f64
    }

    /// An AND pattern (positive only when both features are high): a
    /// greedy tree needs depth 2 to learn it.
    fn and_rows() -> (Vec<f64>, Vec<bool>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let jitter = i as f64 * 0.01;
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let level = |high: bool| if high { 1.0 - jitter } else { jitter };
                rows.extend([level(a), level(b)]);
                labels.push(a && b);
            }
        }
        (rows, labels)
    }

    #[test]
    fn fits_linearly_separable_data_perfectly() {
        let rows: Vec<f64> = (0..20).map(f64::from).collect();
        let labels: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let config = RandomForestConfig {
            n_trees: 25,
            ..RandomForestConfig::default()
        };
        let forest = fit(&rows, 1, &labels, config, 0);
        // Every bootstrap holds both classes, so every tree is one split.
        assert_eq!(forest.num_nodes(), 3 * 25);
        assert_eq!(accuracy(&forest, &rows, &labels), 1.0);
    }

    #[test]
    fn separable_blobs_are_classified_accurately() {
        let (rows, labels) = blob_rows(60, 3.0);
        let forest = fit(&rows, 3, &labels, RandomForestConfig::default(), 3);
        assert!(accuracy(&forest, &rows, &labels) > 0.97);
        assert_eq!(forest.num_trees(), 50);
        assert_eq!(forest.num_features(), 3);
    }

    #[test]
    fn probabilities_are_extreme_far_from_the_boundary() {
        let (rows, labels) = blob_rows(60, 4.0);
        let forest = fit(&rows, 3, &labels, RandomForestConfig::default(), 3);
        assert!(forest.predict_proba(&[4.0, 4.0, 0.5]) > 0.9);
        assert!(forest.predict_proba(&[0.0, 0.0, 0.5]) < 0.1);
    }

    #[test]
    fn fit_is_deterministic_in_seed() {
        let (rows, labels) = blob_rows(30, 2.0);
        let config = RandomForestConfig {
            n_trees: 11,
            ..RandomForestConfig::default()
        };
        let a = fit(&rows, 3, &labels, config, 9);
        assert_eq!(a, fit(&rows, 3, &labels, config, 9));
        assert_ne!(a, fit(&rows, 3, &labels, config, 10));
    }

    #[test]
    fn learns_and_pattern_with_sufficient_depth() {
        let (rows, labels) = and_rows();
        let forest = fit(&rows, 2, &labels, RandomForestConfig::default(), 0);
        assert_eq!(accuracy(&forest, &rows, &labels), 1.0);
    }

    #[test]
    fn max_depth_one_cannot_learn_and_pattern() {
        let (rows, labels) = and_rows();
        let config = RandomForestConfig {
            n_trees: 1,
            max_depth: 1,
            ..RandomForestConfig::default()
        };
        let stump = fit(&rows, 2, &labels, config, 0);
        assert!(stump.num_nodes() <= 3);
        assert!(accuracy(&stump, &rows, &labels) < 1.0);
    }

    #[test]
    fn forest_outperforms_single_stump_on_noisy_data() {
        let (rows, labels) = blob_rows(80, 1.2);
        let stump = RandomForestConfig {
            n_trees: 1,
            max_depth: 1,
            ..RandomForestConfig::default()
        };
        let forest = RandomForestConfig {
            n_trees: 60,
            max_depth: 8,
            ..RandomForestConfig::default()
        };
        let stump = fit(&rows, 3, &labels, stump, 1);
        let forest = fit(&rows, 3, &labels, forest, 1);
        assert!(accuracy(&forest, &rows, &labels) >= accuracy(&stump, &rows, &labels));
    }

    /// The split scan over a node's bootstrap multiset, expanded copy by
    /// copy in `(value, id)` order: the reference `SplitSearch::scan`
    /// replays from distinct ids and their counts.
    fn expanded_scan(col: &[f64], labels: &[bool], seg: &[u16]) -> Option<(usize, f64, f64)> {
        let len = seg.len();
        let total_pos = seg.iter().filter(|&&id| labels[id as usize]).count();
        let parent_impurity = gini(total_pos as f64 / len as f64);
        let mut best: Option<(usize, f64, f64)> = None;
        let mut left_pos = 0usize;
        let mut prev = col[seg[0] as usize];
        for split_at in 1..len {
            left_pos += labels[seg[split_at - 1] as usize] as usize;
            let next = col[seg[split_at] as usize];
            if prev == next {
                continue;
            }
            let right_n = len - split_at;
            let p_left = left_pos as f64 / split_at as f64;
            let p_right = (total_pos - left_pos) as f64 / right_n as f64;
            let weighted =
                (split_at as f64 * gini(p_left) + right_n as f64 * gini(p_right)) / len as f64;
            let gain = parent_impurity - weighted;
            if gain > best.map_or(1e-12, |(_, _, g)| g) {
                best = Some((0, 0.5 * (prev + next), gain));
            }
            prev = next;
        }
        best
    }

    #[test]
    fn scan_replays_each_id_count_times() {
        // Few levels, signed zeros (equal but ordered apart) and NaNs of
        // both signs, so value ties, zero ties and cuts between NaN copies
        // all reach the scan.
        let levels = [-f64::NAN, -1.0, -0.0, 0.0, 0.5, 2.0, f64::NAN];
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for case in 0..2_000 {
            let n = rng.gen_range(2..20usize);
            let col: Vec<f64> = (0..n)
                .map(|_| levels[rng.gen_range(0..levels.len())])
                .collect();
            let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(1..5u32)).collect();
            let mut order: Vec<u16> = (0..n as u16).collect();
            order.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]).then(a.cmp(&b)));
            let seg: Vec<u16> = order
                .iter()
                .flat_map(|&id| std::iter::repeat_n(id, counts[id as usize] as usize))
                .collect();
            let pos = seg.iter().filter(|&&id| labels[id as usize]).count();
            let mut search = SplitSearch {
                parent_impurity: gini(pos as f64 / seg.len() as f64),
                len: seg.len(),
                pos,
                best: None,
            };
            search.scan(0, &col, &labels, &counts, &order);
            // A NaN threshold's sign and payload are unspecified (`NaN + NaN`
            // may return either operand), and no value is `<=` NaN, so such a
            // split always becomes a leaf: only its NaN-ness can matter.
            let bits = |b: Option<(usize, f64, f64)>| {
                b.map(|(f, t, g)| {
                    (
                        f,
                        if t.is_nan() { None } else { Some(t.to_bits()) },
                        g.to_bits(),
                    )
                })
            };
            assert_eq!(
                bits(search.best),
                bits(expanded_scan(&col, &labels, &seg)),
                "case {case}: {col:?} {labels:?} {counts:?}"
            );
        }
    }

    #[test]
    fn smaller_bootstrap_fraction_still_trains() {
        let (rows, labels) = blob_rows(40, 2.5);
        let config = RandomForestConfig {
            n_trees: 15,
            bootstrap_fraction: 0.5,
            ..RandomForestConfig::default()
        };
        let forest = fit(&rows, 3, &labels, config, 2);
        assert_eq!(forest.num_trees(), 15);
        assert!(forest.predict(&[2.5, 2.5, 0.2]));
    }
}
