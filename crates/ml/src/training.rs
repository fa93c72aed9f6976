//! Parallel, scratch-backed random-forest training engine.
//!
//! This module grows the trees [`IncrementalTrainer`] fits, straight into
//! the [`FlatForest`] layout the detector runs. A [`TrainingSet`] stores the
//! design matrix in **feature-major columns** next to **one presorted run of
//! u16 sample ids per feature**; tree growth then runs on a reusable split
//! scratch whose per-feature index segments are kept sorted by stable
//! partitioning at each split (no per-node sorting), and nodes are appended
//! to a node arena in DFS preorder (no per-node boxing). Trees are fitted in
//! parallel over the `seizure-parallel` scoped threads.
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
//! Each tree's feature subsampling replays a private ChaCha8 stream, and the
//! split scan is plain CART: Gini gain at every boundary between distinct
//! values, the first strictly best gain wins, and the threshold is the
//! midpoint of the two values. The crate's tests hold a boxed CART oracle
//! that sorts every node's samples afresh, and assert on finite values that
//! [`IncrementalTrainer::retrain`] equals it node for node.

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
    scratch.features.shuffle(rng);
    scratch.features.truncate(config.max_features);

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
    // counting the left side's size and positives. Midpoint rounding can
    // push every element to one side; such a node becomes a leaf.
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
    use crate::oracle::{blob_rows, fit};

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
