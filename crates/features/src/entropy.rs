//! Nonlinear entropy features.
//!
//! The paper's selected feature set uses permutation entropy (Bandt & Pompe,
//! 2002), Rényi entropy and sample entropy (Chen et al., 2005) computed on the
//! detail coefficients of a Daubechies-4 wavelet decomposition. Shannon entropy
//! is provided in addition for the rich feature set.

use crate::error::FeatureError;
use seizure_dsp::stats;

/// Permutation entropy of `data` with ordinal patterns of length `order` and
/// the given `delay` between successive samples of a pattern.
///
/// The result is normalized by `ln(order!)` so it lies in `[0, 1]`, with 1
/// corresponding to a fully random ordinal structure. If the series is too
/// short to contain a single pattern the entropy is defined as `0`.
///
/// # Errors
///
/// Returns [`FeatureError::InvalidConfig`] if `order < 2` or `delay == 0`.
///
/// # Example
///
/// ```
/// use seizure_features::entropy::permutation_entropy;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// // A monotonically increasing ramp has a single ordinal pattern -> entropy 0.
/// let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// assert!(permutation_entropy(&ramp, 3, 1)? < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn permutation_entropy(data: &[f64], order: usize, delay: usize) -> Result<f64, FeatureError> {
    if order < 2 {
        return Err(FeatureError::InvalidConfig {
            name: "order",
            reason: format!("permutation order must be at least 2, got {order}"),
        });
    }
    if delay == 0 {
        return Err(FeatureError::InvalidConfig {
            name: "delay",
            reason: "delay must be at least 1".to_string(),
        });
    }
    let span = (order - 1) * delay;
    if data.len() <= span {
        return Ok(0.0);
    }
    let num_patterns = data.len() - span;
    // BTreeMap, not HashMap: the final entropy sum runs in iteration order,
    // and a hash map's order would make the low bits of the result vary
    // between processes.
    let mut counts: std::collections::BTreeMap<Vec<u8>, usize> = std::collections::BTreeMap::new();
    let mut indices: Vec<usize> = Vec::with_capacity(order);
    for start in 0..num_patterns {
        indices.clear();
        indices.extend(0..order);
        // Sort pattern positions by their sample values to obtain the ordinal
        // rank. `total_cmp` ranks a NaN sample as the largest value instead of
        // scrambling the whole pattern the way the former
        // `partial_cmp().unwrap_or(Equal)` comparator did.
        indices.sort_by(|&a, &b| {
            let va = data[start + a * delay];
            let vb = data[start + b * delay];
            va.total_cmp(&vb)
        });
        let key: Vec<u8> = indices.iter().map(|&i| i as u8).collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    let mut entropy = 0.0;
    for &count in counts.values() {
        let p = count as f64 / num_patterns as f64;
        entropy -= p * p.ln();
    }
    let max_entropy = ln_factorial(order);
    if max_entropy <= 0.0 {
        return Ok(0.0);
    }
    Ok((entropy / max_entropy).clamp(0.0, 1.0))
}

fn ln_factorial(n: usize) -> f64 {
    (2..=n).map(|k| (k as f64).ln()).sum()
}

/// Largest ordinal-pattern order supported by
/// [`permutation_entropy_scratch`]'s dense counting table (`8! = 40320`
/// buckets).
pub const MAX_SCRATCH_ORDER: usize = 8;

/// Allocation-free permutation entropy over a reusable buffer.
///
/// Computes the same quantity as [`permutation_entropy`], but instead of
/// hashing one heap-allocated key per ordinal pattern it ranks each pattern
/// with its Lehmer code. This is the variant the paper set's hop engine
/// ([`crate::streaming::StreamingPaperExtractor`]) uses for its three
/// permutation entropies: zero allocations per call once `counts` has warmed
/// up, and no hashing.
///
/// The work is O(patterns), whatever the order:
///
/// * With delay 1 and order 3 or 5 (in production, the paper set's
///   order-5 entropy of the d7 band; the rich set counts its raw-window
///   patterns per hop instead) each pattern is ranked incrementally from
///   the previous one, with `order − 1` comparisons and two table lookups
///   instead of a sort. Other orders and delays rank every pattern with a
///   stable insertion sort. Both rankers give every pattern the same rank.
/// * When the series has at least `order!` patterns, the ranks are counted
///   in a dense `order!`-slot table in `counts` and the entropy is summed
///   over its non-empty slots in rank order. With fewer patterns than
///   slots (the paper set's order-5 and order-7 entropies of short wavelet
///   bands), `counts` instead holds one rank per pattern, sorted, and the
///   entropy is summed over each run of equal ranks in ascending order:
///   the same terms in the same order as the table scan, so the two sides
///   agree bit for bit and neither clears or scans a mostly empty table.
///
/// Ordinal ranks break ties between equal samples exactly as the stable
/// sort in [`permutation_entropy`] does (and order NaN and signed zeros by
/// [`f64::total_cmp`]), so the two functions count identical pattern
/// multisets and differ at most by the floating-point summation order of
/// the final entropy (≈ 1e-15).
///
/// # Errors
///
/// Returns [`FeatureError::InvalidConfig`] if `order < 2`,
/// `order > MAX_SCRATCH_ORDER` or `delay == 0`.
pub fn permutation_entropy_scratch(
    data: &[f64],
    order: usize,
    delay: usize,
    counts: &mut Vec<u32>,
) -> Result<f64, FeatureError> {
    if !(2..=MAX_SCRATCH_ORDER).contains(&order) {
        return Err(FeatureError::InvalidConfig {
            name: "order",
            reason: format!("permutation order must lie in [2, {MAX_SCRATCH_ORDER}], got {order}"),
        });
    }
    if delay == 0 {
        return Err(FeatureError::InvalidConfig {
            name: "delay",
            reason: "delay must be at least 1".to_string(),
        });
    }
    let span = (order - 1) * delay;
    if data.len() <= span {
        return Ok(0.0);
    }
    let num_patterns = data.len() - span;
    let table_size: usize = (2..=order).product();
    counts.clear();
    if table_size > num_patterns {
        // Ranks are below 8! = 40 320, so they fit the u32 buffer.
        rank_patterns(data, order, delay, |rank| counts.push(rank as u32));
        counts.sort_unstable();
        let mut entropy = 0.0;
        for run in counts.chunk_by(|a, b| a == b) {
            let p = run.len() as f64 / num_patterns as f64;
            entropy -= p * p.ln();
        }
        return Ok(normalized_entropy(entropy, order));
    }
    counts.resize(table_size, 0);
    rank_patterns(data, order, delay, |rank| counts[rank] += 1);
    Ok(entropy_from_counts(counts, num_patterns, order))
}

/// Calls `emit` with the Lehmer rank of every ordinal pattern of `data`, in
/// start order, through the incremental ranker where it applies (delay 1,
/// order 3 or 5) and the generic one otherwise.
// lint: hot-path
fn rank_patterns(data: &[f64], order: usize, delay: usize, emit: impl FnMut(usize)) {
    if delay == 1 && (order == 3 || order == 5) {
        rank_patterns_delay1(data, order, emit);
    } else {
        rank_patterns_generic(data, order, delay, emit);
    }
}

/// Increments the slot of the dense `order!`-entry table `counts` for
/// every ordinal pattern of `data` (starts `0..len − span`), ranked by the
/// generic stable-sort ranker. The streaming extractor counts the patterns
/// that straddle two hops with it, and the property tests use it as the
/// oracle of every faster path.
// lint: hot-path
pub(crate) fn accumulate_pattern_counts(
    data: &[f64],
    order: usize,
    delay: usize,
    counts: &mut [u32],
) {
    rank_patterns_generic(data, order, delay, |rank| counts[rank] += 1);
}

/// Ranks every ordinal pattern of `data` (starts `0..len − span`) with its
/// Lehmer code, for any order up to [`MAX_SCRATCH_ORDER`] and any delay.
// lint: hot-path
fn rank_patterns_generic(data: &[f64], order: usize, delay: usize, mut emit: impl FnMut(usize)) {
    let span = (order - 1) * delay;
    if data.len() <= span {
        return;
    }
    let num_patterns = data.len() - span;
    let mut values = [0.0f64; MAX_SCRATCH_ORDER];
    let mut perm = [0u8; MAX_SCRATCH_ORDER];
    for start in 0..num_patterns {
        for (slot, value) in values[..order]
            .iter_mut()
            .zip(data[start..].iter().step_by(delay))
        {
            *slot = *value;
        }
        // Stable insertion sort of (value, position) pairs on the stack;
        // shifting only on strictly-greater keeps tie order identical to the
        // stable sort in `permutation_entropy`. The comparison is `total_cmp`
        // for the same reason as there: a NaN sample ranks largest instead of
        // freezing wherever it happens to sit.
        for (slot, position) in perm[..order].iter_mut().zip(0..order as u8) {
            *slot = position;
        }
        for i in 1..order {
            let key_value = values[i];
            let key_position = perm[i];
            let mut j = i;
            while j > 0 && values[j - 1].total_cmp(&key_value) == std::cmp::Ordering::Greater {
                values[j] = values[j - 1];
                perm[j] = perm[j - 1];
                j -= 1;
            }
            values[j] = key_value;
            perm[j] = key_position;
        }
        // Lehmer-code rank of the permutation in mixed-radix form.
        let mut rank = 0usize;
        for i in 0..order {
            let mut smaller_later = 0usize;
            for j in i + 1..order {
                smaller_later += usize::from(perm[j] < perm[i]);
            }
            rank = rank * (order - i) + smaller_later;
        }
        emit(rank);
    }
}

/// Drop-front / insert-back transition tables for the incremental ordinal
/// ranker: `drop[r]` is the Lehmer rank of an order-`m` pattern after its
/// first (oldest) sample leaves, `ins[r_sub * m + c]` the rank after a new
/// sample enters at the back with `c` of the retained samples ordered at or
/// below it. Both are pure combinatorics — built once from the permutation
/// group, independent of any signal.
struct OrdinalTransitions {
    /// Order-3 rank → order-2 rank of the two retained samples.
    drop3: [u8; 6],
    /// `[order-2 rank][insert slot 0..=2]` → order-3 rank.
    ins3: [u8; 6],
    /// Order-5 rank → order-4 rank of the four retained samples.
    drop5: [u8; 120],
    /// `[order-4 rank][insert slot 0..=4]` → order-5 rank.
    ins5: [u8; 120],
}

static ORDINAL_TRANSITIONS: std::sync::OnceLock<OrdinalTransitions> = std::sync::OnceLock::new();

/// Lehmer-code rank of a permutation of `0..len`, in the same mixed-radix
/// form as [`accumulate_pattern_counts`]'s inner loop.
fn lehmer_rank(perm: &[u8]) -> usize {
    let order = perm.len();
    let mut rank = 0usize;
    for i in 0..order {
        let mut smaller_later = 0usize;
        for j in i + 1..order {
            smaller_later += usize::from(perm[j] < perm[i]);
        }
        rank = rank * (order - i) + smaller_later;
    }
    rank
}

/// All permutations of `0..order` indexed by their Lehmer rank.
fn perms_by_rank(order: usize) -> Vec<Vec<u8>> {
    let table_size: usize = (2..=order).product();
    let mut by_rank = vec![Vec::new(); table_size];
    let mut current: Vec<u8> = Vec::with_capacity(order);
    let mut used = vec![false; order];
    fn rec(order: usize, current: &mut Vec<u8>, used: &mut [bool], by_rank: &mut [Vec<u8>]) {
        if current.len() == order {
            by_rank[lehmer_rank(current)] = current.clone();
            return;
        }
        for p in 0..order {
            if !used[p] {
                used[p] = true;
                current.push(p as u8);
                rec(order, current, used, by_rank);
                current.pop();
                used[p] = false;
            }
        }
    }
    rec(order, &mut current, &mut used, &mut by_rank);
    by_rank
}

/// Fills one order's transition tables from the permutation group.
fn fill_transitions(order: usize, drop: &mut [u8], ins: &mut [u8]) {
    let by_rank = perms_by_rank(order);
    let by_rank_sub = perms_by_rank(order - 1);
    for (rank, perm) in by_rank.iter().enumerate() {
        // Removing the oldest sample (position 0) keeps the value order of
        // the rest; renumber positions down by one.
        let sub: Vec<u8> = perm.iter().filter(|&&p| p != 0).map(|&p| p - 1).collect();
        drop[rank] = lehmer_rank(&sub) as u8;
    }
    for (rank_sub, perm_sub) in by_rank_sub.iter().enumerate() {
        for slot in 0..order {
            // The incoming sample has the latest position, so a stable order
            // puts it immediately after the `slot` retained samples that
            // compare at or below it.
            let mut full: Vec<u8> = perm_sub.clone();
            full.insert(slot, (order - 1) as u8);
            ins[rank_sub * order + slot] = lehmer_rank(&full) as u8;
        }
    }
}

fn ordinal_transitions() -> &'static OrdinalTransitions {
    ORDINAL_TRANSITIONS.get_or_init(|| {
        let mut tables = OrdinalTransitions {
            drop3: [0; 6],
            ins3: [0; 6],
            drop5: [0; 120],
            ins5: [0; 120],
        };
        fill_transitions(3, &mut tables.drop3, &mut tables.ins3);
        fill_transitions(5, &mut tables.drop5, &mut tables.ins5);
        tables
    })
}

/// Delay-1 fast twin of [`accumulate_pattern_counts`] for orders 3 and 5,
/// used by the streaming extractor's per-hop tables. See
/// [`rank_patterns_delay1`].
// lint: hot-path
pub(crate) fn accumulate_pattern_counts_delay1(data: &[f64], order: usize, counts: &mut [u32]) {
    rank_patterns_delay1(data, order, |rank| counts[rank] += 1);
}

/// Delay-1 incremental ranker for orders 3 and 5: ranks the first window
/// with the same stable sort as [`rank_patterns_generic`], then slides —
/// each subsequent start costs `order − 1` `total_cmp` comparisons (the
/// incoming sample against the retained ones) and two table lookups instead
/// of a full sort. The transition tables replicate the stable tie order, so
/// every pattern gets the generic ranker's rank (property-tested below, NaNs
/// included).
// lint: hot-path
fn rank_patterns_delay1(data: &[f64], order: usize, mut emit: impl FnMut(usize)) {
    debug_assert!(
        order == 3 || order == 5,
        "transition tables are built for orders 3 and 5"
    );
    if data.len() < order {
        return;
    }
    let tables = ordinal_transitions();
    let (drop, ins): (&[u8], &[u8]) = if order == 3 {
        (&tables.drop3, &tables.ins3)
    } else {
        (&tables.drop5, &tables.ins5)
    };

    // Seed: rank the first window exactly as the generic ranker does.
    let mut values = [0.0f64; MAX_SCRATCH_ORDER];
    let mut perm = [0u8; MAX_SCRATCH_ORDER];
    values[..order].copy_from_slice(&data[..order]);
    for (slot, position) in perm[..order].iter_mut().zip(0..order as u8) {
        *slot = position;
    }
    for i in 1..order {
        let key_value = values[i];
        let key_position = perm[i];
        let mut j = i;
        while j > 0 && values[j - 1].total_cmp(&key_value) == std::cmp::Ordering::Greater {
            values[j] = values[j - 1];
            perm[j] = perm[j - 1];
            j -= 1;
        }
        values[j] = key_value;
        perm[j] = key_position;
    }
    let mut rank = lehmer_rank(&perm[..order]);
    emit(rank);

    for start in 1..=data.len() - order {
        let incoming = data[start + order - 1];
        let mut slot = 0usize;
        for &retained in &data[start..start + order - 1] {
            slot += usize::from(retained.total_cmp(&incoming) != std::cmp::Ordering::Greater);
        }
        rank = usize::from(ins[usize::from(drop[rank]) * order + slot]);
        emit(rank);
    }
}

/// Normalized permutation entropy from a filled pattern-count table: the
/// entropy sum runs in rank order (exactly as [`permutation_entropy_scratch`]
/// always has), normalized by `ln(order!)` and clamped to `[0, 1]`.
// lint: hot-path
pub(crate) fn entropy_from_counts(counts: &[u32], num_patterns: usize, order: usize) -> f64 {
    let mut entropy = 0.0;
    for &count in counts.iter() {
        if count > 0 {
            let p = count as f64 / num_patterns as f64;
            entropy -= p * p.ln();
        }
    }
    normalized_entropy(entropy, order)
}

/// Divides a summed permutation entropy by `ln(order!)` and clamps it to
/// `[0, 1]`.
fn normalized_entropy(entropy: f64, order: usize) -> f64 {
    let max_entropy = ln_factorial(order);
    if max_entropy <= 0.0 {
        return 0.0;
    }
    (entropy / max_entropy).clamp(0.0, 1.0)
}

/// Shannon entropy (in nats) of the energy distribution of `data`.
///
/// Each sample contributes `p_i = x_i^2 / sum(x^2)`; this is the standard
/// "wavelet entropy" construction when applied to sub-band coefficients. A
/// zero-energy series has zero entropy.
pub fn shannon_entropy(data: &[f64]) -> f64 {
    let probs = energy_distribution(data);
    let mut h = 0.0;
    for p in probs {
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

/// Allocation-free twin of [`shannon_entropy`], bit-identical by replicating
/// the same per-element expression `x * x / total` instead of materializing
/// the probability vector. Used on streaming hot paths where the batch
/// function's intermediate `Vec` is forbidden.
// lint: hot-path
pub fn shannon_entropy_noalloc(data: &[f64]) -> f64 {
    let total: f64 = data.iter().map(|x| x * x).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for x in data {
        let p = x * x / total;
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

/// Rényi entropy of order `alpha` of the energy distribution of `data`.
///
/// For `alpha == 1` the Rényi entropy degenerates to the Shannon entropy; the
/// paper uses the common quadratic case `alpha = 2` (see
/// [`renyi_entropy_quadratic`]). A zero-energy series has zero entropy.
///
/// # Errors
///
/// Returns [`FeatureError::InvalidConfig`] if `alpha <= 0` or `alpha` is NaN.
pub fn renyi_entropy(data: &[f64], alpha: f64) -> Result<f64, FeatureError> {
    if alpha <= 0.0 || alpha.is_nan() {
        return Err(FeatureError::InvalidConfig {
            name: "alpha",
            reason: format!("Rényi order must be positive, got {alpha}"),
        });
    }
    if (alpha - 1.0).abs() < 1e-9 {
        return Ok(shannon_entropy(data));
    }
    let probs = energy_distribution(data);
    let sum: f64 = probs.iter().map(|p| p.powf(alpha)).sum();
    if sum <= 0.0 {
        return Ok(0.0);
    }
    Ok(sum.ln() / (1.0 - alpha))
}

/// Quadratic (order-2) Rényi entropy, the variant used by the paper's feature
/// set ("third level Rényi entropy" is this quantity computed on level-3 detail
/// coefficients).
///
/// Allocation-free and bit-identical to [`renyi_entropy`] at `alpha = 2`: it
/// folds the same `(x * x / total).powf(2.0)` terms with the same
/// [`Iterator::sum`] instead of materializing the probability vector, so
/// zero-energy and NaN series keep their bits too.
// lint: hot-path
pub fn renyi_entropy_quadratic(data: &[f64]) -> f64 {
    let alpha = 2.0;
    let total: f64 = data.iter().map(|x| x * x).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let sum: f64 = data.iter().map(|x| (x * x / total).powf(alpha)).sum();
    if sum <= 0.0 {
        return 0.0;
    }
    sum.ln() / (1.0 - alpha)
}

fn energy_distribution(data: &[f64]) -> Vec<f64> {
    let total: f64 = data.iter().map(|x| x * x).sum();
    if total <= 0.0 {
        return vec![0.0; data.len()];
    }
    data.iter().map(|x| x * x / total).collect()
}

/// Sample entropy `SampEn(m, r)` of `data` with embedding dimension `m` and a
/// tolerance of `r = k * std(data)`.
///
/// Sample entropy is the negative logarithm of the conditional probability that
/// two sequences similar for `m` points remain similar at the next point,
/// excluding self-matches. Following Chen et al. (2005) the tolerance is
/// expressed as a fraction `k` of the standard deviation; the paper uses
/// `k = 0.2` and `k = 0.35`. Degenerate cases (too few points, zero matches)
/// return `0`.
///
/// # Errors
///
/// Returns [`FeatureError::InvalidConfig`] if `m == 0`, `k <= 0` or `k` is NaN.
pub fn sample_entropy(data: &[f64], m: usize, k: f64) -> Result<f64, FeatureError> {
    if m == 0 {
        return Err(FeatureError::InvalidConfig {
            name: "m",
            reason: "embedding dimension must be at least 1".to_string(),
        });
    }
    if k <= 0.0 || k.is_nan() {
        return Err(bad_tolerance(k));
    }
    if data.len() < m + 2 {
        return Ok(0.0);
    }
    let sd = stats::std_dev(data).unwrap_or(0.0);
    if sd == 0.0 {
        // A constant series is perfectly regular.
        return Ok(0.0);
    }
    let r = k * sd;
    let count_m = count_similar(data, m, r);
    let count_m1 = count_similar(data, m + 1, r);
    if count_m == 0 || count_m1 == 0 {
        return Ok(0.0);
    }
    Ok(-((count_m1 as f64) / (count_m as f64)).ln())
}

/// `SampEn(2, r)` at two tolerance fractions `k` from one pass over the
/// template pairs: bit-identical to
/// `[sample_entropy(data, 2, k[0])?, sample_entropy(data, 2, k[1])?]`, the
/// paper's two sample-entropy features.
///
/// One standard deviation gives both tolerances. Each pair `i < j` of
/// length-2 templates takes its `|Δ|` at each offset once, plus the third
/// offset when `j` starts a length-3 template too, and bumps four integer
/// counters (length 2 and 3, at each tolerance). Each test is the
/// reference's `!(|Δ| > r)`, so a NaN distance still counts as a match, and
/// integer counts make the result independent of the visiting order.
///
/// # Errors
///
/// Returns [`FeatureError::InvalidConfig`] if a tolerance fraction is not
/// positive or is NaN.
// lint: hot-path
pub(crate) fn sample_entropy_pair(data: &[f64], k: [f64; 2]) -> Result<[f64; 2], FeatureError> {
    if let Some(&bad) = k.iter().find(|&&k| k <= 0.0 || k.is_nan()) {
        return Err(bad_tolerance(bad));
    }
    let n = data.len();
    if n < 4 {
        return Ok([0.0; 2]);
    }
    let sd = stats::std_dev(data).unwrap_or(0.0);
    if sd == 0.0 {
        // A constant series is perfectly regular.
        return Ok([0.0; 2]);
    }
    let r = k.map(|k| k * sd);
    let (mut count_m, mut count_m1) = ([0usize; 2], [0usize; 2]);
    for (i, head) in data.windows(3).enumerate() {
        // Every `j` but the last starts a length-3 template as well.
        for tail in data[i + 1..].windows(3) {
            let d = [0, 1, 2].map(|t| (head[t] - tail[t]).abs());
            for l in 0..2 {
                let m_match = within(d[0], r[l]) & within(d[1], r[l]);
                count_m[l] += usize::from(m_match);
                count_m1[l] += usize::from(m_match & within(d[2], r[l]));
            }
        }
        let last = &data[n - 2..];
        let d = [0, 1].map(|t| (head[t] - last[t]).abs());
        for l in 0..2 {
            count_m[l] += usize::from(within(d[0], r[l]) & within(d[1], r[l]));
        }
    }
    Ok([0, 1].map(|l| {
        if count_m[l] == 0 || count_m1[l] == 0 {
            0.0
        } else {
            -((count_m1[l] as f64) / (count_m[l] as f64)).ln()
        }
    }))
}

/// The reference's template test at one offset, `!(|Δ| > r)`: a NaN
/// distance or tolerance counts as a match.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn within(distance: f64, r: f64) -> bool {
    !(distance > r)
}

/// Misuse-only error constructor, kept out of the hot path.
#[cold]
fn bad_tolerance(k: f64) -> FeatureError {
    FeatureError::InvalidConfig {
        name: "k",
        reason: format!("tolerance fraction must be positive, got {k}"),
    }
}

/// Counts pairs of template vectors of length `m` whose Chebyshev distance is
/// at most `r` (self-matches excluded).
fn count_similar(data: &[f64], m: usize, r: f64) -> usize {
    if data.len() < m {
        return 0;
    }
    let n = data.len() - m + 1;
    let mut count = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let mut similar = true;
            for k in 0..m {
                if (data[i + k] - data[j + k]).abs() > r {
                    similar = false;
                    break;
                }
            }
            if similar {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn incremental_pattern_counts_match_the_generic_ranker() {
        // Random data, quantized data (heavy ties), constants and NaNs all
        // have to produce bit-identical tables for orders 3 and 5, at every
        // length from degenerate to a few hundred samples.
        for seed in 0..20u64 {
            for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 31, 256] {
                let mut data = pseudo_random(n, seed);
                if seed % 3 == 1 {
                    for x in &mut data {
                        *x = (*x * 4.0).round();
                    }
                }
                if seed % 5 == 2 && n > 4 {
                    data[n / 2] = f64::NAN;
                    data[n - 1] = f64::NAN;
                }
                for order in [3usize, 5] {
                    let table_size: usize = (2..=order).product();
                    let mut generic = vec![0u32; table_size];
                    let mut fast = vec![0u32; table_size];
                    accumulate_pattern_counts(&data, order, 1, &mut generic);
                    accumulate_pattern_counts_delay1(&data, order, &mut fast);
                    assert_eq!(generic, fast, "seed {seed}, n {n}, order {order}");
                }
            }
        }
    }

    #[test]
    fn permutation_entropy_of_monotone_series_is_zero() {
        let ramp: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        for order in [3, 5, 7] {
            assert!(permutation_entropy(&ramp, order, 1).unwrap() < 1e-12);
        }
    }

    #[test]
    fn permutation_entropy_of_random_series_is_high() {
        let noise = pseudo_random(4000, 7);
        let pe = permutation_entropy(&noise, 3, 1).unwrap();
        assert!(pe > 0.95, "pe = {pe}");
    }

    #[test]
    fn permutation_entropy_is_bounded() {
        let noise = pseudo_random(500, 13);
        for order in [3, 4, 5, 6, 7] {
            let pe = permutation_entropy(&noise, order, 1).unwrap();
            assert!((0.0..=1.0).contains(&pe));
        }
    }

    #[test]
    fn permutation_entropy_short_series_is_zero() {
        assert_eq!(permutation_entropy(&[1.0, 2.0], 5, 1).unwrap(), 0.0);
        assert_eq!(permutation_entropy(&[], 3, 1).unwrap(), 0.0);
    }

    #[test]
    fn permutation_entropy_invalid_parameters() {
        assert!(permutation_entropy(&[1.0; 10], 1, 1).is_err());
        assert!(permutation_entropy(&[1.0; 10], 3, 0).is_err());
    }

    #[test]
    fn permutation_entropy_periodic_vs_random() {
        let periodic: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.3).sin()).collect();
        let random = pseudo_random(1000, 23);
        let pe_per = permutation_entropy(&periodic, 5, 1).unwrap();
        let pe_rand = permutation_entropy(&random, 5, 1).unwrap();
        assert!(pe_rand > pe_per);
    }

    #[test]
    fn shannon_entropy_uniform_energy_is_log_n() {
        let data = vec![1.0; 16];
        assert!((shannon_entropy(&data) - (16.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn shannon_entropy_single_spike_is_zero() {
        let mut data = vec![0.0; 32];
        data[5] = 4.0;
        assert!(shannon_entropy(&data).abs() < 1e-12);
    }

    #[test]
    fn shannon_entropy_zero_signal_is_zero() {
        assert_eq!(shannon_entropy(&[0.0; 8]), 0.0);
        assert_eq!(shannon_entropy(&[]), 0.0);
    }

    #[test]
    fn shannon_entropy_noalloc_is_bit_identical() {
        let data = pseudo_random(256, 11);
        assert_eq!(shannon_entropy_noalloc(&data), shannon_entropy(&data));
        assert_eq!(shannon_entropy_noalloc(&[0.0; 8]), 0.0);
        assert_eq!(shannon_entropy_noalloc(&[]), 0.0);
    }

    #[test]
    fn renyi_entropy_quadratic_uniform_is_log_n() {
        let data = vec![2.0; 8];
        assert!((renyi_entropy_quadratic(&data) - (8.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn renyi_entropy_alpha_one_matches_shannon() {
        let data = pseudo_random(64, 3);
        let r1 = renyi_entropy(&data, 1.0).unwrap();
        let sh = shannon_entropy(&data);
        assert!((r1 - sh).abs() < 1e-9);
    }

    #[test]
    fn renyi_entropy_is_nonincreasing_in_alpha() {
        let data = pseudo_random(128, 5);
        let r1 = renyi_entropy(&data, 1.0).unwrap();
        let r2 = renyi_entropy(&data, 2.0).unwrap();
        let r3 = renyi_entropy(&data, 3.0).unwrap();
        assert!(r1 + 1e-9 >= r2);
        assert!(r2 + 1e-9 >= r3);
    }

    #[test]
    fn renyi_entropy_rejects_bad_alpha() {
        assert!(renyi_entropy(&[1.0, 2.0], 0.0).is_err());
        assert!(renyi_entropy(&[1.0, 2.0], -1.0).is_err());
        assert!(renyi_entropy(&[1.0, 2.0], f64::NAN).is_err());
    }

    #[test]
    fn renyi_entropy_zero_signal_is_zero() {
        assert_eq!(renyi_entropy(&[0.0; 8], 2.0).unwrap(), 0.0);
    }

    #[test]
    fn quadratic_renyi_equals_the_allocating_order_two_bit_for_bit() {
        let mut laced = pseudo_random(97, 29);
        laced[5] = f64::NAN;
        let mut infinite = pseudo_random(40, 31);
        infinite[11] = f64::INFINITY;
        let cases = [
            pseudo_random(256, 19),
            laced,
            infinite,
            vec![0.0; 16],
            vec![-0.0; 3],
            vec![],
            vec![1e-170; 8],
            vec![1e300, -2e300],
            pseudo_random(33, 37).iter().map(|x| x * 1e-310).collect(),
        ];
        for data in &cases {
            let expected = renyi_entropy(data, 2.0).unwrap();
            assert_eq!(
                renyi_entropy_quadratic(data).to_bits(),
                expected.to_bits(),
                "{data:?}"
            );
        }
    }

    #[test]
    fn one_pass_sample_entropy_pair_equals_two_reference_calls() {
        let tolerances = [[0.2, 0.35], [0.35, 0.2], [0.2, 0.2], [1e-9, 5.0]];
        for n in 0..=40usize {
            let random = pseudo_random(n, 3 + n as u64);
            let quantized: Vec<f64> = random.iter().map(|x| (x * 3.0).round()).collect();
            let mut laced = random.clone();
            for x in laced.iter_mut().skip(2).step_by(5) {
                *x = f64::NAN;
            }
            let spike: Vec<f64> = (0..n)
                .map(|i| if i == n / 2 { 1e300 } else { 0.0 })
                .collect();
            let cases = [
                ("random", random),
                ("quantized", quantized),
                ("constant", vec![2.5; n]),
                ("NaN-laced", laced),
                ("spike", spike),
            ];
            for (kind, data) in &cases {
                for k in tolerances {
                    let got = sample_entropy_pair(data, k).unwrap();
                    for (lane, k) in k.into_iter().enumerate() {
                        let want = sample_entropy(data, 2, k).unwrap();
                        assert_eq!(
                            got[lane].to_bits(),
                            want.to_bits(),
                            "{kind}, n {n}, k {k}: one pass {} vs the reference {want}",
                            got[lane]
                        );
                    }
                }
            }
        }
        for bad in [[0.0, 0.2], [0.2, -1.0], [f64::NAN, 0.35]] {
            assert!(sample_entropy_pair(&[1.0; 10], bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sample_entropy_of_constant_is_zero() {
        assert_eq!(sample_entropy(&[3.0; 100], 2, 0.2).unwrap(), 0.0);
    }

    #[test]
    fn sample_entropy_of_random_exceeds_periodic() {
        let periodic: Vec<f64> = (0..400).map(|i| (i as f64 * 0.2).sin()).collect();
        let random = pseudo_random(400, 11);
        let se_periodic = sample_entropy(&periodic, 2, 0.2).unwrap();
        let se_random = sample_entropy(&random, 2, 0.2).unwrap();
        assert!(se_random > se_periodic);
    }

    #[test]
    fn sample_entropy_decreases_with_larger_tolerance() {
        let data = pseudo_random(300, 17);
        let tight = sample_entropy(&data, 2, 0.2).unwrap();
        let loose = sample_entropy(&data, 2, 0.35).unwrap();
        assert!(loose <= tight + 1e-9);
    }

    #[test]
    fn sample_entropy_invalid_parameters() {
        assert!(sample_entropy(&[1.0; 10], 0, 0.2).is_err());
        assert!(sample_entropy(&[1.0; 10], 2, 0.0).is_err());
        assert!(sample_entropy(&[1.0; 10], 2, f64::NAN).is_err());
    }

    #[test]
    fn sample_entropy_short_series_is_zero() {
        assert_eq!(sample_entropy(&[1.0, 2.0], 2, 0.2).unwrap(), 0.0);
    }

    #[test]
    fn scratch_permutation_entropy_matches_hashmap_variant() {
        let signals = [
            pseudo_random(300, 7),
            (0..200)
                .map(|i| (i as f64 * 0.21).sin())
                .collect::<Vec<_>>(),
            // Ties everywhere: a square-ish wave exercises stable ordering.
            (0..150).map(|i| ((i / 3) % 2) as f64).collect::<Vec<_>>(),
            vec![2.5; 64],
        ];
        let mut counts = Vec::new();
        for signal in &signals {
            for order in 2..=7 {
                for delay in [1usize, 2] {
                    let reference = permutation_entropy(signal, order, delay).unwrap();
                    let fast =
                        permutation_entropy_scratch(signal, order, delay, &mut counts).unwrap();
                    assert!(
                        (reference - fast).abs() < 1e-12,
                        "order {order} delay {delay}: {reference} vs {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn permutation_entropy_ranks_nan_samples_worst() {
        // Regression for the NaN-unsafe rank sort: with the former
        // `partial_cmp().unwrap_or(Equal)` comparator a NaN sample froze the
        // sort mid-pattern and scrambled the ordinal ranks; with `total_cmp`
        // it ranks as the largest sample, so a NaN behaves exactly like an
        // infinite-amplitude spike.
        let mut with_nan = pseudo_random(300, 41);
        let mut with_inf = with_nan.clone();
        with_nan[137] = f64::NAN;
        with_inf[137] = f64::INFINITY;
        for order in [3, 5] {
            let pe_nan = permutation_entropy(&with_nan, order, 1).unwrap();
            let pe_inf = permutation_entropy(&with_inf, order, 1).unwrap();
            assert!(pe_nan.is_finite() && (0.0..=1.0).contains(&pe_nan));
            assert_eq!(pe_nan.to_bits(), pe_inf.to_bits());
        }
    }

    #[test]
    fn scratch_permutation_entropy_matches_on_nan_input() {
        let mut signal = pseudo_random(200, 43);
        signal[17] = f64::NAN;
        signal[90] = f64::NAN;
        let mut counts = Vec::new();
        for order in [3, 4, 6] {
            let reference = permutation_entropy(&signal, order, 1).unwrap();
            let fast = permutation_entropy_scratch(&signal, order, 1, &mut counts).unwrap();
            assert!(
                (reference - fast).abs() < 1e-12,
                "order {order}: {reference} vs {fast}"
            );
        }
    }

    /// The dense generic-ranker computation every faster path must match:
    /// a fresh `order!` table filled by the stable-sort ranker.
    fn dense_oracle(data: &[f64], order: usize, delay: usize) -> f64 {
        let span = (order - 1) * delay;
        if data.len() <= span {
            return 0.0;
        }
        let mut counts = vec![0u32; (2..=order).product()];
        accumulate_pattern_counts(data, order, delay, &mut counts);
        entropy_from_counts(&counts, data.len() - span, order)
    }

    /// `n` samples over `levels` distinct values (heavy ties when small),
    /// laced with NaN of both signs, both infinities and signed zeros when
    /// `lace` is set.
    fn hostile_series(seed: u64, n: usize, levels: u64, lace: bool) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let draw = state >> 33;
                match draw % 16 {
                    0 if lace => f64::NAN,
                    1 if lace => -f64::NAN,
                    2 if lace => f64::INFINITY,
                    3 if lace => f64::NEG_INFINITY,
                    4 if lace => -0.0,
                    _ => ((draw >> 4) % levels) as f64 - (levels / 2) as f64,
                }
            })
            .collect()
    }

    /// Runs `permutation_entropy_scratch` on the shared `counts` buffer and
    /// checks it against the dense oracle bit for bit, and that the buffer
    /// took the side the pattern count selects: one sorted rank per pattern
    /// below `order!` patterns, the dense table from there on.
    fn assert_matches_dense(
        data: &[f64],
        order: usize,
        delay: usize,
        counts: &mut Vec<u32>,
        case: &str,
    ) {
        let actual = permutation_entropy_scratch(data, order, delay, counts).unwrap();
        let expected = dense_oracle(data, order, delay);
        let patterns = data.len().saturating_sub((order - 1) * delay);
        assert_eq!(
            actual.to_bits(),
            expected.to_bits(),
            "{case}, order {order}, delay {delay}, {patterns} patterns: \
             {actual:e} vs the dense table's {expected:e}"
        );
        if patterns > 0 {
            let table: usize = (2..=order).product();
            assert_eq!(
                counts.len(),
                table.min(patterns),
                "{case}, order {order}, delay {delay}: wrong side of the table choice"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn scratch_permutation_entropy_matches_the_dense_generic_ranker(
            seed in 0u64..1_000_000,
            length in 0.0f64..1.0,
            levels in 1u64..12,
            lace in 0u64..2,
        ) {
            // One buffer across every order and delay, as a worker's scratch
            // sees it. Lengths are log-uniform over 0..=2·order!, so short
            // series (the paper set's wavelet bands) are drawn as often as
            // long ones and the order-8 cases stay affordable.
            let mut counts = Vec::new();
            for order in 2..=MAX_SCRATCH_ORDER {
                let table: usize = (2..=order).product();
                let n = ((2 * table + 2) as f64).powf(length) as usize - 1;
                let data = hostile_series(seed, n, levels, lace == 1);
                let case = format!("seed {seed}, n {n}, levels {levels}, lace {lace}");
                for delay in 1..=3 {
                    assert_matches_dense(&data, order, delay, &mut counts, &case);
                }
            }
        }
    }

    #[test]
    fn scratch_permutation_entropy_matches_on_both_sides_of_the_table_boundary() {
        let mut counts = Vec::new();
        let families: [(u64, u64, bool); 3] = [(1, 1 << 20, false), (2, 3, false), (3, 5, true)];
        for order in 2..=MAX_SCRATCH_ORDER {
            let table: usize = (2..=order).product();
            // Order 8 straddles its 40 320-slot boundary with the laced
            // family only, which keeps the debug build's run short.
            let families = if order == MAX_SCRATCH_ORDER {
                &families[2..]
            } else {
                &families[..]
            };
            for delay in 1..=3 {
                let span = (order - 1) * delay;
                for patterns in [1, 2, table - 1, table, table + 1] {
                    for &(seed, levels, lace) in families {
                        let n = span + patterns;
                        let data = hostile_series(seed, n, levels, lace);
                        let case = format!("seed {seed}, n {n}, levels {levels}, lace {lace}");
                        assert_matches_dense(&data, order, delay, &mut counts, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_permutation_entropy_short_series_and_validation() {
        let mut counts = Vec::new();
        assert_eq!(
            permutation_entropy_scratch(&[1.0, 2.0], 5, 1, &mut counts).unwrap(),
            0.0
        );
        assert!(permutation_entropy_scratch(&[1.0; 10], 1, 1, &mut counts).is_err());
        assert!(permutation_entropy_scratch(&[1.0; 10], 9, 1, &mut counts).is_err());
        assert!(permutation_entropy_scratch(&[1.0; 10], 3, 0, &mut counts).is_err());
    }
}
