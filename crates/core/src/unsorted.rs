//! Communication-efficient selection from unsorted input (paper §4.1).
//!
//! This is the paper's Algorithm 1 — a distributed Floyd–Rivest-style
//! selection.  Each level of recursion takes a Bernoulli sample of the
//! remaining elements (expected size `max(128, ⌈√p⌉)` in total — see
//! `SAMPLE`), picks two pivots bracketing the target rank by two binomial
//! standard deviations of its sample rank, partitions the local data into
//! the three ranges `a < ℓ`, `ℓ ≤ b ≤ r`, `c > r`, counts the ranges with a
//! vector all-reduction and recurses into the range containing the target
//! rank.  Theorem 1 shows the algorithm needs neither randomly distributed
//! input nor any data redistribution: expected time
//! `O(n/p + β·min(√p·log_p n, n/p) + α log n)`.
//!
//! # Collective schedule
//!
//! The start-up budget is the pseudo-code's: **one** size all-reduction at
//! the entry, then per narrowing level exactly **three** collectives on
//! **two** roots — the sample's merging reduction onto PE `p − 1` and
//! that PE's broadcast of the two pivots (`agree_pivots`; once more per
//! empty-sample retry), then the range-count vector all-reduction
//! `(n_a, n_b, n_c)` through PE 0 — and a reduction plus a broadcast on
//! PE `p − 1` for the base case (`base_case_select`).  A PE needs two pivots
//! from a level and one element from the base case, so only one PE ever
//! holds a sample: per level the sample root receives the `m` sampled
//! elements once (Theorem 1's `β·min(√p·log_p n, n/p)` term) and everyone
//! else moves `O(log p)` words.
//!
//! The sample root is `p − 1` because the all-reductions root at rank 0:
//! each of the two PEs is the root of one tree and a leaf of the other, so
//! the busiest PE handles `⌈log₂ p⌉ + 1` messages per level.  With both
//! roles on rank 0 it would handle `2·⌈log₂ p⌉` — what all-gathering the
//! sample to every PE cost each of them.  The price is on the critical path,
//! which no per-PE count shows: a level is four tree traversals (sample up,
//! pivots down, counts up, counts down), `4·⌈log₂ p⌉` message hops, where the
//! all-gather's dissemination rounds made it `3·⌈log₂ p⌉`.
//!
//! Every PE sorts its share into a [`SortedBlock`] before it sends it, and
//! every hop of the reduction merges two blocks.  A merge of disjoint blocks
//! is associative and commutative, as [`ReduceOp`] asks, so the root receives
//! the sorted union whatever order the tree combines the shares in, and it
//! reads a pivot or the base case's answer by its index.  A block of `u64`
//! keys crosses the wire as one bit stream of Rice-coded value gaps and
//! packed tags (the layout is on [`SortedBlock`]); on §10.1's Zipf input
//! that takes a selection's bottleneck words to about an eighth of what the
//! two-word `(value, tag)` pairs cost (EXPERIMENTS.md).  Other keys cross as
//! their pairs' words ([`SelectKey`]).
//!
//! The survivor count of the next level is one of the counts every PE has
//! just agreed on, so it is carried through the loop and never reduced
//! again, and the tie-break tag is the packed `(rank, local index)` word of
//! [`tie_break_offset`], which orders like the global index without the
//! prefix sum that would compute one.  There is no level cap: a pivot is an
//! input element and the outer ranges exclude it, and the bracket spans a
//! whole sample only if that has under nine elements, so every level shrinks
//! the input.
//!
//! Every entry point runs that one recursion over one tagged copy of `local`.
//! [`select_k_smallest`] / [`select_k_largest`] return the *threshold* (the
//! element of global rank `k` under a tie-broken total order) and each PE's
//! local part of the selected set, whose sizes sum to exactly `k` across all
//! PEs; [`select_threshold`] returns the threshold alone and skips the filter
//! that materialises the set.

use commsim::{CommData, Communicator, ReduceOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqkit::sampling::{bernoulli_sample, bernoulli_sample_retain};
use seqkit::select::partition_three_way_counts;

use crate::util::{tag_unique, tie_break_offset, SelectKey, SortedBlock};

/// Result of a distributed unsorted selection.
#[derive(Debug, Clone)]
pub struct UnsortedSelectionResult<T> {
    /// The element of global rank `k` (1-based) under the tie-broken order —
    /// the selection "threshold".
    pub threshold: T,
    /// This PE's elements among the `k` globally smallest.  The lengths of
    /// these vectors over all PEs sum to exactly `k`.
    pub local_selected: Vec<T>,
    /// Number of recursion levels the algorithm used, the base-case level
    /// included: about `ln(n / 2m) / ln(m / (2√m + 2))` narrowing levels for
    /// a level sample of `m` elements (5.2× per level at `m = 128`).
    pub recursion_levels: usize,
}

/// Floor of the expected level sample (elements in total, over all PEs); the
/// paper's `|S| = √p` takes over beyond p = 16 384.
///
/// A narrowing level costs three collectives and the `m` tagged elements the
/// sample root collects, and keeps the share `f(m) = (c·√m + 2)/m` of the
/// survivors at `q = ½`, a `√m/c` narrowing.  For a fixed product of
/// narrowings the element total `Σ mᵢ` is smallest when all `mᵢ` are equal
/// (AM–GM), so every level draws the same sample.  The sweep cited below
/// priced an element at the two words of an uncoded pair; it has not been
/// re-run at the price of a coded `u64` element, a fraction of a word
/// ([`SortedBlock`]).
/// At `|S| = √p ≤ 8` (p ≤ 64) the bracket covers the whole sample and the
/// level is random-pivot quickselect; `m = 128` narrows 5.2× per level
/// (`f = 0.19`).  A larger sample buys start-ups with words and a smaller
/// one the reverse, smoothly: no cliff over m ∈ 96…160, c ∈ 1.5…2.5
/// (EXPERIMENTS.md, "PR 19 — Floyd–Rivest sample sizing").
const SAMPLE: usize = 128;

/// Half-width of the pivot bracket in binomial standard deviations of the
/// target's sample rank — what the paper's `Δ = p^{1/4+δ}` is at `|S| = √p`.
/// Two σ miss the target in at most ≈ 4.6 % of levels (a miss recurses into
/// an outer range, roughly one wasted level); 1.5 σ miss in 13 %, 2.5 σ keep
/// 23 % more survivors on every level.
const BRACKET_SIGMAS: f64 = 2.0;

/// The base case collects the survivors once at most this many level
/// samples' worth remain.  Below `m/(1 − f) ≈ 1.2·m` survivors collecting
/// them is word-cheaper than one more level's sample; `2·m` also saves that
/// level's three collectives.
const BASE_CASE_SAMPLES: usize = 2;

/// Expected total sample size of one level on `p` PEs.
fn level_sample(p: usize) -> usize {
    SAMPLE.max((p as f64).sqrt().ceil() as usize)
}

/// Largest remaining input the base case collects on `p` PEs.
fn base_case(p: usize) -> usize {
    BASE_CASE_SAMPLES * level_sample(p)
}

/// Sample ranks (0-based, `lo ≤ hi < m`) of the two pivots bracketing the
/// quantile `q` in a sample of `m ≥ 1` elements: `q·m ± Δ` with
/// `Δ = BRACKET_SIGMAS·√(m·q·(1−q)) + 1`, clamped to the sample.
fn bracket(m: usize, q: f64) -> (usize, usize) {
    let pos = q * m as f64;
    let delta = BRACKET_SIGMAS * (m as f64 * q * (1.0 - q)).sqrt() + 1.0;
    let lo = ((pos - delta).floor().max(0.0) as usize).min(m - 1);
    let hi = ((pos + delta).ceil() as usize).min(m - 1);
    (lo, hi)
}

/// The two pivots bracketing global rank `k` of `total` from the collected
/// level sample, which arrives sorted: two indexed reads.  `None` if the
/// sample is empty.
fn pick_pivots<K: Clone>(sample: &[K], k: usize, total: usize) -> Option<(K, K)> {
    if sample.is_empty() {
        return None;
    }
    let (lo, hi) = bracket(sample.len(), k as f64 / total as f64);
    Some((sample[lo].clone(), sample[hi].clone()))
}

/// The PE that collects a level's sample and the base case: the last one,
/// because the all-reductions root at the first (module docs).
fn sample_root(p: usize) -> usize {
    p - 1
}

/// Collect every PE's `block` of tagged elements on the [`sample_root`],
/// which computes `decide` of their sorted union and broadcasts it: one
/// reduction and one broadcast, the exchange behind [`agree_pivots`] and
/// [`base_case_select`].
///
/// Each PE sorts its block before it sends it, and the reduction merges
/// sorted blocks — an associative and commutative operation, as
/// [`ReduceOp`] asks — so `decide` sees the union in ascending order.
fn decide_on_root<C, T, R>(
    comm: &C,
    block: Vec<(T, u64)>,
    decide: impl FnOnce(&[(T, u64)]) -> R,
) -> R
where
    C: Communicator,
    T: SelectKey,
    R: Clone + CommData,
{
    let root = sample_root(comm.size());
    let merge = ReduceOp::custom(SortedBlock::merge);
    let decided = comm
        .reduce(root, SortedBlock::new(block), &merge)
        .map(|union| decide(union.pairs()));
    comm.broadcast(root, decided)
}

/// Agree on the two pivots bracketing global rank `k` of `total` from the
/// PEs' shares of a level sample.  `None` — on every PE alike — if the whole
/// sample is empty: the caller doubles its rate and draws again.
fn agree_pivots<C, T>(
    comm: &C,
    local_sample: Vec<(T, u64)>,
    k: usize,
    total: usize,
) -> Option<((T, u64), (T, u64))>
where
    C: Communicator,
    T: SelectKey,
{
    decide_on_root(comm, local_sample, |sample| pick_pivots(sample, k, total))
}

/// The base case: the element of global rank `k` among the PEs' remaining
/// `survivors` (at most [`base_case`] in total), selected on the sample root.
fn base_case_select<C, T>(comm: &C, survivors: Vec<(T, u64)>, k: usize) -> (T, u64)
where
    C: Communicator,
    T: SelectKey,
{
    decide_on_root(comm, survivors, |all| all[k - 1].clone())
}

/// Bernoulli rate that draws [`level_sample`] elements of `total` in
/// expectation.
fn sample_rate(p: usize, total: usize) -> f64 {
    (level_sample(p) as f64 / total as f64).clamp(0.0, 1.0)
}

/// Select the `k` globally smallest elements of the distributed input.
///
/// `local` is this PE's part of the input; `k` counts over the union of all
/// PEs' parts and must satisfy `1 ≤ k ≤ Σ|local|`.  Ties are broken by
/// `(rank, local index)`, so exactly `k` elements are selected in total.
pub fn select_k_smallest<C, T>(
    comm: &C,
    local: &[T],
    k: usize,
    seed: u64,
) -> UnsortedSelectionResult<T>
where
    C: Communicator,
    T: SelectKey,
{
    let total = comm.allreduce_sum(local.len() as u64) as usize;
    select_k_smallest_known_total(comm, local, total, k, seed)
}

/// [`select_k_smallest`] for callers that have already agreed on
/// `total = Σ|local|` (it must be that sum, identical on every PE): the
/// selection proper, without the entry's size all-reduction.
pub(crate) fn select_k_smallest_known_total<C, T>(
    comm: &C,
    local: &[T],
    total: usize,
    k: usize,
    seed: u64,
) -> UnsortedSelectionResult<T>
where
    C: Communicator,
    T: SelectKey,
{
    let (threshold, offset, levels) = threshold_tagged(comm, local, total, k, seed);
    // The recursion consumed its tagged copy; the selected set is recovered
    // directly from `local` and the offset, so no second one is materialised.
    let local_selected: Vec<T> = local
        .iter()
        .enumerate()
        .filter(|&(i, v)| (v, offset + i as u64) <= (&threshold.0, threshold.1))
        .map(|(_, v)| v.clone())
        .collect();
    UnsortedSelectionResult {
        threshold: threshold.0,
        local_selected,
        recursion_levels: levels,
    }
}

/// The selection behind every entry point: the tie-broken element of global
/// rank `k` among `total = Σ|local|` elements, this PE's tie-break offset and
/// the number of levels used.
fn threshold_tagged<C, T>(
    comm: &C,
    local: &[T],
    total: usize,
    k: usize,
    seed: u64,
) -> ((T, u64), u64, usize)
where
    C: Communicator,
    T: SelectKey,
{
    assert!(k >= 1, "k must be at least 1");
    assert!(k <= total, "k = {k} exceeds the global input size {total}");

    // Make the order unique: (value, packed (rank, local index)).
    let offset = tie_break_offset(comm.rank(), comm.size(), local.len());
    let tagged = tag_unique(local, offset);

    let mut rng =
        StdRng::seed_from_u64(seed ^ (comm.rank() as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut levels = 0usize;
    let threshold = select_recursive(comm, tagged, total, k, &mut rng, &mut levels);
    (threshold, offset, levels)
}

/// Select only the threshold (the element of global rank `k`), without
/// materialising the selected set.
///
/// This is [`select_k_smallest`] minus its final filter over `local`: the
/// same recursion over one tagged copy of `local`, hence the same RNG
/// stream, levels and messages (pinned by
/// `threshold_only_path_is_bit_identical_to_the_full_path` below), so the
/// fig6 words/PE columns apply to both entry points.
pub fn select_threshold<C, T>(comm: &C, local: &[T], k: usize, seed: u64) -> T
where
    C: Communicator,
    T: SelectKey,
{
    let total = comm.allreduce_sum(local.len() as u64) as usize;
    threshold_tagged(comm, local, total, k, seed).0 .0
}

/// Select the `k` globally **largest** elements (dual problem, used by the
/// frequent-objects algorithms which want the largest counts).
pub fn select_k_largest<C, T>(
    comm: &C,
    local: &[T],
    k: usize,
    seed: u64,
) -> UnsortedSelectionResult<std::cmp::Reverse<T>>
where
    C: Communicator,
    T: SelectKey,
{
    let total = comm.allreduce_sum(local.len() as u64) as usize;
    select_k_largest_known_total(comm, local, total, k, seed)
}

/// [`select_k_largest`] for callers that have already agreed on
/// `total = Σ|local|` (see [`select_k_smallest_known_total`]).
pub(crate) fn select_k_largest_known_total<C, T>(
    comm: &C,
    local: &[T],
    total: usize,
    k: usize,
    seed: u64,
) -> UnsortedSelectionResult<std::cmp::Reverse<T>>
where
    C: Communicator,
    T: SelectKey,
{
    let reversed: Vec<std::cmp::Reverse<T>> =
        local.iter().cloned().map(std::cmp::Reverse).collect();
    select_k_smallest_known_total(comm, &reversed, total, k, seed)
}

/// Global minimum over per-PE optional values (`None` = "this PE has no
/// elements left").
pub(crate) fn global_min<C: Communicator, K: Ord + Clone + CommData>(
    comm: &C,
    value: Option<K>,
) -> Option<K> {
    comm.allreduce(
        value,
        ReduceOp::custom(|a: &Option<K>, b: &Option<K>| match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(x), Some(y)) => Some(x.clone().min(y.clone())),
        }),
    )
}

/// Global maximum over per-PE optional values.
fn global_max<C: Communicator, K: Ord + Clone + CommData>(comm: &C, value: Option<K>) -> Option<K> {
    comm.allreduce(
        value,
        ReduceOp::custom(|a: &Option<K>, b: &Option<K>| match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(x), Some(y)) => Some(x.clone().max(y.clone())),
        }),
    )
}

/// Stable in-place narrowing of the level buffer, optionally fused with the
/// *next* level's Bernoulli sampling: with `rho = Some(ρ)` the survivors
/// are skip-sampled during the same sweep ([`bernoulli_sample_retain`], one
/// pass over the buffer instead of narrow-then-sample); with `None` it is a
/// plain `Vec::retain`.
fn narrow_level<K, F>(
    s: &mut Vec<K>,
    keep: F,
    retained_len: usize,
    rho: Option<f64>,
    rng: &mut StdRng,
) -> Option<Vec<K>>
where
    K: Clone,
    F: FnMut(&K) -> bool,
{
    match rho {
        Some(rho) => Some(bernoulli_sample_retain(s, keep, retained_len, rho, rng)),
        None => {
            s.retain(keep);
            None
        }
    }
}

/// Core recursion of Algorithm 1 on tie-broken keys.
///
/// The remaining local input lives in one owned buffer `s` that only ever
/// *shrinks*, and each level performs exactly **two sweeps** over it:
///
/// 1. a branchless counting pass over the three pivot ranges
///    ([`partition_three_way_counts`] — two `0/1` comparisons per element,
///    no data-dependent branches, autovectorized for scalar keys), and
/// 2. a stable in-place `Vec::retain` narrowing to the range containing
///    the target rank, **fused with the next level's Bernoulli sampling**:
///    the globally agreed range counts determine the next level's total
///    (and hence its sampling rate ρ) before the narrowing runs, so the
///    skip sampler rides along in the retain sweep instead of re-scanning
///    the narrowed buffer at the next loop top.
///
/// No per-level heap allocation is performed for the data itself — for
/// `Copy` keys such as `u64` the whole recursion reuses the level-0 buffer.
/// Because `retain` preserves relative order and the fused sampler consumes
/// the RNG exactly as sampling the narrowed buffer afterwards would
/// (pinned by `seqkit::sampling` tests and by
/// `fused_level_is_bit_identical_to_the_two_pass_reference` below), the
/// pivot samples — and therefore every message on the wire — are
/// bit-identical to the two-pass reference implementation.
///
/// `total` is the agreed global size of `s` on entry.  A narrowing level
/// issues exactly three collectives ([`agree_pivots`]' reduction and
/// broadcast, the range-count vector all-reduction); the chosen range's
/// agreed count becomes the next level's `total`, so the survivor count is
/// never reduced.
fn select_recursive<C, T>(
    comm: &C,
    mut s: Vec<(T, u64)>,
    mut total: usize,
    mut k: usize,
    rng: &mut StdRng,
    levels: &mut usize,
) -> (T, u64)
where
    C: Communicator,
    T: SelectKey,
{
    let p = comm.size();
    // Sample pre-drawn by the previous level's fused narrowing sweep.
    let mut pending_sample: Option<Vec<(T, u64)>> = None;
    loop {
        *levels += 1;
        debug_assert!(k >= 1 && k <= total);

        // Cheap base cases: the extremes need only a single reduction.
        // (The previous level predicts these and skips its pre-sampling, so
        // `pending_sample` is always `None` here.)
        if k == 1 {
            return global_min(comm, s.iter().min().cloned())
                .expect("k = 1 requires a non-empty input");
        }
        if k == total {
            return global_max(comm, s.iter().max().cloned())
                .expect("k = total requires a non-empty input");
        }
        // Small remainder: collect everything on one PE and solve there (at
        // most two level samples of volume, latency O(log p)).
        if total <= base_case(p) {
            return base_case_select(comm, s, k);
        }

        // Bernoulli sample with expected total size `level_sample(p)`:
        // pre-drawn by the previous level's narrowing sweep when possible
        // (bit-identical to sampling here — same ρ, same buffer order, same
        // RNG stream), drawn on the spot at level 0 and on retries.
        let mut rho = sample_rate(p, total);
        let (lo_pivot, hi_pivot) = loop {
            let local_sample = match pending_sample.take() {
                Some(pre_drawn) => pre_drawn,
                None => bernoulli_sample(&s, rho, rng),
            };
            if let Some(pivots) = agree_pivots(comm, local_sample, k, total) {
                break pivots;
            }
            // Extremely unlikely unless the remaining input is tiny; retry
            // with a doubled rate (all PEs take the same branch because the
            // sample root broadcasts the emptiness of the whole sample).
            rho = (rho * 2.0).clamp(f64::MIN_POSITIVE, 1.0);
        };

        // Local three-way range sizes (one branchless counting pass,
        // nothing moves) and the global range sizes.
        let (la, lb, lc) = partition_three_way_counts(&s, &lo_pivot, &hi_pivot);
        let counts = comm.allreduce_vec_sum(vec![la as u64, lb as u64, lc as u64]);
        let (na, nb, nc) = (counts[0] as usize, counts[1] as usize, counts[2] as usize);

        // The next iteration is fully determined by the globally agreed
        // counts: its rank, its total, and therefore its sampling rate and
        // whether it takes a base-case shortcut.
        let (next_k, next_total) = if k <= na {
            (k, na)
        } else if k <= na + nb {
            (k - na, nb)
        } else {
            (k - na - nb, nc)
        };
        let takes_base_case = next_k == 1 || next_k == next_total || next_total <= base_case(p);
        // Pre-draw the next level's sample during the narrowing sweep —
        // one pass instead of narrow-then-sample — unless that level takes
        // a base case (its sample would never be used).
        let next_rho = (!takes_base_case).then(|| sample_rate(p, next_total));

        // Narrow `s` to the range containing rank k: a stable in-place
        // filter, so the surviving elements keep their relative order and
        // no new buffer is allocated.
        if k <= na {
            pending_sample = narrow_level(&mut s, |e| *e < lo_pivot, la, next_rho, rng);
            debug_assert_eq!(s.len(), la);
        } else if k <= na + nb {
            pending_sample = narrow_level(
                &mut s,
                |e| lo_pivot <= *e && *e <= hi_pivot,
                lb,
                next_rho,
                rng,
            );
            debug_assert_eq!(s.len(), lb);
        } else {
            pending_sample = narrow_level(&mut s, |e| *e > hi_pivot, lc, next_rho, rng);
            debug_assert_eq!(s.len(), lc);
        }
        k = next_k;
        total = next_total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_spmd, run_spmd_seq};
    use rand::Rng;

    /// The PR-3 two-pass recursion (count, narrow with a plain `retain`,
    /// sample the narrowed buffer at the next loop top), kept as the
    /// reference the fused count-while-sampling level is pinned against:
    /// identical thresholds, identical selected sets, identical recursion
    /// depth and — crucially — identical metered traffic.  Its *local*
    /// sweeps are the PR-3 ones verbatim; its communication follows the
    /// current schedule (known total carried through the loop, packed
    /// tie-break tag, shared [`pick_pivots`]).
    ///
    /// It also counts `misses`, on the sample root only (nobody else sees a
    /// sample; it calls [`decide_on_root`] where production calls
    /// [`agree_pivots`] to look at it): levels whose target rank fell outside
    /// the pivot bracket — into `a` although a sample element lies below the
    /// lower pivot, or into `c` although one lies above the upper pivot.
    /// (A bracket that reaches the sample's edge includes the outer range
    /// beyond it: no sample element separates the two.)
    fn select_recursive_two_pass<C, T>(
        comm: &C,
        mut s: Vec<(T, u64)>,
        mut total: usize,
        mut k: usize,
        rng: &mut StdRng,
        levels: &mut usize,
        misses: &mut usize,
    ) -> (T, u64)
    where
        C: Communicator,
        T: SelectKey,
    {
        let p = comm.size();
        loop {
            *levels += 1;
            if k == 1 {
                return global_min(comm, s.iter().min().cloned()).unwrap();
            }
            if k == total {
                return global_max(comm, s.iter().max().cloned()).unwrap();
            }
            if total <= base_case(p) {
                return base_case_select(comm, s, k);
            }
            let mut rho = sample_rate(p, total);
            // Does a sample element lie below / above the bracket?  Known on
            // the sample root, the one PE that sees the sample.
            let mut outside = (false, false);
            let (lo_pivot, hi_pivot) = loop {
                let local_sample = bernoulli_sample(&s, rho, rng);
                let pivots = decide_on_root(comm, local_sample, |sample| {
                    if !sample.is_empty() {
                        let (lo_idx, hi_idx) = bracket(sample.len(), k as f64 / total as f64);
                        outside = (lo_idx > 0, hi_idx + 1 < sample.len());
                    }
                    pick_pivots(sample, k, total)
                });
                if let Some(pivots) = pivots {
                    break pivots;
                }
                rho = (rho * 2.0).clamp(f64::MIN_POSITIVE, 1.0);
            };
            let (la, lb, lc) = partition_three_way_counts(&s, &lo_pivot, &hi_pivot);
            let counts = comm.allreduce_vec_sum(vec![la as u64, lb as u64, lc as u64]);
            let (na, nb, nc) = (counts[0] as usize, counts[1] as usize, counts[2] as usize);
            if k <= na {
                *misses += usize::from(outside.0);
                s.retain(|e| *e < lo_pivot);
                total = na;
            } else if k <= na + nb {
                s.retain(|e| lo_pivot <= *e && *e <= hi_pivot);
                k -= na;
                total = nb;
            } else {
                *misses += usize::from(outside.1);
                s.retain(|e| *e > hi_pivot);
                k -= na + nb;
                total = nc;
            }
        }
    }

    /// `select_k_smallest` rebuilt on the two-pass reference recursion; also
    /// returns the reference's bracket-miss count.
    fn select_k_smallest_two_pass<C, T>(
        comm: &C,
        local: &[T],
        k: usize,
        seed: u64,
    ) -> (UnsortedSelectionResult<T>, usize)
    where
        C: Communicator,
        T: SelectKey,
    {
        // Mirror the real entry point's up-front size check so the metered
        // traffic of the two variants is comparable one-to-one.
        let total = comm.allreduce_sum(local.len() as u64) as usize;
        assert!(k >= 1 && k <= total);
        let offset = tie_break_offset(comm.rank(), comm.size(), local.len());
        let tagged = tag_unique(local, offset);
        let mut rng =
            StdRng::seed_from_u64(seed ^ (comm.rank() as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let (mut levels, mut misses) = (0usize, 0usize);
        let threshold_tagged =
            select_recursive_two_pass(comm, tagged, total, k, &mut rng, &mut levels, &mut misses);
        let local_selected: Vec<T> = local
            .iter()
            .enumerate()
            .filter(|&(i, v)| (v, offset + i as u64) <= (&threshold_tagged.0, threshold_tagged.1))
            .map(|(_, v)| v.clone())
            .collect();
        let result = UnsortedSelectionResult {
            threshold: threshold_tagged.0,
            local_selected,
            recursion_levels: levels,
        };
        (result, misses)
    }

    /// Input shapes of the two identity tests, 2^16 elements each: large
    /// enough that a selection away from the extreme ranks runs at least two
    /// narrowing levels before the base case.
    fn identity_shapes(seed: u64) -> Vec<(&'static str, Vec<Vec<u64>>)> {
        vec![
            ("uniform", random_parts(4, 1 << 14, 1 << 40, seed)),
            ("dupes", random_parts(4, 1 << 14, 7, seed + 12)),
            (
                "skewed",
                (0..4)
                    .map(|r| {
                        if r == 0 {
                            (0..40_000u64).collect()
                        } else {
                            (1_000_000..1_008_512u64).collect()
                        }
                    })
                    .collect(),
            ),
            (
                "empty_pe",
                vec![
                    vec![],
                    (0..1 << 15).collect(),
                    vec![],
                    (1 << 15..1 << 16).collect(),
                ],
            ),
        ]
    }

    /// Ranks the identity tests select: the extremes (base-case shortcuts
    /// and their prediction by the previous level) and four ranks away from
    /// them, which must narrow at least twice.
    fn identity_ranks(n: usize) -> [(usize, usize); 8] {
        let near = n / 100;
        [
            (1, 0),
            (2, 1),
            (near, 2),
            (n / 3, 2),
            (n / 2, 2),
            (n - near, 2),
            (n - 1, 1),
            (n, 0),
        ]
    }

    /// The fused count-while-sampling level must leave everything the
    /// driver can observe — threshold, selected sets, recursion depth and
    /// per-PE metered words/messages (the fig6 words/PE columns) —
    /// bit-identical to the PR-3 two-pass implementation, across input
    /// shapes, PE counts, ranks and seeds.
    #[test]
    fn fused_level_is_bit_identical_to_the_two_pass_reference() {
        for (name, parts) in identity_shapes(11) {
            let n: usize = parts.iter().map(Vec::len).sum();
            let p = parts.len();
            for (k, min_narrowing) in identity_ranks(n) {
                for seed in [1u64, 99] {
                    let fused = run_spmd_seq(p, |comm| {
                        let before = comm.stats_snapshot();
                        let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                        (r, comm.stats_snapshot().since(&before))
                    });
                    let two_pass = run_spmd_seq(p, |comm| {
                        let before = comm.stats_snapshot();
                        let (r, _) = select_k_smallest_two_pass(comm, &parts[comm.rank()], k, seed);
                        (r, comm.stats_snapshot().since(&before))
                    });
                    for ((f, fs), (t, ts)) in fused.results.iter().zip(two_pass.results.iter()) {
                        assert!(
                            f.recursion_levels > min_narrowing,
                            "{name} k={k} seed={seed}: {} levels",
                            f.recursion_levels
                        );
                        assert_eq!(f.threshold, t.threshold, "{name} k={k} seed={seed}");
                        assert_eq!(
                            f.local_selected, t.local_selected,
                            "{name} k={k} seed={seed}"
                        );
                        assert_eq!(
                            f.recursion_levels, t.recursion_levels,
                            "{name} k={k} seed={seed}"
                        );
                        assert_eq!(
                            fs.sent_words, ts.sent_words,
                            "metered words diverged: {name} k={k} seed={seed}"
                        );
                        assert_eq!(
                            fs.sent_messages, ts.sent_messages,
                            "metered messages diverged: {name} k={k} seed={seed}"
                        );
                    }
                    assert_eq!(
                        fused.stats.bottleneck_words(),
                        two_pass.stats.bottleneck_words(),
                        "{name} k={k} seed={seed}"
                    );
                }
            }
        }
    }

    /// The threshold-only entry point must leave everything the driver can
    /// observe — threshold and per-PE metered words/messages — bit-identical
    /// to the full `select_k_smallest` path with the same arguments, across
    /// input shapes, PE counts, ranks and seeds (it is the same recursion;
    /// only the filter over `local` is skipped).
    #[test]
    fn threshold_only_path_is_bit_identical_to_the_full_path() {
        for (name, parts) in identity_shapes(17) {
            let n: usize = parts.iter().map(Vec::len).sum();
            let p = parts.len();
            for (k, min_narrowing) in identity_ranks(n) {
                for seed in [1u64, 99] {
                    let full = run_spmd_seq(p, |comm| {
                        let before = comm.stats_snapshot();
                        let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                        assert!(
                            r.recursion_levels > min_narrowing,
                            "{name} k={k} seed={seed}: {} levels",
                            r.recursion_levels
                        );
                        (r.threshold, comm.stats_snapshot().since(&before))
                    });
                    let thresh = run_spmd_seq(p, |comm| {
                        let before = comm.stats_snapshot();
                        let t = select_threshold(comm, &parts[comm.rank()], k, seed);
                        (t, comm.stats_snapshot().since(&before))
                    });
                    for ((ft, fs), (tt, ts)) in full.results.iter().zip(thresh.results.iter()) {
                        assert_eq!(ft, tt, "{name} k={k} seed={seed}");
                        assert_eq!(
                            fs.sent_words, ts.sent_words,
                            "metered words diverged: {name} k={k} seed={seed}"
                        );
                        assert_eq!(
                            fs.sent_messages, ts.sent_messages,
                            "metered messages diverged: {name} k={k} seed={seed}"
                        );
                    }
                    assert_eq!(
                        full.stats.bottleneck_words(),
                        thresh.stats.bottleneck_words(),
                        "{name} k={k} seed={seed}"
                    );
                }
            }
        }
    }

    /// The start-up budget is exact.  At p = 64 a reduction followed by a
    /// broadcast costs its root ⌈log₂ p⌉ = 6 sent messages (the broadcast to
    /// its children) and a leaf of its tree 1 (the reduction to its parent).
    /// Rank 0 roots the all-reductions and is a leaf of the sample root's
    /// tree; rank p − 1 is the sample root and a leaf of rank 0's tree.  So a
    /// selection of `recursion_levels` levels whose last one is the collected
    /// base case sends, entry reduction + narrowing levels (`agree_pivots`,
    /// range counts) + `base_case_select`:
    ///
    /// * rank 0:     `6 + (levels − 1)·(1 + 6) + 1 = 7·levels`,
    /// * rank p − 1: `1 + (levels − 1)·(6 + 1) + 6 = 7·levels`
    ///
    /// — `⌈log₂ p⌉ + 1` per level where all-gathering the sample cost
    /// `2·⌈log₂ p⌉`.  (Fixed seeds on which no level draws an empty sample — a
    /// retry would add one `agree_pivots` — and none ends on the `k = 1` /
    /// `k = total` shortcut, an all-reduction.)
    #[test]
    fn startup_budget_is_three_collectives_on_two_roots_per_level() {
        let p = 64;
        let per_pe = 64;
        let parts = random_parts(p, per_pe, 1 << 40, 5);
        let n = p * per_pe;
        for (k, seed) in [(n / 1024, 1u64), (n / 32, 2), (n / 2, 3), (n / 3, 4)] {
            let parts_ref = parts.clone();
            let out = run_spmd_seq(p, move |comm| {
                let before = comm.stats_snapshot();
                let r = select_k_smallest(comm, &parts_ref[comm.rank()], k, seed);
                let sent = comm.stats_snapshot().since(&before).sent_messages;
                (r.recursion_levels, sent)
            });
            let (levels, sent_by_first) = out.results[0];
            let (_, sent_by_last) = out.results[p - 1];
            assert!(levels >= 2, "k={k}: the recursion must narrow");
            assert_eq!(sent_by_first, 7 * levels as u64, "k={k} seed={seed}");
            assert_eq!(sent_by_last, 7 * levels as u64, "k={k} seed={seed}");
            assert_eq!(
                out.stats.bottleneck_messages(),
                7 * levels as u64,
                "k={k} seed={seed}"
            );
        }
    }

    /// An empty sample is agreed on through the broadcast: every PE gets
    /// `None` from the same call and retries together, and the retry's
    /// pivots are the same pair everywhere — wherever the one non-empty
    /// share lies.  (Driven on `agree_pivots` itself: a level of a selection
    /// samples `total > 2m` survivors at rate `m/total`, so its sample is
    /// empty with probability `(1 − m/total)^total < e^{−128}` and no seed
    /// gets there.)
    #[test]
    fn empty_sample_retry_is_taken_by_every_pe_alike() {
        for p in [1usize, 2, 5, 64] {
            for holder in [0, p / 2, p - 1] {
                let out = run_spmd_seq(p, |comm| {
                    let mut attempts = 0;
                    let pivots = loop {
                        attempts += 1;
                        let share: Vec<(u64, u64)> = if attempts > 1 && comm.rank() == holder {
                            (0..100).map(|i| (i * 7 % 100, i)).collect()
                        } else {
                            Vec::new()
                        };
                        if let Some(pivots) = agree_pivots(comm, share, 50, 100) {
                            break pivots;
                        }
                    };
                    (attempts, pivots)
                });
                let (lo, hi) = bracket(100, 0.5);
                let expected = (
                    2,
                    (
                        (lo as u64, lo as u64 * 43 % 100),
                        (hi as u64, hi as u64 * 43 % 100),
                    ),
                );
                for (rank, got) in out.results.iter().enumerate() {
                    assert_eq!(*got, expected, "p={p} holder={holder} rank={rank}");
                }
            }
        }
    }

    /// Where the data lies relative to the two roots must not matter:
    /// everything on rank 0, everything on the sample root, nothing on the
    /// sample root, every other PE empty.  Both entry points give the
    /// sorted-union oracle's threshold, exactly `k` selected elements and the
    /// same level count on every PE, on a power-of-two and an odd `p`.
    #[test]
    fn placement_extremes_agree_with_the_oracle() {
        let n = 1usize << 12;
        for p in [4usize, 5] {
            let all = random_parts(1, n, 1 << 40, 61).remove(0);
            let on = |holders: &[usize]| -> Vec<Vec<u64>> {
                let mut parts = vec![Vec::new(); p];
                for (i, &v) in all.iter().enumerate() {
                    parts[holders[i % holders.len()]].push(v);
                }
                parts
            };
            let shapes = [
                ("all_on_rank_0", on(&[0])),
                ("all_on_the_sample_root", on(&[p - 1])),
                (
                    "nothing_on_the_sample_root",
                    on(&(0..p - 1).collect::<Vec<_>>()),
                ),
                (
                    "every_other_pe_empty",
                    on(&(1..p).step_by(2).collect::<Vec<_>>()),
                ),
            ];
            for (name, parts) in shapes {
                for k in [2usize, n / 32, n / 2, n - 1] {
                    let out = run_spmd_seq(p, |comm| {
                        let local = &parts[comm.rank()];
                        let r = select_k_smallest(comm, local, k, 3);
                        let t = select_threshold(comm, local, k, 3);
                        (r.threshold, t, r.recursion_levels, r.local_selected.len())
                    });
                    let expected = reference_threshold(&parts, k);
                    let levels = out.results[0].2;
                    for &(full, counts_only, l, _) in &out.results {
                        assert_eq!(full, expected, "{name} p={p} k={k}");
                        assert_eq!(counts_only, expected, "{name} p={p} k={k}");
                        assert_eq!(l, levels, "{name} p={p} k={k}");
                    }
                    let selected: usize = out.results.iter().map(|r| r.3).sum();
                    assert_eq!(selected, k, "{name} p={p} k={k}");
                }
            }
        }
    }

    /// Same pivots, same levels: `(threshold, recursion_levels)` of
    /// `(p, n/p, k, seed)` cells as recorded while every PE held the whole
    /// sample (commit 09e4d9b).  Who holds the sample must not change what
    /// is drawn or picked from it.
    #[test]
    fn thresholds_and_levels_match_the_recorded_golden_values() {
        for (p, per_pe, k, seed, threshold, levels) in [
            (2usize, 1usize << 15, 64usize, 1u64, 1141497833u64, 3usize),
            (2, 1 << 15, 1 << 15, 2, 554605289030, 5),
            (4, 1 << 12, 5000, 3, 334833653113, 4),
            (5, 1000, 1234, 4, 276605897511, 3),
            (7, 600, 4199, 5, 1099357005929, 2),
            (64, 64, 128, 6, 39242346080, 3),
            (64, 64, 2048, 7, 550798344567, 3),
            (64, 64, 1365, 8, 362159794991, 3),
        ] {
            let parts = random_parts(p, per_pe, 1 << 40, 1000 + p as u64);
            let out = run_spmd_seq(p, |comm| {
                let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                (r.threshold, r.recursion_levels)
            });
            for got in &out.results {
                assert_eq!(*got, (threshold, levels), "p={p} n/p={per_pe} k={k}");
            }
        }
    }

    /// The narrowing is a stated expectation, not a fitted one (a first
    /// statistical check of a guarantee the module docs state).  A level at `q = ½` keeps the share
    /// `f = (c·√m + 2)/m` of its input (0.19 at m = 128, c = 2), so reaching
    /// the base case from `n` takes `⌈ln(n/2m) / ln(1/f)⌉` narrowing levels;
    /// the bound allows two more (the base-case level itself and one for the
    /// sample's fluctuation).  And a 2σ bracket misses the target's sample
    /// rank in at most ≈ 4.6 % of levels; more than 10 % would mean the
    /// bracket is not the one documented.  201 algorithm seeds per (p, n)
    /// cell — 67 for each of the three ranks — on one uniform 40-bit input,
    /// run on the two-pass reference (which counts the misses and is pinned
    /// bit-identical to the production path above).
    fn assert_stated_narrowing(p: usize, n: usize, stated_bound: f64) {
        const SEEDS: usize = 67;
        let m = level_sample(p) as f64;
        let f = (BRACKET_SIGMAS * m.sqrt() + 2.0) / m;
        let bound = ((n as f64 / base_case(p) as f64).ln() / (1.0 / f).ln()).ceil() + 2.0;
        assert_eq!(bound, stated_bound, "p={p} n={n}");
        let parts = random_parts(p, n / p, 1 << 40, 31);
        for k in [n / 1024, n / 32, n / 2] {
            let (mut levels, mut misses) = (0usize, 0usize);
            for seed in 0..SEEDS as u64 {
                let out = run_spmd_seq(p, |comm| {
                    let (r, misses) =
                        select_k_smallest_two_pass(comm, &parts[comm.rank()], k, seed);
                    (r.recursion_levels, misses)
                });
                // The sample root is the PE that counts the misses.
                levels += out.results[p - 1].0;
                misses += out.results[p - 1].1;
            }
            let mean = levels as f64 / SEEDS as f64;
            assert!(mean <= bound, "p={p} n={n} k={k}: mean levels {mean}");
            // Every level but the last of a selection narrows.
            let narrowing = levels - SEEDS;
            assert!(
                misses * 10 <= narrowing,
                "p={p} n={n} k={k}: {misses} misses in {narrowing} narrowing levels"
            );
        }
    }

    #[test]
    fn narrowing_meets_the_stated_bound_at_p2() {
        assert_stated_narrowing(2, 1 << 16, 6.0);
    }

    #[test]
    fn narrowing_meets_the_stated_bound_at_p64() {
        assert_stated_narrowing(64, 1 << 14, 5.0);
    }

    /// Inputs on which a sampling schedule could stall — no spread in the
    /// values, no spread over the PEs — still narrow: exact thresholds
    /// against the sorted union, exactly `k` selected, at most 8 levels.
    #[test]
    fn adversarial_inputs_make_progress() {
        let per_pe = 1usize << 12;
        let shapes: Vec<(&str, Vec<Vec<u64>>)> = vec![
            ("all_equal", vec![vec![7; per_pe]; 4]),
            ("seven_values", random_parts(4, per_pe, 7, 41)),
            (
                "one_pe_holds_everything",
                random_parts(1, 4 * per_pe, 1 << 40, 43)
                    .into_iter()
                    .chain(vec![vec![]; 3])
                    .collect(),
            ),
            (
                "ascending_by_rank",
                (0..4)
                    .map(|r| (r * per_pe as u64..(r + 1) * per_pe as u64).collect())
                    .collect(),
            ),
            (
                "empty_pes",
                [vec![], random_parts(1, 2 * per_pe, 1 << 40, 47).remove(0)]
                    .into_iter()
                    .cycle()
                    .take(4)
                    .collect(),
            ),
        ];
        for (name, parts) in shapes {
            let n: usize = parts.iter().map(Vec::len).sum();
            for k in [2usize, n / 1024, n / 32, n / 2, n - 1] {
                for seed in [1u64, 2, 3] {
                    let out = run_spmd_seq(parts.len(), |comm| {
                        let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                        (r.threshold, r.local_selected.len(), r.recursion_levels)
                    });
                    let expected = reference_threshold(&parts, k);
                    for &(threshold, _, levels) in &out.results {
                        assert_eq!(threshold, expected, "{name} k={k} seed={seed}");
                        assert!(levels <= 8, "{name} k={k} seed={seed}: {levels} levels");
                    }
                    let selected: usize = out.results.iter().map(|r| r.1).sum();
                    assert_eq!(selected, k, "{name} k={k} seed={seed}");
                }
            }
        }
    }

    /// The words of a selection at p = 2, where every collective is one
    /// exchange and rank 0 — the busier PE: it sends its shares to the sample
    /// root, rank 1, which answers with two pivots — sends exactly: 1 word at
    /// the entry; per narrowing level its share of the sample as one coded
    /// block and the 3 + 1 words of the range counts; in the base case its
    /// share of the ≤ 2m survivors as one coded block.
    ///
    /// On both inputs here — uniform values below 2^40, and §10.1's Zipf
    /// ranks below 2^14, where values repeat — rank 0's block of `len`
    /// elements takes at most `HEADER + len·ELEMENT` bits:
    ///
    /// * `HEADER` = 89: δ(len) ≤ 15 bits for `len < 256`, the 23 field bits
    ///   and δ(first value) ≤ 51 bits for a value below 2^40;
    /// * `ELEMENT` = 56: a value gap's Rice code takes under `r_v + 3` bits
    ///   on average (the unary quotients of `c` gaps take under `2c` bits at
    ///   `r_v = ⌊log₂ mean gap⌋`), and `r_v ≤ 35` for a block of 33 or more
    ///   elements, whose gaps sum below 2^40; rank 0's dense tag is its
    ///   index, raw at `w_i ≤ 15` bits or Rice-coded in a run at `r_t ≤ 14`
    ///   (its dense gaps are below 2^15), under 17 bits on average.  A block
    ///   of 32 elements or fewer takes at most `32·(43 + 17)` bits, less than
    ///   96 elements' `ELEMENT` bits.
    ///
    /// On evenly spread input a share is half: `m/2` elements of a level's
    /// sample, at most `m` of the base case's.  `SLACK` = 32 elements is 4σ
    /// of a PE's Bernoulli share of the sample (64 ± 8); the base case gets
    /// the same for the imbalance of the survivors.  So a level costs at
    /// most 90 words and the base case 142 — where a level's 64 uncoded
    /// two-word pairs alone take 129.
    #[test]
    fn words_at_p2_are_one_coded_sample_per_level_plus_the_base_case() {
        const HEADER: u64 = 89;
        const ELEMENT: u64 = 56;
        const SLACK: u64 = 32;
        const COUNT_WORDS: u64 = 4;
        let m = level_sample(2) as u64;
        let block = |len: u64| (HEADER + len * ELEMENT).div_ceil(64);
        let level = block(m / 2 + SLACK) + COUNT_WORDS;
        let base_case = block(m + SLACK);
        assert_eq!((level, base_case), (90, 142));
        let n = 1usize << 16;
        let inputs = [
            ("uniform", random_parts(2, n / 2, 1 << 40, 53)),
            (
                "zipf",
                datagen::SkewedSelectionInput::default().generate_all(2, n / 2),
            ),
        ];
        for (name, parts) in &inputs {
            for k in [n / 1024, n / 32, n / 2] {
                for seed in 0..20u64 {
                    let out = run_spmd_seq(2, |comm| {
                        select_k_smallest(comm, &parts[comm.rank()], k, seed).recursion_levels
                    });
                    let narrowing = out.results[0] as u64 - 1;
                    let bound = 1 + narrowing * level + base_case;
                    assert!(
                        out.stats.bottleneck_words() <= bound,
                        "{name} k={k} seed={seed}: {} words in {narrowing} narrowing levels, \
                         bound {bound}",
                        out.stats.bottleneck_words()
                    );
                }
            }
        }
    }

    /// The threshold-only entry point on its own against the brute-force
    /// oracle, including duplicate-heavy input (ties must break on the packed
    /// `(rank, local index)` tag).
    #[test]
    fn threshold_only_path_selects_correct_thresholds() {
        for p in [1usize, 3, 5] {
            let parts = random_parts(p, 400, 40, 77); // heavy duplication
            let n = 400 * p;
            for k in [1usize, 17, n / 2, n] {
                let parts_ref = parts.clone();
                let out = run_spmd(p, move |comm| {
                    select_threshold(comm, &parts_ref[comm.rank()], k, 13)
                });
                let expected = reference_threshold(&parts, k);
                assert!(out.results.iter().all(|&t| t == expected), "p={p} k={k}");
            }
        }
    }

    /// Non-`Copy` keys: every element the recursion holds is a clone, so a
    /// narrowing that dropped or duplicated one would show here.  Both entry
    /// points against the sorted union on duplicate-heavy `String`s, exactly
    /// `k` selected, and — away from the extreme ranks — at least one
    /// narrowing level before the base case.
    #[test]
    fn non_copy_keys_select_through_both_entry_points() {
        for p in [1usize, 3] {
            let parts: Vec<Vec<String>> = random_parts(p, 400, 40, 83)
                .into_iter()
                .map(|part| part.into_iter().map(|v| format!("key-{v:02}")).collect())
                .collect();
            let n = 400 * p;
            let mut sorted: Vec<&String> = parts.iter().flatten().collect();
            sorted.sort_unstable();
            for k in [1usize, 17, n / 2, n] {
                let out = run_spmd_seq(p, |comm| {
                    let local = &parts[comm.rank()];
                    let r = select_k_smallest(comm, local, k, 19);
                    assert!(r.local_selected.iter().all(|v| *v <= r.threshold));
                    let t = select_threshold(comm, local, k, 19);
                    (r.threshold, t, r.local_selected.len(), r.recursion_levels)
                });
                for (full, threshold_only, _, levels) in &out.results {
                    assert_eq!(full, sorted[k - 1], "p={p} k={k}");
                    assert_eq!(threshold_only, sorted[k - 1], "p={p} k={k}");
                    assert!(k == 1 || k == n || *levels >= 2, "p={p} k={k}: {levels}");
                }
                let selected: usize = out.results.iter().map(|r| r.2).sum();
                assert_eq!(selected, k, "p={p} k={k}");
            }
        }
    }

    /// Reference: sort the union and take the k-th smallest.
    fn reference_threshold(parts: &[Vec<u64>], k: usize) -> u64 {
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        all[k - 1]
    }

    fn random_parts(p: usize, per_pe: usize, max: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| (0..per_pe).map(|_| rng.gen_range(0..max)).collect())
            .collect()
    }

    #[test]
    fn selects_correct_threshold_on_uniform_data() {
        for p in [1usize, 2, 4, 7] {
            let parts = random_parts(p, 500, 10_000, 42);
            for k in [1usize, 10, 250, 500 * p / 2, 500 * p] {
                let parts_ref = parts.clone();
                let out = run_spmd(p, move |comm| {
                    select_k_smallest(comm, &parts_ref[comm.rank()], k, 7).threshold
                });
                let expected = reference_threshold(&parts, k);
                assert!(out.results.iter().all(|&t| t == expected), "p={p} k={k}");
            }
        }
    }

    #[test]
    fn selected_sets_have_total_size_exactly_k() {
        let p = 4;
        let parts = random_parts(p, 300, 50, 3); // many duplicates
        for k in [1usize, 7, 150, 600, 1200] {
            let parts_ref = parts.clone();
            let out = run_spmd(p, move |comm| {
                select_k_smallest(comm, &parts_ref[comm.rank()], k, 11)
                    .local_selected
                    .len()
            });
            let total: usize = out.results.iter().sum();
            assert_eq!(total, k, "k={k}");
        }
    }

    #[test]
    fn selected_elements_are_the_smallest_ones() {
        let p = 3;
        let parts = random_parts(p, 200, 1_000, 5);
        let k = 77;
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], k, 1).local_selected
        });
        let mut selected: Vec<u64> = out.results.into_iter().flatten().collect();
        selected.sort_unstable();
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(selected, all[..k].to_vec());
    }

    #[test]
    fn handles_skewed_distribution_across_pes() {
        // All small values on PE 0, all large values on the others.
        let p = 4;
        let parts: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                if r == 0 {
                    (0..400u64).collect()
                } else {
                    (10_000..10_400u64).collect()
                }
            })
            .collect();
        let k = 350;
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let r = select_k_smallest(comm, &parts_ref[comm.rank()], k, 9);
            (r.threshold, r.local_selected.len())
        });
        assert!(out.results.iter().all(|&(t, _)| t == 349));
        assert_eq!(out.results[0].1, 350);
        assert!(out.results[1..].iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn handles_empty_local_inputs_on_some_pes() {
        let p = 4;
        let parts: Vec<Vec<u64>> = vec![vec![], (0..100).collect(), vec![], (100..200).collect()];
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], 150, 2).threshold
        });
        assert!(out.results.iter().all(|&t| t == 149));
    }

    #[test]
    fn all_equal_values_still_select_exactly_k() {
        let p = 3;
        let parts: Vec<Vec<u64>> = vec![vec![7; 100], vec![7; 100], vec![7; 100]];
        let parts_ref = parts.clone();
        let k = 123;
        let out = run_spmd(p, move |comm| {
            let r = select_k_smallest(comm, &parts_ref[comm.rank()], k, 3);
            (r.threshold, r.local_selected.len())
        });
        assert!(out.results.iter().all(|&(t, _)| t == 7));
        let total: usize = out.results.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, k);
    }

    #[test]
    fn k_equal_to_one_and_total_work() {
        let p = 2;
        let parts = random_parts(p, 50, 1000, 8);
        let all_min = *parts.iter().flatten().min().unwrap();
        let all_max = *parts.iter().flatten().max().unwrap();
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let lo = select_threshold(comm, &parts_ref[comm.rank()], 1, 4);
            let hi = select_threshold(comm, &parts_ref[comm.rank()], 100, 4);
            (lo, hi)
        });
        assert!(out
            .results
            .iter()
            .all(|&(lo, hi)| lo == all_min && hi == all_max));
    }

    #[test]
    fn select_k_largest_is_the_dual() {
        let p = 3;
        let parts = random_parts(p, 200, 10_000, 21);
        let k = 25;
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_largest(comm, &parts_ref[comm.rank()], k, 6)
                .threshold
                .0
        });
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        assert!(out.results.iter().all(|&t| t == all[k - 1]));
    }

    #[test]
    fn recursion_depth_is_modest() {
        let p = 4;
        let parts = random_parts(p, 4000, 1 << 30, 13);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], 4321, 5).recursion_levels
        });
        assert!(
            out.results.iter().all(|&l| l <= 6),
            "levels: {:?}",
            out.results
        );
    }

    #[test]
    fn communication_volume_is_sublinear_in_local_input() {
        // The paper's headline claim: per-PE communication is o(n/p).
        let p = 4;
        let per_pe = 20_000;
        let parts = random_parts(p, per_pe, 1 << 40, 99);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = select_k_smallest(comm, &parts_ref[comm.rank()], 5000, 12);
            comm.stats_snapshot().since(&before)
        });
        for snap in &out.results {
            assert!(
                snap.bottleneck_words() < (per_pe / 4) as u64,
                "per-PE communication {} words is not sublinear in n/p = {per_pe}",
                snap.bottleneck_words()
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the global input size")]
    fn k_larger_than_input_is_rejected() {
        run_spmd(2, |comm| {
            let local: Vec<u64> = vec![1, 2, 3];
            select_threshold(comm, &local, 100, 0)
        });
    }
}
