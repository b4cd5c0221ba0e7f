//! Multisequence selection on locally sorted input (paper §4.2, Algorithm 9).
//!
//! Every PE holds a locally *sorted* sequence; the task is to find the
//! element of global rank `k` in the union.  The algorithm is a distributed
//! quickselect: one remaining element becomes the pivot, every PE locates
//! the pivot in its window with one binary search (`O(log k)` local work), a
//! sum reduction yields the pivot's global rank, and the search continues
//! left or right — or stops, when the pivot's rank is `k`.  Expected
//! `O(α log² kp)` latency (Theorem 16); no element is ever moved.
//!
//! Ties are broken by a packed `(rank, local index)` word
//! ([`tie_break_offset`]) that orders like the global element index, so the
//! rank is exact even with duplicate values and the per-PE result counts
//! sum to exactly `k`.
//!
//! # Collective schedule
//!
//! **Entry: one.**  A two-word sum all-reduction of
//! `(|local|, min(|local|, k))` gives the global size and the first round's
//! remaining window.  A caller that already holds the second sum skips it
//! (`multisequence_select_known_sizes`; the bulk queue does).
//!
//! **Pivot round: exactly two.**  One min-by-key all-reduction agrees the
//! pivot, one sum all-reduction ranks it.  The remaining window size is
//! updated from the agreed rank like `k` is, never reduced again.  A round
//! whose pivot has rank exactly `k` is the last one: the pivot is the answer.
//!
//! **Base case: one.**  Before the first round and after every branch
//! update, every PE knows `e = min(k, remaining − k + 1)`, the target's
//! distance to the nearer edge of the remaining window.  The target is then
//! among the `e` window elements nearest that edge on each PE — near the
//! bottom the first `min(w, k)` of a `w`-element window, near the top the
//! last `min(w, remaining − k + 1)` — at most `p·e` candidates.  Once `p·e`
//! is at most the cut below, the PEs ship those candidates in one collective
//! and every PE picks the answer locally; no pivot round follows.
//!
//! * `e = 1`: the target is the smallest (`k = 1`) or largest
//!   (`k = remaining`) remaining element, and the collective is the
//!   optional-extremum all-reduction of each PE's edge element and its tag.
//!   Its `s + 2` words per message undercut a pivot round's `s + 4` at every
//!   `p`, so `e = 1` is always under the cut.  A lone remaining element is
//!   this case.
//! * `e ≥ 2`: one all-gather of each PE's at most `e` edge elements as a bare
//!   `Vec<T>`.  Tags stay implied: a block's PE is its index in the gather,
//!   and inside a block the position orders like the tag.  Every PE picks
//!   the candidate of tie-broken rank `k` from the bottom, or
//!   `remaining − k + 1` from the top.
//!
//! # The cut
//!
//! The cut prices the all-gather in §2's currency, bottleneck words, against
//! the pivot rounds it replaces.  With `l = ⌈log₂ p⌉` and elements `s` words
//! wide, a pivot round all-reduces an `(s + 3)`-word bid and a one-word
//! count: `l·(s + 4)` words.  The all-gather of full blocks costs
//! `l + (p − 1)·(1 + e·s)` words (one length word per message and per
//! block).  A round's decision is one of three (left, hit, right), so
//! locating the target among `p·e` candidates takes at least `log₃(p·e)`
//! rounds.  The all-gather fires while it is the cheaper of the two:
//!
//! ```text
//! l + (p − 1)·(1 + e·s)  <  log₃(p·e) · l·(s + 4)
//! ```
//!
//! The left side grows linearly in `e`, the right one logarithmically.  The
//! cut is `p·E`, where `E` is the largest `e` up to which the inequality
//! holds from `e = 2` on, or 1 if it fails at 2.  It depends on `p` and `s`
//! alone, so every PE derives the same cut without a message:
//!
//! | `s` | p = 2 | p = 3 | p = 4 | p = 8 | p = 16 | p ≥ 32 |
//! |---|---|---|---|---|---|---|
//! | 1 (`u64`) | 24 | 45 | 36 | 48 | 48 | `p` |
//! | 2 (the bulk queue's `(u64, id)`) | 10 | 21 | 16 | 24 | 16 | `p` |
//!
//! A cut of `p` is `e = 1` only: beyond a few dozen PEs the all-gather's
//! `p − 1` blocks cost more words than any pivot rounds it could save.  On
//! one PE both sides are zero, nothing is strictly cheaper, and the cut is
//! `p = 1`.  `s` is `⌈size_of::<T>() / 8⌉`: the encoded width of the
//! fixed-width element types the kernels run on, and for any type a width
//! every PE derives alike.  Measured on `bulkpq_churn` (p = 2), the pivot
//! loop took 2.50, 2.62 and 2.80 more rounds from `e` = 8, 9 and 11, where
//! `log₃(2e)` is 2.52, 2.63 and 2.81 (EXPERIMENTS.md, "§4.2 selection ends in one collective").
//!
//! # How the pivot is agreed
//!
//! Every PE with a non-empty window of `w` elements offers one of them
//! together with the key `−ln u / w`, `u` uniform in `(0, 1)` from its own
//! random stream, and the reduction keeps the offer with the smallest
//! `(key, tie-break tag)`.  The key is exponentially distributed with rate
//! `w`, so the winner is PE `i` with probability `wᵢ / Σw` — weighted
//! reservoir sampling (Efraimidis & Spirakis 2006) of one PE by window size,
//! with no prefix sum to locate a global position.  The operator is the
//! minimum of a total order (tags are globally unique), hence associative
//! *and* commutative: every reduction schedule, on every backend, returns the
//! same pivot to every PE.  Any remaining element is a valid pivot (App. A),
//! so correctness does not depend on the random streams at all — PEs passing
//! different seeds still agree on the exact threshold; only reproducibility
//! of the round count needs the same `seed` everywhere.
//!
//! # Which element a PE offers
//!
//! For the first `⌈log₂ remaining₀⌉` rounds (`remaining₀ = Σ min(|local|, k)`,
//! agreed at the entry) it is the window element of proportional rank,
//! `⌊(2k − 1)·w / (2·remaining)⌋` — the step classical multisequence
//! selection takes deterministically (Varman et al. 1991).  When PEs hold
//! samples of overlapping value ranges, a local quantile estimates the global
//! rank to within about `√n`, and the window shrinks by far more than the
//! constant factor a random pivot buys.  From then on it is a uniformly
//! random element of the window, which together with the weighted choice of
//! the PE is exactly Algorithm 9's uniform pivot.  The switch is a function
//! of the round number and an agreed value, not a tuning knob, and it is what
//! keeps the bound for *every* input: the proportional rounds add at most
//! `⌈log₂ kp⌉` rounds to Algorithm 9's expected `O(log kp)` on whatever they
//! leave, so `O(α log² kp)` stands.  On globally sorted input (disjoint
//! per-PE ranges) they buy nothing: measured, up to a fifth more rounds
//! than uniform pivots alone would take, every mean inside
//! `2⌈log₂ remaining₀⌉` (EXPERIMENTS.md, "Bulk-PQ start-ups").
//!
//! Every round removes at least the pivot from the remaining window, and a
//! window of one element is the base case, so the loop terminates
//! structurally, without a round cap.

use std::ops::Add;

use commsim::{CommData, Communicator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::{allreduce_pair, global_max, global_min, splitmix64, tie_break_offset};

/// Result of a multisequence selection.
#[derive(Debug, Clone)]
pub struct MsSelectResult<T> {
    /// The element of global rank `k` (1-based) under the tie-broken order.
    pub threshold: T,
    /// Number of *local* elements among the `k` globally smallest
    /// (sums to exactly `k` over all PEs).
    pub local_count: usize,
    /// Number of selection rounds.  A pivot round costs two collectives —
    /// the pivot's min-by-key all-reduction and the rank all-reduction — and
    /// the base case that ends a selection costs one, the extremum
    /// all-reduction or the all-gather of the edge candidates; each is
    /// `O(α log p)`.  Every round but the last is a pivot round; the last is
    /// the base case unless its pivot had rank exactly `k`.
    pub rounds: usize,
}

/// Tie-broken comparison key: `(value, packed (rank, local index))`.
type Key<T> = (T, u64);

/// A PE's bid in the pivot reduction: `(exponential key, tag, element)`, or
/// `None` from a PE whose window is empty.  Tags are unique, so the tuple
/// order never reaches the element.
type Bid<T> = Option<(u64, u64, T)>;

/// Which element of its window a PE offers as the pivot.
#[derive(Debug, Clone, Copy)]
enum Offer {
    /// The element whose window rank is proportional to the target rank `k`
    /// among the `remaining` elements of all windows.
    Proportional { k: u64, remaining: u64 },
    /// A uniformly random element of the window.
    Uniform,
}

/// Select the element of global rank `k` (1-based) from the union of locally
/// sorted sequences, without moving any data.
///
/// `k` must be the same on every PE.  `seed` should be: each PE derives its
/// own random stream from `(seed, rank)`, and the result — threshold and
/// local counts — is exact whatever the streams are, but the number of
/// rounds, and with it the message count, is only reproducible from run to
/// run and from backend to backend when every PE passes the same `seed`.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the global number of elements, or if the
/// local input is not sorted (checked in debug builds).
pub fn multisequence_select<C, T>(
    comm: &C,
    sorted_local: &[T],
    k: usize,
    seed: u64,
) -> MsSelectResult<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    let local_n = sorted_local.len() as u64;
    // One reduction for both the global size and the first window size.
    let window = local_n.min(k as u64);
    let (total, remaining) = allreduce_pair(comm, (local_n, window), u64::add, u64::add);
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k as u64 <= total,
        "k = {k} exceeds the global input size {total}"
    );
    multisequence_select_known_sizes(comm, sorted_local, k, remaining, seed)
}

/// [`multisequence_select`] for callers that have already agreed on
/// `remaining = Σ min(|local|, k)` (it must be that sum, identical on every
/// PE, and `1 ≤ k ≤ Σ|local|`): the selection rounds without the entry
/// reduction.
pub(crate) fn multisequence_select_known_sizes<C, T>(
    comm: &C,
    sorted_local: &[T],
    k: usize,
    remaining: u64,
    seed: u64,
) -> MsSelectResult<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    debug_assert!(
        sorted_local.windows(2).all(|w| w[0] <= w[1]),
        "multisequence_select requires locally sorted input"
    );
    debug_assert!(remaining >= 1, "k ≥ 1 leaves a non-empty first window");
    let local_n = sorted_local.len();
    // Restrict the search to the first min(k, |local|) elements: elements
    // beyond local rank k can never be among the k globally smallest.
    let mut lo = 0usize;
    let mut hi = local_n.min(k);
    let mut k = k as u64;
    let mut remaining = remaining;

    // Tag of this PE's first element (tie breaker).
    let offset = tie_break_offset(comm.rank(), comm.size(), local_n);
    let mut rng = pe_rng(seed, comm.rank());
    // ⌈log₂ remaining₀⌉ rounds offer the proportional element.
    let proportional_rounds = (u64::BITS - (remaining - 1).leading_zeros()) as usize;
    let p = comm.size() as u64;
    let cut = base_case_cut(comm.size(), word_width::<T>());
    let mut rounds = 0usize;

    let threshold: Key<T> = loop {
        rounds += 1;
        debug_assert!(k >= 1 && k <= remaining);
        let edge = Edge::of(k, remaining);
        if p.saturating_mul(edge.distance()) <= cut {
            break select_at_edge(comm, sorted_local, lo, hi, offset, edge);
        }
        let offer = if rounds <= proportional_rounds {
            Offer::Proportional { k, remaining }
        } else {
            Offer::Uniform
        };
        let pivot = agree_pivot(comm, sorted_local, lo, hi, offset, offer, &mut rng);

        // The pivot's rank among the remaining elements.
        let (below, through) = split_at_bound(sorted_local, lo, hi, offset, &pivot);
        let left_total = comm.allreduce_sum((below - lo) as u64);

        let before = remaining;
        if left_total >= k {
            hi = below;
            remaining = left_total;
        } else if left_total + 1 == k {
            break pivot;
        } else {
            // Go right, past the pivot: its owner is the one PE on which
            // `through` exceeds `below`.
            lo = through;
            k -= left_total + 1;
            remaining -= left_total + 1;
        }
        debug_assert!(remaining < before, "every round removes the pivot");
    };

    // Local part of the selected set: elements (value, tag) ≤ threshold.
    let (_, local_count) = split_at_bound(sorted_local, 0, local_n, offset, &threshold);
    MsSelectResult {
        threshold: threshold.0,
        local_count,
        rounds,
    }
}

/// Where the target sits in the remaining window: the `e`-th element from
/// the nearer edge (module docs, "Base case").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    /// Rank `e` from the bottom: `e = k ≤ remaining − k + 1`.
    Bottom(u64),
    /// Rank `e` from the top: `e = remaining − k + 1 < k`.
    Top(u64),
}

impl Edge {
    fn of(k: u64, remaining: u64) -> Self {
        let from_top = remaining - k + 1;
        if k <= from_top {
            Edge::Bottom(k)
        } else {
            Edge::Top(from_top)
        }
    }

    fn distance(self) -> u64 {
        match self {
            Edge::Bottom(e) | Edge::Top(e) => e,
        }
    }
}

/// Words an element of `T` is priced at: `⌈size_of::<T>() / 8⌉`, at least
/// one — the encoded width of the fixed-width element types, and the same
/// on every PE for any type.
fn word_width<T>() -> usize {
    std::mem::size_of::<T>().div_ceil(8).max(1)
}

/// The base case's cut on `p·e` for elements of `s` words on `p` PEs: `p·E`
/// for the largest `E` up to which the all-gather of `e` edge elements per
/// PE costs fewer bottleneck words than the `log₃(p·e)` pivot rounds it
/// replaces (module docs, "The cut").  At least `p`: `e = 1` always fires.
fn base_case_cut(p: usize, s: usize) -> u64 {
    let l = p.next_power_of_two().trailing_zeros() as f64;
    let (p_f, s_f) = (p as f64, s as f64);
    let gather_is_cheaper =
        |e: f64| l + (p_f - 1.0) * (1.0 + e * s_f) < (p_f * e).log(3.0) * l * (s_f + 4.0);
    let mut e = 1u64;
    while gather_is_cheaper((e + 1) as f64) {
        e += 1;
    }
    p as u64 * e
}

/// The base case: one collective ships the candidates within `edge`'s
/// distance of the window edge, and every PE picks the target among them.
/// The tag of the returned key is exact on the PE that owns the element; on
/// every other PE it is the first tag of the owner, which orders the same
/// against that PE's elements, since another PE's tags all lie below or all
/// above its own.
fn select_at_edge<C, T>(
    comm: &C,
    sorted_local: &[T],
    lo: usize,
    hi: usize,
    offset: u64,
    edge: Edge,
) -> Key<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    let take = (hi - lo).min(edge.distance() as usize);
    let start = match edge {
        Edge::Bottom(_) => lo,
        Edge::Top(_) => hi - take,
    };
    let block = &sorted_local[start..start + take];
    if edge.distance() == 1 {
        // The target is the remaining windows' extremum.
        let mine = block.first().map(|x| (x.clone(), offset + start as u64));
        let target = match edge {
            Edge::Bottom(_) => global_min(comm, mine),
            Edge::Top(_) => global_max(comm, mine),
        };
        return target.expect("some PE holds a remaining element");
    }
    let blocks = comm.allgather(block.to_vec());
    // (value, PE, position in block) orders like the tie-broken key.
    let mut candidates: Vec<(&T, usize, usize)> = blocks
        .iter()
        .enumerate()
        .flat_map(|(pe, b)| b.iter().enumerate().map(move |(i, x)| (x, pe, i)))
        .collect();
    let e = edge.distance() as usize;
    let index = match edge {
        Edge::Bottom(_) => e - 1,
        Edge::Top(_) => candidates.len() - e,
    };
    let &mut (value, owner, i) = candidates.select_nth_unstable(index).1;
    let tag = if owner == comm.rank() {
        offset + (start + i) as u64
    } else {
        tie_break_offset(owner, comm.size(), 0)
    };
    (value.clone(), tag)
}

/// This PE's random stream: the seed mixed with the rank, so that
/// neighbouring seeds and ranks give unrelated streams.
fn pe_rng(seed: u64, rank: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(splitmix64(seed) ^ rank as u64))
}

/// One all-reduction that agrees the round's pivot: every PE with a
/// non-empty window `sorted_local[lo..hi]` bids the element `offer` names
/// under an exponential key of rate `hi − lo`, and the smallest
/// `(key, tag)` wins — a PE with probability proportional to its window.
fn agree_pivot<C, T>(
    comm: &C,
    sorted_local: &[T],
    lo: usize,
    hi: usize,
    offset: u64,
    offer: Offer,
    rng: &mut StdRng,
) -> Key<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    let w = hi - lo;
    let bid: Bid<T> = (w > 0).then(|| {
        let pos = match offer {
            Offer::Proportional { k, remaining } => {
                let pos = (2 * k as u128 - 1) * w as u128 / (2 * remaining as u128);
                (pos as usize).min(w - 1)
            }
            Offer::Uniform => rng.gen_range(0..w),
        };
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        // Positive and finite, so the bit pattern orders like the value.
        let key = (-u.ln() / w as f64).to_bits();
        let idx = lo + pos;
        (key, offset + idx as u64, sorted_local[idx].clone())
    });
    let (_, tag, value) = global_min(comm, bid).expect("some PE holds a remaining element");
    (value, tag)
}

/// Indices `(below, through)` in `[lo, hi]`: `sorted[lo..below]` are the
/// window elements tie-broken-smaller than `bound`, `sorted[lo..through]`
/// those not larger.  The two differ, by one, exactly on the PE that owns
/// the bound element, and only if it lies in the window.
fn split_at_bound<T: Ord>(
    sorted: &[T],
    lo: usize,
    hi: usize,
    offset: u64,
    bound: &Key<T>,
) -> (usize, usize) {
    let window = &sorted[lo..hi];
    // Elements with a strictly smaller value…
    let smaller = lo + window.partition_point(|x| *x < bound.0);
    // …plus elements equal in value whose tag is smaller (or not larger).
    // Tags are consecutive within a PE; a bound from another PE lies below
    // or above all of them, which the saturating difference and the clamp
    // absorb.
    let equal = (lo + window.partition_point(|x| *x <= bound.0) - smaller) as u64;
    let first_equal_tag = offset + smaller as u64;
    let equal_below = |tag_end: u64| tag_end.saturating_sub(first_equal_tag).min(equal) as usize;
    (
        smaller + equal_below(bound.1),
        smaller + equal_below(bound.1 + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_spmd, run_spmd_seq};
    use seqkit::sorted::select_in_sorted_union;

    fn sorted_parts(p: usize, per_pe: usize, max: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| {
                let mut v: Vec<u64> = (0..per_pe).map(|_| rng.gen_range(0..max)).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    #[test]
    fn matches_reference_on_random_sorted_inputs() {
        for p in [1usize, 2, 3, 5, 8] {
            let parts = sorted_parts(p, 200, 5_000, 17);
            for k in [1usize, 5, 100, 200 * p / 2, 200 * p] {
                let parts_ref = parts.clone();
                let out = run_spmd(p, move |comm| {
                    multisequence_select(comm, &parts_ref[comm.rank()], k, 3).threshold
                });
                let expected = select_in_sorted_union(&parts, k).unwrap();
                assert!(out.results.iter().all(|&t| t == expected), "p={p} k={k}");
            }
        }
    }

    #[test]
    fn local_counts_sum_to_k_even_with_duplicates() {
        let p = 4;
        let parts: Vec<Vec<u64>> = (0..p).map(|_| vec![5u64; 100]).collect();
        for k in [1usize, 37, 200, 400] {
            let parts_ref = parts.clone();
            let out = run_spmd(p, move |comm| {
                multisequence_select(comm, &parts_ref[comm.rank()], k, 1).local_count
            });
            let total: usize = out.results.iter().sum();
            assert_eq!(total, k, "k={k}");
        }
    }

    #[test]
    fn uneven_and_empty_local_inputs_are_fine() {
        let parts: Vec<Vec<u64>> = vec![
            (0..10).collect(),
            vec![],
            (100..500).collect(),
            vec![3, 3, 3],
        ];
        let total: usize = parts.iter().map(Vec::len).sum();
        for k in [1usize, 5, 13, 100, total] {
            let parts_ref = parts.clone();
            let out = run_spmd(4, move |comm| {
                let r = multisequence_select(comm, &parts_ref[comm.rank()], k, 5);
                (r.threshold, r.local_count)
            });
            let expected = select_in_sorted_union(&parts, k).unwrap();
            assert!(out.results.iter().all(|&(t, _)| t == expected), "k={k}");
            let sum: usize = out.results.iter().map(|&(_, c)| c).sum();
            assert_eq!(sum, k, "k={k}");
        }
    }

    #[test]
    fn rounds_stay_logarithmic() {
        let p = 8;
        let parts = sorted_parts(p, 2_000, 1 << 30, 23);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            multisequence_select(comm, &parts_ref[comm.rank()], 6_000, 7).rounds
        });
        // Expected O(log kp) ≈ 16; allow generous slack for randomness.
        assert!(
            out.results.iter().all(|&r| r <= 64),
            "rounds: {:?}",
            out.results
        );
    }

    #[test]
    fn only_latency_no_volume_proportional_to_input() {
        let p = 4;
        let per_pe = 10_000;
        let parts = sorted_parts(p, per_pe, 1 << 40, 31);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = multisequence_select(comm, &parts_ref[comm.rank()], 9_999, 2);
            comm.stats_snapshot().since(&before)
        });
        for snap in &out.results {
            assert!(
                snap.bottleneck_words() < 2_000,
                "sorted selection moved {} words",
                snap.bottleneck_words()
            );
        }
    }

    /// The start-up budget is exact.  Rank 0 sends ⌈log₂ p⌉ messages per
    /// collective, and a selection of `rounds` rounds issues the entry
    /// reduction, two collectives per pivot round and one for the base case
    /// that ends it — unless a pivot hit rank `k`, and then every round was
    /// a pivot round.  `base_final` is what each case's schedule ends in.
    /// At p = 64 the base case can only be the extremum reduction
    /// (`e = 1`); at p = 4 the all-gather fires up to `e = 9`.  Both endings
    /// are covered at both sizes.
    #[test]
    fn startup_budget_is_two_collectives_per_round() {
        let cases = [
            (64usize, 1usize, 1u64, true),
            (64, 40, 2, true),
            (64, 120, 3, true),
            (64, 300, 4, false),
            (4, 30, 1, false),
            (4, 100, 2, true),
            (4, 100, 5, true),
        ];
        for (p, k, seed, base_final) in cases {
            let parts = sorted_parts(p, 400 / p, 1 << 30, 41);
            let out = run_spmd_seq(p, move |comm| {
                let before = comm.stats_snapshot();
                let rounds = multisequence_select(comm, &parts[comm.rank()], k, seed).rounds;
                (rounds, comm.stats_snapshot().since(&before).sent_messages)
            });
            let (rounds, sent) = out.results[0];
            let l = u64::from(p.trailing_zeros());
            assert_eq!(
                sent,
                l * (1 + 2 * rounds as u64 - u64::from(base_final)),
                "p={p} k={k} seed={seed} rounds={rounds}"
            );
        }
    }

    /// The cuts the module docs tabulate, and the cut's two floors.
    #[test]
    fn base_case_cut_matches_the_module_table() {
        let cuts = |s: usize| [2, 3, 4, 8, 16, 32, 64].map(|p| base_case_cut(p, s));
        assert_eq!(cuts(1), [24, 45, 36, 48, 48, 32, 64]);
        assert_eq!(cuts(2), [10, 21, 16, 24, 16, 32, 64]);
        assert_eq!(base_case_cut(1, 1), 1, "one PE: nothing is cheaper");
        assert_eq!(base_case_cut(1 << 14, 1), 1 << 14, "e = 1 always fires");
        assert_eq!((word_width::<u64>(), word_width::<(u64, u64)>()), (1, 2));
    }

    /// Small inputs of every awkward shape, one SPMD region per shape and
    /// backend, every `k` in `1..=n`: the threshold is the union oracle's
    /// and each PE's count is its share of the `k` smallest under the
    /// tie-broken order.  At these sizes every `k` near an edge ends in the
    /// base case, so an off-by-one in either edge's pick fails here.
    #[test]
    fn every_k_of_edge_case_inputs_matches_the_oracle_on_every_backend() {
        use commsim::{run_on, Backend, World};

        let shapes = |p: usize| -> Vec<(&'static str, Vec<Vec<u64>>)> {
            let mut rng = StdRng::seed_from_u64(p as u64);
            let mut part = |len: usize, max: u64| -> Vec<u64> {
                let mut v: Vec<u64> = (0..len).map(|_| rng.gen_range(0..max)).collect();
                v.sort_unstable();
                v
            };
            vec![
                (
                    "ragged",
                    (0..p)
                        .map(|r| part((3 + 7 * r) % 10 + 2 * r + 1, 50))
                        .collect(),
                ),
                (
                    "empty",
                    (0..p)
                        .map(|r| part(if r % 2 == 1 { 0 } else { 12 }, 50))
                        .collect(),
                ),
                ("duplicates", (0..p).map(|r| part(8 + 3 * r, 3)).collect()),
                ("all-equal", (0..p).map(|r| vec![7; 6 + r]).collect()),
            ]
        };
        // (threshold, per-PE counts) of the k smallest (value, PE, index).
        let oracle = |parts: &[Vec<u64>], k: usize| -> (u64, Vec<usize>) {
            let mut all: Vec<(u64, usize, usize)> = parts
                .iter()
                .enumerate()
                .flat_map(|(r, part)| part.iter().enumerate().map(move |(i, &x)| (x, r, i)))
                .collect();
            all.sort_unstable();
            let mut counts = vec![0; parts.len()];
            all[..k].iter().for_each(|&(_, r, _)| counts[r] += 1);
            (all[k - 1].0, counts)
        };
        for p in [1usize, 2, 3, 5] {
            for (shape, parts) in shapes(p) {
                let n: usize = parts.iter().map(Vec::len).sum();
                let expected: Vec<(u64, Vec<usize>)> = (1..=n).map(|k| oracle(&parts, k)).collect();
                assert_eq!(
                    expected[n - 1].0,
                    select_in_sorted_union(&parts, n).unwrap()
                );
                for backend in Backend::ALL {
                    let parts_ref = parts.clone();
                    let out = run_on!(backend, World::new(p), move |comm| {
                        (1..=n)
                            .map(|k| {
                                let r = multisequence_select(comm, &parts_ref[comm.rank()], k, 9);
                                (r.threshold, r.local_count)
                            })
                            .collect::<Vec<_>>()
                    })
                    .fault_free();
                    for (k, (threshold, counts)) in (1..=n).zip(&expected) {
                        let at = format!("p={p} {shape} k={k} {}", backend.name());
                        assert_eq!(
                            *threshold,
                            select_in_sorted_union(&parts, k).unwrap(),
                            "{at}"
                        );
                        for (rank, result) in out.results.iter().enumerate() {
                            assert_eq!(result[k - 1], (*threshold, counts[rank]), "{at} PE {rank}");
                        }
                    }
                }
            }
        }
    }

    /// On a single PE the proportional position *is* rank `k`, so every `k`
    /// hits exactly in the first round — off by one in the position formula
    /// or in the exact-hit exit and some `k` needs a second round.
    #[test]
    fn single_pe_selects_every_k_in_one_round_without_messages() {
        let mut local = sorted_parts(1, 60, 20, 3).remove(0); // duplicates
        local.extend([20, 21, 22]);
        let out = run_spmd(1, move |comm| {
            let pins: Vec<(usize, bool)> = (1..=local.len())
                .map(|k| {
                    let r = multisequence_select(comm, &local, k, k as u64);
                    assert_eq!(r.threshold, local[k - 1], "k={k}");
                    (r.rounds, r.local_count == k)
                })
                .collect();
            (pins, comm.stats_snapshot().sent_messages)
        });
        let (pins, sent) = &out.results[0];
        assert!(
            pins.iter().all(|&pin| pin == (1, true)),
            "(rounds, local_count == k) per k: {pins:?}"
        );
        assert_eq!(*sent, 0);
    }

    /// The pivot reduction picks a PE with probability proportional to its
    /// window — whatever that PE then offers — and the uniform offer covers
    /// the window evenly.  Fails if the key ignores the window size.
    #[test]
    fn pivot_reduction_weights_pes_by_window_size() {
        const SEEDS: u64 = 4000;
        let out = run_spmd(2, |comm| {
            let rank = comm.rank();
            let local: Vec<u64> = (0..if rank == 0 { 100 } else { 300 }).collect();
            let offset = tie_break_offset(rank, 2, local.len());
            let modes = [
                Offer::Proportional {
                    k: 200,
                    remaining: 400,
                },
                Offer::Uniform,
            ];
            modes.map(|offer| {
                (0..SEEDS)
                    .filter(|&seed| {
                        let mut rng = pe_rng(seed, rank);
                        let n = local.len();
                        let (_, tag) = agree_pivot(comm, &local, 0, n, offset, offer, &mut rng);
                        tag >= tie_break_offset(1, 2, 0)
                    })
                    .count()
            })
        });
        for (mode, &from_pe1) in out.results[0].iter().enumerate() {
            let share = from_pe1 as f64 / SEEDS as f64;
            assert!((share - 0.75).abs() <= 0.03, "mode {mode}: share {share}");
        }

        let out = run_spmd(1, |comm| {
            let local: Vec<u64> = (0..16).collect();
            let mut hits = [0u64; 16];
            for seed in 0..SEEDS {
                let mut rng = pe_rng(seed, 0);
                let (value, _) = agree_pivot(comm, &local, 0, 16, 0, Offer::Uniform, &mut rng);
                hits[value as usize] += 1;
            }
            hits
        });
        let expected = SEEDS as f64 / 16.0;
        assert!(
            out.results[0]
                .iter()
                .all(|&h| (h as f64 - expected).abs() <= 0.25 * expected),
            "uniform offers: {:?}",
            out.results[0]
        );
    }

    /// Mean round count over 20 seeds, every run checked against the
    /// oracle.  Returns `(mean rounds, ⌈log₂ remaining₀⌉)`.
    fn mean_rounds(make_parts: impl Fn(u64) -> Vec<Vec<u64>>, k: usize) -> (f64, u32) {
        let mut rounds_sum = 0usize;
        let mut remaining0 = 0usize;
        for seed in 0..20u64 {
            let parts = make_parts(seed);
            remaining0 = parts.iter().map(|part| part.len().min(k)).sum();
            let expected = select_in_sorted_union(&parts, k).unwrap();
            let out = run_spmd_seq(parts.len(), |comm| {
                multisequence_select(comm, &parts[comm.rank()], k, seed)
            });
            let rounds = out.results[0].rounds;
            assert!(out
                .results
                .iter()
                .all(|r| r.threshold == expected && r.rounds == rounds));
            let count: usize = out.results.iter().map(|r| r.local_count).sum();
            assert_eq!(count, k);
            rounds_sum += rounds;
        }
        let log = usize::BITS - (remaining0 - 1).leading_zeros();
        (rounds_sum as f64 / 20.0, log)
    }

    /// PEs that sample one value distribution: the proportional pivots land
    /// within ~√n of the target and a handful of rounds suffice.
    #[test]
    fn proportional_pivots_need_few_rounds_on_overlapping_ranges() {
        let (mean, _) = mean_rounds(|seed| sorted_parts(2, 512, 1 << 40, seed), 512);
        assert!(mean <= 5.0, "mean rounds {mean}");
    }

    /// Globally sorted input, disjoint per-PE ranges: a local quantile says
    /// nothing about the global rank, the proportional rounds buy nothing,
    /// and the budget argument still bounds the total.
    #[test]
    fn disjoint_ranges_stay_inside_the_round_budget() {
        for p in [2usize, 8, 64] {
            let disjoint = |_seed: u64| -> Vec<Vec<u64>> {
                (0..p as u64)
                    .map(|r| (r * 512..(r + 1) * 512).collect())
                    .collect()
            };
            let (mean, log) = mean_rounds(disjoint, p * 256);
            assert!(mean <= 2.0 * log as f64, "p={p}: mean rounds {mean}");
        }
    }

    /// Duplicates: the tie-broken order still makes every pivot a distinct
    /// element, so each round removes at least one and a selection among
    /// `n` elements takes at most `n` rounds.
    #[test]
    fn duplicate_heavy_and_all_equal_inputs_make_strict_progress() {
        let heavy: Vec<Vec<u64>> = (0..4u64)
            .map(|r| {
                let mut v: Vec<u64> = (0..40 + 20 * r).map(|i| (i * (r + 3)) % 4).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let all_equal: Vec<Vec<u64>> = (0..4).map(|_| vec![9u64; 25]).collect();
        let n_heavy: usize = heavy.iter().map(Vec::len).sum();
        for (parts, ks) in [
            (heavy, vec![1, 2, 57, n_heavy / 2, n_heavy - 1, n_heavy]),
            (all_equal, vec![1, 100]),
        ] {
            for k in ks {
                let expected = select_in_sorted_union(&parts, k).unwrap();
                let parts_ref = parts.clone();
                let out = run_spmd(4, move |comm| {
                    multisequence_select(comm, &parts_ref[comm.rank()], k, 11)
                });
                let remaining0: usize = parts.iter().map(|part| part.len().min(k)).sum();
                assert!(out
                    .results
                    .iter()
                    .all(|r| r.threshold == expected && r.rounds <= remaining0));
                let count: usize = out.results.iter().map(|r| r.local_count).sum();
                assert_eq!(count, k, "k={k}");
            }
        }
    }

    /// Any remaining element is a valid pivot and the reduction is a
    /// total-order minimum, so PEs that disagree on the seed still agree on
    /// the exact threshold and on counts that sum to `k`.
    #[test]
    fn pes_passing_different_seeds_still_select_exactly() {
        let p = 5;
        let parts = sorted_parts(p, 300, 2_000, 19);
        for k in [1usize, 77, 750, 1500] {
            let parts_ref = parts.clone();
            let out = run_spmd(p, move |comm| {
                let seed = 1000 + 17 * comm.rank() as u64;
                let r = multisequence_select(comm, &parts_ref[comm.rank()], k, seed);
                (r.threshold, r.local_count)
            });
            let expected = select_in_sorted_union(&parts, k).unwrap();
            assert!(out.results.iter().all(|&(t, _)| t == expected), "k={k}");
            let count: usize = out.results.iter().map(|&(_, c)| c).sum();
            assert_eq!(count, k, "k={k}");
        }
    }

    #[test]
    fn k_extremes() {
        let parts = sorted_parts(3, 100, 1000, 77);
        let all_min = *parts.iter().flatten().min().unwrap();
        let all_max = *parts.iter().flatten().max().unwrap();
        let parts_ref = parts.clone();
        let out = run_spmd(3, move |comm| {
            let lo = multisequence_select(comm, &parts_ref[comm.rank()], 1, 0).threshold;
            let hi = multisequence_select(comm, &parts_ref[comm.rank()], 300, 0).threshold;
            (lo, hi)
        });
        assert!(out
            .results
            .iter()
            .all(|&(lo, hi)| lo == all_min && hi == all_max));
    }

    #[test]
    #[should_panic(expected = "exceeds the global input size")]
    fn oversized_k_is_rejected() {
        run_spmd(2, |comm| {
            let local: Vec<u64> = vec![1, 2];
            multisequence_select(comm, &local, 100, 0)
        });
    }
}
