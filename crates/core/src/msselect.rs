//! Multisequence selection on locally sorted input (paper §4.2, Algorithm 9).
//!
//! Every PE holds a locally *sorted* sequence; the task is to find the
//! element of global rank `k` in the union.  The algorithm is a distributed
//! quickselect: a uniformly random remaining element becomes the pivot, every
//! PE locates the pivot in its window with one binary search (`O(log k)`
//! local work), a sum reduction yields the pivot's global rank, and the
//! search continues left or right.  Expected `O(α log² kp)` latency
//! (Theorem 16); no element is ever moved.
//!
//! Ties are broken by a packed `(rank, local index)` word
//! ([`tie_break_offset`]) that orders like the global element index, so the
//! rank is exact even with duplicate values and the per-PE result counts
//! sum to exactly `k`.
//!
//! # Collective schedule
//!
//! One vector all-reduction `Σ[|local|, min(|local|, k)]` at the entry gives
//! the global size and the first round's remaining window.  A non-final
//! round then issues exactly **three** collectives: the exclusive prefix
//! sum that locates the pivot position, the `pick_unique` all-reduction that
//! publishes the pivot, and the sum all-reduction of the local ranks.  The
//! pivot *position* costs nothing: every PE draws it from the same
//! shared-seed generator.  The remaining window size is updated from the
//! agreed rank like `k` is, never reduced again.  The final round is the
//! single `pick_unique` of the last remaining element.

use commsim::{CommData, Communicator, ReduceOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::tie_break_offset;

/// Result of a multisequence selection.
#[derive(Debug, Clone)]
pub struct MsSelectResult<T> {
    /// The element of global rank `k` (1-based) under the tie-broken order.
    pub threshold: T,
    /// Number of *local* elements among the `k` globally smallest
    /// (sums to exactly `k` over all PEs).
    pub local_count: usize,
    /// Number of selection rounds.  Every round but the last costs three
    /// collectives — a prefix sum, the pivot's `pick_unique` all-reduction
    /// and the rank all-reduction — and the last costs one, each
    /// `O(α log p)`.
    pub rounds: usize,
}

/// Tie-broken comparison key: `(value, packed (rank, local index))`.
type Key<T> = (T, u64);

/// Select the element of global rank `k` (1-based) from the union of locally
/// sorted sequences, without moving any data.
///
/// `seed`, like `k`, must be the same on every PE: all PEs draw the random
/// pivot positions from one generator seeded with it, in lockstep, instead
/// of one PE drawing them and sending them to the others.
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
    debug_assert!(
        sorted_local.windows(2).all(|w| w[0] <= w[1]),
        "multisequence_select requires locally sorted input"
    );
    let local_n = sorted_local.len();
    // Restrict the search to the first min(k, |local|) elements: elements
    // beyond local rank k can never be among the k globally smallest.
    let mut lo = 0usize;
    let mut hi = local_n.min(k);
    // One reduction for both the global size and the first window size.
    let sizes = comm.allreduce_vec_sum(vec![local_n as u64, hi as u64]);
    let total = sizes[0] as usize;
    let mut remaining = sizes[1];
    assert!(k >= 1, "k must be at least 1");
    assert!(k <= total, "k = {k} exceeds the global input size {total}");

    // Tag of this PE's first element (tie breaker).
    let offset = tie_break_offset(comm.rank(), comm.size(), local_n);

    let mut k = k as u64;
    let mut rounds = 0usize;
    let mut rng = StdRng::seed_from_u64(seed);
    // Generous safety cap; the expected round count is O(log kp).
    let max_rounds = 64 + 16 * (usize::BITS - (total.max(2) - 1).leading_zeros()) as usize;

    let threshold: Key<T> = loop {
        rounds += 1;
        let window = (hi - lo) as u64;
        debug_assert!(k >= 1 && k <= remaining);

        if remaining == 1 {
            let candidate: Option<Key<T>> =
                (hi > lo).then(|| (sorted_local[lo].clone(), offset + lo as u64));
            break pick_unique(comm, candidate);
        }
        if rounds > max_rounds {
            // Safety net: gather the (tiny or adversarial) remainder and
            // solve locally.  Never reached in expectation.
            let local_rest: Vec<Key<T>> = (lo..hi)
                .map(|i| (sorted_local[i].clone(), offset + i as u64))
                .collect();
            let mut all: Vec<Key<T>> = comm.allgather(local_rest).into_iter().flatten().collect();
            all.sort();
            break all[(k - 1) as usize].clone();
        }

        // Uniformly random global pivot position among the remaining
        // window — the same draw on every PE (shared seed, lockstep).
        let pivot_pos = rng.gen_range(0..remaining);
        let window_offset = comm.prefix_sum_exclusive(window);
        let candidate: Option<Key<T>> =
            if pivot_pos >= window_offset && pivot_pos < window_offset + window {
                let idx = lo + (pivot_pos - window_offset) as usize;
                Some((sorted_local[idx].clone(), offset + idx as u64))
            } else {
                None
            };
        let pivot = pick_unique(comm, candidate);

        // Count local elements strictly smaller than the pivot (tie-broken).
        let j = count_less_than(sorted_local, lo, hi, offset, &pivot);
        let left_total = comm.allreduce_sum((j - lo) as u64);

        if left_total >= k {
            hi = j;
            remaining = left_total;
        } else {
            lo = j;
            k -= left_total;
            remaining -= left_total;
        }
    };

    // Local part of the selected set: elements (value, tag) ≤ threshold.
    let local_count = count_le_threshold(sorted_local, offset, &threshold);
    MsSelectResult {
        threshold: threshold.0,
        local_count,
        rounds,
    }
}

/// All-reduce that picks the unique `Some` among per-PE options.
fn pick_unique<C: Communicator, K: Clone + CommData>(comm: &C, candidate: Option<K>) -> K {
    comm.allreduce(
        candidate,
        ReduceOp::custom(|a: &Option<K>, b: &Option<K>| match (a, b) {
            (Some(x), _) => Some(x.clone()),
            (_, y) => y.clone(),
        }),
    )
    .expect("exactly one PE must supply the pivot")
}

/// Index `j` in `[lo, hi]` such that all elements of `sorted[lo..j]` are
/// tie-broken-smaller than `pivot` and all of `sorted[j..hi]` are not.
fn count_less_than<T: Ord>(
    sorted: &[T],
    lo: usize,
    hi: usize,
    offset: u64,
    pivot: &(T, u64),
) -> usize {
    let window = &sorted[lo..hi];
    // Elements with a strictly smaller value…
    let strictly_smaller = window.partition_point(|x| *x < pivot.0);
    // …plus elements equal in value whose tag is smaller.  Tags are
    // consecutive within a PE; a pivot from another PE lies below or above
    // all of them, which the saturating difference and the clamp absorb.
    let equal_end = window.partition_point(|x| *x <= pivot.0);
    let eq_start_tag = offset + (lo + strictly_smaller) as u64;
    let equal_count = (equal_end - strictly_smaller) as u64;
    let eq_smaller = pivot.1.saturating_sub(eq_start_tag).min(equal_count) as usize;
    lo + strictly_smaller + eq_smaller
}

/// Number of local elements `(value, tag) ≤ threshold` over the whole local
/// sequence.
fn count_le_threshold<T: Ord>(sorted: &[T], offset: u64, threshold: &(T, u64)) -> usize {
    let strictly_smaller = sorted.partition_point(|x| *x < threshold.0);
    let equal_end = sorted.partition_point(|x| *x <= threshold.0);
    let eq_start_tag = offset + strictly_smaller as u64;
    let equal_count = (equal_end - strictly_smaller) as u64;
    // Elements equal in value count iff their tag ≤ threshold.1.
    let eq_le = (threshold.1 + 1)
        .saturating_sub(eq_start_tag)
        .min(equal_count) as usize;
    strictly_smaller + eq_le
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

    /// The start-up budget is exact.  At p = 64 rank 0 sends ⌈log₂ p⌉ = 6
    /// messages per collective, and a selection of `rounds` rounds issues
    /// the entry reduction, three collectives per non-final round and the
    /// final round's `pick_unique`.
    #[test]
    fn startup_budget_is_three_collectives_per_round() {
        let p = 64;
        let parts = sorted_parts(p, 8, 1 << 30, 41);
        for (k, seed) in [(1usize, 1u64), (40, 2), (120, 3)] {
            let parts_ref = parts.clone();
            let out = run_spmd_seq(p, move |comm| {
                let before = comm.stats_snapshot();
                let rounds = multisequence_select(comm, &parts_ref[comm.rank()], k, seed).rounds;
                (rounds, comm.stats_snapshot().since(&before).sent_messages)
            });
            let (rounds, sent) = out.results[0];
            assert!(rounds >= 2, "k={k}: expected pivot rounds");
            assert_eq!(sent, 6 * (3 * (rounds as u64 - 1) + 2), "k={k} seed={seed}");
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
