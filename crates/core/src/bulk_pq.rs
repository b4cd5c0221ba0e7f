//! Bulk-parallel priority queue (paper §5).
//!
//! The queue is the data-structure generalisation of the selection problem:
//! `insert*` adds elements, `deleteMin*` removes and returns the `k` globally
//! smallest elements.  The communication-efficient construction of the paper
//! keeps every inserted element **local** — insertion costs no communication
//! at all — and implements `deleteMin*` with the multisequence selection
//! algorithms of Section 4 running over per-PE search trees
//! ([`seqkit::Treap`]) instead of sorted arrays:
//!
//! * fixed batch size `k`:    expected `O(α log² kp)` (Theorem 5),
//! * flexible batch `k̲..k̄`:  expected `O(α log kp)` when `k̄ − k̲ = Ω(k̲)`.
//!
//! Either `deleteMin*` issues exactly **one** reduction of its own — a
//! two-word sum of `(local_len, min(local_len, k̄))`, the global length and
//! the total size of the windows the selection will search — and hands both
//! to the selection kernel's known-size entry, so a delete costs what its
//! kernel costs and nothing in front of it.  A fixed delete is that entry,
//! two collectives per pivot round, and — unless a pivot hits rank `k`
//! exactly — one collective for the base case that ends the selection: once
//! the batch boundary lies within `e` elements of an edge of the remaining
//! windows, the PEs ship those `e` edge candidates (a single extremum for
//! `e = 1`) instead of pivoting further (see [`crate::msselect`] for the
//! schedule and the cut on `p·e`).  A flexible delete is the entry and two
//! collectives per estimation round.
//!
//! Elements are tie-broken with a globally unique insertion id, so a fixed
//! batch always contains *exactly* `k` elements in total.

use std::ops::Add;

use commsim::{CommData, Communicator};
use seqkit::Treap;

use crate::amsselect::approx_multisequence_select_known_total;
use crate::msselect::multisequence_select_known_sizes;
use crate::util::{allreduce_pair, global_min};

/// A distributed bulk-parallel priority queue.
///
/// Every PE owns one `BulkParallelQueue` value; the collective operations
/// (`delete_min`, `global_len`, …) must be called by all PEs together, with
/// the same parameters (the usual SPMD contract).
#[derive(Debug, Clone)]
pub struct BulkParallelQueue<T> {
    local: Treap<(T, u64)>,
    rank: usize,
    num_pes: usize,
    next_insert: u64,
}

impl<T> BulkParallelQueue<T>
where
    T: Ord + Clone + CommData,
{
    /// Create an empty queue on this PE.
    pub fn new<C: Communicator>(comm: &C) -> Self {
        BulkParallelQueue {
            local: Treap::new(),
            rank: comm.rank(),
            num_pes: comm.size(),
            next_insert: 0,
        }
    }

    /// Insert one element.  **No communication** — the element stays on the
    /// inserting PE (the paper's key departure from earlier queues that send
    /// inserted elements to random PEs).
    pub fn insert(&mut self, item: T) {
        let id = self.next_insert * self.num_pes as u64 + self.rank as u64;
        self.next_insert += 1;
        self.local.insert((item, id));
    }

    /// Insert many elements (still purely local).
    pub fn insert_bulk<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.insert(item);
        }
    }

    /// Number of elements stored on this PE.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Global number of stored elements (one all-reduction).
    pub fn global_len<C: Communicator>(&self, comm: &C) -> u64 {
        comm.allreduce_sum(self.local.len() as u64)
    }

    /// The globally smallest element without removing it (one all-reduction).
    pub fn peek_min<C: Communicator>(&self, comm: &C) -> Option<T> {
        global_min(comm, self.local.min().cloned()).map(|(v, _)| v)
    }

    /// `deleteMin*` with a fixed batch size: remove and return the `k`
    /// globally smallest elements.  The return value is this PE's share of
    /// the batch (in ascending order); the shares sum to exactly
    /// `min(k, global_len)` elements over all PEs.
    ///
    /// One two-word reduction learns the global length and the size of the
    /// selection's first window together; the rounds of
    /// [`multisequence_select`](crate::msselect::multisequence_select) follow
    /// without an entry reduction of their own.
    ///
    /// `k` must be the same on every PE.  `seed` should be: the batch is
    /// exact whatever each PE passes, but the number of selection rounds is
    /// only reproducible when all pass the same one.
    pub fn delete_min<C: Communicator>(&mut self, comm: &C, k: usize, seed: u64) -> Vec<T> {
        let (global, remaining) = self.global_len_and_window(comm, k);
        if global == 0 || k == 0 {
            return Vec::new();
        }
        if global <= k as u64 {
            return self.drain_local();
        }
        // Sorted access to the k smallest local candidates; elements beyond
        // local rank k can never be in the batch.
        let window = self.local.smallest(k);
        let result = multisequence_select_known_sizes(comm, &window, k, remaining, seed);
        self.remove_smallest(result.local_count)
    }

    /// `deleteMin*` with a flexible batch size `k̲..k̄` (Theorem 5, flexible
    /// case): removes between `k̲` and `k̄` globally smallest elements using a
    /// single-round-in-expectation approximate selection.  Like
    /// [`Self::delete_min`], one reduction before the selection rounds; the
    /// band and `seed` must be the same on every PE.
    pub fn delete_min_flexible<C: Communicator>(
        &mut self,
        comm: &C,
        k_lo: usize,
        k_hi: usize,
        seed: u64,
    ) -> Vec<T> {
        assert!(k_lo >= 1 && k_lo <= k_hi, "invalid batch band");
        let (global, window_total) = self.global_len_and_window(comm, k_hi);
        if global == 0 {
            return Vec::new();
        }
        if global <= k_hi as u64 {
            return self.drain_local();
        }
        let window = self.local.smallest(k_hi);
        let result = approx_multisequence_select_known_total(
            comm,
            &window,
            window_total,
            k_lo as u64,
            k_hi as u64,
            seed,
        );
        self.remove_smallest(result.local_count)
    }

    /// The one entry reduction of a `deleteMin*`: the global length and the
    /// total size `Σ min(local_len, k)` of the windows `smallest(k)` the
    /// selection will search.
    fn global_len_and_window<C: Communicator>(&self, comm: &C, k: usize) -> (u64, u64) {
        let len = self.local.len() as u64;
        allreduce_pair(comm, (len, len.min(k as u64)), u64::add, u64::add)
    }

    /// Remove and return all local elements (ascending).
    fn drain_local(&mut self) -> Vec<T> {
        let t = std::mem::take(&mut self.local);
        t.to_sorted_vec().into_iter().map(|(v, _)| v).collect()
    }

    /// Remove and return the `count` smallest local elements (ascending).
    fn remove_smallest(&mut self, count: usize) -> Vec<T> {
        let t = std::mem::take(&mut self.local);
        let (removed, rest) = t.split_at_rank(count);
        self.local = rest;
        removed
            .to_sorted_vec()
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference: a single global sorted multiset.
    fn reference_sorted(parts: &[Vec<u64>]) -> Vec<u64> {
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    fn random_parts(p: usize, per_pe: usize, max: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| (0..per_pe).map(|_| rng.gen_range(0..max)).collect())
            .collect()
    }

    #[test]
    fn insertion_is_communication_free() {
        let out = run_spmd(4, |comm| {
            let before = comm.stats_snapshot();
            let mut q = BulkParallelQueue::new(comm);
            for i in 0..1000u64 {
                q.insert(i * comm.rank() as u64);
            }
            let after = comm.stats_snapshot();
            (after.since(&before).sent_messages, q.local_len())
        });
        assert!(out
            .results
            .iter()
            .all(|&(msgs, len)| msgs == 0 && len == 1000));
    }

    #[test]
    fn delete_min_returns_exactly_the_k_smallest() {
        let p = 4;
        let parts = random_parts(p, 250, 10_000, 5);
        let reference = reference_sorted(&parts);
        for k in [1usize, 7, 100, 500] {
            let parts_ref = parts.clone();
            let out = run_spmd(p, move |comm| {
                let mut q = BulkParallelQueue::new(comm);
                q.insert_bulk(parts_ref[comm.rank()].iter().copied());
                q.delete_min(comm, k, 3)
            });
            let mut got: Vec<u64> = out.results.into_iter().flatten().collect();
            got.sort_unstable();
            assert_eq!(got, reference[..k].to_vec(), "k={k}");
        }
    }

    #[test]
    fn repeated_batches_drain_in_global_order() {
        let p = 3;
        let parts = random_parts(p, 100, 500, 9); // duplicates likely
        let reference = reference_sorted(&parts);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let mut q = BulkParallelQueue::new(comm);
            q.insert_bulk(parts_ref[comm.rank()].iter().copied());
            let mut batches = Vec::new();
            for round in 0..6 {
                batches.push(q.delete_min(comm, 40, round));
            }
            (batches, q.local_len())
        });
        // Concatenate per-round batches across PEs and compare with the
        // reference prefix.
        let mut drained: Vec<u64> = Vec::new();
        for round in 0..6 {
            let mut batch: Vec<u64> = out
                .results
                .iter()
                .flat_map(|(batches, _)| batches[round].iter().copied())
                .collect();
            assert_eq!(
                batch.len(),
                40,
                "round {round} must remove exactly k elements"
            );
            batch.sort_unstable();
            // Every element of this batch must be ≤ every element still in
            // the queue, i.e. the batch extends the drained prefix.
            drained.extend(batch);
        }
        drained.sort_unstable();
        assert_eq!(drained, reference[..240].to_vec());
        let remaining: usize = out.results.iter().map(|&(_, len)| len).sum();
        assert_eq!(remaining, reference.len() - 240);
    }

    #[test]
    fn delete_more_than_stored_drains_everything() {
        let p = 2;
        let parts = random_parts(p, 20, 100, 1);
        let reference = reference_sorted(&parts);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let mut q = BulkParallelQueue::new(comm);
            q.insert_bulk(parts_ref[comm.rank()].iter().copied());
            let batch = q.delete_min(comm, 1000, 0);
            (batch, q.local_len())
        });
        let mut got: Vec<u64> = out.results.iter().flat_map(|(b, _)| b.clone()).collect();
        got.sort_unstable();
        assert_eq!(got, reference);
        assert!(out.results.iter().all(|&(_, len)| len == 0));
    }

    #[test]
    fn flexible_batch_lands_in_band_and_takes_the_smallest() {
        let p = 4;
        let parts = random_parts(p, 500, 1 << 20, 17);
        let reference = reference_sorted(&parts);
        let parts_ref = parts.clone();
        let (k_lo, k_hi) = (100usize, 200usize);
        let out = run_spmd(p, move |comm| {
            let mut q = BulkParallelQueue::new(comm);
            q.insert_bulk(parts_ref[comm.rank()].iter().copied());
            q.delete_min_flexible(comm, k_lo, k_hi, 23)
        });
        let mut got: Vec<u64> = out.results.into_iter().flatten().collect();
        got.sort_unstable();
        assert!(
            got.len() >= k_lo && got.len() <= k_hi,
            "batch size {}",
            got.len()
        );
        assert_eq!(got, reference[..got.len()].to_vec());
    }

    #[test]
    fn interleaved_inserts_and_deletes() {
        // Insert a first wave, delete a batch, insert a second wave whose
        // values are smaller, and verify the next batch sees them.
        let out = run_spmd(3, |comm| {
            let mut q = BulkParallelQueue::new(comm);
            let base = comm.rank() as u64 * 1000 + 10_000;
            q.insert_bulk((0..100u64).map(|i| base + i));
            let first = q.delete_min(comm, 30, 1);
            q.insert_bulk((0..10u64).map(|i| comm.rank() as u64 * 10 + i));
            let second = q.delete_min(comm, 30, 2);
            (first, second)
        });
        let second_all: Vec<u64> = out
            .results
            .iter()
            .flat_map(|(_, s)| s.iter().copied())
            .collect();
        // The 30 newly inserted small values (0..30 across PEs) must all be in
        // the second batch.
        assert_eq!(second_all.len(), 30);
        assert!(second_all.iter().all(|&v| v < 10_000));
    }

    #[test]
    fn peek_min_and_global_len() {
        let out = run_spmd(3, |comm| {
            let mut q = BulkParallelQueue::new(comm);
            assert_eq!(q.peek_min(comm), None);
            assert_eq!(q.global_len(comm), 0);
            q.insert(100 - comm.rank() as u64);
            (q.peek_min(comm), q.global_len(comm))
        });
        assert!(out
            .results
            .iter()
            .all(|&(min, len)| min == Some(98) && len == 3));
    }

    #[test]
    fn duplicate_values_across_pes_are_all_delivered_once() {
        let p = 4;
        let parts: Vec<Vec<u64>> = (0..p).map(|_| vec![42u64; 50]).collect();
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let mut q = BulkParallelQueue::new(comm);
            q.insert_bulk(parts_ref[comm.rank()].iter().copied());
            q.delete_min(comm, 77, 5)
        });
        let total: usize = out.results.iter().map(Vec::len).sum();
        assert_eq!(total, 77);
    }

    /// The queue adds nothing to its selection kernels' start-ups: the one
    /// entry reduction is the kernel's own, not a second one in front of it.
    /// At p = 64 rank 0 sends ⌈log₂ p⌉ = 6 messages per collective.  This
    /// fixed delete ends in the base case, so it issues the entry, two
    /// collectives for each of its `rounds − 1` pivot rounds and one for the
    /// base case; a flexible one issues `1 + 2·rounds`.
    #[test]
    fn delete_min_startup_budget_is_one_entry_reduction_plus_the_rounds() {
        use crate::amsselect::approx_multisequence_select;
        use crate::msselect::multisequence_select;

        let p = 64;
        let parts = random_parts(p, 40, 1 << 30, 13);
        let out = commsim::run_spmd_seq(p, move |comm| {
            let mut q = BulkParallelQueue::new(comm);
            q.insert_bulk(parts[comm.rank()].iter().copied());
            let sent = || comm.stats_snapshot().sent_messages;

            // The public kernels on the very windows the queue will search.
            let (k, k_lo, k_hi) = (300usize, 200usize, 400usize);
            let start = sent();
            let fixed_rounds = multisequence_select(comm, &q.local.smallest(k), k, 5).rounds;
            let fixed_kernel = sent() - start;
            let start = sent();
            q.delete_min(comm, k, 5);
            let fixed_queue = sent() - start;

            let window = q.local.smallest(k_hi);
            let flexible_rounds =
                approx_multisequence_select(comm, &window, k_lo as u64, k_hi as u64, 7).rounds;
            let start = sent();
            q.delete_min_flexible(comm, k_lo, k_hi, 7);
            let flexible_queue = sent() - start;
            (
                (fixed_rounds as u64, fixed_kernel, fixed_queue),
                (flexible_rounds as u64, flexible_queue),
            )
        });
        let ((rounds, kernel, queue), (flexible_rounds, flexible_queue)) = out.results[0];
        assert!(rounds >= 2, "expected pivot rounds, got {rounds}");
        assert_eq!(queue, kernel);
        assert_eq!(queue, 6 * (1 + 2 * (rounds - 1) + 1), "rounds={rounds}");
        assert_eq!(flexible_queue, 6 * (1 + 2 * flexible_rounds));
    }

    #[test]
    fn delete_min_communication_is_independent_of_queue_size() {
        let p = 4;
        let small = random_parts(p, 200, 1 << 20, 2);
        let large = random_parts(p, 20_000, 1 << 20, 2);
        let measure = |parts: Vec<Vec<u64>>| {
            run_spmd(p, move |comm| {
                let mut q = BulkParallelQueue::new(comm);
                q.insert_bulk(parts[comm.rank()].iter().copied());
                let before = comm.stats_snapshot();
                let _ = q.delete_min(comm, 50, 7);
                comm.stats_snapshot().since(&before).bottleneck_words()
            })
        };
        let small_words = *measure(small).results.iter().max().unwrap();
        let large_words = *measure(large).results.iter().max().unwrap();
        // 100x more queued elements must not translate into (anywhere near)
        // 100x more communication; allow a 4x margin for randomness.
        assert!(
            large_words <= small_words * 4 + 64,
            "large {large_words} vs small {small_words}"
        );
    }
}
