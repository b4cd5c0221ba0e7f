//! Binomial-tree gather and dissemination (Bruck) all-gather (gossiping).
//!
//! Exposed as [`Communicator::gather`] / [`Communicator::allgather`]; the
//! free functions here are the shared implementations used by every backend.
//! The two share no schedule: the gather funnels rank-tagged values up a
//! binomial tree onto one root, the all-gather is `⌈log₂ p⌉` symmetric
//! rounds in which every PE forwards the blocks it already holds, so no PE
//! ever re-sends the whole concatenation (see [`allgather`]).

use crate::communicator::Communicator;
use crate::message::CommData;
use crate::topology::{binomial_children, binomial_parent, virtual_rank};
use crate::Rank;

/// Generic gather over any backend; see [`Communicator::gather`].
pub(crate) fn gather<C, T>(comm: &C, root: Rank, value: T) -> Option<Vec<T>>
where
    C: Communicator + ?Sized,
    T: CommData,
{
    let p = comm.size();
    let rank = comm.rank();
    assert!(root < p, "gather root {root} out of range for {p} PEs");
    let tag = comm.next_collective_tag();

    // Each node accumulates (virtual rank, value) pairs for its whole
    // subtree, then forwards them to its parent.
    let mut bucket: Vec<(u64, T)> = vec![(virtual_rank(rank, root, p) as u64, value)];
    // Children must be drained in reverse order of how the broadcast
    // visits them; any fixed order works because pairs carry their rank.
    for child in binomial_children(rank, root, p) {
        let mut partial = comm.recv_raw::<Vec<(u64, T)>>(child, tag);
        bucket.append(&mut partial);
    }
    match binomial_parent(rank, root, p) {
        Some(parent) => {
            comm.send_raw(parent, tag, bucket);
            None
        }
        None => {
            bucket.sort_by_key(|(vr, _)| *vr);
            let mut out: Vec<Option<T>> = bucket.into_iter().map(|(_, v)| Some(v)).collect();
            // Map virtual ranks back to physical order.
            let mut result: Vec<Option<T>> = (0..p).map(|_| None).collect();
            for (v_rank, slot) in out.iter_mut().enumerate() {
                let phys = (v_rank + root) % p;
                result[phys] = slot.take();
            }
            Some(
                result
                    .into_iter()
                    .map(|v| v.expect("gather missed a PE"))
                    .collect(),
            )
        }
    }
}

/// Dissemination (Bruck et al.) all-gather over any backend; see
/// [`Communicator::allgather`].
///
/// Round `j` works at distance `dist = 2^j`: PE `r` sends the first
/// `count = min(dist, p − dist)` blocks it holds, as one `Vec<T>`, to PE
/// `(r + dist) mod p` and receives exactly `count` blocks from PE
/// `(r − dist) mod p`.  `blocks[i]` is always the contribution of PE
/// `(r − i) mod p`, so the position of a block *is* its origin: no rank
/// tags travel, blocks of different sizes need nothing extra, and one
/// reverse plus one rotation restores rank order at the end.
///
/// Data flows toward **higher** ranks.  That is part of the design, not a
/// free choice: both replay backends start PEs in ascending rank order, so a
/// block sent upwards is already in the store when its receiver first runs;
/// the mirrored orientation makes every first receive of a round block and
/// costs two to three times the re-executions (EXPERIMENTS.md, PR 16).
pub(crate) fn allgather<C, T>(comm: &C, value: T) -> Vec<T>
where
    C: Communicator + ?Sized,
    T: CommData + Clone,
{
    let p = comm.size();
    let rank = comm.rank();
    let tag = comm.next_collective_tag();

    let mut blocks: Vec<T> = Vec::with_capacity(p);
    blocks.push(value);
    let mut dist = 1;
    while dist < p {
        let count = dist.min(p - dist);
        comm.send_raw((rank + dist) % p, tag, blocks[..count].to_vec());
        let src = (rank + p - dist) % p;
        let received: Vec<T> = comm.recv_raw(src, tag);
        assert_eq!(
            received.len(),
            count,
            "allgather: PE {src} sent {} blocks at distance {dist}, expected {count}",
            received.len()
        );
        blocks.extend(received);
        dist *= 2;
    }
    // blocks[i] came from PE (rank − i) mod p; reversed, position j holds PE
    // (rank + 1 + j) mod p, and PE 0 sits at j = p − 1 − rank.
    blocks.reverse();
    blocks.rotate_left(p - 1 - rank);
    blocks
}

#[cfg(test)]
mod tests {
    use crate::communicator::Communicator;
    use crate::cost::predict;
    use crate::runner::run_spmd;
    use crate::topology::dissemination_rounds;

    #[test]
    fn gather_collects_in_rank_order() {
        for p in [1, 2, 3, 6, 8, 12] {
            let out = run_spmd(p, |comm| comm.gather(0, (comm.rank() as u64) * 2));
            let expected: Vec<u64> = (0..p as u64).map(|r| r * 2).collect();
            assert_eq!(out.results[0], Some(expected), "p={p}");
            assert!(out.results[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn gather_to_nonzero_root() {
        let out = run_spmd(5, |comm| comm.gather(2, comm.rank() as u64 + 100));
        assert_eq!(out.results[2], Some(vec![100, 101, 102, 103, 104]));
        assert!(out.results[0].is_none());
    }

    #[test]
    fn gather_of_variable_size_payloads() {
        let out = run_spmd(4, |comm| {
            let v: Vec<u64> = (0..comm.rank() as u64).collect();
            comm.gather(0, v)
        });
        assert_eq!(
            out.results[0],
            Some(vec![vec![], vec![0], vec![0, 1], vec![0, 1, 2]])
        );
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        // Ragged blocks (PE r contributes r elements): a block's position in
        // the schedule is its only origin tag, so sizes must not matter.
        for p in [1, 2, 3, 5, 6, 8, 9, 12, 13] {
            let out = run_spmd(p, |comm| {
                comm.allgather((0..comm.rank() as u64).collect::<Vec<u64>>())
            });
            let expected: Vec<Vec<u64>> = (0..p as u64).map(|r| (0..r).collect()).collect();
            assert!(out.results.iter().all(|v| *v == expected), "p={p}");
        }
    }

    #[test]
    fn gather_latency_is_logarithmic() {
        let p = 32;
        let out = run_spmd(p, |comm| {
            comm.gather(0, 1u64);
        });
        // Each PE sends at most one (aggregated) message and receives at most
        // ceil(log2 p) child messages.
        assert!(out.stats.bottleneck_messages() <= dissemination_rounds(p) as u64);
    }

    /// Uniform blocks of `w` words: every PE sends and receives exactly
    /// `⌈log₂p⌉ + (p−1)·w` words in `⌈log₂p⌉` messages, and
    /// `predict::allgather` states the same numbers.
    #[test]
    fn allgather_cost_is_exact_for_uniform_blocks() {
        for p in [1usize, 2, 5, 8, 64] {
            for elems in [0usize, 1, 64] {
                let out = run_spmd(p, move |comm| {
                    comm.allgather(vec![comm.rank() as u64; elems]);
                });
                let rounds = u64::from(dissemination_rounds(p));
                let w = elems as u64 + 1;
                let words = rounds + (p as u64 - 1) * w;
                for (rank, s) in out.stats.per_pe().iter().enumerate() {
                    let label = format!("p={p} elems={elems} rank={rank}");
                    assert_eq!(s.sent_words, words, "{label}");
                    assert_eq!(s.received_words, words, "{label}");
                    assert_eq!(s.sent_messages, rounds, "{label}");
                    assert_eq!(s.received_messages, rounds, "{label}");
                }
                assert_eq!(out.stats.total_words(), p as u64 * words);
                let predicted = predict::allgather(p, w as f64);
                assert_eq!(predicted.words, out.stats.bottleneck_words() as f64);
                assert_eq!(predicted.startups, out.stats.bottleneck_messages() as f64);
            }
        }
    }

    /// Ragged blocks: PE `r` receives every other block exactly once, and no
    /// PE sends more than the old tree's root did (`⌈log₂p⌉` copies of the
    /// concatenation).
    #[test]
    fn allgather_cost_is_exact_for_ragged_blocks() {
        type Sizes = fn(usize) -> usize;
        let by_rank: Sizes = |rank| rank;
        let one_huge: Sizes = |rank| if rank == 3 { 4096 } else { 0 };
        for p in [5usize, 8, 64] {
            for elems in [by_rank, one_huge] {
                let out = run_spmd(p, move |comm| {
                    comm.allgather(vec![7u64; elems(comm.rank())]);
                });
                let rounds = u64::from(dissemination_rounds(p));
                let w = |rank: usize| elems(rank) as u64 + 1;
                let all: u64 = (0..p).map(w).sum();
                for (rank, s) in out.stats.per_pe().iter().enumerate() {
                    assert_eq!(
                        s.received_words,
                        rounds + all - w(rank),
                        "p={p} rank={rank}"
                    );
                    assert_eq!(s.received_messages, rounds);
                    assert_eq!(s.sent_messages, rounds);
                    assert!(s.sent_words <= rounds * (1 + all), "p={p} rank={rank}");
                }
            }
        }
    }
}
