//! Binomial-tree reduction: `O(βm + α log p)`.
//!
//! Exposed as [`Communicator::reduce`] / [`Communicator::allreduce`] and the
//! `allreduce_*` convenience wrappers; the free function here is the shared
//! implementation used by every backend.

use super::ReduceOp;
use crate::communicator::Communicator;
use crate::message::CommData;
use crate::topology::{binomial_children, binomial_parent};
use crate::Rank;

/// Generic reduction over any backend; see [`Communicator::reduce`].
pub(crate) fn reduce<C, T>(comm: &C, root: Rank, value: T, op: &ReduceOp<T>) -> Option<T>
where
    C: Communicator + ?Sized,
    T: CommData + Clone,
{
    let p = comm.size();
    let rank = comm.rank();
    assert!(root < p, "reduce root {root} out of range for {p} PEs");
    let tag = comm.next_collective_tag();

    // Combine the children's partial results into the local value …
    let mut acc = value;
    for child in binomial_children(rank, root, p) {
        let partial = comm.recv_raw::<T>(child, tag);
        acc = op.apply(&acc, &partial);
    }
    // … and pass the combined value up to the parent.
    match binomial_parent(rank, root, p) {
        Some(parent) => {
            comm.send_raw(parent, tag, acc);
            None
        }
        None => Some(acc),
    }
}

#[cfg(test)]
mod tests {
    use crate::collectives::ReduceOp;
    use crate::communicator::Communicator;
    use crate::cost::predict;
    use crate::runner::run_spmd;
    use crate::topology::dissemination_rounds;

    #[test]
    fn reduce_sums_to_the_root_only() {
        for p in [1, 2, 5, 8, 11] {
            let out = run_spmd(p, |comm| {
                comm.reduce(0, comm.rank() as u64 + 1, &ReduceOp::sum())
            });
            let expected: u64 = (1..=p as u64).sum();
            assert_eq!(out.results[0], Some(expected), "p={p}");
            assert!(out.results[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let out = run_spmd(6, |comm| comm.reduce(3, 1u64, &ReduceOp::sum()));
        assert_eq!(out.results[3], Some(6));
        assert_eq!(out.results[0], None);
    }

    #[test]
    fn allreduce_gives_everyone_the_result() {
        for p in [1, 3, 4, 9, 16] {
            let out = run_spmd(p, |comm| comm.allreduce_sum(comm.rank() as u64));
            let expected: u64 = (0..p as u64).sum();
            assert!(out.results.iter().all(|&v| v == expected), "p={p}");
        }
    }

    #[test]
    fn allreduce_min_and_max() {
        let out = run_spmd(7, |comm| {
            let v = (comm.rank() as u64 + 3) % 7;
            (comm.allreduce_min(v), comm.allreduce_max(v))
        });
        assert!(out.results.iter().all(|&(lo, hi)| lo == 0 && hi == 6));
    }

    #[test]
    fn vector_allreduce_is_elementwise() {
        let out = run_spmd(4, |comm| {
            let v = vec![comm.rank() as u64, 1, 10];
            comm.allreduce_vec_sum(v)
        });
        assert!(out.results.iter().all(|v| *v == vec![1 + 2 + 3, 4, 40]));
    }

    #[test]
    fn reduce_latency_and_volume_are_logarithmic_per_pe() {
        let p = 32;
        let out = run_spmd(p, |comm| {
            comm.allreduce_sum(1);
        });
        // Reduce + broadcast: each PE sends at most 1 message up and
        // ceil(log p) down, receives symmetric amounts.
        let log_p = dissemination_rounds(p) as u64;
        assert!(out.stats.bottleneck_messages() <= 2 * log_p);
        assert!(out.stats.bottleneck_words() <= 2 * log_p);
    }

    /// Concatenating equal blocks of `elems` one-word elements onto any root:
    /// the root receives every other block once and one length word per
    /// child, in `⌈log₂p⌉` messages, nobody moves more, and
    /// `predict::reduce_concat` states the same numbers.
    #[test]
    fn concatenating_reduction_cost_is_exact_for_uniform_blocks() {
        for p in [1usize, 2, 5, 8, 64] {
            for root in [0, p - 1] {
                for elems in [0usize, 1, 64] {
                    let out = run_spmd(p, move |comm| {
                        let concat = ReduceOp::custom(|a: &Vec<u64>, b: &Vec<u64>| {
                            [a.as_slice(), b.as_slice()].concat()
                        });
                        let block = vec![comm.rank() as u64; elems];
                        comm.reduce(root, block, &concat).map(|mut all| {
                            all.sort_unstable();
                            all
                        })
                    });
                    let label = format!("p={p} root={root} elems={elems}");
                    let expected: Vec<u64> = (0..p as u64)
                        .flat_map(|r| std::iter::repeat_n(r, elems))
                        .collect();
                    assert_eq!(out.results[root], Some(expected), "{label}");
                    let children = u64::from(dissemination_rounds(p));
                    let at_root = &out.stats.per_pe()[root];
                    assert_eq!(
                        at_root.received_words,
                        ((p - 1) * elems) as u64 + children,
                        "{label}"
                    );
                    assert_eq!(at_root.received_messages, children, "{label}");
                    let predicted = predict::reduce_concat(p, elems as f64);
                    assert_eq!(
                        predicted.words,
                        out.stats.bottleneck_words() as f64,
                        "{label}"
                    );
                    assert_eq!(
                        predicted.startups,
                        out.stats.bottleneck_messages() as f64,
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    fn custom_noncommutative_use_still_works_with_commutative_op() {
        // Product is commutative; verify a custom op end to end.
        let out = run_spmd(4, |comm| {
            comm.allreduce(comm.rank() as u64 + 1, ReduceOp::custom(|a, b| a * b))
        });
        assert!(out.results.iter().all(|&v| v == 24));
    }

    #[test]
    fn string_like_payloads_reduce_too() {
        // Min over tuples: picks the lexicographically smallest (value, rank).
        let out = run_spmd(5, |comm| {
            let key = (comm.rank() as u64 + 2) % 5;
            comm.allreduce_min((key, comm.rank() as u64))
        });
        // key 0 is produced by rank 3.
        assert!(out.results.iter().all(|&v| v == (0, 3)));
    }
}
