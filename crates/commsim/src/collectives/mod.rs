//! Collective communication operations.
//!
//! These are the primitives the paper's Section 2 assumes: broadcast,
//! (all-)reduction, prefix sums, gather, scatter, all-gather (gossiping) and
//! all-to-all, each with latency `O(α log p)` (the all-to-all pays `O(αp)`
//! with direct delivery, as in the paper).  They are implemented on binomial
//! trees and dissemination patterns from [`crate::topology`], are valid for
//! any number of PEs, and are metered like every other message.  The rooted
//! operations (broadcast, reduce, gather, scatter) and the all-reduction
//! built from them are binomial trees; the barrier, the prefix sums, the
//! hypercube all-to-all and the all-gather are `⌈log₂ p⌉`-round exchanges in
//! which every PE sends and receives once per round.  The all-gather
//! (`gather.rs`) is the Bruck dissemination schedule and meets the paper's
//! `O(βmp + α log p)` on every PE — no PE re-sends the concatenation.
//!
//! Each collective is written once as a generic function over any
//! [`crate::Communicator`] and surfaced as a provided method of that trait,
//! so all backends share the exact same implementations.
//!
//! All collectives must be called by **every** PE of the world, in the same
//! order — the usual SPMD contract.  Mismatched calls are detected (with high
//! probability) through per-collective internal tags and reported as a panic.

pub(crate) mod alltoall;
pub(crate) mod barrier;
pub(crate) mod broadcast;
pub(crate) mod gather;
pub(crate) mod reduce;
pub(crate) mod scan;
pub(crate) mod scatter;

use std::sync::Arc;

/// The shared combining closure inside a [`ReduceOp`].
type CombineFn<T> = Arc<dyn Fn(&T, &T) -> T + Send + Sync>;

/// An associative, commutative combining operation used by reductions and
/// prefix sums.
///
/// The operation is shared between PEs by value (it is `Clone`), so it must
/// not capture PE-local mutable state.
#[derive(Clone)]
pub struct ReduceOp<T> {
    combine: CombineFn<T>,
}

impl<T> ReduceOp<T> {
    /// Build an operation from an arbitrary associative, commutative closure.
    pub fn custom(f: impl Fn(&T, &T) -> T + Send + Sync + 'static) -> Self {
        ReduceOp {
            combine: Arc::new(f),
        }
    }

    /// Apply the operation.
    #[inline]
    pub fn apply(&self, a: &T, b: &T) -> T {
        (self.combine)(a, b)
    }
}

impl<T: Clone + std::ops::Add<Output = T> + Send + Sync + 'static> ReduceOp<T> {
    /// Element addition.
    pub fn sum() -> Self {
        ReduceOp::custom(|a: &T, b: &T| a.clone() + b.clone())
    }
}

impl<T: Clone + Ord + Send + Sync + 'static> ReduceOp<T> {
    /// Minimum.
    pub fn min() -> Self {
        ReduceOp::custom(|a: &T, b: &T| a.clone().min(b.clone()))
    }

    /// Maximum.
    pub fn max() -> Self {
        ReduceOp::custom(|a: &T, b: &T| a.clone().max(b.clone()))
    }
}

impl<T: Clone + std::ops::Add<Output = T> + Send + Sync + 'static> ReduceOp<Vec<T>> {
    /// Element-wise vector addition.  Vectors of unequal length are combined
    /// up to the longer length, treating missing entries as absent (the
    /// longer tail is copied verbatim).
    pub fn elementwise_sum() -> Self {
        ReduceOp::custom(|a: &Vec<T>, b: &Vec<T>| {
            let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
            long.iter()
                .enumerate()
                .map(|(i, x)| {
                    if i < short.len() {
                        x.clone() + short[i].clone()
                    } else {
                        x.clone()
                    }
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_min_max_behave() {
        assert_eq!(ReduceOp::<u64>::sum().apply(&3, &4), 7);
        assert_eq!(ReduceOp::<u64>::min().apply(&3, &4), 3);
        assert_eq!(ReduceOp::<u64>::max().apply(&3, &4), 4);
    }

    #[test]
    fn custom_op_applies_closure() {
        let op = ReduceOp::custom(|a: &u64, b: &u64| a * b);
        assert_eq!(op.apply(&6, &7), 42);
    }

    #[test]
    fn elementwise_sum_handles_unequal_lengths() {
        let op = ReduceOp::<Vec<u64>>::elementwise_sum();
        assert_eq!(op.apply(&vec![1, 2, 3], &vec![10, 20]), vec![11, 22, 3]);
        assert_eq!(op.apply(&vec![10, 20], &vec![1, 2, 3]), vec![11, 22, 3]);
        assert_eq!(op.apply(&vec![], &vec![5]), vec![5]);
    }

    #[test]
    fn reduce_op_is_cloneable_and_shareable() {
        let op = ReduceOp::<u64>::sum();
        let op2 = op.clone();
        assert_eq!(op.apply(&1, &2), op2.apply(&1, &2));
    }
}
