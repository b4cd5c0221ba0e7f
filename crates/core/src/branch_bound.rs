//! Parallel best-first branch-and-bound on the bulk priority queue
//! (paper §5, application paragraph).
//!
//! The paper motivates the bulk-parallel priority queue with parallel
//! branch-and-bound: in iteration `i` the algorithm deletes the `k_i = O(p)`
//! globally best tree nodes, expands them in parallel, and inserts the newly
//! generated children *locally* — which is where the communication-efficient
//! queue shines, because a typical branch-and-bound run inserts far more
//! nodes than it ever removes.  The number of nodes expanded by the parallel
//! algorithm is `K = m + O(h·p)` where `m` is the number a sequential
//! best-first search expands and `h` is the depth of the optimal solution.
//!
//! The concrete application here is the 0/1 knapsack problem with the
//! classical fractional-relaxation bound; both the sequential best-first
//! baseline and the parallel algorithm are provided so that the `K = m +
//! O(hp)` claim can be measured (bench `bnb_expansions`).

use commsim::{CommResult, Communicator, WordCodec, WordReader};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bulk_pq::BulkParallelQueue;
use crate::util::OrderedF64;

/// A 0/1 knapsack instance.
#[derive(Debug, Clone)]
pub struct KnapsackInstance {
    /// Item weights.
    pub weights: Vec<u64>,
    /// Item values.
    pub values: Vec<u64>,
    /// Knapsack capacity.
    pub capacity: u64,
}

impl KnapsackInstance {
    /// Create an instance; items are re-ordered by decreasing value density
    /// (required by the fractional bound).
    pub fn new(weights: Vec<u64>, values: Vec<u64>, capacity: u64) -> Self {
        assert_eq!(weights.len(), values.len(), "weights and values must align");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| {
            let da = values[a] as f64 / weights[a] as f64;
            let db = values[b] as f64 / weights[b] as f64;
            db.partial_cmp(&da).unwrap()
        });
        KnapsackInstance {
            weights: order.iter().map(|&i| weights[i]).collect(),
            values: order.iter().map(|&i| values[i]).collect(),
            capacity,
        }
    }

    /// Generate a random instance with `n` items (weights in `1..=max_weight`,
    /// values in `1..=max_value`, capacity = half the total weight).
    pub fn random(n: usize, max_weight: u64, max_value: u64, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=max_weight)).collect();
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=max_value)).collect();
        let capacity = weights.iter().sum::<u64>() / 2;
        KnapsackInstance::new(weights, values, capacity)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` iff the instance has no items.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Exact optimum by dynamic programming over capacity (`O(n·capacity)`),
    /// the correctness oracle for the branch-and-bound solvers.
    pub fn optimum_by_dp(&self) -> u64 {
        let cap = self.capacity as usize;
        let mut best = vec![0u64; cap + 1];
        for i in 0..self.len() {
            let w = self.weights[i] as usize;
            let v = self.values[i];
            for c in (w..=cap).rev() {
                best[c] = best[c].max(best[c - w] + v);
            }
        }
        best[cap]
    }

    /// Upper bound of a partial solution (`level` items decided, `value`
    /// collected, `weight` used) via the fractional relaxation.
    fn fractional_bound(&self, level: usize, value: u64, weight: u64) -> f64 {
        let mut bound = value as f64;
        let mut remaining = self.capacity - weight;
        for i in level..self.len() {
            if self.weights[i] <= remaining {
                remaining -= self.weights[i];
                bound += self.values[i] as f64;
            } else {
                bound += self.values[i] as f64 * remaining as f64 / self.weights[i] as f64;
                break;
            }
        }
        bound
    }
}

/// A search-tree node.  The queue orders nodes by *increasing* key, so the
/// key is the negated upper bound: the globally best node (largest bound) is
/// the queue minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BnbNode {
    /// Negated fractional upper bound (smaller = more promising).
    pub neg_bound: OrderedF64,
    /// Next item index to decide.
    pub level: u32,
    /// Value collected so far.
    pub value: u64,
    /// Weight used so far.
    pub weight: u64,
}

/// Four words: the fields' own encodings in declaration order (the bound
/// as its IEEE-754 bit pattern — exact round-trip, NaNs included).
impl WordCodec for BnbNode {
    fn encode(&self, out: &mut Vec<u64>) {
        self.neg_bound.encode(out);
        self.level.encode(out);
        self.value.encode(out);
        self.weight.encode(out);
    }

    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        Ok(BnbNode {
            neg_bound: OrderedF64::decode(r)?,
            level: u32::decode(r)?,
            value: u64::decode(r)?,
            weight: u64::decode(r)?,
        })
    }
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BnbResult {
    /// The optimal knapsack value.
    pub optimum: u64,
    /// Number of nodes expanded (the paper's `m` for the sequential run, `K`
    /// for the parallel run).
    pub expanded: u64,
    /// Number of queue iterations (parallel) or heap pops (sequential).
    pub iterations: u64,
}

/// Sequential best-first branch-and-bound baseline.
pub fn knapsack_branch_bound_sequential(instance: &KnapsackInstance) -> BnbResult {
    let mut heap: BinaryHeap<Reverse<BnbNode>> = BinaryHeap::new();
    let root = BnbNode {
        neg_bound: OrderedF64(-instance.fractional_bound(0, 0, 0)),
        level: 0,
        value: 0,
        weight: 0,
    };
    heap.push(Reverse(root));
    let mut incumbent = 0u64;
    let mut expanded = 0u64;
    let mut iterations = 0u64;
    while let Some(Reverse(node)) = heap.pop() {
        iterations += 1;
        if -node.neg_bound.0 <= incumbent as f64 {
            // Best remaining bound cannot beat the incumbent: done.
            break;
        }
        expanded += 1;
        for child in expand_node(instance, &node, &mut incumbent) {
            if -child.neg_bound.0 > incumbent as f64 {
                heap.push(Reverse(child));
            }
        }
    }
    BnbResult {
        optimum: incumbent,
        expanded,
        iterations,
    }
}

/// Expand one node: decide item `level` both ways, update the incumbent with
/// any completed solution, and return the surviving children.
fn expand_node(instance: &KnapsackInstance, node: &BnbNode, incumbent: &mut u64) -> Vec<BnbNode> {
    let level = node.level as usize;
    *incumbent = (*incumbent).max(node.value);
    if level >= instance.len() {
        return Vec::new();
    }
    let mut children = Vec::with_capacity(2);
    // Take item `level` if it fits.
    if node.weight + instance.weights[level] <= instance.capacity {
        let value = node.value + instance.values[level];
        let weight = node.weight + instance.weights[level];
        *incumbent = (*incumbent).max(value);
        children.push(BnbNode {
            neg_bound: OrderedF64(-instance.fractional_bound(level + 1, value, weight)),
            level: node.level + 1,
            value,
            weight,
        });
    }
    // Skip item `level`.
    children.push(BnbNode {
        neg_bound: OrderedF64(-instance.fractional_bound(level + 1, node.value, node.weight)),
        level: node.level + 1,
        value: node.value,
        weight: node.weight,
    });
    children
}

/// Parallel best-first branch-and-bound on the bulk priority queue.
///
/// Every PE calls this with the same (replicated) instance; the returned
/// result is identical on every PE.  `batch_per_pe` controls how many nodes
/// are removed per PE per iteration (`k_i = batch_per_pe · p`, the paper's
/// `O(p)` batch).
pub fn knapsack_branch_bound_parallel<C: Communicator>(
    comm: &C,
    instance: &KnapsackInstance,
    batch_per_pe: usize,
    seed: u64,
) -> BnbResult {
    assert!(batch_per_pe >= 1);
    let p = comm.size();
    let mut queue: BulkParallelQueue<BnbNode> = BulkParallelQueue::new(comm);
    if comm.is_root() {
        queue.insert(BnbNode {
            neg_bound: OrderedF64(-instance.fractional_bound(0, 0, 0)),
            level: 0,
            value: 0,
            weight: 0,
        });
    }
    let mut incumbent = 0u64;
    let mut expanded_local = 0u64;
    let mut iterations = 0u64;

    loop {
        iterations += 1;
        // Synchronise the incumbent (best complete solution so far).
        incumbent = comm.allreduce_max(incumbent);
        // Globally best remaining node: stop when it cannot beat the incumbent.
        match queue.peek_min(comm) {
            None => break,
            Some(best) => {
                if -best.neg_bound.0 <= incumbent as f64 {
                    break;
                }
            }
        }
        // Delete the k_i = batch_per_pe · p globally best nodes and expand
        // this PE's share locally; children are inserted locally (no
        // communication).
        let batch = queue.delete_min(comm, batch_per_pe * p, seed ^ iterations);
        for node in batch {
            if -node.neg_bound.0 <= incumbent as f64 {
                continue; // pruned by a newer incumbent
            }
            expanded_local += 1;
            for child in expand_node(instance, &node, &mut incumbent) {
                if -child.neg_bound.0 > incumbent as f64 {
                    queue.insert(child);
                }
            }
        }
    }

    let optimum = comm.allreduce_max(incumbent);
    let expanded = comm.allreduce_sum(expanded_local);
    BnbResult {
        optimum,
        expanded,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;

    #[test]
    fn bnb_node_word_codec_round_trips_exactly() {
        let node = BnbNode {
            neg_bound: OrderedF64(-12.75),
            level: 7,
            value: u64::MAX - 3,
            weight: 42,
        };
        let mut words = Vec::new();
        node.encode(&mut words);
        assert_eq!(words.len(), 4);
        let mut r = WordReader::new(&words);
        let back = BnbNode::decode(&mut r).expect("decode");
        assert_eq!(back.neg_bound.0.to_bits(), node.neg_bound.0.to_bits());
        assert_eq!(
            (back.level, back.value, back.weight),
            (node.level, node.value, node.weight)
        );
    }

    #[test]
    fn instance_construction_orders_by_density_and_validates() {
        let inst = KnapsackInstance::new(vec![4, 1, 2], vec![4, 3, 2], 5);
        // Densities: 1.0, 3.0, 1.0 — the weight-1/value-3 item must be first.
        assert_eq!(inst.weights[0], 1);
        assert_eq!(inst.values[0], 3);
        assert_eq!(inst.len(), 3);
        assert!(!inst.is_empty());
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_items_are_rejected() {
        let _ = KnapsackInstance::new(vec![1, 2], vec![1], 5);
    }

    #[test]
    fn dp_oracle_on_a_hand_checked_instance() {
        // Items (w, v): (2,3), (3,4), (4,5), (5,6); capacity 5 → best is
        // (2,3)+(3,4) = 7.
        let inst = KnapsackInstance::new(vec![2, 3, 4, 5], vec![3, 4, 5, 6], 5);
        assert_eq!(inst.optimum_by_dp(), 7);
    }

    #[test]
    fn sequential_bnb_matches_dp_on_random_instances() {
        for seed in 0..6 {
            let inst = KnapsackInstance::random(18, 30, 50, seed);
            let dp = inst.optimum_by_dp();
            let bnb = knapsack_branch_bound_sequential(&inst);
            assert_eq!(bnb.optimum, dp, "seed {seed}");
            assert!(bnb.expanded > 0);
        }
    }

    #[test]
    fn fractional_bound_upper_bounds_the_optimum() {
        let inst = KnapsackInstance::random(20, 20, 40, 3);
        assert!(inst.fractional_bound(0, 0, 0) >= inst.optimum_by_dp() as f64);
    }

    #[test]
    fn parallel_bnb_finds_the_optimum() {
        for p in [1usize, 2, 4] {
            for seed in [1u64, 7] {
                let inst = KnapsackInstance::random(16, 25, 40, seed);
                let dp = inst.optimum_by_dp();
                let inst_ref = inst.clone();
                let out = run_spmd(p, move |comm| {
                    knapsack_branch_bound_parallel(comm, &inst_ref, 2, seed)
                });
                assert!(
                    out.results.iter().all(|r| r.optimum == dp),
                    "p={p} seed={seed}: {:?} vs dp {dp}",
                    out.results
                );
            }
        }
    }

    #[test]
    fn parallel_expansion_overhead_is_bounded() {
        // K = m + O(hp): the parallel run may expand more nodes than the
        // sequential one, but not wildly more for a small instance.
        let inst = KnapsackInstance::random(20, 30, 60, 11);
        let seq = knapsack_branch_bound_sequential(&inst);
        let p = 4;
        let inst_ref = inst.clone();
        let out = run_spmd(p, move |comm| {
            knapsack_branch_bound_parallel(comm, &inst_ref, 1, 5)
        });
        let par = out.results[0];
        assert_eq!(par.optimum, seq.optimum);
        let h = inst.len() as u64; // solution depth ≤ number of items
        assert!(
            par.expanded <= seq.expanded + 8 * h * p as u64 + 64,
            "parallel expanded {} vs sequential {} (h={h}, p={p})",
            par.expanded,
            seq.expanded
        );
    }

    #[test]
    fn insertions_stay_local_in_the_parallel_run() {
        let inst = KnapsackInstance::random(14, 20, 30, 13);
        let out = run_spmd(4, move |comm| {
            let before = comm.stats_snapshot();
            let result = knapsack_branch_bound_parallel(comm, &inst, 1, 3);
            let volume = comm.stats_snapshot().since(&before).bottleneck_words();
            (result, volume)
        });
        // Inserting children costs nothing; all traffic is the per-iteration
        // control traffic (incumbent reduction, peek, batched deleteMin*), so
        // the volume must be proportional to the number of iterations — not
        // to the number of nodes generated/inserted.
        let (result, _) = out.results[0];
        for &(_, volume) in &out.results {
            assert!(
                volume <= result.iterations * 150 + 512,
                "volume {volume} not explained by {} iterations of control traffic",
                result.iterations
            );
        }
    }

    #[test]
    fn empty_instance_yields_zero() {
        let inst = KnapsackInstance::new(vec![], vec![], 10);
        assert_eq!(inst.optimum_by_dp(), 0);
        let seq = knapsack_branch_bound_sequential(&inst);
        assert_eq!(seq.optimum, 0);
        let out = run_spmd(2, move |comm| {
            knapsack_branch_bound_parallel(comm, &inst, 1, 0)
        });
        assert!(out.results.iter().all(|r| r.optimum == 0));
    }
}
