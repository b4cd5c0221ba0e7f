//! Centralized baselines Naive and Naive Tree (paper §10.2).
//!
//! The paper could not find distributed competitors to compare against, so
//! its evaluation uses two centralized baselines built on the same sampling
//! rate as Algorithm PAC:
//!
//! * **Naive** — every PE sends its aggregated local sample directly to a
//!   coordinator (PE 0), which merges the `p − 1` hash maps and cuts the
//!   top-k as every §7 algorithm does (the larger key first at a tie), by a
//!   partition and a sort of the `k` best.  The coordinator receives `p − 1`
//!   messages, so the running time grows linearly with `p` — "completely
//!   unscalable" in the paper's words.
//! * **Naive Tree** — the same data flows through a binomial reduction tree
//!   that merges the hash maps at every step, which fixes the latency but
//!   still concentrates the whole aggregated sample at the coordinator.
//!
//! Both return their answer on every PE (one broadcast of `k` pairs), so
//! results are directly comparable with the distributed algorithms.  Every
//! shipment carries its sender's sample size beside its keys (a
//! `dht::Share`), so the coordinator's broadcast carries the global sample
//! size too, and no PE reduces it on its own.

use std::collections::HashMap;

use commsim::Communicator;
use seqkit::hashagg::{merge_counts, KeyMap, KeyState};

use super::dht::Share;
use super::{local_top_k, pac::sampling_probability, sample_counts, scale_counts, FrequentParams};

/// Tag for the Naive baseline's direct sends to the coordinator.
const NAIVE_TAG: u64 = 0x7A1;

/// PAC's rate and this PE's aggregated sample at it, with the baselines' RNG
/// seed, as the share it ships: its keys and its size.
fn pac_rate_sample<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    n: u64,
) -> (f64, Share) {
    let rho = sampling_probability(n, params);
    let rng_seed = params.seed ^ 0x0A1 ^ (comm.rank() as u64) << 8;
    let (counts, tally) = sample_counts(local_data, rho, rng_seed);
    let counts = counts.into_iter().collect();
    (rho, Share { tally, counts })
}

/// The Naive baseline on an input of global size `n > 0`: direct
/// point-to-point delivery of every PE's aggregated sample to the
/// coordinator.  Returns the scaled top-k and the global sample size, the
/// sum of the shipments' tallies, which the coordinator broadcasts with the
/// winners.
pub(crate) fn top_k<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    n: u64,
) -> (Vec<(u64, u64)>, u64) {
    let (rho, share) = pac_rate_sample(comm, local_data, params, n);
    let answer = if comm.is_root() {
        let mut merged: KeyMap<u64> = share.counts.iter().collect();
        let mut total = share.tally;
        // The coordinator receives p − 1 separate messages — the scalability
        // bottleneck the experiment is designed to show.
        for src in 1..comm.size() {
            let incoming: Share = comm.recv(src, NAIVE_TAG);
            merge_counts(&mut merged, incoming.counts.iter());
            total += incoming.tally;
        }
        Some((total, local_top_k(merged, params.k)))
    } else {
        comm.send(0, NAIVE_TAG, share);
        None
    };
    let (sample_size, items) = comm.broadcast(0, answer);
    (scale_counts(items, rho), sample_size)
}

/// The Naive Tree baseline on an input of global size `n > 0`: the
/// aggregated samples flow up a binomial reduction tree, merging hash maps
/// and summing their tallies at every level (implemented with the generic
/// tree reduction of the communication layer).  Returns the scaled top-k and
/// the global sample size, both broadcast by the root.
pub(crate) fn tree_top_k<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    n: u64,
) -> (Vec<(u64, u64)>, u64) {
    let (rho, share) = pac_rate_sample(comm, local_data, params, n);
    // Merge hash maps (on the wire: keys grouped by count) up the reduction
    // tree.
    let merged = comm.reduce(
        0,
        share,
        &commsim::ReduceOp::custom(|a: &Share, b: &Share| {
            let mut map: KeyMap<u64> = HashMap::with_capacity_and_hasher(
                a.counts.len().max(b.counts.len()),
                KeyState::default(),
            );
            merge_counts(&mut map, a.counts.iter().chain(b.counts.iter()));
            Share {
                tally: a.tally + b.tally,
                counts: map.into_iter().collect(),
            }
        }),
    );
    let answer = merged.map(|share| (share.tally, local_top_k(share.counts.iter(), params.k)));
    let (sample_size, items) = comm.broadcast(0, answer);
    (scale_counts(items, rho), sample_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use datagen::Zipf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::planner::Algorithm;

    fn zipf_parts(p: usize, per_pe: usize, values: usize, seed: u64) -> Vec<Vec<u64>> {
        let zipf = Zipf::new(values, 1.0);
        (0..p)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(seed + r as u64);
                zipf.sample_many(per_pe, &mut rng)
            })
            .collect()
    }

    #[test]
    fn naive_and_tree_agree_with_pac_on_the_heavy_hitters() {
        let p = 4;
        let parts = zipf_parts(p, 20_000, 1 << 10, 3);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(4, 3e-3, 1e-3, 7);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            (
                Algorithm::Naive.run(comm, local, &params),
                Algorithm::NaiveTree.run(comm, local, &params),
                Algorithm::Pac.run(comm, local, &params),
            )
        });
        let (naive, tree, pac) = &out.results[0];
        // All three use the same sampling rate; the unambiguous rank-1 and
        // rank-2 objects of a Zipf input must agree.
        assert_eq!(naive.items[0].0, 1);
        assert_eq!(tree.items[0].0, 1);
        assert_eq!(pac.items[0].0, 1);
        assert_eq!(naive.items[1].0, 2);
        assert_eq!(tree.items[1].0, 2);
    }

    #[test]
    fn all_pes_receive_the_answer() {
        let p = 3;
        let parts = zipf_parts(p, 5_000, 256, 11);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(5, 5e-3, 1e-2, 13);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            (
                Algorithm::Naive.run(comm, local, &params),
                Algorithm::NaiveTree.run(comm, local, &params),
            )
        });
        for (naive, tree) in &out.results {
            assert_eq!(naive.items, out.results[0].0.items);
            assert_eq!(tree.items, out.results[0].1.items);
        }
    }

    #[test]
    fn naive_concentrates_traffic_at_the_coordinator() {
        let p = 8;
        let parts = zipf_parts(p, 20_000, 1 << 12, 17);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(8, 2e-3, 1e-2, 19);
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = Algorithm::Naive.run(comm, &parts_ref[comm.rank()], &params);
            comm.stats_snapshot().since(&before)
        });
        let coordinator = out.results[0].received_words;
        let worker_max = out.results[1..]
            .iter()
            .map(|s| s.received_words)
            .max()
            .unwrap();
        // The coordinator receives all p−1 aggregated samples; the workers
        // receive only the broadcast answer.
        assert!(
            coordinator > worker_max * 3,
            "coordinator {coordinator} vs worker max {worker_max}"
        );
        // And it pays p−1 message start-ups (plus a few collectives).
        assert!(out.results[0].received_messages >= (p - 1) as u64);
    }

    #[test]
    fn naive_tree_spreads_the_startup_cost() {
        let p = 8;
        let parts = zipf_parts(p, 10_000, 1 << 12, 23);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(8, 2e-3, 1e-2, 29);
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = Algorithm::NaiveTree.run(comm, &parts_ref[comm.rank()], &params);
            comm.stats_snapshot().since(&before).received_messages
        });
        // No PE — including the root — receives more than O(log p) messages
        // for the reduction plus a constant number of collective rounds.
        assert!(
            out.results.iter().all(|&m| m <= 12),
            "messages: {:?}",
            out.results
        );
    }

    #[test]
    fn empty_input_is_handled() {
        let params = FrequentParams::new(4, 1e-2, 1e-2, 0);
        let out = run_spmd(2, move |comm| {
            (
                Algorithm::Naive.run(comm, &[], &params),
                Algorithm::NaiveTree.run(comm, &[], &params),
            )
        });
        assert!(out
            .results
            .iter()
            .all(|(a, b)| a.items.is_empty() && b.items.is_empty()));
    }
}
