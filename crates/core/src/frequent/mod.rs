//! Top-k most frequent objects (paper §7).
//!
//! Given a multiset of `n` objects distributed over `p` PEs, find the `k`
//! objects that occur most often.  This is hard in a distributed setting
//! because a globally frequent object need not be locally frequent anywhere;
//! the paper's algorithms get around it by communicating only a small random
//! sample plus, in the refined variants, a short list of candidates that are
//! then counted exactly.
//!
//! The algorithms are one pipeline with variations, and
//! [`Algorithm::run`](crate::planner::Algorithm::run) is the one way to run
//! it: it reduces `n` once (a planned execution takes the `n` its plan
//! summed), then calls the algorithm's stages, which share
//!
//! 1. one **sampling stage**: a Bernoulli sample at rate ρ, aggregated
//!    locally, without a message, in a [`KeyMap`] — seqkit's `u64`-keyed
//!    map, which hashes a key with one folded multiply under a seed drawn
//!    per map, where std's map runs SipHash.  At ρ = 1 the sample is the
//!    whole input, and this count is most of an algorithm's local work; the
//!    hash table's shares, the exact-count stage's candidate index and the
//!    baselines' merges use the same map;
//! 2. the distributed hash table of [`dht`] that counts the sample, by
//!    direct delivery up to 8 PEs and over the hypercube beyond (the
//!    baselines ship the aggregate to a coordinator instead).  Every share
//!    carries its origin's sample size, and every PE receives one share from
//!    every PE, so the shares' tallies sum to the global sample size on
//!    every PE (the coordinator broadcasts the sum with its answer);
//! 3. [`select_top_counts`], the top-`k` merge of the DHT shares: `⌈log₂ p⌉`
//!    exchanges of at most `k` coded entries;
//! 4. for EC, and for PEC unless its sample is the whole input, one
//!    **exact-count stage**: candidates of that same sample — EC's top `k*`,
//!    PEC's keys at or above its threshold — are counted in the local input
//!    and summed with one all-reduction of a [`PackedCounts`] vector: the
//!    candidates arrive in sample-count order, so each partial sum is
//!    Rice-coded against the one before it: near its predecessor it costs
//!    its own bit length (at most `⌈log₂(n + 1)⌉`) and a unary bit or two,
//!    and never more than `17 + δ(n)` bits.
//!
//! Every collective of the pipeline feeds a decision: the `n` reduction
//! sets the rate, the hash table counts, the merge picks the answer or the
//! candidates, and the count all-reduction counts them.  What no decision
//! reads — the sample size a result reports — rides a message that is sent
//! anyway.
//!
//! The variations:
//!
//! * [`pac`] — probably approximately correct (Section 7.1): ρ for sample
//!   size `Θ(ε⁻² log(k/δ))`; the top-k sample counts, scaled by `1/ρ`, are
//!   the answer.
//! * `ec` — exact counting (Section 7.2): a much smaller sample
//!   (`Θ(ε⁻¹ …)`) whose top-`k*` keys are counted exactly.
//! * `pec` — probably exactly correct (Section 7.3): one coarse sample,
//!   whose objects at or above Lemma 12's count threshold are its
//!   candidates, counted exactly; a sample of the whole input is exact and
//!   ends after the merge.  Under Zipf's law `k*` has a closed form instead
//!   ([`crate::pec_zipf_top_k`], Theorem 14).
//! * `naive` — the two centralized baselines of the evaluation
//!   (Section 10.2): PAC's sample, merged at a coordinator directly (`Naive`)
//!   or through a merging reduction tree (`Naive Tree`).
//!
//! Every aggregate on the wire is a [`dht::KeyCounts`]: keys grouped by
//! count, then one bit stream of coded run headers and Rice-coded key gaps.

pub mod dht;
pub(crate) mod ec;
pub(crate) mod naive;
pub mod pac;
pub(crate) mod pec;

use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::BuildHasher;

use commsim::codec::PackedCounts;
use commsim::{Communicator, ReduceOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqkit::hashagg::{count_u64_keys, top_k_by_key, KeyMap};
use seqkit::sampling::bernoulli_sample;

/// Parameters shared by all top-k most-frequent-objects algorithms.  The
/// hash table's routing is not one of them: [`dht::aggregate_counts`]
/// derives it from `p` alone.
#[derive(Debug, Clone, Copy)]
pub struct FrequentParams {
    /// Number of most frequent objects to report.
    pub k: usize,
    /// Relative error bound ε (relative to the total input size `n`, as the
    /// paper argues in Section 7).
    pub epsilon: f64,
    /// Failure probability δ: with probability at least `1 − δ` the reported
    /// error is at most `εn`.
    pub delta: f64,
    /// Seed for all randomness (the samples).
    pub seed: u64,
}

impl FrequentParams {
    /// Convenience constructor.
    pub fn new(k: usize, epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        FrequentParams {
            k,
            epsilon,
            delta,
            seed,
        }
    }
}

/// Result of a top-k most-frequent-objects query.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKFrequentResult {
    /// The reported objects with their (estimated or exact) counts, sorted by
    /// decreasing count.  Identical on every PE.
    pub items: Vec<(u64, u64)>,
    /// Global number of sampled elements the algorithm communicated about:
    /// the sum of the PEs' sample sizes, which every hash-table share (or
    /// baseline shipment) carries beside its keys — no collective of its own
    /// computes it.
    pub sample_size: u64,
    /// `true` if the reported counts are exact (EC and PEC).
    pub exact_counts: bool,
}

impl TopKFrequentResult {
    /// Just the reported keys, most frequent first.
    pub fn keys(&self) -> Vec<u64> {
        self.items.iter().map(|&(k, _)| k).collect()
    }
}

/// The paper's error measure (Section 7): the count of the most frequent
/// object that was *not* output minus the count of the least frequent object
/// that *was* output, clamped at zero; the relative error divides by `n`.
///
/// `exact_counts` are the true global counts, `reported` the keys the
/// algorithm returned.  Note that `k` does not appear in the definition: the
/// measure only compares the reported set against its complement.  (An
/// earlier version of this function subtracted from the k-th largest exact
/// count instead of the largest *non-reported* count, which silently
/// underreported the error whenever a top-(k−1) object was missed — e.g.
/// exact `{A:16, B:10, C:9}` with `[B, C]` reported scored 1 instead of the
/// correct 16 − 9 = 7.)
///
/// An empty `reported` set means every frequent object was missed, so the
/// error is the largest exact count.
pub fn absolute_error(exact_counts: &HashMap<u64, u64>, reported: &[u64]) -> u64 {
    if exact_counts.is_empty() {
        return 0;
    }
    // Count of the most frequent object that was *not* reported.
    let best_missed = exact_counts
        .iter()
        .filter(|(key, _)| !reported.contains(key))
        .map(|(_, &count)| count)
        .max()
        .unwrap_or(0);
    // Count of the least frequent reported object (0 for keys the oracle
    // never saw — reporting a nonexistent object is maximally wrong).
    let worst_reported = reported
        .iter()
        .map(|key| exact_counts.get(key).copied().unwrap_or(0))
        .min()
        .unwrap_or(0);
    best_missed.saturating_sub(worst_reported)
}

/// Relative version of [`absolute_error`] (the paper's ε̃).
pub fn relative_error(exact_counts: &HashMap<u64, u64>, reported: &[u64], n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    absolute_error(exact_counts, reported) as f64 / n as f64
}

/// Exact global counts of every key (the correctness oracle used by tests and
/// experiments; `O(n/p)` local work plus one hash-table aggregation).
pub fn exact_global_counts<C: Communicator>(comm: &C, local_data: &[u64]) -> HashMap<u64, u64> {
    let local = seqkit::hashagg::count_keys(local_data.iter().copied());
    let owned = dht::aggregate_counts(comm, local);
    // Gather all owned aggregates everywhere (oracle only — not part of the
    // communication-efficient algorithms).
    let owned: dht::KeyCounts = owned.into_iter().collect();
    let all = comm.allgather(owned);
    let mut counts = HashMap::with_capacity(all.iter().map(dht::KeyCounts::len).sum());
    counts.extend(all.iter().flat_map(dht::KeyCounts::iter));
    counts
}

/// User tag of [`select_top_counts`]' merge rounds.
const TOP_COUNTS_TAG: u64 = 0x70C;

/// Shared final step of the sampling algorithms, of the streaming service's
/// refresh and of §6's DTA and RDTA (each object keyed by its score's
/// order-preserving `u64`): given this PE's share of a distributed hash
/// table mapping key → (sampled or exact) count, return the global top-`k`
/// entries by count, most frequent first (larger key first among equal
/// counts), identical on every PE.
///
/// The hash table leaves every key on one PE with its final count, so the
/// global top-`k` is the top-`k` of the union of the PEs' local top-`k`
/// lists.  A dissemination merge computes it: in round `j` every PE sends the
/// `k` best entries it holds, as a [`dht::KeyCounts`], to PE
/// `(rank + 2^j) mod p`, receives from `(rank − 2^j) mod p` and keeps the `k`
/// best of the union.  After `⌈log₂ p⌉` rounds each PE has merged every PE's
/// list (`O(βk log p + α log p)`).  When `p` is not a power of two the last
/// window wraps and a PE receives entries it already holds; a key has one
/// owner and one count, so dropping the duplicate pairs is exact.
///
/// The owned keys are distinct, so the first cut is [`top_k_by_key`]'s,
/// which selects before it sorts: a share of tens of thousands of keys is
/// partitioned once, not sorted.
pub fn select_top_counts<C: Communicator, S: BuildHasher>(
    comm: &C,
    owned: &HashMap<u64, u64, S>,
    k: usize,
) -> Vec<(u64, u64)> {
    let (p, rank) = (comm.size(), comm.rank());
    let mut top = local_top_k(owned.iter().map(|(&key, &count)| (key, count)), k);
    let mut dist = 1;
    while dist < p {
        // Toward higher ranks, as the Bruck all-gather sends: the replay
        // backends start PEs in ascending rank order, so a list is already
        // stored when its receiver first runs.
        let outgoing: dht::KeyCounts = top.iter().copied().collect();
        comm.send((rank + dist) % p, TOP_COUNTS_TAG, outgoing);
        let incoming: dht::KeyCounts = comm.recv((rank + p - dist) % p, TOP_COUNTS_TAG);
        top.extend(incoming.iter());
        keep_top(&mut top, k);
        dist *= 2;
    }
    top
}

/// The `k` best of `entries`, `(key, count)` pairs of distinct keys, by
/// [`top_k_by_key`]'s order: the larger count first, the larger key first
/// among equal counts.  The first cut of [`select_top_counts`] and the
/// baselines' answer.
fn local_top_k(entries: impl IntoIterator<Item = (u64, u64)>, k: usize) -> Vec<(u64, u64)> {
    let mut top: Vec<(u64, u64)> = entries.into_iter().collect();
    top_k_by_key(&mut top, k, |&(key, count)| (count, key));
    top
}

/// The merge round's union step: cut `entries` to its `k` distinct best
/// `(key, count)` pairs, in [`local_top_k`]'s order.  A wrapped window
/// brings pairs the PE already holds, and they must be dropped before the
/// cut, or a duplicate would take a distinct key's place.
fn keep_top(entries: &mut Vec<(u64, u64)>, k: usize) {
    entries.sort_unstable_by_key(|&(key, count)| Reverse((count, key)));
    entries.dedup();
    entries.truncate(k);
}

/// The sampling stage of every algorithm: a Bernoulli sample of
/// `local_data` at rate `rho` from an RNG seeded with `rng_seed`, aggregated
/// locally in a [`KeyMap`], and its size.  Local: the global size rides the
/// shares that carry the aggregate ([`dht::Share`]).
fn sample_counts(local_data: &[u64], rho: f64, rng_seed: u64) -> (KeyMap<u64>, u64) {
    let sample = bernoulli_sample(local_data, rho, &mut StdRng::seed_from_u64(rng_seed));
    (count_u64_keys(sample.iter().copied()), sample.len() as u64)
}

/// [`sample_counts`] counted in the hash table: this PE's share of the
/// sample's global counts, and the global sample size, which the shares'
/// tallies deliver to every PE.
fn counted_sample<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    rho: f64,
    rng_seed: u64,
) -> (KeyMap<u64>, u64) {
    let (counts, sample_size) = sample_counts(local_data, rho, rng_seed);
    dht::aggregate_sample(comm, counts, sample_size)
}

/// The exact-count stage of EC and PEC: count the keys of `candidates`, the
/// merged list of sampled keys every PE holds, exactly ([`global_counts`])
/// and keep the `k` best by [`local_top_k`]'s order, the one every top-k
/// list uses.  The candidate list is identical on every PE, so the final
/// cut is local.
fn count_candidates<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    candidates: Vec<(u64, u64)>,
    k: usize,
) -> Vec<(u64, u64)> {
    let candidates: Vec<u64> = candidates.into_iter().map(|(key, _)| key).collect();
    let global = global_counts(comm, local_data, &candidates);
    local_top_k(candidates.into_iter().zip(global), k)
}

/// The global number of occurrences of each of `candidates` (the same list
/// on every PE): count them in `local_data` and sum the counts with one
/// all-reduction of a [`PackedCounts`], so every partial sum crosses the wire
/// at about its own bit length, coded against the one before it, not as a
/// whole word.
fn global_counts<C: Communicator>(comm: &C, local_data: &[u64], candidates: &[u64]) -> Vec<u64> {
    let index: KeyMap<usize> = candidates
        .iter()
        .enumerate()
        .map(|(i, &key)| (key, i))
        .collect();
    let mut local = vec![0u64; candidates.len()];
    for x in local_data {
        if let Some(&i) = index.get(x) {
            local[i] += 1;
        }
    }
    comm.allreduce(PackedCounts(local), ReduceOp::sum()).0
}

/// Scale sampled counts back to estimates of true counts (PAC and the
/// baselines, which report sample counts).
fn scale_counts(items: Vec<(u64, u64)>, rho: f64) -> Vec<(u64, u64)> {
    items
        .into_iter()
        .map(|(key, count)| (key, ((count as f64) / rho).round() as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;

    #[test]
    fn params_validate_inputs() {
        let p = FrequentParams::new(8, 0.01, 0.001, 1);
        assert_eq!(p.k, 8);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_is_rejected() {
        let _ = FrequentParams::new(1, 1.5, 0.1, 0);
    }

    #[test]
    fn absolute_error_is_zero_for_correct_answers() {
        let counts: HashMap<u64, u64> = [(1, 100), (2, 50), (3, 10)].into_iter().collect();
        assert_eq!(absolute_error(&counts, &[1, 2]), 0);
        // Order inside the answer does not matter.
        assert_eq!(absolute_error(&counts, &[2, 1]), 0);
        // Reporting everything is trivially error-free.
        assert_eq!(absolute_error(&counts, &[1, 2, 3]), 0);
    }

    #[test]
    fn absolute_error_matches_the_papers_example() {
        // Figure 4: exact counts E:16 A:10 T:10 I:9 D:8, O:7; the algorithm
        // returned {E, A, T, I, O}, missing D — error 8 − 7 = 1.
        let counts: HashMap<u64, u64> = [(0, 16), (1, 10), (2, 10), (3, 9), (4, 8), (5, 7)]
            .into_iter()
            .collect();
        assert_eq!(absolute_error(&counts, &[0, 1, 2, 3, 5]), 1);
    }

    #[test]
    fn missing_a_top_object_is_charged_its_full_count_gap() {
        // Regression (ISSUE 4): the old implementation compared against the
        // k-th largest exact count and scored this case 10 − 9 = 1; the
        // paper's measure charges the full gap between the best missed
        // object (A:16) and the worst reported one (C:9).
        let counts: HashMap<u64, u64> = [(0, 16), (1, 10), (2, 9)].into_iter().collect();
        assert_eq!(absolute_error(&counts, &[1, 2]), 7);
    }

    #[test]
    fn reported_set_smaller_than_k_still_scores_against_the_complement() {
        let counts: HashMap<u64, u64> = [(0, 16), (1, 10), (2, 9)].into_iter().collect();
        // Only one object reported (the algorithm was asked for k = 2 but
        // returned less): the best missed object is A:16, the worst (only)
        // reported one is B:10.
        assert_eq!(absolute_error(&counts, &[1]), 6);
        // Nothing reported at all: every object was missed, so the error is
        // the largest exact count.
        assert_eq!(absolute_error(&counts, &[]), 16);
        // No exact counts: nothing to miss.
        assert_eq!(absolute_error(&HashMap::new(), &[1]), 0);
    }

    #[test]
    fn reporting_an_unseen_key_counts_as_zero_frequency() {
        let counts: HashMap<u64, u64> = [(0, 16), (1, 10)].into_iter().collect();
        // Key 99 never occurred; its count is 0, so the error is the full
        // count of the best missed object.
        assert_eq!(absolute_error(&counts, &[0, 99]), 10);
    }

    #[test]
    fn relative_error_divides_by_n() {
        let counts: HashMap<u64, u64> = [(1, 10), (2, 6), (3, 2)].into_iter().collect();
        let err = relative_error(&counts, &[1, 3], 100);
        assert!((err - 0.04).abs() < 1e-12);
        assert_eq!(relative_error(&counts, &[1, 2], 0), 0.0);
    }

    #[test]
    fn result_keys_helper() {
        let r = TopKFrequentResult {
            items: vec![(7, 100), (3, 50)],
            sample_size: 10,
            exact_counts: false,
        };
        assert_eq!(r.keys(), vec![7, 3]);
    }

    #[test]
    fn exact_global_counts_aggregates_across_pes() {
        let out = run_spmd(4, |comm| {
            // Every PE contributes `rank + 1` copies of key 9 and one unique key.
            let mut local = vec![9u64; comm.rank() + 1];
            local.push(100 + comm.rank() as u64);
            exact_global_counts(comm, &local)
        });
        for counts in &out.results {
            assert_eq!(counts[&9], 1 + 2 + 3 + 4);
            assert_eq!(counts[&100], 1);
            assert_eq!(counts.len(), 5);
        }
    }

    #[test]
    fn select_top_counts_returns_global_winners_everywhere() {
        let out = run_spmd(3, |comm| {
            // PE r owns keys {r, r+10} with counts r*10+5 and 1.
            let mut owned = HashMap::new();
            owned.insert(comm.rank() as u64, comm.rank() as u64 * 10 + 5);
            owned.insert(comm.rank() as u64 + 10, 1);
            select_top_counts(comm, &owned, 2)
        });
        for items in &out.results {
            assert_eq!(items.len(), 2);
            assert_eq!(items[0], (2, 25));
            assert_eq!(items[1], (1, 15));
        }
    }

    #[test]
    fn select_top_counts_handles_fewer_than_k_keys() {
        let out = run_spmd(2, |comm| {
            let owned: HashMap<u64, u64> = if comm.is_root() {
                [(5, 9)].into_iter().collect()
            } else {
                HashMap::new()
            };
            select_top_counts(comm, &owned, 10)
        });
        assert!(out.results.iter().all(|items| items == &vec![(5, 9)]));
    }

    /// Every top-k list breaks ties by [`local_top_k`]'s order, larger key
    /// first among equal counts.  On an input whose k-th count is tied four
    /// ways, EC, PEC on both of its branches, and PAC and both centralized
    /// baselines at PAC's rate 1 therefore keep the same keys in the same
    /// order.
    #[test]
    fn every_algorithm_breaks_a_tie_at_the_kth_count_alike() {
        use crate::planner::Algorithm;
        // 100 000 elements: key 1 ×30 000, key 2 ×20 000, keys 3–6
        // ×10 000 each and keys 100–2 099 ×5 each, dealt round robin.
        let mut data: Vec<u64> = Vec::with_capacity(100_000);
        for (key, times) in [(1, 30_000), (2, 20_000), (3, 10_000)] {
            data.extend(std::iter::repeat_n(key, times));
        }
        data.extend((4..=6).flat_map(|key| std::iter::repeat_n(key, 10_000)));
        data.extend((100..2_100u64).flat_map(|key| std::iter::repeat_n(key, 5)));
        let p = 2;
        let part = |r: usize| -> Vec<u64> { data.iter().copied().skip(r).step_by(p).collect() };
        let n = data.len() as u64;
        // ε₀ = 20ε: PAC needs the whole input at ε = 0.0025, where PEC
        // samples at ε₀ = 0.05; at ε₀ = 0.002 PEC's sample is the input.
        let sampled = FrequentParams::new(4, 0.0025, 1e-2, 3);
        let whole = FrequentParams::new(4, 1e-4, 1e-2, 3);
        let coarse = |params: FrequentParams| FrequentParams {
            epsilon: pec::coarse_epsilon(params.epsilon),
            ..params
        };
        assert_eq!(pac::sampling_probability(n, &sampled), 1.0);
        assert!(pac::sampling_probability(n, &coarse(sampled)) < 1.0);
        assert_eq!(pac::sampling_probability(n, &coarse(whole)), 1.0);
        let want = vec![(1, 30_000), (2, 20_000), (6, 10_000), (5, 10_000)];
        for (algorithm, params) in [
            (Algorithm::Pac, sampled),
            (Algorithm::Naive, sampled),
            (Algorithm::NaiveTree, sampled),
            (Algorithm::Ec, sampled),
            (Algorithm::Pec, sampled),
            (Algorithm::Pec, whole),
        ] {
            let out = run_spmd(p, |comm| algorithm.run(comm, &part(comm.rank()), &params));
            for result in &out.results {
                assert_eq!(result.items, want, "{algorithm:?} ε = {}", params.epsilon);
            }
        }
    }

    /// Every PE sends and receives one message per round, `⌈log₂ p⌉` in all.
    /// Round `j`'s message is the coded top-`k` of the `2^j` PEs at and below
    /// the sender (mod `p`): never more than `k` entries, and metered at its
    /// `encoded_len`.
    #[test]
    fn the_merge_sends_one_coded_top_k_list_per_round() {
        use commsim::WordCodec;
        let k = 6;
        // PE r owns 10 + r keys; counts repeat, so distinct keys tie.
        let share = |r: usize| -> HashMap<u64, u64> {
            let r = r as u64;
            (0..10 + r)
                .map(|i| (100 * r + i, (i * 7 + r) % 5 + 1))
                .collect()
        };
        for p in [2usize, 3, 5, 8] {
            let rounds = u64::from(p.next_power_of_two().trailing_zeros());
            let out = run_spmd(p, |comm| {
                let before = comm.stats_snapshot();
                select_top_counts(comm, &share(comm.rank()), k);
                comm.stats_snapshot().since(&before)
            });
            for (rank, stats) in out.results.iter().enumerate() {
                assert_eq!(stats.sent_messages, rounds, "p={p} rank {rank}");
                assert_eq!(stats.received_messages, rounds, "p={p} rank {rank}");
                let words: u64 = (0..rounds)
                    .map(|j| {
                        let mut window: Vec<(u64, u64)> = (0..1usize << j)
                            .flat_map(|i| share((rank + p - i) % p))
                            .collect();
                        window.sort_unstable_by_key(|&(key, count)| Reverse((count, key)));
                        window.truncate(k);
                        let message: dht::KeyCounts = window.into_iter().collect();
                        assert!(message.encoded_len() <= 1 + 2 * k);
                        message.encoded_len() as u64
                    })
                    .sum();
                assert_eq!(stats.sent_words, words, "p={p} rank {rank}");
            }
        }
    }

    /// The exact-count stage is one all-reduction of a [`PackedCounts`]:
    /// every reduce message carries the sender's partial sums over its
    /// binomial subtree and every broadcast message the global sums, each
    /// metered at its stream's bits in whole words — each count coded
    /// against the one before it — in as many messages as the whole-word
    /// vector sum takes.
    #[test]
    fn the_exact_counts_cross_the_wire_bit_packed() {
        use commsim::topology::{binomial_children, binomial_subtree_size};
        let candidates: Vec<u64> = (0..40).collect();
        // PE r holds candidate i `(7i + 13r) mod 29` times, and a key that
        // is no candidate.
        let times = |key: u64, r: usize| (key * 7 + r as u64 * 13) % 29;
        let local =
            |r: usize| -> Vec<u64> { candidates.iter().map(|&key| times(key, r)).collect() };
        let data = |r: usize| -> Vec<u64> {
            let mut data = vec![1000 + r as u64];
            for &key in &candidates {
                data.extend(std::iter::repeat_n(key, times(key, r) as usize));
            }
            data
        };
        let sum = |ranks: std::ops::Range<usize>| -> Vec<u64> {
            let mut sum = vec![0; candidates.len()];
            for r in ranks {
                sum.iter_mut().zip(local(r)).for_each(|(s, c)| *s += c);
            }
            sum
        };
        // δ(len), δ of the first count, then each later one Rice-coded at
        // its predecessor's bit length less one, or escaped to δ past the
        // cut.
        let packed_words = |counts: &[u64]| {
            let delta = commsim::codec::BitWriter::number_bits;
            let mut bits = delta(counts.len() as u64) + delta(counts[0]);
            for w in counts.windows(2) {
                let r = (u64::BITS - w[0].leading_zeros()).saturating_sub(1);
                bits += match w[1] >> r {
                    q if q < PackedCounts::ESCAPE => q + 1 + u64::from(r),
                    _ => PackedCounts::ESCAPE + 1 + delta(w[1]),
                };
            }
            bits.div_ceil(64)
        };
        for p in [2usize, 3, 5, 8] {
            let global = sum(0..p);
            let out = run_spmd(p, |comm| {
                let before = comm.stats_snapshot();
                let counts = global_counts(comm, &data(comm.rank()), &candidates);
                let packed = comm.stats_snapshot().since(&before);
                let before = comm.stats_snapshot();
                comm.allreduce_vec_sum(local(comm.rank()));
                (counts, packed, comm.stats_snapshot().since(&before))
            });
            for (rank, (counts, packed, whole)) in out.results.iter().enumerate() {
                assert_eq!(counts, &global, "p={p} rank {rank}");
                // A reduce message carries the sender's subtree sum to its
                // parent, a broadcast message the global sums to a child;
                // the root has no parent.
                let children = binomial_children(rank, 0, p);
                let up = |r: usize| packed_words(&sum(r..r + binomial_subtree_size(r, 0, p)));
                let down = children.len() as u64 * packed_words(&global);
                let from_children: u64 = children.iter().map(|&c| up(c)).sum();
                let (to_parent, from_parent) = match rank {
                    0 => (0, 0),
                    _ => (up(rank), packed_words(&global)),
                };
                assert_eq!(packed.sent_words, to_parent + down, "p={p} rank {rank}");
                assert_eq!(
                    packed.received_words,
                    from_children + from_parent,
                    "p={p} rank {rank}"
                );
                assert_eq!(
                    packed.sent_messages, whole.sent_messages,
                    "p={p} rank {rank}"
                );
                assert_eq!(
                    packed.received_messages, whole.received_messages,
                    "p={p} rank {rank}"
                );
                assert!(packed.sent_words < whole.sent_words || whole.sent_words == 0);
            }
        }
    }
}
