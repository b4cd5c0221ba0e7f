//! Distributed hash table for sample counting (paper §7.1).
//!
//! Sampled objects are counted by hashing: a local count with key `x` is sent
//! to PE `h(x)`, where `h` behaves like a random function, so the counting
//! load spreads evenly over the PEs.  The paper routes these messages with
//! *indirect delivery* to keep the latency at `O(log p)` start-ups per PE and
//! merges counts inside the routing tree so that "each PE receives at most
//! one message per object assigned to it by the hash function"; this module
//! does the same: local aggregation before sending, a routed all-to-all, and
//! aggregation on arrival.
//!
//! The routing *fan-out* is tunable ([`DhtFanout`]): hypercube routing pays
//! a `log₂ p` volume multiplier for its `O(log p)` start-ups, which is the
//! right trade at large `p` but pure overhead at small `p`, where direct
//! delivery's `p − 1` start-ups are no worse than `log₂ p` rounds and every
//! pair crosses the wire exactly once.  `Auto` (the default everywhere,
//! including [`super::FrequentParams`]) switches between the two at
//! [`DhtFanout::AUTO_DIRECT_MAX_PES`] PEs.

use std::collections::HashMap;

use commsim::Communicator;

use crate::util::owner_of;

/// How locally aggregated `(key, value)` pairs are routed to their owner PEs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DhtFanout {
    /// Direct delivery up to [`DhtFanout::AUTO_DIRECT_MAX_PES`] PEs,
    /// hypercube routing beyond — the volume-optimal choice at small `p`
    /// without giving up the logarithmic latency at large `p`.
    #[default]
    Auto,
    /// Always direct: every pair crosses the wire once
    /// (`O(β·m + α·p)` per PE).
    Direct,
    /// Always hypercube-routed, as the paper describes for large clusters
    /// (`O(β·m·log p + α·log p)` per PE).
    Hypercube,
}

impl DhtFanout {
    /// Largest PE count at which [`DhtFanout::Auto`] still uses direct
    /// delivery: at `p ≤ 8` the start-up gap (`p − 1` vs `⌈log₂ p⌉`) is at
    /// most 4 messages while hypercube routing would multiply the sample
    /// volume — the dominant cost of PAC/EC at quick scale — by up to 3×.
    pub const AUTO_DIRECT_MAX_PES: usize = 8;

    /// Whether this fan-out uses direct delivery at `p` PEs.
    pub fn is_direct(self, p: usize) -> bool {
        match self {
            DhtFanout::Direct => true,
            DhtFanout::Hypercube => false,
            DhtFanout::Auto => p <= Self::AUTO_DIRECT_MAX_PES,
        }
    }
}

/// Route locally aggregated `key → count` pairs to their owner PEs and return
/// this PE's share of the global (sampled) counts, using the
/// [`DhtFanout::Auto`] routing.
///
/// Every key appears in the result of exactly one PE, with the global sum of
/// all PEs' local counts for it.
pub fn aggregate_counts<C: Communicator>(
    comm: &C,
    local_counts: HashMap<u64, u64>,
) -> HashMap<u64, u64> {
    aggregate_counts_with(comm, local_counts, DhtFanout::Auto)
}

/// [`aggregate_counts`] with an explicit routing fan-out.
pub fn aggregate_counts_with<C: Communicator>(
    comm: &C,
    local_counts: HashMap<u64, u64>,
    fanout: DhtFanout,
) -> HashMap<u64, u64> {
    let p = comm.size();
    // Partition the local aggregate by owner.
    let mut per_dest: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    for (key, count) in local_counts {
        per_dest[owner_of(key, p)].push((key, count));
    }
    let received = if fanout.is_direct(p) {
        comm.alltoall(per_dest)
    } else {
        comm.alltoall_indirect(per_dest)
    };
    let mut owned: HashMap<u64, u64> = HashMap::new();
    for chunk in received {
        for (key, count) in chunk {
            debug_assert_eq!(
                owner_of(key, p),
                comm.rank(),
                "key routed to the wrong owner"
            );
            *owned.entry(key).or_insert(0) += count;
        }
    }
    owned
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use seqkit::hashagg::count_keys;

    #[test]
    fn counts_are_summed_across_pes_and_partitioned_by_owner() {
        let p = 4;
        let out = run_spmd(p, |comm| {
            // Every PE counts the same three keys once.
            let local: HashMap<u64, u64> = count_keys(vec![1u64, 2, 3]);
            aggregate_counts(comm, local)
        });
        // Each key must live on exactly one PE with total count p.
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for owned in &out.results {
            for (&key, &count) in owned {
                assert_eq!(count, p as u64, "key {key}");
                *seen.entry(key).or_insert(0) += 1;
            }
        }
        assert_eq!(seen.len(), 3);
        assert!(seen.values().all(|&occurrences| occurrences == 1));
    }

    #[test]
    fn keys_land_on_their_hash_owner() {
        let p = 5;
        let out = run_spmd(p, |comm| {
            let local: HashMap<u64, u64> =
                (0..50u64).map(|k| (k, 1 + comm.rank() as u64)).collect();
            aggregate_counts(comm, local)
        });
        for (rank, owned) in out.results.iter().enumerate() {
            for &key in owned.keys() {
                assert_eq!(owner_of(key, p), rank);
            }
        }
        // Counts: key k receives 1+2+3+4+5 = 15.
        let total: u64 = out.results.iter().flat_map(|m| m.values()).sum();
        assert_eq!(total, 50 * 15);
    }

    #[test]
    fn empty_local_maps_are_fine() {
        let out = run_spmd(3, |comm| {
            let local: HashMap<u64, u64> = if comm.rank() == 1 {
                [(9, 3)].into_iter().collect()
            } else {
                HashMap::new()
            };
            aggregate_counts(comm, local)
        });
        let total: u64 = out.results.iter().flat_map(|m| m.values()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn auto_fanout_switches_from_direct_to_hypercube() {
        assert!(DhtFanout::Auto.is_direct(2));
        assert!(DhtFanout::Auto.is_direct(DhtFanout::AUTO_DIRECT_MAX_PES));
        assert!(!DhtFanout::Auto.is_direct(DhtFanout::AUTO_DIRECT_MAX_PES + 1));
        assert!(DhtFanout::Direct.is_direct(1024));
        assert!(!DhtFanout::Hypercube.is_direct(2));
    }

    #[test]
    fn direct_fanout_moves_fewer_words_than_hypercube_at_small_p() {
        // Hypercube routing forwards each pair up to log2(p) times; direct
        // delivery sends it once.  Same owned result either way.
        let p = 8;
        let run = |fanout: DhtFanout| {
            run_spmd(p, move |comm| {
                let local: HashMap<u64, u64> = (0..64u64)
                    .map(|k| (k * 8 + comm.rank() as u64, 1))
                    .collect();
                let before = comm.stats_snapshot();
                let owned = aggregate_counts_with(comm, local, fanout);
                let words = comm.stats_snapshot().since(&before).bottleneck_words();
                (words, owned.len())
            })
        };
        let direct = run(DhtFanout::Direct);
        let hypercube = run(DhtFanout::Hypercube);
        // Compare exactly the aggregation phase (the per-PE snapshot deltas),
        // summed over the PEs.
        let dw: u64 = direct.results.iter().map(|&(w, _)| w).sum();
        let hw: u64 = hypercube.results.iter().map(|&(w, _)| w).sum();
        assert!(dw < hw, "direct {dw} words must beat hypercube {hw} words");
        // Both routings agree on who owns how many keys.
        let d_owned: Vec<usize> = direct.results.iter().map(|&(_, n)| n).collect();
        let h_owned: Vec<usize> = hypercube.results.iter().map(|&(_, n)| n).collect();
        assert_eq!(d_owned, h_owned);
    }

    #[test]
    fn latency_stays_logarithmic_for_the_routing() {
        let p = 16;
        let out = run_spmd(p, |comm| {
            let local: HashMap<u64, u64> = (0..100u64).map(|k| (k, 1)).collect();
            let before = comm.stats_snapshot();
            let _ = aggregate_counts(comm, local);
            comm.stats_snapshot().since(&before).bottleneck_messages()
        });
        // Indirect routing: ceil(log2 16) = 4 rounds of messages per PE.
        assert!(
            out.results.iter().all(|&m| m <= 8),
            "messages: {:?}",
            out.results
        );
    }
}
