//! Small shared utilities for the distributed algorithms.

use commsim::{CommResult, Communicator, ReduceOp, WordCodec, WordReader};

/// A totally ordered `f64` wrapper (ordered by `f64::total_cmp`), used for
/// scores and value sums that have to flow through `Ord`-based selection and
/// through the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One word, `f64`'s own encoding: the IEEE-754 bit pattern round-trips
/// every value including NaNs, matching the total_cmp order the wrapper
/// provides.
impl WordCodec for OrderedF64 {
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }

    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out);
    }

    #[inline]
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        f64::decode(r).map(OrderedF64)
    }
}

impl From<f64> for OrderedF64 {
    fn from(x: f64) -> Self {
        OrderedF64(x)
    }
}

/// SplitMix64 — the hash used to assign keys to owner PEs in the distributed
/// hash table.  It behaves close enough to a random function for the
/// balls-into-bins argument of the paper (Section 7.1) and is deterministic,
/// which the tests rely on.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Owner PE of a key in a distributed hash table over `p` PEs.
#[inline]
pub fn owner_of(key: u64, p: usize) -> usize {
    (splitmix64(key) % p as u64) as usize
}

/// Component-wise sum all-reduction of two counts in one two-word message
/// (a `Vec` of two would carry a third word, its length).
pub(crate) fn allreduce_sum_pair<C: Communicator>(comm: &C, a: u64, b: u64) -> (u64, u64) {
    comm.allreduce(
        (a, b),
        ReduceOp::custom(|x: &(u64, u64), y: &(u64, u64)| (x.0 + y.0, x.1 + y.1)),
    )
}

/// Tag a local element with a globally unique identifier
/// `(element, global_index)` so that the total order becomes unique, as the
/// paper assumes without loss of generality ("we can make the value v of
/// object x unique by replacing it by the pair (v, x)").
///
/// `global_offset` is the tag of this PE's first element: the selection
/// kernels pass [`tie_break_offset`], which needs no communication; an
/// exclusive prefix sum of the local sizes gives the same order.
pub fn tag_unique<T: Clone>(local: &[T], global_offset: u64) -> Vec<(T, u64)> {
    local
        .iter()
        .enumerate()
        .map(|(i, x)| (x.clone(), global_offset + i as u64))
        .collect()
}

/// Bits of a tie-break word that hold the local index; the rank sits above.
const TIE_BREAK_INDEX_BITS: u32 = 40;

/// Tie-break tag of PE `rank`'s first element: local element `i` gets the
/// word `tie_break_offset(..) + i`, i.e. `rank << 40 | i`.
///
/// The packed word orders elements exactly like the global index
/// `Σ_{r < rank} |local_r| + i` (both are monotone in `(rank, i)`), so it
/// breaks ties identically, is still one word on the wire, and — unlike the
/// global index — every PE knows it without a prefix sum.
///
/// # Panics
///
/// Panics if `local_len > 2^40` or `p > 2^24` (the word would overflow).
pub fn tie_break_offset(rank: usize, p: usize, local_len: usize) -> u64 {
    assert!(
        local_len as u64 <= 1 << TIE_BREAK_INDEX_BITS,
        "local input of {local_len} elements does not fit the 40-bit tie-break index"
    );
    assert!(
        p as u64 <= 1 << (u64::BITS - TIE_BREAK_INDEX_BITS),
        "{p} PEs do not fit the 24-bit tie-break rank"
    );
    debug_assert!(rank < p);
    (rank as u64) << TIE_BREAK_INDEX_BITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::CommData;

    #[test]
    fn ordered_f64_sorts_like_f64() {
        let mut v = vec![OrderedF64(3.5), OrderedF64(-1.0), OrderedF64(2.0)];
        v.sort();
        assert_eq!(v, vec![OrderedF64(-1.0), OrderedF64(2.0), OrderedF64(3.5)]);
        assert!(OrderedF64(1.0) < OrderedF64(2.0));
        assert_eq!(OrderedF64(5.0), OrderedF64(5.0));
    }

    #[test]
    fn ordered_f64_handles_nan_deterministically() {
        // total_cmp puts NaN above +inf; the point is that sorting never
        // panics and is deterministic.
        let mut v = [
            OrderedF64(f64::NAN),
            OrderedF64(1.0),
            OrderedF64(f64::INFINITY),
        ];
        v.sort();
        assert_eq!(v[0], OrderedF64(1.0));
    }

    #[test]
    fn ordered_f64_is_one_word_on_the_wire() {
        assert_eq!(OrderedF64(1.23).word_count(), 1);
    }

    #[test]
    fn ordered_f64_word_codec_round_trips_exactly() {
        for v in [0.0, -0.0, 1.5, -1e300, f64::INFINITY, f64::NAN] {
            let mut words = Vec::new();
            OrderedF64(v).encode(&mut words);
            assert_eq!(words.len(), OrderedF64(v).word_count());
            let mut r = WordReader::new(&words);
            let back = OrderedF64::decode(&mut r).expect("decode");
            assert_eq!(back.0.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn splitmix_spreads_keys() {
        // Consecutive keys should not map to the same owner overwhelmingly.
        let p = 8;
        let mut counts = vec![0usize; p];
        for key in 0..8000u64 {
            counts[owner_of(key, p)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            min > 800 && max < 1200,
            "owner distribution too skewed: {counts:?}"
        );
    }

    #[test]
    fn owner_is_stable_and_in_range() {
        for key in [0u64, 1, u64::MAX, 42] {
            let o = owner_of(key, 5);
            assert!(o < 5);
            assert_eq!(o, owner_of(key, 5));
        }
    }

    #[test]
    fn unique_tagging_preserves_values_and_is_unique() {
        let tagged = tag_unique(&[7u64, 7, 7], 100);
        assert_eq!(tagged, vec![(7, 100), (7, 101), (7, 102)]);
        let mut ids: Vec<u64> = tagged.iter().map(|&(_, id)| id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn packed_tie_break_sorts_like_value_and_global_index() {
        // Duplicate-heavy parts, two of them empty.
        let parts: Vec<Vec<u64>> = vec![
            vec![3, 1, 3, 3, 0],
            vec![],
            vec![1, 1, 3],
            vec![],
            vec![0, 3, 1, 3, 3, 3, 2],
        ];
        let p = parts.len();
        let mut by_global_index = Vec::new();
        let mut by_packed_tag = Vec::new();
        let mut global_offset = 0u64;
        for (rank, part) in parts.iter().enumerate() {
            by_global_index.extend(tag_unique(part, global_offset));
            by_packed_tag.extend(tag_unique(part, tie_break_offset(rank, p, part.len())));
            global_offset += part.len() as u64;
        }
        // Sort positions (not the tags themselves, which differ) under both
        // orders: the permutations must coincide.
        let order = |tagged: &[(u64, u64)]| {
            let mut idx: Vec<usize> = (0..tagged.len()).collect();
            idx.sort_by_key(|&i| tagged[i]);
            idx
        };
        assert_eq!(order(&by_packed_tag), order(&by_global_index));
        assert_eq!(by_packed_tag[5], (1, 2 << 40));
    }

    #[test]
    #[should_panic(expected = "tie-break rank")]
    fn tie_break_rejects_worlds_beyond_24_rank_bits() {
        tie_break_offset(0, (1 << 24) + 1, 0);
    }
}
