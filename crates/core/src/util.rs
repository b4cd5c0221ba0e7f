//! Small shared utilities for the distributed algorithms.

use commsim::{CommResult, WordCodec, WordReader};

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

/// Tag a local element with a globally unique identifier
/// `(element, global_index)` so that the total order becomes unique, as the
/// paper assumes without loss of generality ("we can make the value v of
/// object x unique by replacing it by the pair (v, x)").
///
/// `global_offset` is the global index of this PE's first element (usually an
/// exclusive prefix sum of the local sizes).
pub fn tag_unique<T: Clone>(local: &[T], global_offset: u64) -> Vec<(T, u64)> {
    local
        .iter()
        .enumerate()
        .map(|(i, x)| (x.clone(), global_offset + i as u64))
        .collect()
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
}
