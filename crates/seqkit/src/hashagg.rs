//! Hash-based local aggregation.
//!
//! Both the frequent-objects algorithms (paper Section 7) and the sum
//! aggregation (Section 8) first aggregate their *local* input in a hash
//! table — "apply local aggregation when inserting the sample into the
//! distributed hash table" (Section 7.4) — and only then communicate the much
//! smaller aggregate.  These helpers implement that local step plus
//! [`top_k_by_key`], the one top-k cut every ranked answer of Sections 7 and
//! 8 goes through, with one tie rule: the larger key wins a tie.
//!
//! Every aggregate of those sections is keyed by a `u64`, and hashing the key
//! is a large part of counting it: a [`KeyMap`] hashes a key with
//! [`KeyState`]'s one folded multiply instead of std's SipHash-1-3.  Each map draws its own seed from
//! std's [`RandomState`], so its iteration order is as random per map as a
//! std map's: nothing that reaches the wire may depend on it, and a map
//! filled in another map's iteration order does not inherit that map's
//! clustering.  The seed is no keyed PRF, though: the hasher gives up
//! SipHash's guarantee against chosen collisions (see [`KeyState`]).

use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// Odd multiplier of [`KeyState`]'s hash: `2⁶⁴/φ` rounded to odd, the
/// constant of Fibonacci hashing.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The high and low halves of the 128-bit product `x × MULTIPLIER`, xored:
/// every input bit reaches the low half's top bits and the high half's low
/// bits, so both ends of the word depend on the whole key.
fn folded_multiply(x: u64) -> u64 {
    let full = u128::from(x) * u128::from(MULTIPLIER);
    (full as u64) ^ (full >> 64) as u64
}

/// The [`BuildHasher`] of [`KeyMap`]: hashes a `u64` key to the folded
/// multiply of `key ^ seed` by an odd 64-bit constant — the low and high
/// halves of the 128-bit product xored — and then xors the result's upper 32
/// bits onto its lower ones: one multiply where std's default runs
/// SipHash-1-3.
///
/// The last xor-shift is what spreads structured keys.  A table's bucket is
/// the hash's low bits, and for keys `i·2^s + c` the fold's low 16 bits are
/// bits `s…s+15` of `i × MULTIPLIER` whatever the seed: a lattice that
/// clusters some strides `2^s` under every constant.  Without the shift the
/// `2¹⁶` multiples of `2³²` fill 7 598 of `2¹⁶` buckets; with it every key
/// family of the spread test fills as many as a random function would.
///
/// The seed is drawn per map from std's [`RandomState`] (by
/// [`Default::default`]), so two maps iterate in unrelated orders, as two std
/// maps do.  That keeps the invariant every caller relies on — no map's
/// iteration order may reach the wire — as testable as before, and a map
/// filled in another map's iteration order cannot cluster: under one shared
/// seed it would probe in the order the first map's buckets lie.
///
/// **Not collision-resistant.** SipHash is a keyed PRF: without its key no
/// input can be chosen to collide.  A folded multiply is not one; an
/// adversary who can pick the keys can make them collide, and every lookup
/// then scans the colliding keys.  The maps here aggregate keys of a computation's
/// own input, not requests from untrusted parties; a map that does hold
/// untrusted keys should keep std's hasher.
#[derive(Debug, Clone, Copy)]
pub struct KeyState {
    seed: u64,
}

impl KeyState {
    /// The state of a fixed `seed` (the hash-spread tests pin seeds).
    #[cfg(test)]
    fn with_seed(seed: u64) -> Self {
        KeyState { seed }
    }
}

impl Default for KeyState {
    /// A fresh seed: one SipHash output of a fresh [`RandomState`], whose keys
    /// differ on every call.
    fn default() -> Self {
        KeyState {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { state: self.seed }
    }
}

/// The [`Hasher`] of [`KeyState`].  A `u64` key takes one
/// [`write_u64`](Hasher::write_u64); any other input is folded in word by
/// word, each word the way a key is.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl Hasher for KeyHasher {
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.state ^ self.state >> 32
    }
}

/// A hash map keyed by `u64`, hashed by [`KeyState`]: the map of every local
/// aggregate of Sections 7 and 8.
pub type KeyMap<V> = HashMap<u64, V, KeyState>;

/// Count the occurrences of every key in `items`.
///
/// It keeps std's map and hasher: it counts keys of any type, and callers
/// store its result as a std `HashMap` (the benchmark package's
/// `frequent_zipf` oracle among them).  The `u64` aggregates of Sections 7
/// and 8 count with [`count_u64_keys`] instead.
pub fn count_keys<K, I>(items: I) -> HashMap<K, u64>
where
    K: Eq + Hash,
    I: IntoIterator<Item = K>,
{
    let mut counts = HashMap::new();
    for k in items {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}

/// Count the occurrences of every `u64` key in `items` in a [`KeyMap`].  The
/// map grows as keys arrive: a skewed input has far fewer distinct keys than
/// elements, so sizing it to the input would only cost memory.
pub fn count_u64_keys(items: impl IntoIterator<Item = u64>) -> KeyMap<u64> {
    let mut counts = KeyMap::default();
    for k in items {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}

/// Sum the values associated with every key in `items`.
pub fn sum_by_key(items: impl IntoIterator<Item = (u64, f64)>) -> KeyMap<f64> {
    let mut sums = KeyMap::default();
    for (k, v) in items {
        *sums.entry(k).or_insert(0.0) += v;
    }
    sums
}

/// Merge the `(key, count)` entries of `src` into `dst` by adding counts.
pub fn merge_counts<K: Eq + Hash, S: BuildHasher>(
    dst: &mut HashMap<K, u64, S>,
    src: impl IntoIterator<Item = (K, u64)>,
) {
    for (k, v) in src {
        *dst.entry(k).or_insert(0) += v;
    }
}

/// Cut `entries` to the `k` entries of largest `rank`, best first.
///
/// Every ranked answer of Sections 7 and 8 goes through this cut, and every
/// caller ranks by `(value, key)`: the larger value first, and the larger key
/// first among equal values — the order §6's threshold algorithm ranks by
/// too.  It selects the `k` best before it sorts them, so a list of tens of
/// thousands of entries is partitioned once and only its `k` best are
/// sorted.  When `rank` is total on the entries (distinct keys), the result
/// is the full sort's prefix.
pub fn top_k_by_key<T, R: Ord>(entries: &mut Vec<T>, k: usize, mut rank: impl FnMut(&T) -> R) {
    if k == 0 {
        entries.clear();
        return;
    }
    if entries.len() > k {
        entries.select_nth_unstable_by_key(k - 1, |entry| Reverse(rank(entry)));
        entries.truncate(k);
    }
    entries.sort_unstable_by_key(|entry| Reverse(rank(entry)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_aggregates_duplicates() {
        let counts = count_keys(vec!["a", "b", "a", "c", "a", "b"]);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 1);
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn counting_empty_input() {
        let counts: HashMap<u64, u64> = count_keys(Vec::<u64>::new());
        assert!(counts.is_empty());
        assert!(count_u64_keys(Vec::new()).is_empty());
    }

    #[test]
    fn summing_aggregates_values() {
        let sums = sum_by_key(vec![(1u64, 2.0), (2, 1.5), (1, 3.0)]);
        assert_eq!(sums[&1], 5.0);
        assert_eq!(sums[&2], 1.5);
    }

    #[test]
    fn merging_counts_adds_up() {
        let mut a = count_u64_keys(vec![1u64, 1, 2]);
        let b = count_keys(vec![1u64, 3]);
        merge_counts(&mut a, b);
        assert_eq!(a[&1], 3);
        assert_eq!(a[&2], 1);
        assert_eq!(a[&3], 1);
    }

    /// The larger value first, and the larger key first among equal values.
    fn by_count(counts: &HashMap<u64, u64, impl BuildHasher>, k: usize) -> Vec<(u64, u64)> {
        let mut entries: Vec<(u64, u64)> = counts.iter().map(|(&key, &c)| (key, c)).collect();
        top_k_by_key(&mut entries, k, |&(key, count)| (count, key));
        entries
    }

    #[test]
    fn top_k_by_key_orders_and_truncates() {
        let counts = count_keys(vec![5u64, 5, 5, 3, 3, 9]);
        assert_eq!(by_count(&counts, 2), vec![(5, 3), (3, 2)]);
        assert_eq!(by_count(&counts, 10).len(), 3);
        assert!(by_count(&counts, 0).is_empty());
    }

    #[test]
    fn top_k_by_key_keeps_the_larger_key_at_a_tie() {
        let counts = count_keys(vec![1u64, 2, 3, 4]);
        assert_eq!(by_count(&counts, 2), vec![(4, 1), (3, 1)]);
    }

    /// On a map where 250 keys share each of four counts, the `u64` kernel
    /// counts what `count_keys` counts, and the selected top-`k` is the full
    /// sort's prefix for every `k`, cuts inside a tie and at its edges
    /// included, in a std map and in a [`KeyMap`] alike.
    #[test]
    fn top_k_by_key_is_the_full_sorts_prefix_under_heavy_ties() {
        let keys: Vec<u64> = (0..1_000u64)
            .flat_map(|key| std::iter::repeat_n(key * 7, 1 + key as usize % 4))
            .collect();
        let kernel = count_u64_keys(keys.iter().copied());
        let std_map = count_keys(keys.iter().copied());
        assert_eq!(kernel.len(), std_map.len());
        assert!(std_map.iter().all(|(key, count)| kernel[key] == *count));
        let mut reference: Vec<(u64, u64)> = std_map.iter().map(|(&key, &c)| (key, c)).collect();
        reference.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        for k in [0, 1, 2, 249, 250, 251, 500, 999, 1_000, 1_500] {
            let want = &reference[..k.min(reference.len())];
            assert_eq!(by_count(&kernel, k), want, "k = {k}");
            assert_eq!(by_count(&std_map, k), want, "k = {k}");
        }
    }

    /// The key families of the spread test, `2¹⁶` keys each: dense ids,
    /// multiples of `2³²`, `rank << 40 | i` tie-break tags of 16 PEs, and
    /// keys ≡ 0 (mod `2²⁰`).
    fn families() -> [(&'static str, Vec<u64>); 4] {
        let n = 1u64 << 16;
        [
            ("dense ids", (0..n).collect()),
            ("multiples of 2^32", (0..n).map(|i| i << 32).collect()),
            (
                "rank << 40 | i tags",
                (0..n).map(|i| ((i % 16) << 40) | (i / 16)).collect(),
            ),
            ("multiples of 2^20", (0..n).map(|i| i << 20).collect()),
        ]
    }

    /// Whether `hash` spreads every family of [`families`] over the hash
    /// table's bucket bits and tag bits: its low 16 bits (the bucket of a
    /// `2¹⁶`-slot table) take at least `(1 − 1/e)·2¹⁶ − 6σ` distinct values —
    /// `2¹⁶` balls in `2¹⁶` bins fill `(1 − 1/e)·2¹⁶ ≈ 41 427` bins in
    /// expectation, with `σ² ≈ 2¹⁶·e⁻¹·(1 − 2e⁻¹)`, `σ ≈ 80` — and its top 7
    /// bits (the probe tag) all 128 values.  Returns the families that fail.
    fn unspread_families(hash: impl Fn(u64) -> u64) -> Vec<&'static str> {
        let m = (1u64 << 16) as f64;
        let e_inv = (-1.0f64).exp();
        let sigma = (m * e_inv * (1.0 - 2.0 * e_inv)).sqrt();
        let bound = ((1.0 - e_inv) * m - 6.0 * sigma) as usize;
        let families = families().into_iter();
        let failing = families.filter_map(|(name, keys)| {
            let mut buckets = vec![false; 1 << 16];
            let mut tags = [false; 128];
            for key in keys {
                let h = hash(key);
                buckets[(h & 0xFFFF) as usize] = true;
                tags[(h >> 57) as usize] = true;
            }
            let filled = buckets.iter().filter(|&&b| b).count();
            (filled < bound || !tags.iter().all(|&t| t)).then_some(name)
        });
        failing.collect()
    }

    /// [`KeyState`] spreads every family, under fixed seeds and fresh ones.
    /// The test has the power to fail: a bare `key × K` leaves the low bits
    /// of the multiples of `2³²` all zero, and the fold without its last
    /// xor-shift puts them in 7 598 buckets.
    #[test]
    fn the_key_hash_spreads_structured_keys_over_buckets_and_tags() {
        let hash_with = |state: KeyState| move |key: u64| state.hash_one(key);
        let seeds = [0, 1, u64::MAX, MULTIPLIER];
        let states = seeds.map(KeyState::with_seed).into_iter();
        for state in states.chain((0..4).map(|_| KeyState::default())) {
            let failing = unspread_families(hash_with(state));
            assert!(failing.is_empty(), "{state:?}: {failing:?}");
        }
        let bare = unspread_families(|key| key.wrapping_mul(MULTIPLIER));
        assert!(bare.contains(&"multiples of 2^32"), "{bare:?}");
        let seed = KeyState::default().seed;
        let unshifted = unspread_families(|key| folded_multiply(key ^ seed));
        assert!(unshifted.contains(&"multiples of 2^32"), "{unshifted:?}");
    }

    /// Each map draws its own seed, so two maps of the same keys iterate in
    /// unrelated orders — as two std maps do.
    #[test]
    fn every_map_draws_its_own_seed() {
        let orders: Vec<Vec<u64>> = (0..4)
            .map(|_| count_u64_keys(0..256).into_keys().collect())
            .collect();
        assert!(orders.windows(2).any(|w| w[0] != w[1]));
    }
}
