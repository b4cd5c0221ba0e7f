//! Distributed hash table for sample counting (paper §7.1).
//!
//! Sampled objects are counted by hashing: a local count with key `x` is sent
//! to PE `h(x)`, where `h` behaves like a random function, so the counting
//! load spreads evenly over the PEs.  The paper routes these messages with
//! *indirect delivery* to keep the latency at `O(log p)` start-ups per PE;
//! this module does three things: local aggregation before sending (the
//! caller hands in a `key → count` map), a routed all-to-all of one
//! [`KeyCounts`] per destination, and aggregation on arrival.  Nothing is
//! merged on the way: the hypercube routing forwards
//! `(destination, origin, payload)` triples as they are, so an owner
//! receives one payload per origin PE and sums them itself.
//!
//! The routing *fan-out* is tunable ([`DhtFanout`]): hypercube routing pays
//! a `log₂ p` volume multiplier for its `O(log p)` start-ups, which is the
//! right trade at large `p` but pure overhead at small `p`, where direct
//! delivery's `p − 1` start-ups are no worse than `log₂ p` rounds and every
//! key crosses the wire exactly once.  `Auto` (the default everywhere,
//! including [`super::FrequentParams`]) switches between the two at
//! [`DhtFanout::AUTO_DIRECT_MAX_PES`] PEs.
//!
//! # The wire form of an aggregate
//!
//! Every aggregated sample of §7 — the DHT's per-destination shares, the
//! Naive baselines' shipments to the coordinator, the winners' all-gather —
//! crosses the wire as a [`KeyCounts`]: the keys grouped into *runs* of equal
//! count, runs in ascending count, keys ascending inside a run, each run's
//! keys Rice-coded as sorted gaps (the coding of Golomb-coded sets).
//!
//! ```text
//! [ runs | header₁ codes₁ | header₂ codes₂ | … ]
//!          header = count ≪ 32 | r ≪ 26 | len
//! ```
//!
//! A count of `2³² − 1` or more does not fit the header: its count field is
//! all ones and the count follows in a word of its own.  A run of `2²⁶` keys
//! or more is split into several runs of the same count.  The `len` keys
//! `x₁ ≤ … ≤ x_len` of a run travel as their gaps `x₁ − 0, x₂ − x₁, …`, each
//! as its quotient `gap ≫ r` in unary (that many zero bits, then a one) and
//! its `r` low bits, packed least significant bit first into whole words.
//! The Rice parameter is `r = ⌊log₂ max(1, x_len / len)⌋`, so a gap costs
//! about `r + 2` bits: dense keys — Zipf ranks, interned ids — cost a few bits
//! each, and even random 64-bit keys save about `log₂ len` bits.  A run whose
//! code would not be shorter than its `len` keys travels raw instead, flagged
//! by `r = 63`.  Decoding accepts only this canonical order — `(count, key)`
//! ascending through the message — so a decoded value's runs are sorted too.
//!
//! So a message of `d` keys in `R` runs, none of them escaped, costs at most
//! `1 + d + R` words.  `R ≤ d`, so that is **never more than the `1 + 2d`
//! words of `d` `(key, count)` pairs**, and as `1 + 2 + … + R ≤ m` for counts
//! that sum to `m`, `R ≤ (√(8m + 1) − 1)/2`: a sample of a skewed input, where
//! thousands of keys share each of the few small counts, costs little more
//! than its codes.  An escaped run costs one word more (only there can the
//! pair form be shorter — no sampled count gets near 2³²).

use std::collections::{BTreeMap, HashMap};

use commsim::codec::{decode_error, WordCodec, WordReader};
use commsim::{CommResult, Communicator};

use crate::util::owner_of;

/// How locally aggregated `key → count` shares are routed to their owner PEs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DhtFanout {
    /// Direct delivery up to [`DhtFanout::AUTO_DIRECT_MAX_PES`] PEs,
    /// hypercube routing beyond — the volume-optimal choice at small `p`
    /// without giving up the logarithmic latency at large `p`.
    #[default]
    Auto,
    /// Always direct: every key crosses the wire once
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

/// A `key → count` multiset in the form it crosses the wire: the keys grouped
/// by count, ascending inside each run (layout and cost in the [module
/// docs](self)).  Keys are not deduplicated — a receiver sums what it gets
/// into a map.  Each run is sorted once, when the value is collected, so the
/// wire — and `==` — depend only on the multiset, not on the order the pairs
/// came in (a `HashMap`'s, say).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyCounts {
    /// `small[c]` holds the keys of count `c < SMALL_COUNTS`, indexed
    /// directly (grown on demand): almost every key of a sample lands here,
    /// and grouping it costs one push, no comparison.
    small: Vec<Vec<u64>>,
    /// The keys of every larger count.
    large: BTreeMap<u64, Vec<u64>>,
}

/// Counts below this are grouped by direct indexing.
const SMALL_COUNTS: usize = 256;
/// The header's count field when the count follows in its own word.
const ESCAPED: u64 = u32::MAX as u64;
/// Bits of the header's length field.
const LEN_BITS: u32 = 26;
/// Longest run one header can announce.
const MAX_RUN: usize = (1 << LEN_BITS) - 1;
/// The header's Rice parameter for a run whose keys travel raw.
const RAW: u32 = 63;

impl KeyCounts {
    /// Add `key` with `count`; the caller sorts the runs when it is done.
    fn push(&mut self, key: u64, count: u64) {
        self.run_mut(count).push(key);
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.runs().map(|(_, keys)| keys.len()).sum()
    }

    /// Whether there is no key.
    pub fn is_empty(&self) -> bool {
        self.runs().next().is_none()
    }

    /// The `(key, count)` entries, in ascending count, ascending key within a
    /// count.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs()
            .flat_map(|(count, keys)| keys.iter().map(move |&key| (key, count)))
    }

    fn run_mut(&mut self, count: u64) -> &mut Vec<u64> {
        match usize::try_from(count) {
            Ok(c) if c < SMALL_COUNTS => {
                if self.small.len() <= c {
                    self.small.resize_with(c + 1, Vec::new);
                }
                &mut self.small[c]
            }
            _ => self.large.entry(count).or_default(),
        }
    }

    /// Establish the ascending key order inside every run.
    fn sort_runs(&mut self) {
        let small = self.small.iter_mut();
        for keys in small.chain(self.large.values_mut()) {
            keys.sort_unstable();
        }
    }

    /// The non-empty runs `(count, keys)`, in ascending count.
    fn runs(&self) -> impl Iterator<Item = (u64, &[u64])> {
        let small = self.small.iter().enumerate();
        small
            .map(|(count, keys)| (count as u64, keys.as_slice()))
            .chain(self.large.iter().map(|(&c, keys)| (c, keys.as_slice())))
            .filter(|(_, keys)| !keys.is_empty())
    }

    /// The runs as the wire carries them: none longer than [`MAX_RUN`].
    fn wire_runs(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.runs()
            .flat_map(|(count, keys)| keys.chunks(MAX_RUN).map(move |run| (count, run)))
    }
}

impl FromIterator<(u64, u64)> for KeyCounts {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(pairs: I) -> Self {
        let mut counts = KeyCounts::default();
        for (key, count) in pairs {
            counts.push(key, count);
        }
        counts.sort_runs();
        counts
    }
}

/// The gaps of ascending `keys`: the first key, then successive differences.
fn gaps(keys: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let previous = std::iter::once(&0).chain(keys);
    keys.iter()
        .zip(previous)
        .map(|(key, previous)| key - previous)
}

/// How a run of ascending `keys` travels: its Rice parameter ([`RAW`] for
/// raw keys) and the words it takes after its header.
fn run_layout(keys: &[u64]) -> (u32, usize) {
    let Some(&last) = keys.last() else {
        return (RAW, 0);
    };
    let len = keys.len() as u64;
    let r = (last / len).max(1).ilog2();
    // The quotients sum to at most `last ≫ r < 2·len`: no overflow.
    let bits = gaps(keys).map(|gap| gap >> r).sum::<u64>() + len * u64::from(1 + r);
    let words = bits.div_ceil(64) as usize;
    if r < RAW && words < keys.len() {
        (r, words)
    } else {
        (RAW, keys.len())
    }
}

/// Packs bits least significant first into whole words.
struct BitWriter<'a> {
    out: &'a mut Vec<u64>,
    word: u64,
    /// Bits of `word` filled, always below 64.
    used: u32,
}

impl BitWriter<'_> {
    /// Append the `bits ≤ 64` low bits of `value`, whose other bits are zero.
    fn put(&mut self, value: u64, bits: u32) {
        self.word |= value << self.used;
        let free = 64 - self.used;
        if bits < free {
            self.used += bits;
        } else {
            self.out.push(self.word);
            // Two shifts: `free` may be 64.
            self.word = value >> (free - 1) >> 1;
            self.used = bits - free;
        }
    }

    /// `gap` as its quotient `gap ≫ r` in unary — that many zero bits, then a
    /// one — and its `r < 63` low bits.
    fn gap(&mut self, gap: u64, r: u32) {
        let mut zeros = gap >> r;
        while zeros >= 64 {
            self.put(0, 64);
            zeros -= 64;
        }
        self.put(1 << zeros, zeros as u32 + 1);
        self.put(gap & ((1 << r) - 1), r);
    }

    /// Push the last, partly filled word.
    fn finish(self) {
        if self.used > 0 {
            self.out.push(self.word);
        }
    }
}

/// Reads what [`BitWriter`] packed, taking a word from the reader only when
/// it needs another bit.
struct BitReader<'r, 'a> {
    words: &'r mut WordReader<'a>,
    /// The `left` unread bits of the current word, shifted down to bit 0;
    /// the bits above them are zero.
    word: u64,
    left: u32,
}

impl BitReader<'_, '_> {
    fn refill(&mut self) -> CommResult<()> {
        self.word = self
            .words
            .next_word()
            .ok_or_else(decode_error::<KeyCounts>)?;
        self.left = 64;
        Ok(())
    }

    /// One gap coded with Rice parameter `r < 63`.
    fn gap(&mut self, r: u32) -> CommResult<u64> {
        let mut quotient = 0u64;
        while self.word == 0 {
            // Every unread bit is a zero of the unary quotient.
            quotient += u64::from(self.left);
            self.refill()?;
        }
        let zeros = self.word.trailing_zeros();
        quotient += u64::from(zeros);
        // Two shifts: `zeros + 1` may be 64.
        self.word = self.word >> zeros >> 1;
        self.left -= zeros + 1;
        if quotient > u64::MAX >> r {
            return Err(decode_error::<KeyCounts>());
        }
        let mask = (1 << r) - 1;
        let mut low = self.word & mask;
        if r <= self.left {
            self.word >>= r;
            self.left -= r;
        } else {
            let got = self.left;
            self.refill()?;
            low |= (self.word << got) & mask;
            self.word >>= r - got;
            self.left -= r - got;
        }
        Ok(quotient << r | low)
    }
}

impl WordCodec for KeyCounts {
    fn encoded_len(&self) -> usize {
        1 + self
            .wire_runs()
            .map(|(count, keys)| 1 + usize::from(count >= ESCAPED) + run_layout(keys).1)
            .sum::<usize>()
    }

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.wire_runs().count() as u64);
        for (count, keys) in self.wire_runs() {
            let (r, _) = run_layout(keys);
            out.push(count.min(ESCAPED) << 32 | u64::from(r) << LEN_BITS | keys.len() as u64);
            if count >= ESCAPED {
                out.push(count);
            }
            if r == RAW {
                out.extend_from_slice(keys);
            } else {
                let mut bits = BitWriter {
                    out: &mut *out,
                    word: 0,
                    used: 0,
                };
                for gap in gaps(keys) {
                    bits.gap(gap, r);
                }
                bits.finish();
            }
        }
    }

    /// Every encoding lists its `(count, key)` pairs in ascending order, and
    /// only such a message decodes — so the decoded runs are sorted too.
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        let runs = r.next_word().ok_or_else(decode_error::<Self>)?;
        // Every run has a header word: a corrupt run count fails here and
        // not after looping over it.  Every key takes a word of a raw run
        // and at least a bit of a coded one, so nothing below reserves more
        // keys than the remaining words can carry.
        if runs > r.remaining() as u64 {
            return Err(decode_error::<Self>());
        }
        let mut counts = KeyCounts::default();
        let mut last = (0, 0);
        for _ in 0..runs {
            let header = r.next_word().ok_or_else(decode_error::<Self>)?;
            let len = (header & MAX_RUN as u64) as usize;
            let rice = (header >> LEN_BITS) as u32 & RAW;
            let count = match header >> 32 {
                ESCAPED => r.next_word().ok_or_else(decode_error::<Self>)?,
                count => count,
            };
            let capacity = if rice == RAW {
                r.remaining()
            } else {
                r.remaining().saturating_mul(64)
            };
            if len > capacity {
                return Err(decode_error::<Self>());
            }
            let keys = counts.run_mut(count);
            let start = keys.len();
            keys.reserve(len);
            if rice == RAW {
                for _ in 0..len {
                    keys.push(r.next_word().ok_or_else(decode_error::<Self>)?);
                }
            } else {
                let mut bits = BitReader {
                    words: &mut *r,
                    word: 0,
                    left: 0,
                };
                let mut key = 0u64;
                for _ in 0..len {
                    key = key
                        .checked_add(bits.gap(rice)?)
                        .ok_or_else(decode_error::<Self>)?;
                    keys.push(key);
                }
            }
            let run = &keys[start..];
            if let (Some(&first), Some(&end)) = (run.first(), run.last()) {
                if (count, first) < last || !run.is_sorted() {
                    return Err(decode_error::<Self>());
                }
                last = (count, end);
            }
        }
        Ok(counts)
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
    let mut per_dest = vec![KeyCounts::default(); p];
    for (key, count) in local_counts {
        per_dest[owner_of(key, p)].push(key, count);
    }
    per_dest.iter_mut().for_each(KeyCounts::sort_runs);
    let received = if fanout.is_direct(p) {
        comm.alltoall(per_dest)
    } else {
        comm.alltoall_indirect(per_dest)
    };
    // The shares say how many entries arrive: size the map once (growing it
    // re-hashes every key several times, which costs more than the routing).
    let mut owned: HashMap<u64, u64> =
        HashMap::with_capacity(received.iter().map(KeyCounts::len).sum());
    for share in &received {
        for (key, count) in share.iter() {
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
    use commsim::{run_spmd, run_spmd_seq, CommError, World};
    use datagen::Zipf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seqkit::hashagg::count_keys;

    use crate::planner::Algorithm;
    use crate::{FrequentParams, TopKFrequentResult};

    fn wire(counts: &KeyCounts) -> Vec<u64> {
        let mut out = Vec::new();
        counts.encode(&mut out);
        out
    }

    fn sorted(counts: &KeyCounts) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = counts.iter().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Encode, decode, and check the codec's two invariants; returns the
    /// encoded length.
    fn roundtrip(pairs: &[(u64, u64)]) -> usize {
        let counts: KeyCounts = pairs.iter().copied().collect();
        assert_eq!(counts.len(), pairs.len());
        assert_eq!(counts.is_empty(), pairs.is_empty());
        let words = wire(&counts);
        assert_eq!(words.len(), counts.encoded_len(), "{pairs:?}");
        let mut r = WordReader::new(&words);
        let back = KeyCounts::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "decode must consume the whole encoding");
        assert_eq!(back, counts);
        let mut expected = pairs.to_vec();
        expected.sort_unstable();
        assert_eq!(sorted(&back), expected);
        words.len()
    }

    /// The header of a run of `len` keys with `count` and Rice parameter `r`.
    fn header(count: u64, r: u32, len: u64) -> u64 {
        count << 32 | u64::from(r) << LEN_BITS | len
    }

    #[test]
    fn key_counts_wire_layout_is_runs_of_equal_count_in_ascending_count() {
        let counts: KeyCounts = [(7, 3), (4, 1), (9, 3), (5, 1), (6, 300)]
            .into_iter()
            .collect();
        assert_eq!(
            wire(&counts),
            vec![
                3,
                // Keys 4, 5: r = ⌊log₂(5/2)⌋ = 1, gaps 4 = 0b10·2 + 0 and
                // 1 = 0·2 + 1 — bits `001 0` then `1 1`, lowest first.
                header(1, 1, 2),
                0b11_0100,
                // Keys 7, 9: r = ⌊log₂(9/2)⌋ = 2, gaps 7 = 1·4 + 3 and
                // 2 = 0·4 + 2 — bits `01 11` then `1 01`.
                header(3, 2, 2),
                0b101_1110,
                // One key: its code would take a word too, so it travels raw.
                header(300, RAW, 1),
                6,
            ]
        );
        // The first count that does not fit the header travels in its own word.
        let fits = u64::from(u32::MAX) - 1;
        let counts: KeyCounts = [(1, fits), (2, fits + 1)].into_iter().collect();
        assert_eq!(
            wire(&counts),
            vec![
                2,
                header(fits, RAW, 1),
                1,
                header(ESCAPED, RAW, 1),
                fits + 1,
                2
            ]
        );
    }

    /// The same multiset encodes to the same words whatever order its pairs
    /// come in — a `HashMap`'s iteration order does not reach the wire.
    #[test]
    fn key_counts_encode_the_same_whatever_the_push_order() {
        let mut rng = StdRng::seed_from_u64(0x25);
        let pairs: Vec<(u64, u64)> = (0..500)
            .map(|_| (rng.gen_range(0..1u64 << 12), rng.gen_range(1..5)))
            .collect();
        let forward: KeyCounts = pairs.iter().copied().collect();
        let backward: KeyCounts = pairs.iter().rev().copied().collect();
        assert_eq!(wire(&forward), wire(&backward));
        assert_eq!(forward, backward);
    }

    #[test]
    fn key_counts_roundtrip_and_cost_one_word_per_key_and_per_run() {
        assert_eq!(roundtrip(&[]), 1);
        // All counts equal, dense keys: one run of 100 one-bit gaps and a
        // leading zero, r = 0 — 199 bits in 4 words.
        let equal: Vec<(u64, u64)> = (0..100).map(|key| (key, 1)).collect();
        assert_eq!(roundtrip(&equal), 1 + 1 + 4);
        // All counts distinct, on both sides of the direct-indexed range: one
        // raw key per run, the pair form's size.
        let distinct: Vec<(u64, u64)> = (0..100).map(|key| (key, key * 7)).collect();
        assert_eq!(roundtrip(&distinct), 1 + 2 * 100);
        // The same key twice is two entries (a zero gap).
        assert_eq!(roundtrip(&[(5, 2), (5, 2), (5, 9)]), 1 + 2 + 1 + 1);
        // The count field's edge: 0 and 2³² − 2 fit it, 2³² − 1 and beyond
        // take the escape word.  Keys 1 and 2 fit one coded word.
        let edge = u64::from(u32::MAX);
        assert_eq!(roundtrip(&[(1, 0), (2, 0)]), 1 + 1 + 1);
        assert_eq!(roundtrip(&[(1, edge - 1), (2, edge - 1)]), 1 + 1 + 1);
        assert_eq!(roundtrip(&[(1, edge), (2, edge)]), 1 + 2 + 1);
        assert_eq!(roundtrip(&[(1, u64::MAX), (u64::MAX, u64::MAX)]), 1 + 2 + 2);
        assert_eq!(
            roundtrip(&[(1, 0), (2, edge - 1), (3, edge), (4, u64::MAX), (5, 0)]),
            1 + 4 + 2 + 4
        );
        // Random 40-bit keys still save about log₂ d bits each: 64 keys in
        // 36 words (r = 33, about 36 bits a key).
        let mut rng = StdRng::seed_from_u64(0x25);
        let random: Vec<(u64, u64)> = (0..64).map(|_| (rng.gen_range(0..1u64 << 40), 1)).collect();
        assert_eq!(roundtrip(&random), 1 + 1 + 36);
    }

    #[test]
    fn key_counts_never_cost_more_than_pairs() {
        let mut rng = StdRng::seed_from_u64(0x24);
        for case in 0..300 {
            let d = rng.gen_range(0..60usize);
            // Skewed like a sample, flat, and wide enough to leave the
            // direct-indexed range; no count needs the escape word.  Keys
            // dense, 40-bit, and from the whole range.
            let max_count = [4u64, 300, 1 << 31][case % 3];
            let max_key = [1u64 << 8, 1 << 40, u64::MAX][case / 3 % 3];
            let pairs: Vec<(u64, u64)> = (0..d)
                .map(|_| (rng.gen_range(0..max_key), rng.gen_range(0..max_count)))
                .collect();
            let mut distinct: Vec<u64> = pairs.iter().map(|&(_, count)| count).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let words = roundtrip(&pairs);
            assert!(words <= 1 + d + distinct.len(), "{pairs:?}");
            assert!(words <= 1 + 2 * d);
            // 1 + 2 + … + R ≤ m for R distinct positive counts summing to m.
            let m: u64 = pairs.iter().map(|&(_, count)| count).sum();
            let positive = distinct.iter().filter(|&&count| count > 0).count() as f64;
            assert!(positive <= ((8.0 * m as f64 + 1.0).sqrt() - 1.0) / 2.0);
        }
    }

    #[test]
    fn corrupt_key_counts_fail_to_decode_without_panic_or_allocation() {
        let decode = |words: &[u64]| KeyCounts::decode(&mut WordReader::new(words));
        let is_decode_error = |r: CommResult<KeyCounts>| matches!(r, Err(CommError::Decode { .. }));
        // A coded run spread over several words, a raw run, an escaped one.
        let mut pairs: Vec<(u64, u64)> = (0..200).map(|key| (key * 3, 2)).collect();
        pairs.extend([(9, 5), (1 << 40, 5), (4, u64::MAX)]);
        let good = wire(&pairs.into_iter().collect());
        assert!(decode(&good).is_ok());
        // Truncated anywhere: inside the codes, the raw keys, the escape
        // word, a header, down to nothing.
        for cut in 0..good.len() {
            assert!(is_decode_error(decode(&good[..cut])), "cut at {cut}");
        }
        // A run count beyond the words that remain (a decoder that trusted
        // it would loop 2⁶⁴ times).
        assert!(is_decode_error(decode(&[u64::MAX])));
        assert!(is_decode_error(decode(&[3, 1 << 32, 1 << 32])));
        // A coded run longer than 64 keys per remaining word, a raw run
        // longer than one key per remaining word (either would reserve more
        // than the words can carry), and a count's escape word missing.
        assert!(is_decode_error(decode(&[1, header(1, 0, 65), u64::MAX])));
        assert!(is_decode_error(decode(&[
            1,
            header(1, 0, MAX_RUN as u64),
            7
        ])));
        assert!(is_decode_error(decode(&[1, header(1, RAW, 2), 7])));
        assert!(is_decode_error(decode(&[1, header(ESCAPED, RAW, 1), 7])));
        // A unary quotient running off the end: no one bit in what is left.
        assert!(is_decode_error(decode(&[1, header(1, 0, 1), 0])));
        assert!(is_decode_error(decode(&[1, header(1, 0, 2), 1])));
        // A gap beyond u64 (quotient 4 at r = 62), and two gaps of 3·2⁶² that
        // each fit but whose sum, the second key, does not.
        assert!(is_decode_error(decode(&[1, header(1, 62, 1), 1 << 4, 0])));
        assert!(is_decode_error(decode(&[
            1,
            header(1, 62, 2),
            1 << 3,
            1 << 5,
            0
        ])));
        assert!(decode(&[1, header(1, 62, 1), 1 << 3, 0]).is_ok());
        // Out of the order every encoding follows: descending keys in a raw
        // run, a run of lower count after a higher one, and a run of the same
        // count that does not continue above the last key.
        assert!(is_decode_error(decode(&[1, header(1, RAW, 2), 9, 4])));
        assert!(is_decode_error(decode(&[
            2,
            header(3, RAW, 1),
            4,
            header(1, RAW, 1),
            9
        ])));
        assert!(is_decode_error(decode(&[
            2,
            header(3, RAW, 1),
            9,
            header(3, RAW, 1),
            4
        ])));
        assert!(decode(&[2, header(3, RAW, 1), 4, header(3, RAW, 1), 9]).is_ok());
    }

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

    fn zipf_parts(p: usize, per_pe: usize, universe: usize, seed: u64) -> Vec<Vec<u64>> {
        let zipf = Zipf::new(universe, 1.0);
        (0..p)
            .map(|r| zipf.sample_many(per_pe, &mut StdRng::seed_from_u64(seed + r as u64)))
            .collect()
    }

    /// The wire form changes what a share costs, not who owns what: under
    /// both routings every PE ends up with the sequential oracle's map, and
    /// under direct delivery a PE sends each other PE exactly the
    /// `encoded_len` of its keys for that owner.
    #[test]
    fn owned_maps_match_the_oracle_and_a_direct_share_costs_its_encoded_len() {
        for p in [2usize, 5, 8] {
            let locals: Vec<HashMap<u64, u64>> = zipf_parts(p, 4000, 1 << 10, 0x2400)
                .into_iter()
                .map(count_keys)
                .collect();
            let mut expected: Vec<HashMap<u64, u64>> = vec![HashMap::new(); p];
            for (&key, &count) in locals.iter().flatten() {
                *expected[owner_of(key, p)].entry(key).or_insert(0) += count;
            }
            let share_words = |src: usize, dst: usize| {
                let share: KeyCounts = locals[src]
                    .iter()
                    .filter(|(&key, _)| owner_of(key, p) == dst)
                    .map(|(&key, &count)| (key, count))
                    .collect();
                share.encoded_len() as u64
            };
            for fanout in [DhtFanout::Direct, DhtFanout::Hypercube] {
                let out = run_spmd(p, |comm| {
                    let before = comm.stats_snapshot();
                    let owned = aggregate_counts_with(comm, locals[comm.rank()].clone(), fanout);
                    (owned, comm.stats_snapshot().since(&before).sent_words)
                });
                for (rank, (owned, sent)) in out.results.iter().enumerate() {
                    assert_eq!(owned, &expected[rank], "p={p} {fanout:?} rank {rank}");
                    if fanout == DhtFanout::Direct {
                        let words: u64 = (0..p)
                            .filter(|&dst| dst != rank)
                            .map(|dst| share_words(rank, dst))
                            .sum();
                        assert_eq!(*sent, words, "p={p} rank {rank}");
                    }
                }
            }
        }
    }

    /// Same answers, fewer words: every algorithm's result on one Zipf(1.0)
    /// input (p = 4, n = 2¹⁷, k = 8, ε = 0.03 — PAC samples two thirds of it,
    /// EC 297 elements), as recorded at commit fa30347 with `(key, count)`
    /// pairs on the wire, under both routings and on all three engines.
    #[test]
    fn results_match_the_golden_values_recorded_with_pairs_on_the_wire() {
        const SAMPLED: [(u64, u64); 8] = [
            (1, 14497),
            (2, 7490),
            (3, 4938),
            (4, 3829),
            (5, 3018),
            (6, 2509),
            (7, 2043),
            (8, 1831),
        ];
        const EXACT: [(u64, u64); 8] = [
            (1, 14515),
            (2, 7442),
            (3, 4932),
            (4, 3804),
            (5, 2980),
            (6, 2493),
            (7, 2087),
            (8, 1811),
        ];
        const CENTRALIZED: [(u64, u64); 8] = [
            (1, 14509),
            (2, 7401),
            (3, 4926),
            (4, 3807),
            (5, 2975),
            (6, 2501),
            (7, 2067),
            (8, 1779),
        ];
        let golden = |algorithm: Algorithm| {
            let (items, sample_size, exact_counts) = match algorithm {
                Algorithm::Pac => (SAMPLED, 85937, false),
                Algorithm::Ec => (EXACT, 297, true),
                Algorithm::Pec => (EXACT, 34072, true),
                Algorithm::Naive | Algorithm::NaiveTree => (CENTRALIZED, 85956, false),
            };
            TopKFrequentResult {
                items: items.to_vec(),
                sample_size,
                exact_counts,
            }
        };
        let p = 4;
        let parts = zipf_parts(p, 1 << 15, 1 << 12, 0x2400);
        for fanout in [DhtFanout::Direct, DhtFanout::Hypercube] {
            let params = FrequentParams::new(8, 0.03, 1e-3, 0x24).with_dht_fanout(fanout);
            for algorithm in Algorithm::ALL {
                let threads = run_spmd(p, |c| algorithm.run(c, &parts[c.rank()], &params));
                let mux = World::new(p)
                    .mux(|c| algorithm.run(c, &parts[c.rank()], &params))
                    .fault_free();
                let inline = run_spmd_seq(p, |c| algorithm.run(c, &parts[c.rank()], &params));
                for (engine, results) in [
                    ("threads", &threads.results),
                    ("mux", &mux.results),
                    ("inline", &inline.results),
                ] {
                    for result in results {
                        assert_eq!(
                            result,
                            &golden(algorithm),
                            "{algorithm:?} {fanout:?} {engine}"
                        );
                    }
                }
            }
        }
    }
}
