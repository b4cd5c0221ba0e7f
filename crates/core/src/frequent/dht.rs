//! Distributed hash table for sample counting (paper §7.1).
//!
//! Sampled objects are counted by hashing: a local count with key `x` is sent
//! to its owner PE [`owner_of`]`(x, p)`, a hash that behaves like a random
//! function, so the counting load spreads evenly over the PEs.  The owner is
//! a rotation of `x mod p` by a hash of `x div p`, so it is a bijection on
//! each quotient, and a share names its keys by their quotients alone (the
//! wire form below).  The paper routes these messages with
//! *indirect delivery* to keep the latency at `O(log p)` start-ups per PE;
//! this module does three things: local aggregation before sending (the
//! caller hands in a `key → count` map), a routed all-to-all of one
//! [`KeyCounts`] per destination, and aggregation on arrival.  Nothing is
//! merged on the way: the hypercube routing forwards
//! `(destination, origin, payload)` triples as they are, so an owner
//! receives one payload per origin PE and sums them itself.  Every payload
//! also carries its origin's sample size, so the same sum gives every PE the
//! global sample size (`aggregate_sample`): the §7 and §8 algorithms learn
//! it without a reduction of their own.
//!
//! The routing is a function of `p` alone (`routes_directly`).  Hypercube
//! routing pays a `log₂ p` volume multiplier for its `O(log p)` start-ups,
//! which is the right trade at large `p` but pure overhead at small `p`,
//! where direct delivery's `p − 1` start-ups are no worse than `log₂ p`
//! rounds and every key crosses the wire exactly once.  So the table
//! delivers directly up to `p = 8` and routes over the hypercube beyond;
//! no caller chooses, and the planner prices the route this rule takes.
//!
//! # The wire form of an aggregate
//!
//! Every aggregated sample of §7 — the DHT's per-destination shares, the
//! Naive baselines' shipments to the coordinator, the top-`k` merge's lists —
//! crosses the wire as a [`KeyCounts`]: the keys grouped into *runs* of equal
//! count, runs in ascending count, keys ascending inside a run, each run's
//! keys Rice-coded as sorted gaps (the coding of Golomb-coded sets).  After a
//! first word, the run count `R`, everything is one bit stream:
//!
//! ```text
//! [ R | per run: δ(count step) · δ(len − 1) · r (6 bits) · len Rice(r) gaps | zero padding ]
//! ```
//!
//! `δ` is [`commsim::codec::BitSink::number`]'s universal code, an
//! Elias-δ code that takes 0 and every `u64`: a number of bit length `L`
//! costs about `L + 2·log₂ L` bits.  The first run codes its count, every
//! later one the step `count − previous − 1` above its predecessor, so the
//! small, dense counts of a sample cost a few bits a run.  The `len` keys
//! `x₁ ≤ … ≤ x_len` of a run travel as their gaps `x₁ − 0, x₂ − x₁, …`, each
//! as its quotient `gap ≫ r` in unary (that many zero bits, then a one) and
//! its `r` low bits.  The Rice parameter is
//! `r = min(62, ⌊log₂ max(1, x_len / len)⌋)`, so a gap costs about `r + 2`
//! bits: dense keys — Zipf ranks, interned ids — cost a few bits each, and
//! even random 64-bit keys save about `log₂ len` bits.  All of it is packed
//! least significant bit first by [`commsim::codec::BitWriter`], the wire's
//! one bit coder, which also packs EC's and PEC's exact counts
//! ([`commsim::codec::PackedCounts`]).
//!
//! Decoding accepts only this canonical form.  Counts strictly ascend and
//! keys never descend inside a run by construction, so a decoded value's
//! runs are sorted too; a Rice parameter other than the one the decoded keys
//! imply, a bit length above 64, a count beyond `u64` and non-zero padding
//! are decode errors.
//!
//! A share of the hash table codes its keys' *quotients* `x div p` in place
//! of the keys.  It only ever goes to the keys' owner, and [`owner_of`] maps
//! the `p` keys of one quotient to `p` distinct PEs, so the owner rebuilds
//! each key from its quotient and its own rank ([`key_of`]).  The quotients
//! of a share span `1/p` of the keys' range while the share holds as many
//! keys, so its Rice parameter drops by `log₂ p` and every gap costs about
//! `log₂ p` bits less: the receiver's knowledge that it owns every key is
//! not paid for again on the wire.  This holds on both routes, because the
//! hypercube forwards each payload unchanged to its one destination.  Naive
//! shipments and the merge's lists go to a PE that owns nothing in
//! particular, so they carry the keys.
//!
//! A share of the hash table, and a Naive shipment, is a `Share`: the same
//! form with the size of the origin PE's sample, its *tally*, in the high
//! half of the first word, which the run count leaves empty.  A tally of
//! `2³² − 1` or more, which no sample here reaches, fills that half with
//! ones, and the rest of it, `tally − (2³² − 1)`, leads the bit stream.
//!
//! ```text
//! [ min(tally, 2³² − 1)·2³² + R | δ(rest) if escaped · per run: … as above … | zero padding ]
//! ```
//!
//! So the tally costs a share nothing: a tally-free share — an aggregate
//! that is no sample, as the streaming refresh and the counting oracle
//! route — is bit for bit its `KeyCounts`, and a sample's share costs what
//! its keys cost.
//!
//! So a message of `d` keys in `R` runs costs one word plus its codes and
//! headers in whole words, with no padding but the last word's.  A run
//! header takes 8 bits at the least and about 20 on a sample's shares.  While
//! every count step stays below `2³²`, a run of `len` keys takes at most
//! `64·(len + 1)` bits, so the message takes at most `1 + d + R` words;
//! `R ≤ d`, so that is **never more than the `1 + 2d` words of `d`
//! `(key, count)` pairs**.  As `1 + 2 + … + R ≤ m` for counts that sum to
//! `m`, `R ≤ (√(8m + 1) − 1)/2`: a sample of a skewed input, where thousands
//! of keys share each of the few small counts, costs little more than its
//! key codes.  A larger step costs at most a word more (only there can the
//! pair form be shorter — no sampled count gets near `2³²`).

use std::collections::{BTreeMap, HashMap};

use commsim::codec::{self, decode_error, BitCodec, BitReader, BitSink, MAX_RICE};
use commsim::{CommResult, Communicator};

use crate::util::{key_of, owner_of};

/// Largest PE count at which the table delivers directly: at `p ≤ 8` the
/// start-up gap (`p − 1` vs `⌈log₂ p⌉`) is at most 4 messages, while
/// hypercube routing would multiply the sample volume — the dominant cost of
/// PAC/EC at quick scale — by up to 3×.
const DIRECT_MAX_PES: usize = 8;

/// Whether [`aggregate_counts`] delivers directly at `p` PEs (`O(β·m + α·p)`
/// per PE, every key on the wire once) rather than over the hypercube
/// (`O(β·m·log p + α·log p)`, as the paper describes for large clusters).
pub(crate) fn routes_directly(p: usize) -> bool {
    p <= DIRECT_MAX_PES
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
/// Bits of a run header's Rice parameter.
const RICE_FIELD: u32 = 6;

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

    /// The runs as the wire carries them: `(count step, keys, r)`, the step
    /// from the previous run's count (the count itself for the first run)
    /// and the keys' Rice parameter.
    fn wire_runs(&self) -> impl Iterator<Item = (u64, &[u64], u32)> {
        let mut previous = None;
        self.runs().map(move |(count, keys)| {
            let step = previous.map_or(count, |previous: u64| count - previous - 1);
            previous = Some(count);
            (step, keys, rice_parameter(keys))
        })
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

/// The Rice parameter of a run of ascending `keys`, whose gaps sum to the
/// last key: `min(MAX_RICE, ⌊log₂ max(1, last / len)⌋)`, so a gap costs
/// about `r + 2` bits.
fn rice_parameter(keys: &[u64]) -> u32 {
    let last = keys.last().copied().unwrap_or(0);
    codec::rice_parameter(last.into(), keys.len())
}

impl KeyCounts {
    /// Write the runs into the stream.
    fn write_runs(&self, bits: &mut impl BitSink) {
        for (step, keys, r) in self.wire_runs() {
            bits.number(step);
            bits.number(keys.len() as u64 - 1);
            bits.put(u64::from(r), RICE_FIELD);
            for gap in gaps(keys) {
                bits.rice(gap, r);
            }
        }
    }

    /// Read `runs` runs from the stream.  Counts ascend and keys never
    /// descend by construction, so the decoded runs are sorted; the rest of
    /// the canonical form is checked.
    fn read_runs(runs: u64, bits: &mut BitReader) -> CommResult<Self> {
        // Every run takes a bit or more, and so does every key: a corrupt
        // run count or length fails here, not after looping over it or
        // reserving it.
        if runs > bits.bits_left() {
            return Err(decode_error::<Self>());
        }
        let mut counts = KeyCounts::default();
        let mut previous: Option<u64> = None;
        for _ in 0..runs {
            let step = bits.number()?;
            let count = match previous {
                None => Some(step),
                Some(previous) => previous.checked_add(step).and_then(|c| c.checked_add(1)),
            }
            .ok_or_else(decode_error::<Self>)?;
            previous = Some(count);
            let len_minus_one = bits.number()?;
            let rice = bits.take(RICE_FIELD)? as u32;
            if len_minus_one >= bits.bits_left() || rice > MAX_RICE {
                return Err(decode_error::<Self>());
            }
            let len = len_minus_one + 1;
            // A fresh run: its count is above every count before it.
            let keys = counts.run_mut(count);
            keys.reserve(len as usize);
            let mut key = 0u64;
            for _ in 0..len {
                key = key
                    .checked_add(bits.rice(rice)?)
                    .ok_or_else(decode_error::<Self>)?;
                keys.push(key);
            }
            if rice_parameter(keys) != rice {
                return Err(decode_error::<Self>());
            }
        }
        Ok(counts)
    }
}

/// The run count leads the stream as a whole word.
impl BitCodec for KeyCounts {
    fn write(&self, bits: &mut impl BitSink) {
        bits.put(self.runs().count() as u64, 64);
        self.write_runs(bits);
    }

    fn read(bits: &mut BitReader) -> CommResult<Self> {
        let runs = bits.take(64)?;
        KeyCounts::read_runs(runs, bits)
    }
}

/// One origin PE's aggregated sample for one receiver: the hash table's
/// shares, which carry the quotients `key / p` of the receiver's keys, and
/// the Naive baselines' shipments, which carry the keys.  Beside its keys
/// it carries the origin's *tally*, the size of the sample they were
/// counted from, so every receiver learns the global sample size without a
/// collective of its own.  On the wire the tally sits in the high half of
/// the [`KeyCounts`]' run-count word, so a share with a zero tally is its
/// [`KeyCounts`], word for word (the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Share {
    /// The size of the origin's sample (0 for an aggregate that is no
    /// sample).
    pub(crate) tally: u64,
    /// The origin's keys for the receiver.
    pub(crate) counts: KeyCounts,
}

/// The largest tally the run-count word holds; from it on the rest of the
/// tally leads the bit stream.
const TALLY_ESCAPE: u64 = u32::MAX as u64;

impl Share {
    /// The run-count word: the run count below bit 32, the tally (up to the
    /// escape) above.
    fn first_word(&self) -> u64 {
        let runs = self.counts.runs().count() as u64;
        assert!(runs < 1 << 32, "a share holds fewer than 2³² runs");
        runs | self.tally.min(TALLY_ESCAPE) << 32
    }

    /// The rest of an escaped tally, coded at the head of the bit stream.
    fn tally_rest(&self) -> Option<u64> {
        self.tally.checked_sub(TALLY_ESCAPE)
    }
}

impl BitCodec for Share {
    fn write(&self, bits: &mut impl BitSink) {
        bits.put(self.first_word(), 64);
        if let Some(rest) = self.tally_rest() {
            bits.number(rest);
        }
        self.counts.write_runs(bits);
    }

    fn read(bits: &mut BitReader) -> CommResult<Self> {
        let first = bits.take(64)?;
        let tally = match first >> 32 {
            TALLY_ESCAPE => TALLY_ESCAPE
                .checked_add(bits.number()?)
                .ok_or_else(decode_error::<Self>)?,
            tally => tally,
        };
        let counts = KeyCounts::read_runs(first & TALLY_ESCAPE, bits)?;
        Ok(Share { tally, counts })
    }
}

/// Route locally aggregated `key → count` pairs to their owner PEs and return
/// this PE's share of the global counts, delivered directly up to 8 PEs and
/// over the hypercube beyond, each share coding its keys' quotients (the
/// [module docs](self)).
///
/// Every key appears in the result of exactly one PE, with the global sum of
/// all PEs' local counts for it.  This is `aggregate_sample` of an
/// aggregate that is no sample: its shares carry a zero tally.
pub fn aggregate_counts<C: Communicator>(
    comm: &C,
    local_counts: HashMap<u64, u64>,
) -> HashMap<u64, u64> {
    aggregate_sample(comm, local_counts, 0).0
}

/// [`aggregate_counts`] of this PE's aggregated sample of `sample_size`
/// elements: every share carries that size as its tally, and every PE
/// receives one share from every PE, so the tallies it receives sum to the
/// global sample size.  Returns this PE's owned counts and that sum, the
/// same on every PE.
pub(crate) fn aggregate_sample<C: Communicator>(
    comm: &C,
    local_counts: HashMap<u64, u64>,
    sample_size: u64,
) -> (HashMap<u64, u64>, u64) {
    let direct = routes_directly(comm.size());
    route(comm, local_counts, sample_size, direct)
}

/// [`aggregate_sample`] by direct delivery or over the hypercube; the tests
/// force either routing through it.
fn route<C: Communicator>(
    comm: &C,
    local_counts: HashMap<u64, u64>,
    tally: u64,
    direct: bool,
) -> (HashMap<u64, u64>, u64) {
    let p = comm.size();
    // Partition the local aggregate by owner; a share carries its keys'
    // quotients, which its owner turns back into keys.
    let mut per_dest = vec![
        Share {
            tally,
            counts: KeyCounts::default(),
        };
        p
    ];
    for (key, count) in local_counts {
        per_dest[owner_of(key, p)]
            .counts
            .push(key / p as u64, count);
    }
    for share in &mut per_dest {
        share.counts.sort_runs();
    }
    // Both routes hand every PE one share from every origin.
    let received = if direct {
        comm.alltoall(per_dest)
    } else {
        comm.alltoall_indirect(per_dest)
    };
    // The shares say how many entries arrive: size the map once (growing it
    // re-hashes every key several times, which costs more than the routing).
    let mut owned: HashMap<u64, u64> =
        HashMap::with_capacity(received.iter().map(|share| share.counts.len()).sum());
    for share in &received {
        for (quotient, count) in share.counts.iter() {
            let key = key_of(quotient, comm.rank(), p);
            debug_assert_eq!(
                owner_of(key, p),
                comm.rank(),
                "key routed to the wrong owner"
            );
            *owned.entry(key).or_insert(0) += count;
        }
    }
    (owned, received.iter().map(|share| share.tally).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::codec::BitWriter;
    use commsim::{run_spmd, run_spmd_seq, CommError, WordCodec, WordReader, World};
    use datagen::Zipf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seqkit::hashagg::count_keys;

    use crate::planner::Algorithm;
    use crate::util::tests::check_bit_stream;
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
        let mut r = WordReader::new(&words);
        let back = KeyCounts::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "decode must consume the whole encoding");
        assert_eq!(back, counts);
        let mut expected = pairs.to_vec();
        expected.sort_unstable();
        assert_eq!(sorted(&back), expected);
        words.len()
    }

    /// Words from bits written in stream order, `'0'` and `'1'` (spaces
    /// ignored), packed lowest bit first — the wire's order, spelled out by
    /// hand.
    fn stream(bits: &str) -> Vec<u64> {
        let bits: Vec<u64> = bits
            .bytes()
            .filter(|b| *b != b' ')
            .map(|b| u64::from(b - b'0'))
            .collect();
        bits.chunks(64)
            .map(|chunk| chunk.iter().enumerate().map(|(i, &bit)| bit << i).sum())
            .collect()
    }

    #[test]
    fn key_counts_wire_layout_is_runs_of_equal_count_in_ascending_count() {
        let counts: KeyCounts = [(7, 3), (4, 1), (9, 3), (5, 1), (6, 300)]
            .into_iter()
            .collect();
        let mut expected = vec![3];
        expected.extend(stream(concat!(
            // Count 1, keys 4 and 5: δ(1) = `01`, δ(len − 1 = 1) = `01`,
            // r = ⌊log₂(5/2)⌋ = 1 in six bits; gaps 4 = 2·2 + 0 and
            // 1 = 0·2 + 1 — quotient in unary, then the low bit.
            "01 01 100000 001 0 1 1 ",
            // Count 3, step 3 − 1 − 1 = 1; keys 7 and 9: r = ⌊log₂(9/2)⌋ = 2;
            // gaps 7 = 1·4 + 3 and 2 = 0·4 + 2.
            "01 01 010000 01 11 1 01 ",
            // Count 300, step 296 of bit length 9: width 4 in unary, 9's low
            // three bits, 296's low eight; δ(0) = `1`; key 6: r = 2, gap
            // 6 = 1·4 + 2.  60 bits in all, one word.
            "00001 100 00010100 1 010000 01 01",
        )));
        assert_eq!(check_bit_stream(&counts), expected);
        // The largest counts: the first step is u64::MAX − 1 (bit length 64,
        // width 7, 63 low bits), the next one 0.  97 bits, two words.
        let counts: KeyCounts = [(2, u64::MAX), (1, u64::MAX - 1)].into_iter().collect();
        let mut expected = vec![2];
        let ones = "1".repeat(62);
        expected.extend(stream(&format!(
            "00000001 000000 0{ones} 1 000000 01  1 1 100000 01 0"
        )));
        assert_eq!(check_bit_stream(&counts), expected);
        check_bit_stream(&KeyCounts::default());
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
    fn key_counts_roundtrip_and_cost_their_bits_in_whole_words() {
        assert_eq!(roundtrip(&[]), 1);
        // All counts equal, dense keys: one run, a 20-bit header (δ(1),
        // δ(99), r = 0) and 100 one-bit gaps and a leading zero — 219 bits in
        // 4 words.
        let equal: Vec<(u64, u64)> = (0..100).map(|key| (key, 1)).collect();
        assert_eq!(roundtrip(&equal), 1 + 4);
        // All counts distinct, on both sides of the direct-indexed range:
        // one key per run, headers of 8 to 13 bits and codes of about
        // log₂ key + 2 bits — 31 words, where pairs take 201.
        let distinct: Vec<(u64, u64)> = (0..100).map(|key| (key, key * 7)).collect();
        assert_eq!(roundtrip(&distinct), 1 + 31);
        // The same key twice is two entries (a zero gap).
        assert_eq!(roundtrip(&[(5, 2), (5, 2), (5, 9)]), 1 + 1);
        // Counts at every size: 0 costs one bit, 2³² − 2 and 2³² − 1 each 43,
        // u64::MAX 77.  Keys 1 and 2 fit with either in one word.
        let edge = u64::from(u32::MAX);
        assert_eq!(roundtrip(&[(1, 0), (2, 0)]), 1 + 1);
        assert_eq!(roundtrip(&[(1, edge - 1), (2, edge - 1)]), 1 + 1);
        assert_eq!(roundtrip(&[(1, edge), (2, edge)]), 1 + 1);
        assert_eq!(roundtrip(&[(1, u64::MAX), (u64::MAX, u64::MAX)]), 1 + 4);
        assert_eq!(
            roundtrip(&[(1, 0), (2, edge - 1), (3, edge), (4, u64::MAX), (5, 0)]),
            1 + 3
        );
        // Random 40-bit keys still save about log₂ d bits each: 64 keys in
        // 36 words (r = 33, about 36 bits a key).
        let mut rng = StdRng::seed_from_u64(0x25);
        let random: Vec<(u64, u64)> = (0..64).map(|_| (rng.gen_range(0..1u64 << 40), 1)).collect();
        assert_eq!(roundtrip(&random), 1 + 36);
    }

    #[test]
    fn key_counts_never_cost_more_than_pairs() {
        let mut rng = StdRng::seed_from_u64(0x24);
        for case in 0..300 {
            let d = rng.gen_range(0..60usize);
            // Skewed like a sample, flat, and wide enough to leave the
            // direct-indexed range; no count step reaches 2³².  Keys
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

    /// A message of `runs` runs whose bit stream `write` writes.
    fn message(runs: u64, write: impl FnOnce(&mut BitWriter)) -> Vec<u64> {
        let mut out = vec![runs];
        let mut bits = BitWriter::new(&mut out);
        write(&mut bits);
        bits.finish();
        out
    }

    /// Write one run: its count step, its length, `r` and the gaps coded
    /// with it.
    fn run(bits: &mut BitWriter, step: u64, r: u32, gaps: &[u64]) {
        bits.number(step);
        bits.number(gaps.len() as u64 - 1);
        bits.put(u64::from(r), RICE_FIELD);
        gaps.iter().for_each(|&gap| bits.rice(gap, r));
    }

    #[test]
    fn corrupt_key_counts_fail_to_decode_without_panic_or_allocation() {
        let decode = |words: &[u64]| KeyCounts::decode(&mut WordReader::new(words));
        let is_decode_error = |r: CommResult<KeyCounts>| matches!(r, Err(CommError::Decode { .. }));
        // Coded runs spread over several words, a key near u64::MAX, and
        // counts at both ends of the range.
        let mut pairs: Vec<(u64, u64)> = (0..200).map(|key| (key * 3, 2)).collect();
        pairs.extend([(9, 5), (1 << 40, 5), (4, u64::MAX), (u64::MAX - 1, 0)]);
        check_bit_stream(&pairs.into_iter().collect::<KeyCounts>());
        // Keys 4 and 5 at count 1, as encoded (r = 1), decode.
        let keys_4_5 = |r: u32| message(1, |bits| run(bits, 1, r, &[4, 1]));
        let decoded = decode(&keys_4_5(1)).unwrap();
        assert_eq!(decoded.iter().collect::<Vec<_>>(), [(4, 1), (5, 1)]);
        // The same keys at another Rice parameter than they imply decode to
        // the same keys, but are not the canonical form; r = 63 is beyond
        // the coder.
        assert!(is_decode_error(decode(&keys_4_5(0))));
        assert!(is_decode_error(decode(&keys_4_5(2))));
        assert!(is_decode_error(decode(&message(1, |bits| {
            run(bits, 1, 62, &[1]);
        }))));
        assert!(is_decode_error(decode(&message(1, |bits| {
            bits.number(1);
            bits.number(0);
            bits.put(63, RICE_FIELD);
            bits.put(1, 1);
            bits.put(0, 63);
        }))));
        // A length code above 64: width 7 in unary and low bits 000001 — bit
        // length 65 — in the count step, and in a run's length.
        let long = |bits: &mut BitWriter| {
            bits.put(1 << 7, 8);
            bits.put(1, 6);
            bits.put(u64::MAX, 64);
        };
        assert!(is_decode_error(decode(&message(1, long))));
        assert!(is_decode_error(decode(&message(1, |bits| {
            bits.number(1);
            long(bits);
        }))));
        // A count step beyond u64: the first run at u64::MAX, then a step of
        // 0; and a step of u64::MAX after count 0.
        for (first, second) in [(u64::MAX, 0), (0, u64::MAX)] {
            assert!(is_decode_error(decode(&message(2, |bits| {
                run(bits, first, 0, &[1]);
                run(bits, second, 0, &[1]);
            }))));
        }
        // A run longer than the bits left (a decoder that trusted it would
        // reserve it): 46 keys where the header leaves 45 bits of ones, and
        // 2⁶⁴ − 1 keys.
        for len in [46, u64::MAX] {
            assert!(is_decode_error(decode(&message(1, |bits| {
                bits.number(1);
                bits.number(len - 1);
                bits.put(0, RICE_FIELD);
                bits.put(u64::MAX >> 19, 45);
            }))));
        }
        // A gap beyond u64 (quotient 4 at r = 62), and two gaps of 3·2⁶² that
        // each fit but whose sum, the second key, does not.
        assert!(is_decode_error(decode(&message(1, |bits| {
            bits.number(1);
            bits.number(0);
            bits.put(62, RICE_FIELD);
            bits.put(1 << 4, 5);
            bits.put(0, 62);
        }))));
        assert!(is_decode_error(decode(&message(1, |bits| {
            run(bits, 1, 62, &[3 << 62, 3 << 62]);
        }))));
        assert!(decode(&message(1, |bits| run(bits, 1, 62, &[3 << 62]))).is_ok());
        // A run count beyond the bits that remain (a decoder that trusted it
        // would loop 2⁶⁴ times), and one more run than the stream holds.
        assert!(is_decode_error(decode(&[u64::MAX])));
        assert!(is_decode_error(decode(&[65, u64::MAX])));
        let mut two = keys_4_5(1);
        two[0] = 2;
        assert!(is_decode_error(decode(&two)));
    }

    /// A share is its `KeyCounts` with the tally in the run-count word's
    /// high half: it costs the same words whatever the tally, until the
    /// tally reaches the escape and its rest leads the stream.  An escaped
    /// tally beyond `u64` fails to decode.
    #[test]
    fn a_share_carries_its_tally_in_the_run_count_word() {
        let decode = |words: &[u64]| Share::decode(&mut WordReader::new(words));
        let pairs: Vec<(u64, u64)> = (0..90).map(|key| (key * 5, key % 4 + 1)).collect();
        let counts: KeyCounts = pairs.into_iter().collect();
        let keys = wire(&counts);
        for tally in [0, 1, 4_000, TALLY_ESCAPE - 1, TALLY_ESCAPE, u64::MAX] {
            let share = Share {
                tally,
                counts: counts.clone(),
            };
            let words = check_bit_stream(&share);
            assert_eq!(words[0], keys[0] | tally.min(TALLY_ESCAPE) << 32);
            let rest = match tally.checked_sub(TALLY_ESCAPE) {
                None => keys[1..].to_vec(),
                Some(rest) => message(0, |bits| {
                    bits.number(rest);
                    counts.write_runs(bits);
                })[1..]
                    .to_vec(),
            };
            assert_eq!(words[1..], rest, "tally {tally}");
        }
        // An escaped tally whose rest overflows `u64`, and a plain
        // `KeyCounts` whose run count carries a tally.
        let overflow = message(TALLY_ESCAPE << 32, |bits| bits.number(u64::MAX));
        assert!(decode(&overflow).is_err());
        let mut tallied = keys.clone();
        tallied[0] |= 7 << 32;
        assert!(KeyCounts::decode(&mut WordReader::new(&tallied)).is_err());
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
    fn the_table_delivers_directly_up_to_8_pes_and_over_the_hypercube_beyond() {
        assert!(routes_directly(1));
        assert!(routes_directly(2));
        assert!(routes_directly(DIRECT_MAX_PES));
        assert!(!routes_directly(DIRECT_MAX_PES + 1));
        assert!(!routes_directly(1024));
    }

    #[test]
    fn direct_delivery_moves_fewer_words_than_hypercube_at_small_p() {
        // Hypercube routing forwards each pair up to log2(p) times; direct
        // delivery sends it once.  Same owned result either way.
        let p = 8;
        let run = |direct: bool| {
            run_spmd(p, move |comm| {
                let local: HashMap<u64, u64> = (0..64u64)
                    .map(|k| (k * 8 + comm.rank() as u64, 1))
                    .collect();
                let before = comm.stats_snapshot();
                let (owned, _) = route(comm, local, 0, direct);
                let words = comm.stats_snapshot().since(&before).bottleneck_words();
                (words, owned.len())
            })
        };
        let direct = run(true);
        let hypercube = run(false);
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

    /// The wire form changes what a share costs, not who owns what: on both
    /// sides of the routing rule every PE ends up with the sequential
    /// oracle's map, and under direct delivery a PE sends each other PE
    /// exactly the `encoded_len` of its keys' quotients for that owner.
    #[test]
    fn owned_maps_match_the_oracle_and_a_direct_share_costs_its_encoded_len() {
        for p in [2usize, 5, 8, 16] {
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
                    .map(|(&key, &count)| (key / p as u64, count))
                    .collect();
                share.encoded_len() as u64
            };
            let out = run_spmd(p, |comm| {
                let before = comm.stats_snapshot();
                let owned = aggregate_counts(comm, locals[comm.rank()].clone());
                (owned, comm.stats_snapshot().since(&before).sent_words)
            });
            for (rank, (owned, sent)) in out.results.iter().enumerate() {
                assert_eq!(owned, &expected[rank], "p={p} rank {rank}");
                if routes_directly(p) {
                    let words: u64 = (0..p)
                        .filter(|&dst| dst != rank)
                        .map(|dst| share_words(rank, dst))
                        .sum();
                    assert_eq!(*sent, words, "p={p} rank {rank}");
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
                Algorithm::Pec => (EXACT, 30888, true),
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
        let params = FrequentParams::new(8, 0.03, 1e-3, 0x24);
        for algorithm in Algorithm::ALL {
            for (engine, results) in on_every_engine(p, &parts, algorithm, &params) {
                for (result, _) in results {
                    assert_eq!(result, golden(algorithm), "{algorithm:?} {engine}");
                }
            }
        }
    }

    /// One PE's result and its traffic: messages and words, each direction.
    type Metered = (TopKFrequentResult, [u64; 4]);

    fn run_metered<C: Communicator>(
        comm: &C,
        parts: &[Vec<u64>],
        algorithm: Algorithm,
        params: &FrequentParams,
    ) -> Metered {
        let result = algorithm.run(comm, &parts[comm.rank()], params);
        let s = comm.stats_snapshot();
        let traffic = [
            s.sent_messages,
            s.sent_words,
            s.received_messages,
            s.received_words,
        ];
        (result, traffic)
    }

    /// Every PE's [`run_metered`] on the threaded engine and on the replay
    /// engine's pool and inline drivers.
    fn on_every_engine(
        p: usize,
        parts: &[Vec<u64>],
        algorithm: Algorithm,
        params: &FrequentParams,
    ) -> [(&'static str, Vec<Metered>); 3] {
        let mux = World::new(p).mux(|c| run_metered(c, parts, algorithm, params));
        [
            (
                "threads",
                run_spmd(p, |c| run_metered(c, parts, algorithm, params)).results,
            ),
            ("mux", mux.fault_free().results),
            (
                "inline",
                run_spmd_seq(p, |c| run_metered(c, parts, algorithm, params)).results,
            ),
        ]
    }

    /// Above 8 PEs every §7 algorithm's table crosses the hypercube: the
    /// three engines agree on every PE's answer and on its metered traffic.
    #[test]
    fn every_algorithm_agrees_across_engines_over_the_hypercube() {
        let p = 16;
        assert!(!routes_directly(p));
        let parts = zipf_parts(p, 1 << 11, 1 << 12, 0x2416);
        let params = FrequentParams::new(8, 0.03, 1e-3, 0x24);
        for algorithm in Algorithm::ALL {
            let [(_, reference), rest @ ..] = on_every_engine(p, &parts, algorithm, &params);
            assert!(reference.windows(2).all(|w| w[0].0 == w[1].0));
            for (engine, results) in rest {
                assert_eq!(results, reference, "{algorithm:?} {engine}");
            }
        }
    }
}
