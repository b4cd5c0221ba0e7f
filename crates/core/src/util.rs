//! Small shared utilities for the distributed algorithms.

use commsim::codec::{
    bit_length, decode_error, rice_parameter, BitCodec, BitReader, BitSink, MAX_RICE,
};
use commsim::{CommData, CommResult, Communicator, ReduceOp, WordCodec, WordReader};

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

impl OrderedF64 {
    /// The order-preserving `u64` key of the value: `a.key() < b.key()` iff
    /// `a < b`.  `total_cmp`'s sign flip — a negative value's bits are all
    /// inverted, a positive value's sign bit is set — so a score can rank
    /// where a count does.
    pub(crate) fn key(self) -> u64 {
        let bits = self.0.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }

    /// The inverse of [`OrderedF64::key`].
    pub(crate) fn from_key(key: u64) -> Self {
        OrderedF64(f64::from_bits(if key >> 63 == 1 {
            key & !(1 << 63)
        } else {
            !key
        }))
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

/// Component-wise all-reduction of a pair in one message: `op_a` combines
/// the first components, `op_b` the second.  (A `Vec` of two would carry a
/// third word, its length.)  The pair follows the reduction tree either
/// component would follow alone, so a sum of `f64`s adds in the same order.
pub(crate) fn allreduce_pair<C, A, B>(
    comm: &C,
    pair: (A, B),
    op_a: fn(A, A) -> A,
    op_b: fn(B, B) -> B,
) -> (A, B)
where
    C: Communicator,
    A: CommData + Copy,
    B: CommData + Copy,
{
    comm.allreduce(
        pair,
        ReduceOp::custom(move |x: &(A, B), y: &(A, B)| (op_a(x.0, y.0), op_b(x.1, y.1))),
    )
}

/// Global minimum over per-PE optional values, where `None` is a PE with
/// nothing to offer (`+∞`): one all-reduction of the `Option`.
pub(crate) fn global_min<C: Communicator, K: Ord + Clone + CommData>(
    comm: &C,
    value: Option<K>,
) -> Option<K> {
    global_extremum(comm, value, Ord::min)
}

/// Dual of [`global_min`] (`None` = `−∞`).
pub(crate) fn global_max<C: Communicator, K: Ord + Clone + CommData>(
    comm: &C,
    value: Option<K>,
) -> Option<K> {
    global_extremum(comm, value, Ord::max)
}

/// The one optional-extremum all-reduction behind [`global_min`] and
/// [`global_max`]: `pick` combines two present values, `None` is neutral.
fn global_extremum<C: Communicator, K: Ord + Clone + CommData>(
    comm: &C,
    value: Option<K>,
    pick: fn(K, K) -> K,
) -> Option<K> {
    comm.allreduce(
        value,
        ReduceOp::custom(move |a: &Option<K>, b: &Option<K>| match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(x), Some(y)) => Some(pick(x.clone(), y.clone())),
        }),
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
/// Bits of a tie-break word above the index: the rank.
const TIE_BREAK_RANK_BITS: u32 = u64::BITS - TIE_BREAK_INDEX_BITS;

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
        p as u64 <= 1 << TIE_BREAK_RANK_BITS,
        "{p} PEs do not fit the 24-bit tie-break rank"
    );
    debug_assert!(rank < p);
    (rank as u64) << TIE_BREAK_INDEX_BITS
}

/// A key the §4.1 selection ([`crate::unsorted`]) selects on.  Its level
/// samples and base case cross the wire as [`SortedBlock`]s of tie-broken
/// `(key, tag)` pairs inside the bit stream of a level message, and the key
/// type owns that block's part of the stream.
///
/// The default part is the pairs' own words: `δ(len) · δ(words)`, then the
/// `words` words of the pairs' encodings, each a 64-bit field.  A key type
/// takes it with an empty impl.  `u64` overrides it with codes at about the
/// block's information content (the layout on [`SortedBlock`]).
pub trait SelectKey: Ord + Clone + CommData {
    /// Write `block` into `bits`.
    fn write_block(block: &SortedBlock<Self>, bits: &mut impl BitSink) {
        let mut words = Vec::new();
        block.pairs.iter().for_each(|pair| pair.encode(&mut words));
        bits.number(block.pairs.len() as u64);
        bits.number(words.len() as u64);
        words.into_iter().for_each(|word| bits.put(word, 64));
    }

    /// Read the pairs [`SelectKey::write_block`] wrote, consuming exactly its
    /// bits; [`SortedBlock`]'s reader checks their order.
    fn read_block(bits: &mut BitReader<'_, '_>) -> CommResult<Vec<(Self, u64)>> {
        let error = decode_error::<SortedBlock<Self>>;
        let len = bits.number()?;
        let words = bits.number()?;
        // A pair takes a word or more (its tag), and a word 64 bits: a
        // corrupt count fails here, not after reserving it.
        if len > words || words > bits.bits_left() / 64 {
            return Err(error());
        }
        let words = (0..words)
            .map(|_| bits.take(64))
            .collect::<CommResult<Vec<u64>>>()?;
        let mut r = WordReader::new(&words);
        let pairs = (0..len)
            .map(|_| <(Self, u64)>::decode(&mut r))
            .collect::<CommResult<Vec<_>>>()?;
        if r.remaining() != 0 {
            return Err(error());
        }
        Ok(pairs)
    }
}

impl SelectKey for String {}
impl SelectKey for OrderedF64 {}
impl<A: SelectKey, B: SelectKey> SelectKey for (A, B) {}
impl<T: SelectKey> SelectKey for std::cmp::Reverse<T> {}

/// Distinct tie-broken `(key, tag)` pairs in ascending order: one PE's share
/// of a §4.1 level sample or base case, or — merged hop by hop up a reduction
/// tree — the union of several shares.  Merging is associative and
/// commutative, so a union does not depend on the order the tree combines
/// the shares in.
///
/// A block is a bit stream ([`BitCodec`]): the level messages of
/// [`crate::unsorted`] write their counts and then the block into one
/// stream, and a block sent alone is its stream padded to a word.  A block of `u64` keys is coded at about its
/// information content.  The tag `rank ≪ 40 | index` of [`tie_break_offset`]
/// travels as its *dense* word `rank ≪ w_i | index`, which orders alike:
///
/// ```text
/// δ(len) · r_v (6 bits) · w_r (5 bits) · w_i (6 bits) · r_t (6 bits)
///   · δ(value₁) · raw(tag₁)
///   · per later element: Rice(value gap, r_v) · tag
/// ```
///
/// `δ` is [`BitSink::number`]'s universal code and `raw` the dense word at
/// `w_r + w_i` bits.  An element's tag is `raw` where the value changes and
/// Rice(dense gap − 1, `r_t`) inside a run of equal values, whose dense
/// words strictly ascend.  The four fields are functions of the block:
/// `w_r` and `w_i` are the bit lengths of its largest rank and largest
/// index, and a Rice parameter is [`rice_parameter`] of the gaps it codes
/// (the value gaps; the in-run dense gaps less one), so a gap costs under
/// `r + 3` bits on average.  The empty block is `δ(0)` alone, one bit.
///
/// Decoding accepts only this canonical form: a field other than the one the
/// decoded pairs imply, a rank of `2^w_r` or more, a value or dense word
/// beyond `u64`, a length beyond the bits left and non-zero padding are
/// decode errors.  Other keys take [`SelectKey`]'s default part, and their
/// reader rejects pairs out of order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedBlock<T> {
    pairs: Vec<(T, u64)>,
}

impl<T: SelectKey> SortedBlock<T> {
    /// Sort `pairs` into a block.
    ///
    /// # Panics
    ///
    /// Panics if two pairs are equal.
    pub fn new(mut pairs: Vec<(T, u64)>) -> Self {
        pairs.sort_unstable();
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "a sorted block holds distinct pairs"
        );
        SortedBlock { pairs }
    }

    /// The pairs, ascending.
    pub fn pairs(&self) -> &[(T, u64)] {
        &self.pairs
    }

    /// The union of two blocks of disjoint pairs, merged in one pass.
    pub fn merge(&self, other: &Self) -> Self {
        let (mut a, mut b) = (self.pairs.as_slice(), other.pairs.as_slice());
        let mut pairs = Vec::with_capacity(a.len() + b.len());
        while let (Some(x), Some(y)) = (a.first(), b.first()) {
            debug_assert!(x != y, "merged blocks share a pair");
            if x < y {
                pairs.push(x.clone());
                a = &a[1..];
            } else {
                pairs.push(y.clone());
                b = &b[1..];
            }
        }
        pairs.extend_from_slice(a);
        pairs.extend_from_slice(b);
        SortedBlock { pairs }
    }
}

/// A block is its key type's part of a stream ([`SelectKey::write_block`]);
/// its reader also checks that the pairs ascend.
impl<T: SelectKey> BitCodec for SortedBlock<T> {
    fn write(&self, bits: &mut impl BitSink) {
        T::write_block(self, bits);
    }

    fn read(bits: &mut BitReader) -> CommResult<Self> {
        let pairs = T::read_block(bits)?;
        if pairs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(decode_error::<Self>());
        }
        Ok(SortedBlock { pairs })
    }
}

impl SelectKey for u64 {
    fn write_block(block: &SortedBlock<u64>, bits: &mut impl BitSink) {
        let pairs = &block.pairs;
        write_u64_block(pairs, StreamFields::of(pairs), bits);
    }

    fn read_block(bits: &mut BitReader<'_, '_>) -> CommResult<Vec<(u64, u64)>> {
        let error = decode_error::<SortedBlock<u64>>;
        let len = bits.number()?;
        if len == 0 {
            return Ok(Vec::new());
        }
        let fields = StreamFields {
            value_rice: bits.take(RICE_FIELD)? as u32,
            rank_width: bits.take(RANK_FIELD)? as u32,
            index_width: bits.take(INDEX_FIELD)? as u32,
            tag_rice: bits.take(RICE_FIELD)? as u32,
        };
        // Every element takes a bit or more: a corrupt length fails here,
        // not after reserving it.
        if fields.value_rice > MAX_RICE
            || fields.tag_rice > MAX_RICE
            || fields.rank_width > TIE_BREAK_RANK_BITS
            || fields.index_width > TIE_BREAK_INDEX_BITS
            || len > bits.bits_left()
        {
            return Err(error());
        }
        let width = fields.tag_width();
        let mut pairs = Vec::with_capacity(len as usize);
        let mut value = bits.number()?;
        let mut dense = bits.take(width)?;
        pairs.push((value, fields.tag(dense)));
        for _ in 1..len {
            let gap = bits.rice(fields.value_rice)?;
            value = value.checked_add(gap).ok_or_else(error)?;
            dense = if gap == 0 {
                let next = dense
                    .checked_add(bits.rice(fields.tag_rice)?)
                    .and_then(|dense| dense.checked_add(1))
                    .ok_or_else(error)?;
                // The rank above `w_i` must fit its `w_r` bits.
                if next.checked_shr(width).unwrap_or(0) != 0 {
                    return Err(error());
                }
                next
            } else {
                bits.take(width)?
            };
            pairs.push((value, fields.tag(dense)));
        }
        if StreamFields::of(&pairs) != fields {
            return Err(error());
        }
        Ok(pairs)
    }
}

/// Bits of a Rice-parameter field.
const RICE_FIELD: u32 = bit_length(MAX_RICE as u64);
/// Bits of the rank-width field.
const RANK_FIELD: u32 = bit_length(TIE_BREAK_RANK_BITS as u64);
/// Bits of the index-width field.
const INDEX_FIELD: u32 = bit_length(TIE_BREAK_INDEX_BITS as u64);

/// The four header fields of a `u64` block's stream ([`SortedBlock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamFields {
    value_rice: u32,
    rank_width: u32,
    index_width: u32,
    tag_rice: u32,
}

impl StreamFields {
    /// The fields `pairs`, distinct and ascending, imply.
    fn of(pairs: &[(u64, u64)]) -> Self {
        // The bit length of a maximum is that of the bitwise or.
        let (ranks, indices) = pairs.iter().fold((0, 0), |(ranks, indices), &(_, tag)| {
            (
                ranks | tag >> TIE_BREAK_INDEX_BITS,
                indices | tag & INDEX_MASK,
            )
        });
        let mut fields = StreamFields {
            value_rice: 0,
            rank_width: bit_length(ranks),
            index_width: bit_length(indices),
            tag_rice: 0,
        };
        let (mut in_run, mut in_run_gaps) = (0u128, 0usize);
        for w in pairs.windows(2).filter(|w| w[0].0 == w[1].0) {
            in_run += u128::from(fields.dense(w[1].1) - fields.dense(w[0].1) - 1);
            in_run_gaps += 1;
        }
        let span = match (pairs.first(), pairs.last()) {
            (Some(first), Some(last)) => last.0 - first.0,
            _ => 0,
        };
        fields.value_rice = rice_parameter(span.into(), pairs.len().saturating_sub(1));
        fields.tag_rice = rice_parameter(in_run, in_run_gaps);
        fields
    }

    /// Bits of a raw dense word.
    fn tag_width(self) -> u32 {
        self.rank_width + self.index_width
    }

    /// The dense word of `tag`: its rank right above its `w_i` index bits.
    fn dense(self, tag: u64) -> u64 {
        (tag >> TIE_BREAK_INDEX_BITS) << self.index_width | tag & INDEX_MASK
    }

    /// The tag of a dense word below `2^(w_r + w_i)`.
    fn tag(self, dense: u64) -> u64 {
        (dense >> self.index_width) << TIE_BREAK_INDEX_BITS | dense & ((1 << self.index_width) - 1)
    }
}

/// The index bits of a tie-break word.
const INDEX_MASK: u64 = (1 << TIE_BREAK_INDEX_BITS) - 1;

/// Write the stream of `pairs`, distinct and ascending, under `fields` —
/// the fields they imply, or other ones for a test of the decoder.
fn write_u64_block(pairs: &[(u64, u64)], fields: StreamFields, bits: &mut impl BitSink) {
    bits.number(pairs.len() as u64);
    let Some(&(first, first_tag)) = pairs.first() else {
        return;
    };
    bits.put(fields.value_rice.into(), RICE_FIELD);
    bits.put(fields.rank_width.into(), RANK_FIELD);
    bits.put(fields.index_width.into(), INDEX_FIELD);
    bits.put(fields.tag_rice.into(), RICE_FIELD);
    bits.number(first);
    bits.put(fields.dense(first_tag), fields.tag_width());
    for w in pairs.windows(2) {
        let ((previous, previous_tag), (value, tag)) = (w[0], w[1]);
        bits.rice(value - previous, fields.value_rice);
        if value == previous {
            let gap = fields.dense(tag) - fields.dense(previous_tag) - 1;
            bits.rice(gap, fields.tag_rice);
        } else {
            bits.put(fields.dense(tag), fields.tag_width());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use commsim::codec::{BitWriter, PackedCounts};
    use commsim::CommData;

    /// The property every bit stream of the wire keeps, checked on
    /// `value`: it round-trips, every truncation and the stream extended by
    /// a word fail to decode, and every single bit flipped decodes to a
    /// [`commsim::CommError::Decode`] or to a value that re-encodes to
    /// exactly the flipped words — only a canonical stream decodes, and no
    /// stream panics.  A decode must consume every word, as the transport's
    /// does.  Returns the words.
    pub(crate) fn check_bit_stream<T>(value: &T) -> Vec<u64>
    where
        T: BitCodec + PartialEq + std::fmt::Debug,
    {
        let encode = |value: &T| {
            let mut words = Vec::new();
            value.encode(&mut words);
            words
        };
        let decode = |words: &[u64]| {
            let mut r = WordReader::new(words);
            let value = T::decode(&mut r)?;
            match r.remaining() {
                0 => Ok(value),
                _ => Err(decode_error::<T>()),
            }
        };
        let words = encode(value);
        assert_eq!(decode(&words).as_ref(), Ok(value));
        let extended = [&words[..], &[0]].concat();
        let cuts = (0..words.len()).map(|cut| &words[..cut]);
        for short in cuts.chain([&extended[..]]) {
            assert!(decode(short).is_err(), "{value:?} decodes from {short:?}");
        }
        for at in 0..words.len() {
            for bit in 0..64 {
                let mut flipped = words.clone();
                flipped[at] ^= 1 << bit;
                match decode(&flipped) {
                    Ok(other) => {
                        assert_eq!(encode(&other), flipped, "{value:?} flipped to {other:?}")
                    }
                    Err(e) => assert!(
                        matches!(e, commsim::CommError::Decode { .. }),
                        "{flipped:?} gave {e}"
                    ),
                }
            }
        }
        words
    }

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
            assert_eq!(words.len(), 1);
            let mut r = WordReader::new(&words);
            let back = OrderedF64::decode(&mut r).expect("decode");
            assert_eq!(back.0.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn ordered_f64_keys_sort_like_total_cmp_and_invert() {
        let mut values = vec![
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        values.sort_by(f64::total_cmp);
        let keys: Vec<u64> = values.iter().map(|&v| OrderedF64(v).key()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{values:?}");
        for (&v, &key) in values.iter().zip(&keys) {
            assert_eq!(OrderedF64::from_key(key).0.to_bits(), v.to_bits());
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

    /// Words from bits written in stream order, `'0'` and `'1'` (spaces
    /// ignored), packed lowest bit first.
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

    /// The tag of local element `index` on PE `rank`.
    fn tag(rank: u64, index: u64) -> u64 {
        rank << TIE_BREAK_INDEX_BITS | index
    }

    #[test]
    fn sorted_blocks_merge_in_either_order() {
        let a = SortedBlock::new(vec![(5u64, tag(0, 2)), (1, tag(0, 0)), (5, tag(0, 1))]);
        let b = SortedBlock::new(vec![(5u64, tag(1, 0)), (0, tag(1, 1))]);
        let union = a.merge(&b);
        assert_eq!(union, b.merge(&a));
        assert_eq!(
            union.pairs(),
            [
                (0, tag(1, 1)),
                (1, tag(0, 0)),
                (5, tag(0, 1)),
                (5, tag(0, 2)),
                (5, tag(1, 0))
            ]
        );
    }

    #[test]
    #[should_panic(expected = "distinct pairs")]
    fn a_sorted_block_rejects_a_repeated_pair() {
        SortedBlock::new(vec![(3u64, 7u64), (3, 7)]);
    }

    /// The stream bit by bit: three equal values on three PEs, so the run of
    /// their tags crosses rank boundaries.
    #[test]
    fn u64_block_wire_layout_is_value_gaps_and_dense_tags() {
        let block = SortedBlock::new(vec![(9u64, tag(0, 5)), (9, tag(1, 3)), (9, tag(3, 0))]);
        // Ranks 0, 1, 3: w_r = 2; indices 5, 3, 0: w_i = 3.  Dense words
        // 0·8 + 5 = 5, 1·8 + 3 = 11, 3·8 + 0 = 24; their gaps less one, 5
        // and 12, have mean 8: r_t = 3.  One value: r_v = 0.
        let expected = stream(concat!(
            // δ(3): bit length 2 is width 2 in unary, its low bit 0, then
            // 3's low bit 1.
            "001 0 1 ",
            // r_v = 0, w_r = 2, w_i = 3, r_t = 3, lowest bit first.
            "000000 01000 110000 110000 ",
            // δ(9): bit length 4 is width 3 in unary and low bits 00, then
            // 9's low bits 001; the first tag raw: 5 in w_r + w_i = 5 bits.
            "0001 00 100 10100 ",
            // Value gap 0 at r_v = 0, then the dense gap less one, 5 =
            // 0·8 + 5, at r_t = 3; value gap 0, then 12 = 1·8 + 4.  53 bits,
            // one word.
            "1 1 101 1 01 001",
        ));
        assert_eq!(check_bit_stream(&block), expected);
    }

    #[test]
    fn u64_blocks_cost_their_bits_in_whole_words() {
        // The empty block is δ(0), one bit.
        assert_eq!(
            check_bit_stream(&SortedBlock::<u64>::new(Vec::new())),
            vec![1]
        );
        // One value on 100 elements of one PE: a 12-bit length, the 23-bit
        // fields, δ(5) in 6 bits, a 7-bit first tag (w_r = 0, w_i = 7) and
        // two one-bit codes (zero gaps at r_v = r_t = 0) for each of the 99
        // others — 246 bits in 4 words, where the pairs take 201.
        let run: Vec<(u64, u64)> = (0..100).map(|i| (5, tag(0, i))).collect();
        assert_eq!(run.encoded_len(), 201);
        assert_eq!(check_bit_stream(&SortedBlock::new(run)).len(), 4);
        // The same run spread over 4 PEs, 25 elements each, in rank order:
        // w_r = 2, w_i = 5, every dense gap 1 except the three that cross a
        // rank boundary, 8 each (gap less one 7: r_t = ⌊log₂(21/99)⌋ = 0,
        // so each costs 8 unary bits).  12 + 23 + 6 + 7 bits, then 99 value
        // bits and 99 + 3·7 tag bits: 267 bits in 5 words.
        let spread: Vec<(u64, u64)> = (0..100).map(|i| (5, tag(i / 25, i % 25))).collect();
        assert_eq!(check_bit_stream(&SortedBlock::new(spread)).len(), 5);
        // Values at both ends of u64 and every tag field at its widest.
        let (low, high) = ((0u64, 0u64), (u64::MAX, u64::MAX));
        check_bit_stream(&SortedBlock::new(vec![low, high]));
        check_bit_stream(&SortedBlock::new(vec![low, (u64::MAX, tag(5, 9)), high]));
    }

    /// The default part of a block, `δ(len) · δ(words) · words`, written by
    /// hand from `pairs` in the order given, its word count off by
    /// `miscount` (and as many zero words more, when that is positive).
    fn default_part<T: SelectKey>(pairs: &[(T, u64)], miscount: i64) -> Vec<u64> {
        let mut words = Vec::new();
        pairs.iter().for_each(|pair| pair.encode(&mut words));
        let mut out = Vec::new();
        let mut bits = BitWriter::new(&mut out);
        bits.number(pairs.len() as u64);
        bits.number(words.len().saturating_add_signed(miscount as isize) as u64);
        words.resize(words.len() + miscount.max(0) as usize, 0);
        words.iter().for_each(|&word| bits.put(word, 64));
        bits.finish();
        out
    }

    /// `commsim`'s `PackedCounts` keeps the bit-stream property too.
    #[test]
    fn packed_counts_are_canonical_bit_streams() {
        let zipf: Vec<u64> = (1..=40u64).map(|j| 40_000 / j).collect();
        for counts in [
            vec![],
            vec![0],
            vec![5, 4, 7, 2],
            vec![4, 64, 63, 0, 16],
            vec![u64::MAX, 1, 0, 1 << 40],
            zipf,
        ] {
            check_bit_stream(&PackedCounts(counts));
        }
    }

    /// Other keys cross as their pairs' words behind two δ codes, and their
    /// reader too accepts only ascending distinct pairs, and only a word
    /// count that the pairs use up.
    #[test]
    fn plain_keys_keep_the_words_of_their_pairs() {
        let pairs = vec![("b".to_string(), 1u64), ("a".to_string(), 9)];
        let block = SortedBlock::new(pairs.clone());
        // δ(2) and δ(6) take 5 + 6 bits ahead of the six words: the words
        // of the pairs.
        assert_eq!(check_bit_stream(&block), default_part(block.pairs(), 0));
        assert_eq!(check_bit_stream(&block).len(), pairs.encoded_len());
        let reversed = SortedBlock::new(vec![(std::cmp::Reverse((3u64, 4u64)), 0u64)]);
        assert_eq!(check_bit_stream(&reversed).len(), 1 + 3);
        for (pairs, miscount) in [(&pairs[..], 0), (block.pairs(), 1), (block.pairs(), -1)] {
            let wire = default_part(pairs, miscount);
            let decoded = SortedBlock::<String>::decode(&mut WordReader::new(&wire));
            assert!(matches!(decoded, Err(commsim::CommError::Decode { .. })));
        }
    }

    /// The words of `pairs`' stream under `fields`.
    fn written(pairs: &[(u64, u64)], fields: StreamFields) -> Vec<u64> {
        let mut out = Vec::new();
        let mut bits = BitWriter::new(&mut out);
        write_u64_block(pairs, fields, &mut bits);
        bits.finish();
        out
    }

    /// A stream of `len` elements under `fields`, whose elements `write`
    /// writes.
    fn by_hand(len: u64, fields: StreamFields, write: impl FnOnce(&mut BitWriter)) -> Vec<u64> {
        let mut out = Vec::new();
        let mut bits = BitWriter::new(&mut out);
        bits.number(len);
        bits.put(fields.value_rice.into(), RICE_FIELD);
        bits.put(fields.rank_width.into(), RANK_FIELD);
        bits.put(fields.index_width.into(), INDEX_FIELD);
        bits.put(fields.tag_rice.into(), RICE_FIELD);
        write(&mut bits);
        bits.finish();
        out
    }

    /// Streams no single bit flip of a canonical one reaches still decode
    /// to a decode error, never to a panic or a value.
    #[test]
    fn non_canonical_u64_blocks_fail_to_decode() {
        let decode = |words: &[u64]| SortedBlock::<u64>::decode(&mut WordReader::new(words));
        let rejected =
            |words: &[u64]| matches!(decode(words), Err(commsim::CommError::Decode { .. }));
        // Spread values and a run across ranks: every field above zero.
        let pairs = vec![
            (9u64, tag(0, 5)),
            (9, tag(1, 3)),
            (9, tag(3, 0)),
            (40, tag(2, 1)),
            (300, tag(0, 6)),
        ];
        let fields = StreamFields::of(&pairs);
        assert_eq!(
            fields,
            StreamFields {
                value_rice: 6,
                rank_width: 2,
                index_width: 3,
                tag_rice: 3
            }
        );
        let good = check_bit_stream(&SortedBlock::new(pairs.clone()));
        assert_eq!(written(&pairs, fields), good);
        // Each field one above what the pairs imply, and each Rice parameter
        // one below: the same pairs, but not their canonical stream.  (A
        // narrower width cannot hold the largest tag raw; an in-run gap that
        // carries a rank past it is below.)
        let off_by_one = [
            StreamFields {
                value_rice: 7,
                ..fields
            },
            StreamFields {
                value_rice: 5,
                ..fields
            },
            StreamFields {
                rank_width: 3,
                ..fields
            },
            StreamFields {
                index_width: 4,
                ..fields
            },
            StreamFields {
                tag_rice: 4,
                ..fields
            },
            StreamFields {
                tag_rice: 2,
                ..fields
            },
        ];
        for other in off_by_one {
            let words = written(&pairs, other);
            assert_ne!(words, good);
            assert!(rejected(&words), "{other:?}");
        }
        // Fields beyond the coder or the tag layout.
        for other in [
            StreamFields {
                value_rice: 63,
                ..fields
            },
            StreamFields {
                tag_rice: 63,
                ..fields
            },
            StreamFields {
                rank_width: 25,
                ..fields
            },
            StreamFields {
                index_width: 41,
                ..fields
            },
        ] {
            assert!(
                rejected(&by_hand(1, other, |bits| bits.number(0))),
                "{other:?}"
            );
        }
        // A rank of 2^w_r: w_r = 0, w_i = 1, the first tag index 1; then
        // the same value with dense gap 1 reaches dense word 2, rank 1.
        let narrow = StreamFields {
            value_rice: 0,
            rank_width: 0,
            index_width: 1,
            tag_rice: 0,
        };
        let carried = |gap_less_one| {
            by_hand(2, narrow, |bits| {
                bits.number(4);
                bits.put(1, 1);
                bits.rice(0, 0);
                bits.rice(gap_less_one, 0);
            })
        };
        assert!(rejected(&carried(0)));
        // A dense word beyond u64: at full width, the first tag all ones
        // and an in-run gap after it.
        let full = StreamFields {
            value_rice: 0,
            rank_width: TIE_BREAK_RANK_BITS,
            index_width: TIE_BREAK_INDEX_BITS,
            tag_rice: 0,
        };
        assert!(rejected(&by_hand(2, full, |bits| {
            bits.number(4);
            bits.put(u64::MAX, 64);
            bits.rice(0, 0);
            bits.rice(0, 0);
        })));
        // A value gap beyond u64: 2⁶³ after a first value of 2⁶³, where
        // after 2⁶³ − 1 it reaches u64::MAX (and implies r_v = 62).
        let gap_fields = StreamFields {
            value_rice: 62,
            rank_width: 0,
            index_width: 1,
            tag_rice: 0,
        };
        let value_gap = |first| {
            by_hand(2, gap_fields, |bits| {
                bits.number(first);
                bits.put(0, 1);
                bits.rice(1 << 63, 62);
                bits.put(1, 1);
            })
        };
        assert!(rejected(&value_gap(1 << 63)));
        assert_eq!(
            decode(&value_gap((1 << 63) - 1)).unwrap().pairs(),
            [((1 << 63) - 1, tag(0, 0)), (u64::MAX, tag(0, 1))]
        );
        // A length beyond the bits left (a decoder that trusted it would
        // reserve it), and one element more than the stream holds.
        assert!(rejected(&by_hand(1 << 40, fields, |bits| bits.number(9))));
        assert!(rejected(&by_hand(u64::MAX, fields, |bits| bits.number(9))));
        assert!(rejected(&by_hand(
            2,
            StreamFields::of(&pairs[..1]),
            |bits| {
                bits.number(9);
                bits.put(5, 3);
            }
        )));
        // Nothing at all, and a length code above 64 bits.
        assert!(rejected(&[]));
        assert!(rejected(&[1 << 8]));
    }
}
