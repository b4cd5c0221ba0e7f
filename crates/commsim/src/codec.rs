//! The wire encoding: values as sequences of u64 machine words.
//!
//! The `α + mβ` cost model meters messages in 64-bit machine words, so the
//! word is also the natural *physical* unit of the simulated wire.  The
//! [`WordCodec`] trait encodes a value into a `Vec<u64>` buffer and decodes
//! it back, and it is the **only** message representation: every payload
//! crosses every backend as a plain word buffer, and [`crate::CommData`] —
//! the bound the communicator API takes — is a blanket over
//! `WordCodec + Send + 'static`.
//! This module is therefore the single owner of each type's layout.
//! Layouts finer than a word — the [`PackedCounts`] vector here, each count
//! Rice-coded against the one before it, the `KeyCounts` bit stream of the
//! frequent-objects algorithms, and the unsorted selection's level messages,
//! whose counts and `SortedBlock` sample share one stream — are one bit
//! stream each, a [`BitCodec`]: the type writes its stream once into a
//! [`BitSink`] and reads it back from a [`BitReader`], and one blanket
//! [`WordCodec`] impl pads it to words.
//!
//! Two invariants tie the codec to the cost model:
//!
//! 1. the metered message size is the number of words `encode` appends.
//!    This holds by construction for every type: a send encodes once and
//!    every backend meters the buffer it filled
//!    ([`Envelope::words`](crate::transport::Envelope::words)), and
//!    [`WordCodec::encoded_len`] and [`crate::CommData::word_count`] are
//!    that same `encode` run into a scratch buffer;
//! 2. `decode(encode(x)) == x` and consumes every word `encode` wrote —
//!    the transport rejects a decode that leaves words over.
//!
//! The codec is deliberately not self-describing: SPMD programs are
//! type-synchronised by construction, and the transport additionally stores a
//! `TypeId` next to each payload so that a mismatched receive is still
//! reported as a [`CommError::TypeMismatch`] instead of silently
//! mis-decoding.

use crate::error::{CommError, CommResult};

/// Build the canonical "could not decode as `T`" error.
pub fn decode_error<T>() -> CommError {
    CommError::Decode {
        expected: std::any::type_name::<T>(),
    }
}

/// Largest vector length a decoder accepts.  Zero-width element types (such
/// as `()`) make any length encodable in a single word, so without a cap a
/// corrupt length prefix could spin the decode loop effectively forever;
/// 2³² elements is far beyond anything the simulator can transport while
/// still being cheap to check.
pub const MAX_DECODE_LEN: usize = 1 << 32;

/// A cursor over the word buffer of a payload.
#[derive(Debug)]
pub struct WordReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// Read from the start of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        WordReader { words, pos: 0 }
    }

    /// Take the next word, or `None` when the buffer is exhausted.
    #[inline]
    pub fn next_word(&mut self) -> Option<u64> {
        let w = self.words.get(self.pos).copied();
        if w.is_some() {
            self.pos += 1;
        }
        w
    }

    /// Number of words not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }
}

/// A value with a u64-word wire encoding — the one message representation.
///
/// Its contract is two methods, [`encode`](Self::encode) and its inverse
/// [`decode`](Self::decode).  A message is the words `encode` writes: every
/// backend meters the length of the buffer it filled, so no type states its
/// length a second time.
///
/// Implementations exist for all scalar primitives, `()`, `String`, the
/// standard containers (`Option`, `Vec`, `Reverse`, tuples) of codec types
/// and every [`BitCodec`].  A downstream type becomes sendable by implementing this trait
/// (see `topk::OrderedF64` for a one-word example).
///
/// ```
/// use commsim::codec::{WordCodec, WordReader};
///
/// let value: Vec<u64> = vec![10, 20, 30];
/// let mut wire = Vec::new();
/// value.encode(&mut wire);
/// assert_eq!(wire, vec![3, 10, 20, 30]); // length prefix + payload
/// let decoded = Vec::<u64>::decode(&mut WordReader::new(&wire)).unwrap();
/// assert_eq!(decoded, value);
/// ```
pub trait WordCodec: Sized {
    /// Append the wire encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u64>);

    /// Decode a value from the reader, consuming exactly the words `encode`
    /// produced for it.
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self>;

    /// Number of words [`encode`](Self::encode) appends, found by encoding
    /// into a scratch buffer.  No send calls it — a send meters the buffer
    /// it encoded into — so it is for tests and probes that size a value
    /// without sending it.
    fn encoded_len(&self) -> usize {
        let mut words = Vec::new();
        self.encode(&mut words);
        words.len()
    }
}

macro_rules! codec_unsigned {
    ($($t:ty),* $(,)?) => {$(
        impl WordCodec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u64>) {
                out.push(*self as u64);
            }
            #[inline]
            fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
                let w = r.next_word().ok_or_else(decode_error::<Self>)?;
                <$t>::try_from(w).map_err(|_| decode_error::<Self>())
            }
        }
    )*};
}

codec_unsigned!(u8, u16, u32, u64, usize);

macro_rules! codec_signed {
    ($($t:ty),* $(,)?) => {$(
        impl WordCodec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u64>) {
                // Sign-extend through i64 so the full word round-trips.
                out.push(*self as i64 as u64);
            }
            #[inline]
            fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
                let w = r.next_word().ok_or_else(decode_error::<Self>)? as i64;
                <$t>::try_from(w).map_err(|_| decode_error::<Self>())
            }
        }
    )*};
}

codec_signed!(i8, i16, i32, i64, isize);

impl WordCodec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(u64::from(*self));
    }
    #[inline]
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        match r.next_word().ok_or_else(decode_error::<Self>)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(decode_error::<Self>()),
        }
    }
}

impl WordCodec for char {
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(u64::from(u32::from(*self)));
    }
    #[inline]
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        let w = r.next_word().ok_or_else(decode_error::<Self>)?;
        u32::try_from(w)
            .ok()
            .and_then(char::from_u32)
            .ok_or_else(decode_error::<Self>)
    }
}

impl WordCodec for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
    #[inline]
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        Ok(f64::from_bits(
            r.next_word().ok_or_else(decode_error::<Self>)?,
        ))
    }
}

impl WordCodec for f32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.to_bits()));
    }
    #[inline]
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        let w = r.next_word().ok_or_else(decode_error::<Self>)?;
        u32::try_from(w)
            .map(f32::from_bits)
            .map_err(|_| decode_error::<Self>())
    }
}

impl WordCodec for u128 {
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        out.push((*self >> 64) as u64);
        out.push(*self as u64);
    }
    #[inline]
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        let hi = r.next_word().ok_or_else(decode_error::<Self>)?;
        let lo = r.next_word().ok_or_else(decode_error::<Self>)?;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }
}

impl WordCodec for i128 {
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        (*self as u128).encode(out);
    }
    #[inline]
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        u128::decode(r)
            .map(|v| v as i128)
            .map_err(|_| decode_error::<Self>())
    }
}

/// The empty message still costs a start-up, but carries zero payload words
/// (used by barriers and pure synchronisation messages).
impl WordCodec for () {
    #[inline]
    fn encode(&self, _out: &mut Vec<u64>) {}
    #[inline]
    fn decode(_r: &mut WordReader<'_>) -> CommResult<Self> {
        Ok(())
    }
}

impl WordCodec for String {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        for chunk in self.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            out.push(u64::from_le_bytes(word));
        }
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        let len = r.next_word().ok_or_else(decode_error::<Self>)? as usize;
        let words = len.div_ceil(8);
        if words > r.remaining() {
            return Err(decode_error::<Self>());
        }
        // Whole words are copied before the padding is cut: reserve them,
        // or the last word reallocates.
        let mut bytes = Vec::with_capacity(8 * words);
        for _ in 0..words {
            let word = r.next_word().ok_or_else(decode_error::<Self>)?;
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        // The padding is zero, as `encode` writes it: no other words decode.
        if bytes.drain(len..).any(|byte| byte != 0) {
            return Err(decode_error::<Self>());
        }
        String::from_utf8(bytes).map_err(|_| decode_error::<Self>())
    }
}

impl<T: WordCodec> WordCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        let len = r.next_word().ok_or_else(decode_error::<Self>)? as usize;
        // A corrupt length prefix must not trigger a huge allocation (the
        // element decodes below fail cleanly when the words run out) or a
        // near-endless loop for zero-width elements (the MAX_DECODE_LEN cap).
        if len > MAX_DECODE_LEN {
            return Err(decode_error::<Self>());
        }
        let mut out = Vec::with_capacity(len.min(r.remaining() + 1));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: WordCodec> WordCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u64>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        match r.next_word().ok_or_else(decode_error::<Self>)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(decode_error::<Self>()),
        }
    }
}

impl<T: WordCodec> WordCodec for std::cmp::Reverse<T> {
    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        T::decode(r).map(std::cmp::Reverse)
    }
}

impl<A: WordCodec, B: WordCodec> WordCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WordCodec, B: WordCodec, C: WordCodec> WordCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: WordCodec, B: WordCodec, C: WordCodec, D: WordCodec> WordCodec for (A, B, C, D) {
    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
        self.3.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

/// The low `bits ≤ 64` bits of `word`.
#[inline]
fn low_bits(word: u64, bits: u32) -> u64 {
    word & u64::MAX.checked_shr(64 - bits).unwrap_or(0)
}

/// Largest Rice parameter [`BitSink::rice`] takes.
pub const MAX_RICE: u32 = 62;

/// Bit length of `value`: 0 for 0, 64 for `2⁶³` and above.
#[inline]
pub const fn bit_length(value: u64) -> u32 {
    u64::BITS - value.leading_zeros()
}

/// The Rice parameter of `count` gaps summing to `total`:
/// `min(MAX_RICE, ⌊log₂ max(1, total / count)⌋)`, 0 for no gap.  At it the
/// unary quotients of the gaps take under `2·count` bits, so a gap costs
/// under `r + 3` bits on average.
pub fn rice_parameter(total: u128, count: usize) -> u32 {
    (total / count.max(1) as u128).max(1).ilog2().min(MAX_RICE)
}

/// Where a bit stream goes: [`BitWriter`] packs it into words, and the bit
/// counter behind [`BitWriter::number_bits`] only counts it.  Fixed-width
/// numbers ([`put`](Self::put)) are the one primitive; Rice codes for gaps
/// of a known scale ([`rice`](Self::rice)) and a universal code for any
/// `u64` ([`number`](Self::number)) are written through it, so a code's
/// length has one definition, its writer.
pub trait BitSink {
    /// Append the `bits ≤ 64` low bits of `value`, whose other bits are zero.
    fn put(&mut self, value: u64, bits: u32);

    /// `value` Rice-coded with parameter `r ≤ MAX_RICE`: its quotient
    /// `value ≫ r` in unary — that many zero bits, then a one — and its `r`
    /// low bits.
    #[inline]
    fn rice(&mut self, value: u64, r: u32) {
        debug_assert!(r <= MAX_RICE);
        let mut zeros = value >> r;
        while zeros >= 64 {
            self.put(0, 64);
            zeros -= 64;
        }
        self.put(1 << zeros, zeros as u32 + 1);
        self.put(low_bits(value, r), r);
    }

    /// `value` in an Elias-δ-style code that takes every `u64`, 0 too: the
    /// bit length `L ≤ 64` of `value`, itself coded as its own bit length
    /// in unary and its low bits below the leading one, then the `L − 1`
    /// bits of `value` below its leading one.  0 costs 1 bit, 1 costs 2, a
    /// number of bit length 32 costs 43 and `u64::MAX` 77.
    #[inline]
    fn number(&mut self, value: u64) {
        let len = bit_length(value);
        let width = bit_length(u64::from(len));
        self.put(1 << width, width + 1);
        let below = width.saturating_sub(1);
        self.put(low_bits(u64::from(len), below), below);
        let below = len.saturating_sub(1);
        self.put(low_bits(value, below), below);
    }
}

/// Packs bits least significant first into whole words — the one bit coder
/// of the wire, which every [`BitCodec`] writes through.
#[derive(Debug)]
pub struct BitWriter<'a> {
    out: &'a mut Vec<u64>,
    word: u64,
    /// Bits of `word` filled, always below 64.
    used: u32,
}

impl<'a> BitWriter<'a> {
    /// Append bits to `out`, starting on a fresh word.
    #[inline]
    pub fn new(out: &'a mut Vec<u64>) -> Self {
        BitWriter {
            out,
            word: 0,
            used: 0,
        }
    }

    /// Bits of [`number`](BitSink::number)`(value)`, counted by writing it.
    pub fn number_bits(value: u64) -> u64 {
        let mut counter = BitCounter::default();
        counter.number(value);
        counter.bits
    }

    /// Push the last, partly filled word; its unused high bits stay zero.
    pub fn finish(self) {
        if self.used > 0 {
            self.out.push(self.word);
        }
    }
}

impl BitSink for BitWriter<'_> {
    #[inline]
    fn put(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64 && value == low_bits(value, bits));
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
}

/// Counts the bits written into it: a stream's length, without the stream.
#[derive(Debug, Default)]
struct BitCounter {
    bits: u64,
}

impl BitSink for BitCounter {
    #[inline]
    fn put(&mut self, _value: u64, bits: u32) {
        self.bits += u64::from(bits);
    }
}

/// A value whose wire form is one bit stream, padded once to whole words.
/// Its layout is stated once, in [`write`](Self::write) and its inverse
/// [`read`](Self::read); the blanket [`WordCodec`] impl frames it:
/// `encode` runs `write` into a [`BitWriter`] and pads, and `decode` runs
/// `read` over a [`BitReader`] and rejects non-zero padding.
pub trait BitCodec: Sized {
    /// Write the value's stream.
    fn write(&self, bits: &mut impl BitSink);

    /// Read what [`write`](Self::write) wrote, consuming exactly its bits.
    /// Only the canonical stream of a value decodes.
    fn read(bits: &mut BitReader) -> CommResult<Self>;
}

impl<T: BitCodec> WordCodec for T {
    fn encode(&self, out: &mut Vec<u64>) {
        let mut bits = BitWriter::new(out);
        self.write(&mut bits);
        bits.finish();
    }

    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        let mut bits = BitReader::new::<Self>(r);
        let value = Self::read(&mut bits)?;
        bits.finish()?;
        Ok(value)
    }
}

/// Reads what [`BitWriter`] packed, taking a word from the reader only when
/// it needs another bit.  Every failure is a [`CommError::Decode`] naming
/// the type being decoded.
#[derive(Debug)]
pub struct BitReader<'r, 'a> {
    words: &'r mut WordReader<'a>,
    /// The `left` unread bits of the current word, shifted down to bit 0;
    /// the bits above them are zero.
    word: u64,
    left: u32,
    expected: &'static str,
}

impl<'r, 'a> BitReader<'r, 'a> {
    /// Read bits from `words`, starting on a fresh word, as part of decoding
    /// a `T`.
    pub fn new<T>(words: &'r mut WordReader<'a>) -> Self {
        BitReader {
            words,
            word: 0,
            left: 0,
            expected: std::any::type_name::<T>(),
        }
    }

    fn error(&self) -> CommError {
        CommError::Decode {
            expected: self.expected,
        }
    }

    #[inline]
    fn refill(&mut self) -> CommResult<()> {
        self.word = self.words.next_word().ok_or_else(|| self.error())?;
        self.left = 64;
        Ok(())
    }

    /// The next `bits ≤ 64` bits as a number, least significant first.
    #[inline]
    pub fn take(&mut self, bits: u32) -> CommResult<u64> {
        debug_assert!(bits <= 64);
        let mut value = low_bits(self.word, bits);
        if bits <= self.left {
            self.word = self.word.checked_shr(bits).unwrap_or(0);
            self.left -= bits;
        } else {
            let got = self.left;
            self.refill()?;
            value |= low_bits(self.word << got, bits);
            self.word = self.word.checked_shr(bits - got).unwrap_or(0);
            self.left -= bits - got;
        }
        Ok(value)
    }

    /// Bits not yet read: the rest of the current word and every word the
    /// reader still holds.  A decoder bounds a length by it before it
    /// reserves space: every code takes at least one bit.
    #[inline]
    pub fn bits_left(&self) -> u64 {
        u64::from(self.left) + 64 * self.words.remaining() as u64
    }

    /// One value Rice-coded with parameter `r ≤ MAX_RICE`.
    #[inline]
    pub fn rice(&mut self, r: u32) -> CommResult<u64> {
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
            return Err(self.error());
        }
        Ok(quotient << r | self.take(r)?)
    }

    /// One value of [`BitSink::number`]'s code.  Only the code of a `u64`
    /// decodes: a bit length above 64 is a [`CommError::Decode`].
    #[inline]
    pub fn number(&mut self) -> CommResult<u64> {
        // The bit length's own bit length: 7 at most.
        let width = self.rice(0)?;
        if width > 7 {
            return Err(self.error());
        }
        let len = match width as u32 {
            0 => 0,
            width => 1 << (width - 1) | self.take(width - 1)?,
        };
        match len as u32 {
            0 => Ok(0),
            len @ 1..=64 => Ok(1 << (len - 1) | self.take(len - 1)?),
            _ => Err(self.error()),
        }
    }

    /// End the bit stream: the unread bits of the last word are
    /// [`BitWriter::finish`]'s padding and must be zero.
    pub fn finish(self) -> CommResult<()> {
        if self.word == 0 {
            Ok(())
        } else {
            Err(self.error())
        }
    }
}

/// A vector of counts, each coded against the one before it — EC's and PEC's
/// exact candidate counts, summed by an all-reduction with
/// [`ReduceOp::sum`](crate::ReduceOp::sum).  The candidates arrive sorted by
/// their sample counts, so neighbouring exact counts are close, and a count
/// costs about its own bit length.
///
/// ```text
/// δ(len) · δ(c₁) · per later count c: Rice(c, r) or escape · δ(c) | padding
/// ```
///
/// `δ` is [`BitSink::number`]'s universal code.  A later count's Rice
/// parameter is `r = bit_length(previous) − 1` (0 after a 0 or a 1, and at
/// most [`MAX_RICE`]), so a count of the previous one's bit length costs
/// `r + 2` bits and a smaller one `r + 1`.  A count whose quotient `c ≫ r`
/// reaches [`PackedCounts::ESCAPE`] is written as that quotient in unary —
/// `ESCAPE + 1` bits — followed by `δ(c)`.  So an escaped entry costs
/// `ESCAPE + 1 + δ(c)` bits, a Rice-coded one at most `ESCAPE + r`, and no
/// entry more than `ESCAPE + 1 + δ(m)` for `m` the larger of it and its
/// predecessor: 94 bits at `u64::MAX`, and in a vector of counts bounded by
/// `n` never more than `ESCAPE + 1 + δ(n)`.
///
/// Decoding accepts only this canonical form: an escape below the cut, a
/// unary quotient above it, a length beyond the bits left, non-zero padding
/// or too few words are a [`CommError::Decode`].
///
/// ```
/// use commsim::codec::{PackedCounts, WordCodec, WordReader};
///
/// let counts = PackedCounts(vec![5, 4, 7, 2]);
/// let mut wire = Vec::new();
/// counts.encode(&mut wire);
/// // δ(4), δ(5), then 4 and 7 at r = 2 (the bit length of 5, less one):
/// // quotient 1 and low bits 00 and 11; then 2, quotient 0 and low bits 10.
/// // 23 bits, read from the top: each code's bits and the codes reversed.
/// assert_eq!(wire, vec![0b10_1_11_10_00_10_01_1_100_00_1_100]);
/// assert_eq!(PackedCounts::decode(&mut WordReader::new(&wire)).unwrap(), counts);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedCounts(pub Vec<u64>);

impl PackedCounts {
    /// Longest vector a decoder accepts.  A count takes a bit or more, so a
    /// length beyond the bits left fails first; the cap bounds what a
    /// corrupt length can reserve on the longest messages.
    const MAX_LEN: u64 = 1 << 24;

    /// The unary quotient at which a count escapes to `δ(c)`.
    ///
    /// A Rice code costs `q + 1 + r` bits and `δ(c)` costs
    /// `r + bit_length(q) − 1 + 2·bit_length(bit_length(c))`: its top
    /// `bit_length(q)` bits past the `r` low ones, and the length prefix.
    /// For every count below 2⁶³ the prefix takes at most 12 bits, so the
    /// Rice code is the longer one from `q − bit_length(q) ≥ 11` on — from
    /// `q = 15`, and 16 is the first power of two there.  Below the cut every
    /// count at most 8× its predecessor stays a Rice code (`c ≤ 8·previous <
    /// 16·2^r`), which is every step of a candidate vector sorted by sample
    /// count bar an outlier, and past it an entry costs at most
    /// `ESCAPE + 1` bits more than `δ(c)` alone.
    pub const ESCAPE: u64 = 16;

    /// The Rice parameter of the count after `previous`.
    fn rice_after(previous: u64) -> u32 {
        bit_length(previous).saturating_sub(1).min(MAX_RICE)
    }
}

/// Entry-wise sum, for [`ReduceOp::sum`](crate::ReduceOp::sum): every PE of
/// an all-reduction contributes a vector of the same length.
impl std::ops::Add for PackedCounts {
    type Output = PackedCounts;

    fn add(mut self, other: PackedCounts) -> PackedCounts {
        assert_eq!(
            self.0.len(),
            other.0.len(),
            "PackedCounts of unequal lengths added"
        );
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
        self
    }
}

impl BitCodec for PackedCounts {
    fn write(&self, bits: &mut impl BitSink) {
        assert!(
            self.0.len() as u64 <= Self::MAX_LEN,
            "PackedCounts too long"
        );
        bits.number(self.0.len() as u64);
        if let Some(&first) = self.0.first() {
            bits.number(first);
        }
        for w in self.0.windows(2) {
            let r = Self::rice_after(w[0]);
            if w[1] >> r < Self::ESCAPE {
                bits.rice(w[1], r);
            } else {
                bits.rice(Self::ESCAPE, 0);
                bits.number(w[1]);
            }
        }
    }

    fn read(bits: &mut BitReader) -> CommResult<Self> {
        let len = bits.number()?;
        // Every count takes a bit or more: a corrupt length fails here, not
        // after reserving it.
        if len > Self::MAX_LEN || len > bits.bits_left() {
            return Err(decode_error::<Self>());
        }
        let mut counts = Vec::with_capacity(len as usize);
        if len > 0 {
            counts.push(bits.number()?);
        }
        for _ in 1..len {
            let rice = Self::rice_after(counts[counts.len() - 1]);
            let count = match bits.rice(0)? {
                quotient if quotient < Self::ESCAPE => quotient << rice | bits.take(rice)?,
                Self::ESCAPE => match bits.number()? {
                    count if count >> rice >= Self::ESCAPE => count,
                    _ => return Err(decode_error::<Self>()),
                },
                _ => return Err(decode_error::<Self>()),
            };
            counts.push(count);
        }
        Ok(PackedCounts(counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WordCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut wire = Vec::new();
        value.encode(&mut wire);
        let mut r = WordReader::new(&wire);
        let back = T::decode(&mut r).expect("decode");
        assert_eq!(back, value);
        assert_eq!(r.remaining(), 0, "decode must consume the whole encoding");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(i8::MIN);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(isize::MIN);
        roundtrip(-1i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip('x');
        roundtrip('€');
        roundtrip(1.5f64);
        roundtrip(-0.0f64);
        roundtrip(f64::NAN.to_bits()); // NaN itself is not PartialEq-stable
        roundtrip(3.25f32);
        roundtrip(u128::MAX);
        roundtrip(i128::MIN);
        roundtrip(());
    }

    #[test]
    fn narrow_scalar_rejects_wide_word() {
        let wire = vec![300u64];
        assert!(matches!(
            u8::decode(&mut WordReader::new(&wire)),
            Err(CommError::Decode { .. })
        ));
        assert!(matches!(
            bool::decode(&mut WordReader::new(&wire)),
            Err(CommError::Decode { .. })
        ));
    }

    #[test]
    fn exhausted_reader_is_an_error() {
        let wire: Vec<u64> = vec![];
        assert!(u64::decode(&mut WordReader::new(&wire)).is_err());
        // () needs no words, so it decodes even from an empty reader.
        assert!(<()>::decode(&mut WordReader::new(&wire)).is_ok());
    }

    #[test]
    fn strings_roundtrip_with_byte_packing() {
        roundtrip(String::new());
        roundtrip("a".to_string());
        roundtrip("12345678".to_string()); // exactly one packed word
        roundtrip("123456789".to_string());
        roundtrip("snowman ☃ and beyond".to_string());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut wire = Vec::new();
        "abcd".to_string().encode(&mut wire);
        let mut corrupt = wire.clone();
        corrupt[1] |= 0xFF; // corrupt the packed bytes
        assert!(String::decode(&mut WordReader::new(&corrupt)).is_err());
        // A non-zero padding byte, which the decoded string would not keep.
        let mut padded = wire.clone();
        padded[1] |= 1 << 63;
        assert!(String::decode(&mut WordReader::new(&padded)).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![vec![1u64], vec![], vec![2, 3]]);
        roundtrip(Some(7u64));
        roundtrip(None::<u64>);
        roundtrip(std::cmp::Reverse(4u64));
        roundtrip((1u64, 2u32));
        roundtrip((1u64, vec![2u64, 3], false));
        roundtrip((1u64, 2u64, 3u64, "four".to_string()));
        roundtrip(vec![(1u64, 2u64), (3, 4)]);
        roundtrip(vec!["a".to_string(), "bb".to_string()]);
    }

    #[test]
    fn vec_u64_wire_format_is_length_prefixed() {
        let mut wire = Vec::new();
        vec![5u64, 6].encode(&mut wire);
        assert_eq!(wire, vec![2, 5, 6]);
    }

    #[test]
    fn truncated_container_encoding_fails_cleanly() {
        let mut wire = Vec::new();
        vec![1u64, 2, 3].encode(&mut wire);
        wire.pop();
        assert!(Vec::<u64>::decode(&mut WordReader::new(&wire)).is_err());
        // A length prefix far beyond the buffer must not allocate or panic.
        let bogus = vec![u64::MAX];
        assert!(Vec::<u64>::decode(&mut WordReader::new(&bogus)).is_err());
        // ...and must not spin the decode loop for zero-width elements.
        assert!(Vec::<()>::decode(&mut WordReader::new(&bogus)).is_err());
        // Honest zero-width vectors still round-trip.
        roundtrip(vec![(); 7]);
    }

    /// Bits of `count` coded after `previous`, derived apart from the
    /// encoder: a Rice code at the parameter of the predecessor's leading
    /// bit, or the escape and `δ(count)`.
    fn entry_bits(count: u64, previous: u64) -> u64 {
        let r = match previous {
            0 | 1 => 0,
            previous => (63 - previous.leading_zeros()).min(MAX_RICE),
        };
        let quotient = count >> r;
        if quotient < PackedCounts::ESCAPE {
            quotient + 1 + u64::from(r)
        } else {
            PackedCounts::ESCAPE + 1 + BitWriter::number_bits(count)
        }
    }

    /// Bits of `counts`' stream: `δ(len)`, `δ` of the first count, then each
    /// later count's [`entry_bits`].
    fn packed_bits(counts: &[u64]) -> u64 {
        let delta = BitWriter::number_bits;
        let first = counts.first().map_or(0, |&c| delta(c));
        let later: u64 = counts.windows(2).map(|w| entry_bits(w[1], w[0])).sum();
        delta(counts.len() as u64) + first + later
    }

    /// Round-trip `counts` and check its words are its stream's bits,
    /// padded to `⌈bits/64⌉` words.
    fn packed(counts: &[u64]) -> Vec<u64> {
        let counts = PackedCounts(counts.to_vec());
        roundtrip(counts.clone());
        let mut wire = Vec::new();
        counts.encode(&mut wire);
        assert_eq!(
            wire.len() as u64,
            packed_bits(&counts.0).div_ceil(64),
            "{counts:?}"
        );
        wire
    }

    /// The words of a stream that `write` writes by hand.
    fn by_hand(write: impl FnOnce(&mut BitWriter)) -> Vec<u64> {
        let mut wire = Vec::new();
        let mut bits = BitWriter::new(&mut wire);
        write(&mut bits);
        bits.finish();
        wire
    }

    #[test]
    fn packed_counts_cost_their_codes_bits_in_whole_words() {
        // The empty vector is δ(0), one bit.
        assert_eq!(packed(&[]), vec![1]);
        // Zeros cost a bit each after the first: δ(1000) is 17 bits, then
        // 1 000 one-bit codes.
        assert_eq!(packed(&[0; 1000]).len(), 1017usize.div_ceil(64));
        // A count of its predecessor's bit length costs r + 2 bits: 21
        // nine-bit codes (r = 7) after δ(22) and δ(200) (10 + 15 bits) take
        // 214 bits in 4 words.
        assert_eq!(packed_bits(&[200; 22]), 214);
        // u64::MAX: δ is 77 bits, and the count after it codes at r = 62.
        assert_eq!(packed_bits(&[u64::MAX, 1, 0]), 5 + 77 + 63 + 1);
        packed(&[u64::MAX, 1, 0]);
        packed(&[u64::MAX; 5]);
        // After a zero, every non-zero count from 16 on escapes.
        assert_eq!(packed_bits(&[0, u64::MAX]), 5 + 1 + 17 + 77);
        packed(&[0, u64::MAX, 0, 15, 16, 1 << 40]);
        // Ascending, descending and alternating vectors, small and wide.
        let ascending: Vec<u64> = (0..300).map(|i| i * i * 7).collect();
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        let alternating: Vec<u64> = (0..300)
            .map(|i| if i % 2 == 0 { 3 } else { 1 << (i % 60) })
            .collect();
        for counts in [ascending, descending, alternating] {
            packed(&counts);
        }
        // Zipf-like counts sorted descending cost about their bit lengths
        // and a unary bit, 34 words, where the largest one's width, 16 bits
        // for each of the 200, took 51.
        let zipf: Vec<u64> = (1..=200u64).map(|j| 40_000 / j).collect();
        assert_eq!(packed(&zipf).len(), 34);
    }

    /// The escape sits at quotient [`PackedCounts::ESCAPE`]: at r = 2
    /// (after 4), 63 is the last Rice code and 64 the first escape, and an
    /// entry never costs more than `ESCAPE + 1 + δ(m)` bits for `m` the
    /// larger of it and its predecessor.
    #[test]
    fn packed_counts_escape_at_the_cut() {
        let after_4 = |last: &dyn Fn(&mut BitWriter)| {
            by_hand(|bits| {
                bits.number(2);
                bits.number(4);
                last(bits);
            })
        };
        assert_eq!(packed(&[4, 63]), after_4(&|bits| bits.rice(63, 2)));
        assert_eq!(
            packed(&[4, 64]),
            after_4(&|bits| {
                bits.rice(PackedCounts::ESCAPE, 0);
                bits.number(64);
            })
        );
        assert_eq!(entry_bits(63, 4), 15 + 1 + 2);
        packed(&[4, 63, 4, 64]);
        for previous in [0, 1, 4, 1 << 20, u64::MAX] {
            for count in [0, 1, 63, 64, 1 << 30, u64::MAX] {
                packed(&[previous, count]);
                let larger = count.max(previous);
                assert!(
                    entry_bits(count, previous)
                        <= PackedCounts::ESCAPE + 1 + BitWriter::number_bits(larger)
                );
            }
        }
    }

    #[test]
    fn packed_counts_sum_entry_wise() {
        let sum = PackedCounts(vec![1, 2, 0]) + PackedCounts(vec![4, 0, 0]);
        assert_eq!(sum, PackedCounts(vec![5, 2, 0]));
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn packed_counts_of_unequal_lengths_do_not_add() {
        let _ = PackedCounts(vec![1, 2]) + PackedCounts(vec![1]);
    }

    /// Streams no single bit flip of a canonical one reaches are still a
    /// [`CommError::Decode`], never a panic (truncations and flipped bits
    /// are `topk`'s bit-stream property, run over every bit-stream type).
    #[test]
    fn non_canonical_packed_counts_fail_to_decode() {
        let decode = |words: &[u64]| PackedCounts::decode(&mut WordReader::new(words));
        let rejected = |words: &[u64]| matches!(decode(words), Err(CommError::Decode { .. }));
        // An escape below the cut: 63 and 5 are Rice codes after 4.
        for count in [63, 5, 0] {
            assert!(rejected(&by_hand(|bits| {
                bits.number(2);
                bits.number(4);
                bits.rice(PackedCounts::ESCAPE, 0);
                bits.number(count);
            })));
        }
        // A unary quotient past the cut, with bits behind it.
        assert!(rejected(&by_hand(|bits| {
            bits.number(2);
            bits.number(4);
            bits.rice(PackedCounts::ESCAPE + 1, 0);
            bits.put(u64::MAX, 64);
        })));
        // A length beyond the bits left (a decoder that trusted it would
        // reserve it), beyond the cap with the bits behind it, and a length
        // code above 64 bits.
        assert!(rejected(&by_hand(|bits| {
            bits.number(1 << 40);
            bits.number(9);
        })));
        let beyond_cap = PackedCounts::MAX_LEN + 1;
        let mut ones = by_hand(|bits| bits.number(beyond_cap));
        ones.extend(std::iter::repeat_n(
            u64::MAX,
            (beyond_cap / 64 + 2) as usize,
        ));
        assert!(rejected(&ones));
        assert!(rejected(&[1 << 8]));
        // A first count above 64 bits.
        assert!(rejected(&by_hand(|bits| {
            bits.number(1);
            bits.put(1 << 8, 9);
        })));
    }

    #[test]
    fn bit_coder_round_trips_fixed_widths_and_rice_codes() {
        let mut wire = Vec::new();
        let mut bits = BitWriter::new(&mut wire);
        bits.put(0b101, 3);
        bits.rice(1000, 4);
        bits.put(u64::MAX, 64);
        bits.rice(200, 0);
        bits.put(0, 0);
        bits.put(1, 1);
        bits.finish();
        // 3 + (62 + 1 + 4) + 64 + (200 + 1) + 1 = 336 bits.
        assert_eq!(wire.len(), 6);
        let mut words = WordReader::new(&wire);
        let mut bits = BitReader::new::<u64>(&mut words);
        assert_eq!(bits.take(3).unwrap(), 0b101);
        assert_eq!(bits.rice(4).unwrap(), 1000);
        assert_eq!(bits.take(64).unwrap(), u64::MAX);
        assert_eq!(bits.rice(0).unwrap(), 200);
        assert_eq!(bits.take(0).unwrap(), 0);
        assert_eq!(bits.take(1).unwrap(), 1);
        bits.finish().unwrap();
        assert_eq!(words.remaining(), 0);
        // Reading past the last word fails and names the decoded type.
        let mut words = WordReader::new(&wire[..1]);
        let mut bits = BitReader::new::<String>(&mut words);
        assert!(matches!(
            bits.take(65 - 1).and_then(|_| bits.take(1)),
            Err(CommError::Decode {
                expected: "alloc::string::String"
            })
        ));
    }

    /// Every `u64` round-trips through the universal code in exactly
    /// [`BitWriter::number_bits`] bits, back to back in one stream.
    #[test]
    fn number_code_round_trips_every_power_of_two_and_the_extremes() {
        let mut values = vec![0, 1, 1 << 32, u64::MAX];
        for shift in 0..64 {
            values.extend([1 << shift, (1 << shift) - 1, (1u64 << shift) + 1]);
        }
        let mut wire = Vec::new();
        let mut bits = BitWriter::new(&mut wire);
        for &value in &values {
            bits.number(value);
        }
        bits.finish();
        let total: u64 = values.iter().map(|&v| BitWriter::number_bits(v)).sum();
        assert_eq!(wire.len() as u64, total.div_ceil(64));
        let mut words = WordReader::new(&wire);
        let mut bits = BitReader::new::<u64>(&mut words);
        for &value in &values {
            let left = bits.bits_left();
            assert_eq!(bits.number().unwrap(), value);
            assert_eq!(left - bits.bits_left(), BitWriter::number_bits(value));
        }
        bits.finish().unwrap();
        // The sizes the doc names: 1 bit for 0, 2 for 1, 43 for bit length
        // 32, 77 for the largest.
        let sizes = [0, 1, u32::MAX.into(), u64::MAX].map(BitWriter::number_bits);
        assert_eq!(sizes, [1, 2, 43, 77]);
        // 0, 1 and 2 bit by bit, lowest first: `1`; `01`; `001 0 0` — bit
        // length 2 is width 2 in unary, its low bit 0, then 2's low bit 0.
        // Read from the top, the word is 00100 · 10 · 1.
        let mut wire = Vec::new();
        let mut bits = BitWriter::new(&mut wire);
        [0, 1, 2].into_iter().for_each(|v| bits.number(v));
        bits.finish();
        assert_eq!(wire, vec![0b0010_0101]);
    }

    /// A bit length above 64 — width 7 with low bits beyond 64, or a width
    /// of 8 zeros and more — is a decode error, never a panic.
    #[test]
    fn number_code_rejects_bit_lengths_above_64() {
        let decode = |words: &[u64]| {
            let mut words = WordReader::new(words);
            BitReader::new::<u64>(&mut words).number()
        };
        // Width 7 (`0000000 1`) and low bits 000000: length 64, then 63 ones.
        assert_eq!(decode(&[1 << 7 | u64::MAX << 14, u64::MAX]), Ok(u64::MAX));
        // Low bits 000001: length 65.
        assert!(matches!(
            decode(&[1 << 7 | 1 << 8, u64::MAX]),
            Err(CommError::Decode { .. })
        ));
        // Width 8.
        assert!(matches!(
            decode(&[1 << 8, u64::MAX]),
            Err(CommError::Decode { .. })
        ));
        // Nothing to read, and a unary width that never ends.
        assert!(decode(&[]).is_err());
        assert!(decode(&[0, 0]).is_err());
    }
}
