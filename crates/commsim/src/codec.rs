//! The wire encoding: values as sequences of u64 machine words.
//!
//! The `α + mβ` cost model meters messages in 64-bit machine words, so the
//! word is also the natural *physical* unit of the simulated wire.  The
//! [`WordCodec`] trait encodes a value into a `Vec<u64>` buffer and decodes
//! it back, and it is the **only** message representation: every payload
//! crosses every backend as a plain word buffer (drawn from a
//! per-communicator [`buffer pool`](crate::transport::BufferPool) where the
//! backend recycles buffers), and [`crate::CommData`] — the bound the
//! communicator API takes — is a blanket over `WordCodec + Send + 'static`.
//! This module is therefore the single owner of each type's layout.
//!
//! Two invariants tie the codec to the cost model:
//!
//! 1. `encoded_len()` is the metered message size
//!    ([`crate::CommData::word_count`] returns it), and `encode` appends
//!    exactly that many words — checked by a debug assertion on every send
//!    and by the property tests;
//! 2. `decode(encode(x)) == x` and consumes exactly `encoded_len()` words —
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

    /// Number of words consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// A value with a u64-word wire encoding — the one message representation.
///
/// `encode` must append exactly `encoded_len()` words to `out`;
/// `encoded_len()` is what the cost model meters
/// ([`crate::CommData::word_count`]), so the metered size and the physical
/// size coincide.
///
/// Implementations exist for all scalar primitives, `()`, `String`, and the
/// standard containers (`Option`, `Vec`, `Box`, `Reverse`, tuples) of codec
/// types.  A downstream type becomes sendable by implementing this trait
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
    /// Exact number of words [`WordCodec::encode`] appends.
    fn encoded_len(&self) -> usize;

    /// Append the wire encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u64>);

    /// Decode a value from the reader, consuming exactly the words `encode`
    /// produced for it.
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self>;
}

macro_rules! codec_unsigned {
    ($($t:ty),* $(,)?) => {$(
        impl WordCodec for $t {
            #[inline]
            fn encoded_len(&self) -> usize {
                1
            }
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
            fn encoded_len(&self) -> usize {
                1
            }
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
    fn encoded_len(&self) -> usize {
        1
    }
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
    fn encoded_len(&self) -> usize {
        1
    }
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
    fn encoded_len(&self) -> usize {
        1
    }
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
    fn encoded_len(&self) -> usize {
        1
    }
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
    fn encoded_len(&self) -> usize {
        2
    }
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
    fn encoded_len(&self) -> usize {
        2
    }
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
    fn encoded_len(&self) -> usize {
        0
    }
    #[inline]
    fn encode(&self, _out: &mut Vec<u64>) {}
    #[inline]
    fn decode(_r: &mut WordReader<'_>) -> CommResult<Self> {
        Ok(())
    }
}

impl WordCodec for String {
    fn encoded_len(&self) -> usize {
        1 + self.len().div_ceil(8)
    }
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
        if len.div_ceil(8) > r.remaining() {
            return Err(decode_error::<Self>());
        }
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len.div_ceil(8) {
            let word = r.next_word().ok_or_else(decode_error::<Self>)?;
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.truncate(len);
        String::from_utf8(bytes).map_err(|_| decode_error::<Self>())
    }
}

impl<T: WordCodec> WordCodec for Vec<T> {
    fn encoded_len(&self) -> usize {
        1 + self.iter().map(WordCodec::encoded_len).sum::<usize>()
    }
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
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, WordCodec::encoded_len)
    }
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

impl<T: WordCodec> WordCodec for Box<T> {
    fn encoded_len(&self) -> usize {
        self.as_ref().encoded_len()
    }
    fn encode(&self, out: &mut Vec<u64>) {
        self.as_ref().encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        T::decode(r).map(Box::new)
    }
}

impl<T: WordCodec> WordCodec for std::cmp::Reverse<T> {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        T::decode(r).map(std::cmp::Reverse)
    }
}

impl<A: WordCodec, B: WordCodec> WordCodec for (A, B) {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WordCodec, B: WordCodec, C: WordCodec> WordCodec for (A, B, C) {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
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
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len() + self.3.encoded_len()
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WordCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut wire = Vec::new();
        value.encode(&mut wire);
        assert_eq!(wire.len(), value.encoded_len(), "encoded_len of {value:?}");
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
        wire[1] |= 0xFF; // corrupt the packed bytes
        assert!(String::decode(&mut WordReader::new(&wire)).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![vec![1u64], vec![], vec![2, 3]]);
        roundtrip(Some(7u64));
        roundtrip(None::<u64>);
        roundtrip(Box::new(9u64));
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

    #[test]
    fn encoded_len_matches_word_count() {
        use crate::message::CommData;
        let v = vec![1u64, 2, 3];
        assert_eq!(v.encoded_len(), v.word_count());
        let s = "hello world".to_string();
        assert_eq!(s.encoded_len(), s.word_count());
        let t = (1u64, Some(2u64), vec![3u64]);
        assert_eq!(t.encoded_len(), t.word_count());
    }
}
