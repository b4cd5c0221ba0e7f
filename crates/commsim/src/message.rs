//! Message payloads and word-count accounting.
//!
//! The paper's cost model charges `α + mβ` for a message of `m` *machine
//! words*, and a message here is the machine words its encoding fills.  A
//! machine word is 64 bits; smaller scalars still count as one word (as they
//! would occupy one word in an MPI message of that type for the purposes of
//! an asymptotic analysis), and aggregate types sum the words of their parts.
//!
//! There is exactly one wire format: the u64-word encoding of
//! [`crate::codec::WordCodec`].  [`CommData`] is a blanket over it — every
//! `WordCodec + Send + 'static` type is sendable, a send encodes it once and
//! meters the words written, and each container's layout is written once, in
//! [`crate::codec`].  To make a new type sendable, implement `WordCodec`.

use crate::codec::WordCodec;

/// A value that can be sent over the simulated network: any
/// [`WordCodec`] type that is `Send + 'static` (the payload moves between
/// PE threads).  Implemented for every such type by a blanket impl, so the
/// way to make a type sendable is to implement [`WordCodec`] for it:
///
/// ```
/// use commsim::{CommResult, Communicator, WordCodec, WordReader, World};
///
/// struct Key(u64);
/// impl WordCodec for Key {
///     fn encode(&self, out: &mut Vec<u64>) {
///         out.push(self.0);
///     }
///     fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
///         u64::decode(r).map(Key)
///     }
/// }
///
/// let out = World::new(2).mux(|comm| {
///     comm.send(1 - comm.rank(), 1, Key(comm.rank() as u64));
///     comm.recv::<Key>(1 - comm.rank(), 1).0
/// });
/// assert_eq!(out.fault_free().results, vec![1, 0]);
/// ```
///
/// A type without a word codec cannot be sent on any backend — a compile
/// error, not a run-time fallback:
///
/// ```compile_fail,E0277
/// use commsim::{Communicator, World};
///
/// struct Opaque(u64); // no `WordCodec` impl
///
/// World::new(2).mux(|comm| {
///     comm.send(1 - comm.rank(), 1, Opaque(7));
///     comm.recv::<Opaque>(1 - comm.rank(), 1).0
/// });
/// ```
pub trait CommData: WordCodec + Send + 'static {
    /// Number of 64-bit machine words this value occupies on the wire — what
    /// the α/β cost model meters: [`WordCodec::encoded_len`], the value
    /// encoded into a scratch buffer.  A send never calls it; it meters the
    /// buffer its one `encode` filled, which has this length by
    /// construction.
    #[inline]
    fn word_count(&self) -> usize {
        self.encoded_len()
    }
}

impl<T: WordCodec + Send + 'static> CommData for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_are_one_word() {
        assert_eq!(0u64.word_count(), 1);
        assert_eq!(0u8.word_count(), 1);
        assert_eq!(true.word_count(), 1);
        assert_eq!(1.5f64.word_count(), 1);
        assert_eq!('x'.word_count(), 1);
    }

    #[test]
    fn wide_scalars_are_two_words() {
        assert_eq!(0u128.word_count(), 2);
        assert_eq!((-1i128).word_count(), 2);
    }

    #[test]
    fn unit_is_zero_words() {
        assert_eq!(().word_count(), 0);
    }

    #[test]
    fn vectors_charge_length_plus_payload() {
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(v.word_count(), 4);
        let empty: Vec<u64> = vec![];
        assert_eq!(empty.word_count(), 1);
    }

    #[test]
    fn nested_vectors_sum_recursively() {
        let v: Vec<Vec<u64>> = vec![vec![1, 2], vec![3]];
        // outer length word + (inner: 1+2) + (inner: 1+1)
        assert_eq!(v.word_count(), 1 + 3 + 2);
    }

    #[test]
    fn tuples_sum_their_parts() {
        assert_eq!((1u64, 2u64).word_count(), 2);
        assert_eq!((1u64, 2u64, 3u64).word_count(), 3);
        assert_eq!((1u64, 2u64, 3u64, 4u64).word_count(), 4);
        assert_eq!((1u64, vec![1u64, 2u64]).word_count(), 1 + 3);
    }

    #[test]
    fn option_charges_discriminant() {
        assert_eq!(Some(1u64).word_count(), 2);
        assert_eq!(None::<u64>.word_count(), 1);
    }

    #[test]
    fn strings_round_up_to_words() {
        assert_eq!(String::new().word_count(), 1);
        assert_eq!("12345678".to_string().word_count(), 2);
        assert_eq!("123456789".to_string().word_count(), 3);
    }

    #[test]
    fn reverse_wrapper_delegates() {
        assert_eq!(std::cmp::Reverse(7u64).word_count(), 1);
        assert_eq!(std::cmp::Reverse(vec![1u64, 2]).word_count(), 3);
    }
}
