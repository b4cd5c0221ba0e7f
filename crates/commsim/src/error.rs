//! Error types for the communication layer.
//!
//! Most misuse of the SPMD API (mismatched collective calls, wrong message
//! type on a receive) is a programming error rather than a runtime condition,
//! so the default entry points panic with a descriptive message.  The
//! lower-level transport functions return [`CommError`] so that tests can
//! exercise failure paths without aborting the process.

use std::fmt;

/// Result alias used by the fallible transport-layer functions.
pub type CommResult<T> = Result<T, CommError>;

/// Errors raised by the simulated communication layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The destination or source rank is outside `0..p`.
    InvalidRank {
        /// Offending rank.
        rank: usize,
        /// Number of PEs in the world.
        size: usize,
    },
    /// A receive matched a message whose payload type differs from the
    /// requested type.
    TypeMismatch {
        /// Tag of the offending message.
        tag: u64,
        /// Expected Rust type name.
        expected: &'static str,
    },
    /// A receive matched a message with an unexpected tag (collective
    /// sequence numbers out of sync, i.e. the SPMD program diverged).
    TagMismatch {
        /// Tag that was expected.
        expected: u64,
        /// Tag that arrived.
        got: u64,
        /// Source rank of the offending message.
        from: usize,
    },
    /// The peer hung up (its thread terminated) while we were waiting for a
    /// message.
    Disconnected {
        /// Rank of the peer.
        from: usize,
    },
    /// A scatter/gather was called with a vector whose length is not a
    /// multiple of the number of participating PEs.
    LengthMismatch {
        /// Length supplied by the caller.
        len: usize,
        /// Number of PEs the data must divide into.
        parts: usize,
    },
    /// A word-encoded payload could not be decoded as the requested
    /// type — the wire words ran out or carried an invalid encoding.
    Decode {
        /// Rust type name the receiver asked for.
        expected: &'static str,
    },
    /// The peer is known to have crash-stopped (fault injection) and will
    /// never produce the awaited message.  Unlike [`CommError::Disconnected`]
    /// this is a *definitive* failure-detector verdict: the backend proved
    /// the peer's send log is exhausted.
    PeerDead {
        /// Rank of the crashed peer.
        rank: usize,
    },
    /// A failure-detecting receive gave up waiting: the whole world stalled
    /// with the awaited message unsent (the replay engine forces the verdict
    /// only at quiescence, and replays it verbatim).  The peer may be live
    /// and waiting too — retrying is legitimate.
    Timeout {
        /// Rank the receive was waiting on.
        from: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for world of size {size}")
            }
            CommError::TypeMismatch { tag, expected } => {
                write!(
                    f,
                    "message with tag {tag} is not of expected type {expected}"
                )
            }
            CommError::TagMismatch {
                expected,
                got,
                from,
            } => write!(
                f,
                "expected message tag {expected} but received {got} from PE {from} \
                 (SPMD program out of sync?)"
            ),
            CommError::Disconnected { from } => {
                write!(f, "PE {from} disconnected while a message was expected")
            }
            CommError::LengthMismatch { len, parts } => {
                write!(
                    f,
                    "buffer of length {len} cannot be split into {parts} equal parts"
                )
            }
            CommError::Decode { expected } => {
                write!(f, "payload could not be decoded as {expected}")
            }
            CommError::PeerDead { rank } => {
                write!(
                    f,
                    "PE {rank} crashed and will never send the awaited message"
                )
            }
            CommError::Timeout { from } => {
                write!(
                    f,
                    "timed out waiting for a message from PE {from} (peer slow or dead)"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let e = CommError::InvalidRank { rank: 7, size: 4 };
        assert!(e.to_string().contains("rank 7"));
        let e = CommError::TagMismatch {
            expected: 1,
            got: 2,
            from: 3,
        };
        assert!(e.to_string().contains("out of sync"));
        let e = CommError::Disconnected { from: 0 };
        assert!(e.to_string().contains("disconnected"));
        let e = CommError::LengthMismatch { len: 10, parts: 3 };
        assert!(e.to_string().contains("10"));
        let e = CommError::TypeMismatch {
            tag: 9,
            expected: "u64",
        };
        assert!(e.to_string().contains("u64"));
        let e = CommError::PeerDead { rank: 5 };
        assert!(e.to_string().contains("crashed"));
        let e = CommError::Timeout { from: 2 };
        assert!(e.to_string().contains("timed out"));
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let a = CommError::Disconnected { from: 1 };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
