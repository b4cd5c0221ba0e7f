//! Crash-stop–recoverable façades over the batch algorithms.
//!
//! The paper's batch kernels (§4 selection, §7 frequent objects) are plain
//! SPMD collectives: before this module, the first injected crash
//! deadlocked or panicked them.  These wrappers run a closed sequence of
//! phases under [`commsim::recovery::run_recoverable`] — membership round
//! per phase, coordinated ring-buddy checkpoints, rollback-and-re-run over
//! the survivors on a detected crash — and hand back the per-phase results
//! plus the parseable `recovery-audit` row.  Their one recovery setting is
//! the checkpoint cadence, `checkpoint_every`.
//!
//! A fault-free run returns what calling [`select_k_smallest`] /
//! [`Algorithm::run`] directly in a loop returns, and meters its words per
//! PE plus exactly the audit's `overhead_words` — pinned by
//! `tests/recovery_integration.rs`.  The crash model is the repo-wide one:
//! crashes land *between* phases (a victim's crash send-count calibrated to
//! its first send of a phase, its membership heartbeat); a PE dying
//! mid-collective fails fast instead.

use commsim::codec::decode_error;
use commsim::recovery::{run_recoverable, Checkpoint, RecoveryError, RecoveryOutcome};
use commsim::{CommResult, Communicator, WordCodec, WordReader};

use crate::frequent::FrequentParams;
use crate::planner::Algorithm;
use crate::unsorted::select_k_smallest;

/// Per-phase seed salt.  Phase 0 keeps the caller's seed verbatim, so a
/// fault-free single-phase run is RNG-identical to the direct call.
fn phase_seed(seed: u64, phase: usize) -> u64 {
    seed ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Checkpointable state of a recoverable selection run: the per-phase
/// selection thresholds accumulated so far.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectionCheckpoint {
    /// `thresholds[i]` is phase `i`'s k-th smallest element over the live
    /// group that executed the phase.
    pub thresholds: Vec<u64>,
}

impl Checkpoint for SelectionCheckpoint {
    fn save(&self) -> Vec<u64> {
        self.thresholds.clone()
    }
    fn restore(words: &[u64]) -> CommResult<Self> {
        Ok(SelectionCheckpoint {
            thresholds: words.to_vec(),
        })
    }
}

/// Run `phases` repetitions of [`select_k_smallest`] with crash-stop
/// recovery (the fig6 path), checkpointing every `checkpoint_every` phases.
/// Each phase selects over the survivor subgroup with a per-phase salted
/// seed; the checkpointed state is the accumulated threshold log.
///
/// # Errors
///
/// Returns [`RecoveryError`] only for membership-protocol violations; an
/// eviction or a successful recovery is reported in the
/// [`RecoveryOutcome`].
pub fn select_k_smallest_recoverable<C: Communicator>(
    comm: &C,
    local: &[u64],
    k: usize,
    seed: u64,
    phases: usize,
    checkpoint_every: usize,
) -> Result<RecoveryOutcome<SelectionCheckpoint>, RecoveryError> {
    run_recoverable(
        comm,
        checkpoint_every,
        phases,
        SelectionCheckpoint::default(),
        |sub, state, i| {
            let result = select_k_smallest(sub, local, k, phase_seed(seed, i));
            state.thresholds.push(result.threshold);
        },
    )
}

/// Checkpointable state of a recoverable frequent-objects run: the
/// per-phase published top-k lists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrequentCheckpoint {
    /// `published[i]` is phase `i`'s reported `(object, count)` list,
    /// descending by count, identical on every PE of the live group.
    pub published: Vec<Vec<(u64, u64)>>,
}

impl Checkpoint for FrequentCheckpoint {
    /// The word-codec encoding of `published`: phase count, then per phase
    /// its length followed by the `(object, count)` pairs.
    fn save(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.published.encoded_len());
        self.published.encode(&mut words);
        words
    }

    /// Only a whole encoding restores: words left over are an error too.
    fn restore(words: &[u64]) -> CommResult<Self> {
        let mut reader = WordReader::new(words);
        let published = WordCodec::decode(&mut reader)?;
        if reader.remaining() > 0 {
            return Err(decode_error::<Self>());
        }
        Ok(FrequentCheckpoint { published })
    }
}

/// Run `phases` repetitions of a §7 top-k most-frequent-objects algorithm
/// ([`Algorithm::run`], the single dispatch point every frequent-objects
/// caller goes through) with crash-stop recovery (the fig7 path),
/// checkpointing every `checkpoint_every` phases.
///
/// # Errors
///
/// Returns [`RecoveryError`] only for membership-protocol violations.
pub fn run_frequent_recoverable<C: Communicator>(
    comm: &C,
    algo: Algorithm,
    local: &[u64],
    params: &FrequentParams,
    phases: usize,
    checkpoint_every: usize,
) -> Result<RecoveryOutcome<FrequentCheckpoint>, RecoveryError> {
    run_recoverable(
        comm,
        checkpoint_every,
        phases,
        FrequentCheckpoint::default(),
        |sub, state, _i| {
            let result = algo.run(sub, local, params);
            state.published.push(result.items);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_zero_keeps_the_seed_verbatim() {
        assert_eq!(phase_seed(0xF166, 0), 0xF166);
        assert_ne!(phase_seed(0xF166, 1), 0xF166);
    }

    #[test]
    fn frequent_checkpoint_round_trips() {
        let state = FrequentCheckpoint {
            published: vec![vec![(7, 40), (3, 12)], vec![], vec![(9, 5)]],
        };
        assert_eq!(FrequentCheckpoint::restore(&state.save()), Ok(state));
        let empty = FrequentCheckpoint::default();
        assert_eq!(FrequentCheckpoint::restore(&empty.save()), Ok(empty));
    }

    #[test]
    fn frequent_checkpoint_layout_is_the_nested_vector_encoding() {
        let state = FrequentCheckpoint {
            published: vec![vec![(7, 40), (3, 12)], vec![(9, 5)]],
        };
        // phases; then per phase: length, (object, count)...
        assert_eq!(state.save(), vec![2, 2, 7, 40, 3, 12, 1, 9, 5]);
    }

    /// Regression: `restore` panicked on these words, which
    /// `tests/property_based.rs::checkpoint_decoders_are_total` drew.
    #[test]
    fn corrupt_frequent_checkpoints_are_decode_errors() {
        let found: &[u64] = &[
            6_279_147_803_884_221_444,
            14_001_680_151_603_847_907,
            12_890_605_195_500_933_178,
        ];
        for words in [found, &[2, 2, 7, 40, 3], &[1, 1, 9, 5, 0]] {
            assert!(matches!(
                FrequentCheckpoint::restore(words),
                Err(commsim::CommError::Decode { .. })
            ));
        }
    }

    #[test]
    fn selection_checkpoint_round_trips() {
        let state = SelectionCheckpoint {
            thresholds: vec![10, 20, 30],
        };
        assert_eq!(SelectionCheckpoint::restore(&state.save()), Ok(state));
    }
}
