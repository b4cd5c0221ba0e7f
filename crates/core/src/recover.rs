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

use commsim::recovery::{run_recoverable, RecoveryError, RecoveryOutcome};
use commsim::Communicator;

use crate::frequent::FrequentParams;
use crate::planner::Algorithm;
use crate::unsorted::select_k_smallest;

/// Per-phase seed salt.  Phase 0 keeps the caller's seed verbatim, so a
/// fault-free single-phase run is RNG-identical to the direct call.
fn phase_seed(seed: u64, phase: usize) -> u64 {
    seed ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run `phases` repetitions of [`select_k_smallest`] with crash-stop
/// recovery (the fig6 path), checkpointing every `checkpoint_every` phases.
/// Each phase selects over the survivor subgroup with a per-phase salted
/// seed.  The state is the threshold log: `state[i]` is phase `i`'s k-th
/// smallest element over the live group that executed the phase.
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
) -> Result<RecoveryOutcome<Vec<u64>>, RecoveryError> {
    run_recoverable(
        comm,
        checkpoint_every,
        phases,
        Vec::new(),
        |sub, state, i| {
            state.push(select_k_smallest(sub, local, k, phase_seed(seed, i)).threshold);
        },
    )
}

/// The lists a frequent-objects run published, one per phase.
type Published = Vec<Vec<(u64, u64)>>;

/// Run `phases` repetitions of a §7 top-k most-frequent-objects algorithm
/// ([`Algorithm::run`], the single dispatch point every frequent-objects
/// caller goes through) with crash-stop recovery (the fig7 path),
/// checkpointing every `checkpoint_every` phases.  The state is the list
/// each phase published: `state[i]` is phase `i`'s `(object, count)` list,
/// descending by count, identical on every PE of the live group.
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
) -> Result<RecoveryOutcome<Published>, RecoveryError> {
    run_recoverable(
        comm,
        checkpoint_every,
        phases,
        Vec::new(),
        |sub, state, _i| {
            state.push(algo.run(sub, local, params).items);
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
}
