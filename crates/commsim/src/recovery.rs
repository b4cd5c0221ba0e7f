//! Reusable crash-stop recovery: membership, checkpoints, and a restartable
//! phase driver.
//!
//! PR 8 made the *streaming* workload failure-tolerant, but the whole
//! recovery stack — the heartbeat/rotating-coordinator membership round, the
//! rank-bitmap wire format, survivor regrouping over [`SubComm`] — lived as
//! private machinery inside `workloads::stream`, so every *batch* algorithm
//! still deadlocked or panicked on the first injected crash.  This module
//! promotes that machinery into the communication layer, where a production
//! system keeps it:
//!
//! * [`Membership`] — the backend-generic per-round membership protocol
//!   (heartbeats to the lowest presumed-alive rank, failure-detecting
//!   collection, live-mask verdict broadcast, rotating coordinator).  It is
//!   the exact protocol the streaming service ran, with one improvement: the
//!   formerly-`panic!`ing arms now surface a typed [`RecoveryError`] so a
//!   caller can degrade instead of aborting the world.
//! * [`ring_push`] — the ring-successor push: one message to each of a PE's
//!   `r` ring successors, one received from each of its `r` predecessors.
//!   The driver's buddy checkpoints and the streaming service's replica
//!   pushes both go through it.
//! * [`run_recoverable`] — the driver: runs a closed sequence of phases,
//!   opens each phase with a membership round, and on a detected crash
//!   regroups the survivors, restores the last checkpoint, and re-runs the
//!   phases since — emitting a one-line [`RecoveryAudit`] row.  A
//!   checkpoint is a clone of the state, and a buddy push sends the state
//!   itself: any [`CommData`] value is restartable.  Its one
//!   setting is the checkpoint cadence; the retry budgets and the buddy
//!   count are constants of this module.
//!
//! ## The crash model (where recovery is *not* attempted)
//!
//! Crashes are assumed to fall **between** phases: a victim's crash
//! send-count is calibrated to its first send of a phase — which is its
//! membership heartbeat — exactly what [`crate::FaultPlan::seeded_crashes`]
//! plus the chaos harnesses produce.  A PE dying *midway through* a
//! collective leaves the survivors' collective unanswerable; such a run
//! fails fast with a `PeerDead` panic rather than attempting recovery,
//! because half-delivered collective traffic cannot be rolled back.
//!
//! ## The cost of a fault-free run
//!
//! Without a crash every phase runs over a full-world [`SubComm`] (a pure
//! tag-striping layer: rank identity, zero added traffic), so the results
//! equal calling the enclosed algorithm directly, and each PE's metered
//! words are the direct call's plus exactly the audit's `overhead_words`
//! (membership and checkpoint traffic) — pinned by
//! `tests/recovery_integration.rs`.

use std::fmt;

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::message::CommData;
use crate::subgroup::SubComm;
use crate::{Rank, Tag};

/// Consecutive [`CommError::Timeout`] verdicts the coordinator tolerates
/// per heartbeat receive before it treats the member as dead.  The replay
/// engine, the only one that injects faults, forces a timeout only at
/// whole-world quiescence, so a live member that follows the protocol can
/// never exhaust the budget; a member whose heartbeat was dropped exhausts
/// it in a fixed number of stalls.
const HEARTBEAT_RETRIES: usize = 4;

/// Consecutive [`CommError::Timeout`] verdicts a *member* tolerates while
/// waiting for the coordinator's verdict before presuming the coordinator
/// dead and rotating.  This must comfortably exceed the coordinator's whole
/// heartbeat budget: when the replay scheduler resolves a whole-world stall
/// it times out *every* parked failure-detecting receive at once, so while
/// the coordinator burns its [`HEARTBEAT_RETRIES`] budget on one lost
/// heartbeat, every member waiting for the verdict accrues the same number
/// of timeouts.  A member must outlast several such episodes — the verdict
/// always arrives once the coordinator finishes, and a genuinely *crashed*
/// coordinator is detected by the definitive `PeerDead` verdict long before
/// this budget is touched.
const VERDICT_RETRIES: usize = 4 * (HEARTBEAT_RETRIES + 1);

/// Ring successors each PE pushes its checkpoint to.  Rollback needs none
/// of them — the crash model restarts survivors from their *own* state —
/// the buddies exist so an external operator could reconstruct a victim's
/// last state, and their traffic is part of the metered overhead.
const CHECKPOINT_BUDDIES: usize = 1;

/// User tag of the per-round membership heartbeat (a multi-word `Vec<u64>`
/// suspicion bitmap — see [`RankMask`]).
const ALIVE_TAG: Tag = 0xF17A;
/// User tag of the coordinator's membership verdict (a multi-word `Vec<u64>`
/// live bitmap).
const MASK_TAG: Tag = 0xF17B;
/// User tag of a ring-successor checkpoint push (the typed state).
/// `0xF17C`/`0xF17D` belong to the streaming replica pushes.
const CKPT_TAG: Tag = 0xF17E;

/// A set of world ranks as a multi-word bitmap — the wire format of the
/// membership protocol (`Vec<u64>`, one bit per rank), sized to the world.
/// Earlier revisions used a single `u64`, which capped the failure-tolerant
/// mode at `p ≤ 64`; the mask grows with the world.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct RankMask {
    bits: Vec<u64>,
}

impl RankMask {
    /// An empty mask sized for a `p`-PE world.
    fn for_world(p: usize) -> Self {
        RankMask {
            bits: vec![0; p.div_ceil(64)],
        }
    }

    /// A mask built from its wire representation.
    fn from_words(words: Vec<u64>) -> Self {
        RankMask { bits: words }
    }

    /// `true` if the mask has no words at all (never sized).
    fn is_unsized(&self) -> bool {
        self.bits.is_empty()
    }

    /// Add rank `r` to the set, growing the mask if needed.
    fn set(&mut self, r: Rank) {
        let w = r / 64;
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        self.bits[w] |= 1 << (r % 64);
    }

    /// `true` if rank `r` is in the set.
    fn contains(&self, r: Rank) -> bool {
        self.bits
            .get(r / 64)
            .is_some_and(|w| w & (1 << (r % 64)) != 0)
    }

    /// In-place union with another mask's wire words.
    fn union(&mut self, words: &[u64]) {
        if words.len() > self.bits.len() {
            self.bits.resize(words.len(), 0);
        }
        for (b, w) in self.bits.iter_mut().zip(words) {
            *b |= w;
        }
    }

    /// The wire representation.
    fn words(&self) -> Vec<u64> {
        self.bits.clone()
    }
}

/// A recovery-protocol failure surfaced to the caller as a value, so a
/// workload can degrade (go quiescent, drop out of the group) instead of
/// aborting the world the way the pre-extraction `panic!` arms did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// A membership receive returned a transport error the protocol cannot
    /// interpret (anything other than the retryable `Timeout` and the
    /// definitive `PeerDead`).  The round is poisoned; the caller should
    /// treat itself as evicted.
    Protocol {
        /// Peer the offending receive was posted against.
        from: Rank,
        /// Protocol step that failed (`"heartbeat"` or `"verdict"`).
        during: &'static str,
        /// The underlying transport error.
        source: CommError,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Protocol {
                from,
                during,
                source,
            } => write!(f, "membership {during} from {from}: {source}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Why [`Membership::recv_with_retry`] got no message.  A dead peer and a
/// peer silent past the budget both read as the peer's death in
/// [`Membership::round`]; only a protocol violation reaches its caller.
#[derive(Debug)]
enum Unanswered {
    /// The definitive [`CommError::PeerDead`] verdict.
    Dead,
    /// [`CommError::Timeout`] past the retry budget.
    Silent,
    /// Any other transport error.
    Protocol(RecoveryError),
}

/// The heartbeat/rotating-coordinator membership protocol, extracted from
/// the streaming service so any workload — batch or streaming — can agree on
/// a live group between phases.
///
/// One [`Membership::round`] works like this: every presumed-alive member
/// sends an ALIVE heartbeat (its suspicion bitmap) to the lowest
/// presumed-alive rank, which collects the heartbeats with
/// failure-detecting receives, unions the definitive
/// [`CommError::PeerDead`] verdicts into the dead set, and broadcasts the
/// resulting live bitmap.  If the coordinator itself is dead, every member
/// observes `PeerDead` on the verdict receive and retries with the
/// next-lowest rank — the classic rotating-coordinator loop.
///
/// A live PE can be *evicted* (a dropped heartbeat, or a slow PE exhausting
/// the coordinator's timeout budget): the verdict excludes it, the
/// survivors move on without it, and [`Membership::is_evicted`] turns true.
/// Eviction is survivable by design — the evicted caller goes quiescent
/// rather than dying — so it is a flag, not an error; [`RecoveryError`] is
/// reserved for protocol violations.
#[derive(Debug, Clone, Default)]
pub struct Membership {
    /// Presumed-live world ranks, sorted.  Empty until the first round
    /// (which initializes it to the full world).
    group: Vec<Rank>,
    /// Ranks this PE believes dead (its heartbeat payload).
    suspected: RankMask,
    /// `true` once a verdict excluded this live PE from the group.
    evicted: bool,
    /// Total [`CommError::Timeout`] verdicts observed across all rounds
    /// (feeds the `retries=` field of [`RecoveryAudit`]).
    timeouts: u64,
}

impl Membership {
    /// A fresh membership view.  The live group is initialized lazily (to
    /// the full world) by the first [`Membership::round`].
    pub fn new() -> Self {
        Membership::default()
    }

    /// The presumed-live group (sorted world ranks).  Empty before the
    /// first round.
    pub fn group(&self) -> &[Rank] {
        &self.group
    }

    /// `true` once a coordinator verdict excluded this live PE.  An evicted
    /// PE must go quiescent: the live group neither waits for nor sends to
    /// it anymore, so any further communication would wedge the protocol.
    pub fn is_evicted(&self) -> bool {
        self.evicted
    }

    /// Total timeout verdicts observed across all rounds so far.
    fn timeouts_observed(&self) -> u64 {
        self.timeouts
    }

    /// Mark this PE as out of the group without running a round — the
    /// degrade path a caller takes after a [`RecoveryError`].
    pub fn quiesce(&mut self) {
        self.evicted = true;
    }

    /// One round of the membership protocol (see the type-level docs).
    /// Returns the agreed live group (sorted world ranks).
    ///
    /// Crashes are assumed to fall *between* phases (a PE's crash send-count
    /// calibrated to its first send of a phase — exactly what
    /// [`crate::FaultPlan::seeded_crashes`] plus the chaos harnesses
    /// produce); a PE dying midway through a collective leaves the
    /// survivors' collective unanswerable and fails fast with a `PeerDead`
    /// panic instead.
    pub fn round<C: Communicator>(&mut self, comm: &C) -> Result<Vec<Rank>, RecoveryError> {
        let me = comm.rank();
        if self.group.is_empty() {
            self.group = (0..comm.size()).collect();
        }
        if self.suspected.is_unsized() {
            self.suspected = RankMask::for_world(comm.size());
        }
        let mut presumed = self.group.clone();
        loop {
            let coord = *presumed.first().expect("this PE is alive and presumed");
            if coord == me {
                // Coordinator: collect one heartbeat per presumed member.
                let mut dead = self.suspected.clone();
                for &r in presumed.iter().filter(|&&r| r != me) {
                    match self.recv_with_retry::<_, Vec<u64>>(
                        comm,
                        r,
                        ALIVE_TAG,
                        HEARTBEAT_RETRIES,
                        "heartbeat",
                    ) {
                        Ok(suspicion) => dead.union(&suspicion),
                        Err(Unanswered::Protocol(e)) => return Err(e),
                        // Dead, or silent past the budget: out either way.
                        Err(Unanswered::Dead | Unanswered::Silent) => dead.set(r),
                    }
                }
                let group: Vec<Rank> = presumed
                    .iter()
                    .copied()
                    .filter(|&r| !dead.contains(r))
                    .collect();
                let mut mask = RankMask::for_world(comm.size());
                for &r in &group {
                    mask.set(r);
                }
                // The verdict goes to every *presumed* member — including a
                // member just declared dead, whose copy tells it (if it is
                // in fact alive and merely lost a heartbeat) that it has
                // been evicted.
                for &r in presumed.iter().filter(|&&r| r != me) {
                    comm.send(r, MASK_TAG, mask.words());
                }
                self.suspected = dead;
                self.group = group.clone();
                return Ok(group);
            }
            // Member: heartbeat, then wait for the coordinator's verdict.
            comm.send(coord, ALIVE_TAG, self.suspected.words());
            let verdict = match self.recv_with_retry::<_, Vec<u64>>(
                comm,
                coord,
                MASK_TAG,
                VERDICT_RETRIES,
                "verdict",
            ) {
                Ok(words) => Some(RankMask::from_words(words)),
                Err(Unanswered::Protocol(e)) => return Err(e),
                Err(Unanswered::Dead | Unanswered::Silent) => None,
            };
            match verdict {
                Some(mask) => {
                    for &r in &presumed {
                        if !mask.contains(r) {
                            self.suspected.set(r);
                        }
                    }
                    if !mask.contains(me) {
                        // Survivable eviction: a lost heartbeat (a dropped
                        // message, or a slow PE exhausting the coordinator's
                        // timeout budget) made the group move on without
                        // this live PE.  The caller observes it via
                        // `is_evicted` and goes quiescent.
                        self.evicted = true;
                    }
                    let group: Vec<Rank> = (0..comm.size()).filter(|&r| mask.contains(r)).collect();
                    self.group = group.clone();
                    return Ok(group);
                }
                None => {
                    // Coordinator is dead: rotate to the next-lowest rank.
                    self.suspected.set(coord);
                    presumed.retain(|&r| r != coord);
                }
            }
        }
    }

    /// A failure-detecting receive with a bounded timeout budget: retries
    /// [`CommError::Timeout`] up to `retries` times (each one counted in
    /// [`Membership::timeouts_observed`]), then gives up as
    /// [`Unanswered::Silent`]; a definitive [`CommError::PeerDead`] is
    /// [`Unanswered::Dead`] at once, and any other error a
    /// [`RecoveryError::Protocol`] failure of step `during`.
    fn recv_with_retry<C: Communicator, T: CommData>(
        &mut self,
        comm: &C,
        src: Rank,
        tag: Tag,
        retries: usize,
        during: &'static str,
    ) -> Result<T, Unanswered> {
        let mut timeouts = 0;
        loop {
            match comm.recv_failable::<T>(src, tag) {
                Ok(v) => return Ok(v),
                Err(CommError::PeerDead { .. }) => return Err(Unanswered::Dead),
                Err(CommError::Timeout { .. }) => {
                    self.timeouts += 1;
                    timeouts += 1;
                    if timeouts > retries {
                        return Err(Unanswered::Silent);
                    }
                }
                Err(source) => {
                    return Err(Unanswered::Protocol(RecoveryError::Protocol {
                        from: src,
                        during,
                        source,
                    }));
                }
            }
        }
    }
}

/// What a recoverable run did — the audit row of the robustness layer,
/// printed by the chaos harnesses and pinned byte for byte by the CI smoke
/// goldens, like the planner's `plan-audit` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryAudit {
    /// Phases the driver was asked to run.
    pub phases: usize,
    /// PEs lost across the whole run.
    pub victims: usize,
    /// Completed-phase count at which the first crash was detected (the
    /// membership round that shrank the group); `None` if no crash.
    pub detect_batch: Option<usize>,
    /// Timeout verdicts the membership protocol retried through.
    pub retries: u64,
    /// Phases re-executed because of rollbacks to the last checkpoint.
    pub rerun_phases: usize,
    /// Words this PE spent on membership + checkpoint traffic (the
    /// robustness tax).
    pub overhead_words: u64,
    /// Live PEs when the run completed.
    pub survivors: usize,
    /// PEs the run started with.
    pub world: usize,
}

impl RecoveryAudit {
    /// The one-line form:
    ///
    /// ```text
    /// recovery-audit phases=3 victims=1 detect_batch=1 retries=0 rerun_phases=1 overhead_words=57 survivors=7 world=8
    /// ```
    ///
    /// `detect_batch` is `-1` when no crash was detected.
    pub fn audit_line(&self) -> String {
        format!(
            "recovery-audit phases={} victims={} detect_batch={} retries={} \
             rerun_phases={} overhead_words={} survivors={} world={}",
            self.phases,
            self.victims,
            self.detect_batch.map_or(-1, |b| b as i64),
            self.retries,
            self.rerun_phases,
            self.overhead_words,
            self.survivors,
            self.world,
        )
    }
}

/// What [`run_recoverable`] hands back on each PE.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome<S> {
    /// The algorithm state after the final completed phase (for an evicted
    /// PE: the state it had when the group moved on without it).
    pub state: S,
    /// The live group at completion (sorted world ranks).
    pub group: Vec<Rank>,
    /// `true` if this live PE was evicted mid-run and went quiescent.
    pub evicted: bool,
    /// The audit row.
    pub audit: RecoveryAudit,
    /// This PE's cumulative sent-message count at the end of each completed
    /// phase — the calibration hook chaos harnesses use to aim a
    /// [`crate::FaultPlan`] crash at a phase boundary (a victim whose crash
    /// send-count equals `sends_at_phase_end[i]` dies at its first send of
    /// phase `i + 1`, which is its membership heartbeat).
    pub sends_at_phase_end: Vec<u64>,
}

/// The ring-successor push: send `payload(s)` on `tag` to each of this PE's
/// `copies` ring successors `s` in `comm` (capped at `comm.size() - 1`),
/// nearest first, then receive one message on `tag` from each of its ring
/// predecessors, nearest first.  Returns `(predecessor, payload)` pairs,
/// ranks in `comm`.
///
/// Every push goes out before the first receive (sends never block), so the
/// symmetric exchange cannot deadlock.  A push is one typed message, metered
/// as the words its encoding writes.  [`run_recoverable`] pushes its
/// checkpointed state with it; the streaming service pushes each part of
/// its replica with one call per tag.
pub fn ring_push<C: Communicator, T: CommData>(
    comm: &C,
    copies: usize,
    tag: Tag,
    mut payload: impl FnMut(Rank) -> T,
) -> Vec<(Rank, T)> {
    let g = comm.size();
    let me = comm.rank();
    let copies = copies.min(g - 1);
    for j in 1..=copies {
        let successor = (me + j) % g;
        comm.send(successor, tag, payload(successor));
    }
    (1..=copies)
        .map(|j| {
            let predecessor = (me + g - j) % g;
            (predecessor, comm.recv(predecessor, tag))
        })
        .collect()
}

/// Run `phases` phases of an algorithm with crash-stop recovery,
/// checkpointing after every `checkpoint_every` completed phases (a
/// checkpoint after the final phase is pointless and skipped).
///
/// Every phase receives the survivor subgroup, the mutable state, and the
/// phase index.  Each phase opens with a membership round; when the round
/// reveals a shrunken group, the driver restores the state from the last
/// coordinated checkpoint and re-runs the phases since it over the
/// survivors (each attempt under a fresh epoch salt, so stale tags can
/// never collide).
///
/// An evicted live PE returns early with [`RecoveryOutcome::evicted`] set;
/// the survivors complete the run without it.
///
/// # Errors
///
/// Returns [`RecoveryError`] only for protocol violations (a membership
/// receive failing with something other than the retryable `Timeout` or the
/// definitive `PeerDead`).
///
/// # Panics
///
/// Panics if `checkpoint_every == 0`.
pub fn run_recoverable<C, S, F>(
    comm: &C,
    checkpoint_every: usize,
    phases: usize,
    initial: S,
    mut phase: F,
) -> Result<RecoveryOutcome<S>, RecoveryError>
where
    C: Communicator,
    S: CommData + Clone,
    F: FnMut(&SubComm<'_, C>, &mut S, usize),
{
    assert!(
        checkpoint_every > 0,
        "checkpoint cadence must be at least 1"
    );
    let p = comm.size();
    let mut state = initial;
    let mut sends_at_phase_end = Vec::with_capacity(phases);
    let mut membership = Membership::new();
    // Bumped on every membership round: the tag-stripe salt of the
    // subgroup formed after it.
    let mut epoch = 0u64;
    let mut last_ckpt = state.clone();
    let mut ckpt_phase = 0usize;
    let mut done = 0usize;
    let mut victims = 0usize;
    let mut detect_batch: Option<usize> = None;
    let mut rerun_phases = 0usize;
    let mut overhead_words = 0u64;
    let mut group: Vec<Rank> = (0..p).collect();

    while done < phases {
        let presumed = group.len();
        let before = comm.stats_snapshot();
        epoch += 1;
        group = membership.round(comm)?;
        overhead_words += comm.stats_snapshot().since(&before).sent_words;
        if membership.is_evicted() {
            // The group moved on without us; go quiescent with the state we
            // have.  The survivors re-run our lost contribution from their
            // own checkpoints.
            break;
        }
        if group.len() < presumed {
            victims += presumed - group.len();
            detect_batch.get_or_insert(done);
            rerun_phases += done - ckpt_phase;
            state = last_ckpt.clone();
            done = ckpt_phase;
            sends_at_phase_end.truncate(done);
        }
        let sub = SubComm::new(comm, group.clone(), epoch);
        phase(&sub, &mut state, done);
        done += 1;
        if done % checkpoint_every == 0 && done < phases {
            let before = comm.stats_snapshot();
            // The buddies' copies are for an operator, not for rollback
            // (see `CHECKPOINT_BUDDIES`): received and dropped here.
            ring_push(&sub, CHECKPOINT_BUDDIES, CKPT_TAG, |_| state.clone());
            overhead_words += comm.stats_snapshot().since(&before).sent_words;
            last_ckpt = state.clone();
            ckpt_phase = done;
        }
        sends_at_phase_end.push(comm.stats_snapshot().sent_messages);
    }

    let audit = RecoveryAudit {
        phases,
        victims,
        detect_batch,
        retries: membership.timeouts_observed(),
        rerun_phases,
        overhead_words,
        survivors: group.len(),
        world: p,
    };
    Ok(RecoveryOutcome {
        state,
        group,
        evicted: membership.is_evicted(),
        audit,
        sends_at_phase_end,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::faults::FaultPlan;
    use crate::mux::run_spmd_seq;
    use crate::world::World;

    #[test]
    fn rank_mask_set_contains_union_and_growth() {
        let mut m = RankMask::for_world(70);
        assert_eq!(m.words().len(), 2);
        m.set(0);
        m.set(69);
        assert!(m.contains(0) && m.contains(69) && !m.contains(1));
        // Growth past the sized world.
        m.set(130);
        assert!(m.contains(130));
        assert_eq!(m.words().len(), 3);
        // Union widens.
        let mut small = RankMask::for_world(1);
        small.union(&m.words());
        assert!(small.contains(0) && small.contains(69) && small.contains(130));
    }

    #[test]
    fn audit_line_renders_every_field() {
        let audit = RecoveryAudit {
            phases: 3,
            victims: 1,
            detect_batch: Some(1),
            retries: 5,
            rerun_phases: 1,
            overhead_words: 57,
            survivors: 7,
            world: 8,
        };
        assert_eq!(
            audit.audit_line(),
            "recovery-audit phases=3 victims=1 detect_batch=1 retries=5 \
             rerun_phases=1 overhead_words=57 survivors=7 world=8"
        );
        // No crash: detect_batch renders as -1.
        let quiet = RecoveryAudit {
            victims: 0,
            detect_batch: None,
            ..audit
        };
        assert_eq!(
            quiet.audit_line(),
            "recovery-audit phases=3 victims=0 detect_batch=-1 retries=5 \
             rerun_phases=1 overhead_words=57 survivors=7 world=8"
        );
    }

    #[test]
    fn membership_round_agrees_on_full_world_without_faults() {
        let out = run_spmd_seq(4, |comm| {
            let mut m = Membership::new();
            let group = m.round(comm).expect("fault-free round");
            (group, m.is_evicted())
        });
        for (group, evicted) in out.results {
            assert_eq!(group, vec![0, 1, 2, 3]);
            assert!(!evicted);
        }
    }

    #[test]
    fn membership_round_detects_a_crashed_pe() {
        // Rank 2 dies at its very first send — its heartbeat.
        let plan = FaultPlan::new().crash_pe(2, 0);
        let out = World::new(4).with_faults(plan).seq(|comm| {
            let mut m = Membership::new();
            let group = m.round(comm).expect("survivor round");
            (group, m.is_evicted())
        });
        assert!(out.results[2].is_none(), "the victim crash-stopped");
        for r in [0, 1, 3] {
            let (group, evicted) = out.results[r].clone().expect("survivor");
            assert_eq!(group, vec![0, 1, 3]);
            assert!(!evicted);
        }
    }

    #[test]
    fn membership_evicts_a_live_pe_on_exhausted_heartbeat_retries() {
        // Rank 1's heartbeat to coordinator 0 is dropped; the coordinator
        // burns its timeout budget and evicts the (live) member, whose
        // verdict copy tells it so.
        let plan = FaultPlan::new().drop_message(1, 0, 0);
        let out = World::new(3).with_faults(plan).seq(|comm| {
            let mut m = Membership::new();
            let group = m.round(comm).expect("round completes");
            (group, m.is_evicted(), m.timeouts_observed())
        });
        let (g0, ev0, t0) = out.results[0].clone().expect("coordinator");
        let (g1, ev1, _) = out.results[1].clone().expect("evicted member is alive");
        let (g2, ev2, _) = out.results[2].clone().expect("member");
        assert_eq!(g0, vec![0, 2]);
        assert_eq!(g1, vec![0, 2]);
        assert_eq!(g2, vec![0, 2]);
        assert!(!ev0 && !ev2);
        assert!(ev1, "the live PE whose heartbeat was lost is evicted");
        assert!(
            t0 > HEARTBEAT_RETRIES as u64,
            "the coordinator retried through its whole budget (saw {t0} timeouts)"
        );
    }

    #[test]
    fn recv_with_retry_gives_up_with_a_typed_error() {
        let plan = FaultPlan::new().drop_message(1, 0, 0);
        let out = World::new(2).with_faults(plan).seq(|comm| {
            let mut m = Membership::new();
            if comm.rank() == 0 {
                let res = m.recv_with_retry::<_, u64>(comm, 1, 7, 2, "test");
                comm.send(1, 8, 1u64);
                format!("{res:?} after {} timeouts", m.timeouts_observed())
            } else {
                comm.send(0, 7, 42u64); // dropped
                let fin = m
                    .recv_with_retry::<_, u64>(comm, 0, 8, 1_000, "test")
                    .expect("final token");
                format!("got {fin}")
            }
        });
        assert_eq!(
            out.results[0],
            Some("Err(Silent) after 3 timeouts".to_string())
        );
        assert_eq!(out.results[1], Some("got 1".to_string()));
    }

    /// One phase: allgather the world ranks of the live group and log their
    /// sum (a value that changes when the group shrinks).
    fn sum_phase<C: Communicator>(sub: &SubComm<'_, C>, state: &mut Vec<u64>, _i: usize) {
        let ranks = sub.allgather(sub.world_rank(sub.rank()) as u64);
        state.push(ranks.iter().sum());
    }

    #[test]
    fn fault_free_recovery_meters_the_direct_loop_plus_its_overhead() {
        let direct = run_spmd_seq(4, |comm| {
            let mut log = Vec::new();
            for i in 0..3 {
                let all: Vec<Rank> = (0..comm.size()).collect();
                let sub = SubComm::new(comm, all, i as u64);
                sum_phase(&sub, &mut log, i);
            }
            log
        });
        let wrapped = run_spmd_seq(4, |comm| {
            run_recoverable(comm, 1, 3, Vec::new(), sum_phase).expect("no protocol faults")
        });
        for r in 0..4 {
            let out = &wrapped.results[r];
            assert_eq!(out.state, direct.results[r]);
            assert_eq!(
                wrapped.stats.pe(r).sent_words,
                direct.stats.pe(r).sent_words + out.audit.overhead_words,
                "PE {r} meters the direct loop plus exactly its overhead"
            );
        }
    }

    #[test]
    fn a_crash_rolls_back_to_the_checkpoint_and_reruns_over_survivors() {
        // Calibrate: a fault-free recovery-enabled run tells us each PE's
        // send count at every phase boundary.
        let baseline = run_spmd_seq(4, move |comm| {
            run_recoverable(comm, 2, 3, Vec::new(), sum_phase).expect("fault-free")
        });
        let full_sum: u64 = (0..4).sum::<usize>() as u64;
        for out in &baseline.results {
            assert_eq!(out.state, vec![full_sum; 3]);
            let audit = &out.audit;
            assert_eq!((audit.victims, audit.rerun_phases), (0, 0));
            assert_eq!(audit.detect_batch, None);
            assert!(audit.overhead_words > 0, "membership traffic is metered");
        }
        // Rank 2 dies at its first send after phase 0 — its heartbeat of
        // phase 1's membership round.
        let victim = 2;
        let crash_at = baseline.results[victim].sends_at_phase_end[0];
        let plan = FaultPlan::new().crash_pe(victim, crash_at);
        let out = World::new(4).with_faults(plan).seq(move |comm| {
            run_recoverable(comm, 2, 3, Vec::new(), sum_phase).expect("survivors recover")
        });
        assert!(out.results[victim].is_none(), "the victim crash-stopped");
        let survivor_sum: u64 = 4; // ranks 0 + 1 + 3
        for r in [0, 1, 3] {
            let res = out.results[r].clone().expect("survivor completes");
            // Phase 0's full-world result was rolled back (the checkpoint
            // cadence of 2 had not checkpointed yet), so all three phases
            // re-ran over the survivors.
            assert_eq!(res.state, vec![survivor_sum; 3], "PE {r}");
            assert_eq!(res.group, vec![0, 1, 3]);
            assert!(!res.evicted);
            let audit = res.audit;
            assert_eq!(audit.victims, 1);
            assert_eq!(audit.detect_batch, Some(1));
            assert_eq!(audit.rerun_phases, 1);
            assert_eq!(audit.survivors, 3);
            assert_eq!(audit.world, 4);
        }
    }

    #[test]
    fn checkpoints_reach_the_ring_successor_buddies() {
        let out = run_spmd_seq(3, |comm| {
            let group = Membership::new().round(comm).expect("fault-free round");
            let sub = SubComm::new(comm, group, 1);
            let blob = vec![comm.rank() as u64 * 100];
            let before = comm.stats_snapshot();
            let buddies: HashMap<Rank, Vec<u64>> =
                ring_push(&sub, CHECKPOINT_BUDDIES, CKPT_TAG, |_| blob.clone())
                    .into_iter()
                    .map(|(pred, received)| (sub.world_rank(pred), received))
                    .collect();
            let words = comm.stats_snapshot().since(&before).sent_words;
            assert!(words > 0);
            buddies
        });
        for (rank, buddies) in out.results.iter().enumerate() {
            let pred = (rank + 2) % 3;
            assert_eq!(buddies.get(&pred), Some(&vec![pred as u64 * 100]));
        }
    }
}
