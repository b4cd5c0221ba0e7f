//! Integration pins for the crash-stop recovery layer (`commsim::recovery`
//! plus the `topk::recover` façades).
//!
//! Two properties carry the subsystem:
//!
//! 1. **A fault-free run costs exactly its audited overhead** — a
//!    recoverable batch run without a crash returns what calling the
//!    underlying kernel directly returns, and each PE sends exactly the
//!    direct call's words plus the audit's `overhead_words` (membership and
//!    checkpoint traffic), on all three backends.  This is what keeps every
//!    fault-free experiment in EXPERIMENTS.md valid verbatim.
//! 2. **Crash-stop survival** — with one PE crashed at a phase boundary, the
//!    surviving group detects the crash, regroups, rolls back to the last
//!    checkpoint, and finishes with results a brute-force oracle confirms
//!    over the *surviving* data — on both drivers of the replay engine,
//!    the one engine that injects faults.

use topk_selection::commsim::recovery::RecoveryOutcome;
use topk_selection::commsim::{
    run_on, run_spmd_seq, Backend, Communicator, FaultPlan, SpmdOutput, World,
};
use topk_selection::datagen::SkewedSelectionInput;
use topk_selection::topk::planner::Algorithm;
use topk_selection::topk::recover::{run_frequent_recoverable, select_k_smallest_recoverable};
use topk_selection::topk::{select_k_smallest, FrequentParams};

const P: usize = 4;
const PER_PE: usize = 512;
const K: usize = 32;
const SEED: u64 = 0xF166 + P as u64; // the fig6 seed at this world size

fn local_data(rank: usize) -> Vec<u64> {
    SkewedSelectionInput::default()
        .generate(rank, PER_PE)
        .iter()
        .map(|&v| u64::MAX - v) // fig6's dual order (select the k largest)
        .collect()
}

/// The k-th smallest of the pooled data of `ranks` — the brute-force oracle.
fn oracle_threshold(ranks: &[usize]) -> u64 {
    let mut all: Vec<u64> = ranks.iter().flat_map(|&r| local_data(r)).collect();
    all.sort_unstable();
    all[K - 1]
}

// ---------------------------------------------------------------------------
// 1. A fault-free run costs exactly its audited overhead.
// ---------------------------------------------------------------------------

/// Checkpoint after every phase, so the fault-free runs below pay for
/// checkpoint pushes as well as membership rounds.
const CHECKPOINT_EVERY: usize = 1;

/// Assert a fault-free recoverable run against the direct one: per PE, the
/// same result, and the direct run's sent words plus the audited overhead.
fn assert_direct_plus_overhead<T: PartialEq + std::fmt::Debug>(
    name: &str,
    wrapped: &SpmdOutput<(T, u64)>,
    direct: &SpmdOutput<T>,
) {
    for r in 0..P {
        let (result, overhead_words) = &wrapped.results[r];
        assert_eq!(
            result, &direct.results[r],
            "{name}: the recoverable run must return the direct result"
        );
        assert!(*overhead_words > 0, "{name} PE {r}: membership is metered");
        assert_eq!(
            wrapped.stats.pe(r).sent_words,
            direct.stats.pe(r).sent_words + overhead_words,
            "{name} PE {r}: sent words must be the direct call's plus the overhead"
        );
    }
}

fn wrapped_selection<C: Communicator>(comm: &C) -> (u64, u64) {
    let out =
        select_k_smallest_recoverable(comm, &local_data(comm.rank()), K, SEED, 1, CHECKPOINT_EVERY)
            .expect("fault-free");
    (out.state[0], out.audit.overhead_words)
}

fn direct_selection<C: Communicator>(comm: &C) -> u64 {
    select_k_smallest(comm, &local_data(comm.rank()), K, SEED).threshold
}

#[test]
fn fault_free_recoverable_selection_meters_the_direct_call_plus_its_overhead() {
    // A single phase keeps the caller's seed verbatim, so it must reproduce
    // the `select_k_smallest` call exactly.
    let expected = oracle_threshold(&[0, 1, 2, 3]);
    for backend in Backend::ALL {
        let name = backend.name();
        let wrapped = run_on!(backend, World::new(P), wrapped_selection).fault_free();
        let direct = run_on!(backend, World::new(P), direct_selection).fault_free();
        assert_direct_plus_overhead(name, &wrapped, &direct);
        for r in 0..P {
            assert_eq!(wrapped.results[r].0, expected, "{name}: oracle threshold");
        }
    }
}

const FREQUENT_PHASES: usize = 2;

fn frequent_params() -> FrequentParams {
    FrequentParams::new(8, 0.05, 1e-4, 0xF17)
}

fn wrapped_frequent<C: Communicator>(comm: &C) -> (Vec<Vec<(u64, u64)>>, u64) {
    let out = run_frequent_recoverable(
        comm,
        Algorithm::Ec,
        &local_data(comm.rank()),
        &frequent_params(),
        FREQUENT_PHASES,
        CHECKPOINT_EVERY,
    )
    .expect("fault-free");
    (out.state, out.audit.overhead_words)
}

fn direct_frequent<C: Communicator>(comm: &C) -> Vec<Vec<(u64, u64)>> {
    (0..FREQUENT_PHASES)
        .map(|_| {
            Algorithm::Ec
                .run(comm, &local_data(comm.rank()), &frequent_params())
                .items
        })
        .collect()
}

#[test]
fn fault_free_recoverable_frequent_meters_the_direct_loop_plus_its_overhead() {
    // Two phases of the frequent-objects façade (params verbatim each
    // phase, a checkpoint between them) versus the same two direct
    // `Algorithm::run` calls.
    for backend in Backend::ALL {
        let wrapped = run_on!(backend, World::new(P), wrapped_frequent).fault_free();
        let direct = run_on!(backend, World::new(P), direct_frequent).fault_free();
        assert_direct_plus_overhead(backend.name(), &wrapped, &direct);
    }
}

// ---------------------------------------------------------------------------
// 2. Crash-stop survival (the fig6 chaos path, pinned as a test).
// ---------------------------------------------------------------------------

fn chaos_body<C: Communicator>(comm: &C, phases: usize) -> RecoveryOutcome<Vec<u64>> {
    select_k_smallest_recoverable(comm, &local_data(comm.rank()), K, SEED, phases, 2)
        .expect("membership protocol violation")
}

/// Shared assertions over a one-crash chaos run: the victim is gone, every
/// survivor finished all phases, and the final threshold matches the
/// brute-force oracle over the surviving data.
fn assert_survivors_correct(name: &str, out: &[Option<RecoveryOutcome<Vec<u64>>>], phases: usize) {
    let victims: Vec<usize> = (0..P).filter(|&r| out[r].is_none()).collect();
    assert_eq!(victims.len(), 1, "{name}: exactly one injected crash");
    let survivor = out[0].as_ref().expect("rank 0 is never a candidate");
    let live = survivor.group.clone();
    assert_eq!(live.len(), P - 1, "{name}: survivors regrouped");
    assert!(!live.contains(&victims[0]), "{name}: victim left the group");

    let audit = &survivor.audit;
    assert_eq!(audit.victims, 1, "{name}: audit counts the victim");
    assert_eq!(audit.survivors, P - 1, "{name}: audit counts survivors");
    assert!(audit.detect_batch.is_some(), "{name}: crash was detected");
    assert!(audit.rerun_phases >= 1, "{name}: rollback re-ran work");

    let expected = oracle_threshold(&live);
    for &r in &live {
        let res = out[r].as_ref().expect("live PE completed");
        assert!(!res.evicted, "{name}: no live PE evicted");
        assert_eq!(
            res.state.len(),
            phases,
            "{name} PE {r}: all phases completed"
        );
        assert_eq!(
            *res.state.last().expect("phases > 0"),
            expected,
            "{name} PE {r}: final threshold matches the oracle over survivors"
        );
    }
}

#[test]
fn one_crash_selection_recovers_over_survivors_on_both_replay_drivers() {
    let phases = 3;
    // Calibrate once on the inline driver: a victim whose crash send-count
    // equals its phase-0 boundary dies at its first send of phase 1 (its
    // membership heartbeat).  The boundaries are bit-identical across
    // backends, so the same plan is valid on both drivers.
    let baseline = run_spmd_seq(P, |c| chaos_body(c, phases));
    let candidates: Vec<(usize, u64)> = (1..P)
        .map(|r| (r, baseline.results[r].sends_at_phase_end[0]))
        .collect();
    let plan = FaultPlan::seeded_crashes(0xC7A05, &candidates, 1);

    let world = World::new(P).with_faults(plan);
    for backend in [Backend::Seq, Backend::Mux] {
        let out = run_on!(backend, world, |c| chaos_body(c, phases));
        assert_survivors_correct(backend.name(), &out.results, phases);
    }
}
