//! The `--chaos` harness of the batch figures: fig6 and fig7 run their
//! recoverable bodies through [`run_chaos`].

use commsim::recovery::RecoveryOutcome;
use commsim::{run_on, Backend, Communicator, FaultPlan, Rank, World};

/// One PE's share of a chaos run: an algorithm driven by
/// [`commsim::recovery::run_recoverable`].  A trait, not a closure, because
/// the body must be generic over the communicator of every backend.
pub trait RecoverableBody: Sync {
    /// The checkpointed algorithm state.
    type State: Send;

    /// Run this PE's share.
    fn run<C: Communicator>(&self, comm: &C) -> RecoveryOutcome<Self::State>;
}

/// What a chaos run left behind.
pub struct ChaosRun<S> {
    /// Each PE's outcome, `None` for the victims.
    pub results: Vec<Option<RecoveryOutcome<S>>>,
    /// The ranks that crash-stopped.
    pub victims: Vec<Rank>,
}

impl<S> ChaosRun<S> {
    /// Rank 0's outcome: rank 0 is never a victim candidate, so it always
    /// survives and holds the audit row.
    pub fn survivor(&self) -> &RecoveryOutcome<S> {
        self.results[0]
            .as_ref()
            .expect("rank 0 is never a victim candidate")
    }
}

/// Refuse a `--chaos` run on `backend` unless it is a replay driver: a
/// fault plan runs on the replay engine only.  Called before the
/// calibration pass, so a threaded run stops before doing any work.
///
/// # Panics
///
/// Panics on [`Backend::Threaded`], naming the backends that run `--chaos`.
pub fn require_replay_backend(backend: Backend) {
    assert!(
        backend != Backend::Threaded,
        "--chaos injects faults, which run on the replay engine only: pass --backend seq|mux"
    );
}

/// Run `body` on `p` PEs of `backend` (a replay driver) with `crashes`
/// seeded crash-stops at a phase boundary, and print the survivors'
/// `recovery-audit` row.
///
/// A fault-free calibration run records each PE's send count at every
/// phase boundary; a victim whose crash count equals its phase-0 boundary
/// dies at its first send of phase 1 — its membership heartbeat.
/// [`FaultPlan::seeded_crashes`] draws the victims from ranks `1..p`, so
/// rank 0, the initial coordinator, gives the audit row a stable home.
///
/// # Panics
///
/// Panics if `backend` is threaded (see [`require_replay_backend`]), if
/// `p < 2` or if `crashes >= p`.
pub fn run_chaos<B: RecoverableBody>(
    backend: Backend,
    p: usize,
    chaos_seed: u64,
    crashes: usize,
    body: &B,
) -> ChaosRun<B::State> {
    require_replay_backend(backend);
    assert!(p >= 2, "--chaos needs at least 2 PEs");
    assert!(crashes < p, "--crashes must leave at least one survivor");
    let baseline = run_on!(backend, World::new(p), |comm| body.run(comm)).fault_free();
    let candidates: Vec<(Rank, u64)> = baseline
        .results
        .iter()
        .enumerate()
        .skip(1)
        .map(|(r, out)| (r, out.sends_at_phase_end[0]))
        .collect();
    let world =
        World::new(p).with_faults(FaultPlan::seeded_crashes(chaos_seed, &candidates, crashes));

    let results = run_on!(backend, world, |comm| body.run(comm)).results;
    let victims = (0..p).filter(|&r| results[r].is_none()).collect();
    let run = ChaosRun { results, victims };
    println!("{}", run.survivor().audit.audit_line());
    run
}
