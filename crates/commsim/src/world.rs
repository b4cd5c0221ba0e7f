//! One way to start a world: [`World`].

use std::time::Duration;

use crate::faults::{CompiledFaults, FaultPlan};
use crate::metrics::WorldStats;

/// Stack size of every thread a world spawns: one per PE on the threaded
/// backend, one per worker on the pool.  8 MiB holds every algorithm in this
/// workspace; only the touched pages are committed, so 1 024 PE threads fit.
pub(crate) const STACK_SIZE: usize = 8 << 20;

/// The engine a world runs on, as the bins select it with `--backend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per PE ([`World::threaded`]) — real concurrency and
    /// wall-clock timings.
    Threaded,
    /// The replay engine inline on the calling thread ([`World::seq`]) — one
    /// deterministic schedule, no `Send` bounds.
    Seq,
    /// The replay engine over a worker pool ([`World::mux`]) — p = 16 384
    /// and beyond, with bit-identical traffic metering.
    Mux,
}

impl Backend {
    /// Every backend, in CLI order.
    pub const ALL: [Backend; 3] = [Backend::Threaded, Backend::Seq, Backend::Mux];

    /// The CLI name (for report labels).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threaded => "threaded",
            Backend::Seq => "seq",
            Backend::Mux => "mux",
        }
    }
}

/// Parse a `--backend` value: one of the [`Backend::name`]s.
impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(value: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|b| b.name() == value)
            .ok_or_else(|| "expected threaded|seq|mux".to_string())
    }
}

/// Run one SPMD closure on a [`Backend`] chosen at run time:
/// `run_on!(backend, world, f)` is `world.threaded(f)`, `world.seq(f)` or
/// `world.mux(f)`.  A macro rather than a method because the closure literal
/// must reach each engine's entry on its own, to infer that engine's
/// communicator type and `Send` bounds.
#[macro_export]
macro_rules! run_on {
    ($backend:expr, $world:expr, $f:expr $(,)?) => {
        match $backend {
            $crate::Backend::Threaded => $world.threaded($f),
            $crate::Backend::Seq => $world.seq($f),
            $crate::Backend::Mux => $world.mux($f),
        }
    };
}

/// The configuration of one SPMD region on the §2 machine: `p` PEs, a
/// [`FaultPlan`] (the empty plan — the default — is fault-free), the worker
/// pool of the multiplexed driver and the detection window of the threaded
/// backend's failure-detecting receives.  Each engine has exactly one entry,
/// a method named after its [`Backend`]: [`World::threaded`] (one OS thread
/// per PE, [`Comm`](crate::Comm)), [`World::seq`] and [`World::mux`] (the
/// replay engine inline or over a pool, [`MuxComm`](crate::MuxComm)).  All
/// three return [`SpmdOutput<Option<T>>`]: `None` marks a PE the plan
/// crash-stopped, and [`SpmdOutput::fault_free`] unwraps a run in which none
/// did.
///
/// A closure has a single parameter type — `&Comm` on threads, `&MuxComm` on
/// the replay engine — so no method can take one closure and pick the
/// backend at run time.  [`run_on!`](crate::run_on) pastes the closure
/// into each engine's entry instead:
///
/// ```
/// use commsim::{run_on, Backend, Communicator, FaultPlan, World};
///
/// // PE 3 crash-stops before its first send; the others finish.
/// let world = World::new(4).with_faults(FaultPlan::new().crash_pe(3, 0));
/// for backend in Backend::ALL {
///     let out = run_on!(backend, world, |comm| {
///         comm.send(comm.rank(), 1, 7u64);
///         comm.recv::<u64>(comm.rank(), 1)
///     });
///     assert_eq!(out.results, vec![Some(7), Some(7), Some(7), None], "{}", backend.name());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct World {
    /// Number of simulated PEs.
    pub(crate) num_pes: usize,
    /// Worker threads of [`World::mux`]; `None` is the machine's available
    /// parallelism.
    pub(crate) num_workers: Option<usize>,
    /// The empty plan is fault-free.
    pub(crate) faults: FaultPlan,
    pub(crate) recv_failable_window: Duration,
}

impl World {
    /// A fault-free world of `num_pes` PEs with default settings.
    pub fn new(num_pes: usize) -> Self {
        World {
            num_pes,
            num_workers: None,
            faults: FaultPlan::new(),
            recv_failable_window: crate::comm::DEFAULT_FAILABLE_WINDOW,
        }
    }

    /// Multiplex [`World::mux`]'s PEs over `num_workers` threads, capped at
    /// `num_pes` (tests force real multiplexing with `num_workers <<
    /// num_pes`); the other engines ignore it.  The default is the machine's
    /// available parallelism.
    pub fn with_workers(mut self, num_workers: usize) -> Self {
        self.num_workers = Some(num_workers);
        self
    }

    /// Inject the fault schedule `plan` (see [`FaultPlan`]).  The empty
    /// plan, the default, leaves a run bit-identical to one no fault hook
    /// ever saw.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Override the wall-clock detection window of
    /// [`crate::Communicator::recv_failable`] on the threaded backend under
    /// a non-empty plan (fault-free runs use plain blocking receives; the
    /// replay engine detects at quiescence).  The 250 ms default is far
    /// above any scheduling hiccup this repo's test loads produce; slow CI
    /// runners can widen it instead of flaking, and tests of the timeout
    /// path shrink it to keep retries cheap.  Timeout verdicts are retryable
    /// by contract, so the knob trades detection latency against spurious
    /// retries — it cannot change what a correct protocol computes.
    pub fn with_recv_failable_window(mut self, window: Duration) -> Self {
        self.recv_failable_window = window;
        self
    }

    /// Validate the world and compile its plan for the engines' hot paths;
    /// `None` when fault-free, so no fault hook runs.
    pub(crate) fn compiled_faults(&self) -> Option<CompiledFaults> {
        assert!(self.num_pes > 0, "an SPMD region needs at least one PE");
        self.faults.compile(self.num_pes)
    }
}

/// Result of an SPMD region.
#[derive(Debug)]
pub struct SpmdOutput<T> {
    /// Per-PE return values, indexed by rank.
    pub results: Vec<T>,
    /// Aggregated communication statistics of the whole region.
    pub stats: WorldStats,
    /// Wall-clock time of the region (from just before the first PE starts to
    /// just after the last PE finishes).
    pub elapsed: Duration,
}

impl<T> SpmdOutput<T> {
    /// Consume the output, keeping only the per-PE results.
    pub fn into_results(self) -> Vec<T> {
        self.results
    }
}

impl<T> SpmdOutput<Option<T>> {
    /// Unwrap the per-PE results of a run in which no PE crash-stopped.
    ///
    /// # Panics
    ///
    /// If a PE crashed, naming its rank.
    pub fn fault_free(self) -> SpmdOutput<T> {
        SpmdOutput {
            results: self
                .results
                .into_iter()
                .enumerate()
                .map(|(rank, v)| {
                    v.unwrap_or_else(|| panic!("PE {rank} crashed in a fault-free run"))
                })
                .collect(),
            stats: self.stats,
            elapsed: self.elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::Communicator;

    #[test]
    fn builder_sets_every_value() {
        let world = World::new(3)
            .with_workers(2)
            .with_faults(FaultPlan::new().crash_pe(1, 0))
            .with_recv_failable_window(Duration::from_millis(5));
        assert_eq!(world.num_pes, 3);
        assert_eq!(world.num_workers, Some(2));
        assert_eq!(world.faults.events().len(), 1);
        assert_eq!(world.recv_failable_window, Duration::from_millis(5));
        for backend in Backend::ALL {
            let out = run_on!(backend, World::new(3), |comm| comm.size());
            assert_eq!(out.fault_free().results, vec![3, 3, 3], "{backend:?}");
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in Backend::ALL {
            assert_eq!(backend.name().parse(), Ok(backend));
        }
        assert!("Threaded".parse::<Backend>().is_err());
    }

    #[test]
    #[should_panic(expected = "PE 2 crashed in a fault-free run")]
    fn fault_free_names_the_crashed_rank() {
        let world = World::new(3).with_faults(FaultPlan::new().crash_pe(2, 0));
        let _ = world
            .seq(|comm| comm.send(comm.rank(), 1, 0u64))
            .fault_free();
    }
}
