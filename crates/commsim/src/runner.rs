//! The threaded SPMD executor.
//!
//! [`run_spmd`] spawns one thread per simulated PE, hands each a [`Comm`]
//! handle wired into the lock-free sharded inbox transport (`O(p)` setup,
//! see [`crate::transport`]), runs the user closure on every
//! PE, and collects the per-PE return values together with the aggregated
//! communication statistics and the wall-clock time of the region.
//!
//! For a deterministic run of the same closures without spawning threads,
//! see [`crate::run_spmd_seq`]; for thousands of PEs over a few threads,
//! [`crate::run_spmd_mux`] (both drive the replay engine, [`crate::mux`]).
//! All runners produce the same [`SpmdOutput`] shape, and closures written
//! against the [`crate::Communicator`] trait work with any of them.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::comm::Comm;
use crate::faults::{Crashed, FaultPlan};
use crate::metrics::{StatsRegistry, WorldStats};
use crate::transport::Mailbox;

/// Configuration of an SPMD run.
#[derive(Debug, Clone)]
pub struct SpmdConfig {
    /// Number of simulated PEs (threads).
    pub num_pes: usize,
    /// Stack size per PE thread in bytes.  The default (8 MiB) is plenty for
    /// all algorithms in this repository; deep recursions on huge local
    /// inputs may want more.
    pub stack_size: usize,
    /// Fault schedule to inject (see [`crate::faults`]).  `None` — and an
    /// empty plan — leave the run bit-identical to a fault-free one.
    pub faults: Option<FaultPlan>,
    /// Wall-clock detection window of
    /// [`crate::Communicator::recv_failable`] on fault-injecting runs
    /// (fault-free runs use plain blocking receives and never consult it).
    /// The 250 ms default is far above any scheduling hiccup this repo's
    /// test loads produce; slow CI runners can widen it instead of flaking,
    /// and tests of the timeout path shrink it to keep retries cheap.
    /// Timeout verdicts are retryable by contract, so the knob trades
    /// detection latency against spurious retries — it cannot change what a
    /// correct protocol computes.
    pub recv_failable_window: Duration,
}

impl SpmdConfig {
    /// Configuration with `num_pes` PEs and default stack size.
    pub fn new(num_pes: usize) -> Self {
        SpmdConfig {
            num_pes,
            stack_size: 8 * 1024 * 1024,
            faults: None,
            recv_failable_window: crate::comm::DEFAULT_FAILABLE_WINDOW,
        }
    }

    /// Override the per-PE stack size.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Attach a fault schedule (used with [`run_spmd_faulty`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Override the [`crate::Communicator::recv_failable`] detection window.
    pub fn with_recv_failable_window(mut self, window: Duration) -> Self {
        self.recv_failable_window = window;
        self
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
    /// The result of the root PE (rank 0).
    pub fn root(&self) -> &T {
        &self.results[0]
    }

    /// Consume the output, keeping only the per-PE results.
    pub fn into_results(self) -> Vec<T> {
        self.results
    }
}

impl<T> SpmdOutput<Option<T>> {
    /// Unwrap the per-PE results of a run that had no fault plan to crash one.
    pub(crate) fn fault_free(self) -> SpmdOutput<T> {
        SpmdOutput {
            results: self
                .results
                .into_iter()
                .map(|v| v.expect("fault-free run cannot crash a PE"))
                .collect(),
            stats: self.stats,
            elapsed: self.elapsed,
        }
    }
}

/// Run `f` on `p` simulated PEs and collect the results.
///
/// `f` is invoked once per PE with that PE's [`Comm`] handle; it must treat
/// its captured environment as *read-only shared state* (captured references
/// model data that was replicated before the algorithm starts, not the
/// distributed input — distributed input is whatever each PE derives from
/// `comm.rank()` or generates locally).
///
/// # Panics
///
/// Panics if `p == 0` or if any PE panics (the panic is propagated with the
/// rank of the offending PE).
pub fn run_spmd<T, F>(p: usize, f: F) -> SpmdOutput<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Send + Sync,
{
    run_spmd_with(SpmdConfig::new(p), f)
}

/// Like [`run_spmd`] but with explicit configuration.  Rejects a non-empty
/// fault plan — crashed PEs cannot be expressed in `SpmdOutput<T>`; use
/// [`run_spmd_faulty`] for that.
pub fn run_spmd_with<T, F>(config: SpmdConfig, f: F) -> SpmdOutput<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Send + Sync,
{
    assert!(
        config.faults.as_ref().is_none_or(FaultPlan::is_empty),
        "run_spmd_with cannot express crashed PEs; use run_spmd_faulty"
    );
    run_threaded_core(config, None, f).fault_free()
}

/// Run `f` under a fault schedule (see [`crate::faults`]): the threaded
/// counterpart of [`run_spmd`] for chaos testing with real concurrency.
///
/// `results[rank]` is `None` exactly for the PEs that crash-stopped; every
/// surviving PE ran its closure to completion.  An empty (or absent) fault
/// plan is bit-identical — results and metered words per PE — to
/// [`run_spmd_with`].
///
/// Unlike the replay runners ([`crate::run_spmd_seq_faulty`],
/// [`crate::run_spmd_mux_faulty`]), whose [`CommError::Timeout`] verdicts
/// are deterministic (forced only at whole-world quiescence and replayed
/// verbatim), the threaded backend detects slowness with a real wall-clock
/// window — timeout verdicts here depend on scheduling.  Crash and drop
/// effects, and all traffic metering, remain deterministic.
///
/// [`CommError::Timeout`]: crate::CommError::Timeout
pub fn run_spmd_faulty<T, F>(config: SpmdConfig, f: F) -> SpmdOutput<Option<T>>
where
    T: Send,
    F: Fn(&Comm) -> T + Send + Sync,
{
    let compiled = config
        .faults
        .as_ref()
        .and_then(|plan| plan.compile(config.num_pes));
    run_threaded_core(config, compiled.map(Arc::new), f)
}

/// The thread-per-PE executor shared by the fault-free and fault-injecting
/// entry points.  Returns `None` for PEs that crash-stopped.
fn run_threaded_core<T, F>(
    config: SpmdConfig,
    faults: Option<Arc<crate::faults::CompiledFaults>>,
    f: F,
) -> SpmdOutput<Option<T>>
where
    T: Send,
    F: Fn(&Comm) -> T + Send + Sync,
{
    let p = config.num_pes;
    assert!(p > 0, "an SPMD region needs at least one PE");
    let registry = StatsRegistry::new(p);
    let mailboxes = Mailbox::full_mesh(p);
    let crashed: Arc<Vec<AtomicBool>> = Arc::new((0..p).map(|_| AtomicBool::new(false)).collect());
    let failable_window = config.recv_failable_window;
    let f = &f;

    let start = Instant::now();
    let results: Vec<Option<T>> = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, mailbox) in mailboxes.into_iter().enumerate() {
            let registry = registry.clone();
            let faults = faults.clone();
            let crashed = Arc::clone(&crashed);
            let builder = thread::Builder::new()
                .name(format!("pe-{rank}"))
                .stack_size(config.stack_size);
            let handle = builder
                .spawn_scoped(scope, move || {
                    let comm = match faults {
                        Some(plan) => Comm::new_faulty(
                            mailbox,
                            registry,
                            plan,
                            Arc::clone(&crashed),
                            failable_window,
                        ),
                        None => Comm::new(mailbox, registry),
                    };
                    match catch_unwind(AssertUnwindSafe(|| f(&comm))) {
                        Ok(v) => Some(v),
                        Err(payload) => {
                            if payload.downcast_ref::<Crashed>().is_some() {
                                // Publish the crash verdict *before* the
                                // communicator (and with it the mailbox)
                                // drops: an observer that sees the teardown
                                // and then loads this flag cannot miss it.
                                crashed[rank].store(true, Ordering::SeqCst);
                                drop(comm);
                                None
                            } else {
                                resume_unwind(payload)
                            }
                        }
                    }
                })
                .expect("failed to spawn PE thread");
            handles.push(handle);
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(v) => v,
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    panic!("PE {rank} panicked: {msg}");
                }
            })
            .collect()
    });
    let elapsed = start.elapsed();

    SpmdOutput {
        results,
        stats: registry.world(),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::Communicator;

    #[test]
    fn results_are_indexed_by_rank() {
        let out = run_spmd(5, |comm| comm.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
        assert_eq!(*out.root(), 0);
    }

    #[test]
    fn single_pe_world_works() {
        let out = run_spmd(1, |comm| {
            assert_eq!(comm.size(), 1);
            "ok"
        });
        assert_eq!(out.into_results(), vec!["ok"]);
    }

    #[test]
    fn no_communication_means_zero_stats() {
        let out = run_spmd(4, |comm| comm.rank());
        assert_eq!(out.stats.total_words(), 0);
        assert_eq!(out.stats.total_messages(), 0);
        assert_eq!(out.stats.bottleneck_words(), 0);
    }

    #[test]
    fn elapsed_time_is_positive() {
        let out = run_spmd(2, |_comm| std::thread::sleep(Duration::from_millis(1)));
        assert!(out.elapsed >= Duration::from_millis(1));
    }

    #[test]
    fn config_builder_sets_fields() {
        let cfg = SpmdConfig::new(3).with_stack_size(1 << 20);
        assert_eq!(cfg.num_pes, 3);
        assert_eq!(cfg.stack_size, 1 << 20);
        let out = run_spmd_with(cfg, |comm| comm.size());
        assert_eq!(out.results, vec![3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_is_rejected() {
        let _ = run_spmd(0, |_comm| ());
    }

    #[test]
    #[should_panic(expected = "PE 1 panicked")]
    fn pe_panics_are_propagated_with_rank() {
        let _ = run_spmd(2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn captured_environment_is_shared_read_only() {
        let shared = [1u64, 2, 3, 4];
        let out = run_spmd(4, |comm| shared[comm.rank()]);
        assert_eq!(out.results, vec![1, 2, 3, 4]);
    }
}
