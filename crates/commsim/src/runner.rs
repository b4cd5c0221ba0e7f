//! The threaded SPMD executor: [`World::threaded`].
//!
//! It spawns one thread per simulated PE, hands each a [`Comm`] handle wired
//! into the sharded inbox transport (`O(p)` setup, see
//! [`crate::transport`]), runs the user closure on every PE, and collects the
//! per-PE return values together with the aggregated communication
//! statistics and the wall-clock time of the region.  [`run_spmd`] is its
//! fault-free form.
//!
//! For a deterministic run of the same closures without spawning threads,
//! see [`World::seq`]; for thousands of PEs over a few threads,
//! [`World::mux`] (both drive the replay engine, [`crate::mux`]).  All
//! engines produce the same [`SpmdOutput`] shape, and closures written
//! against the [`crate::Communicator`] trait work with any of them.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use crate::comm::Comm;
use crate::faults::Crashed;
use crate::metrics::StatsRegistry;
use crate::transport::Mailbox;
use crate::world::{SpmdOutput, World, STACK_SIZE};

/// Run `f` on `p` simulated PEs, one OS thread each, and collect the
/// results: `World::new(p).threaded(f)` with no PE able to crash.
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
    World::new(p).threaded(f).fault_free()
}

impl World {
    /// Run `f` on one OS thread per PE under this world's fault plan.
    ///
    /// `results[rank]` is `None` exactly for the PEs that crash-stopped;
    /// every surviving PE ran its closure to completion.  Unlike the replay
    /// engine, whose [`CommError::Timeout`] verdicts are deterministic
    /// (forced only at whole-world quiescence and replayed verbatim), this
    /// backend detects slowness with a real wall-clock window
    /// ([`World::with_recv_failable_window`]) — timeout verdicts here depend
    /// on scheduling.  Crash and drop effects, and all traffic metering,
    /// remain deterministic.
    ///
    /// # Panics
    ///
    /// As [`run_spmd`].
    ///
    /// [`CommError::Timeout`]: crate::CommError::Timeout
    pub fn threaded<T, F>(&self, f: F) -> SpmdOutput<Option<T>>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        let faults = self.compiled_faults().map(Arc::new);
        let p = self.num_pes;
        let registry = StatsRegistry::new(p);
        let mailboxes = Mailbox::full_mesh(p);
        let crashed: Arc<Vec<AtomicBool>> =
            Arc::new((0..p).map(|_| AtomicBool::new(false)).collect());
        let failable_window = self.recv_failable_window;
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
                    .stack_size(STACK_SIZE);
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
                                    // drops: an observer that sees the
                                    // teardown and then loads this flag
                                    // cannot miss it.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::Communicator;
    use std::time::Duration;

    #[test]
    fn results_are_indexed_by_rank() {
        let out = run_spmd(5, |comm| comm.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
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
