//! The replay engine's aborts and the fault layer's crash-stops are control
//! flow, raised with `resume_unwind` so that they never reach the panic
//! hook; a panic of the user's closure still does.
//!
//! The hook is process-wide, so this file holds exactly one test: nothing
//! else runs in its process while the recording hook is installed.

use std::panic;
use std::sync::Mutex;

use topk_selection::commsim::{run_on, run_spmd_seq, Backend, Communicator, FaultPlan, World};

/// What the hook was called with: the message of a string payload, or a
/// marker for anything else (a sentinel would show up as that).
static REPORTED: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn reported() -> Vec<String> {
    std::mem::take(&mut *REPORTED.lock().unwrap())
}

fn send_to_peer<C: Communicator>(comm: &C) {
    comm.send(1 - comm.rank(), 1, 7u64);
}

#[test]
fn sentinels_bypass_the_panic_hook_and_user_panics_do_not() {
    panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string payload>".to_string());
        REPORTED.lock().unwrap().push(message);
    }));

    // Rank 0 runs first and blocks on every receive, so the region aborts
    // and replays executions; none of that is a panic anyone should see.
    let out = run_spmd_seq(4, |comm| {
        let next: u64 = comm.allreduce_sum(comm.rank() as u64);
        comm.allgather(next)
    });
    assert_eq!(out.results[0], vec![6; 4]);
    assert_eq!(reported(), Vec::<String>::new(), "blocked receives");

    // An injected crash-stop on both replay drivers: the victim unwinds
    // with the `Crashed` sentinel, the survivor finishes.
    let world = World::new(2).with_faults(FaultPlan::new().crash_pe(1, 0));
    for backend in [Backend::Seq, Backend::Mux] {
        let out = run_on!(backend, world, send_to_peer);
        assert_eq!(out.results, vec![Some(()), None], "{}", backend.name());
    }
    assert_eq!(reported(), Vec::<String>::new(), "injected crash-stops");

    // A bug in the closure, after a blocked receive has already aborted an
    // execution of the same PE: reported where it happens, then once more
    // when the region re-raises it with the rank.
    let died = panic::catch_unwind(|| {
        run_spmd_seq(2, |comm| {
            if comm.rank() == 0 {
                let _: u64 = comm.recv(1, 1);
                panic!("user bug");
            }
            comm.send(0, 1, 7u64);
        })
    });
    assert!(died.is_err());
    assert_eq!(reported(), ["user bug", "PE 0 panicked: user bug"]);
}
