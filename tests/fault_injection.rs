//! Integration pins for the commsim fault-injection layer.
//!
//! Fault plans run on the replay engine (`World::seq`, `World::mux`); the
//! threaded backend refuses a non-empty plan and is the fault-free oracle.
//! Three properties carry the subsystem:
//!
//! 1. **Zero-cost when absent** — running under an *empty* `FaultPlan` is
//!    bit-identical (results *and* per-PE metered traffic) to the
//!    fault-free threaded run, on all three backends.  This is what lets
//!    every fault-free experiment in EXPERIMENTS.md stay valid verbatim.
//! 2. **Crash-stop semantics** — a PE crashed at its `n`-th send dies
//!    *before* that send leaves, failure-detecting receivers observe the
//!    exact `PeerDead` verdict instead of deadlocking, and survivors keep
//!    communicating.
//! 3. **Determinism** — a seeded plan builds the same events every time,
//!    and replaying the same plan yields the same results and the same
//!    metered traffic.

use topk_selection::commsim::{
    run_on, run_spmd, run_spmd_seq, Backend, Communicator, FaultPlan, World,
};

/// The backends that run a fault plan: both drivers of the replay engine.
const REPLAY: [Backend; 2] = [Backend::Seq, Backend::Mux];

/// A workload mixing point-to-point traffic with the collective suite, so
/// the no-op-plan pins cover both the raw transport path and the collective
/// tag stripes.
fn mixed_workload<C: Communicator>(comm: &C) -> (u64, u64, u64) {
    let p = comm.size();
    let me = comm.rank();
    comm.send((me + 1) % p, 7, (me as u64) * 3 + 1);
    let from_prev: u64 = comm.recv((me + p - 1) % p, 7);
    let sum = comm.allreduce_sum(from_prev + me as u64);
    let beacon = comm.broadcast_from_root(if me == 0 { Some(sum ^ 0xABCD) } else { None });
    (from_prev, sum, beacon)
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan_on_all_three_backends() {
    let p = 6;
    let base = run_spmd(p, mixed_workload);
    let empty = World::new(p).with_faults(FaultPlan::new());
    for backend in Backend::ALL {
        let name = backend.name();
        let ft = run_on!(backend, empty, mixed_workload).fault_free();
        assert_eq!(
            ft.results, base.results,
            "{name}: results diverge under the empty plan"
        );
        assert_eq!(
            ft.stats.per_pe(),
            base.stats.per_pe(),
            "{name}: metered traffic diverges under the empty plan"
        );
    }
}

#[test]
#[should_panic(expected = "use World::seq or World::mux")]
fn the_threaded_backend_refuses_a_fault_plan() {
    World::new(2)
        .with_faults(FaultPlan::new().crash_pe(1, 0))
        .threaded(|comm| comm.rank());
}

/// Rank 2 dies immediately before its very first send; rank 0 detects the
/// death through `recv_failable` and then proves the surviving pair can
/// still talk.
fn crash_witness<C: Communicator>(comm: &C) -> String {
    match comm.rank() {
        2 => {
            comm.send(0, 5, 42u64); // never leaves: the crash fires first
            "sent".into()
        }
        0 => {
            let err = comm
                .recv_failable::<u64>(2, 5)
                .expect_err("the message from the crashed PE must never arrive");
            comm.send(1, 6, 7u64);
            format!("{err:?}")
        }
        _ => {
            let v: u64 = comm.recv(0, 6);
            format!("got {v}")
        }
    }
}

#[test]
fn a_crashed_peer_is_reported_to_failable_receivers_on_every_backend() {
    let world = World::new(3).with_faults(FaultPlan::new().crash_pe(2, 0));
    for backend in REPLAY {
        let name = backend.name();
        let out = run_on!(backend, world, crash_witness);
        assert!(
            out.results[2].is_none(),
            "{name}: the crashed PE must yield None"
        );
        assert!(
            out.results[0].is_some() && out.results[1].is_some(),
            "{name}: survivors must complete"
        );
        assert_eq!(
            out.results[1].as_deref(),
            Some("got 7"),
            "{name}: survivor traffic after the detection must flow"
        );
        // The replay engine *proves* the death (the victim's send log is
        // final), so its verdict is the strong one on either driver.
        assert_eq!(
            out.results[0].as_deref(),
            Some("PeerDead { rank: 2 }"),
            "{name} must return the proven-dead verdict, not a timeout"
        );
    }
}

/// Rank 0's first message to rank 1 is held back by the plan; rank 0 then
/// pumps its send clock with traffic to rank 2 until the holdback releases.
/// No receive on the delayed pair sits upstream of the sender's clock, so
/// the run always completes — a delay must reorder *time*, not results.
fn delay_witness<C: Communicator>(comm: &C) -> u64 {
    match comm.rank() {
        0 => {
            comm.send(1, 1, 99u64); // held back for 3 send-ops
            for i in 0..4u64 {
                comm.send(2, 2, i);
            }
            0
        }
        1 => comm.recv::<u64>(0, 1),
        _ => (0..4).map(|_| comm.recv::<u64>(0, 2)).sum(),
    }
}

#[test]
fn delayed_messages_arrive_with_unchanged_results_and_metering() {
    let p = 3;
    let base = run_spmd(p, delay_witness);
    let delayed = World::new(p).with_faults(FaultPlan::new().delay_pair(0, 1, 3));
    for backend in REPLAY {
        let name = backend.name();
        let ft = run_on!(backend, delayed, delay_witness).fault_free();
        assert_eq!(
            ft.results, base.results,
            "{name}: a pure delay must not change any result"
        );
        assert_eq!(
            ft.stats.per_pe(),
            base.stats.per_pe(),
            "{name}: a pure delay must not change the metering"
        );
    }
}

/// Rank 0 sends two messages to rank 1; the plan drops the first.  The
/// receiver only ever waits for the second, so the run completes — and the
/// metering must show the drop charged at the sender but absent at the
/// receiver (the network ate it *after* the NIC counted it).
fn drop_witness<C: Communicator>(comm: &C) -> u64 {
    match comm.rank() {
        0 => {
            comm.send(1, 1, 111u64);
            comm.send(1, 2, 222u64);
            0
        }
        _ => comm.recv::<u64>(0, 2),
    }
}

#[test]
fn dropped_messages_are_metered_at_the_sender_but_never_delivered() {
    let world = World::new(2).with_faults(FaultPlan::new().drop_message(0, 1, 0));
    for backend in REPLAY {
        let name = backend.name();
        let out = run_on!(backend, world, drop_witness);
        assert_eq!(
            out.results[1],
            Some(222),
            "{name}: the second message must arrive first-in-line"
        );
        assert_eq!(
            out.stats.pe(0).sent_messages,
            2,
            "{name}: the drop is charged at the sender"
        );
        assert_eq!(
            out.stats.pe(1).received_messages,
            1,
            "{name}: the dropped message must never reach the receiver"
        );
    }
}

/// Every rank fires a token at every other rank, then failure-detects each
/// incoming token — tolerant of any crash pattern, so arbitrary seeded
/// plans replay on it.
fn probe_all<C: Communicator>(comm: &C) -> Vec<String> {
    let (p, me) = (comm.size(), comm.rank());
    for dst in 0..p {
        if dst != me {
            comm.send(dst, 11, me as u64);
        }
    }
    (0..p)
        .filter(|src| *src != me)
        .map(|src| match comm.recv_failable::<u64>(src, 11) {
            Ok(v) => format!("ok {v}"),
            Err(e) => format!("err {e:?}"),
        })
        .collect()
}

#[test]
fn seeded_crash_plans_build_and_replay_deterministically() {
    let candidates: Vec<(usize, u64)> = (0..8).map(|r| (r, r as u64 % 3)).collect();
    let a = FaultPlan::seeded_crashes(0xC0FFEE, &candidates, 3);
    let b = FaultPlan::seeded_crashes(0xC0FFEE, &candidates, 3);
    assert_eq!(a.events(), b.events(), "same seed must build the same plan");
    assert_eq!(a.events().len(), 3);

    // The victims are distinct ranks drawn from the candidate list.
    let mut victims: Vec<usize> = a
        .events()
        .iter()
        .map(|e| match e {
            topk_selection::commsim::FaultEvent::CrashPe { rank, .. } => *rank,
            other => panic!("seeded_crashes built a non-crash event: {other:?}"),
        })
        .collect();
    victims.sort_unstable();
    victims.dedup();
    assert_eq!(victims.len(), 3, "victims must be distinct ranks");

    // And the induced executions replay bit-identically on the replay
    // backend: results *and* metered traffic.
    let run = |plan: FaultPlan| World::new(8).with_faults(plan).seq(probe_all);
    let x = run(a);
    let y = run(b);
    assert_eq!(x.results, y.results, "replay must be deterministic");
    for rank in 0..8 {
        let (xs, ys) = (x.stats.pe(rank), y.stats.pe(rank));
        assert_eq!(
            (xs.sent_messages, xs.sent_words),
            (ys.sent_messages, ys.sent_words),
            "rank {rank}: replayed metering must be deterministic"
        );
    }
}

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn seq_deadlock_dump_lists_the_per_pair_wait_map() {
    let result = std::panic::catch_unwind(|| {
        run_spmd_seq(3, |comm| match comm.rank() {
            0 => {
                let _: u64 = comm.recv(1, 9); // never sent
            }
            1 => {
                let _: u64 = comm.recv(2, 9); // never sent either
            }
            _ => {}
        })
    });
    let msg = panic_message(result.unwrap_err());
    assert!(msg.contains("deadlocked"), "got: {msg}");
    assert!(
        msg.contains("PE 0 waits for message #0 from PE 1"),
        "got: {msg}"
    );
    assert!(msg.contains("peer blocked too"), "got: {msg}");
    assert!(msg.contains("peer finished"), "got: {msg}");
}

#[test]
fn mux_deadlock_dump_lists_the_per_pair_wait_map() {
    let result = std::panic::catch_unwind(|| {
        World::new(3).mux(|comm| match comm.rank() {
            0 => {
                let _: u64 = comm.recv(1, 9);
            }
            1 => {
                let _: u64 = comm.recv(2, 9);
            }
            _ => {}
        })
    });
    let msg = panic_message(result.unwrap_err());
    assert!(msg.contains("deadlocked"), "got: {msg}");
    assert!(
        msg.contains("PE 0 waits for message #0 from PE 1"),
        "got: {msg}"
    );
    assert!(msg.contains("peer blocked too"), "got: {msg}");
    assert!(msg.contains("peer finished"), "got: {msg}");
}

#[test]
fn plain_recv_from_a_crashed_peer_names_the_crash_not_a_deadlock() {
    let result = std::panic::catch_unwind(|| {
        World::new(2)
            .with_faults(FaultPlan::new().crash_pe(1, 0))
            .seq(|comm| {
                if comm.rank() == 0 {
                    let _: u64 = comm.recv(1, 3); // plain recv: upgraded to a panic
                } else {
                    comm.send(0, 3, 1u64);
                }
            })
    });
    let msg = panic_message(result.unwrap_err());
    assert!(msg.contains("crashed"), "got: {msg}");
    assert!(msg.contains("recv_failable"), "got: {msg}");
}
