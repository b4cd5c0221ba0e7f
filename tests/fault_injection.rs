//! Integration pins for the commsim fault-injection layer.
//!
//! Three properties carry the subsystem:
//!
//! 1. **Zero-cost when absent** — running under an *empty* `FaultPlan` is
//!    bit-identical (results *and* per-PE metered traffic) to running with
//!    no plan at all, on all three backends.  This is what lets every
//!    fault-free experiment in EXPERIMENTS.md stay valid verbatim.
//! 2. **Crash-stop semantics** — a PE crashed at its `n`-th send dies
//!    *before* that send leaves, failure-detecting receivers observe
//!    `PeerDead`/`Timeout` instead of deadlocking, and survivors keep
//!    communicating.
//! 3. **Determinism** — a seeded plan builds the same events every time,
//!    and replaying the same plan on the replay-based backends yields the
//!    same results and the same metered traffic.

use topk_selection::commsim::{
    run_on, run_spmd_seq, Backend, CommError, Communicator, FaultPlan, World,
};

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
    let empty = World::new(p).with_faults(FaultPlan::new());
    for backend in Backend::ALL {
        let name = backend.name();
        let base = run_on!(backend, World::new(p), mixed_workload).fault_free();
        let ft = run_on!(backend, empty, mixed_workload);
        for rank in 0..p {
            assert_eq!(
                Some(&base.results[rank]),
                ft.results[rank].as_ref(),
                "{name} rank {rank}: results diverge under the empty plan"
            );
            let b = base.stats.pe(rank);
            let f = ft.stats.pe(rank);
            assert_eq!(
                (
                    b.sent_messages,
                    b.sent_words,
                    b.received_messages,
                    b.received_words
                ),
                (
                    f.sent_messages,
                    f.sent_words,
                    f.received_messages,
                    f.received_words
                ),
                "{name} rank {rank}: metered traffic diverges under the empty plan"
            );
        }
    }
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
            assert!(
                matches!(
                    err,
                    CommError::PeerDead { rank: 2 } | CommError::Timeout { from: 2 }
                ),
                "unexpected verdict: {err:?}"
            );
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
    for backend in Backend::ALL {
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
        // The replay backend *proves* the death (production log final), so
        // its verdict is the strong one, deterministically.
        if backend == Backend::Seq {
            assert_eq!(
                out.results[0].as_deref(),
                Some("PeerDead { rank: 2 }"),
                "seq must return the proven-dead verdict, not a timeout"
            );
        }
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
    let delayed = World::new(p).with_faults(FaultPlan::new().delay_pair(0, 1, 3));
    for backend in Backend::ALL {
        let name = backend.name();
        let base = run_on!(backend, World::new(p), delay_witness).fault_free();
        let ft = run_on!(backend, delayed, delay_witness);
        for rank in 0..p {
            assert_eq!(
                Some(&base.results[rank]),
                ft.results[rank].as_ref(),
                "{name} rank {rank}: a pure delay must not change any result"
            );
            let b = base.stats.pe(rank);
            let f = ft.stats.pe(rank);
            assert_eq!(
                (b.sent_messages, b.sent_words),
                (f.sent_messages, f.sent_words),
                "{name} rank {rank}: a pure delay must not change the metering"
            );
        }
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
    for backend in Backend::ALL {
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

#[test]
fn threaded_recv_failable_times_out_retries_then_suspects_a_slow_peer() {
    use std::time::Duration;
    let p = 2;
    // A drop event that never fires keeps the run on the fault-injecting
    // path (wall-clock windowed receives) without perturbing any message —
    // the same trick slow CI runners use, in reverse: here the window is
    // *narrowed* so a deliberately slow sender forces observable timeouts.
    let plan = FaultPlan::new().drop_message(1, 0, 1_000);
    let world = World::new(p)
        .with_faults(plan)
        .with_recv_failable_window(Duration::from_millis(5));

    // Per PE: (timeouts before the slow payload arrived, timeouts on the
    // suspect probe, payload received).
    let out = world.threaded(|comm| -> (u32, u32, u64) {
        if comm.rank() == 1 {
            // The slow sender: deliver only once PE 0 has seen a timeout and
            // says so with a go-token — slow by construction, not by a sleep
            // that a loaded machine could outlast.
            let _: u64 = comm.recv(0, 6);
            comm.send(0, 7, 42u64);
            loop {
                // Wait for PE 0's done-token, tolerating timeouts.
                match comm.recv_failable::<u64>(0, 8) {
                    Ok(v) => return (0, 0, v),
                    Err(CommError::Timeout { .. }) => continue,
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
            }
        }
        // PE 0, step 1 — Timeout → retry → Ok: the payload cannot land
        // before the go-token PE 0 sends after its first timeout, and a
        // timeout is retryable, not fatal.
        let mut timeouts = 0u32;
        let got = loop {
            match comm.recv_failable::<u64>(1, 7) {
                Ok(v) => break v,
                Err(CommError::Timeout { .. }) => {
                    timeouts += 1;
                    if timeouts == 1 {
                        comm.send(1, 6, 0u64);
                    }
                }
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        };
        // Step 2 — exhausted retries → suspect: a tag the (live) peer never
        // sends keeps timing out; after a bounded budget the caller must
        // conclude "suspect" on its own, because no definitive PeerDead
        // verdict will ever arrive for a healthy-but-silent peer.
        let budget = 4u32;
        let mut probe_timeouts = 0u32;
        for _ in 0..budget {
            match comm.recv_failable::<u64>(1, 9) {
                Err(CommError::Timeout { .. }) => probe_timeouts += 1,
                other => panic!("expected a timeout from the silent tag, got {other:?}"),
            }
        }
        comm.send(1, 8, got);
        (timeouts, probe_timeouts, got)
    });

    let (timeouts, probe_timeouts, got) = out.results[0].expect("PE 0 completes");
    assert!(
        timeouts >= 1,
        "the payload follows the go-token, which follows a timeout"
    );
    assert_eq!(got, 42, "the late payload still arrives after the retries");
    assert_eq!(
        probe_timeouts, 4,
        "every probe of the silent tag times out — the suspect verdict is the caller's"
    );
    assert_eq!(
        out.results[1],
        Some((0, 0, 42)),
        "the slow-but-live peer completes normally"
    );
}
