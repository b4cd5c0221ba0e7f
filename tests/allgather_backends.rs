//! Differential test of the dissemination all-gather across the three
//! runners.
//!
//! The schedule is a provided trait method, so every backend runs the same
//! code — what can differ is how a backend *executes* a program in which
//! every PE receives in every round: the threaded transport interleaves
//! freely; the replay engine parks and wakes tasks in least-progress-first
//! order, inline on one thread (`World::seq`) or racing over a worker
//! pool.  For each world size (powers of two, their neighbours, primes) the
//! results must equal the rank-order oracle and the per-PE traffic of every
//! replay run must be bit-identical to the threaded one (the reference — the
//! replay drivers share an engine), for scalar, ragged, string and empty
//! blocks, for two all-gathers back to back (distinct collective tags), and
//! inside a `SubComm` split (the recovery layer all-gathers over survivor
//! groups).

use topk_selection::commsim::{StatsSnapshot, SubComm};
use topk_selection::prelude::*;

const WORLD_SIZES: [usize; 9] = [1, 2, 3, 5, 6, 8, 12, 13, 64];

fn ragged_block(rank: usize) -> Vec<u64> {
    (0..rank as u64 % 7)
        .map(|i| rank as u64 * 100 + i)
        .collect()
}

fn label(rank: usize) -> String {
    format!("pe{rank}{}", "-".repeat(rank % 11))
}

/// Everything one PE gathers in the test program.
#[derive(Debug, PartialEq)]
struct Gathered {
    scalars: Vec<u64>,
    ragged: Vec<Vec<u64>>,
    labels: Vec<String>,
    empty: Vec<Vec<u64>>,
    units: Vec<()>,
    chained: Vec<u64>,
    parity_group: Vec<Vec<u64>>,
}

fn program<C: Communicator>(comm: &C) -> Gathered {
    let rank = comm.rank();
    let scalars = comm.allgather(rank as u64 * 3 + 1);
    let ragged = comm.allgather(ragged_block(rank));
    let labels = comm.allgather(label(rank));
    let empty = comm.allgather(Vec::<u64>::new());
    let units = comm.allgather(());
    // The second all-gather depends on the first and carries another type:
    // a message matched across the two would fail its tag or decode check.
    let sum: u64 = comm.allgather(rank as u64).iter().sum();
    let chained = comm.allgather(sum + rank as u64);
    // Even and odd ranks each form a subgroup on its own tag stripe.
    let members: Vec<usize> = (0..comm.size()).filter(|m| m % 2 == rank % 2).collect();
    let group = SubComm::new(comm, members, (rank % 2) as u64);
    let parity_group = group.allgather(ragged_block(rank));
    Gathered {
        scalars,
        ragged,
        labels,
        empty,
        units,
        chained,
        parity_group,
    }
}

fn oracle(p: usize, rank: usize) -> Gathered {
    let sum: u64 = (0..p as u64).sum();
    Gathered {
        scalars: (0..p as u64).map(|r| r * 3 + 1).collect(),
        ragged: (0..p).map(ragged_block).collect(),
        labels: (0..p).map(label).collect(),
        empty: vec![Vec::new(); p],
        units: vec![(); p],
        chained: (0..p as u64).map(|r| sum + r).collect(),
        parity_group: (0..p)
            .filter(|m| m % 2 == rank % 2)
            .map(ragged_block)
            .collect(),
    }
}

/// The traffic counters that must be bit-identical across backends
/// (everything except `pooled_reuses`, which the mux store never bumps).
fn traffic(s: &StatsSnapshot) -> (u64, u64, u64, u64) {
    (
        s.sent_messages,
        s.sent_words,
        s.received_messages,
        s.received_words,
    )
}

#[test]
fn allgather_is_bit_identical_on_all_three_backends() {
    for p in WORLD_SIZES {
        let threaded = run_spmd(p, program);
        for (rank, got) in threaded.results.iter().enumerate() {
            assert_eq!(*got, oracle(p, rank), "p={p} rank={rank}");
        }
        let others = [
            ("seq", run_spmd_seq(p, program)),
            (
                "mux/1",
                World::new(p).with_workers(1).mux(program).fault_free(),
            ),
            (
                "mux/3",
                World::new(p).with_workers(3).mux(program).fault_free(),
            ),
        ];
        for (backend, out) in &others {
            assert_eq!(out.results, threaded.results, "p={p} {backend}: results");
            for rank in 0..p {
                assert_eq!(
                    traffic(out.stats.pe(rank)),
                    traffic(threaded.stats.pe(rank)),
                    "p={p} {backend} rank={rank}: traffic"
                );
            }
        }
    }
}
