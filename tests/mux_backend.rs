//! Pins the replay engine's bit-identical-traffic guarantee on the actual
//! figure-6 experiment path.
//!
//! The whole point of the multiplexed backend is that a massive-p row in
//! EXPERIMENTS.md means the same thing as a small-p row measured on the
//! threaded backend: same results, same per-PE metered words and start-ups.
//! These tests run the exact fig6 workload (skewed per-PE Zipf input, k-th
//! largest via the dual order, the bin's seed convention) on all three
//! runners over an overlapping (k, p) grid and require the per-PE traffic
//! vectors to match **exactly** — not just the bottleneck aggregate, every
//! PE's sent/received words and message counts.
//!
//! The oracle is always the **threaded** backend (real threads, destructive
//! queues, no replay).  `World::seq` and `World::mux` are two drivers
//! of one replay engine, so agreement between them alone would prove
//! nothing about the engine; each is compared to the threaded run, and the
//! inline run rides along as a third column.  Whole per-PE snapshots are
//! compared: every counter a `StatsSnapshot` holds is one the paper's cost
//! model prices, so none is exempt.

use topk_selection::prelude::*;

/// The figure-6 per-PE body, generic over the backend: generate the skewed
/// local input and select the k-th largest cooperatively (dual order),
/// using the same seed convention as the fig6 bin.
fn fig6_body<C: Communicator>(comm: &C, per_pe: usize, k: usize) -> u64 {
    let generator = SkewedSelectionInput::default();
    let local = generator.generate(comm.rank(), per_pe);
    select_k_smallest(
        comm,
        &local.iter().map(|&v| u64::MAX - v).collect::<Vec<_>>(),
        k,
        0xF166 + comm.size() as u64,
    )
    .threshold
}

#[test]
fn fig6_traffic_is_bit_identical_across_all_three_backends() {
    let per_pe = 256;
    for p in [2usize, 4, 8, 16] {
        for k in [1usize, 64, per_pe / 4] {
            let threaded = run_spmd(p, |comm| fig6_body(comm, per_pe, k));
            let seq = run_spmd_seq(p, |comm| fig6_body(comm, per_pe, k));
            let mux = World::new(p)
                .mux(|comm| fig6_body(comm, per_pe, k))
                .fault_free();

            assert_eq!(
                threaded.results, seq.results,
                "p={p} k={k}: seq results diverge"
            );
            assert_eq!(
                threaded.results, mux.results,
                "p={p} k={k}: mux results diverge"
            );
            assert_eq!(
                threaded.stats.per_pe(),
                seq.stats.per_pe(),
                "p={p} k={k}: seq traffic diverges"
            );
            assert_eq!(
                threaded.stats.per_pe(),
                mux.stats.per_pe(),
                "p={p} k={k}: mux traffic diverges"
            );
        }
    }
}

#[test]
fn fig6_path_multiplexes_many_pes_over_few_workers() {
    // More PEs than any machine has cores, squeezed through 4 workers: the
    // cooperative scheduler must still produce traffic bit-identical to 512
    // real threads.  (The full p = 16384 row
    // lives in EXPERIMENTS.md — this keeps the same property pinned at
    // test-suite runtime.)
    let (p, per_pe, k) = (512usize, 32usize, 16usize);
    let threaded = run_spmd(p, |comm| fig6_body(comm, per_pe, k));
    let mux = World::new(p)
        .with_workers(4)
        .mux(|comm| fig6_body(comm, per_pe, k))
        .fault_free();
    let seq = run_spmd_seq(p, |comm| fig6_body(comm, per_pe, k));
    for (driver, out) in [("mux", &mux), ("seq", &seq)] {
        assert_eq!(threaded.results, out.results, "{driver}");
        assert_eq!(
            threaded.stats.bottleneck_words(),
            out.stats.bottleneck_words(),
            "{driver}: bottleneck words diverge at p={p}"
        );
        assert_eq!(
            threaded.stats.bottleneck_messages(),
            out.stats.bottleneck_messages(),
            "{driver}: bottleneck start-ups diverge at p={p}"
        );
        assert_eq!(
            threaded.stats.per_pe(),
            out.stats.per_pe(),
            "{driver}: per-PE traffic diverges at p={p}"
        );
    }
}

#[test]
fn fig6_on_a_two_worker_pool_is_bit_identical_to_seq() {
    // Reduced-scale fig6 smoke with an actual multi-worker pool (CI runs
    // this on every push; the p = 512 test above covers many-PEs-few-workers,
    // this one covers the smallest genuinely concurrent pool).
    let (per_pe, k) = (128usize, 32usize);
    for p in [4usize, 8] {
        let threaded = run_spmd(p, |comm| fig6_body(comm, per_pe, k));
        let mux = World::new(p)
            .with_workers(2)
            .mux(|comm| fig6_body(comm, per_pe, k))
            .fault_free();
        let seq = run_spmd_seq(p, |comm| fig6_body(comm, per_pe, k));
        assert_eq!(threaded.results, mux.results, "p={p}: results diverge");
        assert_eq!(threaded.results, seq.results, "p={p}: seq results diverge");
        assert_eq!(
            threaded.stats.per_pe(),
            mux.stats.per_pe(),
            "p={p}: traffic diverges under the 2-worker pool"
        );
        assert_eq!(
            threaded.stats.per_pe(),
            seq.stats.per_pe(),
            "p={p}: traffic diverges under the inline driver"
        );
    }
}

/// Not a regression test — a worker-pool speedup harness: it shows whether
/// a wider pool runs a wide world faster (a speedup > 1 needs several
/// cores).
/// Run with:
///
/// ```bash
/// cargo test --release --test mux_backend -- --ignored --nocapture \
///     measure_worker_pool_speedup
/// ```
///
/// Times the same fig6 workload through pools of doubling width.  On a
/// multi-core machine the wall time should drop until the pool saturates
/// the cores; on a single core it stays flat (the cooperative scheduler
/// adds no contention).  Traffic is asserted identical either way.
#[test]
#[ignore = "measurement harness, run explicitly with --ignored --nocapture"]
fn measure_worker_pool_speedup() {
    let (p, per_pe, k) = (2048usize, 64usize, 32usize);
    let run = |workers| {
        World::new(p)
            .with_workers(workers)
            .mux(|comm| fig6_body(comm, per_pe, k))
    };
    let baseline = run(1);
    for workers in [1usize, 2, 4, 8] {
        let t = std::time::Instant::now();
        let out = run(workers);
        let elapsed = t.elapsed();
        assert_eq!(out.results, baseline.results);
        assert_eq!(
            out.stats.bottleneck_words(),
            baseline.stats.bottleneck_words()
        );
        println!("p = {p}, workers = {workers}: {elapsed:?}");
    }
}

/// Not a regression test — a measurement harness for EXPERIMENTS.md's
/// construct-time table.  Run with:
///
/// ```bash
/// cargo test --release --test mux_backend -- --ignored --nocapture
/// ```
///
/// Times a whole empty-closure world (construction + p task spawns + join)
/// at doubling p.  o(p²) setup shows as ~2× time per doubling; a regression
/// to eager per-pair state would show as ~4×.
#[test]
#[ignore = "measurement harness, run explicitly with --ignored --nocapture"]
fn measure_empty_world_time_scaling() {
    for p in [2048usize, 4096, 8192, 16384] {
        let t = std::time::Instant::now();
        let mux = World::new(p).mux(|comm| comm.rank());
        let mux_time = t.elapsed();
        assert_eq!(mux.results.len(), p);
        let t = std::time::Instant::now();
        let seq = run_spmd_seq(p, |comm| comm.rank());
        let seq_time = t.elapsed();
        assert_eq!(seq.results.len(), p);
        println!("p = {p:6}: mux {mux_time:?}, seq {seq_time:?}");
    }
}

#[test]
fn massive_p_collectives_complete_and_meter_consistently() {
    // A pure-collective smoke at a p no threaded backend could launch as
    // OS threads on CI: every PE joins an allreduce and a prefix sum; the
    // run must complete and the metered totals must satisfy the obvious
    // conservation law (every word sent is received exactly once).
    let p = 4096usize;
    let out = World::new(p)
        .mux(|comm| {
            let sum = comm.allreduce_sum(comm.rank() as u64);
            let prefix = comm.prefix_sum_exclusive(1u64);
            (sum, prefix)
        })
        .fault_free();
    let expect: u64 = (p as u64 - 1) * p as u64 / 2;
    for (rank, &(sum, prefix)) in out.results.iter().enumerate() {
        assert_eq!(sum, expect);
        assert_eq!(prefix, rank as u64);
    }
    let sent: u64 = out.stats.per_pe().iter().map(|s| s.sent_words).sum();
    let received: u64 = out.stats.per_pe().iter().map(|s| s.received_words).sum();
    assert_eq!(sent, received, "words sent must equal words received");
    assert!(out.stats.total_messages() > 0);
}
