//! Criterion micro-bench for the three-way partition kernels of
//! `seqkit::select` — the local hot path of the paper's Algorithm 1.
//!
//! Compares, at several input sizes and on two input *shapes*:
//!
//! * `cloning` — the reference kernel: three fresh `Vec`s, every element
//!   cloned (what the distributed selection used before PR 3);
//! * `counts` — the branchless counting pass (PR 5): two `0/1` comparison
//!   accumulations per element, fourfold unrolled, autovectorizable, no
//!   data-dependent branches;
//! * `counts_then_retain` — the full per-level local work of
//!   `select_recursive`: one counting pass plus one stable in-place
//!   `retain` narrowing to the middle range (buffer reused, zero
//!   allocation);
//! * `in_place` — the Dutch-national-flag kernel used by `quickselect` and
//!   `floyd_rivest_select`.
//!
//! The two shapes stress the branch predictor differently: `uniform` draws
//! from a wide value range (pivot comparisons are unpredictable), `dupes`
//! draws from eight values with the pivot pair inside them (long runs of
//! equal comparison results).
//!
//! The mutating benches (`counts_then_retain`, `in_place`) must restore the
//! input every iteration, so their timed closure contains one
//! `data.clone()`; the `clone_baseline` row measures exactly that clone —
//! subtract it to get the kernel's own cost.  In the real algorithm the
//! buffer is owned and no such clone exists.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqkit::select::{
    partition_three_way, partition_three_way_counts, partition_three_way_in_place,
};

/// Input shape: name, the data generator, and a pivot pair bracketing the
/// middle ~half of the value range (like the selection's sample bracket).
struct Shape {
    name: &'static str,
    max_value: u64,
    pivots: (u64, u64),
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "uniform",
        max_value: 1_000_000,
        pivots: (250_000, 750_000),
    },
    Shape {
        name: "dupes",
        max_value: 8,
        pivots: (2, 5),
    },
];

fn bench_partition_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_kernel");
    group.sample_size(20);

    for shape in SHAPES {
        for &n in &[1usize << 12, 1 << 16, 1 << 20] {
            let mut rng = StdRng::seed_from_u64(0x9A27);
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..shape.max_value)).collect();
            let (lo, hi) = shape.pivots;
            let id = |kernel: &str| BenchmarkId::new(format!("{kernel}/{}", shape.name), n);

            group.bench_with_input(id("clone_baseline"), &n, |b, _| {
                b.iter(|| black_box(data.clone()))
            });
            group.bench_with_input(id("cloning"), &n, |b, _| {
                b.iter(|| black_box(partition_three_way(&data, &lo, &hi)))
            });
            group.bench_with_input(id("counts"), &n, |b, _| {
                b.iter(|| black_box(partition_three_way_counts(&data, &lo, &hi)))
            });
            group.bench_with_input(id("counts_then_retain"), &n, |b, _| {
                b.iter(|| {
                    let mut buf = data.clone();
                    let splits = partition_three_way_counts(&buf, &lo, &hi);
                    buf.retain(|e| lo <= *e && *e <= hi);
                    black_box((splits, buf.len()))
                })
            });
            group.bench_with_input(id("in_place"), &n, |b, _| {
                b.iter(|| {
                    let mut buf = data.clone();
                    black_box(partition_three_way_in_place(&mut buf, &lo, &hi))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_partition_kernels);
criterion_main!(benches);
