//! Cross-crate integration tests for the selection algorithms (paper §4):
//! workload generators from `datagen`, the simulated machine from `commsim`,
//! the algorithms from `topk`, verified against `seqkit` reference
//! implementations.

use topk_selection::prelude::*;

/// Sort the union of the per-PE inputs — the oracle for every selection test.
fn sorted_union(parts: &[Vec<u64>]) -> Vec<u64> {
    let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
    all.sort_unstable();
    all
}

#[test]
fn unsorted_selection_on_the_papers_skewed_workload() {
    let p = 8;
    let per_pe = 5_000;
    let generator = SkewedSelectionInput::default();
    let parts = generator.generate_all(p, per_pe);
    let reference = sorted_union(&parts);

    for k in [1usize, 100, 2_500, per_pe, 3 * per_pe] {
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], k, 99)
        });
        // Threshold is the k-th smallest value.
        assert!(
            out.results.iter().all(|r| r.threshold == reference[k - 1]),
            "k={k}"
        );
        // Selected sets partition into exactly k elements matching the prefix.
        let mut selected: Vec<u64> = out
            .results
            .iter()
            .flat_map(|r| r.local_selected.iter().copied())
            .collect();
        selected.sort_unstable();
        assert_eq!(selected, reference[..k].to_vec(), "k={k}");
    }
}

#[test]
fn unsorted_selection_is_communication_sublinear_on_every_pe() {
    // Algorithm 1 collects, on one PE, a sample of max(128, ⌈√p⌉) tagged
    // elements per narrowing level and at most two samples' worth of survivors
    // in the base case, and the level count grows with log n — so its share of the
    // input shrinks as the local input grows; at 50k elements per PE it is
    // already below 10%.
    let p = 8;
    let per_pe = 50_000;
    let generator = SkewedSelectionInput::default();
    let parts = generator.generate_all(p, per_pe);
    let out = run_spmd(p, move |comm| {
        let before = comm.stats_snapshot();
        let _ = select_k_smallest(comm, &parts[comm.rank()], 5_000, 3);
        comm.stats_snapshot().since(&before)
    });
    for (rank, snap) in out.results.iter().enumerate() {
        assert!(
            snap.bottleneck_words() < (per_pe / 10) as u64,
            "PE {rank} moved {} words for a {per_pe}-element local input",
            snap.bottleneck_words()
        );
    }
}

#[test]
fn sorted_and_unsorted_selection_agree() {
    let p = 6;
    let per_pe = 3_000;
    let generator = UniformInput::new(1 << 24, 17);
    let unsorted: Vec<Vec<u64>> = generator.generate_all(p, per_pe);
    let sorted: Vec<Vec<u64>> = (0..p)
        .map(|r| generator.generate_sorted(r, per_pe))
        .collect();

    for k in [1usize, 500, 9_000] {
        let u = unsorted.clone();
        let s = sorted.clone();
        let out = run_spmd(p, move |comm| {
            let a = select_threshold(comm, &u[comm.rank()], k, 5);
            let b = multisequence_select(comm, &s[comm.rank()], k, 5).threshold;
            (a, b)
        });
        assert!(out.results.iter().all(|&(a, b)| a == b), "k={k}");
    }
}

#[test]
fn flexible_selection_band_is_respected_on_generated_inputs() {
    let p = 8;
    let generator = UniformInput::new(1 << 20, 23);
    let sorted: Vec<Vec<u64>> = (0..p)
        .map(|r| generator.generate_sorted(r, 2_000))
        .collect();
    for (lo, hi) in [(100u64, 200u64), (1_000, 2_000), (5_000, 10_000)] {
        let s = sorted.clone();
        let out = run_spmd(p, move |comm| {
            approx_multisequence_select(comm, &s[comm.rank()], lo, hi, 31)
        });
        let selected = out.results[0].selected;
        assert!(
            selected >= lo && selected <= hi,
            "band ({lo},{hi}): got {selected}"
        );
        let local_sum: u64 = out.results.iter().map(|r| r.local_count as u64).sum();
        assert_eq!(local_sum, selected);
    }
}

#[test]
fn selection_followed_by_redistribution_balances_the_output() {
    let p = 8;
    let per_pe = 4_000;
    // Adversarial placement: all small values on PE 0.
    let parts: Vec<Vec<u64>> = (0..p)
        .map(|r| {
            let base = if r == 0 {
                0u64
            } else {
                1_000_000 + r as u64 * per_pe as u64
            };
            (0..per_pe as u64).map(|i| base + i).collect()
        })
        .collect();
    let k = 3_000;
    let out = run_spmd(p, move |comm| {
        let selection = select_k_smallest(comm, &parts[comm.rank()], k, 7);
        let (balanced, report) = redistribute(comm, selection.local_selected);
        (balanced.len(), report)
    });
    let target = k.div_ceil(p);
    let total: usize = out.results.iter().map(|r| r.0).sum();
    assert_eq!(total, k);
    for (len, report) in &out.results {
        assert!(*len <= target);
        assert_eq!(report.target_size, target);
        assert!(report.sent_elements == 0 || report.received_elements == 0);
    }
}

#[test]
fn bulk_queue_drains_generated_input_in_sorted_order() {
    let p = 4;
    let per_pe = 2_000;
    let generator = UniformInput::new(1 << 20, 41);
    let parts = generator.generate_all(p, per_pe);
    let reference = sorted_union(&parts);
    let out = run_spmd(p, move |comm| {
        let mut q = BulkParallelQueue::new(comm);
        q.insert_bulk(parts[comm.rank()].iter().copied());
        let mut mine = Vec::new();
        loop {
            let batch = q.delete_min(comm, 777, 9);
            let got = comm.allreduce_sum(batch.len() as u64);
            mine.extend(batch);
            if got == 0 {
                break;
            }
        }
        mine
    });
    let mut drained: Vec<u64> = out.results.into_iter().flatten().collect();
    drained.sort_unstable();
    assert_eq!(drained, reference);
}
