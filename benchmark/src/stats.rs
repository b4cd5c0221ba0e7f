//! The estimators every reported number goes through.
//!
//! A workload is a fixed schedule of `M` ops.  A run is `K` rounds; every
//! round rebuilds the inputs and then times one pass over the schedule.  An
//! op's time is the median of its `K` timings, and every run-level
//! statistic is computed from those `M` per-op times, so the latency sample
//! count is `M` in every run and a disturbance has to hit an op in more than
//! half the rounds to move its time.  `K` is odd on every workload, so the
//! median is one of the timings, never a mean of two.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it.  With `M ≥ 200` samples the 95th percentile has
/// at least ten samples beyond it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile rank {q} not in [0, 1]"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-op times: `passes[r][i]` is op `i`'s timing in pass `r`; the result
/// has, per op, the median of its timings.
pub fn per_op_times(passes: &[Vec<f64>]) -> Vec<f64> {
    assert!(!passes.is_empty(), "no passes");
    let ops = passes[0].len();
    assert!(
        passes.iter().all(|pass| pass.len() == ops),
        "every pass must time every op"
    );
    (0..ops)
        .map(|i| median(&passes.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

/// Mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_ties() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 2.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[7.0, 7.0, 1.0, 1.0]), 4.0);
    }

    #[test]
    fn per_op_time_is_the_median_of_its_timings() {
        // Pass 1 was hit by a noisy neighbour on every op: it is outvoted.
        let passes = vec![
            vec![1.0, 2.5, 3.0],
            vec![10.0, 20.0, 30.0],
            vec![1.2, 2.0, 5.0],
        ];
        assert_eq!(per_op_times(&passes), vec![1.2, 2.5, 5.0]);
        // One pass is that pass.
        assert_eq!(per_op_times(&[vec![4.0, 2.0]]), vec![4.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "every pass must time every op")]
    fn ragged_passes_are_rejected() {
        per_op_times(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        // M = 200: exactly ten samples lie beyond the 95th percentile.
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&two_hundred, 0.95), 190.0);
    }

    #[test]
    fn percentile_with_m_not_divisible_by_20() {
        // ceil(0.95 * 7) = 7 -> the largest; ceil(0.95 * 33) = 32.
        assert_eq!(percentile(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0], 0.95), 7.0);
        let v: Vec<f64> = (1..=33).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 32.0);
    }

    #[test]
    fn percentile_with_ties_returns_the_tied_value() {
        let mut v = vec![1.0; 90];
        v.extend([5.0; 10]);
        assert_eq!(percentile(&v, 0.9), 1.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
    }
}
