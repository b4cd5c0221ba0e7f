//! One-pass sampled skew (Zipf-exponent) estimation.
//!
//! The cost-model planner (`topk::planner`) needs a rough idea of how skewed
//! an input distribution is before it can predict how many *distinct* keys a
//! Bernoulli sample will contain — the quantity that drives every DHT and
//! coordinator volume in the §7 frequent-objects algorithms.  Callers that
//! generated their own input know the answer; real callers do not, so this
//! module fits one from the data itself:
//!
//! 1. take a deterministic stride sample of at most `max_sample` elements
//!    (no RNG — the fit must be reproducible across runs and backends),
//! 2. count keys and sort the counts descending,
//! 3. least-squares fit `ln(count)` against `ln(rank)` over the head of the
//!    frequency spectrum (ranks with count ≥ 2 — singletons say nothing
//!    about the decay rate and would flatten the slope), giving the Zipf
//!    exponent as the negated slope,
//! 4. invert the Poissonized expected-distinct formula by bisection to
//!    estimate the universe size (how many distinct keys a much larger
//!    sample would eventually discover).
//!
//! The result is intentionally coarse: the planner only needs the exponent
//! to one decimal place to rank algorithms, and the audit loop measures how
//! wrong the resulting predictions were.

/// A fitted skew estimate of a key stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewFit {
    /// Fitted Zipf exponent (negated log-log slope of the frequency
    /// spectrum), clamped to `[0.05, 4.0]`.
    pub exponent: f64,
    /// Elements the fit actually examined (`min(data.len(), max_sample)`).
    pub sampled: u64,
    /// Distinct keys among the sampled elements.
    pub distinct: u64,
    /// Estimated number of distinct keys in the underlying distribution
    /// (universe size), from inverting the expected-distinct curve.
    pub universe: u64,
}

/// Smallest exponent the fit reports (≈ uniform data).
const MIN_EXPONENT: f64 = 0.05;
/// Largest exponent the fit reports (≈ a single dominating key).
const MAX_EXPONENT: f64 = 4.0;

/// Fit a Zipf exponent and universe estimate to `data` (see module docs).
///
/// Deterministic: the same input always yields the same fit, and the stride
/// sample touches at most `max_sample` elements however large the input is.
/// Empty input returns the neutral fit (`exponent = 1.0`, universe `1`).
pub fn fit_zipf_exponent(data: &[u64], max_sample: usize) -> SkewFit {
    let max_sample = max_sample.max(1);
    if data.is_empty() {
        return SkewFit {
            exponent: 1.0,
            sampled: 0,
            distinct: 0,
            universe: 1,
        };
    }
    let stride = data.len().div_ceil(max_sample);
    let mut counts = std::collections::HashMap::new();
    let mut sampled = 0u64;
    for &key in data.iter().step_by(stride) {
        *counts.entry(key).or_insert(0u64) += 1;
        sampled += 1;
    }
    let distinct = counts.len() as u64;
    let mut spectrum: Vec<u64> = counts.into_values().collect();
    spectrum.sort_unstable_by(|a, b| b.cmp(a));

    let exponent = fit_spectrum(&spectrum);
    let universe = estimate_universe(sampled, distinct, exponent);
    SkewFit {
        exponent,
        sampled,
        distinct,
        universe,
    }
}

/// Least-squares slope of `ln(count)` vs `ln(rank)` over the repeated head
/// of a descending frequency spectrum, negated and clamped.
fn fit_spectrum(spectrum: &[u64]) -> f64 {
    // Singletons carry no decay information; keep only counts ≥ 2, and cap
    // the head so one pathological giant spectrum cannot dominate runtime.
    let head: Vec<f64> = spectrum
        .iter()
        .take(4096)
        .take_while(|&&c| c >= 2)
        .map(|&c| c as f64)
        .collect();
    if head.len() < 2 {
        // Nothing repeated (or a single key): either ≈ uniform data sampled
        // far below its universe, or totally degenerate input.  A single
        // repeated key with nothing else is maximal skew; otherwise fall
        // back to the neutral exponent.
        return if head.len() == 1 && spectrum.len() == 1 {
            MAX_EXPONENT
        } else {
            1.0
        };
    }
    let xs: Vec<f64> = (1..=head.len()).map(|r| (r as f64).ln()).collect();
    let ys: Vec<f64> = head.iter().map(|c| c.ln()).collect();
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        sxy += (x - mean_x) * (y - mean_y);
        sxx += (x - mean_x) * (x - mean_x);
    }
    if sxx <= f64::EPSILON {
        return 1.0;
    }
    (-sxy / sxx).clamp(MIN_EXPONENT, MAX_EXPONENT)
}

/// Expected number of distinct keys in a sample of size `s` drawn from a
/// Zipf(`universe`, `exponent`) distribution, by Poissonization:
/// `E[D(s)] ≈ Σ_i (1 − exp(−s·q_i))` with `q_i ∝ i^{−exponent}`.
///
/// The head (first 1024 ranks) is summed exactly; the tail is integrated in
/// log-spaced blocks, so the cost is `O(head + log(universe))` however large
/// the universe is.
pub fn expected_distinct(sample: f64, universe: u64, exponent: f64) -> f64 {
    if universe == 0 || sample <= 0.0 {
        return 0.0;
    }
    let h = generalized_harmonic(universe, exponent);
    let mut d = 0.0;
    each_rank_block(universe, |rank, width| {
        let q = rank.powf(-exponent) / h;
        d += width * (1.0 - (-sample * q).exp());
    });
    d.min(universe as f64).min(sample)
}

/// Generalized harmonic number `H_{n,s} = Σ_{i=1..n} i^{−s}`, head exact,
/// tail in log-spaced blocks.
pub fn generalized_harmonic(n: u64, s: f64) -> f64 {
    let mut h = 0.0;
    each_rank_block(n, |rank, width| h += width * rank.powf(-s));
    h
}

/// Visit ranks `1..=n` as `(representative, width)` blocks: the first 1024
/// ranks exactly (width 1), then geometrically growing blocks represented by
/// their midpoint.
fn each_rank_block(n: u64, mut f: impl FnMut(f64, f64)) {
    let head = n.min(1024);
    for i in 1..=head {
        f(i as f64, 1.0);
    }
    let mut lo = head as f64 + 1.0;
    while lo <= n as f64 {
        let hi = (lo * 1.25).min(n as f64).max(lo);
        let width = hi - lo + 1.0;
        f((lo + hi) / 2.0, width);
        lo = hi + 1.0;
    }
}

/// Invert [`expected_distinct`] by bisection: find the universe size at
/// which a sample of `sampled` elements is expected to contain `distinct`
/// distinct keys.
fn estimate_universe(sampled: u64, distinct: u64, exponent: f64) -> u64 {
    if distinct == 0 {
        return 1;
    }
    // If essentially every sampled element was distinct, the sample says
    // nothing about where the universe ends — report the only honest lower
    // bound.  (The planner treats the universe as "at least this".)
    if distinct as f64 >= 0.99 * sampled as f64 {
        return distinct.max(1);
    }
    let target = distinct as f64;
    let mut lo = distinct.max(1);
    let mut hi = lo;
    // Grow until the expected distinct count at `hi` overshoots the target
    // (or stop at a billion keys — beyond that the choice cannot matter).
    while expected_distinct(sampled as f64, hi, exponent) < target && hi < 1_000_000_000 {
        hi = hi.saturating_mul(2);
    }
    while hi - lo > lo / 64 + 1 {
        let mid = lo + (hi - lo) / 2;
        if expected_distinct(sampled as f64, mid, exponent) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic Zipf-ish sampler for tests (inverse-CDF over a small
    /// universe, splitmix64-driven — no external RNG).
    fn zipf_sample(n: usize, universe: u64, exponent: f64, seed: u64) -> Vec<u64> {
        let h = generalized_harmonic(universe, exponent);
        let mut cdf = Vec::with_capacity(universe as usize);
        let mut acc = 0.0;
        for i in 1..=universe {
            acc += (i as f64).powf(-exponent) / h;
            cdf.push(acc);
        }
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                (cdf.partition_point(|&c| c < u) + 1) as u64
            })
            .collect()
    }

    #[test]
    fn recovers_the_exponent_to_first_decimal_order() {
        for &z in &[0.7, 1.0, 1.5] {
            let data = zipf_sample(40_000, 2_000, z, 42);
            let fit = fit_zipf_exponent(&data, 1 << 16);
            assert!(
                (fit.exponent - z).abs() < 0.35,
                "true {z}, fitted {}",
                fit.exponent
            );
        }
    }

    #[test]
    fn uniform_data_fits_a_near_zero_exponent() {
        let data: Vec<u64> = (0..10_000u64).map(|i| i % 500).collect();
        let fit = fit_zipf_exponent(&data, 1 << 16);
        assert!(fit.exponent < 0.3, "fitted {}", fit.exponent);
        assert_eq!(fit.distinct, 500);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(fit_zipf_exponent(&[], 100).universe, 1);
        let one = fit_zipf_exponent(&[7; 50], 100);
        assert_eq!(one.distinct, 1);
        assert!(one.exponent >= 1.0);
        let all_distinct: Vec<u64> = (0..100).collect();
        let fit = fit_zipf_exponent(&all_distinct, 1000);
        assert_eq!(fit.universe, 100);
    }

    #[test]
    fn stride_sampling_caps_the_work() {
        let data: Vec<u64> = (0..100_000u64).map(|i| i % 777).collect();
        let fit = fit_zipf_exponent(&data, 1000);
        assert!(fit.sampled <= 1000);
        assert!(fit.sampled >= 500);
    }

    #[test]
    fn fit_is_deterministic() {
        let data = zipf_sample(20_000, 1_000, 1.1, 7);
        assert_eq!(
            fit_zipf_exponent(&data, 4096),
            fit_zipf_exponent(&data, 4096)
        );
    }

    #[test]
    fn expected_distinct_is_monotone_and_bounded() {
        let d1 = expected_distinct(100.0, 1000, 1.0);
        let d2 = expected_distinct(10_000.0, 1000, 1.0);
        assert!(d1 < d2);
        assert!(d2 <= 1000.0);
        assert!(expected_distinct(50.0, 1000, 1.0) <= 50.0);
        assert_eq!(expected_distinct(0.0, 1000, 1.0), 0.0);
    }

    #[test]
    fn universe_estimate_lands_in_the_right_decade() {
        let data = zipf_sample(30_000, 1_000, 0.8, 11);
        let fit = fit_zipf_exponent(&data, 1 << 16);
        assert!(
            fit.universe >= 300 && fit.universe <= 10_000,
            "universe {} for a 1000-key Zipf(0.8)",
            fit.universe
        );
    }

    #[test]
    fn harmonic_matches_brute_force_on_the_head() {
        let exact: f64 = (1..=1000u64).map(|i| (i as f64).powf(-1.2)).sum();
        let fast = generalized_harmonic(1000, 1.2);
        assert!((exact - fast).abs() < 1e-9);
        // Tail blocks stay within a few percent of brute force.
        let exact_big: f64 = (1..=50_000u64).map(|i| (i as f64).powf(-1.0)).sum();
        let fast_big = generalized_harmonic(50_000, 1.0);
        assert!(
            (exact_big - fast_big).abs() / exact_big < 0.02,
            "exact {exact_big}, fast {fast_big}"
        );
    }
}
