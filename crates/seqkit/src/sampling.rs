//! Bernoulli sampling with geometric skip values.
//!
//! The paper uses Bernoulli samples in three places: the pivot selection of
//! the unsorted selection algorithm (Section 4.1), the rank estimators of the
//! flexible-`k` multisequence selection (Section 4.3) and the sampling step
//! of the frequent-objects / sum-aggregation algorithms (Sections 7 and 8).
//! The key efficiency trick (its Section 2, "Bernoulli sampling") is that a
//! Bernoulli sample with probability `ρ` can be drawn in expected time
//! `O(ρ·|M|)` rather than `O(|M|)` by generating geometric *skip* distances
//! between successive sampled elements.
//!
//! # RNG identity of the fused sweep
//!
//! The distributed unsorted selection narrows its candidate vector and
//! draws the *next* level's pivot sample in a single pass
//! ([`bernoulli_sample_retain`]).  Fusing the two sweeps is only sound
//! because it is **RNG-identical** to the two-pass formulation: the skip
//! sampler's index space is seeded with the exact survivor count (known
//! ahead of the sweep from the counting pass), so the fused sweep consumes
//! the generator in precisely the draws, in precisely the order, that
//! `bernoulli_sample` over the narrowed vector would have.  Identical RNG
//! stream ⇒ identical pivot samples ⇒ identical recursion path ⇒ identical
//! metered words/PE — which is what lets the experiment tables treat the
//! fusion as a pure local-CPU optimisation (pinned by the
//! `fused_retain_sample_matches_two_pass_bit_for_bit` regression test
//! below).
//! Change the draw order and every words/PE column in EXPERIMENTS.md
//! silently shifts.

use rand::Rng;

/// Draw a geometric random deviate with success probability `p`:
/// the number of Bernoulli trials up to and including the first success
/// (support `1, 2, 3, …`).  Runs in constant time via inversion.
///
/// This is the `geometricRandomDeviate` routine the paper's Algorithm 2
/// relies on.
///
/// # Panics
///
/// Panics unless `0 < p <= 1`.
pub fn geometric_deviate<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    assert!(
        p > 0.0 && p <= 1.0,
        "success probability must be in (0, 1], got {p}"
    );
    if p >= 1.0 {
        return 1;
    }
    // Inversion: ceil(ln(U) / ln(1-p)) for U uniform in (0,1).
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let value = (u.ln() / (1.0 - p).ln()).ceil();
    if value < 1.0 {
        1
    } else if value >= u64::MAX as f64 {
        u64::MAX
    } else {
        value as u64
    }
}

/// Iterator over the *indices* of a Bernoulli(ρ) sample of `0..len`,
/// generated with geometric skips in expected time `O(ρ·len)`.
#[derive(Debug, Clone)]
struct BernoulliSampler {
    len: u64,
    rho: f64,
    /// Next candidate index (absolute), or `len` when exhausted.
    next: u64,
    started: bool,
}

impl BernoulliSampler {
    /// Create a sampler over `len` positions with sampling probability `rho`.
    ///
    /// `rho = 0` yields an empty sample; `rho = 1` yields every index.
    fn new(len: usize, rho: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rho),
            "sampling probability must be in [0, 1], got {rho}"
        );
        BernoulliSampler {
            len: len as u64,
            rho,
            next: 0,
            started: false,
        }
    }

    /// Advance and return the next sampled index.
    fn next_index<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<usize> {
        if self.rho <= 0.0 {
            return None;
        }
        let skip = if self.rho >= 1.0 {
            1
        } else {
            geometric_deviate(self.rho, rng)
        };
        let candidate = if self.started {
            self.next.checked_add(skip)?
        } else {
            self.started = true;
            // First sampled index is skip - 1 (0-based).
            skip - 1
        };
        if candidate >= self.len {
            self.next = self.len;
            None
        } else {
            self.next = candidate;
            Some(candidate as usize)
        }
    }
}

/// Bernoulli sample of the elements of `data` with probability `rho`,
/// preserving input order.  Expected time `O(ρ·n)`.
pub fn bernoulli_sample<T: Clone, R: Rng + ?Sized>(data: &[T], rho: f64, rng: &mut R) -> Vec<T> {
    let mut out = Vec::with_capacity(((data.len() as f64) * rho).ceil() as usize + 1);
    let mut sampler = BernoulliSampler::new(data.len(), rho);
    while let Some(i) = sampler.next_index(rng) {
        out.push(data[i].clone());
    }
    out
}

/// Fused narrow-and-sample sweep: retain only the elements matching `keep`
/// (stable, in place, like [`Vec::retain`]) and, in the same pass, draw a
/// Bernoulli(ρ) sample of the *surviving* elements with geometric skips.
///
/// `retained_len` must be the exact number of survivors (callers in the
/// distributed selection know it ahead of the sweep from the counting
/// pass); it seeds the skip sampler's index space so that the returned
/// sample — and crucially the *sequence of RNG draws* — is bit-identical to
/// `bernoulli_sample(&retained, rho, rng)` run over the retained vector
/// afterwards.  One sweep instead of two, same distribution, same stream.
///
/// # Panics
///
/// Panics (in debug builds) if `retained_len` does not match the actual
/// number of survivors.
pub fn bernoulli_sample_retain<T: Clone, F, R>(
    data: &mut Vec<T>,
    mut keep: F,
    retained_len: usize,
    rho: f64,
    rng: &mut R,
) -> Vec<T>
where
    F: FnMut(&T) -> bool,
    R: Rng + ?Sized,
{
    let mut sampler = BernoulliSampler::new(retained_len, rho);
    let mut target = sampler.next_index(rng);
    let mut survivor = 0usize;
    let mut out = Vec::with_capacity(((retained_len as f64) * rho).ceil() as usize + 1);
    data.retain(|e| {
        let kept = keep(e);
        if kept {
            if target == Some(survivor) {
                out.push(e.clone());
                target = sampler.next_index(rng);
            }
            survivor += 1;
        }
        kept
    });
    debug_assert_eq!(
        survivor, retained_len,
        "retained_len must equal the number of survivors"
    );
    // Every sampled index is < retained_len == survivor count, so the
    // sampler is necessarily exhausted by the end of the sweep.
    debug_assert!(target.is_none());
    out
}

/// Value-proportional sample count for sum aggregation (paper Section 8.1):
/// an object with value `v` yields `⌊v / v_avg⌋` samples plus one more with
/// probability `v/v_avg − ⌊v/v_avg⌋`, so the expected count is exactly
/// `v / v_avg` and the deviation per object is at most 1.
pub fn value_proportional_sample_count<R: Rng + ?Sized>(
    value: f64,
    value_per_sample: f64,
    rng: &mut R,
) -> u64 {
    assert!(value >= 0.0, "values must be non-negative");
    assert!(value_per_sample > 0.0, "value_per_sample must be positive");
    let expectation = value / value_per_sample;
    let base = expectation.floor();
    let frac = expectation - base;
    let extra = if frac > 0.0 && rng.gen_bool(frac.min(1.0)) {
        1
    } else {
        0
    };
    base as u64 + extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn geometric_deviate_is_at_least_one() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(geometric_deviate(0.3, &mut r) >= 1);
        }
        assert_eq!(geometric_deviate(1.0, &mut r), 1);
    }

    #[test]
    fn geometric_deviate_mean_matches_expectation() {
        let mut r = rng();
        for &p in &[0.5f64, 0.1, 0.01] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| geometric_deviate(p, &mut r)).sum();
            let mean = sum as f64 / n as f64;
            let expected = 1.0 / p;
            assert!(
                (mean - expected).abs() < 0.1 * expected,
                "p={p}: mean {mean} vs expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "success probability")]
    fn geometric_deviate_rejects_zero_probability() {
        let mut r = rng();
        geometric_deviate(0.0, &mut r);
    }

    #[test]
    fn sampler_with_rho_one_yields_everything() {
        let mut r = rng();
        let positions: Vec<usize> = (0..10).collect();
        assert_eq!(bernoulli_sample(&positions, 1.0, &mut r), positions);
    }

    #[test]
    fn sampler_with_rho_zero_yields_nothing() {
        let mut r = rng();
        let positions: Vec<usize> = (0..10).collect();
        assert!(bernoulli_sample(&positions, 0.0, &mut r).is_empty());
    }

    #[test]
    fn sampler_indices_are_strictly_increasing_and_in_range() {
        let mut r = rng();
        let positions: Vec<usize> = (0..1000).collect();
        for _ in 0..50 {
            let idx = bernoulli_sample(&positions, 0.05, &mut r);
            for w in idx.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(idx.iter().all(|&i| i < 1000));
        }
    }

    #[test]
    fn sample_size_concentrates_around_rho_n() {
        let mut r = rng();
        let n = 100_000;
        let rho = 0.02;
        let positions: Vec<usize> = (0..n).collect();
        let total: usize = (0..20)
            .map(|_| bernoulli_sample(&positions, rho, &mut r).len())
            .sum();
        let mean = total as f64 / 20.0;
        let expected = rho * n as f64;
        assert!(
            (mean - expected).abs() < 0.1 * expected,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn bernoulli_sample_preserves_order_and_membership() {
        let mut r = rng();
        let data: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let sample = bernoulli_sample(&data, 0.1, &mut r);
        for w in sample.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(sample.iter().all(|x| x % 2 == 0 && *x < 2000));
    }

    #[test]
    fn empty_input_yields_empty_sample() {
        let mut r = rng();
        let sample = bernoulli_sample::<u64, _>(&[], 0.5, &mut r);
        assert!(sample.is_empty());
    }

    /// The fused sweep must be indistinguishable — output, retained buffer
    /// *and* RNG stream — from retain-then-sample in two passes.
    #[test]
    fn fused_retain_sample_matches_two_pass_bit_for_bit() {
        for seed in 0..20u64 {
            for rho in [0.0, 0.01, 0.1, 0.5, 1.0] {
                let data: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
                let keep = |e: &u64| *e % 3 != 0;

                // Two-pass reference.
                let mut two_pass = data.clone();
                two_pass.retain(keep);
                let mut rng_ref = StdRng::seed_from_u64(seed);
                let sample_ref = bernoulli_sample(&two_pass, rho, &mut rng_ref);

                // Fused sweep.
                let mut fused = data.clone();
                let mut rng_fused = StdRng::seed_from_u64(seed);
                let sample =
                    bernoulli_sample_retain(&mut fused, keep, two_pass.len(), rho, &mut rng_fused);

                assert_eq!(fused, two_pass, "retained buffers diverged");
                assert_eq!(
                    sample, sample_ref,
                    "samples diverged (seed={seed} rho={rho})"
                );
                // Same number of draws consumed: the next value of both
                // generators must coincide.
                assert_eq!(
                    rng_fused.gen::<u64>(),
                    rng_ref.gen::<u64>(),
                    "RNG streams diverged (seed={seed} rho={rho})"
                );
            }
        }
    }

    #[test]
    fn fused_retain_sample_handles_empty_survivor_sets() {
        let mut rng = rng();
        let mut data: Vec<u64> = (0..100).collect();
        let sample = bernoulli_sample_retain(&mut data, |_| false, 0, 0.5, &mut rng);
        assert!(sample.is_empty());
        assert!(data.is_empty());
    }

    #[test]
    fn value_proportional_counts_have_the_right_expectation() {
        let mut r = rng();
        let trials = 20_000;
        let value = 3.7;
        let per_sample = 2.0;
        let total: u64 = (0..trials)
            .map(|_| value_proportional_sample_count(value, per_sample, &mut r))
            .sum();
        let mean = total as f64 / trials as f64;
        let expected = value / per_sample;
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn value_proportional_count_deviates_by_at_most_one() {
        let mut r = rng();
        for _ in 0..1000 {
            let c = value_proportional_sample_count(10.0, 3.0, &mut r);
            let expectation = 10.0 / 3.0;
            assert!((c as f64 - expectation).abs() <= 1.0);
        }
    }

    #[test]
    fn integer_ratio_values_are_deterministic() {
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(value_proportional_sample_count(6.0, 2.0, &mut r), 3);
            assert_eq!(value_proportional_sample_count(0.0, 2.0, &mut r), 0);
        }
    }
}
