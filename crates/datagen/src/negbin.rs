//! Negative binomial object generator.
//!
//! The paper's Section 10.2 also evaluates on "a negative binomial
//! distribution with `r = 1000` and success probability `p = 0.05`", whose
//! wide plateau makes the most frequent objects nearly equally frequent — the
//! hard case for frequency-based selection.  The sampler uses the standard
//! Gamma–Poisson mixture: `NB(r, p) = Poisson(λ)` with
//! `λ ~ Gamma(r, (1−p)/p)`, with a Marsaglia–Tsang Gamma sampler and a
//! Poisson sampler that switches between Knuth's method (small mean) and the
//! normal approximation (large mean).

use rand::Rng;

/// A negative binomial distribution counting the number of failures before
/// the `r`-th success with per-trial success probability `p`.
#[derive(Debug, Clone, Copy)]
pub struct NegativeBinomial {
    r: f64,
    p: f64,
}

impl NegativeBinomial {
    /// Create the distribution (`r > 0`, `0 < p < 1`).
    pub fn new(r: f64, p: f64) -> Self {
        assert!(r > 0.0, "r must be positive");
        assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
        NegativeBinomial { r, p }
    }

    /// Expected value `r·(1−p)/p`.
    pub fn mean(&self) -> f64 {
        self.r * (1.0 - self.p) / self.p
    }

    /// Variance `r·(1−p)/p²`.
    pub fn variance(&self) -> f64 {
        self.r * (1.0 - self.p) / (self.p * self.p)
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Gamma–Poisson mixture.
        let scale = (1.0 - self.p) / self.p;
        let lambda = sample_gamma(self.r, scale, rng);
        sample_poisson(lambda, rng)
    }

    /// Draw `n` samples.
    pub fn sample_many<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Marsaglia–Tsang Gamma(shape, scale) sampler (shape ≥ 1 direct; shape < 1
/// via the boosting trick).
fn sample_gamma<R: Rng + ?Sized>(shape: f64, scale: f64, rng: &mut R) -> f64 {
    assert!(
        shape > 0.0 && scale > 0.0,
        "gamma parameters must be positive"
    );
    if shape < 1.0 {
        // Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(shape + 1.0, scale, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

/// Poisson sampler: Knuth's product method for small means, normal
/// approximation with continuity correction for large means.
fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut prod = 1.0f64;
        loop {
            prod *= rng.gen::<f64>();
            if prod <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Normal approximation N(λ, λ); adequate for workload generation.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let value = lambda + lambda.sqrt() * z + 0.5;
        if value < 0.0 {
            0
        } else {
            value as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn mean_and_variance_formulas() {
        let nb = NegativeBinomial::new(1000.0, 0.05);
        assert!((nb.mean() - 19_000.0).abs() < 1e-9);
        assert!((nb.variance() - 380_000.0).abs() < 1e-6);
    }

    #[test]
    fn empirical_mean_matches_analytic() {
        let nb = NegativeBinomial::new(50.0, 0.2);
        let mut r = rng();
        let n = 20_000;
        let sum: u64 = nb.sample_many(n, &mut r).iter().sum();
        let mean = sum as f64 / n as f64;
        let expected = nb.mean();
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn paper_parameters_have_a_wide_plateau() {
        // Draw many samples; the distribution should be concentrated around
        // 19000 with coefficient of variation ≈ sqrt(var)/mean ≈ 3.2 %.
        let nb = NegativeBinomial::new(1000.0, 0.05);
        let mut r = rng();
        let samples = nb.sample_many(5_000, &mut r);
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - nb.mean()).abs() < 0.05 * nb.mean());
        let within = samples
            .iter()
            .filter(|&&x| (x as f64 - nb.mean()).abs() < 4.0 * nb.variance().sqrt())
            .count();
        assert!(within as f64 / samples.len() as f64 > 0.99);
    }

    #[test]
    fn gamma_sampler_matches_mean_and_positivity() {
        let mut r = rng();
        for (shape, scale) in [(0.5f64, 2.0f64), (1.0, 1.0), (5.0, 3.0), (1000.0, 19.0)] {
            let n = 5_000;
            let sum: f64 = (0..n).map(|_| sample_gamma(shape, scale, &mut r)).sum();
            let mean = sum / n as f64;
            let expected = shape * scale;
            assert!(
                (mean - expected).abs() < 0.1 * expected,
                "shape={shape} scale={scale}: {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn poisson_sampler_small_and_large_regimes() {
        let mut r = rng();
        for lambda in [0.5f64, 5.0, 29.9, 30.1, 1000.0] {
            let n = 10_000;
            let sum: u64 = (0..n).map(|_| sample_poisson(lambda, &mut r)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 0.1 * lambda + 0.1,
                "lambda={lambda}: mean {mean}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut r), 0);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn invalid_probability_is_rejected() {
        let _ = NegativeBinomial::new(10.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "r must be positive")]
    fn invalid_r_is_rejected() {
        let _ = NegativeBinomial::new(0.0, 0.5);
    }
}
