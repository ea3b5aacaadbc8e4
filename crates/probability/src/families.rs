//! Standard distribution families used as workloads throughout the
//! experiments: the uniform distribution, structured ε-far instances, and
//! robustness-check families (Zipf, mixtures).

use crate::dense::DenseDistribution;
use crate::error::DistributionError;

/// The uniform distribution on `{0, .., n-1}`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn uniform(n: usize) -> DenseDistribution {
    DenseDistribution::uniform(n)
}

/// A point mass on `element` in a domain of size `n`.
///
/// # Errors
///
/// Returns an error if `element >= n` or `n == 0`.
pub fn point_mass(n: usize, element: usize) -> Result<DenseDistribution, DistributionError> {
    if n == 0 {
        return Err(DistributionError::EmptySupport);
    }
    if element >= n {
        return Err(DistributionError::InvalidParameter {
            name: "element",
            value: element as f64,
        });
    }
    let mut probs = vec![0.0; n];
    probs[element] = 1.0;
    DenseDistribution::new(probs)
}

/// The canonical ε-far-from-uniform instance: the first `n/2` elements get
/// probability `(1+ε)/n` and the last `n/2` get `(1−ε)/n`.
///
/// Its ℓ₁ distance from uniform is exactly `ε`. This is the two-level
/// version of the Paninski construction (a fixed perturbation vector).
///
/// # Errors
///
/// Returns an error unless `n` is even and positive and `0 ≤ ε ≤ 1`.
pub fn two_level(n: usize, epsilon: f64) -> Result<DenseDistribution, DistributionError> {
    if n == 0 || !n.is_multiple_of(2) {
        return Err(DistributionError::InvalidParameter {
            name: "n",
            value: n as f64,
        });
    }
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(DistributionError::InvalidParameter {
            name: "epsilon",
            value: epsilon,
        });
    }
    let half = n / 2;
    let hi = (1.0 + epsilon) / n as f64;
    let lo = (1.0 - epsilon) / n as f64;
    let mut probs = Vec::with_capacity(n);
    probs.resize(half, hi);
    probs.resize(n, lo);
    DenseDistribution::new(probs)
}

/// An alternating-sign ε-far instance: even elements get `(1+ε)/n`, odd
/// elements `(1−ε)/n`. Same ℓ₁ distance as [`two_level`] but interleaved,
/// which defeats testers that only look at contiguous halves.
///
/// # Errors
///
/// Returns an error unless `n` is even and positive and `0 ≤ ε ≤ 1`.
pub fn alternating(n: usize, epsilon: f64) -> Result<DenseDistribution, DistributionError> {
    if n == 0 || !n.is_multiple_of(2) {
        return Err(DistributionError::InvalidParameter {
            name: "n",
            value: n as f64,
        });
    }
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(DistributionError::InvalidParameter {
            name: "epsilon",
            value: epsilon,
        });
    }
    let probs = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                (1.0 + epsilon) / n as f64
            } else {
                (1.0 - epsilon) / n as f64
            }
        })
        .collect();
    DenseDistribution::new(probs)
}

/// Zipf (power-law) distribution with exponent `s`: `p_i ∝ (i+1)^{−s}`.
///
/// # Errors
///
/// Returns an error if `n == 0`, or `s` is negative or not finite.
pub fn zipf(n: usize, s: f64) -> Result<DenseDistribution, DistributionError> {
    if n == 0 {
        return Err(DistributionError::EmptySupport);
    }
    if !s.is_finite() || s < 0.0 {
        return Err(DistributionError::InvalidParameter {
            name: "s",
            value: s,
        });
    }
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-s)).collect();
    DenseDistribution::from_weights(weights)
}

/// Restriction of the uniform distribution to the first `m` elements of a
/// domain of size `n` (mass `1/m` each, zero elsewhere). Its ℓ₁ distance
/// from uniform is `2(1 − m/n)`, so `m = n/2` gives a 1-far instance —
/// used as an extreme far workload.
///
/// # Errors
///
/// Returns an error unless `0 < m ≤ n`.
pub fn uniform_on_prefix(n: usize, m: usize) -> Result<DenseDistribution, DistributionError> {
    if n == 0 {
        return Err(DistributionError::EmptySupport);
    }
    if m == 0 || m > n {
        return Err(DistributionError::InvalidParameter {
            name: "m",
            value: m as f64,
        });
    }
    let mut probs = vec![0.0; n];
    for p in probs.iter_mut().take(m) {
        *p = 1.0 / m as f64;
    }
    DenseDistribution::new(probs)
}

/// Convex combination `λ·p + (1−λ)·q`.
///
/// # Errors
///
/// Returns an error if the domains differ or `λ ∉ [0, 1]`.
pub fn mixture(
    p: &DenseDistribution,
    q: &DenseDistribution,
    lambda: f64,
) -> Result<DenseDistribution, DistributionError> {
    if p.support_size() != q.support_size() {
        return Err(DistributionError::DomainMismatch {
            left: p.support_size(),
            right: q.support_size(),
        });
    }
    if !(0.0..=1.0).contains(&lambda) {
        return Err(DistributionError::InvalidParameter {
            name: "lambda",
            value: lambda,
        });
    }
    let probs = p
        .probs()
        .iter()
        .zip(q.probs())
        .map(|(&a, &b)| lambda * a + (1.0 - lambda) * b)
        .collect();
    DenseDistribution::new(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l1_distance;

    #[test]
    fn two_level_is_exactly_epsilon_far() {
        for &eps in &[0.0, 0.1, 0.25, 0.5, 1.0] {
            let d = two_level(16, eps).unwrap();
            let u = uniform(16);
            assert!((l1_distance(&d, &u) - eps).abs() < 1e-12, "eps = {eps}");
        }
    }

    #[test]
    fn alternating_is_exactly_epsilon_far() {
        let d = alternating(10, 0.3).unwrap();
        assert!((l1_distance(&d, &uniform(10)) - 0.3).abs() < 1e-12);
        // Interleaved: first two entries differ.
        assert!(d.prob(0) > d.prob(1));
    }

    #[test]
    fn two_level_rejects_odd_domain() {
        assert!(two_level(7, 0.1).is_err());
        assert!(two_level(0, 0.1).is_err());
        assert!(two_level(8, 1.5).is_err());
        assert!(two_level(8, -0.1).is_err());
    }

    #[test]
    fn point_mass_works_and_validates() {
        let d = point_mass(5, 3).unwrap();
        assert_eq!(d.prob(3), 1.0);
        assert!(point_mass(5, 5).is_err());
        assert!(point_mass(0, 0).is_err());
    }

    #[test]
    fn zipf_is_decreasing() {
        let d = zipf(10, 1.0).unwrap();
        for i in 1..10 {
            assert!(d.prob(i - 1) > d.prob(i));
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let d = zipf(6, 0.0).unwrap();
        let u = uniform(6);
        assert!(l1_distance(&d, &u) < 1e-12);
    }

    #[test]
    fn zipf_rejects_bad_exponent() {
        assert!(zipf(4, -1.0).is_err());
        assert!(zipf(4, f64::NAN).is_err());
        assert!(zipf(0, 1.0).is_err());
    }

    #[test]
    fn uniform_on_prefix_distance() {
        // Uniform on first half: l1 distance from uniform is
        // (n/2)(2/n - 1/n) + (n/2)(1/n) = 1/2 + 1/2 = 1.
        let d = uniform_on_prefix(8, 4).unwrap();
        assert!((l1_distance(&d, &uniform(8)) - 1.0).abs() < 1e-12);
        assert!(uniform_on_prefix(8, 0).is_err());
        assert!(uniform_on_prefix(8, 9).is_err());
    }

    #[test]
    fn mixture_interpolates() {
        let p = point_mass(2, 0).unwrap();
        let q = point_mass(2, 1).unwrap();
        let m = mixture(&p, &q, 0.25).unwrap();
        assert!((m.prob(0) - 0.25).abs() < 1e-15);
        assert!((m.prob(1) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn mixture_validates() {
        let p = uniform(2);
        let q = uniform(3);
        assert!(mixture(&p, &q, 0.5).is_err());
        assert!(mixture(&p, &p, 1.5).is_err());
    }

    #[test]
    fn mixture_with_uniform_scales_distance() {
        // mixing an eps-far distribution with uniform at weight lambda
        // gives a (lambda * eps)-far distribution.
        let far = two_level(8, 0.8).unwrap();
        let u = uniform(8);
        let m = mixture(&far, &u, 0.5).unwrap();
        assert!((l1_distance(&m, &u) - 0.4).abs() < 1e-12);
    }
}
