//! Statistical distances and divergences between discrete distributions.
//!
//! [`l1_distance`] and [`kl_divergence`] panic if the two distributions
//! have different support sizes.

use crate::dense::DenseDistribution;

/// ℓ₁ distance `Σ |p_i − q_i|`. The paper's farness notion: a distribution
/// is ε-far from uniform when its ℓ₁ distance from uniform is at least ε.
///
/// # Panics
///
/// Panics if the support sizes differ.
#[must_use]
pub fn l1_distance(p: &DenseDistribution, q: &DenseDistribution) -> f64 {
    assert_same_domain(p, q);
    p.probs()
        .iter()
        .zip(q.probs())
        .map(|(a, b)| (a - b).abs())
        .sum()
}

/// Kullback–Leibler divergence `D(p ‖ q) = Σ p_i · log₂(p_i / q_i)` in bits.
///
/// Returns `f64::INFINITY` when `p` puts mass where `q` does not.
///
/// # Panics
///
/// Panics if the support sizes differ.
#[must_use]
pub fn kl_divergence(p: &DenseDistribution, q: &DenseDistribution) -> f64 {
    assert_same_domain(p, q);
    let mut total = 0.0;
    for (&a, &b) in p.probs().iter().zip(q.probs()) {
        if a <= 0.0 {
            continue;
        }
        if b <= 0.0 {
            return f64::INFINITY;
        }
        total += a * (a / b).log2();
    }
    total.max(0.0)
}

/// KL divergence between two Bernoulli random variables with success
/// probabilities `alpha` and `beta`, in bits (Fact 6.3 of the paper bounds
/// this by `(α−β)² / (var(B(β)) · ln 2)`).
///
/// # Panics
///
/// Panics if `alpha` or `beta` is outside `[0, 1]`.
#[must_use]
pub fn bernoulli_kl(alpha: f64, beta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "alpha out of range: {alpha}");
    assert!((0.0..=1.0).contains(&beta), "beta out of range: {beta}");
    let term = |p: f64, q: f64| -> f64 {
        if p <= 0.0 {
            0.0
        } else if q <= 0.0 {
            f64::INFINITY
        } else {
            p * (p / q).log2()
        }
    };
    (term(alpha, beta) + term(1.0 - alpha, 1.0 - beta)).max(0.0)
}

/// Fact 6.3 (Cover–Thomas): `D(B(α) ‖ B(β)) ≤ (α−β)² / (var(B(β)) · ln 2)`.
///
/// Returns the right-hand side; `f64::INFINITY` when `β ∈ {0, 1}`.
///
/// # Panics
///
/// Panics if `alpha` or `beta` is outside `[0, 1]`.
#[must_use]
pub fn bernoulli_kl_chi2_bound(alpha: f64, beta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "alpha out of range: {alpha}");
    assert!((0.0..=1.0).contains(&beta), "beta out of range: {beta}");
    let var = beta * (1.0 - beta);
    if var <= 0.0 {
        return f64::INFINITY;
    }
    (alpha - beta) * (alpha - beta) / (var * std::f64::consts::LN_2)
}

fn assert_same_domain(p: &DenseDistribution, q: &DenseDistribution) {
    assert_eq!(
        p.support_size(),
        q.support_size(),
        "distributions must share a domain"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(v: &[f64]) -> DenseDistribution {
        DenseDistribution::new(v.to_vec()).unwrap()
    }

    #[test]
    fn l1_of_identical_is_zero() {
        let p = dist(&[0.3, 0.7]);
        assert_eq!(l1_distance(&p, &p), 0.0);
    }

    #[test]
    fn l1_of_disjoint_point_masses_is_two() {
        let p = dist(&[1.0, 0.0]);
        let q = dist(&[0.0, 1.0]);
        assert!((l1_distance(&p, &q) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn kl_is_zero_iff_equal() {
        let p = dist(&[0.5, 0.5]);
        assert_eq!(kl_divergence(&p, &p), 0.0);
        let q = dist(&[0.9, 0.1]);
        assert!(kl_divergence(&p, &q) > 0.0);
    }

    #[test]
    fn kl_infinite_on_support_violation() {
        let p = dist(&[0.5, 0.5]);
        let q = dist(&[1.0, 0.0]);
        assert!(kl_divergence(&p, &q).is_infinite());
    }

    #[test]
    fn kl_ignores_zero_mass_in_p() {
        let p = dist(&[1.0, 0.0]);
        let q = dist(&[0.5, 0.5]);
        assert!((kl_divergence(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_kl_agrees_with_full_kl() {
        let alpha = 0.3;
        let beta = 0.6;
        let p = dist(&[alpha, 1.0 - alpha]);
        let q = dist(&[beta, 1.0 - beta]);
        assert!((bernoulli_kl(alpha, beta) - kl_divergence(&p, &q)).abs() < 1e-12);
    }

    #[test]
    fn fact_6_3_bound_holds_on_grid() {
        // The paper's Fact 6.3: KL is dominated by the chi-squared style bound.
        for a in 0..=20 {
            for b in 1..20 {
                let alpha = a as f64 / 20.0;
                let beta = b as f64 / 20.0;
                let kl = bernoulli_kl(alpha, beta);
                let bound = bernoulli_kl_chi2_bound(alpha, beta);
                assert!(
                    kl <= bound + 1e-9,
                    "alpha={alpha} beta={beta}: kl={kl} > bound={bound}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a domain")]
    fn panicking_variant_panics_on_mismatch() {
        let p = dist(&[0.5, 0.5]);
        let q = DenseDistribution::uniform(3);
        let _ = l1_distance(&p, &q);
    }

    #[test]
    fn pinsker_inequality_spot_check() {
        // TV <= sqrt(KL_nats / 2); KL in bits * ln2 = nats.
        let p = dist(&[0.8, 0.2]);
        let q = dist(&[0.5, 0.5]);
        let tv = l1_distance(&p, &q) / 2.0;
        let kl_nats = kl_divergence(&p, &q) * std::f64::consts::LN_2;
        assert!(tv <= (kl_nats / 2.0).sqrt() + 1e-12);
    }
}
