//! Moments of collision statistics, used to set tester thresholds
//! analytically before Monte-Carlo calibration refines them.

use crate::dense::DenseDistribution;

/// Number of unordered pairs among `q` samples, `C(q, 2)`.
#[must_use]
pub fn pair_count(q: u64) -> u64 {
    q * q.saturating_sub(1) / 2
}

/// Expected collision count of `q` iid samples from `dist`:
/// `C(q,2) · ‖dist‖₂²`.
#[must_use]
pub fn expected_collisions(dist: &DenseDistribution, q: u64) -> f64 {
    pair_count(q) as f64 * dist.collision_probability()
}

/// The natural decision threshold of a collision tester distinguishing
/// collision probability `1/n` from `(1+ε²)/n`: the midpoint
/// `C(q,2)·(1 + ε²/2)/n`.
#[must_use]
pub fn collision_midpoint_threshold(n: usize, epsilon: f64, q: u64) -> f64 {
    pair_count(q) as f64 * (1.0 + epsilon * epsilon / 2.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical::collision_count_of;
    use crate::families;
    use crate::sampler::Sampler;
    use rand::SeedableRng;

    #[test]
    fn pair_count_small_values() {
        assert_eq!(pair_count(0), 0);
        assert_eq!(pair_count(1), 0);
        assert_eq!(pair_count(2), 1);
        assert_eq!(pair_count(5), 10);
    }

    #[test]
    fn expected_collisions_uniform() {
        let u = families::uniform(100);
        assert!((expected_collisions(&u, 10) - 45.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_matches_expected_collisions() {
        let d = families::two_level(50, 0.6).unwrap();
        let s = d.alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let q = 30u64;
        let trials = 4000;
        let xs: Vec<f64> = (0..trials)
            .map(|_| collision_count_of(&s.sample_many(q as usize, &mut rng)) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / trials as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (trials - 1) as f64;
        let expected = expected_collisions(&d, q);
        let sd = (var / trials as f64).sqrt();
        assert!(
            (mean - expected).abs() < 6.0 * sd + 1e-9,
            "mean={mean} expected={expected} sd={sd}"
        );
    }

    #[test]
    fn far_bound_is_attained_by_two_level() {
        // The two-level instance achieves exactly (1+eps^2)/n.
        let n = 64;
        let eps = 0.4;
        let d = families::two_level(n, eps).unwrap();
        let lb = (1.0 + eps * eps) / n as f64;
        assert!((d.collision_probability() - lb).abs() < 1e-12);
    }

    #[test]
    fn midpoint_threshold_separates() {
        let n = 64;
        let eps = 0.5;
        let q = 100;
        let u = families::uniform(n);
        let far = families::two_level(n, eps).unwrap();
        let t = collision_midpoint_threshold(n, eps, q);
        assert!(expected_collisions(&u, q) < t);
        assert!(expected_collisions(&far, q) > t);
    }
}
