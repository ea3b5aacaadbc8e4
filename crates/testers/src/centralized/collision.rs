use crate::centralized::CentralizedTester;
use dut_probability::empirical::collision_count_of;
use dut_probability::moments;
use dut_simnet::Verdict;

/// The Goldreich–Ron collision tester for ε-uniformity over `{0,..,n-1}`.
///
/// Counts colliding pairs among the samples and rejects when the count
/// exceeds the midpoint between the uniform expectation
/// `C(q,2)/n` and the minimal far expectation `(1+ε²)·C(q,2)/n`.
/// Sample-optimal up to constants: `Θ(√n/ε²)` samples suffice
/// (Paninski 2008; Diakonikolas et al. 2018 for the sharp collision
/// analysis).
///
/// # Example
///
/// ```
/// use dut_testers::{centralized::CollisionTester, CentralizedTester};
///
/// let tester = CollisionTester::new(256, 0.5);
/// // Far fewer collisions than the far threshold: accept.
/// assert!(tester.test(&[1, 2, 3, 4, 5]).is_accept());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionTester {
    n: usize,
    epsilon: f64,
}

impl CollisionTester {
    /// Creates the tester for domain size `n` and proximity `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `epsilon ∉ (0, 1]`.
    #[must_use]
    pub fn new(n: usize, epsilon: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        Self { n, epsilon }
    }

    /// Domain size.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.n
    }

    /// Proximity parameter.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The rejection threshold on the collision count for `q` samples.
    #[must_use]
    pub fn threshold(&self, q: usize) -> f64 {
        moments::collision_midpoint_threshold(self.n, self.epsilon, q as u64)
    }

    /// The raw statistic: number of colliding pairs.
    #[must_use]
    pub fn statistic(samples: &[usize]) -> u64 {
        collision_count_of(samples)
    }
}

impl CentralizedTester for CollisionTester {
    fn test(&self, samples: &[usize]) -> Verdict {
        let count = Self::statistic(samples) as f64;
        Verdict::from_accept_bit(count <= self.threshold(samples.len()))
    }

    fn recommended_sample_count(&self) -> usize {
        // q such that the eps^2 C(q,2)/n gap is several standard
        // deviations (~sqrt(C(q,2)/n)) wide: q ≈ c·sqrt(n)/eps^2.
        let q = 4.0 * (self.n as f64).sqrt() / (self.epsilon * self.epsilon);
        dut_stats::convert::ceil_to_usize(q).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::test_support::acceptance_rate;
    use dut_probability::families;

    #[test]
    fn accepts_uniform_with_high_probability() {
        let n = 1 << 10;
        let tester = CollisionTester::new(n, 0.5);
        let q = tester.recommended_sample_count();
        let rate = acceptance_rate(&tester, &families::uniform(n), q, 300, 11);
        assert!(rate > 0.8, "acceptance under uniform = {rate}");
    }

    #[test]
    fn rejects_far_with_high_probability() {
        let n = 1 << 10;
        let eps = 0.5;
        let tester = CollisionTester::new(n, eps);
        let q = tester.recommended_sample_count();
        let far = families::two_level(n, eps).unwrap();
        let rate = acceptance_rate(&tester, &far, q, 300, 13);
        assert!(rate < 0.2, "acceptance under far = {rate}");
    }

    #[test]
    fn rejects_extreme_far_instance_strongly() {
        let n = 256;
        let tester = CollisionTester::new(n, 0.5);
        let q = tester.recommended_sample_count();
        let far = families::uniform_on_prefix(n, 8).unwrap();
        let rate = acceptance_rate(&tester, &far, q, 100, 17);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn threshold_is_between_null_and_far_means() {
        let tester = CollisionTester::new(100, 0.6);
        let q = 60u64;
        let u = families::uniform(100);
        let far = families::two_level(100, 0.6).unwrap();
        let t = tester.threshold(q as usize);
        assert!(moments::expected_collisions(&u, q) < t);
        assert!(moments::expected_collisions(&far, q) > t);
    }

    #[test]
    fn too_few_samples_accepts_trivially() {
        let tester = CollisionTester::new(16, 0.5);
        assert!(tester.test(&[]).is_accept());
        assert!(tester.test(&[3]).is_accept());
    }

    #[test]
    fn recommended_count_scales_like_sqrt_n_over_eps2() {
        let a = CollisionTester::new(1 << 10, 0.5).recommended_sample_count();
        let b = CollisionTester::new(1 << 12, 0.5).recommended_sample_count();
        // 4x domain -> 2x samples.
        assert!((b as f64 / a as f64 - 2.0).abs() < 0.1);
        let c = CollisionTester::new(1 << 10, 0.25).recommended_sample_count();
        // half epsilon -> 4x samples.
        assert!((c as f64 / a as f64 - 4.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = CollisionTester::new(8, 0.0);
    }
}
