use crate::centralized::CentralizedTester;
use dut_probability::Histogram;
use dut_simnet::Verdict;

/// The unique-elements tester: counts the domain elements observed
/// **exactly once** and rejects when there are too few.
///
/// Under uniform, the expected singleton count of `q` samples is
/// `q·(1 − 1/n)^{q−1}`; non-uniformity concentrates mass and destroys
/// singletons (Jensen: `Σ q·p_i(1−p_i)^{q−1}` is maximized at the
/// uniform vector for `q ≤ n`-ish regimes). This is the statistic of
/// Paninski's original analysis and a useful cross-check on the
/// collision/coincidence testers: same `Θ(√n/ε²)` scaling through a
/// different moment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniqueElementsTester {
    n: usize,
    epsilon: f64,
}

impl UniqueElementsTester {
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

    /// Expected singletons under uniform.
    #[must_use]
    pub fn uniform_expectation(&self, q: usize) -> f64 {
        let p = 1.0 / self.n as f64;
        q as f64 * (1.0 - p).powf(q as f64 - 1.0)
    }

    /// Expected singletons under the extremal two-level ε-far instance.
    #[must_use]
    pub fn far_expectation(&self, q: usize) -> f64 {
        let hi = (1.0 + self.epsilon) / self.n as f64;
        let lo = (1.0 - self.epsilon) / self.n as f64;
        let q_f = q as f64;
        (self.n as f64 / 2.0)
            * (q_f * hi * (1.0 - hi).powf(q_f - 1.0) + q_f * lo * (1.0 - lo).powf(q_f - 1.0))
    }

    /// The rejection threshold: **fewer** singletons than the midpoint
    /// of the uniform and far expectations.
    #[must_use]
    pub fn threshold(&self, q: usize) -> f64 {
        0.5 * (self.uniform_expectation(q) + self.far_expectation(q))
    }
}

impl CentralizedTester for UniqueElementsTester {
    fn test(&self, samples: &[usize]) -> Verdict {
        if samples.len() < 2 {
            return Verdict::Accept;
        }
        let singletons = Histogram::from_samples(self.n, samples).singleton_count() as f64;
        Verdict::from_accept_bit(singletons >= self.threshold(samples.len()))
    }

    fn recommended_sample_count(&self) -> usize {
        let q = 6.0 * (self.n as f64).sqrt() / (self.epsilon * self.epsilon);
        dut_stats::convert::ceil_to_usize(q).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::test_support::acceptance_rate;
    use dut_probability::families;

    #[test]
    fn accepts_uniform() {
        let n = 1 << 10;
        let tester = UniqueElementsTester::new(n, 0.5);
        let q = tester.recommended_sample_count();
        let rate = acceptance_rate(&tester, &families::uniform(n), q, 200, 73);
        assert!(rate > 2.0 / 3.0, "acceptance under uniform = {rate}");
    }

    #[test]
    fn rejects_far() {
        let n = 1 << 10;
        let eps = 0.5;
        let tester = UniqueElementsTester::new(n, eps);
        let q = tester.recommended_sample_count();
        let far = families::two_level(n, eps).unwrap();
        let rate = acceptance_rate(&tester, &far, q, 200, 79);
        assert!(rate < 1.0 / 3.0, "acceptance under far = {rate}");
    }

    #[test]
    fn rejects_point_mass_decisively() {
        let n = 256;
        let tester = UniqueElementsTester::new(n, 0.9);
        let point = families::point_mass(n, 3).unwrap();
        let q = tester.recommended_sample_count();
        let rate = acceptance_rate(&tester, &point, q, 50, 83);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn threshold_sits_between_expectations() {
        let tester = UniqueElementsTester::new(128, 0.6);
        for &q in &[16usize, 64, 256] {
            let t = tester.threshold(q);
            assert!(t < tester.uniform_expectation(q));
            assert!(t > tester.far_expectation(q));
        }
    }

    #[test]
    fn tiny_samples_accept() {
        let tester = UniqueElementsTester::new(8, 0.5);
        assert!(tester.test(&[]).is_accept());
        assert!(tester.test(&[3]).is_accept());
    }

    /// Exact expected singleton count of `q` samples from a
    /// distribution with the given point masses.
    fn expected_singletons(probs: &[f64], q: usize) -> f64 {
        let q_f = q as f64;
        probs
            .iter()
            .map(|&p| q_f * p * (1.0 - p).powf(q_f - 1.0))
            .sum()
    }

    #[test]
    fn exact_singleton_formula_matches_simulation() {
        use dut_probability::Sampler;
        use rand::SeedableRng;
        let n = 32;
        let q = 40;
        let d = families::zipf(n, 0.8).unwrap();
        let sampler = d.alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        let trials = 4000;
        let mean: f64 = (0..trials)
            .map(|_| {
                Histogram::from_samples(n, &sampler.sample_many(q, &mut rng)).singleton_count()
                    as f64
            })
            .sum::<f64>()
            / f64::from(trials);
        let predicted = expected_singletons(d.probs(), q);
        assert!(
            (mean - predicted).abs() < 0.25,
            "mean {mean} vs predicted {predicted}"
        );
    }
}
