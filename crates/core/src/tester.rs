use crate::config::{Rule, UniformityTesterBuilder};
use dut_lowerbound::theory;
use dut_probability::{DualSampler, SampleBackend, Sampler};
use dut_simnet::Verdict;
use dut_testers::centralized::CentralizedTester as _;
use dut_testers::{
    BalancedThresholdTester, CollisionTester, PreparedThresholdTester, TThresholdTester,
};
use rand::Rng;

/// A configured distributed uniformity test.
///
/// Construct with [`UniformityTester::builder`], then [`prepare`] for a
/// specific per-player sample count and run the prepared instance as
/// many times as needed (preparation fixes the rule's thresholds once:
/// the balanced rule's Monte-Carlo calibration, or the AND and
/// `T`-threshold rules' Poisson tail inversion).
///
/// [`prepare`]: UniformityTester::prepare
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformityTester {
    n: usize,
    k: usize,
    epsilon: f64,
    rule: Rule,
    calibration_trials: usize,
}

/// A [`UniformityTester`] bound to a specific per-player sample count,
/// with any calibration already performed.
#[derive(Debug, Clone)]
pub struct PreparedUniformityTester {
    q: usize,
    variant: PreparedVariant,
}

#[derive(Debug, Clone)]
enum PreparedVariant {
    /// Every distributed rule: AND, `T`-threshold and balanced.
    Threshold(PreparedThresholdTester),
    Centralized(CollisionTester),
}

impl UniformityTester {
    /// Starts the builder.
    #[must_use]
    pub fn builder() -> UniformityTesterBuilder {
        UniformityTesterBuilder::new()
    }

    pub(crate) fn from_parts(
        n: usize,
        k: usize,
        epsilon: f64,
        rule: Rule,
        calibration_trials: usize,
    ) -> Self {
        Self {
            n,
            k,
            epsilon,
            rule,
            calibration_trials,
        }
    }

    /// Domain size `n`.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.n
    }

    /// Number of players `k`.
    #[must_use]
    pub fn players(&self) -> usize {
        self.k
    }

    /// Proximity parameter `ε`.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The configured decision rule.
    #[must_use]
    pub fn rule(&self) -> Rule {
        self.rule
    }

    /// The per-player sample count at which this configuration is
    /// expected to reach the 2/3 guarantee, from the matching theory
    /// prediction (generous constants; binary-search the exact value
    /// with `dut_stats::search` if needed).
    #[must_use]
    pub fn predicted_sample_count(&self) -> usize {
        let q = match self.rule {
            Rule::And => 6.0 * theory::theorem_1_2(self.n, self.k, self.epsilon),
            Rule::TThreshold { t } => 6.0 * theory::theorem_1_3(self.n, self.k, self.epsilon, t),
            Rule::Balanced => 6.0 * theory::fmo_threshold_upper(self.n, self.k, self.epsilon),
            Rule::Centralized => 4.0 * theory::centralized(self.n, self.epsilon),
        };
        dut_stats::convert::ceil_to_usize(q).max(2)
    }

    /// Binds the tester to a per-player sample count, performing any
    /// required calibration with the default [`SampleBackend::Auto`]
    /// (the cost model picks the cheaper engine for the calibration's
    /// Monte-Carlo draws).
    pub fn prepare<R: Rng + ?Sized>(&self, q: usize, rng: &mut R) -> PreparedUniformityTester {
        self.prepare_with_backend(q, SampleBackend::Auto, rng)
    }

    /// [`Self::prepare`] with an explicit calibration backend. The
    /// balanced rule's threshold calibration runs thousands of
    /// `q`-sample draws, so on configurations where one engine is much
    /// faster the backend choice dominates preparation time; both
    /// engines draw exactly Multinomial(q, p) histograms, so the
    /// calibrated thresholds are identically distributed either way.
    pub fn prepare_with_backend<R: Rng + ?Sized>(
        &self,
        q: usize,
        backend: SampleBackend,
        rng: &mut R,
    ) -> PreparedUniformityTester {
        let variant =
            match self.rule {
                Rule::And => {
                    PreparedVariant::Threshold(TThresholdTester::new(self.n, self.k, 1).prepare(q))
                }
                Rule::TThreshold { t } => {
                    PreparedVariant::Threshold(TThresholdTester::new(self.n, self.k, t).prepare(q))
                }
                Rule::Balanced => PreparedVariant::Threshold(
                    BalancedThresholdTester::new(self.n, self.k, self.epsilon)
                        .prepare_with_backend(q, self.calibration_trials, backend, rng),
                ),
                Rule::Centralized => {
                    PreparedVariant::Centralized(CollisionTester::new(self.n, self.epsilon))
                }
            };
        PreparedUniformityTester { q, variant }
    }
}

impl PreparedUniformityTester {
    /// The per-player sample count this instance is bound to.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.q
    }

    /// Runs one execution of the protocol against the given input
    /// sampler.
    pub fn run<S, R>(&self, sampler: &S, rng: &mut R) -> Verdict
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        match &self.variant {
            PreparedVariant::Threshold(t) => t.run(sampler, rng).verdict,
            PreparedVariant::Centralized(c) => {
                // Centralized baseline: a single machine draws k*q samples.
                let samples = sampler.sample_many(self.q, rng);
                c.test(&samples)
            }
        }
    }

    /// Runs one execution with every player's samples realized as an
    /// occupancy histogram by the chosen [`SampleBackend`]. All the
    /// rules this type prepares consume only collision counts, so the
    /// verdict law is identical to [`Self::run`]; the histogram backend
    /// makes each run O(n + q) per player instead of O(q log n).
    pub fn run_dual<R>(&self, sampler: &DualSampler, backend: SampleBackend, rng: &mut R) -> Verdict
    where
        R: Rng + ?Sized,
    {
        match &self.variant {
            PreparedVariant::Threshold(t) => t.run_counts(sampler, backend, rng).verdict,
            PreparedVariant::Centralized(c) => {
                let histogram = sampler.draw(backend, self.q as u64, rng);
                c.test_histogram(&histogram)
            }
        }
    }

    /// Estimates the acceptance probability of [`Self::run_dual`] over
    /// `trials` runs.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn acceptance_rate_dual<R>(
        &self,
        sampler: &DualSampler,
        backend: SampleBackend,
        trials: usize,
        rng: &mut R,
    ) -> f64
    where
        R: Rng + ?Sized,
    {
        assert!(trials > 0, "need at least one trial");
        let accepts = (0..trials)
            .filter(|_| self.run_dual(sampler, backend, rng).is_accept())
            .count();
        accepts as f64 / trials as f64
    }

    /// Estimates the acceptance probability over `trials` runs.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn acceptance_rate<S, R>(&self, sampler: &S, trials: usize, rng: &mut R) -> f64
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        assert!(trials > 0, "need at least one trial");
        let accepts = (0..trials)
            .filter(|_| self.run(sampler, rng).is_accept())
            .count();
        accepts as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::families;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn build(rule: Rule, n: usize, k: usize, eps: f64) -> UniformityTester {
        UniformityTester::builder()
            .domain_size(n)
            .players(k)
            .epsilon(eps)
            .rule(rule)
            .build()
            .unwrap()
    }

    #[test]
    fn balanced_end_to_end() {
        let n = 1 << 10;
        let tester = build(Rule::Balanced, n, 32, 0.5);
        let mut r = rng(1);
        let prepared = tester.prepare(tester.predicted_sample_count(), &mut r);
        let uniform = families::uniform(n).alias_sampler();
        let far = families::two_level(n, 0.5).unwrap().alias_sampler();
        assert!(prepared.acceptance_rate(&uniform, 60, &mut r) > 2.0 / 3.0);
        assert!(prepared.acceptance_rate(&far, 60, &mut r) < 1.0 / 3.0);
    }

    #[test]
    fn centralized_end_to_end() {
        let n = 1 << 10;
        let tester = build(Rule::Centralized, n, 1, 0.5);
        let mut r = rng(2);
        let prepared = tester.prepare(tester.predicted_sample_count(), &mut r);
        let uniform = families::uniform(n).alias_sampler();
        let far = families::two_level(n, 0.5).unwrap().alias_sampler();
        assert!(prepared.acceptance_rate(&uniform, 60, &mut r) > 2.0 / 3.0);
        assert!(prepared.acceptance_rate(&far, 60, &mut r) < 1.0 / 3.0);
    }

    #[test]
    fn and_rule_end_to_end() {
        let n = 1 << 8;
        let tester = build(Rule::And, n, 8, 0.9);
        let mut r = rng(3);
        // Generous q for the AND rule at large epsilon.
        let prepared = tester.prepare(400, &mut r);
        let uniform = families::uniform(n).alias_sampler();
        let far = families::two_level(n, 0.9).unwrap().alias_sampler();
        assert!(prepared.acceptance_rate(&uniform, 60, &mut r) > 2.0 / 3.0);
        assert!(prepared.acceptance_rate(&far, 60, &mut r) < 1.0 / 3.0);
    }

    #[test]
    fn predicted_counts_ordered_by_rule_cost() {
        // At equal (n, k, eps): balanced <= and <= centralized-ish scale;
        // centralized doesn't divide by k, and the AND rule only saves
        // log factors.
        let n = 1 << 14;
        let k = 64;
        let eps = 0.25;
        let balanced = build(Rule::Balanced, n, k, eps).predicted_sample_count();
        let centralized = build(Rule::Centralized, n, k, eps).predicted_sample_count();
        assert!(balanced < centralized);
    }

    /// Every prepared variant, both backends: uniform accepted and far
    /// rejected at the usual 2/3 margins. Parameters mirror the
    /// per-rule end-to-end tests above.
    fn check_dual_rates(rule: Rule, n: usize, k: usize, eps: f64, q: Option<usize>, seed: u64) {
        let uniform = families::uniform(n).dual_sampler();
        let far = families::two_level(n, eps).unwrap().dual_sampler();
        let tester = build(rule, n, k, eps);
        let mut r = rng(seed);
        let prepared = tester.prepare(q.unwrap_or_else(|| tester.predicted_sample_count()), &mut r);
        for backend in SampleBackend::ALL {
            let up = prepared.acceptance_rate_dual(&uniform, backend, 60, &mut r);
            let fp = prepared.acceptance_rate_dual(&far, backend, 60, &mut r);
            assert!(up > 2.0 / 3.0, "{rule:?}/{backend}: uniform rate {up}");
            assert!(fp < 1.0 / 3.0, "{rule:?}/{backend}: far rate {fp}");
        }
    }

    #[test]
    fn dual_backends_balanced_rates() {
        check_dual_rates(Rule::Balanced, 1 << 10, 32, 0.5, None, 11);
    }

    #[test]
    fn dual_backends_centralized_rates() {
        check_dual_rates(Rule::Centralized, 1 << 10, 1, 0.5, None, 13);
    }

    #[test]
    fn dual_backends_and_rule_rates() {
        check_dual_rates(Rule::And, 1 << 8, 8, 0.9, Some(400), 17);
    }

    #[test]
    fn accessors() {
        let t = build(Rule::TThreshold { t: 2 }, 64, 8, 0.25);
        assert_eq!(t.domain_size(), 64);
        assert_eq!(t.players(), 8);
        assert_eq!(t.rule(), Rule::TThreshold { t: 2 });
        assert!((t.epsilon() - 0.25).abs() < 1e-15);
        let mut r = rng(7);
        let p = t.prepare(10, &mut r);
        assert_eq!(p.sample_count(), 10);
    }
}
