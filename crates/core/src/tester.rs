use crate::config::{Rule, UniformityTesterBuilder};
use dut_lowerbound::theory;
use dut_probability::Sampler;
use dut_simnet::Verdict;
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
    /// required calibration. The balanced rule's Monte-Carlo
    /// calibration draws on the engine [`dut_probability::SampleBackend::Auto`]
    /// resolves to for `(n, q)`.
    pub fn prepare<R: Rng + ?Sized>(&self, q: usize, rng: &mut R) -> PreparedUniformityTester {
        let variant = match self.rule {
            Rule::And => {
                PreparedVariant::Threshold(TThresholdTester::new(self.n, self.k, 1).prepare(q))
            }
            Rule::TThreshold { t } => {
                PreparedVariant::Threshold(TThresholdTester::new(self.n, self.k, t).prepare(q))
            }
            Rule::Balanced => PreparedVariant::Threshold(
                BalancedThresholdTester::new(self.n, self.k, self.epsilon).prepare(
                    q,
                    self.calibration_trials,
                    rng,
                ),
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
    /// sampler. Every node, and the centralized machine, draws through
    /// the fused kernel [`Sampler::collision_count`] and decides on
    /// that count.
    pub fn run<S, R>(&self, sampler: &S, rng: &mut R) -> Verdict
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        match &self.variant {
            PreparedVariant::Threshold(t) => t.run(sampler, rng).verdict,
            PreparedVariant::Centralized(c) => {
                let count = sampler.collision_count(self.q, rng) as f64;
                Verdict::from_accept_bit(count <= c.threshold(self.q))
            }
        }
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

    /// The centralized arm decides on the fused kernel's count; it must
    /// agree with the collision tester run on the materialized samples,
    /// seed for seed, because both consume the same random words.
    #[test]
    fn centralized_run_matches_the_tester_on_drawn_samples() {
        use dut_probability::{AliasSampler, CdfSampler, UniformSampler};
        use dut_testers::CentralizedTester;
        let n = 256;
        let prepared = build(Rule::Centralized, n, 1, 0.5).prepare(40, &mut rng(0));
        let tester = CollisionTester::new(n, 0.5);
        let far = families::two_level(n, 0.5).unwrap();
        let alias = AliasSampler::new(&far);
        let cdf = CdfSampler::new(&far);
        let uniform = UniformSampler::new(n);
        let mut verdicts = [0usize; 2];
        for seed in 0..2_000u64 {
            let fused = [
                prepared.run(&alias, &mut rng(seed)),
                prepared.run(&cdf, &mut rng(seed)),
                prepared.run(&uniform, &mut rng(seed)),
            ];
            let drawn = [
                tester.test(&alias.sample_many(40, &mut rng(seed))),
                tester.test(&cdf.sample_many(40, &mut rng(seed))),
                tester.test(&uniform.sample_many(40, &mut rng(seed))),
            ];
            assert_eq!(fused, drawn, "seed {seed}");
            for v in fused {
                verdicts[usize::from(v.is_accept())] += 1;
            }
        }
        // Both verdicts occur, so the comparison is not vacuous.
        assert!(verdicts.iter().all(|&c| c > 100), "{verdicts:?}");
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
