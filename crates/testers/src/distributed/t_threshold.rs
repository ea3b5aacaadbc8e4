use super::prepared::{lambda_uniform, PreparedThresholdTester};
use crate::poisson::poisson_threshold_for_tail;

/// The Fischer–Meir–Oshman biased-node protocol family: every node runs
/// a *high-threshold* local collision test whose false-positive rate is
/// matched to the decision rule, and the referee rejects when at least
/// `T` nodes reject.
///
/// * `T = 1` is the **AND rule** — the fully local protocol of
///   Theorem 1.2: the network rejects iff at least one node rejects,
///   the local decision rule of proof-labeling schemes;
/// * small `T > 1` is the regime of Theorem 1.3.
///
/// [`Self::prepare`] fixes the node threshold for a sample count `q`;
/// the returned [`PreparedThresholdTester`] runs the protocol.
///
/// # How the node threshold is chosen
///
/// Under the uniform distribution a node's collision count on `q`
/// samples is ≈ `Poisson(λ₀)` with `λ₀ = C(q,2)/n`. The node rejects
/// when its count reaches the smallest `t` with
/// `Pr[Poisson(λ₀) ≥ t] ≤ T/(4k)`, so the expected number of false
/// rejections is ≤ `T/4` and by Markov the network false-positive rate
/// stays below 1/3 (Chernoff makes it far smaller for larger `T`).
/// Under an ε-far input the local rate grows to `λ₁ ≥ (1+ε²)·λ₀`, and
/// the tail ratio `Pr[Poi(λ₁) ≥ t] / Pr[Poi(λ₀) ≥ t]` — not the tiny
/// tails themselves — is what the referee harvests. This is exactly the
/// mechanism the paper shows is expensive: the bits are highly biased,
/// and Theorem 1.2 proves a `√n/(log²k · ε²)` floor.
///
/// # Example
///
/// ```
/// use dut_testers::TThresholdTester;
/// use dut_probability::families;
/// use rand::SeedableRng;
///
/// let n = 1 << 8;
/// let and_rule = TThresholdTester::new(n, 8, 1).prepare(16);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let uniform = families::uniform(n).alias_sampler();
/// let outcome = and_rule.run(&uniform, &mut rng);
/// // 8 nodes, high local thresholds: almost surely no false alarm.
/// assert!(outcome.verdict.is_accept());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TThresholdTester {
    n: usize,
    k: usize,
    rule_threshold: usize,
    fp_budget_override: Option<f64>,
}

impl TThresholdTester {
    /// Creates the protocol for domain size `n`, `k` nodes, and referee
    /// threshold `rule_threshold` (reject iff that many nodes reject).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `rule_threshold > k`.
    #[must_use]
    pub fn new(n: usize, k: usize, rule_threshold: usize) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(k > 0, "need at least one node");
        assert!(
            (1..=k).contains(&rule_threshold),
            "rule threshold must be in 1..=k"
        );
        Self {
            n,
            k,
            rule_threshold,
            fp_budget_override: None,
        }
    }

    /// Overrides the per-node false-positive budget (default `T/(4k)`).
    ///
    /// Larger budgets lower the node thresholds — more sensitive nodes
    /// at the price of more false alarms reaching the referee. Used by
    /// experiment E3 to find the best protocol of this shape for each
    /// referee threshold `T`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < budget < 0.5`.
    #[must_use]
    pub fn with_node_false_positive_budget(mut self, budget: f64) -> Self {
        assert!(
            budget > 0.0 && budget < 0.5,
            "node false-positive budget must be in (0, 0.5), got {budget}"
        );
        self.fp_budget_override = Some(budget);
        self
    }

    /// Domain size `n`.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.n
    }

    /// Number of nodes `k`.
    #[must_use]
    pub fn num_players(&self) -> usize {
        self.k
    }

    /// The referee threshold `T`.
    #[must_use]
    pub fn rule_threshold(&self) -> usize {
        self.rule_threshold
    }

    /// The per-node false-positive budget: the override if one was set
    /// via [`Self::with_node_false_positive_budget`], else `T/(4k)`.
    #[must_use]
    pub fn node_false_positive_budget(&self) -> f64 {
        self.fp_budget_override
            .unwrap_or(self.rule_threshold as f64 / (4.0 * self.k as f64))
    }

    /// The local rejection threshold on the collision count for `q`
    /// samples per node: a node rejects iff its count reaches it.
    ///
    /// Each call inverts the Poisson tail afresh, in O(λ₀) time; run
    /// the protocol through [`Self::prepare`], which calls it once.
    #[must_use]
    pub fn node_threshold(&self, q: usize) -> u64 {
        let lambda = lambda_uniform(self.n, q);
        if lambda <= 0.0 {
            // q < 2: a node can never see a collision; threshold 1 makes
            // it never reject (count is always 0).
            return 1;
        }
        poisson_threshold_for_tail(lambda, self.node_false_positive_budget()).max(1)
    }

    /// Fixes the protocol for `q` samples per node: a node accepts
    /// counts below [`Self::node_threshold`], and the referee rejects
    /// once `T` nodes reject. Consumes no randomness.
    #[must_use]
    pub fn prepare(&self, q: usize) -> PreparedThresholdTester {
        PreparedThresholdTester::new(self.k, q, self.node_threshold(q) - 1, self.rule_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::{families, Sampler};
    use rand::SeedableRng;

    fn acceptance_rate<S: Sampler>(
        tester: &TThresholdTester,
        sampler: &S,
        q: usize,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let prepared = tester.prepare(q);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let accepts = (0..trials)
            .filter(|_| prepared.run(sampler, &mut rng).verdict.is_accept())
            .count();
        accepts as f64 / trials as f64
    }

    #[test]
    fn node_threshold_grows_with_k() {
        let small = TThresholdTester::new(1 << 10, 4, 1);
        let large = TThresholdTester::new(1 << 10, 4096, 1);
        let q = 200;
        assert!(large.node_threshold(q) > small.node_threshold(q));
    }

    #[test]
    fn node_threshold_at_least_one() {
        let t = TThresholdTester::new(1 << 10, 16, 1);
        assert!(t.node_threshold(0) >= 1);
        assert!(t.node_threshold(1) >= 1);
        assert!(t.node_threshold(2) >= 1);
    }

    #[test]
    fn uniform_false_positive_controlled() {
        // 64 nodes, AND rule: false-positive rate must stay below ~1/3.
        let n = 1 << 10;
        let tester = TThresholdTester::new(n, 64, 1);
        let sampler = families::uniform(n).alias_sampler();
        let rate = acceptance_rate(&tester, &sampler, 60, 120, 61);
        assert!(rate > 0.6, "acceptance under uniform = {rate}");
    }

    #[test]
    fn rejects_far_with_enough_samples() {
        // Large epsilon and generous q: the far side must be detected.
        let n = 1 << 8;
        let eps = 0.9;
        let tester = TThresholdTester::new(n, 16, 1);
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        // q near the centralized complexity: plenty for k=16 under AND.
        let q = 200;
        let rate = acceptance_rate(&tester, &far, q, 120, 67);
        assert!(rate < 1.0 / 3.0, "acceptance under far = {rate}");
    }

    #[test]
    fn t_threshold_two_requires_two_rejections() {
        // With T = 2 and a single far-seeing node the network accepts.
        let n = 1 << 8;
        let t2 = TThresholdTester::new(n, 8, 2);
        assert_eq!(t2.rule_threshold(), 2);
        // FP budget doubles compared to T = 1.
        let t1 = TThresholdTester::new(n, 8, 1);
        assert!(t2.node_false_positive_budget() > t1.node_false_positive_budget());
    }

    #[test]
    fn prepare_fixes_both_thresholds() {
        let tester = TThresholdTester::new(1 << 10, 16, 3);
        let prepared = tester.prepare(50);
        assert_eq!(prepared.node_max_count(), tester.node_threshold(50) - 1);
        assert_eq!(prepared.referee_min_rejects(), 3);
        let uniform = families::uniform(1 << 10).alias_sampler();
        let out = prepared.run(&uniform, &mut rand::rngs::StdRng::seed_from_u64(5));
        // Node 9 rejects and the rest accept: after 15 nodes, one
        // rejection and one unheard node cannot reach T = 3.
        assert!(out.verdict.is_accept());
        assert_eq!(out.transcript.reject_count(), 1);
        assert!(!out.transcript.messages[9]);
        assert_eq!(out.transcript.samples_drawn, vec![50; 15]);
        // q < 2: no collision is possible, and the count 0 accepts.
        assert!(tester.prepare(1).node_accepts(0));
    }

    #[test]
    fn transcript_reports_rejections() {
        let n = 16;
        let tester = TThresholdTester::new(n, 4, 1);
        // Point mass: every node sees all-collisions and must reject.
        let point = families::point_mass(n, 0).unwrap().alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let out = tester.prepare(30).run(&point, &mut rng);
        assert!(out.verdict.is_reject());
        // The first rejection settles the AND rule: one node runs.
        assert_eq!(out.transcript.messages, vec![false]);
        assert_eq!(out.transcript.samples_drawn, vec![30]);
    }

    #[test]
    #[should_panic(expected = "1..=k")]
    fn rule_threshold_validated() {
        let _ = TThresholdTester::new(8, 4, 5);
    }
}
