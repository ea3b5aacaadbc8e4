use dut_probability::Sampler;
use dut_simnet::aggregation::aggregate_sum;
use dut_simnet::{RoundModel, RoundStats, Topology, Verdict};
use rand::Rng;

/// Uniformity testing on an arbitrary connected graph in the
/// LOCAL/CONGEST models — the setting \[7\] reduces to the simultaneous
/// case.
///
/// Every node draws `q` samples and computes its local collision
/// count; the counts are convergecast (summed over a BFS tree) to the
/// root in `diameter + 1` rounds, and the root compares the pooled
/// count against the midpoint threshold `k·C(q,2)·(1+ε²/2)/n`.
///
/// Pooling the full counts (rather than 1-bit votes) keeps the
/// per-node cost at the optimal `O(√(n/k)/ε²)` while using only
/// `O(log)` bits per edge — the protocol is CONGEST-compatible for all
/// realistic parameters.
#[derive(Debug, Clone)]
pub struct GraphUniformityTester {
    n: usize,
    epsilon: f64,
    topology: Topology,
    model: RoundModel,
}

/// The outcome of one graph-tester execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphRunOutcome {
    /// The root's verdict.
    pub verdict: Verdict,
    /// The pooled collision count.
    pub statistic: u64,
    /// The decision threshold used.
    pub threshold: f64,
    /// Communication statistics of the convergecast.
    pub rounds: RoundStats,
}

impl GraphUniformityTester {
    /// Creates the tester for domain size `n`, proximity `epsilon`,
    /// over `topology` under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `epsilon ∉ (0, 1]`, or the topology is
    /// disconnected.
    #[must_use]
    pub fn new(n: usize, epsilon: f64, topology: Topology, model: RoundModel) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        assert!(topology.is_connected(), "topology must be connected");
        Self {
            n,
            epsilon,
            topology,
            model,
        }
    }

    /// Number of nodes `k`.
    #[must_use]
    pub fn num_players(&self) -> usize {
        self.topology.len()
    }

    /// The pooled-count decision threshold for `q` samples per node.
    #[must_use]
    pub fn threshold(&self, q: usize) -> f64 {
        let k = self.topology.len() as f64;
        let pairs = (q * q.saturating_sub(1)) as f64 / 2.0;
        k * pairs / self.n as f64 * (1.0 + self.epsilon * self.epsilon / 2.0)
    }

    /// The paper-predicted sufficient per-node sample count
    /// `c·√(n/k)/ε²`.
    #[must_use]
    pub fn predicted_sample_count(&self) -> usize {
        let q = 6.0 * (self.n as f64 / self.topology.len() as f64).sqrt()
            / (self.epsilon * self.epsilon);
        dut_stats::convert::ceil_to_usize(q).max(2)
    }

    /// Runs one execution: sampling, convergecast, root decision.
    pub fn run<S, R>(&self, sampler: &S, q: usize, rng: &mut R) -> GraphRunOutcome
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        let counts: Vec<u64> = (0..self.topology.len())
            .map(|_| sampler.collision_count(q, rng))
            .collect();
        let (statistic, rounds) = aggregate_sum(&self.topology, self.model, counts);
        let threshold = self.threshold(q);
        GraphRunOutcome {
            verdict: Verdict::from_accept_bit(statistic as f64 <= threshold),
            statistic,
            threshold,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::families;
    use rand::SeedableRng;

    fn acceptance<S: Sampler>(
        tester: &GraphUniformityTester,
        sampler: &S,
        q: usize,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..trials)
            .filter(|_| tester.run(sampler, q, &mut rng).verdict.is_accept())
            .count() as f64
            / trials as f64
    }

    #[test]
    fn works_on_star_topology() {
        let n = 1 << 10;
        let eps = 0.5;
        let tester = GraphUniformityTester::new(n, eps, Topology::star(33), RoundModel::Local);
        let q = tester.predicted_sample_count();
        let uniform = families::uniform(n).alias_sampler();
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        assert!(acceptance(&tester, &uniform, q, 100, 41) > 2.0 / 3.0);
        assert!(acceptance(&tester, &far, q, 100, 43) < 1.0 / 3.0);
    }

    #[test]
    fn works_on_path_topology_with_more_rounds() {
        let n = 1 << 10;
        let eps = 0.6;
        let tester = GraphUniformityTester::new(n, eps, Topology::path(16), RoundModel::Local);
        let q = tester.predicted_sample_count();
        let uniform = families::uniform(n).alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let out = tester.run(&uniform, q, &mut rng);
        // Path of 16: diameter 15 -> 16 rounds.
        assert_eq!(out.rounds.rounds, 16);
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        assert!(acceptance(&tester, &far, q, 100, 53) < 1.0 / 3.0);
        assert!(acceptance(&tester, &uniform, q, 100, 59) > 2.0 / 3.0);
    }

    #[test]
    fn congest_compatible_at_realistic_parameters() {
        let n = 1 << 12;
        let tester = GraphUniformityTester::new(
            n,
            0.5,
            Topology::binary_tree(31),
            RoundModel::congest_for(n),
        );
        let q = tester.predicted_sample_count();
        let uniform = families::uniform(n).alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let out = tester.run(&uniform, q, &mut rng);
        // Pooled collision counts fit comfortably in O(log n) bits.
        assert!(out.rounds.max_message_bits <= 13);
    }

    #[test]
    fn per_node_cost_drops_with_network_size() {
        let n = 1 << 12;
        let small = GraphUniformityTester::new(n, 0.5, Topology::star(5), RoundModel::Local);
        let large = GraphUniformityTester::new(n, 0.5, Topology::star(65), RoundModel::Local);
        // 16x the players -> 4x fewer samples each.
        let ratio = small.predicted_sample_count() as f64 / large.predicted_sample_count() as f64;
        assert!((ratio - 4.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn random_graph_end_to_end() {
        let n = 1 << 10;
        let eps = 0.6;
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        let topology = Topology::random_connected(20, 0.25, &mut rng);
        let tester = GraphUniformityTester::new(n, eps, topology, RoundModel::Local);
        let q = tester.predicted_sample_count();
        let far = families::alternating(n, eps).unwrap().alias_sampler();
        assert!(acceptance(&tester, &far, q, 80, 71) < 1.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected_topology() {
        let disconnected = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        let _ = GraphUniformityTester::new(16, 0.5, disconnected, RoundModel::Local);
    }
}
