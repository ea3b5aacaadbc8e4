use dut_probability::Sampler;
use dut_simnet::{
    DecisionRule, FaultPlan, Network, ResilientNetwork, ResilientOutcome, RunOutcome,
};
use rand::Rng;

/// The uniform collision rate `λ₀ = C(q,2)/n`: the expected collision
/// count of `q` uniform samples on `[n]`.
pub(super) fn lambda_uniform(n: usize, q: usize) -> f64 {
    (q * q.saturating_sub(1)) as f64 / 2.0 / n as f64
}

/// A collision-threshold protocol with both of its thresholds fixed.
///
/// Every node counts the collisions among its `q` samples (the edge
/// count of its comparison graph) and rejects iff the count exceeds
/// [`Self::node_max_count`]; the referee rejects iff at least
/// [`Self::referee_min_rejects`] nodes reject.
///
/// Every distributed rule the paper compares has this shape: the
/// balanced rule of Theorem 1.1 and the AND and small-`T` rules of
/// Theorems 1.2 and 1.3. They differ only in how the two thresholds
/// are chosen, which is all that
/// [`BalancedThresholdTester::prepare`](crate::BalancedThresholdTester::prepare)
/// and [`TThresholdTester::prepare`](crate::TThresholdTester::prepare)
/// do; running the prepared protocol is the same for every rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedThresholdTester {
    k: usize,
    q: usize,
    node_max_count: u64,
    referee_min_rejects: usize,
}

impl PreparedThresholdTester {
    pub(super) fn new(k: usize, q: usize, node_max_count: u64, referee_min_rejects: usize) -> Self {
        Self {
            k,
            q,
            node_max_count,
            referee_min_rejects,
        }
    }

    /// The largest collision count a node accepts.
    #[must_use]
    pub fn node_max_count(&self) -> u64 {
        self.node_max_count
    }

    /// The referee threshold: reject iff at least this many nodes
    /// reject.
    #[must_use]
    pub fn referee_min_rejects(&self) -> usize {
        self.referee_min_rejects
    }

    /// The referee as a decision rule: reject iff at least
    /// [`Self::referee_min_rejects`] nodes reject. [`Self::run`] and
    /// [`Self::run_faulty`] both decide with it.
    #[must_use]
    pub fn referee(&self) -> DecisionRule {
        DecisionRule {
            min_rejects: self.referee_min_rejects,
        }
    }

    /// The node's local decision on its collision count.
    #[must_use]
    pub(super) fn node_accepts(&self, collisions: u64) -> bool {
        collisions <= self.node_max_count
    }

    /// Runs one execution on [`Network::run_until_settled`]: nodes
    /// 0, 1, … draw `q` samples each from `sampler`, each tallying its
    /// collisions as it draws ([`Sampler::collision_count`]) and sending
    /// its accept bit, until the referee's verdict is settled: `T` nodes
    /// have rejected, or too few are left to reach `T`. The verdict is
    /// the one all `k` bits would give. The transcript holds the nodes
    /// the referee heard, and `rng` is left where the last of them left
    /// it.
    pub fn run<S, R>(&self, sampler: &S, rng: &mut R) -> RunOutcome<bool>
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        // The network once drew a shared seed here that no node read.
        // Skipping the word keeps every committed q*, golden verdict and
        // served reply as it was recorded; regenerating those artifacts
        // can drop it.
        let _: u64 = rng.random();
        Network::new(self.k).run_until_settled(self.q, &self.referee(), rng, |_, q, rng| {
            self.node_accepts(sampler.collision_count(q, rng))
        })
    }

    /// Runs one execution on the fault-injected star
    /// [`ResilientNetwork::run`] under `plan`, with the node and referee
    /// of [`Self::run`]. It draws no word of its own: the network
    /// already skips the word that [`Self::run`] discards.
    ///
    /// # Panics
    ///
    /// Panics if `network` does not have one player per node.
    pub fn run_faulty<F, S, R>(
        &self,
        network: &ResilientNetwork,
        plan: &mut F,
        sampler: &S,
        rng: &mut R,
    ) -> ResilientOutcome
    where
        F: FaultPlan + ?Sized,
        S: Sampler,
        R: Rng + ?Sized,
    {
        assert_eq!(
            network.num_players(),
            self.k,
            "the network needs one player per node"
        );
        network.run(self.q, &self.referee(), plan, rng, |_, q, rng| {
            self.node_accepts(sampler.collision_count(q, rng))
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::TThresholdTester;
    use dut_probability::{families, Sampler};
    use dut_simnet::{DecisionRule, IidFaults, MissingPolicy, ResilientNetwork, ResilientOutcome};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 256;
    const K: usize = 16;

    #[test]
    fn run_faulty_matches_the_hand_built_node_on_the_resilient_network() {
        // The fault layer's old node: a count below the tester's node
        // threshold accepts, and the referee's T is passed separately.
        fn hand_built<S: Sampler>(sampler: &S, t: usize, q: usize, seed: u64) -> ResilientOutcome {
            let threshold = TThresholdTester::new(N, K, t).node_threshold(q);
            ResilientNetwork::new(K, MissingPolicy::AssumeAccept).run(
                q,
                &DecisionRule { min_rejects: t },
                &mut IidFaults::loss_only(0.2),
                &mut StdRng::seed_from_u64(seed),
                |_, q, rng| sampler.collision_count(q, rng) < threshold,
            )
        }
        let uniform = families::uniform(N).alias_sampler();
        let far = families::two_level(N, 0.9).unwrap().alias_sampler();
        let net = ResilientNetwork::new(K, MissingPolicy::AssumeAccept);
        let mut rejects = 0;
        for (t, q) in [(1, 40), (4, 40), (4, 100)] {
            let prepared = TThresholdTester::new(N, K, t).prepare(q);
            for seed in 0..40 {
                let (sampler, expected) = if seed % 2 == 0 {
                    (&uniform, hand_built(&uniform, t, q, seed))
                } else {
                    (&far, hand_built(&far, t, q, seed))
                };
                let mut plan = IidFaults::loss_only(0.2);
                let mut rng = StdRng::seed_from_u64(seed);
                let got = prepared.run_faulty(&net, &mut plan, sampler, &mut rng);
                assert_eq!(got, expected, "t={t} q={q} seed={seed}");
                rejects += usize::from(expected.verdict.is_reject());
            }
        }
        // Both verdicts occur, so the comparison is not vacuous.
        assert!((1..120).contains(&rejects), "{rejects} rejects of 120");
    }

    #[test]
    #[should_panic(expected = "one player per node")]
    fn run_faulty_needs_one_player_per_node() {
        let uniform = families::uniform(N).alias_sampler();
        let _ = TThresholdTester::new(N, K, 1).prepare(40).run_faulty(
            &ResilientNetwork::new(K + 1, MissingPolicy::AssumeAccept),
            &mut IidFaults::loss_only(0.0),
            &uniform,
            &mut StdRng::seed_from_u64(1),
        );
    }
}
