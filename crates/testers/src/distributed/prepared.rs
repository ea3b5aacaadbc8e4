use dut_probability::Sampler;
use dut_simnet::{DecisionRule, Network, RunOutcome};
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

    /// The node's local decision on its collision count.
    #[must_use]
    pub(super) fn node_accepts(&self, collisions: u64) -> bool {
        collisions <= self.node_max_count
    }

    /// Runs one execution on [`Network::run_nodes`]: `k` nodes draw `q`
    /// samples each from `sampler`, each tallying its collisions as it
    /// draws ([`Sampler::collision_count`]) and sending its accept bit,
    /// and the referee counts their rejections.
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
        let referee = DecisionRule::Threshold {
            min_rejects: self.referee_min_rejects,
        };
        Network::new(self.k).run_nodes(
            vec![self.q; self.k],
            1,
            rng,
            |_, q, rng| self.node_accepts(sampler.collision_count(q, rng)),
            |bits| referee.decide(bits),
        )
    }
}
