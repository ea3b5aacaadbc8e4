use dut_probability::{Sampler, UniformSampler};
use dut_simnet::{Network, RateVector, RunOutcome, Verdict};
use rand::Rng;

/// The asymmetric-cost protocol of §6.2: player `i` samples at rate
/// `T_i`, so a time budget `τ` gives it `q_i = max(1, ⌊T_i·τ⌋)`
/// samples. Every player sends the balanced collision bit for *its
/// own* `q_i`: it accepts iff its collision count is at most
/// `t_i = λ₀ᵢ·(1 + ε²/2)`.
///
/// The referee (which may apply **any** function of the bits) uses a
/// weighted vote: player `i`'s rejection counts with weight
/// `w_i = √λ₀ᵢ` (`λ₀ᵢ = C(qᵢ,2)/n`), proportional to that bit's
/// signal-to-noise ratio — a fast player's bit carries `ε²λ₀ᵢ` signal
/// against `√λ₀ᵢ` noise. The decision threshold on the weighted sum is
/// Monte-Carlo-calibrated under uniform.
///
/// The paper shows the optimal time is `τ = Θ(√n/(ε²·‖T‖₂))` — the ℓ₂
/// norm of the rates, not their sum, governs the cost. Experiment E7
/// verifies that rate vectors with equal `‖T‖₂` but different shapes
/// need the same `τ*`.
#[derive(Debug, Clone, PartialEq)]
pub struct AsymmetricThresholdTester {
    n: usize,
    rates: RateVector,
    epsilon: f64,
}

/// An [`AsymmetricThresholdTester`] calibrated for a fixed time budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedAsymmetricTester {
    sample_counts: Vec<usize>,
    node_thresholds: Vec<f64>,
    weights: Vec<f64>,
    referee_threshold: f64,
}

impl AsymmetricThresholdTester {
    /// Creates the protocol for domain size `n`, per-player rates and
    /// proximity `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `epsilon ∉ (0, 1]`.
    #[must_use]
    pub fn new(n: usize, rates: RateVector, epsilon: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        Self { n, rates, epsilon }
    }

    /// The rate vector.
    #[must_use]
    pub fn rates(&self) -> &RateVector {
        &self.rates
    }

    /// Calibrates for time budget `tau`: fixes each player's sample
    /// count, local threshold and vote weight, then Monte-Carlo-
    /// calibrates the referee's weighted-vote threshold under uniform.
    ///
    /// # Panics
    ///
    /// Panics if `calibration_trials < 2` or `tau` is invalid.
    pub fn prepare<R: Rng + ?Sized>(
        &self,
        tau: f64,
        calibration_trials: usize,
        rng: &mut R,
    ) -> PreparedAsymmetricTester {
        assert!(
            calibration_trials >= 2,
            "need at least two calibration trials"
        );
        let sample_counts = self.rates.samples_for_time(tau);
        // Midpoint thresholds (like the centralized collision tester and
        // the balanced protocol): a single-player network then
        // degenerates correctly to the centralized tester.
        let midpoint = 1.0 + self.epsilon * self.epsilon / 2.0;
        let node_thresholds: Vec<f64> = sample_counts
            .iter()
            .map(|&q| (q * q.saturating_sub(1)) as f64 / 2.0 / self.n as f64 * midpoint)
            .collect();
        let weights: Vec<f64> = node_thresholds.iter().map(|l| l.sqrt()).collect();
        let mut prepared = PreparedAsymmetricTester {
            sample_counts,
            node_thresholds,
            weights,
            referee_threshold: 0.0,
        };
        // Calibrate the weighted rejection statistic under uniform.
        let uniform = UniformSampler::new(self.n);
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..calibration_trials {
            let bits: Vec<bool> = prepared
                .sample_counts
                .iter()
                .enumerate()
                .map(|(player, &q)| prepared.node_accepts(&uniform, player, q, rng))
                .collect();
            let stat = prepared.statistic(&bits);
            sum += stat;
            sum_sq += stat * stat;
        }
        let mean = sum / calibration_trials as f64;
        let var = (sum_sq / calibration_trials as f64 - mean * mean).max(0.0);
        prepared.referee_threshold = mean + 1.3 * var.sqrt();
        prepared
    }
}

impl PreparedAsymmetricTester {
    /// Per-player sample counts for the calibrated time budget.
    #[must_use]
    pub fn sample_counts(&self) -> &[usize] {
        &self.sample_counts
    }

    /// The calibrated referee threshold on the weighted vote.
    #[must_use]
    pub fn referee_threshold(&self) -> f64 {
        self.referee_threshold
    }

    /// The referee's statistic on the players' accept bits: the summed
    /// weight `Σ w_i` of the players that rejected.
    #[must_use]
    pub fn statistic(&self, accept_bits: &[bool]) -> f64 {
        accept_bits
            .iter()
            .zip(&self.weights)
            .map(|(&accept, &w)| if accept { 0.0 } else { w })
            .sum()
    }

    /// Runs one execution on [`Network::run_nodes`]: player `i` draws
    /// its `q_i` samples and sends its accept bit, and the referee
    /// accepts iff the weighted rejections stay at most the calibrated
    /// threshold.
    pub fn run<S, R>(&self, sampler: &S, rng: &mut R) -> RunOutcome<bool>
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        Network::new(self.sample_counts.len()).run_nodes(
            self.sample_counts.clone(),
            1,
            rng,
            |player, q, rng| self.node_accepts(sampler, player, q, rng),
            |bits| Verdict::from_accept_bit(self.statistic(bits) <= self.referee_threshold),
        )
    }

    /// Player `player`'s bit: accept iff its collision count at `q`
    /// samples is at most its threshold.
    fn node_accepts<S, R>(&self, sampler: &S, player: usize, q: usize, rng: &mut R) -> bool
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        sampler.collision_count(q, rng) as f64 <= self.node_thresholds[player]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::families;
    use rand::SeedableRng;

    /// The paper's sufficient time budget `c·√n/(ε²·‖T‖₂)`, with `c = 6`.
    fn predicted_time(tester: &AsymmetricThresholdTester) -> f64 {
        6.0 * (tester.n as f64).sqrt() / (tester.epsilon * tester.epsilon * tester.rates.l2_norm())
    }

    fn acceptance<S: Sampler>(
        p: &PreparedAsymmetricTester,
        sampler: &S,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..trials)
            .filter(|_| p.run(sampler, &mut rng).verdict.is_accept())
            .count() as f64
            / trials as f64
    }

    #[test]
    fn unit_rates_match_symmetric_protocol_guarantees() {
        let n = 1 << 10;
        let eps = 0.5;
        let tester = AsymmetricThresholdTester::new(n, RateVector::unit(32), eps);
        let tau = predicted_time(&tester);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let prepared = tester.prepare(tau, 800, &mut rng);
        let uniform = families::uniform(n).alias_sampler();
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        assert!(acceptance(&prepared, &uniform, 120, 23) > 2.0 / 3.0);
        assert!(acceptance(&prepared, &far, 120, 25) < 1.0 / 3.0);
    }

    #[test]
    fn heterogeneous_rates_work_at_predicted_time() {
        let n = 1 << 10;
        let eps = 0.6;
        // Mixed speeds: a few fast players, many slow ones.
        let mut rates = vec![4.0; 4];
        rates.extend(vec![0.5; 32]);
        let tester = AsymmetricThresholdTester::new(n, RateVector::new(rates), eps);
        let tau = predicted_time(&tester);
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        let prepared = tester.prepare(tau, 800, &mut rng);
        let uniform = families::uniform(n).alias_sampler();
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        assert!(acceptance(&prepared, &uniform, 120, 29) > 2.0 / 3.0);
        assert!(acceptance(&prepared, &far, 120, 31) < 1.0 / 3.0);
    }

    #[test]
    fn sample_counts_follow_rates() {
        let tester =
            AsymmetricThresholdTester::new(256, RateVector::new(vec![1.0, 2.0, 0.25]), 0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let prepared = tester.prepare(8.0, 10, &mut rng);
        assert_eq!(prepared.sample_counts(), &[8, 16, 2]);
        assert!(prepared.referee_threshold() >= 0.0);
    }

    #[test]
    fn fast_players_carry_more_weight() {
        let tester = AsymmetricThresholdTester::new(1 << 10, RateVector::new(vec![8.0, 1.0]), 0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let prepared = tester.prepare(20.0, 10, &mut rng);
        // Weight of the fast player's bit exceeds the slow player's.
        assert!(prepared.weights[0] > prepared.weights[1]);
    }
}
