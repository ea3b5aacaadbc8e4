use dut_probability::{Sampler, UniformSampler};
use dut_simnet::{record_run, RateVector, Verdict};
use rand::Rng;

/// The asymmetric-cost protocol of §6.2: player `i` samples at rate
/// `T_i`, so a time budget `τ` gives it `q_i = max(1, ⌊T_i·τ⌋)`
/// samples. Every player sends the balanced above-mean collision bit
/// for *its own* `q_i`.
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
    n: usize,
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

    /// The paper-predicted sufficient time budget
    /// `c·√n/(ε²·‖T‖₂)`.
    #[must_use]
    pub fn predicted_time(&self) -> f64 {
        6.0 * (self.n as f64).sqrt() / (self.epsilon * self.epsilon * self.rates.l2_norm())
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
        // Calibrate the weighted rejection statistic under uniform.
        let uniform = UniformSampler::new(self.n);
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..calibration_trials {
            let stat =
                weighted_rejections(&uniform, &sample_counts, &node_thresholds, &weights, rng);
            sum += stat;
            sum_sq += stat * stat;
        }
        let mean = sum / calibration_trials as f64;
        let var = (sum_sq / calibration_trials as f64 - mean * mean).max(0.0);
        PreparedAsymmetricTester {
            n: self.n,
            sample_counts,
            node_thresholds,
            weights,
            referee_threshold: mean + 1.3 * var.sqrt(),
        }
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

    /// Runs one execution.
    pub fn run<S, R>(&self, sampler: &S, rng: &mut R) -> Verdict
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        let stat = weighted_rejections(
            sampler,
            &self.sample_counts,
            &self.node_thresholds,
            &self.weights,
            rng,
        );
        let verdict = Verdict::from_accept_bit(stat <= self.referee_threshold);
        record_run(
            verdict,
            self.sample_counts.iter().map(|&q| q as u64).sum(),
            self.sample_counts.len() as u64,
        );
        verdict
    }
}

fn weighted_rejections<S, R>(
    sampler: &S,
    sample_counts: &[usize],
    node_thresholds: &[f64],
    weights: &[f64],
    rng: &mut R,
) -> f64
where
    S: Sampler,
    R: Rng + ?Sized,
{
    sample_counts
        .iter()
        .zip(node_thresholds)
        .zip(weights)
        .map(|((&q, &threshold), &w)| {
            if sampler.collision_count(q, rng) as f64 > threshold {
                w
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::families;
    use rand::SeedableRng;

    fn acceptance<S: Sampler>(
        p: &PreparedAsymmetricTester,
        sampler: &S,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..trials)
            .filter(|_| p.run(sampler, &mut rng).is_accept())
            .count() as f64
            / trials as f64
    }

    #[test]
    fn unit_rates_match_symmetric_protocol_guarantees() {
        let n = 1 << 10;
        let eps = 0.5;
        let tester = AsymmetricThresholdTester::new(n, RateVector::unit(32), eps);
        let tau = tester.predicted_time();
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
        let tau = tester.predicted_time();
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
    fn predicted_time_uses_l2_norm() {
        let n = 1 << 12;
        let eps = 0.5;
        let concentrated = AsymmetricThresholdTester::new(n, RateVector::new(vec![4.0]), eps);
        let spread = AsymmetricThresholdTester::new(n, RateVector::new(vec![1.0; 16]), eps);
        assert!(
            (concentrated.predicted_time() - spread.predicted_time()).abs() < 1e-9,
            "equal l2 norms must predict equal time"
        );
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
