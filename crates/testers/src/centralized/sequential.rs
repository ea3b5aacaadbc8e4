use dut_probability::Sampler;
use dut_simnet::Verdict;
use rand::Rng;

/// Wald's sequential probability ratio test (SPRT) for uniformity —
/// an *adaptive* tester that draws samples until confident, rather
/// than committing to a fixed budget.
///
/// Samples are consumed in disjoint pairs; each pair collides with
/// probability `p₀ = 1/n` under uniform and `p₁ ≥ (1+ε²)/n` under any
/// ε-far distribution, so the pair-collision indicators are iid
/// Bernoulli and the textbook SPRT applies exactly:
/// accumulate `log(P₁(outcome)/P₀(outcome))` and stop when the sum
/// leaves `[log β/(1−α), log (1−β)/α]`.
///
/// Disjoint pairing discards the cross-pair collisions — and with them
/// the birthday-paradox advantage: under uniform the SPRT needs
/// `Θ(n/ε⁴)` samples where batch statistics need `Θ(√n/ε²)`. What it
/// buys is exact Wald error control and early stopping: on inputs
/// *very* far from uniform the expected sample count collapses (a
/// point mass is rejected in a handful of samples). The stopped sample
/// count is the adaptive analogue of the paper's per-player `q`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialUniformityTester {
    n: usize,
    epsilon: f64,
    alpha: f64,
    beta: f64,
    max_pairs: usize,
}

/// The outcome of a sequential test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialOutcome {
    /// The verdict (at the stopping boundary, or by final LLR sign if
    /// the pair budget ran out).
    pub verdict: Verdict,
    /// Samples actually consumed.
    pub samples_used: usize,
    /// Whether a boundary was hit (false = budget exhausted).
    pub stopped_early: bool,
}

impl SequentialUniformityTester {
    /// Creates the SPRT with two-sided error targets `alpha` (reject
    /// uniform) and `beta` (accept far), both defaulting sensibly via
    /// [`Self::with_default_errors`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `epsilon ∉ (0, 1]`, the error targets are
    /// outside `(0, 0.5)`, or `max_pairs == 0`.
    #[must_use]
    pub fn new(n: usize, epsilon: f64, alpha: f64, beta: f64, max_pairs: usize) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        assert!(
            alpha > 0.0 && alpha < 0.5 && beta > 0.0 && beta < 0.5,
            "error targets must be in (0, 0.5)"
        );
        assert!(max_pairs > 0, "need a positive pair budget");
        Self {
            n,
            epsilon,
            alpha,
            beta,
            max_pairs,
        }
    }

    /// Defaults meeting the paper's 2/3 guarantee: Wald's boundaries
    /// only promise realized errors `≤ α/(1−β)` and `≤ β/(1−α)`, so
    /// targets of 0.2 keep both realized errors below 1/4 < 1/3. Pair
    /// budget `16·n/ε⁴`, far beyond the expected stopping time.
    #[must_use]
    pub fn with_default_errors(n: usize, epsilon: f64) -> Self {
        let e2 = epsilon * epsilon;
        let budget = dut_stats::convert::ceil_to_usize(16.0 * n as f64 / (e2 * e2));
        Self::new(n, epsilon, 0.2, 0.2, budget.max(8))
    }

    /// The Wald boundaries `(lower, upper)` on the log-likelihood
    /// ratio.
    #[must_use]
    pub fn boundaries(&self) -> (f64, f64) {
        (
            (self.beta / (1.0 - self.alpha)).ln(),
            ((1.0 - self.beta) / self.alpha).ln(),
        )
    }

    /// Runs the sequential test against a sampler.
    pub fn run<S, R>(&self, sampler: &S, rng: &mut R) -> SequentialOutcome
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        let p0 = 1.0 / self.n as f64;
        let p1 = (1.0 + self.epsilon * self.epsilon) / self.n as f64;
        let step_hit = (p1 / p0).ln();
        let step_miss = ((1.0 - p1) / (1.0 - p0)).ln();
        let (low, up) = self.boundaries();
        let mut llr = 0.0f64;
        let mut pairs = 0usize;
        while pairs < self.max_pairs {
            let a = sampler.sample(rng);
            let b = sampler.sample(rng);
            pairs += 1;
            llr += if a == b { step_hit } else { step_miss };
            if llr >= up {
                return SequentialOutcome {
                    verdict: Verdict::Reject,
                    samples_used: 2 * pairs,
                    stopped_early: true,
                };
            }
            if llr <= low {
                return SequentialOutcome {
                    verdict: Verdict::Accept,
                    samples_used: 2 * pairs,
                    stopped_early: true,
                };
            }
        }
        SequentialOutcome {
            verdict: Verdict::from_accept_bit(llr < 0.0),
            samples_used: 2 * pairs,
            stopped_early: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::families;
    use rand::SeedableRng;

    fn stats<S: Sampler>(
        tester: &SequentialUniformityTester,
        sampler: &S,
        trials: usize,
        seed: u64,
    ) -> (f64, f64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut accepts = 0usize;
        let mut samples = 0usize;
        for _ in 0..trials {
            let out = tester.run(sampler, &mut rng);
            if out.verdict.is_accept() {
                accepts += 1;
            }
            samples += out.samples_used;
        }
        (
            accepts as f64 / trials as f64,
            samples as f64 / trials as f64,
        )
    }

    #[test]
    fn two_sided_guarantee_holds() {
        let n = 256;
        let eps = 0.7;
        let tester = SequentialUniformityTester::with_default_errors(n, eps);
        let uniform = families::uniform(n).alias_sampler();
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        let (ok, _) = stats(&tester, &uniform, 150, 91);
        let (far_accept, _) = stats(&tester, &far, 150, 93);
        assert!(ok > 2.0 / 3.0, "acceptance under uniform = {ok}");
        assert!(
            far_accept < 1.0 / 3.0,
            "acceptance under far = {far_accept}"
        );
    }

    #[test]
    fn very_far_inputs_stop_much_earlier() {
        let n = 256;
        let tester = SequentialUniformityTester::with_default_errors(n, 0.5);
        let point = families::point_mass(n, 0).unwrap().alias_sampler();
        let uniform = families::uniform(n).alias_sampler();
        let (_, samples_point) = stats(&tester, &point, 60, 97);
        let (_, samples_uniform) = stats(&tester, &uniform, 60, 101);
        assert!(
            samples_point * 5.0 < samples_uniform,
            "point mass {samples_point} vs uniform {samples_uniform}"
        );
    }

    /// Wald's approximation of the expected pairs-to-decision under
    /// uniform: `E₀[N] ≈ ((1−α)·L + α·U) / E₀[step]`.
    fn wald_expected_pairs(tester: &SequentialUniformityTester) -> f64 {
        let (low, up) = tester.boundaries();
        let p0 = 1.0 / tester.n as f64;
        let p1 = (1.0 + tester.epsilon * tester.epsilon) / tester.n as f64;
        let step_hit = (p1 / p0).ln();
        let step_miss = ((1.0 - p1) / (1.0 - p0)).ln();
        let drift = p0 * step_hit + (1.0 - p0) * step_miss;
        ((1.0 - tester.alpha) * low + tester.alpha * up) / drift
    }

    #[test]
    fn wald_expectation_tracks_simulation() {
        let n = 128;
        let eps = 0.8;
        let tester = SequentialUniformityTester::with_default_errors(n, eps);
        let uniform = families::uniform(n).alias_sampler();
        let (_, mean_samples) = stats(&tester, &uniform, 400, 103);
        let predicted_pairs = wald_expected_pairs(&tester);
        let mean_pairs = mean_samples / 2.0;
        assert!(
            mean_pairs < 3.0 * predicted_pairs && mean_pairs > predicted_pairs / 3.0,
            "mean pairs {mean_pairs} vs Wald {predicted_pairs}"
        );
    }

    #[test]
    fn boundaries_ordered() {
        let tester = SequentialUniformityTester::new(64, 0.5, 0.1, 0.2, 1000);
        let (low, up) = tester.boundaries();
        assert!(low < 0.0 && up > 0.0);
    }

    #[test]
    fn budget_exhaustion_reports_not_early() {
        let tester = SequentialUniformityTester::new(1 << 14, 0.1, 0.3, 0.3, 3);
        let uniform = families::uniform(1 << 14).alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(107);
        let out = tester.run(&uniform, &mut rng);
        assert!(!out.stopped_early);
        assert_eq!(out.samples_used, 6);
    }

    #[test]
    #[should_panic(expected = "error targets")]
    fn rejects_bad_error_targets() {
        let _ = SequentialUniformityTester::new(16, 0.5, 0.6, 0.1, 10);
    }
}
