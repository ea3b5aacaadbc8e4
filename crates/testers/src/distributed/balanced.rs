use super::prepared::{lambda_uniform, PreparedThresholdTester};
use dut_probability::{DenseDistribution, SampleBackend, Sampler, UniformSampler};
use rand::Rng;

/// The sample-optimal threshold protocol of \[7\], matching Theorem 1.1:
/// `O(√(n/k)/ε²)` samples per node.
///
/// Every node computes its local collision count and sends one bit —
/// reject iff the count exceeds the **midpoint** threshold
/// `λ₀·(1 + ε²/2)` with `λ₀ = C(q,2)/n` (the same threshold the
/// centralized collision tester uses, so a `k = 1` network degenerates
/// to the centralized tester). In the distributed regime each bit is a
/// weak signal (per-node advantage `≈ ε²·√λ₀` once `λ₀ ≲ 1`), but the
/// referee aggregates `k` of them: it rejects when the number of
/// rejecting nodes exceeds a threshold calibrated under the (known)
/// uniform distribution. The √k averaging is what the AND rule cannot
/// do, and is exactly the gap Theorems 1.1 vs 1.2 quantify.
///
/// Use [`BalancedThresholdTester::prepare`] to calibrate the referee for
/// a specific per-node sample count `q`, then run the returned
/// [`PreparedThresholdTester`] many times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancedThresholdTester {
    n: usize,
    k: usize,
    epsilon: f64,
}

impl BalancedThresholdTester {
    /// Creates the protocol for domain size `n`, `k` nodes and
    /// proximity `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k == 0`, or `epsilon ∉ (0, 1]`.
    #[must_use]
    pub fn new(n: usize, k: usize, epsilon: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(k > 0, "need at least one node");
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        Self { n, k, epsilon }
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

    /// The configured proximity parameter.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The paper-predicted sufficient per-node sample count,
    /// `c·√(n/k)/ε²` (Theorem 1.1 shows this is also necessary).
    #[must_use]
    pub fn predicted_sample_count(&self) -> usize {
        let q = 6.0 * (self.n as f64 / self.k as f64).sqrt() / (self.epsilon * self.epsilon);
        dut_stats::convert::ceil_to_usize(q).max(2)
    }

    /// The Monte-Carlo budget that the `dut-core` facade (behind
    /// `dut test` and the served testers) and E1–E3 pass to
    /// [`Self::prepare`].
    pub const CALIBRATION_TRIALS: usize = 800;

    /// Calibrates the referee threshold for `q` samples per node by
    /// simulating `calibration_trials` single nodes under the uniform
    /// distribution.
    ///
    /// The referee rejects when the rejection count reaches
    /// `k·p̂₀ + z·√(k·p̂₀(1−p̂₀)) + 1` with `z = 1.3`, giving a
    /// false-positive rate ≈ `Φ(−z) ≈ 0.10 < 1/3` with margin for the
    /// calibration error in `p̂₀`.
    ///
    /// # Panics
    ///
    /// Panics if `calibration_trials == 0`.
    pub fn prepare<R: Rng + ?Sized>(
        &self,
        q: usize,
        calibration_trials: usize,
        rng: &mut R,
    ) -> PreparedThresholdTester {
        self.prepare_with_backend(q, calibration_trials, SampleBackend::Auto, rng)
    }

    /// [`Self::prepare`], with the Monte-Carlo calibration draws
    /// realized by the chosen [`SampleBackend`] (`Auto`, the
    /// [`Self::prepare`] default, resolves through the cost model).
    /// Both backends produce Multinomial(q, uniform)-distributed
    /// counts, so the calibrated thresholds are drawn from the same
    /// law; the backend only changes how long the trials take.
    ///
    /// The node threshold is stored as the integer
    /// `⌊λ₀·(1 + ε²/2)⌋`: for an integer count `c`, `c ≤ x` holds
    /// exactly when `c ≤ ⌊x⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `calibration_trials == 0`.
    pub fn prepare_with_backend<R: Rng + ?Sized>(
        &self,
        q: usize,
        calibration_trials: usize,
        backend: SampleBackend,
        rng: &mut R,
    ) -> PreparedThresholdTester {
        assert!(calibration_trials > 0, "need calibration trials");
        let backend = backend.resolve(self.n, q as u64);
        let midpoint = lambda_uniform(self.n, q) * (1.0 + self.epsilon * self.epsilon / 2.0);
        let node_max_count = dut_stats::convert::floor_to_usize(midpoint) as u64;
        let mut rejects = 0usize;
        match backend {
            SampleBackend::Auto => unreachable!("resolve() returns a concrete engine"),
            SampleBackend::PerDraw => {
                let uniform = UniformSampler::new(self.n);
                for _ in 0..calibration_trials {
                    if uniform.collision_count(q, rng) > node_max_count {
                        rejects += 1;
                    }
                }
            }
            SampleBackend::Histogram => {
                let uniform = DenseDistribution::uniform(self.n).histogram_sampler();
                let mut walk = uniform.collision_walk(q as u64);
                for _ in 0..calibration_trials {
                    if walk.collision_count(rng) > node_max_count {
                        rejects += 1;
                    }
                }
            }
        }
        let p_uniform = rejects as f64 / calibration_trials as f64;
        let z = 1.3;
        let mean = self.k as f64 * p_uniform;
        let sd = (self.k as f64 * p_uniform * (1.0 - p_uniform)).sqrt();
        let referee_min_rejects =
            (dut_stats::convert::floor_to_usize(mean + z * sd) + 1).min(self.k);
        PreparedThresholdTester::new(self.k, q, node_max_count, referee_min_rejects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::families;
    use rand::{RngCore, SeedableRng};

    fn acceptance_rate<S: Sampler>(
        prepared: &PreparedThresholdTester,
        sampler: &S,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let accepts = (0..trials)
            .filter(|_| prepared.run(sampler, &mut rng).verdict.is_accept())
            .count();
        accepts as f64 / trials as f64
    }

    #[test]
    fn predicted_sample_count_scales() {
        let t = BalancedThresholdTester::new(1 << 12, 16, 0.5);
        let q16 = t.predicted_sample_count();
        let q64 = BalancedThresholdTester::new(1 << 12, 64, 0.5).predicted_sample_count();
        // 4x nodes -> half the samples.
        assert!((q16 as f64 / q64 as f64 - 2.0).abs() < 0.2);
    }

    #[test]
    fn accepts_uniform_after_calibration() {
        let n = 1 << 10;
        let k = 32;
        let tester = BalancedThresholdTester::new(n, k, 0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let q = tester.predicted_sample_count();
        let prepared = tester.prepare(q, 2000, &mut rng);
        let uniform = families::uniform(n).alias_sampler();
        let rate = acceptance_rate(&prepared, &uniform, 150, 83);
        assert!(rate > 2.0 / 3.0, "acceptance under uniform = {rate}");
    }

    #[test]
    fn rejects_far_after_calibration() {
        let n = 1 << 10;
        let k = 32;
        let eps = 0.5;
        let tester = BalancedThresholdTester::new(n, k, eps);
        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        let q = tester.predicted_sample_count();
        let prepared = tester.prepare(q, 2000, &mut rng);
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        let rate = acceptance_rate(&prepared, &far, 150, 97);
        assert!(rate < 1.0 / 3.0, "acceptance under far = {rate}");
    }

    #[test]
    fn beats_and_rule_at_same_q() {
        // At q = predicted (balanced) budget, the AND tester's node
        // thresholds are so high it cannot detect anything: it accepts
        // the far instance, while the balanced tester rejects it.
        let n = 1 << 10;
        let k = 64;
        let eps = 0.5;
        let balanced = BalancedThresholdTester::new(n, k, eps);
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let q = balanced.predicted_sample_count();
        let prepared = balanced.prepare(q, 2000, &mut rng);
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        let balanced_rate = acceptance_rate(&prepared, &far, 100, 103);

        let and_rule = crate::TThresholdTester::new(n, k, 1).prepare(q);
        let and_accepts = acceptance_rate(&and_rule, &far, 100, 105);
        assert!(
            balanced_rate < and_accepts,
            "balanced acceptance {balanced_rate} should be below AND acceptance {and_accepts}"
        );
    }

    #[test]
    fn referee_threshold_within_range() {
        let tester = BalancedThresholdTester::new(256, 16, 0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(107);
        let prepared = tester.prepare(20, 500, &mut rng);
        assert!(prepared.referee_min_rejects() >= 1);
        assert!(prepared.referee_min_rejects() <= 16);
        let uniform = families::uniform(256).alias_sampler();
        let out = prepared.run(&uniform, &mut rand::rngs::StdRng::seed_from_u64(109));
        assert_eq!(out.transcript.samples_drawn, vec![20; 16]);
        // n = q = 17, ε = 0.5: λ₀ = 8 and λ₀·(1 + ε²/2) = 9 exactly. A
        // count equal to the integral midpoint accepts; one more rejects.
        let edge = BalancedThresholdTester::new(17, 4, 0.5).prepare(17, 10, &mut rng);
        assert_eq!(edge.node_max_count(), 9);
        assert!(edge.node_accepts(9));
        assert!(!edge.node_accepts(10));
    }

    #[test]
    fn histogram_calibrations_are_pinned() {
        // Recorded before calibration switched from `draw(..)
        // .collision_count()` to the histogram sampler's collision walk:
        // (n, k, q) -> (node_max_count, referee_min_rejects, the
        // generator's next word after 800 nodes). The first row is the
        // serve set-up key (n = 64, k = 8, q = 8) under its calibration
        // seed, on the engine `Auto` resolves to; the others force the
        // histogram engine with and without the walk's cutoff table
        // (at most 2¹² entries, q·n), with and without its `exp`
        // branch (m >= 128).
        let seed = 0xccbc_df03_507f_a56a;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let setup = BalancedThresholdTester::new(64, 8, 0.5).prepare(8, 800, &mut rng);
        assert_eq!(SampleBackend::Auto.resolve(64, 8), SampleBackend::Histogram);
        assert_eq!(
            (
                setup.node_max_count(),
                setup.referee_min_rejects(),
                rng.next_u64()
            ),
            (0, 5, 0x229a_6dfe_5157_4a14)
        );
        for ((n, k, q), pinned) in [
            ((256, 32, 32), (2, 13, 0x8c87_ec7f_3b0b_67ee)),
            ((100, 4, 20), (2, 3, 0x7a55_ae05_bacd_cdbd)),
            ((1000, 8, 1000), (561, 1, 0x7e9c_fdea_92d3_f478)),
            ((256, 8, 128), (35, 4, 0x85ba_f790_0e36_c0e5)),
            ((32, 4, 128), (285, 1, 0xe626_4e83_0db0_8bbb)),
            ((256, 16, 16), (0, 8, 0x27a8_17f4_cb01_95b1)),
            ((64, 8, 64), (35, 4, 0x4eca_351b_0d10_4885)),
        ] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = BalancedThresholdTester::new(n, k, 0.5).prepare_with_backend(
                q,
                800,
                SampleBackend::Histogram,
                &mut rng,
            );
            assert_eq!(
                (p.node_max_count(), p.referee_min_rejects(), rng.next_u64()),
                pinned,
                "n={n} k={k} q={q}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "calibration trials")]
    fn zero_calibration_panics() {
        let tester = BalancedThresholdTester::new(16, 2, 0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let _ = tester.prepare(4, 0, &mut rng);
    }
}
