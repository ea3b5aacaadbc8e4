use dut_fourier::character::chi;
use dut_fourier::transform::walsh_hadamard;
use dut_probability::{DenseDistribution, Sampler};
use dut_stats::seed::derive_seed;
use rand::Rng;

/// A distributed learner for the unknown input distribution — the task of
/// Theorem 1.4, which shows any `q`-query protocol computing a
/// `δ`-approximation needs `k = Ω(n²/q²)` nodes.
///
/// The protocol (a many-query generalization of the simulate-and-infer
/// schemes of \[1\]): the domain size is a power of two `n = 2^b` and
/// shared randomness assigns node `j` a non-zero character `a_j`. The
/// node computes the empirical character mean
/// `v_j = (1/q)·Σ_i χ_{a_j}(sample_i)` and sends it quantized to
/// `message_bits` bits. The referee averages the estimates per
/// character, inverts the Walsh–Hadamard transform, clips negatives and
/// renormalizes.
///
/// Each character estimate has variance `Θ(1/(g·q))` with `g = k/(n−1)`
/// nodes per character, so the ℓ₁ error scales like
/// `√(n²/(k·q))` — the experiments measure this surface and compare its
/// shape against the paper's `k = Ω(n²/q²)` floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FourierLearner {
    n: usize,
    k: usize,
    q: usize,
    message_bits: u8,
}

impl FourierLearner {
    /// Creates a learner for domain size `n` (a power of two ≥ 2), `k`
    /// nodes, `q` samples per node, and `message_bits`-bit messages.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two ≥ 2, `k ≥ 1`, `q ≥ 1`, and
    /// `2 ≤ message_bits ≤ 16`.
    #[must_use]
    pub fn new(n: usize, k: usize, q: usize, message_bits: u8) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "domain size must be a power of two"
        );
        assert!(k >= 1, "need at least one node");
        assert!(q >= 1, "need at least one sample per node");
        assert!(
            (2..=16).contains(&message_bits),
            "message length must be 2..=16 bits"
        );
        Self {
            n,
            k,
            q,
            message_bits,
        }
    }

    /// The character assigned to node `j` under the given shared seed:
    /// a pseudorandom non-zero element of the dual group.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "characters are u32 bitmasks, so the offset is below the u32-sized dual group"
    )]
    pub fn assigned_character(&self, shared_seed: u64, node: usize) -> u32 {
        let offset = derive_seed(shared_seed, node as u64) % (self.n as u64 - 1).max(1);
        1 + u32::try_from(offset).expect("character index is below the u32-sized dual group")
    }

    /// Quantizes `v ∈ [-1, 1]` to the message alphabet.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "t is clamped to [0, levels] and levels is a u32"
    )]
    pub fn quantize(&self, v: f64) -> u32 {
        let levels = (1u32 << self.message_bits) - 1;
        let t = (v.clamp(-1.0, 1.0) + 1.0) / 2.0 * f64::from(levels);
        u32::try_from(dut_stats::convert::round_to_usize(t))
            .expect("quantized level is bounded by the u32 alphabet")
    }

    /// Dequantizes a message back to `[-1, 1]`.
    #[must_use]
    pub fn dequantize(&self, m: u32) -> f64 {
        let levels = (1u32 << self.message_bits) - 1;
        f64::from(m.min(levels)) / f64::from(levels) * 2.0 - 1.0
    }

    /// Runs the protocol once and returns the referee's estimate of the
    /// input distribution.
    ///
    /// Unlike the testers, it runs its nodes outside
    /// [`Network::run_nodes`](dut_simnet::Network::run_nodes) and
    /// [`Network::run_until_settled`](dut_simnet::Network::run_until_settled): their
    /// referees return a verdict, and this referee returns a
    /// distribution, so its runs are not counted in the metrics
    /// registry.
    #[expect(
        clippy::expect_used,
        reason = "reconstruction always keeps positive total mass: the empty character's coefficient is 1"
    )]
    pub fn learn<S, R>(&self, sampler: &S, rng: &mut R) -> DenseDistribution
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        let shared_seed: u64 = rng.random();
        // Character-indexed accumulators of dequantized node estimates.
        let mut sums = vec![0.0f64; self.n];
        let mut counts = vec![0u32; self.n];
        for node in 0..self.k {
            let a = self.assigned_character(shared_seed, node);
            let mut acc = 0.0f64;
            for _ in 0..self.q {
                #[expect(
                    clippy::expect_used,
                    reason = "the learner's domain is indexed by u32 characters, so every sample fits a u32"
                )]
                let sample = u32::try_from(sampler.sample(rng)).expect("domain element fits a u32");
                acc += f64::from(chi(a, sample));
            }
            let v = acc / self.q as f64;
            let decoded = self.dequantize(self.quantize(v));
            sums[a as usize] += decoded;
            counts[a as usize] += 1;
        }
        // Referee reconstruction: table of character-mean estimates;
        // the empty character of any distribution is exactly 1.
        let mut table = vec![0.0f64; self.n];
        table[0] = 1.0;
        for a in 1..self.n {
            if counts[a] > 0 {
                table[a] = sums[a] / f64::from(counts[a]);
            }
        }
        walsh_hadamard(&mut table);
        let scale = 1.0 / self.n as f64;
        let weights: Vec<f64> = table.iter().map(|v| (v * scale).max(0.0)).collect();
        DenseDistribution::from_weights(weights)
            .expect("reconstruction always keeps positive total mass")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::{distance, families};
    use rand::SeedableRng;

    fn mean_l1_error(
        learner: &FourierLearner,
        dist: &DenseDistribution,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let sampler = dist.alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..trials)
            .map(|_| distance::l1_distance(&learner.learn(&sampler, &mut rng), dist))
            .sum::<f64>()
            / trials as f64
    }

    #[test]
    fn quantization_roundtrip_accuracy() {
        let learner = FourierLearner::new(16, 8, 4, 8);
        for i in 0..=20 {
            let v = -1.0 + f64::from(i) / 10.0;
            let err = (learner.dequantize(learner.quantize(v)) - v).abs();
            assert!(err < 0.01, "v={v} err={err}");
        }
    }

    #[test]
    fn dequantize_clamps_oversized_codes() {
        let learner = FourierLearner::new(16, 8, 4, 2);
        assert_eq!(learner.dequantize(u32::MAX), 1.0);
    }

    #[test]
    fn assigned_characters_are_nonzero_and_deterministic() {
        let learner = FourierLearner::new(64, 100, 2, 8);
        for node in 0..100 {
            let a = learner.assigned_character(7, node);
            assert!((1..64).contains(&a));
            assert_eq!(a, learner.assigned_character(7, node));
        }
    }

    #[test]
    fn learns_uniform_accurately() {
        let n = 16;
        let learner = FourierLearner::new(n, 600, 16, 8);
        let err = mean_l1_error(&learner, &families::uniform(n), 10, 121);
        assert!(err < 0.35, "l1 error on uniform = {err}");
    }

    #[test]
    fn learns_skewed_distribution() {
        let n = 16;
        let skew = families::two_level(n, 0.8).unwrap();
        let learner = FourierLearner::new(n, 1200, 16, 8);
        let err = mean_l1_error(&learner, &skew, 10, 127);
        assert!(err < 0.4, "l1 error on two-level = {err}");
    }

    #[test]
    fn error_decreases_with_more_nodes() {
        let n = 32;
        let dist = families::zipf(n, 0.8).unwrap();
        let few = mean_l1_error(&FourierLearner::new(n, 200, 8, 8), &dist, 8, 131);
        let many = mean_l1_error(&FourierLearner::new(n, 3200, 8, 8), &dist, 8, 133);
        assert!(many < few, "few-node error {few} vs many-node error {many}");
    }

    #[test]
    fn error_decreases_with_more_samples() {
        let n = 32;
        let dist = families::zipf(n, 0.8).unwrap();
        let few = mean_l1_error(&FourierLearner::new(n, 800, 2, 8), &dist, 8, 137);
        let many = mean_l1_error(&FourierLearner::new(n, 800, 32, 8), &dist, 8, 139);
        assert!(
            many < few,
            "few-sample error {few} vs many-sample error {many}"
        );
    }

    #[test]
    fn output_is_a_valid_distribution() {
        let learner = FourierLearner::new(8, 20, 2, 4);
        let sampler = families::uniform(8).alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(141);
        let est = learner.learn(&sampler, &mut rng);
        assert_eq!(est.support_size(), 8);
        let sum: f64 = est.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_domain() {
        let _ = FourierLearner::new(12, 4, 2, 4);
    }
}
