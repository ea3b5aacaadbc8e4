//! Goldreich's reduction: **uniformity testing is complete** for testing
//! identity to any fixed, fully-known distribution `η`.
//!
//! The paper leans on this fact to motivate uniformity as *the* problem
//! to study ("testing equality to any fixed distribution reduces to
//! it"). This module makes the reduction executable:
//!
//! 1. **Mix**: replace each sample by a uniform one with probability ½,
//!    turning the pair `(μ, η)` into `(μ', η') = ((μ+u)/2, (η+u)/2)`;
//!    now every reference mass is ≥ `1/(2n)` and ℓ₁ distances halve.
//! 2. **Grain**: approximate `η'` by a multiple-of-`1/M` distribution,
//!    giving element `i` a block of `m_i = ⌊η'_i · M⌋ ≥ 1` buckets.
//! 3. **Filter & expand**: map a sample `i` to a uniformly random bucket
//!    in its block with probability `p_i = m_i/(M·η'_i) ≤ 1`, and to `⊥`
//!    (retry) otherwise.
//!
//! If `μ = η`, the output conditioned on not-`⊥` is **exactly uniform**
//! over the `Σ m_i` buckets; if `μ` is ε-far from `η`, the output stays
//! `Ω(ε)`-far from uniform. Both facts are verified *exactly* in the
//! tests via the explicit pushforward.

use dut_probability::{DenseDistribution, DistributionError, Sampler};
use rand::Rng;

/// The executable identity→uniformity reduction for a fixed reference.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentityToUniformityReduction {
    reference: DenseDistribution,
    epsilon: f64,
    granularity: usize,
    block_sizes: Vec<usize>,
    block_offsets: Vec<usize>,
    keep_probs: Vec<f64>,
    output_size: usize,
}

impl IdentityToUniformityReduction {
    /// Builds the reduction for reference `reference` and proximity
    /// `epsilon`, using granularity `M = ⌈20·n/ε⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] if
    /// `epsilon ∉ (0, 1]`.
    pub fn new(reference: DenseDistribution, epsilon: f64) -> Result<Self, DistributionError> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(DistributionError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
            });
        }
        let n = reference.support_size();
        let granularity = dut_stats::convert::ceil_to_usize(20.0 * n as f64 / epsilon);
        let mixed: Vec<f64> = reference
            .probs()
            .iter()
            .map(|&p| 0.5 * p + 0.5 / n as f64)
            .collect();
        let block_sizes: Vec<usize> = mixed
            .iter()
            .map(|&p| dut_stats::convert::floor_to_usize(p * granularity as f64).max(1))
            .collect();
        let mut block_offsets = Vec::with_capacity(n);
        let mut acc = 0usize;
        for &m in &block_sizes {
            block_offsets.push(acc);
            acc += m;
        }
        let keep_probs: Vec<f64> = block_sizes
            .iter()
            .zip(&mixed)
            .map(|(&m, &p)| (m as f64 / granularity as f64 / p).min(1.0))
            .collect();
        Ok(Self {
            reference,
            epsilon,
            granularity,
            block_sizes,
            block_offsets,
            keep_probs,
            output_size: acc,
        })
    }

    /// The reference distribution `η`.
    #[must_use]
    pub fn reference(&self) -> &DenseDistribution {
        &self.reference
    }

    /// The output domain size `Σ m_i` (uniformity is tested over this).
    #[must_use]
    pub fn output_domain_size(&self) -> usize {
        self.output_size
    }

    /// The granularity `M`.
    #[must_use]
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Transforms one input sample; `None` is the filter's `⊥` (the
    /// caller should retry with a fresh input sample).
    ///
    /// # Panics
    ///
    /// Panics if `sample` is out of the reference domain.
    pub fn transform_sample<R: Rng + ?Sized>(&self, sample: usize, rng: &mut R) -> Option<usize> {
        assert!(
            sample < self.reference.support_size(),
            "sample {sample} out of domain"
        );
        // Step 1: mix with uniform.
        let i = if rng.random::<bool>() {
            sample
        } else {
            rng.random_range(0..self.reference.support_size())
        };
        // Step 3: filter...
        if rng.random::<f64>() >= self.keep_probs[i] {
            return None;
        }
        // ...and expand into the block.
        Some(self.block_offsets[i] + rng.random_range(0..self.block_sizes[i]))
    }

    /// Draws input samples from `sampler` until the filter emits an
    /// output sample (the expected number of retries is < 2).
    pub fn transform_stream<S, R>(&self, sampler: &S, rng: &mut R) -> usize
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        loop {
            if let Some(out) = self.transform_sample(sampler.sample(rng), rng) {
                return out;
            }
        }
    }

    /// The exact pushforward of an input distribution `μ` through the
    /// reduction: returns the conditional output distribution (given
    /// not-`⊥`) and the `⊥` probability.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is on a different domain than the reference.
    #[must_use]
    pub fn output_distribution(&self, mu: &DenseDistribution) -> (DenseDistribution, f64) {
        assert_eq!(
            mu.support_size(),
            self.reference.support_size(),
            "input must share the reference domain"
        );
        let n = mu.support_size();
        let mut weights = vec![0.0f64; self.output_size];
        let mut kept_mass = 0.0f64;
        for i in 0..n {
            let mixed = 0.5 * mu.prob(i) + 0.5 / n as f64;
            let kept = mixed * self.keep_probs[i];
            kept_mass += kept;
            let per_bucket = kept / self.block_sizes[i] as f64;
            for b in 0..self.block_sizes[i] {
                weights[self.block_offsets[i] + b] = per_bucket;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "kept mass is positive for any input distribution"
        )]
        let out = DenseDistribution::from_weights(weights)
            .expect("kept mass is positive for any input distribution");
        (out, 1.0 - kept_mass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::{distance, families};
    use rand::SeedableRng;

    #[test]
    fn matching_input_maps_exactly_to_uniform() {
        for reference in [
            families::zipf(32, 1.0).unwrap(),
            families::two_level(16, 0.6).unwrap(),
            families::uniform(8),
        ] {
            let reduction = IdentityToUniformityReduction::new(reference.clone(), 0.5).unwrap();
            let (out, bot) = reduction.output_distribution(&reference);
            let uniform = families::uniform(reduction.output_domain_size());
            let dist = distance::l1_distance(&out, &uniform);
            assert!(dist < 1e-9, "pushforward distance {dist}");
            assert!(bot < 0.2, "bot mass {bot}");
        }
    }

    #[test]
    fn far_input_stays_far_from_uniform() {
        let reference = families::zipf(32, 1.0).unwrap();
        let eps = 0.5;
        let reduction = IdentityToUniformityReduction::new(reference.clone(), eps).unwrap();
        // An input far from the reference: uniform itself.
        let mu = families::uniform(32);
        let input_dist = distance::l1_distance(&mu, &reference);
        assert!(input_dist > eps, "precondition: {input_dist}");
        let (out, _) = reduction.output_distribution(&mu);
        let uniform = families::uniform(reduction.output_domain_size());
        let out_dist = distance::l1_distance(&out, &uniform);
        assert!(
            out_dist > input_dist / 8.0,
            "output distance {out_dist} for input distance {input_dist}"
        );
    }

    #[test]
    fn sampled_stream_matches_exact_pushforward() {
        let reference = families::zipf(8, 0.8).unwrap();
        let reduction = IdentityToUniformityReduction::new(reference.clone(), 0.5).unwrap();
        let mu = families::two_level(8, 0.4).unwrap();
        let (exact, _) = reduction.output_distribution(&mu);
        let sampler = mu.alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(151);
        let trials = 60_000;
        let mut hist = dut_probability::Histogram::new(reduction.output_domain_size());
        for _ in 0..trials {
            hist.record(reduction.transform_stream(&sampler, &mut rng));
        }
        let empirical = hist.empirical_distribution().unwrap();
        let err = distance::l1_distance(&empirical, &exact);
        // Coarse agreement: the output domain is large so allow slack.
        let budget = 2.5 * (reduction.output_domain_size() as f64 / trials as f64).sqrt();
        assert!(
            err < budget,
            "empirical vs exact pushforward: {err} > {budget}"
        );
    }

    #[test]
    fn block_structure_is_consistent() {
        let reference = families::zipf(16, 1.2).unwrap();
        let reduction = IdentityToUniformityReduction::new(reference, 0.25).unwrap();
        assert!(reduction.output_domain_size() <= reduction.granularity());
        assert!(reduction.output_domain_size() >= 16); // every element gets >= 1 bucket
    }

    #[test]
    fn bot_probability_is_small() {
        let reference = families::zipf(64, 1.0).unwrap();
        let reduction = IdentityToUniformityReduction::new(reference.clone(), 0.5).unwrap();
        let (_, bot) = reduction.output_distribution(&reference);
        // Mass loss is at most ~n/M = eps/20.
        assert!(bot < 0.1, "bot = {bot}");
    }

    #[test]
    fn rejects_bad_epsilon() {
        let reference = families::uniform(4);
        assert!(IdentityToUniformityReduction::new(reference.clone(), 0.0).is_err());
        assert!(IdentityToUniformityReduction::new(reference, 1.5).is_err());
    }

    #[test]
    fn end_to_end_identity_testing_via_uniformity() {
        // Compose: reduction + centralized collision tester on the output.
        use crate::centralized::{CentralizedTester, CollisionTester};
        let reference = families::zipf(64, 1.0).unwrap();
        let eps = 0.6;
        let reduction = IdentityToUniformityReduction::new(reference.clone(), eps).unwrap();
        let m = reduction.output_domain_size();
        let tester = CollisionTester::new(m, eps / 8.0);
        let q = tester.recommended_sample_count().min(40_000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(157);

        let run = |dist: &DenseDistribution, rng: &mut rand::rngs::StdRng| {
            let sampler = dist.alias_sampler();
            let samples: Vec<usize> = (0..q)
                .map(|_| reduction.transform_stream(&sampler, rng))
                .collect();
            tester.test(&samples)
        };

        // Matching reference: accept (run a few trials, take majority).
        let accepts = (0..5)
            .filter(|_| run(&reference, &mut rng).is_accept())
            .count();
        assert!(accepts >= 4, "identity accepted only {accepts}/5");

        // Far input (uniform is far from this zipf): reject.
        let mu = families::uniform(64);
        let rejects = (0..5).filter(|_| run(&mu, &mut rng).is_reject()).count();
        assert!(rejects >= 4, "far input rejected only {rejects}/5");
    }
}
