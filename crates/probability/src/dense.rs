use crate::error::DistributionError;
use crate::occupancy::HistogramSampler;
use crate::sampler::{AliasSampler, CdfSampler};
use crate::NORMALIZATION_TOLERANCE;

/// A discrete probability distribution on the domain `{0, .., n-1}`,
/// stored as a dense probability vector.
///
/// Construction validates that every entry is a finite non-negative number
/// and that the entries sum to one within [`NORMALIZATION_TOLERANCE`].
///
/// # Example
///
/// ```
/// use dut_probability::DenseDistribution;
///
/// # fn main() -> Result<(), dut_probability::DistributionError> {
/// let d = DenseDistribution::new(vec![0.5, 0.25, 0.25])?;
/// assert_eq!(d.support_size(), 3);
/// assert_eq!(d.prob(0), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseDistribution {
    probs: Vec<f64>,
}

impl DenseDistribution {
    /// Creates a distribution from an explicit probability vector.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::EmptySupport`] for an empty vector,
    /// [`DistributionError::InvalidMass`] if any entry is negative, NaN or
    /// infinite, and [`DistributionError::NotNormalized`] if the entries do
    /// not sum to one within tolerance.
    ///
    /// One pass checks every entry and sums them into eight independent
    /// lanes, `p[i]` into lane `i mod 8`, which are then added pairwise;
    /// an invalid entry is located by a second scan, so the error names
    /// the first one. The sum is only compared with the tolerance (and
    /// reported in `NotNormalized`), never stored, so its order is free.
    /// It rounds differently from the sequential sum, but each stays
    /// within about `n · 2⁻⁵³` of the exact sum, so the two orders can
    /// only disagree on a vector whose sum lies within that rounding
    /// error of `1 ± NORMALIZATION_TOLERANCE`. On `two_level` and
    /// `alternating` up to `n = 2²⁰` they differ by at most 1.6 · 10⁻¹¹,
    /// sixty times below the tolerance.
    pub fn new(probs: Vec<f64>) -> Result<Self, DistributionError> {
        if probs.is_empty() {
            return Err(DistributionError::EmptySupport);
        }
        let valid = |p: f64| (0.0..=f64::MAX).contains(&p);
        let mut all_valid = true;
        let mut lanes = [0.0f64; 8];
        let chunks = probs.chunks_exact(8);
        let rest = chunks.remainder();
        for chunk in chunks {
            for (lane, &p) in lanes.iter_mut().zip(chunk) {
                all_valid &= valid(p);
                *lane += p;
            }
        }
        for (lane, &p) in lanes.iter_mut().zip(rest) {
            all_valid &= valid(p);
            *lane += p;
        }
        if !all_valid {
            if let Some((index, &value)) = probs.iter().enumerate().find(|&(_, &p)| !valid(p)) {
                return Err(DistributionError::InvalidMass { index, value });
            }
        }
        let [a, b, c, d, e, f, g, h] = lanes;
        let sum = ((a + b) + (c + d)) + ((e + f) + (g + h));
        if (sum - 1.0).abs() > NORMALIZATION_TOLERANCE {
            return Err(DistributionError::NotNormalized { sum });
        }
        Ok(Self { probs })
    }

    /// Creates a distribution by normalizing a vector of non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, any weight is invalid, or all
    /// weights are zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, DistributionError> {
        if weights.is_empty() {
            return Err(DistributionError::EmptySupport);
        }
        for (index, &value) in weights.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(DistributionError::InvalidMass { index, value });
            }
        }
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 {
            return Err(DistributionError::NotNormalized { sum });
        }
        let probs = weights.into_iter().map(|w| w / sum).collect();
        Ok(Self { probs })
    }

    /// The uniform distribution on `{0, .., n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "uniform distribution needs a non-empty domain");
        Self {
            probs: vec![1.0 / n as f64; n],
        }
    }

    /// Number of elements in the domain.
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.probs.len()
    }

    /// Probability of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// The probability vector as a slice.
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterates over `(element, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.probs.iter().copied().enumerate()
    }

    /// The squared ℓ₂ norm `Σ p_i²`, which equals the collision
    /// probability of two independent samples.
    ///
    /// For the uniform distribution this is `1/n`; for a distribution at ℓ₁
    /// distance `ε` from uniform it is at least `(1 + ε²)/n`.
    #[must_use]
    pub fn collision_probability(&self) -> f64 {
        self.probs.iter().map(|p| p * p).sum()
    }

    /// Builds an [`AliasSampler`] (O(1) per sample after O(n) setup).
    #[must_use]
    pub fn alias_sampler(&self) -> AliasSampler {
        AliasSampler::new(self)
    }

    /// Builds a [`CdfSampler`] (O(log n) per sample).
    #[must_use]
    pub fn cdf_sampler(&self) -> CdfSampler {
        CdfSampler::new(self)
    }

    /// Builds a [`HistogramSampler`] (O(n + q) per `q`-sample histogram).
    #[must_use]
    pub fn histogram_sampler(&self) -> HistogramSampler {
        HistogramSampler::new(self)
    }
}

impl AsRef<[f64]> for DenseDistribution {
    fn as_ref(&self) -> &[f64] {
        &self.probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid_vector() {
        let d = DenseDistribution::new(vec![0.25; 4]).unwrap();
        assert_eq!(d.support_size(), 4);
        assert!((d.prob(2) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(
            DenseDistribution::new(vec![]).unwrap_err(),
            DistributionError::EmptySupport
        );
    }

    #[test]
    fn new_rejects_negative_mass() {
        let err = DenseDistribution::new(vec![0.5, -0.1, 0.6]).unwrap_err();
        assert!(matches!(
            err,
            DistributionError::InvalidMass { index: 1, .. }
        ));
    }

    #[test]
    fn new_rejects_nan() {
        let err = DenseDistribution::new(vec![0.5, f64::NAN, 0.5]).unwrap_err();
        assert!(matches!(
            err,
            DistributionError::InvalidMass { index: 1, .. }
        ));
    }

    #[test]
    fn new_rejects_unnormalized() {
        let err = DenseDistribution::new(vec![0.5, 0.6]).unwrap_err();
        assert!(matches!(err, DistributionError::NotNormalized { .. }));
    }

    #[test]
    fn invalid_entries_report_their_own_index() {
        // 21 entries: lanes take 0..16 in two chunks of eight, and 16..21
        // are the remainder.
        let bad_values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-300, -0.5];
        for value in bad_values {
            for index in [0, 3, 7, 8, 12, 15, 16, 18, 20] {
                let mut probs = vec![1.0 / 21.0; 21];
                probs[index] = value;
                match DenseDistribution::new(probs).unwrap_err() {
                    DistributionError::InvalidMass {
                        index: got,
                        value: v,
                    } => {
                        assert_eq!(got, index, "{value} at {index}");
                        assert_eq!(v.to_bits(), value.to_bits(), "{value} at {index}");
                    }
                    other => panic!("{value} at {index}: {other:?}"),
                }
            }
        }
        // With two bad entries, the first is named, wherever each lies.
        for (first, second) in [(3, 12), (12, 18), (2, 19), (17, 20)] {
            let mut probs = vec![1.0 / 21.0; 21];
            probs[second] = f64::NAN;
            probs[first] = -1.0;
            assert!(matches!(
                DenseDistribution::new(probs).unwrap_err(),
                DistributionError::InvalidMass { index, .. } if index == first
            ));
        }
        // Negative zero is a valid mass of zero.
        assert!(DenseDistribution::new(vec![-0.0, 1.0]).is_ok());
    }

    #[test]
    fn sums_off_by_twice_the_tolerance_are_rejected() {
        for n in [1usize, 7, 8, 21, 1024, 4099] {
            for (offset, accepted) in [(2e-9, false), (-2e-9, false), (5e-10, true), (-5e-10, true)]
            {
                let mut probs = vec![1.0 / n as f64; n];
                probs[n / 2] += offset;
                assert_eq!(
                    DenseDistribution::new(probs).is_ok(),
                    accepted,
                    "n {n}, offset {offset:e}"
                );
            }
        }
    }

    #[test]
    fn lane_sum_accepts_the_far_families_at_a_million_columns() {
        let n = 1 << 20;
        for eps in [0.0, 0.1, 0.25, 0.35, 0.5, 0.7, 1.0] {
            crate::families::two_level(n, eps).unwrap();
            crate::families::alternating(n, eps).unwrap();
        }
    }

    #[test]
    fn from_weights_normalizes() {
        let d = DenseDistribution::from_weights(vec![1.0, 3.0]).unwrap();
        assert!((d.prob(0) - 0.25).abs() < 1e-15);
        assert!((d.prob(1) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn from_weights_rejects_all_zero() {
        let err = DenseDistribution::from_weights(vec![0.0, 0.0]).unwrap_err();
        assert!(matches!(err, DistributionError::NotNormalized { .. }));
    }

    #[test]
    fn uniform_collision_probability_is_one_over_n() {
        let d = DenseDistribution::uniform(64);
        assert!((d.collision_probability() - 1.0 / 64.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "non-empty domain")]
    fn uniform_zero_panics() {
        let _ = DenseDistribution::uniform(0);
    }
}
