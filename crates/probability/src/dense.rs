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
    pub fn new(probs: Vec<f64>) -> Result<Self, DistributionError> {
        if probs.is_empty() {
            return Err(DistributionError::EmptySupport);
        }
        for (index, &value) in probs.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(DistributionError::InvalidMass { index, value });
            }
        }
        let sum: f64 = probs.iter().sum();
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
