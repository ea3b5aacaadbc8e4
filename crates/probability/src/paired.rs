//! The paper's hard-instance family (Section 3).
//!
//! The universe is `n = 2^{ℓ+1}`, viewed as two copies of the Boolean cube
//! `{-1,1}^ℓ`: elements are pairs `(x, s)` with `x ∈ {-1,1}^ℓ` and
//! `s ∈ {-1,+1}`. A perturbation vector `z : {-1,1}^ℓ → {-1,1}` defines
//! the distribution
//!
//! ```text
//! ν_z(x, s) = (1 + s · z(x) · ε) / n
//! ```
//!
//! which is exactly ε-far from uniform in ℓ₁ distance, while the mixture
//! `E_z[ν_z]` over random `z` is exactly uniform — the property the lower
//! bound exploits.
//!
//! Cube points `x` are encoded as bitmasks `u32` where bit `i = 1` means
//! `x_i = -1` (so `x_i = (-1)^{bit_i}`), and the full universe element
//! `(x, s)` is encoded as the index `2·x + (s == -1)`.

use crate::dense::DenseDistribution;
use crate::error::DistributionError;
use rand::Rng;

/// The paired domain `{-1,1}^ℓ × {-1,+1}` of size `n = 2^{ℓ+1}`.
///
/// # Example
///
/// ```
/// use dut_probability::PairedDomain;
///
/// let dom = PairedDomain::new(3);
/// assert_eq!(dom.universe_size(), 16);
/// let idx = dom.encode(0b101, -1);
/// let (x, s) = dom.decode(idx);
/// assert_eq!((x, s), (0b101, -1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairedDomain {
    ell: u32,
}

impl PairedDomain {
    /// Maximum supported cube dimension (bitmask representation).
    pub const MAX_ELL: u32 = 24;

    /// Creates the domain with cube dimension `ell`, universe size `2^{ell+1}`.
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0` or `ell > Self::MAX_ELL`.
    #[must_use]
    pub fn new(ell: u32) -> Self {
        assert!(
            (1..=Self::MAX_ELL).contains(&ell),
            "cube dimension must be in 1..={}, got {ell}",
            Self::MAX_ELL
        );
        Self { ell }
    }

    /// The cube dimension ℓ.
    #[must_use]
    pub fn ell(&self) -> u32 {
        self.ell
    }

    /// Number of cube vertices, `2^ℓ`.
    #[must_use]
    pub fn cube_size(&self) -> usize {
        1usize << self.ell
    }

    /// Universe size `n = 2^{ℓ+1}`.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        1usize << (self.ell + 1)
    }

    /// Encodes `(x, s)` as a universe index in `{0, .., n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has bits above position `ℓ`, or `s ∉ {−1, +1}`.
    #[must_use]
    pub fn encode(&self, x: u32, s: i8) -> usize {
        assert!(
            (x as usize) < self.cube_size(),
            "cube point {x} out of range for ell={}",
            self.ell
        );
        assert!(s == 1 || s == -1, "sign must be +1 or -1, got {s}");
        2 * x as usize + usize::from(s == -1)
    }

    /// Decodes a universe index into `(x, s)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn decode(&self, index: usize) -> (u32, i8) {
        assert!(index < self.universe_size(), "index {index} out of range");
        #[expect(
            clippy::expect_used,
            reason = "the asserted index < universe_size = 2^(ℓ+1) with ℓ ≤ MAX_ELL keeps index / 2 a u32 cube point"
        )]
        let x = u32::try_from(index / 2).expect("universe index fits a u32 cube point");
        let s = if index.is_multiple_of(2) { 1 } else { -1 };
        (x, s)
    }

    /// Builds the distribution `ν_z` for perturbation `z` and proximity `ε`.
    ///
    /// # Errors
    ///
    /// Returns an error if `z` has the wrong length or `ε ∉ [0, 1]`.
    pub fn perturbed_distribution(
        &self,
        z: &PerturbationVector,
        epsilon: f64,
    ) -> Result<DenseDistribution, DistributionError> {
        if z.len() != self.cube_size() {
            return Err(DistributionError::DomainMismatch {
                left: z.len(),
                right: self.cube_size(),
            });
        }
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(DistributionError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
            });
        }
        let n = self.universe_size() as f64;
        let probs = (0..self.universe_size())
            .map(|idx| {
                let (x, s) = self.decode(idx);
                (1.0 + f64::from(s) * f64::from(z.sign(x)) * epsilon) / n
            })
            .collect();
        DenseDistribution::new(probs)
    }

    /// The uniform distribution on this universe.
    #[must_use]
    pub fn uniform(&self) -> DenseDistribution {
        DenseDistribution::uniform(self.universe_size())
    }
}

/// A perturbation vector `z : {-1,1}^ℓ → {-1,1}`, stored as one bit per
/// cube vertex (`bit = 1` means `z(x) = -1`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PerturbationVector {
    bits: Vec<u64>,
    len: usize,
}

impl PerturbationVector {
    /// The all-`+1` vector on `len` cube vertices.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn all_plus(len: usize) -> Self {
        assert!(len > 0, "perturbation vector must be non-empty");
        Self {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A uniformly random vector on `len` cube vertices.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut v = Self::all_plus(len);
        for w in &mut v.bits {
            *w = rng.random();
        }
        // Clear bits beyond `len` so Eq/Hash are canonical.
        let extra = v.bits.len() * 64 - len;
        if extra > 0 {
            let last = v.bits.len() - 1;
            v.bits[last] &= u64::MAX >> extra;
        }
        v
    }

    /// Builds the vector indexed by an integer: bit `i` of `code` gives the
    /// sign of vertex `i` (`1` ↦ `-1`). Useful for exhaustively enumerating
    /// all `2^{2^ℓ}` vectors when `2^ℓ ≤ 64`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `len > 64`.
    #[must_use]
    pub fn from_code(len: usize, code: u64) -> Self {
        assert!(
            len > 0 && len <= 64,
            "code-indexed vectors need len in 1..=64"
        );
        let mask = if len == 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        };
        Self {
            bits: vec![code & mask],
            len,
        }
    }

    /// Number of cube vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (the constructor enforces non-emptiness); provided for
    /// API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sign `z(x) ∈ {-1, +1}` of cube vertex `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    #[must_use]
    pub fn sign(&self, x: u32) -> i8 {
        let i = x as usize;
        assert!(i < self.len, "vertex {x} out of range");
        if (self.bits[i / 64] >> (i % 64)) & 1 == 1 {
            -1
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l1_distance;
    use rand::SeedableRng;

    #[test]
    fn encode_decode_roundtrip() {
        let dom = PairedDomain::new(4);
        for idx in 0..dom.universe_size() {
            let (x, s) = dom.decode(idx);
            assert_eq!(dom.encode(x, s), idx);
        }
    }

    #[test]
    fn perturbed_distribution_is_exactly_epsilon_far() {
        let dom = PairedDomain::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for &eps in &[0.1, 0.3, 0.9] {
            let z = PerturbationVector::random(dom.cube_size(), &mut rng);
            let nu = dom.perturbed_distribution(&z, eps).unwrap();
            assert!(
                (l1_distance(&nu, &dom.uniform()) - eps).abs() < 1e-12,
                "eps = {eps}"
            );
        }
    }

    #[test]
    fn perturbed_pairs_sum_to_two_over_n() {
        // Mass added on (x,+1) is removed from (x,-1): pairs stay balanced.
        let dom = PairedDomain::new(2);
        let z = PerturbationVector::from_code(dom.cube_size(), 0b0110);
        let nu = dom.perturbed_distribution(&z, 0.5).unwrap();
        let n = dom.universe_size() as f64;
        for x in 0..dom.cube_size() as u32 {
            let plus = nu.prob(dom.encode(x, 1));
            let minus = nu.prob(dom.encode(x, -1));
            assert!((plus + minus - 2.0 / n).abs() < 1e-15);
        }
    }

    #[test]
    fn mixture_over_all_z_is_uniform() {
        // E_z[nu_z] = uniform: average over ALL 2^{2^l} vectors for l=2.
        let dom = PairedDomain::new(2);
        let n = dom.universe_size();
        let mut acc = vec![0.0f64; n];
        let count = 1u64 << dom.cube_size();
        for code in 0..count {
            let z = PerturbationVector::from_code(dom.cube_size(), code);
            let nu = dom.perturbed_distribution(&z, 0.7).unwrap();
            for (i, a) in acc.iter_mut().enumerate() {
                *a += nu.prob(i);
            }
        }
        for a in &acc {
            assert!((a / count as f64 - 1.0 / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn epsilon_zero_gives_uniform() {
        let dom = PairedDomain::new(3);
        let z = PerturbationVector::all_plus(dom.cube_size());
        let nu = dom.perturbed_distribution(&z, 0.0).unwrap();
        assert!(l1_distance(&nu, &dom.uniform()) < 1e-15);
    }

    #[test]
    fn perturbed_validates_inputs() {
        let dom = PairedDomain::new(3);
        let wrong_len = PerturbationVector::all_plus(4);
        assert!(dom.perturbed_distribution(&wrong_len, 0.5).is_err());
        let z = PerturbationVector::all_plus(dom.cube_size());
        assert!(dom.perturbed_distribution(&z, 1.5).is_err());
        assert!(dom.perturbed_distribution(&z, -0.1).is_err());
    }

    #[test]
    fn from_code_enumerates_distinct_vectors() {
        let a = PerturbationVector::from_code(4, 0b0101);
        assert_eq!(a.sign(0), -1);
        assert_eq!(a.sign(1), 1);
        assert_eq!(a.sign(2), -1);
        assert_eq!(a.sign(3), 1);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        let b = PerturbationVector::from_code(4, 0b0110);
        assert_ne!(a, b);
    }

    #[test]
    fn random_clears_padding_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let z = PerturbationVector::random(5, &mut rng);
        // Equality with a reconstruction from signs must hold.
        let code = (0..5).filter(|&x| z.sign(x) == -1).map(|x| 1 << x).sum();
        assert_eq!(PerturbationVector::from_code(5, code), z);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let z = PerturbationVector::random(4096, &mut rng);
        let minus = (0..4096).filter(|&x| z.sign(x) == -1).count();
        assert!(minus > 1700 && minus < 2400, "minus count = {minus}");
    }

    #[test]
    #[should_panic(expected = "cube dimension")]
    fn domain_rejects_zero_ell() {
        let _ = PairedDomain::new(0);
    }
}
