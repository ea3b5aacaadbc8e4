//! Discrete probability substrate for distributed uniformity testing.
//!
//! This crate provides everything the testers and the lower-bound machinery
//! need to talk about distributions on a finite domain `{0, .., n-1}`:
//!
//! * [`DenseDistribution`] — a validated probability vector with cheap
//!   queries (point mass, ℓ₂ norm / collision probability, …),
//! * samplers ([`AliasSampler`], [`CdfSampler`]) for drawing iid samples,
//! * the occupancy fast path ([`occupancy`]): draws a `q`-sample
//!   histogram directly in O(n + q) via conditional-binomial
//!   stick-breaking; the balanced rule's calibration picks it or the
//!   per-draw kernel through [`SampleBackend`],
//! * statistical distances ([`distance`]): ℓ₁ (the paper's farness
//!   notion) and KL, plus the Bernoulli KL and its Fact 6.3 bound,
//! * standard families ([`families`]): uniform, point mass, Zipf,
//!   two-level ε-far instances, mixtures,
//! * the paper's hard instances ([`paired`]): the Paninski perturbation
//!   family `ν_z` on the paired Boolean-cube domain of Section 3,
//! * empirical statistics ([`empirical`]): histograms, collision and
//!   coincidence counts,
//! * moment helpers ([`moments`]) for calibrating collision testers.
//!
//! # Example
//!
//! ```
//! use dut_probability::{families, distance, Sampler};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), dut_probability::DistributionError> {
//! let far = families::two_level(8, 0.5)?;
//! assert!((distance::l1_distance(&far, &families::uniform(8)) - 0.5).abs() < 1e-12);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let sampler = far.alias_sampler();
//! let sample = sampler.sample(&mut rng);
//! assert!(sample < 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact constructed values and index with small literals"
    )
)]

mod dense;
mod error;

pub mod costmodel;
pub mod distance;
pub mod empirical;
pub mod families;
pub mod moments;
pub mod occupancy;
pub mod paired;
pub mod sampler;

pub use dense::DenseDistribution;
pub use empirical::Histogram;
pub use error::DistributionError;
pub use occupancy::{CollisionWalk, HistogramSampler, SampleBackend};
pub use paired::{PairedDomain, PerturbationVector};
pub use sampler::{AliasSampler, CdfSampler, Sampler, UniformSampler};

/// Numerical tolerance used when validating that probabilities sum to one.
pub const NORMALIZATION_TOLERANCE: f64 = 1e-9;
