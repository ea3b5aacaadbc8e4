//! Boolean function analysis for the lower-bound machinery of
//! *Can Distributed Uniformity Testing Be Local?* (PODC 2019).
//!
//! The paper studies each player's behaviour as a Boolean function
//! `G : {-1,1}^{(ℓ+1)q} → {0,1}` and reasons about its Fourier spectrum.
//! This crate provides the corresponding executable toolkit:
//!
//! * [`BooleanFunction`] — dense real-valued functions on `{-1,1}^m`
//!   (with a library of standard families: dictators, parities, AND/OR,
//!   majority, thresholds, random functions),
//! * [`Spectrum`] and the fast Walsh–Hadamard transform ([`transform`]):
//!   Fourier coefficients, Parseval, mean/variance (Fact 2.2), per-level
//!   weights,
//! * characters and subset iteration ([`character`]),
//! * the KKL level inequality, Lemma 5.4 ([`kkl`]),
//! * restrictions ([`restriction`]) — the paper's `G_x(s) = G(x, s)`
//!   operation,
//! * even-cover combinatorics ([`evencover`]): the sets `X_S`, the counts
//!   `a_r(x)`, exact even-word counting, and the bounds of Proposition 5.2
//!   and Lemma 5.5.
//!
//! # Conventions
//!
//! A point of `{-1,1}^m` is encoded as a bitmask `u32`/`u64` where bit `i`
//! set means `x_i = -1` (so `x_i = (-1)^{bit_i}`). A subset `S ⊆ [m]` is
//! encoded as a bitmask where bit `i` set means `i ∈ S`. The character is
//! `χ_S(x) = Π_{i∈S} x_i = (-1)^{|S ∩ x|}`.
//!
//! # Example
//!
//! ```
//! use dut_fourier::BooleanFunction;
//!
//! let maj = BooleanFunction::majority(3);
//! let spec = maj.spectrum();
//! // Majority of 3 bits: mean 1/2, and Parseval holds.
//! assert!((spec.mean() - 0.5).abs() < 1e-12);
//! assert!((spec.total_weight() - 0.5).abs() < 1e-12); // E[f^2] for 0/1 f
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

mod function;
mod spectrum;

pub mod character;
pub mod evencover;
pub mod kkl;
pub mod restriction;
pub mod transform;

pub use function::BooleanFunction;
pub use spectrum::Spectrum;
