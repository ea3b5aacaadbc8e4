//! Executable lower-bound machinery for *Can Distributed Uniformity
//! Testing Be Local?* (PODC 2019) — the paper's primary contribution,
//! made computational.
//!
//! The paper models a player as a Boolean function
//! `G : {-1,1}^{(ℓ+1)q} → {0,1}` of its `q` samples from the paired
//! domain, and bounds how differently `G` can behave on the uniform
//! distribution versus a random member `ν_z` of the hard family:
//!
//! * [`player`] — a library of concrete player functions `G`
//!   (collision indicators, dictators, parities, majorities, random
//!   functions) evaluated on sample tuples;
//! * [`exact`] — exact computation of `μ(G)`, `ν_z(G)`,
//!   `E_z[ν_z(G)]` and `E_z[(ν_z(G) − μ(G))²]` by full enumeration of
//!   sample tuples and perturbation vectors (small parameters);
//! * [`lemma41`] — Lemma 4.1's Fourier expansion of `ν_z(G) − μ(G)`,
//!   evaluated from restricted spectra;
//! * [`lemmas`] — right-hand sides of Lemma 4.2, 4.3, 4.4 and 5.1 and
//!   checkers that compare them against the exact left-hand sides;
//! * [`claim31`] — numeric verification of Claim 3.1 (the product
//!   expansion of `ν_z^q`) and of the even-cover spectrum structure;
//! * [`divergence`] — the KL-budget argument of Section 6.1
//!   (Fact 6.2/6.3, equations (9)–(13));
//! * [`mixture`] — the exact mixture `E_z[ν_z^q]` and its TV and χ²
//!   distance from `uniform^q` (the centralized √n barrier);
//! * [`theory`] — every theorem's predicted sample complexity as a
//!   formula, used by the benchmark tables.
//!
//! # Example: checking Lemma 5.1 exactly
//!
//! ```
//! use dut_lowerbound::{exact, lemmas, player::CollisionIndicator};
//! use dut_probability::PairedDomain;
//!
//! let dom = PairedDomain::new(2); // universe size 8
//! let q = 2;
//! let eps = 0.5;
//! let g = CollisionIndicator::new(1);
//! let check = lemmas::check_lemma_5_1(&dom, q, eps, &g);
//! assert!(check.holds(), "{check:?}");
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

pub mod claim31;
pub mod divergence;
pub mod exact;
pub mod lemma41;
pub mod lemmas;
pub mod mixture;
pub mod player;
pub mod theory;
