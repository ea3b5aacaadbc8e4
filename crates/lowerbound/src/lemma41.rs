//! Lemma 4.1, executable: the exact Fourier expansion of a player's
//! deviation,
//!
//! ```text
//! ν_z(G) − μ(G) = (2^q/n^q) · Σ_{S≠∅} Σ_x ε^{|S|} Π_{j∈S} z(x_j) · Ĝ_x(S)
//! ```
//!
//! where `G_x(s) = G(x, s)` is the restriction of the player function
//! to a fixed tuple of cube points and `Ĝ_x` its Fourier transform in
//! the sign variables. This module evaluates the right-hand side from
//! actual restricted spectra (via `dut_fourier::restriction`) and the
//! tests confirm it coincides with the directly-computed left-hand
//! side — the identity every lemma in the paper starts from.

use crate::player::TableFunction;
use dut_fourier::restriction::{restrict, Restriction};
use dut_fourier::Spectrum;
#[cfg(test)]
use dut_probability::PairedDomain;
use dut_probability::PerturbationVector;

/// The restricted spectra `{Ĝ_x}` of a table player function: for each
/// cube-part tuple `x` (mixed-radix index over `(n/2)^q`), the Fourier
/// spectrum of `G_x` in the `q` sign variables.
///
/// # Panics
///
/// Panics if `(n/2)^q` exceeds `2^22` (enumeration guard).
#[must_use]
pub fn restricted_spectra(g: &TableFunction) -> Vec<Spectrum> {
    let dom = g.domain();
    let q = g.sample_count();
    let ell = dom.ell();
    let cube = dom.cube_size() as u64;
    let total = cube.pow(dut_fourier::character::mask(q));
    assert!(total <= 1 << 22, "cube-tuple enumeration too large");
    let width = ell + 1;
    (0..total)
        .map(|code| {
            // Fix the cube bits of every sample to the digits of `code`;
            // the free variables are exactly the q sign bits.
            let mut mask = 0u32;
            let mut values = 0u32;
            let mut c = code;
            for i in 0..dut_fourier::character::mask(q) {
                #[expect(
                    clippy::expect_used,
                    reason = "c % cube < cube = 2^ℓ, which fits a u32"
                )]
                let x = u32::try_from(c % cube).expect("cube digit fits a u32");
                c /= cube;
                let cube_mask = (1u32 << ell) - 1;
                mask |= cube_mask << (i * width);
                values |= x << (i * width);
            }
            restrict(g.table(), Restriction::new(mask, values)).spectrum()
        })
        .collect()
}

/// Evaluates the right-hand side of Lemma 4.1 for a given `z` and `ε`,
/// from the restricted spectra.
///
/// # Panics
///
/// Panics if `z` does not match the domain or the enumeration guard
/// trips.
#[must_use]
pub fn lemma_4_1_rhs(g: &TableFunction, z: &PerturbationVector, epsilon: f64) -> f64 {
    let dom = g.domain();
    let q = g.sample_count();
    assert_eq!(
        z.len(),
        dom.cube_size(),
        "perturbation vector length mismatch"
    );
    let cube = dom.cube_size() as u64;
    let n = dom.universe_size() as f64;
    let spectra = restricted_spectra(g);
    let qe = dut_fourier::character::powi_exp(q as u64);
    let scale = 2.0f64.powi(qe) / n.powi(qe);
    let mut total = 0.0f64;
    for (code, spectrum) in spectra.iter().enumerate() {
        // Decode the cube tuple for the z product.
        let mut digits = Vec::with_capacity(q);
        let mut c = code as u64;
        for _ in 0..q {
            #[expect(
                clippy::expect_used,
                reason = "c % cube < cube = 2^ℓ, which fits a u32"
            )]
            digits.push(u32::try_from(c % cube).expect("cube digit fits a u32"));
            c /= cube;
        }
        for subset in 1u32..(1 << q) {
            let mut z_product = 1.0f64;
            let mut bits = subset;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                z_product *= f64::from(z.sign(digits[j]));
            }
            total +=
                epsilon.powi(subset.count_ones() as i32) * z_product * spectrum.coefficient(subset);
        }
    }
    scale * total
}

/// Checks the identity for one `(G, z, ε)`: returns
/// `(lhs, rhs, |lhs − rhs|)` where the lhs is computed by direct
/// enumeration ([`crate::exact`]).
///
/// # Panics
///
/// Panics if the enumeration guards trip.
#[must_use]
pub fn check_lemma_4_1(g: &TableFunction, z: &PerturbationVector, epsilon: f64) -> (f64, f64, f64) {
    let dom = g.domain();
    let q = g.sample_count();
    let lhs = crate::exact::nu_g(&dom, q, g, z, epsilon) - crate::exact::mu_g(&dom, q, g);
    let rhs = lemma_4_1_rhs(g, z, epsilon);
    (lhs, rhs, (lhs - rhs).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn identity_holds_for_random_functions() {
        let dom = PairedDomain::new(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        for q in 1..=3usize {
            for _ in 0..4 {
                let g = TableFunction::random(dom, q, 0.5, &mut rng);
                let z = PerturbationVector::random(dom.cube_size(), &mut rng);
                for &eps in &[0.0, 0.3, 0.9] {
                    let (lhs, rhs, err) = check_lemma_4_1(&g, &z, eps);
                    assert!(
                        err < 1e-12,
                        "q={q} eps={eps}: lhs={lhs} rhs={rhs} err={err}"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_holds_for_biased_functions() {
        let dom = PairedDomain::new(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let g = TableFunction::random(dom, 2, 0.05, &mut rng);
        let z = PerturbationVector::from_code(dom.cube_size(), 0b0110);
        let (_, _, err) = check_lemma_4_1(&g, &z, 0.7);
        assert!(err < 1e-12);
    }

    #[test]
    fn rhs_vanishes_at_epsilon_zero() {
        let dom = PairedDomain::new(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let g = TableFunction::random(dom, 2, 0.5, &mut rng);
        let z = PerturbationVector::random(dom.cube_size(), &mut rng);
        assert!(lemma_4_1_rhs(&g, &z, 0.0).abs() < 1e-15);
    }

    #[test]
    fn restricted_spectra_count_and_shape() {
        let dom = PairedDomain::new(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(57);
        let g = TableFunction::random(dom, 2, 0.5, &mut rng);
        let spectra = restricted_spectra(&g);
        assert_eq!(spectra.len(), 16); // (n/2)^q = 4^2
        assert!(spectra.iter().all(|s| s.num_vars() == 2)); // q sign vars
    }

    #[test]
    fn sign_only_functions_have_x_independent_spectra() {
        // A player reading only the signs: every restriction is equal.
        let dom = PairedDomain::new(2);
        let q = 2;
        let table = dut_fourier::BooleanFunction::from_fn(6, |w| {
            // Sign bits are at positions 2 and 5 (width 3 per sample).
            f64::from(((w >> 2) & 1) ^ ((w >> 5) & 1))
        });
        let g = TableFunction::new(dom, q, table);
        let spectra = restricted_spectra(&g);
        let first = spectra[0].coefficients().to_vec();
        for s in &spectra {
            for (a, b) in s.coefficients().iter().zip(&first) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
