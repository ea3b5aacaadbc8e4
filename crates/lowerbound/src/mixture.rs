//! The mixture `E_z[ν_z^q]` and its distance from `uniform^q` — the
//! quantity behind the *centralized* √n lower bound (Paninski), which
//! the paper's Section 3 machinery refines player-by-player.
//!
//! Why testing needs √n samples even centrally: the average of the
//! hard family over `z` is exactly uniform per sample, and remains
//! close to `uniform^q` in total variation until `q ≈ √n`. This module
//! computes that closeness **exactly**:
//!
//! * [`mixture_density`] — `E_z[ν_z^q(w)]` in `O(2^q)` per tuple via
//!   the even-cover support (no enumeration over `z`),
//! * [`tv_mixture_uniform_exact`] / [`tv_mixture_uniform_monte_carlo`]
//!   — total variation `TV(E_z[ν_z^q], U^q)`,
//! * [`chi2_mixture_exact`] — the Ingster χ²:
//!   `χ²(E_z[ν_z^q], U^q) = E_W[(1 + 2ε²W/n)^q] − 1` with
//!   `W = Σ_{i≤n/2} Rademacher_i`, computed exactly from binomial
//!   weights.

use crate::player::PairedSample;
use dut_fourier::evencover::is_evenly_covered;
use dut_probability::PairedDomain;
use rand::Rng;

/// The exact mixture density `E_z[ν_z^q(w)]` of a sample tuple, in
/// `O(q log q)` time.
///
/// By Claim 3.1 and odd cancelation, only the evenly-covered subsets
/// survive the average:
/// `E_z[ν_z^q(x,s)] = n^{-q} · Σ_{S : x_S evenly covered} ε^{|S|} χ_S(s)`,
/// and that sum **factorizes over the groups of equal cube points**:
/// a subset is evenly covered iff its intersection with every group
/// has even size, and the even-size part of
/// `Σ_{T⊆g} ε^{|T|} Π_{j∈T} s_j = Π_{j∈g}(1 + ε·s_j)` is
/// `(Π(1 + ε·s_j) + Π(1 − ε·s_j))/2`.
///
/// # Panics
///
/// Panics if `ε ∉ [0, 1]`.
#[must_use]
pub fn mixture_density(dom: &PairedDomain, epsilon: f64, tuple: &[PairedSample]) -> f64 {
    mixture_likelihood_ratio(epsilon, tuple)
        * (dom.universe_size() as f64).powi(-dut_fourier::character::powi_exp(tuple.len() as u64))
}

/// The likelihood ratio `E_z[ν_z^q(w)] / uniform^q(w)` of a sample
/// tuple — the per-group product without the `n^{-q}` normalization,
/// which underflows for large `q`. Use this for statistics of long
/// tuples.
///
/// # Panics
///
/// Panics if `ε ∉ [0, 1]`.
#[must_use]
pub fn mixture_likelihood_ratio(epsilon: f64, tuple: &[PairedSample]) -> f64 {
    assert!((0.0..=1.0).contains(&epsilon), "epsilon out of range");
    let q = tuple.len();
    // Group by cube point via sorting.
    let mut sorted: Vec<PairedSample> = tuple.to_vec();
    sorted.sort_unstable();
    let mut total = 1.0f64;
    let mut i = 0;
    while i < q {
        let x = sorted[i].0;
        let mut plus = 1.0f64; // prod (1 + eps * s_j)
        let mut minus = 1.0f64; // prod (1 - eps * s_j)
        while i < q && sorted[i].0 == x {
            let s = f64::from(sorted[i].1);
            plus *= 1.0 + epsilon * s;
            minus *= 1.0 - epsilon * s;
            i += 1;
        }
        total *= (plus + minus) / 2.0;
    }
    total
}

/// Reference implementation of [`mixture_density`] by direct subset
/// enumeration (`O(2^q)`), kept as a test oracle.
///
/// # Panics
///
/// Panics if `q > 20` (subset enumeration guard) or `ε ∉ [0, 1]`.
#[must_use]
pub fn mixture_density_by_enumeration(
    dom: &PairedDomain,
    epsilon: f64,
    tuple: &[PairedSample],
) -> f64 {
    assert!(tuple.len() <= 20, "subset enumeration limited to q <= 20");
    assert!((0.0..=1.0).contains(&epsilon), "epsilon out of range");
    let q = tuple.len();
    let xs: Vec<u32> = tuple.iter().map(|&(x, _)| x).collect();
    let n = dom.universe_size() as f64;
    let mut total = 0.0f64;
    for subset in 0u64..(1 << q) {
        if !is_evenly_covered(&xs, subset) {
            continue;
        }
        // chi_S(s): product of the signs selected by the subset.
        let mut sign = 1.0f64;
        let mut bits = subset;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            sign *= f64::from(tuple[j].1);
        }
        total += epsilon.powi(subset.count_ones() as i32) * sign;
    }
    total / n.powi(dut_fourier::character::powi_exp(q as u64))
}

/// Exact total variation `TV(E_z[ν_z^q], uniform^q)` by full tuple
/// enumeration.
///
/// # Panics
///
/// Panics if `n^q` exceeds the enumeration guard of
/// [`crate::exact::for_each_tuple`].
#[must_use]
pub fn tv_mixture_uniform_exact(dom: &PairedDomain, q: usize, epsilon: f64) -> f64 {
    let uniform_mass =
        (dom.universe_size() as f64).powi(-dut_fourier::character::powi_exp(q as u64));
    let mut tv = 0.0f64;
    crate::exact::for_each_tuple(dom, q, |tuple| {
        let m = mixture_density(dom, epsilon, tuple);
        tv += (m - uniform_mass).abs();
    });
    tv / 2.0
}

/// Monte-Carlo estimate of the same total variation, using
/// `TV(P, U) = E_{w~U}[(1 − P(w)/U(w))⁺]`, from `trials` uniform
/// tuples.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn tv_mixture_uniform_monte_carlo<R: Rng + ?Sized>(
    dom: &PairedDomain,
    q: usize,
    epsilon: f64,
    trials: u32,
    rng: &mut R,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let mut acc = 0.0f64;
    let mut tuple = Vec::with_capacity(q);
    for _ in 0..trials {
        tuple.clear();
        for _ in 0..q {
            tuple.push(sample_uniform(dom, rng));
        }
        let ratio = mixture_likelihood_ratio(epsilon, &tuple);
        acc += (1.0 - ratio).max(0.0);
    }
    acc / f64::from(trials)
}

/// Draws one sample from the uniform distribution on the paired domain.
fn sample_uniform<R: Rng + ?Sized>(dom: &PairedDomain, rng: &mut R) -> PairedSample {
    let x = dut_fourier::character::mask(rng.random_range(0..dom.cube_size()));
    let s = if rng.random::<bool>() { 1 } else { -1 };
    (x, s)
}

/// The exact Ingster χ² divergence `χ²(E_z[ν_z^q], uniform^q)`.
///
/// Pairing two independent draws of `z` gives
/// `χ² + 1 = E_{z,z'}[(1 + 2ε²·⟨z,z'⟩/n)^q]` with
/// `⟨z,z'⟩ = Σ_{x∈cube} z(x)z'(x)` a sum of `n/2` Rademacher
/// variables; the expectation is a finite binomial sum, computed in
/// log-space for stability.
///
/// # Panics
///
/// Panics if the cube has more than `2^22` vertices or `ε ∉ [0, 1]`.
#[must_use]
pub fn chi2_mixture_exact(dom: &PairedDomain, q: usize, epsilon: f64) -> f64 {
    assert!((0.0..=1.0).contains(&epsilon), "epsilon out of range");
    let half = dom.cube_size();
    assert!(half <= 1 << 22, "cube too large for exact binomial sum");
    let n = dom.universe_size() as f64;
    // W = half - 2*B with B ~ Bin(half, 1/2); weight of each B value
    // is C(half, B)/2^half, accumulated in log space.
    let ln2 = std::f64::consts::LN_2;
    let mut total = 0.0f64;
    let mut ln_binom = 0.0f64; // ln C(half, 0)
    for b in 0..=half {
        if b > 0 {
            ln_binom += ((half - b + 1) as f64).ln() - (b as f64).ln();
        }
        let ln_weight = ln_binom - half as f64 * ln2;
        let w = half as f64 - 2.0 * b as f64;
        let base = 1.0 + 2.0 * epsilon * epsilon * w / n;
        if base <= 0.0 {
            // Possible only for eps^2 > 1/2 at the extreme W = -n/2;
            // the contribution is (negative)^q, handled via sign.
            let magnitude = (q as f64) * base.abs().ln() + ln_weight;
            let signed = if q.is_multiple_of(2) { 1.0 } else { -1.0 };
            total += signed * magnitude.exp();
        } else {
            total += ((q as f64) * base.ln() + ln_weight).exp();
        }
    }
    (total - 1.0).max(0.0)
}

/// The classic sufficient condition threshold: the minimal `q ≤ max_q`
/// at which the exact χ² exceeds `bound` (testing is impossible while
/// `TV ≤ √χ²/2` stays small). Uses geometric bracketing plus binary
/// search — χ² is non-decreasing in `q` for `ε² ≤ 1/2` (and in
/// practice throughout; callers in the extreme-ε regime should treat
/// the result as a bracketing heuristic).
///
/// # Panics
///
/// Panics if `max_q == 0`.
#[must_use]
pub fn q_where_chi2_exceeds(
    dom: &PairedDomain,
    epsilon: f64,
    bound: f64,
    max_q: usize,
) -> Option<usize> {
    assert!(max_q >= 1, "need a positive search range");
    let exceeds = |q: usize| chi2_mixture_exact(dom, q, epsilon) > bound;
    // Geometric bracket.
    let mut hi = 1usize;
    let mut lo = 0usize;
    loop {
        if exceeds(hi.min(max_q)) {
            break;
        }
        if hi >= max_q {
            return None;
        }
        lo = hi;
        hi = (hi * 2).min(max_q);
    }
    let mut hi = hi.min(max_q);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if exceeds(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::PerturbationVector;
    use rand::SeedableRng;

    #[test]
    fn mixture_matches_brute_force_average() {
        // Compare against direct averaging over all z (ell = 2).
        let dom = PairedDomain::new(2);
        let eps = 0.6;
        let q = 3;
        let count = 1u64 << dom.cube_size();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let tuple: Vec<PairedSample> = (0..q).map(|_| sample_uniform(&dom, &mut rng)).collect();
            let mut brute = 0.0f64;
            for code in 0..count {
                let z = PerturbationVector::from_code(dom.cube_size(), code);
                let mut w = 1.0;
                for &(x, s) in &tuple {
                    w *= (1.0 + f64::from(s) * f64::from(z.sign(x)) * eps)
                        / dom.universe_size() as f64;
                }
                brute += w;
            }
            brute /= count as f64;
            let fast = mixture_density(&dom, eps, &tuple);
            let oracle = mixture_density_by_enumeration(&dom, eps, &tuple);
            assert!((fast - brute).abs() < 1e-15, "{fast} vs {brute}");
            assert!((fast - oracle).abs() < 1e-15, "{fast} vs oracle {oracle}");
        }
    }

    #[test]
    fn single_sample_mixture_is_uniform() {
        // q = 1: the mixture is exactly uniform, TV = 0.
        let dom = PairedDomain::new(3);
        assert!(tv_mixture_uniform_exact(&dom, 1, 0.9) < 1e-15);
    }

    #[test]
    fn tv_zero_at_epsilon_zero() {
        let dom = PairedDomain::new(2);
        assert!(tv_mixture_uniform_exact(&dom, 3, 0.0) < 1e-15);
    }

    #[test]
    fn tv_grows_with_q() {
        let dom = PairedDomain::new(2);
        let eps = 0.8;
        let tv2 = tv_mixture_uniform_exact(&dom, 2, eps);
        let tv3 = tv_mixture_uniform_exact(&dom, 3, eps);
        let tv5 = tv_mixture_uniform_exact(&dom, 5, eps);
        assert!(tv2 < tv3);
        assert!(tv3 < tv5);
        assert!(tv5 <= 1.0);
    }

    #[test]
    fn monte_carlo_tracks_exact_tv() {
        let dom = PairedDomain::new(2);
        let eps = 0.8;
        let q = 4;
        let exact = tv_mixture_uniform_exact(&dom, q, eps);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mc = tv_mixture_uniform_monte_carlo(&dom, q, eps, 60_000, &mut rng);
        assert!((mc - exact).abs() < 0.02, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn chi2_matches_brute_force_pairing() {
        // chi^2 + 1 = E_{z,z'}[(1 + 2 eps^2 <z,z'>/n)^q], brute over all pairs.
        let dom = PairedDomain::new(2);
        let eps = 0.5;
        let q = 3;
        let count = 1u64 << dom.cube_size();
        let mut brute = 0.0f64;
        for a in 0..count {
            for b in 0..count {
                let za = PerturbationVector::from_code(dom.cube_size(), a);
                let zb = PerturbationVector::from_code(dom.cube_size(), b);
                let inner: f64 = (0..dom.cube_size() as u32)
                    .map(|x| f64::from(za.sign(x)) * f64::from(zb.sign(x)))
                    .sum();
                brute += (1.0 + 2.0 * eps * eps * inner / dom.universe_size() as f64).powi(q);
            }
        }
        brute = brute / (count * count) as f64 - 1.0;
        let exact = chi2_mixture_exact(&dom, q as usize, eps);
        assert!((exact - brute).abs() < 1e-12, "{exact} vs {brute}");
    }

    #[test]
    fn chi2_grows_with_q_and_epsilon() {
        let dom = PairedDomain::new(4);
        assert!(chi2_mixture_exact(&dom, 4, 0.5) > chi2_mixture_exact(&dom, 2, 0.5));
        assert!(chi2_mixture_exact(&dom, 4, 0.8) > chi2_mixture_exact(&dom, 4, 0.3));
        assert!(chi2_mixture_exact(&dom, 2, 0.0) < 1e-15);
    }

    #[test]
    fn tv_bounded_by_half_sqrt_chi2() {
        // The standard chain TV <= sqrt(chi^2)/2 must hold exactly.
        let dom = PairedDomain::new(2);
        for q in 1..=5usize {
            for &eps in &[0.3, 0.6, 0.9] {
                let tv = tv_mixture_uniform_exact(&dom, q, eps);
                let chi2 = chi2_mixture_exact(&dom, q, eps);
                assert!(
                    tv <= chi2.sqrt() / 2.0 + 1e-12,
                    "q={q} eps={eps}: tv={tv} chi2={chi2}"
                );
            }
        }
    }

    #[test]
    fn chi2_stays_small_until_sqrt_n() {
        // The sqrt(n) barrier: at q far below sqrt(n)/eps^2 the chi^2
        // is tiny; it crosses 1/10 only at q = Omega(sqrt(n)).
        let dom = PairedDomain::new(10); // n = 2048
        let eps = 0.5;
        let crossing = q_where_chi2_exceeds(&dom, eps, 0.1, 4096).expect("chi2 eventually grows");
        let sqrt_n = (dom.universe_size() as f64).sqrt();
        assert!(
            crossing as f64 > 0.5 * sqrt_n,
            "crossing {crossing} vs sqrt(n) {sqrt_n}"
        );
        assert!(
            (crossing as f64) < 20.0 * sqrt_n / (eps * eps),
            "crossing {crossing} too large"
        );
    }

    #[test]
    fn likelihood_ratio_well_defined_for_long_tuples() {
        // n^{-q} underflows far before q = 600; the ratio must not.
        let dom = PairedDomain::new(9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let tuple: Vec<PairedSample> = (0..600).map(|_| sample_uniform(&dom, &mut rng)).collect();
        let ratio = mixture_likelihood_ratio(0.5, &tuple);
        assert!(ratio.is_finite() && ratio > 0.0, "ratio = {ratio}");
        let mc = tv_mixture_uniform_monte_carlo(&dom, 600, 0.5, 500, &mut rng);
        assert!(mc > 0.0 && mc <= 1.0, "tv = {mc}");
    }

    #[test]
    fn uniform_sampler_covers_domain() {
        let dom = PairedDomain::new(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let (x, s) = sample_uniform(&dom, &mut rng);
            seen.insert(dom.encode(x, s));
        }
        assert_eq!(seen.len(), dom.universe_size());
    }

    #[test]
    fn mixture_densities_sum_to_one() {
        let dom = PairedDomain::new(2);
        let q = 3;
        let mut total = 0.0f64;
        crate::exact::for_each_tuple(&dom, q, |tuple| {
            total += mixture_density(&dom, 0.7, tuple);
        });
        assert!((total - 1.0).abs() < 1e-10);
    }
}
