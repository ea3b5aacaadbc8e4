//! Exact evaluation of player behaviour on the hard family, by full
//! enumeration.
//!
//! For parameters where `n^q` (sample tuples) and `2^{2^ℓ}`
//! (perturbation vectors) are enumerable, every quantity in the paper's
//! lemmas is computed *exactly*, which makes the lemma checks in
//! [`crate::lemmas`] airtight on small instances.

use crate::player::{PairedSample, PlayerFunction};
use dut_probability::{PairedDomain, PerturbationVector};

/// Guard: maximum number of sample tuples we will enumerate.
pub const MAX_TUPLES: u128 = 1 << 24;

/// Guard: maximum number of perturbation vectors we will enumerate.
pub const MAX_VECTORS: u64 = 1 << 20;

/// Iterates over all `n^q` sample tuples, invoking `visit` with the
/// tuple and its index.
///
/// # Panics
///
/// Panics if `n^q` exceeds [`MAX_TUPLES`].
pub fn for_each_tuple<F: FnMut(&[PairedSample])>(dom: &PairedDomain, q: usize, mut visit: F) {
    let n = dom.universe_size();
    let total = (n as u128).pow(dut_fourier::character::mask(q));
    assert!(total <= MAX_TUPLES, "tuple enumeration too large: {total}");
    let mut tuple: Vec<PairedSample> = vec![dom.decode(0); q];
    let mut digits = vec![0usize; q];
    loop {
        visit(&tuple);
        // Increment the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == q {
                return;
            }
            digits[pos] += 1;
            if digits[pos] < n {
                tuple[pos] = dom.decode(digits[pos]);
                break;
            }
            digits[pos] = 0;
            tuple[pos] = dom.decode(0);
            pos += 1;
        }
    }
}

/// Exact `μ(G) = Pr_{S ~ uniform^q}[G(S) = 1]`.
///
/// # Panics
///
/// Panics if the enumeration guard trips.
#[must_use]
pub fn mu_g<G: PlayerFunction + ?Sized>(dom: &PairedDomain, q: usize, g: &G) -> f64 {
    let mut count = 0u64;
    let mut total = 0u64;
    for_each_tuple(dom, q, |tuple| {
        total += 1;
        if g.output(tuple) {
            count += 1;
        }
    });
    count as f64 / total as f64
}

/// Exact `ν_z(G) = Pr_{S ~ ν_z^q}[G(S) = 1]` by weighted enumeration.
///
/// # Panics
///
/// Panics if the guard trips, `z` has the wrong length, or
/// `ε ∉ [0, 1]`.
#[must_use]
pub fn nu_g<G: PlayerFunction + ?Sized>(
    dom: &PairedDomain,
    q: usize,
    g: &G,
    z: &PerturbationVector,
    epsilon: f64,
) -> f64 {
    assert_eq!(
        z.len(),
        dom.cube_size(),
        "perturbation vector length mismatch"
    );
    assert!((0.0..=1.0).contains(&epsilon), "epsilon out of range");
    let n = dom.universe_size() as f64;
    let mut acc = 0.0f64;
    for_each_tuple(dom, q, |tuple| {
        if g.output(tuple) {
            let mut weight = 1.0;
            for &(x, s) in tuple {
                weight *= (1.0 + f64::from(s) * f64::from(z.sign(x)) * epsilon) / n;
            }
            acc += weight;
        }
    });
    acc
}

/// The exact first and second moments of `ν_z(G) − μ(G)` over the
/// **full** ensemble of perturbation vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZMoments {
    /// `μ(G)` (uniform acceptance probability).
    pub mu: f64,
    /// `E_z[ν_z(G)]`.
    pub mean_nu: f64,
    /// `E_z[(ν_z(G) − μ(G))²]`.
    pub second_moment: f64,
    /// `max_z |ν_z(G) − μ(G)|`.
    pub max_abs_deviation: f64,
}

impl ZMoments {
    /// `|E_z[ν_z(G)] − μ(G)|` — the left-hand side of Lemma 5.1 / 4.3.
    #[must_use]
    pub fn first_moment_abs(&self) -> f64 {
        (self.mean_nu - self.mu).abs()
    }
}

/// Computes [`ZMoments`] exactly by enumerating **all** `2^{2^ℓ}`
/// perturbation vectors.
///
/// # Panics
///
/// Panics if `2^{2^ℓ}` exceeds [`MAX_VECTORS`] (i.e. `ℓ > 4`), or the
/// tuple guard trips.
#[must_use]
pub fn z_moments_exact<G: PlayerFunction + ?Sized>(
    dom: &PairedDomain,
    q: usize,
    g: &G,
    epsilon: f64,
) -> ZMoments {
    let cube = dom.cube_size();
    assert!(cube <= 20, "z enumeration needs 2^(2^ell) <= MAX_VECTORS");
    let count = 1u64 << cube;
    assert!(count <= MAX_VECTORS, "z enumeration too large");
    let mu = mu_g(dom, q, g);
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut max_abs: f64 = 0.0;
    for code in 0..count {
        let z = PerturbationVector::from_code(cube, code);
        let nu = nu_g(dom, q, g, &z, epsilon);
        let dev = nu - mu;
        sum += nu;
        sum_sq += dev * dev;
        max_abs = max_abs.max(dev.abs());
    }
    ZMoments {
        mu,
        mean_nu: sum / count as f64,
        second_moment: sum_sq / count as f64,
        max_abs_deviation: max_abs,
    }
}

/// The variance of a `{0,1}`-valued `G` under the uniform distribution:
/// `var(G) = μ(G)·(1 − μ(G))`.
#[must_use]
pub fn var_g_from_mu(mu: f64) -> f64 {
    mu * (1.0 - mu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::player::{CollisionIndicator, SignDictator, SignParity};
    use rand::SeedableRng;

    #[test]
    fn tuple_enumeration_counts() {
        let dom = PairedDomain::new(2);
        let mut count = 0u64;
        for_each_tuple(&dom, 2, |_| count += 1);
        assert_eq!(count, 64); // 8^2
    }

    #[test]
    fn mu_of_constant_functions() {
        let dom = PairedDomain::new(2);
        let always = |_: &[PairedSample]| true;
        assert_eq!(mu_g(&dom, 2, &always), 1.0);
        let never = |_: &[PairedSample]| false;
        assert_eq!(mu_g(&dom, 2, &never), 0.0);
    }

    #[test]
    fn mu_of_sign_dictator_is_half() {
        let dom = PairedDomain::new(3);
        assert!((mu_g(&dom, 2, &SignDictator::new(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nu_sums_to_probability() {
        // nu_g of the constant-1 function must be exactly 1 (the weights
        // form a distribution).
        let dom = PairedDomain::new(2);
        let z = PerturbationVector::from_code(4, 0b0110);
        let always = |_: &[PairedSample]| true;
        assert!((nu_g(&dom, 3, &always, &z, 0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nu_equals_mu_at_epsilon_zero() {
        let dom = PairedDomain::new(2);
        let z = PerturbationVector::from_code(4, 0b1010);
        let g = CollisionIndicator::new(1);
        let nu = nu_g(&dom, 2, &g, &z, 0.0);
        let mu = mu_g(&dom, 2, &g);
        assert!((nu - mu).abs() < 1e-12);
    }

    #[test]
    fn sign_dictator_sees_nothing_on_average_but_each_z_biases_it() {
        // For a single sample, nu_z(SignDictator) = 1/2 - eps*avg(z)/2;
        // with the all-plus z the dictator IS biased, but averaging over
        // z it is not.
        let dom = PairedDomain::new(2);
        let eps = 0.5;
        let all_plus = PerturbationVector::from_code(4, 0);
        let g = SignDictator::new(0);
        let nu = nu_g(&dom, 1, &g, &all_plus, eps);
        // G = 1 iff s = -1; under nu_z with all z = +1: Pr[s=-1] = (1-eps)/2.
        assert!((nu - (1.0 - eps) / 2.0).abs() < 1e-12);
        let m = z_moments_exact(&dom, 1, &g, eps);
        assert!(m.first_moment_abs() < 1e-12, "averaged over z: no signal");
        assert!(m.second_moment > 0.0, "but individual z's bias the bit");
    }

    #[test]
    fn sign_parity_has_no_signal_for_q1() {
        // With q = 1, parity = dictator.
        let dom = PairedDomain::new(2);
        let m = z_moments_exact(&dom, 1, &SignParity, 0.9);
        assert!(m.first_moment_abs() < 1e-12);
    }

    #[test]
    fn mixture_property_constant_zero_deviation() {
        // Constant functions cannot distinguish anything.
        let dom = PairedDomain::new(2);
        let always = |_: &[PairedSample]| true;
        let m = z_moments_exact(&dom, 2, &always, 0.8);
        assert!(m.second_moment < 1e-20, "{}", m.second_moment);
        assert!(m.max_abs_deviation < 1e-10, "{}", m.max_abs_deviation);
    }

    #[test]
    fn collision_indicator_gains_signal_with_epsilon() {
        // The mean shift of a collision tester grows with eps.
        let dom = PairedDomain::new(2);
        let g = CollisionIndicator::new(1);
        let weak = z_moments_exact(&dom, 3, &g, 0.2);
        let strong = z_moments_exact(&dom, 3, &g, 0.9);
        assert!(strong.first_moment_abs() > weak.first_moment_abs());
        assert!(strong.second_moment > weak.second_moment);
    }

    #[test]
    fn z_moments_match_monte_carlo_spot_check() {
        let dom = PairedDomain::new(2);
        let q = 2;
        let eps = 0.6;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = crate::player::TableFunction::random(dom, q, 0.4, &mut rng);
        let exact = z_moments_exact(&dom, q, &g, eps);
        // Estimate E_z[nu_z(G)] by direct averaging over random z with
        // exact nu (no sampling noise from tuples).
        let mut sum = 0.0;
        let draws = 400;
        for _ in 0..draws {
            let z = PerturbationVector::random(dom.cube_size(), &mut rng);
            sum += nu_g(&dom, q, &g, &z, eps);
        }
        let mc = sum / f64::from(draws);
        assert!(
            (mc - exact.mean_nu).abs() < 0.02,
            "mc = {mc}, exact = {}",
            exact.mean_nu
        );
    }

    #[test]
    fn var_from_mu() {
        assert_eq!(var_g_from_mu(0.0), 0.0);
        assert_eq!(var_g_from_mu(1.0), 0.0);
        assert!((var_g_from_mu(0.5) - 0.25).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn tuple_guard_trips() {
        let dom = PairedDomain::new(10);
        for_each_tuple(&dom, 4, |_| {});
    }
}
