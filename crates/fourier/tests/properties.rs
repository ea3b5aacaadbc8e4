//! Property-based tests for the Boolean-analysis substrate.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use dut_fourier::character::{binomial, chi, double_factorial, subsets_of_size};
use dut_fourier::evencover::{
    a_r_count, even_word_count, is_evenly_covered, x_s_count_bound, x_s_count_exact,
};
use dut_fourier::kkl::check_level_inequality;
use dut_fourier::transform::{walsh_hadamard, walsh_hadamard_naive};
use dut_fourier::BooleanFunction;
use proptest::prelude::*;

fn arb_boolean_function() -> impl Strategy<Value = BooleanFunction> {
    (2u32..=8).prop_flat_map(|m| {
        prop::collection::vec(prop::bool::ANY, 1usize << m).prop_map(|bits| {
            BooleanFunction::from_values(bits.into_iter().map(f64::from).collect())
        })
    })
}

proptest! {
    #[test]
    fn parseval_identity(f in arb_boolean_function()) {
        // For 0/1 f: total Fourier weight = E[f^2] = mean.
        let spec = f.spectrum();
        prop_assert!((spec.total_weight() - f.mean()).abs() < 1e-9);
    }

    #[test]
    fn fact_2_2_mean_and_variance(f in arb_boolean_function()) {
        let spec = f.spectrum();
        prop_assert!((spec.mean() - f.mean()).abs() < 1e-9);
        prop_assert!((spec.variance() - f.variance()).abs() < 1e-9);
    }

    #[test]
    fn transform_matches_naive(values in prop::collection::vec(-1.0f64..1.0, 1usize..=64)) {
        let n = values.len().next_power_of_two().max(2);
        let mut padded = values;
        padded.resize(n, 0.0);
        let expected = walsh_hadamard_naive(&padded);
        let mut fast = padded;
        walsh_hadamard(&mut fast);
        for (a, b) in fast.iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn complement_preserves_nonempty_spectrum(f in arb_boolean_function()) {
        let spec_f = f.spectrum();
        let spec_g = f.complement().spectrum();
        for s in 1..spec_f.coefficients().len() {
            prop_assert!(
                (spec_f.coefficients()[s] + spec_g.coefficients()[s]).abs() < 1e-9
            );
        }
    }

    #[test]
    fn coefficients_bounded_by_mean(f in arb_boolean_function()) {
        // |f_hat(S)| <= E[|f|] = mean for 0/1 functions.
        let spec = f.spectrum();
        let mean = f.mean();
        for &c in spec.coefficients() {
            prop_assert!(c.abs() <= mean + 1e-9);
        }
    }

    #[test]
    fn kkl_level_inequality_holds(f in arb_boolean_function(), r in 1u32..4, delta_i in 1u32..=4) {
        let delta = f64::from(delta_i) * 0.25;
        let check = check_level_inequality(&f, r.min(f.num_vars()), delta);
        prop_assert!(check.holds(), "{check:?}");
    }

    #[test]
    fn chi_is_sign_of_intersection(s in 0u32..256, x in 0u32..256) {
        let expected = if (s & x).count_ones() % 2 == 0 { 1 } else { -1 };
        prop_assert_eq!(chi(s, x), expected);
    }

    #[test]
    fn subsets_count_matches_binomial(n in 0u32..16, k in 0u32..16) {
        prop_assert_eq!(
            subsets_of_size(n, k).count() as u128,
            binomial(u64::from(n), u64::from(k))
        );
    }

    #[test]
    fn even_word_count_bounded_by_pairings(d in 1u64..16, r in 1u64..5) {
        // even words of length 2r <= (2r-1)!! * D^r (pairing over-count).
        let exact = even_word_count(d, 2 * r);
        let bound = double_factorial(2 * r - 1) * u128::from(d).pow(r as u32);
        prop_assert!(exact <= bound);
    }

    #[test]
    fn x_s_exact_below_bound(d_pow in 1u32..5, q in 1u64..9, r in 0u64..4) {
        let d = 1u64 << d_pow;
        let size = 2 * r;
        if size <= q {
            let exact = x_s_count_exact(d, q, size) as f64;
            let bound = x_s_count_bound(d, q, size);
            prop_assert!(exact <= bound * (1.0 + 1e-9));
        }
    }

    #[test]
    fn duplicated_tuple_always_even(xs in prop::collection::vec(0u32..64, 1..8)) {
        // The tuple xs ++ xs restricted to all positions is evenly covered.
        let mut doubled = xs.clone();
        doubled.extend_from_slice(&xs);
        let all = (1u64 << doubled.len()) - 1;
        prop_assert!(is_evenly_covered(&doubled, all));
    }

    #[test]
    fn a_r_zero_subsets_always_one(xs in prop::collection::vec(0u32..16, 2..10)) {
        // The empty subset is trivially evenly covered: a_0(x) = 1.
        prop_assert_eq!(a_r_count(&xs, 0), 1);
    }
}
