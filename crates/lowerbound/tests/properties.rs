//! Property-based tests for the lower-bound machinery: the paper's
//! inequalities as universally-quantified properties over random
//! player functions and parameters.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use dut_lowerbound::{claim31, exact, lemmas, player, theory};
use dut_probability::{PairedDomain, PerturbationVector};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_table_function(ell: u32, q: usize) -> impl Strategy<Value = player::TableFunction> {
    let bits = (ell + 1) * q as u32;
    prop::collection::vec(prop::bool::ANY, 1usize << bits).prop_map(move |values| {
        let table =
            dut_fourier::BooleanFunction::from_values(values.into_iter().map(f64::from).collect());
        player::TableFunction::new(PairedDomain::new(ell), q, table)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lemma_5_1_universal(g in arb_table_function(2, 2), eps_i in 1u32..=9) {
        let dom = PairedDomain::new(2);
        let eps = f64::from(eps_i) / 10.0;
        let check = lemmas::check_lemma_5_1(&dom, 2, eps, &g);
        prop_assert!(check.holds(), "{check:?}");
    }

    #[test]
    fn lemma_4_2_universal(g in arb_table_function(2, 2), eps_i in 1u32..=9) {
        let dom = PairedDomain::new(2);
        let eps = f64::from(eps_i) / 10.0;
        let check = lemmas::check_lemma_4_2(&dom, 2, eps, &g);
        prop_assert!(check.holds(), "{check:?}");
    }

    #[test]
    fn lemma_4_3_universal(g in arb_table_function(2, 1), eps_i in 1u32..=5, m in 1u32..=3) {
        let dom = PairedDomain::new(2);
        let eps = f64::from(eps_i) / 10.0;
        let check = lemmas::check_lemma_4_3(&dom, 1, eps, m, &g);
        prop_assert!(check.holds(), "{check:?}");
    }

    #[test]
    fn nu_g_is_probability(g in arb_table_function(2, 2), code in 0u64..16, eps_i in 0u32..=10) {
        let dom = PairedDomain::new(2);
        let z = PerturbationVector::from_code(dom.cube_size(), code);
        let eps = f64::from(eps_i) / 10.0;
        let nu = exact::nu_g(&dom, 2, &g, &z, eps);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&nu));
    }

    #[test]
    fn second_moment_bounds_first_squared(g in arb_table_function(2, 2), eps_i in 1u32..=9) {
        // Jensen: |E_z[dev]|^2 <= E_z[dev^2].
        let dom = PairedDomain::new(2);
        let eps = f64::from(eps_i) / 10.0;
        let m = exact::z_moments_exact(&dom, 2, &g, eps);
        prop_assert!(m.first_moment_abs().powi(2) <= m.second_moment + 1e-12);
        prop_assert!(m.second_moment <= m.max_abs_deviation.powi(2) + 1e-12);
    }

    #[test]
    fn claim_3_1_pointwise(
        code in any::<u64>(),
        eps in 0.0f64..=1.0,
        tuple_seed in any::<u64>(),
        q in 1usize..5,
    ) {
        let dom = PairedDomain::new(3);
        let z = PerturbationVector::from_code(dom.cube_size(), code & 0xFF);
        let mut rng = rand::rngs::StdRng::seed_from_u64(tuple_seed);
        use rand::Rng;
        let xs: Vec<u32> = (0..q).map(|_| rng.random_range(0..8)).collect();
        let ss: Vec<i8> = (0..q).map(|_| if rng.random::<bool>() { 1 } else { -1 }).collect();
        let lhs = claim31::density_product(&dom, &z, eps, &xs, &ss);
        let rhs = claim31::density_expansion(&dom, &z, eps, &xs, &ss);
        prop_assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn b_x_is_even_cover_indicator(
        xs in prop::collection::vec(0u32..4, 1..6),
        subset_bits in any::<u64>(),
    ) {
        let dom = PairedDomain::new(2);
        let subset = subset_bits & ((1u64 << xs.len()) - 1);
        let exact_b = claim31::b_x_exact(&dom, &xs, subset);
        prop_assert!((exact_b - claim31::b_x_predicted(&xs, subset)).abs() < 1e-12);
    }

    #[test]
    fn theorem_formulas_monotone(
        n_pow in 4u32..20,
        k_pow in 0u32..10,
        eps_i in 1u32..=10,
    ) {
        let n = 1usize << n_pow;
        let k = 1usize << k_pow;
        let eps = f64::from(eps_i) / 10.0;
        // More players never increases the required samples.
        prop_assert!(theory::theorem_1_1(n, 2 * k, eps) <= theory::theorem_1_1(n, k, eps) + 1e-9);
        prop_assert!(theory::theorem_1_2(n, 2 * k, eps) <= theory::theorem_1_2(n, k, eps) + 1e-9);
        // Larger domains never decrease it.
        prop_assert!(theory::theorem_1_1(2 * n, k, eps) >= theory::theorem_1_1(n, k, eps) - 1e-9);
        // Smaller epsilon is harder.
        if eps_i >= 2 {
            let smaller = f64::from(eps_i - 1) / 10.0;
            prop_assert!(theory::theorem_1_1(n, k, smaller) >= theory::theorem_1_1(n, k, eps));
        }
        // The r-bit bound interpolates: r bits at k players = 1 bit at 2^r k.
        prop_assert!(
            (theory::theorem_6_4(n, k, eps, 3) - theory::theorem_1_1(n, 8 * k, eps)).abs()
                < 1e-9
        );
    }

    #[test]
    fn encode_decode_tuple_roundtrip(
        samples in prop::collection::vec((0u32..8, prop::bool::ANY), 1..5),
    ) {
        let dom = PairedDomain::new(3);
        let tuple: Vec<player::PairedSample> = samples
            .into_iter()
            .map(|(x, neg)| (x, if neg { -1 } else { 1 }))
            .collect();
        let mask = player::encode_tuple(&dom, &tuple);
        prop_assert_eq!(player::decode_tuple(&dom, mask, tuple.len()), tuple);
    }
}
