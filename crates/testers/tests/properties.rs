//! Property-based tests for the tester library.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]
use dut_probability::{families, DenseDistribution, Sampler};
use dut_testers::centralized::CentralizedTester;
use dut_testers::poisson::{poisson_threshold_for_tail, poisson_upper_tail};
use dut_testers::reduction::IdentityToUniformityReduction;
use dut_testers::{Chi2Tester, CollisionTester, PaninskiTester, TThresholdTester};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn arb_full_support_distribution() -> impl Strategy<Value = DenseDistribution> {
    prop::collection::vec(0.05f64..1.0, 4..40)
        .prop_map(|w| DenseDistribution::from_weights(w).expect("positive weights"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collision_threshold_monotone_in_q(n in 4usize..1000, eps_i in 1u32..=10) {
        let eps = f64::from(eps_i) / 10.0;
        let tester = CollisionTester::new(n, eps);
        prop_assert!(tester.threshold(10) <= tester.threshold(20));
        prop_assert!(tester.threshold(2) >= 0.0);
    }

    #[test]
    fn collision_verdict_deterministic(samples in prop::collection::vec(0usize..64, 0..200)) {
        let tester = CollisionTester::new(64, 0.5);
        prop_assert_eq!(tester.test(&samples), tester.test(&samples));
    }

    #[test]
    fn paninski_threshold_between_means(n_pow in 3u32..12, q_frac in 0.1f64..2.0) {
        let n = 1usize << n_pow;
        let tester = PaninskiTester::new(n, 0.5);
        let q = ((n as f64).sqrt() * q_frac).ceil() as usize + 2;
        let t = tester.threshold(q);
        prop_assert!(t >= tester.uniform_expectation(q));
        prop_assert!(t <= tester.far_expectation(q) + 1e-9);
    }

    #[test]
    fn chi2_accepts_its_own_reference_in_expectation(d in arb_full_support_distribution()) {
        // The statistic's mean under the reference is -1 < threshold.
        let tester = Chi2Tester::new(d.clone(), 0.5);
        let sampler = d.alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let q = 2000;
        let mut mean_stat = 0.0;
        let reps = 5;
        for _ in 0..reps {
            let samples = sampler.sample_many(q, &mut rng);
            mean_stat += tester.statistic(&samples);
        }
        mean_stat /= f64::from(reps);
        prop_assert!(mean_stat < tester.threshold(q), "mean statistic {mean_stat}");
    }

    #[test]
    fn poisson_threshold_tail_guarantee(lambda in 0.01f64..50.0, alpha_i in 1u32..=6) {
        let alpha = 10f64.powi(-(alpha_i as i32));
        let t = poisson_threshold_for_tail(lambda, alpha);
        prop_assert!(poisson_upper_tail(lambda, t) <= alpha);
    }

    #[test]
    fn poisson_tail_decreasing(lambda in 0.1f64..30.0, t in 0u64..50) {
        prop_assert!(
            poisson_upper_tail(lambda, t + 1) <= poisson_upper_tail(lambda, t) + 1e-12
        );
    }

    #[test]
    fn t_threshold_node_threshold_monotone_in_t(
        k_pow in 2u32..10,
        q in 4usize..200,
    ) {
        let n = 1 << 10;
        let k = 1usize << k_pow;
        // Larger T -> larger FP budget -> lower (or equal) node threshold.
        let t1 = TThresholdTester::new(n, k, 1).node_threshold(q);
        let t2 = TThresholdTester::new(n, k, (k / 2).max(2).min(k)).node_threshold(q);
        prop_assert!(t2 <= t1);
    }

    #[test]
    fn threshold_run_stops_at_the_node_that_settles_its_referee(
        half_n in 4usize..256,
        k in 1usize..24,
        q in 2usize..60,
        t_share in 0.0f64..1.0,
        budget in 0.001f64..0.49,
        far in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // `t_share` picks the referee threshold T in 1..=k, and the node
        // budget picks the node threshold t.
        let n = 2 * half_n;
        let min_rejects = (1 + (t_share * k as f64) as usize).min(k);
        let prepared = TThresholdTester::new(n, k, min_rejects)
            .with_node_false_positive_budget(budget)
            .prepare(q);
        let input = if far {
            families::two_level(n, 0.9).expect("even n")
        } else {
            families::uniform(n)
        };
        let sampler = input.alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        // Every node's bit, counted by hand on a clone of the generator:
        // the skipped word, then k collision counts against t.
        let mut full_rng = rng.clone();
        let _: u64 = full_rng.random();
        let mut heard_rng = None;
        let mut stop = None;
        let mut rejects = 0;
        let mut full = Vec::with_capacity(k);
        for node in 0..=k {
            // The first prefix after which T rejections are in, or the
            // rejections so far plus the nodes left cannot reach T.
            if stop.is_none() && (rejects >= min_rejects || rejects + (k - node) < min_rejects) {
                stop = Some(node);
                heard_rng = Some(full_rng.clone());
            }
            if node < k {
                let accept = sampler.collision_count(q, &mut full_rng) <= prepared.node_max_count();
                rejects += usize::from(!accept);
                full.push(accept);
            }
        }
        let stop = stop.expect("the full count settles the referee");

        let out = prepared.run(&sampler, &mut rng);
        prop_assert_eq!(out.verdict, prepared.referee().decide(&full));
        prop_assert_eq!(&out.transcript.messages[..], &full[..stop]);
        prop_assert_eq!(out.transcript.samples_drawn, vec![q; stop]);
        prop_assert_eq!(Some(rng), heard_rng);
    }

    #[test]
    fn reduction_output_in_range(
        d in arb_full_support_distribution(),
        seed in any::<u64>(),
    ) {
        let reduction = IdentityToUniformityReduction::new(d.clone(), 0.5)
            .expect("valid epsilon");
        let sampler = d.alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let out = reduction.transform_stream(&sampler, &mut rng);
            prop_assert!(out < reduction.output_domain_size());
        }
    }

    #[test]
    fn reduction_pushforward_is_distribution(d in arb_full_support_distribution()) {
        let reduction = IdentityToUniformityReduction::new(d.clone(), 0.25)
            .expect("valid epsilon");
        let (out, bot) = reduction.output_distribution(&d);
        prop_assert!((0.0..1.0).contains(&bot));
        let sum: f64 = out.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_matching_reference_gives_uniform(d in arb_full_support_distribution()) {
        let reduction = IdentityToUniformityReduction::new(d.clone(), 0.4)
            .expect("valid epsilon");
        let (out, _) = reduction.output_distribution(&d);
        let uniform = families::uniform(reduction.output_domain_size());
        prop_assert!(dut_probability::distance::l1_distance(&out, &uniform) < 1e-9);
    }
}
