//! Property-based tests for the network model and decision rules.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use dut_probability::Sampler;
use dut_simnet::{DecisionRule, Network, RateVector, Verdict};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #[test]
    fn and_rule_monotone_in_rejections(bits in prop::collection::vec(prop::bool::ANY, 1..20)) {
        // Flipping any accept to reject can only move AND towards reject.
        let and = DecisionRule { min_rejects: 1 };
        let before = and.decide(&bits);
        for i in 0..bits.len() {
            if bits[i] {
                let mut flipped = bits.clone();
                flipped[i] = false;
                let after = and.decide(&flipped);
                prop_assert!(!(before == Verdict::Reject && after == Verdict::Accept));
            }
        }
    }

    #[test]
    fn threshold_rule_monotone_in_threshold(
        bits in prop::collection::vec(prop::bool::ANY, 1..20),
        t in 1usize..20,
    ) {
        // A stricter (smaller) threshold rejects whenever a looser one does...
        // precisely: if reject at threshold t+1 then reject at t.
        let loose = DecisionRule { min_rejects: t + 1 }.decide(&bits);
        let strict = DecisionRule { min_rejects: t }.decide(&bits);
        prop_assert!(!(loose == Verdict::Reject && strict == Verdict::Accept));
    }

    #[test]
    fn majority_agrees_with_count(bits in prop::collection::vec(prop::bool::ANY, 1..20)) {
        // Majority is the threshold k/2 + 1: reject iff strictly more
        // than half of the players reject.
        let rejects = bits.iter().filter(|&&b| !b).count();
        let expected = if 2 * rejects > bits.len() {
            Verdict::Reject
        } else {
            Verdict::Accept
        };
        let majority = DecisionRule { min_rejects: bits.len() / 2 + 1 };
        prop_assert_eq!(majority.decide(&bits), expected);
    }

    #[test]
    fn rate_vector_norms_consistent(rates in prop::collection::vec(0.1f64..10.0, 1..20)) {
        let rv = RateVector::new(rates.clone());
        // l2 <= l1 <= sqrt(k) * l2 (standard norm inequalities).
        prop_assert!(rv.l2_norm() <= rv.l1_norm() + 1e-9);
        prop_assert!(rv.l1_norm() <= (rates.len() as f64).sqrt() * rv.l2_norm() + 1e-9);
    }

    #[test]
    fn samples_for_time_monotone_in_tau(
        rates in prop::collection::vec(0.1f64..10.0, 1..10),
        tau in 1.0f64..100.0,
    ) {
        let rv = RateVector::new(rates);
        let a = rv.samples_for_time(tau);
        let b = rv.samples_for_time(tau * 2.0);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(y >= x);
        }
    }

    #[test]
    fn network_transcript_is_consistent(
        k in 1usize..12,
        q in 0usize..16,
        seed in any::<u64>(),
        accept_threshold in 0usize..16,
    ) {
        let net = Network::new(k);
        let majority = DecisionRule { min_rejects: k / 2 + 1 };
        let sampler = dut_probability::families::uniform(8).alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let out = net.run_nodes(
            vec![q; k],
            1,
            &mut rng,
            |_, q, rng| sampler.sample_many(q, rng).iter().sum::<usize>() >= accept_threshold,
            |bits| majority.decide(bits),
        );
        prop_assert_eq!(out.transcript.messages.len(), k);
        prop_assert_eq!(out.transcript.total_samples(), k * q);
        // Verdict must equal re-applying the rule to the transcript bits.
        let replay = majority.decide(&out.transcript.messages);
        prop_assert_eq!(out.verdict, replay);
    }

}
