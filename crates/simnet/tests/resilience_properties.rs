//! Property-based tests for the resilience layer's missing-policy
//! invariants and fault accounting.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use dut_simnet::{
    DecisionRule, IidFaults, MissingPolicy, Network, ReliablePlan, ResilientNetwork, Verdict,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic player whose bit depends only on its id, so runs
/// are comparable across policies and fault rates.
fn mask_player(reject_mask: u32) -> impl Fn(usize, usize, &mut StdRng) -> bool {
    move |player: usize, _q: usize, _rng: &mut StdRng| (reject_mask >> (player % 32)) & 1 == 0
}

proptest! {
    #[test]
    fn exclude_transcript_length_equals_delivered_count(
        k in 1usize..12,
        loss_milli in 0u32..1000,
        seed in 0u64..1 << 48,
        reject_mask in any::<u32>(),
    ) {
        // Under Exclude the referee votes on exactly the bits it heard:
        // the transcript length must equal the delivered-copy count —
        // the accounting invariant behind the bits_sent fix.
        let net = ResilientNetwork::new(k, MissingPolicy::Exclude);
        let mut plan = IidFaults::loss_only(f64::from(loss_milli) / 1000.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let majority = DecisionRule { min_rejects: k / 2 + 1 };
        let out = net.run(2, &majority, &mut plan, &mut rng, mask_player(reject_mask));
        prop_assert_eq!(out.transcript.messages.len() as u64, out.faults.delivered_bits);
        // And the books balance: every player's copy was either
        // delivered or lost.
        prop_assert_eq!(out.faults.delivered_bits + out.faults.lost, k as u64);
    }

    #[test]
    fn assume_reject_and_rule_monotone_in_loss(
        k in 1usize..12,
        lo_milli in 0u32..1000,
        hi_milli in 0u32..1000,
        seed in 0u64..1 << 48,
        reject_mask in any::<u32>(),
    ) {
        // With coupled fault seeds, raising the loss rate only adds
        // losses; AssumeReject converts each into a reject vote, so the
        // AND verdict can only move towards reject.
        let (lo, hi) = (lo_milli.min(hi_milli), lo_milli.max(hi_milli));
        let run_at = |milli: u32| -> Verdict {
            let net = ResilientNetwork::new(k, MissingPolicy::AssumeReject);
            let mut plan = IidFaults::loss_only(f64::from(milli) / 1000.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let and = DecisionRule { min_rejects: 1 };
            net.run(2, &and, &mut plan, &mut rng, mask_player(reject_mask))
                .verdict
        };
        let at_lo = run_at(lo);
        let at_hi = run_at(hi);
        prop_assert!(
            !(at_lo == Verdict::Reject && at_hi == Verdict::Accept),
            "losing more messages flipped AND back to accept ({lo} -> {hi} milli)"
        );
    }

    #[test]
    fn exclude_and_assume_accept_reach_the_same_threshold_verdict(
        k in 1usize..24,
        threshold_seed in any::<u32>(),
        loss_milli in 0u32..1000,
        seed in 0u64..1 << 48,
    ) {
        // A threshold referee counts only rejections, so reading a
        // silent player as an accept and dropping it from the vote give
        // the same verdict and the same reject count. Only the
        // transcript differs: AssumeAccept keeps all k bits, Exclude
        // only the delivered ones.
        let rule = DecisionRule { min_rejects: 1 + threshold_seed as usize % k };
        let run_under = |policy: MissingPolicy| {
            let net = ResilientNetwork::new(k, policy);
            let mut plan = IidFaults::loss_only(f64::from(loss_milli) / 1000.0);
            let mut rng = StdRng::seed_from_u64(seed);
            net.run(2, &rule, &mut plan, &mut rng, |_, _, rng: &mut StdRng| {
                rng.random_range(0..4u8) != 0
            })
        };
        let accept = run_under(MissingPolicy::AssumeAccept);
        let exclude = run_under(MissingPolicy::Exclude);
        prop_assert_eq!(accept.verdict, exclude.verdict);
        prop_assert_eq!(accept.transcript.reject_count(), exclude.transcript.reject_count());
        prop_assert_eq!(accept.faults, exclude.faults);
        prop_assert_eq!(accept.transcript.messages.len(), k);
        prop_assert_eq!(
            exclude.transcript.messages.len() as u64,
            k as u64 - exclude.faults.lost
        );
    }

    #[test]
    fn policies_agree_at_zero_fault_probability(
        k in 1usize..12,
        seed in 0u64..1 << 48,
        reject_mask in any::<u32>(),
    ) {
        // With nothing missing the three policies are the same
        // function, and all match the reliable network's verdict.
        let player = mask_player(reject_mask);
        let majority = DecisionRule { min_rejects: k / 2 + 1 };
        let verdict_under = |policy: MissingPolicy| -> Verdict {
            let net = ResilientNetwork::new(k, policy);
            let mut plan = IidFaults::loss_only(0.0);
            let mut rng = StdRng::seed_from_u64(seed);
            net.run(2, &majority, &mut plan, &mut rng, &player)
                .verdict
        };
        let exclude = verdict_under(MissingPolicy::Exclude);
        prop_assert_eq!(verdict_under(MissingPolicy::AssumeAccept), exclude);
        prop_assert_eq!(verdict_under(MissingPolicy::AssumeReject), exclude);

        let mut rng = StdRng::seed_from_u64(seed);
        let reliable = Network::new(k).run_nodes(
            vec![2; k],
            1,
            &mut rng,
            &player,
            |bits| majority.decide(bits),
        );
        prop_assert_eq!(reliable.verdict, exclude);

        // The reliable plan agrees too, and reports a clean fault log.
        let net = ResilientNetwork::new(k, MissingPolicy::Exclude);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = net.run(2, &majority, &mut ReliablePlan, &mut rng, &player);
        prop_assert_eq!(out.verdict, exclude);
        prop_assert_eq!(out.faults.lost + out.faults.byzantine_flips, 0);
    }
}
