//! Fault-injection integration: what happens to the paper's decision
//! rules when the network is unreliable — the systems-facing
//! consequence of the locality trade-off.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use distributed_uniformity::probability::{families, Sampler};
use distributed_uniformity::simnet::{DecisionRule, IidFaults, MissingPolicy, ResilientNetwork};
use distributed_uniformity::testers::TThresholdTester;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A collision-counting node that accepts counts below `threshold`,
/// drawing from `sampler`.
fn node<S: Sampler>(
    sampler: &S,
    threshold: u64,
) -> impl Fn(usize, usize, &mut StdRng) -> bool + '_ {
    move |_, q, rng| sampler.collision_count(q, rng) < threshold
}

#[test]
fn and_rule_loses_alarms_to_message_loss() {
    // The far side: a well-provisioned AND-rule tester detects the bad
    // distribution reliably on a perfect network, but with 30% message
    // loss and the natural assume-accept policy its detection rate
    // collapses; the counting rule barely moves.
    let n = 256;
    let eps = 0.9;
    let k = 16;
    let trials = 150;
    let far = families::two_level(n, eps).unwrap().alias_sampler();
    let tester = TThresholdTester::new(n, k, 1);

    let detection = |q: usize, loss: f64, seed: u64| -> f64 {
        let prepared = tester.prepare(q);
        let net = ResilientNetwork::new(k, MissingPolicy::AssumeAccept);
        let mut plan = IidFaults::loss_only(loss);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..trials)
            .filter(|_| {
                prepared
                    .run_faulty(&net, &mut plan, &far, &mut rng)
                    .verdict
                    .is_reject()
            })
            .count() as f64
            / f64::from(trials as u32)
    };

    // Self-calibrate: the minimal q where the fault-free AND rule just
    // reaches reliable detection — the regime where a single alarm
    // carries the verdict.
    let q = distributed_uniformity::stats::search::minimal_sufficient(4, 1 << 12, |q| {
        detection(q, 0.0, 1) >= 0.75
    })
    .minimal;
    let reliable = detection(q, 0.0, 2);
    let lossy = detection(q, 0.5, 3);
    assert!(
        reliable > 2.0 / 3.0,
        "reliable detection at q={q}: {reliable}"
    );
    assert!(
        lossy < reliable - 0.12,
        "50% loss should hurt the just-provisioned AND rule: {reliable} -> {lossy} (q={q})"
    );
}

#[test]
fn majority_rule_robust_to_moderate_loss() {
    // A majority vote (threshold k/2 + 1) degrades gracefully: with
    // most nodes rejecting the far input, losing 37% of messages
    // rarely flips the verdict.
    let n = 256;
    let k = 32;
    let q = 120;
    let trials = 120;
    let far = families::point_mass(n, 0).unwrap().alias_sampler();
    // Every node sees massive collisions on a point mass and rejects.
    let player = node(&far, 1);
    let mut rng = StdRng::seed_from_u64(3);
    let net = ResilientNetwork::new(k, MissingPolicy::AssumeAccept);
    let mut plan = IidFaults::loss_only(0.37);
    let majority = DecisionRule {
        min_rejects: k / 2 + 1,
    };
    let detected = (0..trials)
        .filter(|_| {
            net.run(q, &majority, &mut plan, &mut rng, &player)
                .verdict
                .is_reject()
        })
        .count();
    // Theory: each alarm survives loss w.p. 0.63, so the reject count
    // is Binomial(32, 0.63) and exceeds k/2 = 16 about 91% of the time.
    // Assert well below the mean so the margin absorbs binomial noise
    // over 120 trials.
    assert!(
        detected as f64 / f64::from(trials as u32) > 0.8,
        "majority detection under faults = {detected}/{trials}"
    );
}

#[test]
fn assume_reject_trades_false_alarms_for_safety() {
    // Under the fail-safe policy the AND rule never misses (silence is
    // an alarm), but uniform inputs now trip it at roughly the fault
    // rate aggregated over k nodes.
    let n = 256;
    let k = 16;
    let q = 40;
    let trials = 150;
    let uniform = families::uniform(n).alias_sampler();
    let player = node(&uniform, u64::MAX); // local test never rejects
    let mut rng = StdRng::seed_from_u64(4);
    let net = ResilientNetwork::new(k, MissingPolicy::AssumeReject);
    let mut plan = IidFaults::loss_only(0.05);
    let false_alarms = (0..trials)
        .filter(|_| {
            let and = DecisionRule { min_rejects: 1 };
            net.run(q, &and, &mut plan, &mut rng, &player)
                .verdict
                .is_reject()
        })
        .count() as f64
        / f64::from(trials as u32);
    // Pr[any of 16 messages lost] = 1 - 0.95^16 ~ 0.56.
    assert!(
        (0.35..0.75).contains(&false_alarms),
        "false alarm rate {false_alarms}"
    );
}

#[test]
fn exclude_policy_preserves_two_sided_guarantee_under_loss() {
    // Dropping silent players keeps a rule calibrated to the heard
    // bits working as long as enough messages get through: with 25%
    // loss the referee hears about 36 of 48 bits and rejects on a
    // majority of those, 19.
    let n = 512;
    let eps = 0.8;
    let k = 48;
    let q = 100;
    let trials = 120;
    let uniform = families::uniform(n).alias_sampler();
    let far = families::two_level(n, eps).unwrap().alias_sampler();
    // Midpoint local bit, as the balanced tester uses.
    let lambda = (q * (q - 1)) as f64 / 2.0 / n as f64;
    let midpoint = lambda * (1.0 + eps * eps / 2.0);
    let net = ResilientNetwork::new(k, MissingPolicy::Exclude);
    let mut plan = IidFaults::loss_only(0.25);
    let rule = DecisionRule { min_rejects: 19 };
    let mut rng = StdRng::seed_from_u64(5);
    let ok = (0..trials)
        .filter(|_| {
            net.run(q, &rule, &mut plan, &mut rng, |_ctx, q, rng| {
                uniform.collision_count(q, rng) as f64 <= midpoint
            })
            .verdict
            .is_accept()
        })
        .count() as f64
        / f64::from(trials as u32);
    let alarm = (0..trials)
        .filter(|_| {
            net.run(q, &rule, &mut plan, &mut rng, |_ctx, q, rng| {
                far.collision_count(q, rng) as f64 <= midpoint
            })
            .verdict
            .is_reject()
        })
        .count() as f64
        / f64::from(trials as u32);
    assert!(ok > 2.0 / 3.0, "completeness under loss = {ok}");
    assert!(alarm > 2.0 / 3.0, "soundness under loss = {alarm}");
}
