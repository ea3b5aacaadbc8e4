//! Resilience integration: adversarial faults, recovery protocols, and
//! graceful degradation — the robustness reading of the paper's
//! locality trade-off. The headline result: one Byzantine player
//! breaks the AND rule outright, while a calibrated threshold rule
//! keeps two-sided error below 1/3 at the same `k`, `q`, `ε`.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use distributed_uniformity::obs::metrics::{global, Counter};
use distributed_uniformity::probability::families;
use distributed_uniformity::simnet::{
    byzantine_tolerance, rejection_rate, ByzantinePlan, FaultPlan, GilbertElliott, IidFaults,
    MissingPolicy, Recovery, ResilientNetwork, TargetedLoss,
};
use distributed_uniformity::testers::{PreparedThresholdTester, TThresholdTester};

const N: usize = 256;
const K: usize = 16;
const EPS: f64 = 0.9;
const TRIALS: usize = 90;
const MASTER_SEED: u64 = 20_190_729;

/// Well-provisioned sample budget: every honest node detects the far
/// input with high probability.
const Q_STRONG: usize = 100;
/// Just-provisioned budget: per-node detection is scarce (≈ 0.2), the
/// regime where the AND rule's single-alarm locality is load-bearing.
const Q_SCARCE: usize = 40;

/// The T-threshold protocol at (N, K, q) with referee threshold `t`.
fn rule(t: usize, q: usize) -> PreparedThresholdTester {
    TThresholdTester::new(N, K, t).prepare(q)
}

#[test]
fn one_byzantine_flipper_breaks_and_but_not_calibrated_threshold() {
    // Acceptance criterion: with a single Byzantine bit-flipper the AND
    // rule's error exceeds 1/3 while Threshold{4} stays two-sided below
    // 1/3 at the same k, q, ε. Deterministic: fixed master seed,
    // per-trial derived seeds.
    let t = 4;
    let uniform = families::uniform(N).alias_sampler();
    let far = families::two_level(N, EPS).unwrap().alias_sampler();
    let net = ResilientNetwork::new(K, MissingPolicy::AssumeAccept);

    // Predicted tolerance: And (T=1) tolerates zero Byzantine players;
    // Threshold{4} on 16 players tolerates min(3, 12) = 3 ≥ 1.
    let and = rule(1, Q_STRONG);
    let thr = rule(t, Q_STRONG);
    assert_eq!(byzantine_tolerance(&and.referee(), K), 0);
    assert_eq!(byzantine_tolerance(&thr.referee(), K), 3);

    let measure = |prepared: &PreparedThresholdTester, sampler: &_, stream: u64| {
        let mut plan = ByzantinePlan::flippers(1);
        rejection_rate(TRIALS, MASTER_SEED, stream, |rng| {
            prepared.run_faulty(&net, &mut plan, sampler, rng)
        })
    };

    // The flipper converts its near-certain accept on uniform into a
    // reject, and AND needs only one: false-alarm rate ≈ 1.
    let and_uniform = measure(&and, &uniform, 0);
    assert!(
        and_uniform.error_on_uniform() > 1.0 / 3.0,
        "AND with one flipper should exceed 1/3 error on uniform, got {}",
        and_uniform.error_on_uniform()
    );

    // The calibrated threshold rule shrugs: one forged reject cannot
    // reach T=4 on uniform, and one erased reject leaves ≥ T honest
    // alarms on the far input.
    let thr_uniform = measure(&thr, &uniform, 1);
    let thr_far = measure(&thr, &far, 2);
    assert!(
        thr_uniform.error_on_uniform() < 1.0 / 3.0,
        "threshold false-alarm rate {} too high",
        thr_uniform.error_on_uniform()
    );
    assert!(
        thr_far.error_on_far() < 1.0 / 3.0,
        "threshold missed-detection rate {} too high",
        thr_far.error_on_far()
    );

    // The flipper really flipped bits, and the counter saw it.
    assert!(global().counter(Counter::FaultByzantineFlips) > 0);
}

#[test]
fn error_curves_are_monotone_under_iid_and_bursty_loss() {
    // Graceful degradation, measured: And + AssumeAccept on the far
    // input only loses alarms as the fault rate grows, and thanks to
    // the coupling discipline the measured curve is monotone per seed —
    // not merely in expectation — under both iid and Gilbert–Elliott
    // loss.
    let far = families::two_level(N, EPS).unwrap().alias_sampler();
    let net = ResilientNetwork::new(K, MissingPolicy::AssumeAccept);
    let and = rule(1, Q_SCARCE);

    let sweep = |rates: &[f64], mk: &dyn Fn(f64) -> Box<dyn FaultPlan>| {
        rates
            .iter()
            .map(|&rate| {
                let mut plan = mk(rate);
                rejection_rate(TRIALS, MASTER_SEED, 7, |rng| {
                    and.run_faulty(&net, plan.as_mut(), &far, rng)
                })
                .error_on_far()
            })
            .collect::<Vec<f64>>()
    };

    let iid_rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let iid_errors = sweep(&iid_rates, &|r| Box::new(IidFaults::loss_only(r)));
    let ge_rates = [0.0, 0.1, 0.2, 0.3, 0.37];
    let ge_errors = sweep(&ge_rates, &|r| {
        Box::new(GilbertElliott::bursty_with_mean_loss(r))
    });

    for errors in [&iid_errors, &ge_errors] {
        for pair in errors.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "error-vs-rate curve not monotone: {errors:?}"
            );
        }
    }
    // And the degradation is real, not flat.
    assert!(iid_errors[5] > iid_errors[0]);
    assert!(ge_errors[4] > ge_errors[0]);
}

#[test]
fn recovery_restores_and_detection_and_is_charged_to_the_budget() {
    // 70% loss starves the just-provisioned AND rule of alarms; both
    // recovery mechanisms restore most of its detection, and every
    // redundant copy they deliver is charged to the communication
    // budget (bits_sent) and surfaced through the new counters.
    let far = families::two_level(N, EPS).unwrap().alias_sampler();
    let loss = 0.7;
    let and = rule(1, Q_SCARCE);

    let detect = |recovery: Recovery| {
        let net = ResilientNetwork::new(K, MissingPolicy::AssumeAccept).with_recovery(recovery);
        let mut plan = IidFaults::loss_only(loss);
        rejection_rate(TRIALS, MASTER_SEED, 11, |rng| {
            and.run_faulty(&net, &mut plan, &far, rng)
        })
    };

    let registry = global();
    let bits_before = registry.counter(Counter::BitsSent);
    let retries_before = registry.counter(Counter::FaultRetries);
    let redundant_before = registry.counter(Counter::FaultRedundantBits);
    let recovered_before = registry.counter(Counter::FaultRecoveredBits);
    let timeouts_before = registry.counter(Counter::FaultTimeouts);

    let bare = detect(Recovery::None);
    let repetition = detect(Recovery::Repetition { copies: 5 });
    let ack = detect(Recovery::AckRetry { max_attempts: 5 });

    // Recovery closes most of the gap that loss opened.
    assert!(
        repetition.rejection_rate > bare.rejection_rate + 0.1,
        "repetition did not help: {} -> {}",
        bare.rejection_rate,
        repetition.rejection_rate
    );
    assert!(
        ack.rejection_rate > bare.rejection_rate + 0.1,
        "ack-retry did not help: {} -> {}",
        bare.rejection_rate,
        ack.rejection_rate
    );
    // Blind repetition pays for redundancy whether needed or not;
    // ack-retry delivers at most one copy per player, so it is
    // strictly cheaper.
    assert!(repetition.mean_delivered_bits > ack.mean_delivered_bits);
    assert!(ack.mean_delivered_bits < K as f64 + 0.5);
    assert!(ack.mean_retries > 0.0);

    // The budget saw the redundant copies: without recovery three arms
    // of TRIALS runs at 70% loss would deliver ≈ 3·TRIALS·k·0.3 bits;
    // recovery must push the total well past that.
    let bits_delta = registry.counter(Counter::BitsSent) - bits_before;
    let bare_expectation = (3 * TRIALS * K) as u64 * 3 / 10;
    assert!(
        bits_delta > 2 * bare_expectation,
        "recovery bits not charged: {bits_delta} <= {}",
        2 * bare_expectation
    );
    assert!(registry.counter(Counter::FaultRetries) > retries_before);
    assert!(registry.counter(Counter::FaultRedundantBits) > redundant_before);
    assert!(registry.counter(Counter::FaultRecoveredBits) > recovered_before);
    // At 70% per-copy loss some players exhaust even five attempts.
    assert!(registry.counter(Counter::FaultTimeouts) > timeouts_before);
}

#[test]
fn targeted_adversary_beats_iid_loss_at_the_same_budget() {
    // An adversary that deletes the three most damaging messages per
    // round (alarms, under AND) collapses detection in the scarce-alarm
    // regime; iid loss with the same expected drop count (3 of 16
    // messages) barely dents it. Locality is exactly what the
    // adversary exploits.
    let far = families::two_level(N, EPS).unwrap().alias_sampler();
    let net = ResilientNetwork::new(K, MissingPolicy::AssumeAccept);
    let budget = 3;
    let and = rule(1, Q_SCARCE);

    let mut targeted = TargetedLoss::alarm_silencer(budget);
    let targeted_detection = rejection_rate(TRIALS, MASTER_SEED, 13, |rng| {
        and.run_faulty(&net, &mut targeted, &far, rng)
    })
    .rejection_rate;

    let mut iid = IidFaults::loss_only(budget as f64 / K as f64);
    let iid_detection = rejection_rate(TRIALS, MASTER_SEED, 13, |rng| {
        and.run_faulty(&net, &mut iid, &far, rng)
    })
    .rejection_rate;

    assert!(
        targeted_detection < iid_detection - 0.3,
        "targeted ({targeted_detection}) should be far worse than iid ({iid_detection})"
    );

    // Against a well-provisioned Threshold{4} the budget-1 silencer is
    // powerless: it erases one alarm per round but ≥ T arrive.
    let thr = rule(4, Q_STRONG);
    let mut silencer = TargetedLoss::alarm_silencer(1);
    let thr_detection = rejection_rate(TRIALS, MASTER_SEED, 17, |rng| {
        thr.run_faulty(&net, &mut silencer, &far, rng)
    })
    .rejection_rate;
    assert!(
        thr_detection > 2.0 / 3.0,
        "threshold detection under targeted loss: {thr_detection}"
    );
}
