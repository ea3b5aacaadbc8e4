//! E12 — fault tolerance and graceful degradation: how the paper's
//! decision rules survive an unreliable network.
//!
//! Three measurements, all with the T-threshold collision protocol at
//! a fixed `(n, k, ε)`:
//!
//! 1. **Degradation curves** — two-sided error versus fault rate under
//!    iid and Gilbert–Elliott (bursty) message loss, for the AND rule
//!    and a calibrated `Threshold{4}` rule, under each missing-bit
//!    policy. Every cell (model, rate, rule, policy) draws its trials
//!    from a fresh fault stream, so the rates are not coupled: a curve
//!    moves with the rate in expectation, and a step smaller than the
//!    Monte Carlo noise can go the other way.
//! 2. **Recovery** — detection restored (and bits charged) by blind
//!    repetition and ack/retry at heavy loss, in the scarce-alarm
//!    regime where the AND rule's single alarm is load-bearing.
//! 3. **Byzantine tolerance** — measured break point in the number of
//!    bit-flipping players (one less than the first count whose
//!    two-sided error exceeds 1/3), next to the predicted
//!    `min(T-1, k-T)`.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e12_fault_tolerance
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an experiment binary prints its tables, and a broken setup invariant ends the run"
)]

use dut_bench::Harness;
use dut_core::probability::families;
use dut_core::simnet::{
    byzantine_tolerance, measured_byzantine_tolerance, rejection_rate, ByzantinePlan, FaultPlan,
    GilbertElliott, IidFaults, MissingPolicy, Recovery, ResilientNetwork,
};
use dut_core::stats::table::Table;
use dut_core::testers::TThresholdTester;

const N: usize = 256;
const K: usize = 16;
const EPS: f64 = 0.9;
/// Well-provisioned budget: every honest node detects the far input.
const Q_STRONG: usize = 100;
/// Just-provisioned budget: per-node detection is scarce (≈ 0.2), the
/// regime where faults bite hardest.
const Q_SCARCE: usize = 40;

fn policy_name(policy: MissingPolicy) -> &'static str {
    match policy {
        MissingPolicy::AssumeAccept => "assume-accept",
        MissingPolicy::AssumeReject => "assume-reject",
        MissingPolicy::Exclude => "exclude",
    }
}

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e12_fault_tolerance");
    let trials = usize::try_from(harness.trials).expect("trials fits usize");
    println!("# E12 — fault tolerance (n = {N}, k = {K}, eps = {EPS}, trials = {trials})\n");

    let uniform = families::uniform(N).alias_sampler();
    let far = families::two_level(N, EPS)
        .expect("valid far instance")
        .alias_sampler();
    let mut stream: u64 = 12_000;
    let mut next_stream = || {
        stream += 1;
        stream
    };

    // --- 1. degradation curves: rate x model x rule x policy ---
    println!("## graceful degradation under message loss\n");
    let iid_rates: &[f64] = &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    // The bursty channel's mean loss tops out at its stationary
    // bad-state probability (~0.375).
    let ge_rates: &[f64] = &[0.0, 0.1, 0.2, 0.3, 0.37];
    type PlanMaker = Box<dyn Fn(f64) -> Box<dyn FaultPlan>>;
    let models: Vec<(&str, &[f64], PlanMaker)> = vec![
        (
            "iid",
            iid_rates,
            Box::new(|r| Box::new(IidFaults::loss_only(r))),
        ),
        (
            "ge",
            ge_rates,
            Box::new(|r| Box::new(GilbertElliott::bursty_with_mean_loss(r))),
        ),
    ];
    let rules = [
        ("and", TThresholdTester::new(N, K, 1)),
        ("thr4", TThresholdTester::new(N, K, 4)),
    ];
    let policies = [
        MissingPolicy::AssumeAccept,
        MissingPolicy::AssumeReject,
        MissingPolicy::Exclude,
    ];
    let mut degradation = Table::new(vec![
        "model".into(),
        "rate".into(),
        "rule".into(),
        "policy".into(),
        "err_uniform".into(),
        "err_far".into(),
        "bits/run".into(),
    ]);
    for (model_name, rates, mk_plan) in &models {
        for (rule_name, tester) in &rules {
            let prepared = tester.prepare(Q_SCARCE);
            for policy in policies {
                let net = ResilientNetwork::new(K, policy);
                for &rate in *rates {
                    let s = next_stream();
                    let mut plan_u = mk_plan(rate);
                    let on_uniform = rejection_rate(trials, harness.seed, s, |rng| {
                        prepared.run_faulty(&net, plan_u.as_mut(), &uniform, rng)
                    });
                    let mut plan_f = mk_plan(rate);
                    let on_far = rejection_rate(trials, harness.seed, s + 500, |rng| {
                        prepared.run_faulty(&net, plan_f.as_mut(), &far, rng)
                    });
                    degradation.push_row(vec![
                        (*model_name).to_owned(),
                        format!("{rate:.2}"),
                        (*rule_name).to_owned(),
                        policy_name(policy).to_owned(),
                        format!("{:.3}", on_uniform.error_on_uniform()),
                        format!("{:.3}", on_far.error_on_far()),
                        format!("{:.1}", on_far.mean_delivered_bits),
                    ]);
                }
            }
        }
    }
    harness.save("e12_degradation", &degradation);

    // --- 2. recovery at heavy loss ---
    println!("## recovery at 70% iid loss (AND rule, scarce alarms)\n");
    let recoveries: &[(&str, Recovery)] = &[
        ("none", Recovery::None),
        ("repeat:3", Recovery::Repetition { copies: 3 }),
        ("repeat:5", Recovery::Repetition { copies: 5 }),
        ("ack:3", Recovery::AckRetry { max_attempts: 3 }),
        ("ack:5", Recovery::AckRetry { max_attempts: 5 }),
    ];
    let mut recovery_table = Table::new(vec![
        "recovery".into(),
        "detection (far)".into(),
        "bits/run".into(),
        "retries/run".into(),
    ]);
    let loss = 0.7;
    let and_rule = TThresholdTester::new(N, K, 1).prepare(Q_SCARCE);
    for &(name, recovery) in recoveries {
        let net = ResilientNetwork::new(K, MissingPolicy::AssumeAccept).with_recovery(recovery);
        let mut plan = IidFaults::loss_only(loss);
        let measured = rejection_rate(trials, harness.seed, next_stream(), |rng| {
            and_rule.run_faulty(&net, &mut plan, &far, rng)
        });
        println!("{name}: detection = {:.3}", measured.rejection_rate);
        recovery_table.push_row(vec![
            name.to_owned(),
            format!("{:.3}", measured.rejection_rate),
            format!("{:.1}", measured.mean_delivered_bits),
            format!("{:.1}", measured.mean_retries),
        ]);
    }
    harness.save("e12_recovery", &recovery_table);

    // --- 3. byzantine tolerance: measured vs predicted ---
    println!("## byzantine tolerance: measured break point vs predicted min(T-1, k-T)\n");
    let mut byz = Table::new(vec![
        "rule".into(),
        "predicted".into(),
        "measured".into(),
        "flipper errors (uniform, t = 0, 1, ...)".into(),
    ]);
    let net = ResilientNetwork::new(K, MissingPolicy::AssumeAccept);
    for (rule_name, tester) in &rules {
        let prepared = tester.prepare(Q_STRONG);
        let predicted = byzantine_tolerance(&prepared.referee(), K);
        let scan_to = (predicted + 2).min(K);
        let mut errors = Vec::new();
        for flippers in 0..=scan_to {
            let s = next_stream();
            let measure = |sampler, stream| {
                let mut plan = ByzantinePlan::flippers(flippers);
                rejection_rate(trials, harness.seed, stream, |rng| {
                    prepared.run_faulty(&net, &mut plan, sampler, rng)
                })
            };
            let err_uniform = measure(&uniform, s).error_on_uniform();
            let err_far = measure(&far, s + 500).error_on_far();
            errors.push((err_uniform, err_far));
        }
        let measured_cell = measured_byzantine_tolerance(&errors)
            .map_or_else(|| format!(">={scan_to}"), |m| m.to_string());
        let uniform_errors: Vec<String> = errors.iter().map(|(u, _)| format!("{u:.2}")).collect();
        println!("{rule_name}: predicted {predicted}, measured {measured_cell}");
        byz.push_row(vec![
            (*rule_name).to_owned(),
            predicted.to_string(),
            measured_cell,
            uniform_errors.join(" "),
        ]);
    }
    harness.save("e12_byzantine", &byz);

    harness.finish();
}
