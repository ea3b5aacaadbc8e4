//! The paper's motivating scenario: a sensor network whose nodes take
//! local measurements and must raise an alarm when the environment
//! drifts from its nominal (uniform) profile.
//!
//! Each sensor can only send one bit ("all fine" / "alarm"). We compare
//! the two deployment options the paper analyzes:
//!
//! * the **local** AND rule — any single alarming sensor trips the
//!   network (no coordination needed, but Theorem 1.2 says it needs far
//!   more measurements), and
//! * the **aggregating** threshold rule — a basestation counts alarms
//!   (sample-optimal by Theorem 1.1).
//!
//! ```bash
//! cargo run --release --example sensor_network
//! ```

#![allow(clippy::print_stdout, reason = "an example prints its walkthrough")]

use distributed_uniformity::probability::families;
use distributed_uniformity::testers::{BalancedThresholdTester, TThresholdTester};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 10; // measurement buckets per sensor reading
    let k = 64; // sensors
    let eps = 0.6; // drift magnitude we must detect
    let trials = 150;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    println!("sensor network: {k} sensors, {n} measurement buckets, drift eps = {eps}\n");

    let nominal = families::uniform(n).alias_sampler();
    // Environmental drift: half the buckets become more likely.
    let drifted = families::two_level(n, eps)?.alias_sampler();
    // A different drift shape, to show detection is not tuned to one
    // instance: interleaved heavy/light buckets.
    let interleaved = families::alternating(n, eps)?.alias_sampler();

    // Option A: basestation counts alarms (balanced threshold rule).
    let balanced = BalancedThresholdTester::new(n, k, eps);
    let q_balanced = balanced.predicted_sample_count();
    let prepared = balanced.prepare(q_balanced, 2000, &mut rng);

    // Option B: fully local AND rule at the same measurement budget.
    let and_rule = TThresholdTester::new(n, k, 1);
    let and_same_budget = and_rule.prepare(q_balanced);

    let rate = |f: &mut dyn FnMut(&mut rand::rngs::StdRng) -> bool,
                rng: &mut rand::rngs::StdRng| {
        (0..trials).filter(|_| f(rng)).count() as f64 / f64::from(trials as u32)
    };

    println!("per-sensor measurements: q = {q_balanced}\n");
    println!(
        "{:<28}{:>12}{:>12}{:>14}",
        "protocol", "nominal ok", "drift alarm", "interleaved"
    );

    let mut balanced_nominal =
        |r: &mut rand::rngs::StdRng| prepared.run(&nominal, r).verdict.is_accept();
    let mut balanced_drift =
        |r: &mut rand::rngs::StdRng| prepared.run(&drifted, r).verdict.is_reject();
    let mut balanced_inter =
        |r: &mut rand::rngs::StdRng| prepared.run(&interleaved, r).verdict.is_reject();
    println!(
        "{:<28}{:>11.0}%{:>11.0}%{:>13.0}%",
        "threshold (basestation)",
        100.0 * rate(&mut balanced_nominal, &mut rng),
        100.0 * rate(&mut balanced_drift, &mut rng),
        100.0 * rate(&mut balanced_inter, &mut rng),
    );

    let mut and_nominal =
        |r: &mut rand::rngs::StdRng| and_same_budget.run(&nominal, r).verdict.is_accept();
    let mut and_drift =
        |r: &mut rand::rngs::StdRng| and_same_budget.run(&drifted, r).verdict.is_reject();
    let mut and_inter =
        |r: &mut rand::rngs::StdRng| and_same_budget.run(&interleaved, r).verdict.is_reject();
    println!(
        "{:<28}{:>11.0}%{:>11.0}%{:>13.0}%",
        "AND rule (same budget)",
        100.0 * rate(&mut and_nominal, &mut rng),
        100.0 * rate(&mut and_drift, &mut rng),
        100.0 * rate(&mut and_inter, &mut rng),
    );

    // How many measurements would the AND rule need to actually detect?
    let mut q_and = q_balanced;
    loop {
        let prepared = and_rule.prepare(q_and);
        let mut detect = |r: &mut rand::rngs::StdRng| prepared.run(&drifted, r).verdict.is_reject();
        let mut ok = |r: &mut rand::rngs::StdRng| prepared.run(&nominal, r).verdict.is_accept();
        if rate(&mut detect, &mut rng) > 2.0 / 3.0 && rate(&mut ok, &mut rng) > 2.0 / 3.0 {
            break;
        }
        q_and *= 2;
        assert!(q_and < 1 << 22, "AND rule budget exploded");
    }
    println!(
        "\nthe AND rule reaches the 2/3 guarantee only at q ≈ {q_and} \
         ({}x the threshold-rule budget)",
        q_and / q_balanced
    );
    println!("— locality costs samples, exactly as Theorems 1.1 vs 1.2 predict.");
    Ok(())
}
