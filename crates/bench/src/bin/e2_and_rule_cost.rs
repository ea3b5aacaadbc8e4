//! E2 — Theorem 1.2: under the AND rule, adding players barely helps.
//!
//! Measures `q*` for the AND-rule tester versus `k`, side by side with
//! the optimal (balanced) protocol, and demonstrates the `q = 1`
//! impossibility remark: with one sample per player the AND rule never
//! reaches the 2/3 guarantee at any tested network size.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e2_and_rule_cost
//! ```

#![allow(
    clippy::print_stdout,
    reason = "an experiment binary prints its tables"
)]

use dut_bench::{log_log_slope, two_sided_success, workload, Harness};
use dut_core::lowerbound::theory;
use dut_core::stats::seed::derive_seed;
use dut_core::stats::table::Table;
use dut_core::testers::{BalancedThresholdTester, TThresholdTester};

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e2_and_rule_cost");
    let n = 1 << 10;
    let eps = 0.75;
    println!("# E2 — the cost of the AND rule (n = {n}, eps = {eps})\n");

    let ks = [2usize, 8, 32, 128, 512];
    let mut table = Table::new(vec![
        "k".into(),
        "q* AND rule".into(),
        "q* balanced rule".into(),
        "Thm 1.2 floor".into(),
        "Thm 1.1 floor".into(),
    ]);
    let mut and_points = Vec::new();
    let mut balanced_points = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        let _span = dut_obs::span!("e2.sweep_k", k = k, n = n, eps = eps);
        let and = TThresholdTester::new(n, k, 1);
        let q_and = harness
            .search(n, eps, 400 + i as u64, 1 << 15, |q| {
                let prepared = and.prepare(q);
                move |s, r| prepared.run(s, r).verdict.is_accept()
            })
            .minimal;
        let balanced = BalancedThresholdTester::new(n, k, eps);
        let q_bal = harness
            .search_calibrated(n, eps, 500 + i as u64, 1 << 15, |q, rng| {
                let prepared =
                    balanced.prepare(q, BalancedThresholdTester::CALIBRATION_TRIALS, rng);
                move |s, r| prepared.run(s, r).verdict.is_accept()
            })
            .minimal;
        println!("k = {k}: AND q* = {q_and}, balanced q* = {q_bal}");
        and_points.push((k as f64, q_and as f64));
        balanced_points.push((k as f64, q_bal as f64));
        table.push_row(vec![
            k.to_string(),
            q_and.to_string(),
            q_bal.to_string(),
            format!(
                "{:.0}",
                theory::theorem_1_2(n, k, eps).max(theory::theorem_1_1(n, k, eps))
            ),
            format!("{:.0}", theory::theorem_1_1(n, k, eps)),
        ]);
    }
    let and_slope = log_log_slope(&and_points);
    let balanced_slope = log_log_slope(&balanced_points);
    println!("\nAND-rule slope vs k      = {and_slope:+.3} (theory: ~0, log-factor only)");
    println!("balanced-rule slope vs k = {balanced_slope:+.3} (theory: -0.5)\n");
    harness.save("e2_and_vs_k", &table);

    // --- q = 1 impossibility under the AND rule ---
    println!("## q = 1: the AND rule cannot test uniformity at all\n");
    let mut table1 = Table::new(vec!["k".into(), "two-sided success at q=1".into()]);
    let (uniform, far) = workload(n, eps);
    for &k in &[4usize, 64, 1024, 16384] {
        let _span = dut_obs::span!("e2.q1_impossibility", k = k);
        let prepared = TThresholdTester::new(n, k, 1).prepare(1);
        let ok = two_sided_success(
            harness.trials,
            derive_seed(harness.seed, 600 + k as u64),
            &uniform,
            &far,
            |s, r| prepared.run(s, r).verdict.is_accept(),
        );
        println!("k = {k}: success = {ok}");
        table1.push_row(vec![k.to_string(), ok.to_string()]);
    }
    harness.save("e2_q1_impossibility", &table1);
    println!(
        "(the paper's full version proves impossibility for every AND-rule \
         protocol at q = 1; here the collision-based family fails at every k)"
    );
    harness.finish();
}
