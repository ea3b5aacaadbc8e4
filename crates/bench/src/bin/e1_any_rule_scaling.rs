//! E1 — Theorem 1.1 / 6.1: with the best (calibrated threshold) rule,
//! the per-player sample complexity scales as `q* = Θ(√(n/k)/ε²)`.
//!
//! Measures `q*` by binary search along three axes (k, n, ε) and fits
//! log-log slopes against the predicted −1/2, +1/2, −2.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e1_any_rule_scaling
//! ```

use dut_bench::{log_log_slope, q_star, two_sided_success, workload, Harness};
use dut_core::lowerbound::theory;
use dut_core::stats::table::Table;
use dut_core::testers::BalancedThresholdTester;
use rand::SeedableRng;

fn measure_q_star(n: usize, k: usize, eps: f64, harness: &Harness, stream: u64) -> usize {
    let (uniform, far) = workload(n, eps);
    let tester = BalancedThresholdTester::new(n, k, eps);
    q_star(2, 1 << 17, |q| {
        let probe_seed = dut_core::stats::seed::derive_seed2(harness.seed, stream, q as u64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(probe_seed);
        let prepared = tester.prepare(q, BalancedThresholdTester::CALIBRATION_TRIALS, &mut rng);
        two_sided_success(
            harness.trials,
            dut_core::stats::seed::derive_seed(probe_seed, 1),
            &uniform,
            &far,
            |s, r| prepared.run(s, r).verdict.is_accept(),
        )
    })
    .minimal
}

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e1_any_rule_scaling");
    println!("# E1 — any-rule (optimal threshold protocol) sample complexity\n");

    // --- sweep k ---
    let n = 1 << 12;
    let eps = 0.5;
    let ks = [1usize, 4, 16, 64, 256];
    let mut table_k = Table::new(vec![
        "k".into(),
        "measured q*".into(),
        "theory sqrt(n/k)/eps^2".into(),
    ]);
    let mut points_k = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        let _span = dut_obs::span!("e1.sweep_k", k = k, n = n, eps = eps);
        let q = measure_q_star(n, k, eps, &harness, 100 + i as u64);
        println!("k = {k}: q* = {q}");
        points_k.push((k as f64, q as f64));
        table_k.push_row(vec![
            k.to_string(),
            q.to_string(),
            format!("{:.0}", theory::theorem_1_1(n, k, eps)),
        ]);
    }
    let slope_k = log_log_slope(&points_k);
    println!("\nslope of log q* vs log k = {slope_k:.3}  (theory: -0.5)\n");
    harness.save("e1_sweep_k", &table_k);

    // --- sweep n ---
    let k = 16;
    let ns = [1usize << 8, 1 << 10, 1 << 12, 1 << 14];
    let mut table_n = Table::new(vec![
        "n".into(),
        "measured q*".into(),
        "theory sqrt(n/k)/eps^2".into(),
    ]);
    let mut points_n = Vec::new();
    for (i, &n_i) in ns.iter().enumerate() {
        let _span = dut_obs::span!("e1.sweep_n", n = n_i, k = k, eps = eps);
        let q = measure_q_star(n_i, k, eps, &harness, 200 + i as u64);
        println!("n = {n_i}: q* = {q}");
        points_n.push((n_i as f64, q as f64));
        table_n.push_row(vec![
            n_i.to_string(),
            q.to_string(),
            format!("{:.0}", theory::theorem_1_1(n_i, k, eps)),
        ]);
    }
    let slope_n = log_log_slope(&points_n);
    println!("\nslope of log q* vs log n = {slope_n:.3}  (theory: +0.5)\n");
    harness.save("e1_sweep_n", &table_n);

    // --- sweep eps ---
    let n = 1 << 12;
    let eps_grid = [0.25, 0.35, 0.5, 0.7, 1.0];
    let mut table_e = Table::new(vec![
        "epsilon".into(),
        "measured q*".into(),
        "theory sqrt(n/k)/eps^2".into(),
    ]);
    let mut points_e = Vec::new();
    for (i, &e) in eps_grid.iter().enumerate() {
        let _span = dut_obs::span!("e1.sweep_eps", eps = e, n = n, k = k);
        let q = measure_q_star(n, k, e, &harness, 300 + i as u64);
        println!("eps = {e}: q* = {q}");
        points_e.push((e, q as f64));
        table_e.push_row(vec![
            format!("{e}"),
            q.to_string(),
            format!("{:.0}", theory::theorem_1_1(n, k, e)),
        ]);
    }
    let slope_e = log_log_slope(&points_e);
    println!("\nslope of log q* vs log eps = {slope_e:.3}  (theory: -2.0)\n");
    harness.save("e1_sweep_eps", &table_e);

    println!("== E1 summary ==");
    println!("k-slope  {slope_k:+.3} (theory -0.5)");
    println!("n-slope  {slope_n:+.3} (theory +0.5)");
    println!("eps-slope {slope_e:+.3} (theory -2.0)");
    harness.finish();
}
