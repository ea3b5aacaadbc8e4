//! E7 — the asymmetric-cost model (§6.2): the optimal time budget is
//! `τ* = Θ(√n/(ε²·‖T‖₂))` — only the ℓ₂ norm of the rate vector
//! matters, not its shape or its sum.
//!
//! Measures `τ*` for rate vectors engineered to share `‖T‖₂` while
//! differing wildly in player count and throughput, then sweeps
//! `‖T‖₂` to fit the `1/‖T‖₂` slope.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e7_asymmetric_rates
//! ```

#![allow(
    clippy::print_stdout,
    reason = "an experiment binary prints its tables"
)]

use dut_bench::{log_log_slope, Harness};
use dut_core::simnet::RateVector;
use dut_core::stats::table::Table;
use dut_core::testers::AsymmetricThresholdTester;

fn minimal_tau(n: usize, eps: f64, rates: RateVector, harness: &Harness, stream: u64) -> usize {
    let tester = AsymmetricThresholdTester::new(n, rates, eps);
    harness
        .search_calibrated(n, eps, stream, 1 << 15, |tau, rng| {
            let prepared = tester.prepare(tau as f64, 600, rng);
            move |s, r| prepared.run(s, r).verdict.is_accept()
        })
        .minimal
}

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e7_asymmetric_rates");
    let n = 1 << 10;
    let eps = 0.6;
    println!("# E7 — asymmetric sampling rates (n = {n}, eps = {eps})\n");

    // --- equal l2 norm, different shapes ---
    println!("## equal ||T||_2 = 8, different shapes\n");
    let shapes: Vec<(&str, RateVector)> = vec![
        ("64 players at rate 1", RateVector::unit(64)),
        ("16 players at rate 2", RateVector::new(vec![2.0; 16])),
        (
            "4 fast (3.46) + 16 slow (1)",
            RateVector::new({
                let mut v = vec![(12.0f64).sqrt(); 4];
                v.extend(vec![1.0; 16]);
                v
            }),
        ),
        ("1 player at rate 8", RateVector::new(vec![8.0])),
    ];
    let mut table = Table::new(vec![
        "shape".into(),
        "players".into(),
        "||T||_1".into(),
        "||T||_2".into(),
        "measured tau*".into(),
    ]);
    let mut taus = Vec::new();
    for (i, (name, rates)) in shapes.iter().enumerate() {
        let tau = minimal_tau(n, eps, rates.clone(), &harness, 1100 + i as u64);
        println!("{name}: tau* = {tau}");
        taus.push(tau as f64);
        table.push_row(vec![
            (*name).to_owned(),
            rates.len().to_string(),
            format!("{:.1}", rates.l1_norm()),
            format!("{:.2}", rates.l2_norm()),
            tau.to_string(),
        ]);
    }
    harness.save("e7_equal_l2", &table);
    let max = taus.iter().copied().fold(f64::MIN, f64::max);
    let min = taus.iter().copied().fold(f64::MAX, f64::min);
    println!(
        "\ntau* spread across shapes: max/min = {:.2} (theory: 1, constants aside)\n",
        max / min
    );

    // --- sweep ||T||_2 ---
    println!("## sweep ||T||_2 with unit-rate players\n");
    let mut table2 = Table::new(vec![
        "players k".into(),
        "||T||_2".into(),
        "measured tau*".into(),
        "theory sqrt(n)/(eps^2 ||T||_2)".into(),
    ]);
    let mut points = Vec::new();
    for (i, &k) in [4usize, 16, 64, 256].iter().enumerate() {
        let rates = RateVector::unit(k);
        let norm = rates.l2_norm();
        let tau = minimal_tau(n, eps, rates, &harness, 1200 + i as u64);
        println!("k = {k}: tau* = {tau}");
        points.push((norm, tau as f64));
        table2.push_row(vec![
            k.to_string(),
            format!("{norm:.2}"),
            tau.to_string(),
            format!(
                "{:.0}",
                dut_core::lowerbound::theory::asymmetric_time(n, eps, norm)
            ),
        ]);
    }
    let slope = log_log_slope(&points);
    println!("\nslope of log tau* vs log ||T||_2 = {slope:+.3} (theory: -1.0)");
    harness.save("e7_sweep_norm", &table2);
    harness.finish();
}
