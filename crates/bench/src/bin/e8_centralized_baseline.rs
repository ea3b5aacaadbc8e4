//! E8 — the centralized baseline `q* = Θ(√n/ε²)` [Paninski 2008], for
//! both the collision tester and the coincidence tester, plus the
//! KL-budget view of the same bound (inequality (13) at `k = 1`).
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e8_centralized_baseline
//! ```

#![allow(
    clippy::print_stdout,
    reason = "an experiment binary prints its tables"
)]

use dut_bench::{log_log_slope, Harness};
use dut_core::lowerbound::{divergence, theory};
use dut_core::probability::Sampler;
use dut_core::stats::table::Table;
use dut_core::testers::centralized::CentralizedTester;
use dut_core::testers::{CollisionTester, PaninskiTester};

fn measure<T: CentralizedTester + Sync>(
    tester: &T,
    n: usize,
    eps: f64,
    harness: &Harness,
    stream: u64,
) -> usize {
    harness
        .search(n, eps, stream, 1 << 18, |q| {
            move |s, r| tester.test(&s.sample_many(q, r)).is_accept()
        })
        .minimal
}

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e8_centralized_baseline");
    println!("# E8 — centralized baseline\n");

    // --- sweep n ---
    let eps = 0.5;
    println!("## q* vs n (eps = {eps})\n");
    let mut table_n = Table::new(vec![
        "n".into(),
        "collision q*".into(),
        "coincidence q*".into(),
        "theory sqrt(n)/eps^2".into(),
        "KL-budget bound (eq. 13, k=1)".into(),
    ]);
    let mut pts_col = Vec::new();
    let mut pts_pan = Vec::new();
    for (i, &n) in [1usize << 8, 1 << 10, 1 << 12, 1 << 14].iter().enumerate() {
        let _span = dut_obs::span!("e8.sweep_n", n = n, eps = eps);
        let qc = measure(
            &CollisionTester::new(n, eps),
            n,
            eps,
            &harness,
            1300 + i as u64,
        );
        let qp = measure(
            &PaninskiTester::new(n, eps),
            n,
            eps,
            &harness,
            1350 + i as u64,
        );
        println!("n = {n}: collision q* = {qc}, coincidence q* = {qp}");
        pts_col.push((n as f64, qc as f64));
        pts_pan.push((n as f64, qp as f64));
        table_n.push_row(vec![
            n.to_string(),
            qc.to_string(),
            qp.to_string(),
            format!("{:.0}", theory::centralized(n, eps)),
            format!("{:.0}", divergence::q_lower_bound(n, 1, eps)),
        ]);
    }
    println!(
        "\ncollision slope vs n = {:+.3}, coincidence slope = {:+.3} (theory: +0.5)\n",
        log_log_slope(&pts_col),
        log_log_slope(&pts_pan)
    );
    harness.save("e8_sweep_n", &table_n);

    // --- sweep eps ---
    let n = 1 << 12;
    println!("## q* vs eps (n = {n})\n");
    let mut table_e = Table::new(vec![
        "eps".into(),
        "collision q*".into(),
        "theory sqrt(n)/eps^2".into(),
    ]);
    let mut pts_e = Vec::new();
    for (i, &e) in [0.25f64, 0.35, 0.5, 0.7, 1.0].iter().enumerate() {
        let _span = dut_obs::span!("e8.sweep_eps", eps = e, n = n);
        let qc = measure(&CollisionTester::new(n, e), n, e, &harness, 1400 + i as u64);
        println!("eps = {e}: q* = {qc}");
        pts_e.push((e, qc as f64));
        table_e.push_row(vec![
            format!("{e}"),
            qc.to_string(),
            format!("{:.0}", theory::centralized(n, e)),
        ]);
    }
    println!(
        "\nslope vs eps = {:+.3} (theory: -2.0)",
        log_log_slope(&pts_e)
    );
    harness.save("e8_sweep_eps", &table_e);
    harness.finish();
}
