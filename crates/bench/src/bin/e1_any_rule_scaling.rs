//! E1 — Theorem 1.1 / 6.1: with the best (calibrated threshold) rule,
//! the per-player sample complexity scales as `q* = Θ(√(n/k)/ε²)`.
//!
//! Measures `q*` by binary search along three axes (k, n, ε) and fits
//! log-log slopes against the predicted −1/2, +1/2, −2.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e1_any_rule_scaling
//! ```

#![allow(
    clippy::print_stdout,
    reason = "an experiment binary prints its tables"
)]

use dut_bench::{log_log_slope, Harness};
use dut_core::lowerbound::theory;
use dut_core::stats::table::Table;
use dut_core::testers::BalancedThresholdTester;

/// The swept parameter of a point.
#[derive(Clone, Copy, PartialEq)]
enum Axis {
    K,
    N,
    Eps,
}

/// Every measured point as (axis, n, k, ε, stream), in the order the
/// sweeps run; each axis's points are one table and one slope fit.
const POINTS: [(Axis, usize, usize, f64, u64); 14] = [
    (Axis::K, 1 << 12, 1, 0.5, 100),
    (Axis::K, 1 << 12, 4, 0.5, 101),
    (Axis::K, 1 << 12, 16, 0.5, 102),
    (Axis::K, 1 << 12, 64, 0.5, 103),
    (Axis::K, 1 << 12, 256, 0.5, 104),
    (Axis::N, 1 << 8, 16, 0.5, 200),
    (Axis::N, 1 << 10, 16, 0.5, 201),
    (Axis::N, 1 << 12, 16, 0.5, 202),
    (Axis::N, 1 << 14, 16, 0.5, 203),
    (Axis::Eps, 1 << 12, 16, 0.25, 300),
    (Axis::Eps, 1 << 12, 16, 0.35, 301),
    (Axis::Eps, 1 << 12, 16, 0.5, 302),
    (Axis::Eps, 1 << 12, 16, 0.7, 303),
    (Axis::Eps, 1 << 12, 16, 1.0, 304),
];

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e1_any_rule_scaling");
    println!("# E1 — any-rule (optimal threshold protocol) sample complexity\n");

    let mut summary = Vec::new();
    // (axis, printed name, CSV column, predicted slope)
    for (axis, name, column, theory_slope) in [
        (Axis::K, "k", "k", "-0.5"),
        (Axis::N, "n", "n", "+0.5"),
        (Axis::Eps, "eps", "epsilon", "-2.0"),
    ] {
        let mut table = Table::new(vec![
            column.into(),
            "measured q*".into(),
            "theory sqrt(n/k)/eps^2".into(),
        ]);
        let mut points = Vec::new();
        for &(_, n, k, eps, stream) in POINTS.iter().filter(|p| p.0 == axis) {
            let (_span, x) = match axis {
                Axis::K => (
                    dut_obs::span!("e1.sweep_k", k = k, n = n, eps = eps),
                    k as f64,
                ),
                Axis::N => (
                    dut_obs::span!("e1.sweep_n", n = n, k = k, eps = eps),
                    n as f64,
                ),
                Axis::Eps => (dut_obs::span!("e1.sweep_eps", eps = eps, n = n, k = k), eps),
            };
            let tester = BalancedThresholdTester::new(n, k, eps);
            let q = harness
                .search_calibrated(n, eps, stream, 1 << 17, |q, rng| {
                    let prepared =
                        tester.prepare(q, BalancedThresholdTester::CALIBRATION_TRIALS, rng);
                    move |s, r| prepared.run(s, r).verdict.is_accept()
                })
                .minimal;
            println!("{name} = {x}: q* = {q}");
            points.push((x, q as f64));
            table.push_row(vec![
                format!("{x}"),
                q.to_string(),
                format!("{:.0}", theory::theorem_1_1(n, k, eps)),
            ]);
        }
        let slope = log_log_slope(&points);
        println!("\nslope of log q* vs log {name} = {slope:.3}  (theory: {theory_slope})\n");
        harness.save(&format!("e1_sweep_{name}"), &table);
        summary.push((name, slope, theory_slope));
    }

    println!("== E1 summary ==");
    for (name, slope, theory_slope) in summary {
        println!(
            "{:<8} {slope:+.3} (theory {theory_slope})",
            format!("{name}-slope")
        );
    }
    harness.finish();
}
