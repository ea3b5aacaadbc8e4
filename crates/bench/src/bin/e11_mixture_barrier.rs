//! E11 — the √n indistinguishability barrier, computed exactly.
//!
//! The hard family's defining property: each `ν_z` is ε-far from
//! uniform, yet the *mixture* `E_z[ν_z^q]` stays close to `uniform^q`
//! until `q ≈ √n`. This experiment traces the exact Ingster χ² and the
//! (Monte-Carlo) total variation as functions of `q`, locates the
//! crossing `q` where χ² reaches 1, and checks it scales as `√n/ε²` —
//! the information-theoretic floor the collision tester (E8) matches
//! from above.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e11_mixture_barrier
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an experiment binary prints its tables, and a broken setup invariant ends the run"
)]

use dut_bench::{log_log_slope, Harness};
use dut_core::lowerbound::mixture;
use dut_core::probability::PairedDomain;
use dut_core::stats::table::Table;
use rand::SeedableRng;

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e11_mixture_barrier");
    let mut rng = rand::rngs::StdRng::seed_from_u64(harness.seed);
    println!("# E11 — the sqrt(n) mixture barrier (exact chi^2 + MC total variation)\n");

    // --- the growth curve at one size ---
    let dom = PairedDomain::new(9); // n = 1024
    let eps = 0.5;
    let n = dom.universe_size();
    println!("## chi^2 and TV vs q (n = {n}, eps = {eps})\n");
    let mut table = Table::new(vec![
        "q".into(),
        "chi^2 (exact)".into(),
        "TV upper sqrt(chi^2)/2".into(),
        "TV (Monte-Carlo)".into(),
    ]);
    for &q in &[4usize, 8, 16, 32, 64, 128, 256] {
        let chi2 = mixture::chi2_mixture_exact(&dom, q, eps);
        let tv_mc = mixture::tv_mixture_uniform_monte_carlo(&dom, q, eps, 40_000, &mut rng);
        let tv_cell = format!("{tv_mc:.4}");
        println!("q = {q:>4}: chi^2 = {chi2:.5}, TV_mc = {tv_cell}");
        table.push_row(vec![
            q.to_string(),
            format!("{chi2:.6}"),
            format!("{:.4}", chi2.sqrt() / 2.0),
            tv_cell,
        ]);
    }
    harness.save("e11_growth_curve", &table);

    // --- the crossing point scales as sqrt(n)/eps^2 ---
    println!("## q where chi^2 crosses 1, vs n\n");
    let mut table2 = Table::new(vec![
        "n".into(),
        "crossing q (chi^2 > 1)".into(),
        "sqrt(n)/eps^2".into(),
    ]);
    let mut points = Vec::new();
    for &ell in &[7u32, 9, 11, 13] {
        let d = PairedDomain::new(ell);
        let crossing = mixture::q_where_chi2_exceeds(&d, eps, 1.0, 1 << 17)
            .expect("chi2 eventually exceeds 1");
        println!("n = {:>6}: crossing q = {crossing}", d.universe_size());
        points.push((d.universe_size() as f64, crossing as f64));
        table2.push_row(vec![
            d.universe_size().to_string(),
            crossing.to_string(),
            format!("{:.0}", (d.universe_size() as f64).sqrt() / (eps * eps)),
        ]);
    }
    let slope = log_log_slope(&points);
    println!("\nslope of log crossing-q vs log n = {slope:+.3} (theory: +0.5)");
    harness.save("e11_crossing", &table2);

    // --- epsilon scaling of the crossing ---
    println!("\n## crossing q vs eps (n = 2048)\n");
    let d = PairedDomain::new(10);
    let mut points_e = Vec::new();
    let mut table3 = Table::new(vec!["eps".into(), "crossing q".into()]);
    for &e in &[0.25f64, 0.5, 1.0] {
        let crossing = mixture::q_where_chi2_exceeds(&d, e, 1.0, 1 << 18).expect("crossing exists");
        println!("eps = {e}: crossing q = {crossing}");
        points_e.push((e, crossing as f64));
        table3.push_row(vec![format!("{e}"), crossing.to_string()]);
    }
    let slope_e = log_log_slope(&points_e);
    println!("\nslope of log crossing-q vs log eps = {slope_e:+.3} (theory: -2.0)");
    harness.save("e11_crossing_eps", &table3);
    println!(
        "\nbelow the crossing NO tester — centralized or distributed — can \
         distinguish; above it the collision tester (E8) succeeds: the two \
         experiments bracket the Theta(sqrt(n)/eps^2) truth."
    );
    harness.finish();
}
