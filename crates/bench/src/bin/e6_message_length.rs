//! E6 — Theorem 6.4: longer messages act like extra players. The
//! `r`-bit lower bound is `Ω(min(√(n/(2^r·k)), n/(2^r·k))/ε²)`.
//!
//! Upper side: the quantized-count-sum protocol — every node sends its
//! collision count, centred on its uniform mean and scaled by its
//! standard deviation, in `r` bits. Measures `q*(r)` and places it against
//! the Theorem 6.4 floor (which every protocol must respect).
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e6_message_length
//! ```

#![allow(
    clippy::print_stdout,
    reason = "an experiment binary prints its tables"
)]

use dut_bench::Harness;
use dut_core::lowerbound::theory;
use dut_core::stats::table::Table;
use dut_core::testers::QuantizedSumTester;

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e6_message_length");
    let n = 1 << 10;
    let k = 32;
    let eps = 0.5;
    println!("# E6 — message length (n = {n}, k = {k}, eps = {eps})\n");

    let mut table = Table::new(vec![
        "message bits r".into(),
        "measured q* (count-sum protocol)".into(),
        "Thm 6.4 floor".into(),
        "floor respected".into(),
    ]);

    let mut prev_q = usize::MAX;
    for (i, &r) in [1u8, 2, 4, 8].iter().enumerate() {
        let tester = QuantizedSumTester::new(n, k, r);
        let q = harness
            .search_calibrated(n, eps, 1000 + i as u64, 1 << 15, |q, rng| {
                let prepared = tester.prepare(q, 800, rng);
                move |s, r| prepared.run(s, r).verdict.is_accept()
            })
            .minimal;
        let floor = theory::theorem_6_4(n, k, eps, u32::from(r));
        println!("r = {r}: q* = {q} (floor {floor:.0})");
        table.push_row(vec![
            r.to_string(),
            q.to_string(),
            format!("{floor:.0}"),
            (q as f64 >= floor).to_string(),
        ]);
        assert!(
            q as f64 >= floor,
            "measured upper bound dipped below the r-bit lower bound"
        );
        // Monotonicity (up to noise): more bits never cost much more.
        assert!(
            q <= prev_q.saturating_add(prev_q / 3),
            "q* increased sharply with more bits: {prev_q} -> {q}"
        );
        prev_q = q;
    }
    harness.save("e6_message_bits", &table);

    println!(
        "\nmore bits help (monotone q*), every point respects the Theorem \
         6.4 floor, and the residual gap between the count-sum protocol and \
         the floor reflects the open 2^(r/2) question the paper leaves \
         ('we do not yet know whether this behavior is tight')."
    );
    harness.finish();
}
