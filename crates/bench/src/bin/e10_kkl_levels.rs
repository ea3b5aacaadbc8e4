//! E10 — the KKL level inequality (Lemma 5.4) and the AND-rule
//! mechanism: highly-biased bits carry almost no low-level Fourier
//! weight, hence almost no information about the samples.
//!
//! 1. Verifies the level inequality over function families and, for
//!    small cubes, over *every* Boolean function.
//! 2. Traces the bias-information curve: low-level weight of threshold
//!    functions versus their mean.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e10_kkl_levels
//! ```

#![allow(
    clippy::print_stdout,
    reason = "an experiment binary prints its tables"
)]

use dut_bench::Harness;
use dut_core::fourier::kkl;
use dut_core::fourier::BooleanFunction;
use dut_core::stats::table::Table;
use rand::SeedableRng;

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e10_kkl_levels");
    let mut rng = rand::rngs::StdRng::seed_from_u64(harness.seed);
    println!("# E10 — KKL level inequality and the price of bias\n");

    // --- exhaustive verification on small cubes ---
    println!("## exhaustive check: all Boolean functions on 4 variables\n");
    let mut worst = 0.0f64;
    let mut checked = 0u64;
    for code in 0u32..(1 << 16) {
        let f = BooleanFunction::from_fn(4, |x| f64::from((code >> x) & 1));
        for r in 1..=3 {
            for &delta in &[0.5, 1.0] {
                let check = kkl::check_level_inequality(&f, r, delta);
                checked += 1;
                assert!(check.holds(), "violated at code={code} r={r} delta={delta}");
                worst = worst.max(check.ratio());
            }
        }
    }
    println!("checked {checked} instances over all 65536 functions; worst ratio = {worst:.4}");

    // --- families at larger m ---
    println!("\n## families on up to 14 variables\n");
    let mut table = Table::new(vec![
        "family".into(),
        "m".into(),
        "mu".into(),
        "level<=2 weight".into(),
        "KKL bound (delta=0.5)".into(),
        "ratio".into(),
    ]);
    let mut families: Vec<(String, BooleanFunction)> = Vec::new();
    for &m in &[8u32, 12, 14] {
        families.push((format!("AND_{m}"), BooleanFunction::and_all(m)));
        families.push((format!("OR_{m}"), BooleanFunction::or_any(m)));
        families.push((format!("MAJ_{m}"), BooleanFunction::majority(m)));
        families.push((
            format!("THR_{m},{}", m - 2),
            BooleanFunction::threshold(m, m - 2),
        ));
        families.push((
            format!("RND_{m}(p=0.02)"),
            BooleanFunction::random(m, 0.02, &mut rng),
        ));
    }
    for (name, f) in &families {
        let check = kkl::check_level_inequality(f, 2, 0.5);
        assert!(check.holds(), "violated for {name}");
        table.push_row(vec![
            name.clone(),
            f.num_vars().to_string(),
            format!("{:.5}", check.mu),
            format!("{:.3e}", check.observed),
            format!("{:.3e}", check.bound),
            format!("{:.4}", check.ratio()),
        ]);
    }
    harness.save("e10_kkl_families", &table);

    // --- the bias-information curve ---
    println!("## bias vs low-level weight: threshold functions on 12 variables\n");
    let m = 12u32;
    let mut table2 = Table::new(vec![
        "threshold t".into(),
        "mu (bias)".into(),
        "variance".into(),
        "level<=2 weight".into(),
        "weight / variance".into(),
    ]);
    let mut prev_ratio = f64::INFINITY;
    let mut monotone_violations = 0;
    for t in (m / 2)..=m {
        let f = BooleanFunction::threshold(m, t);
        let spec = f.spectrum();
        let mu = spec.mean();
        let var = spec.variance();
        let low = spec.low_level_weight(2);
        let ratio = if var > 0.0 { low / var } else { 0.0 };
        table2.push_row(vec![
            t.to_string(),
            format!("{mu:.5}"),
            format!("{var:.5}"),
            format!("{low:.3e}"),
            format!("{ratio:.4}"),
        ]);
        if ratio > prev_ratio + 1e-9 {
            monotone_violations += 1;
        }
        prev_ratio = ratio;
    }
    harness.save("e10_bias_curve", &table2);
    println!(
        "as the bit grows more biased (t -> m), the fraction of its variance \
         at low levels collapses ({monotone_violations} monotonicity \
         violations) — this is exactly why AND-rule players, forced to send \
         bits with mean ~1 - 1/(3k), cannot convey their evidence \
         (Theorem 1.2)."
    );
    harness.finish();
}
