//! E9 — the spectral structure of the hard family (Section 3 / 5):
//!
//! 1. Claim 3.1: the character expansion of `ν_z^q` matches the product
//!    density pointwise (randomized check over tuples and `z`).
//! 2. The averaged coefficients `b_x(T)` are exactly the even-cover
//!    indicator (exhaustive on small instances).
//! 3. Proposition 5.2: exact `|X_S|` versus the
//!    `(2r−1)!!·(n/2)^{q−r}` bound across a grid.
//! 4. Lemma 5.5: Monte-Carlo moments of `a_r(x)` versus the bound.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e9_spectrum_structure
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an experiment binary prints its tables, and a broken setup invariant ends the run"
)]

use dut_bench::Harness;
use dut_core::fourier::evencover;
use dut_core::lowerbound::claim31;
use dut_core::probability::{PairedDomain, PerturbationVector};
use dut_core::stats::table::Table;
use rand::Rng;
use rand::SeedableRng;

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e9_spectrum_structure");
    let mut rng = rand::rngs::StdRng::seed_from_u64(harness.seed);
    println!("# E9 — spectrum structure of the hard family\n");

    // --- Claim 3.1 randomized check ---
    println!("## Claim 3.1: product density = character expansion\n");
    let dom = PairedDomain::new(4);
    let mut max_err = 0.0f64;
    let checks = 2000;
    for _ in 0..checks {
        let z = PerturbationVector::random(dom.cube_size(), &mut rng);
        let q = 1 + rng.random_range(0..6usize);
        let xs: Vec<u32> = (0..q)
            .map(|_| dut_core::fourier::character::mask(rng.random_range(0..dom.cube_size())))
            .collect();
        let ss: Vec<i8> = (0..q)
            .map(|_| if rng.random::<bool>() { 1 } else { -1 })
            .collect();
        let eps = rng.random::<f64>();
        let lhs = claim31::density_product(&dom, &z, eps, &xs, &ss);
        let rhs = claim31::density_expansion(&dom, &z, eps, &xs, &ss);
        max_err = max_err.max((lhs - rhs).abs());
    }
    println!("max pointwise |product - expansion| over {checks} random checks: {max_err:.2e}");
    assert!(max_err < 1e-12, "Claim 3.1 violated numerically");

    // --- b_x(T) = even-cover indicator ---
    println!("\n## b_x(T) equals the even-cover indicator (exhaustive, ell = 2, q = 3)\n");
    let small = PairedDomain::new(2);
    let mut mismatches = 0u64;
    let mut coefficients = 0u64;
    let cube = dut_core::fourier::character::mask(small.cube_size());
    for t0 in 0..cube {
        for t1 in 0..cube {
            for t2 in 0..cube {
                let xs = [t0, t1, t2];
                for subset in 0u64..8 {
                    coefficients += 1;
                    let exact = claim31::b_x_exact(&small, &xs, subset);
                    let predicted = claim31::b_x_predicted(&xs, subset);
                    if (exact - predicted).abs() > 1e-12 {
                        mismatches += 1;
                    }
                }
            }
        }
    }
    println!("checked {coefficients} coefficients, {mismatches} mismatches");
    assert_eq!(mismatches, 0);

    // --- Proposition 5.2 ---
    println!("\n## Proposition 5.2: |X_S| exact vs bound\n");
    let mut table = Table::new(vec![
        "cube size n/2".into(),
        "q".into(),
        "|S|".into(),
        "exact |X_S|".into(),
        "(|S|-1)!! (n/2)^(q-|S|/2)".into(),
        "ratio".into(),
    ]);
    for &d in &[8u64, 16] {
        for &q in &[4u64, 8] {
            for r in 1..=(q / 2).min(4) {
                let size = 2 * r;
                let exact = evencover::x_s_count_exact(d, q, size);
                let bound = evencover::x_s_count_bound(d, q, size);
                let ratio = exact as f64 / bound;
                assert!(ratio <= 1.0 + 1e-12, "Prop 5.2 violated");
                table.push_row(vec![
                    d.to_string(),
                    q.to_string(),
                    size.to_string(),
                    exact.to_string(),
                    format!("{bound:.0}"),
                    format!("{ratio:.3}"),
                ]);
            }
        }
    }
    harness.save("e9_prop52", &table);

    // --- Lemma 5.5 moments ---
    println!("## Lemma 5.5: Monte-Carlo moments of a_r(x) vs bound\n");
    let mut table2 = Table::new(vec![
        "cube size".into(),
        "q".into(),
        "r".into(),
        "m".into(),
        "MC E[a_r^m] (+/- se)".into(),
        "Lemma 5.5 bound".into(),
    ]);
    let trials = u32::try_from(harness.trials * 20).expect("trial count fits a u32");
    for &d in &[16u32, 64] {
        for &q in &[6u32, 12] {
            for r in 1..=2u32 {
                for m in 1..=3u32 {
                    let (est, se) = evencover::a_r_moment_monte_carlo(d, q, r, m, trials, &mut rng);
                    let bound = evencover::a_r_moment_bound(u64::from(d), u64::from(q), r, m);
                    assert!(
                        est - 4.0 * se <= bound,
                        "Lemma 5.5 violated: D={d} q={q} r={r} m={m}: {est} vs {bound}"
                    );
                    table2.push_row(vec![
                        d.to_string(),
                        q.to_string(),
                        r.to_string(),
                        m.to_string(),
                        format!("{est:.4} (+/-{se:.4})"),
                        format!("{bound:.3e}"),
                    ]);
                }
            }
        }
    }
    harness.save("e9_lemma55", &table2);
    println!("all structural claims verified.");
    harness.finish();
}
