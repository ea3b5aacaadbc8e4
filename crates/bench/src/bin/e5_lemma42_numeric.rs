//! E5 — the paper's central inequalities (Lemma 4.2 / 5.1 / 4.3),
//! verified exactly on enumerable instances.
//!
//! For every combination of cube dimension, sample count, proximity and
//! player function, the exact left-hand sides (full enumeration over
//! sample tuples AND perturbation vectors) are compared against the
//! paper's right-hand sides. Reports the worst observed/bound ratio —
//! every ratio must be ≤ 1.
//!
//! Note the documented constant correction in
//! `dut_lowerbound::lemmas::lemma_4_2_rhs`: exact enumeration falsifies
//! the paper's stated linear-term constant (1) and this repository uses
//! the tight constant 2; this binary is the evidence.
//!
//! ```bash
//! cargo run --release -p dut-bench --bin e5_lemma42_numeric
//! ```

#![allow(
    clippy::print_stdout,
    reason = "an experiment binary prints its tables"
)]

use dut_bench::Harness;
use dut_core::lowerbound::{exact, lemmas, player};
use dut_core::probability::PairedDomain;
use dut_core::stats::table::Table;
use rand::SeedableRng;

struct Case {
    name: String,
    g: Box<dyn player::PlayerFunction>,
}

fn cases(dom: PairedDomain, q: usize, rng: &mut rand::rngs::StdRng) -> Vec<Case> {
    let mut v: Vec<Case> = vec![
        Case {
            name: "collision<1".into(),
            g: Box::new(player::CollisionIndicator::new(1)),
        },
        Case {
            name: "collision<2".into(),
            g: Box::new(player::CollisionIndicator::new(2)),
        },
        Case {
            name: "sign-dictator".into(),
            g: Box::new(player::SignDictator::new(0)),
        },
        Case {
            name: "sign-parity".into(),
            g: Box::new(player::SignParity),
        },
        Case {
            name: "sign-majority".into(),
            g: Box::new(player::SignMajority),
        },
        Case {
            name: "cube-dictator".into(),
            g: Box::new(player::CubeDictator::new(0, 0)),
        },
    ];
    // Random functions only when the table fits.
    if (dom.ell() + 1) * dut_core::fourier::character::mask(q) <= 16 {
        for &p in &[0.5, 0.05] {
            v.push(Case {
                name: format!("random(p={p})"),
                g: Box::new(player::TableFunction::random(dom, q, p, rng)),
            });
        }
    }
    v
}

fn main() {
    let harness = Harness::from_env();
    harness.emit_manifest("e5_lemma42_numeric");
    println!("# E5 — exact verification of Lemmas 5.1, 4.2 and 4.3\n");
    let mut rng = rand::rngs::StdRng::seed_from_u64(harness.seed);

    let mut table = Table::new(vec![
        "ell".into(),
        "q".into(),
        "eps".into(),
        "player G".into(),
        "L5.1 ratio".into(),
        "L4.2 ratio".into(),
        "L4.3(m=1) ratio".into(),
    ]);

    let mut worst: (f64, String) = (0.0, String::new());
    let mut checked = 0u64;
    let mut violations = 0u64;

    for &ell in &[2u32, 3] {
        let dom = PairedDomain::new(ell);
        let n = dom.universe_size();
        let q_max = if ell == 2 { 4 } else { 3 };
        for q in 1..=q_max {
            for &eps in &[0.1, 0.3, 0.6] {
                for case in cases(dom, q, &mut rng) {
                    let moments = exact::z_moments_exact(&dom, q, case.g.as_ref(), eps);
                    let checks = lemmas::checks_from_moments(n, q, eps, 1, 1.0, &moments);
                    // [0] = 5.1, [1] = 4.2, [2] = 4.3(m=1).
                    for (i, c) in checks.iter().enumerate().take(3) {
                        checked += 1;
                        if !c.holds() {
                            violations += 1;
                            println!(
                                "VIOLATION lemma-index {i}: ell={ell} q={q} eps={eps} \
                                 G={} -> {c:?}",
                                case.name
                            );
                        }
                        if c.precondition && c.ratio() > worst.0 {
                            worst = (
                                c.ratio(),
                                format!(
                                    "lemma-index {i}, ell={ell}, q={q}, eps={eps}, G={}",
                                    case.name
                                ),
                            );
                        }
                    }
                    table.push_row(vec![
                        ell.to_string(),
                        q.to_string(),
                        format!("{eps}"),
                        case.name.clone(),
                        format!("{:.3}", checks[0].ratio()),
                        format!("{:.3}", checks[1].ratio()),
                        format!("{:.3}", checks[2].ratio()),
                    ]);
                }
            }
        }
    }

    harness.save("e5_lemma_checks", &table);
    println!("\nchecked {checked} lemma instances, {violations} violations");
    println!("worst observed/bound ratio = {:.4} at {}", worst.0, worst.1);
    assert_eq!(violations, 0, "a lemma bound was violated");
    println!("all bounds hold (every ratio <= 1).");
    harness.finish();
}
