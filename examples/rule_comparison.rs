//! Compare every decision rule's empirically measured sample cost on
//! the same instance, next to the paper's predictions — a miniature of
//! experiment E1/E2 from EXPERIMENTS.md.
//!
//! ```bash
//! cargo run --release --example rule_comparison
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example prints its walkthrough, and a broken setup invariant ends it"
)]

use distributed_uniformity::probability::families;
use distributed_uniformity::stats::search::minimal_sufficient;
use distributed_uniformity::stats::table::Table;
use distributed_uniformity::{lowerbound::theory, Rule, UniformityTester};
use rand::SeedableRng;

fn measured_q_star(rule: Rule, n: usize, k: usize, eps: f64, seed: u64) -> usize {
    let tester = UniformityTester::builder()
        .domain_size(n)
        .players(k)
        .epsilon(eps)
        .rule(rule)
        .build()
        .expect("valid configuration");
    let uniform = families::uniform(n).alias_sampler();
    let far = families::two_level(n, eps)
        .expect("valid far instance")
        .alias_sampler();
    let trials = 80;
    let result = minimal_sufficient(2, 1 << 17, |q| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ q as u64);
        let prepared = tester.prepare(q, &mut rng);
        let ok = prepared.acceptance_rate(&uniform, trials, &mut rng);
        let alarm = 1.0 - prepared.acceptance_rate(&far, trials, &mut rng);
        ok >= 2.0 / 3.0 && alarm >= 2.0 / 3.0
    });
    result.minimal
}

fn main() {
    let n = 1 << 10;
    let k = 32;
    let eps = 0.5;
    println!("measuring q* for every rule at n = {n}, k = {k}, eps = {eps}");
    println!("(binary search over q, 80 trials per probe — takes a moment)\n");

    let mut table = Table::new(vec![
        "rule".into(),
        "measured q*".into(),
        "paper prediction".into(),
        "prediction formula".into(),
    ]);

    let rows: Vec<(Rule, f64, &str)> = vec![
        (
            Rule::Centralized,
            theory::centralized(n, eps),
            "sqrt(n)/eps^2",
        ),
        (
            Rule::Balanced,
            theory::fmo_threshold_upper(n, k, eps),
            "sqrt(n/k)/eps^2",
        ),
        (
            Rule::And,
            theory::theorem_1_2(n, k, eps),
            "sqrt(n)/(log^2 k * eps^2)",
        ),
        (
            Rule::TThreshold { t: 2 },
            theory::theorem_1_3(n, k, eps, 2),
            "sqrt(n)/(T log^2(k/eps) eps^2)",
        ),
    ];

    for (rule, prediction, formula) in rows {
        let q_star = measured_q_star(rule, n, k, eps, 42);
        table.push_row(vec![
            rule.to_string(),
            q_star.to_string(),
            format!("{prediction:.0}"),
            formula.to_string(),
        ]);
        println!("  {rule}: measured q* = {q_star}");
    }

    println!("\n{}", table.to_markdown());
    println!(
        "note: predictions are lower bounds with constants set to 1; the \
         comparison that matters is the ORDER — balanced beats AND beats \
         centralized per-player — and the scaling measured in E1-E3."
    );
}
