//! Quickstart: build a distributed uniformity tester, run it on uniform
//! and on ε-far inputs, and print acceptance rates.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::print_stdout, reason = "an example prints its walkthrough")]

use distributed_uniformity::probability::families;
use distributed_uniformity::{Rule, UniformityTester};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 12; // domain size
    let k = 64; // players
    let eps = 0.5; // proximity parameter

    println!("distributed uniformity testing: n = {n}, k = {k}, epsilon = {eps}\n");

    let tester = UniformityTester::builder()
        .domain_size(n)
        .players(k)
        .epsilon(eps)
        .rule(Rule::Balanced)
        .build()?;

    let q = tester.predicted_sample_count();
    println!(
        "rule = {}, predicted per-player samples q = {q}",
        tester.rule()
    );
    println!(
        "(centralized would need ~{:.0} samples on one machine)\n",
        distributed_uniformity::lowerbound::theory::centralized(n, eps)
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let prepared = tester.prepare(q, &mut rng);

    let uniform = families::uniform(n).alias_sampler();
    let far = families::two_level(n, eps)?.alias_sampler();

    let trials = 200;
    let accept_uniform = prepared.acceptance_rate(&uniform, trials, &mut rng);
    let accept_far = prepared.acceptance_rate(&far, trials, &mut rng);

    println!("over {trials} protocol executions:");
    println!(
        "  uniform input accepted: {:.1}% (want >= 66.7%)",
        100.0 * accept_uniform
    );
    println!(
        "  eps-far input accepted: {:.1}% (want <= 33.3%)",
        100.0 * accept_far
    );

    assert!(accept_uniform > 2.0 / 3.0, "completeness violated");
    assert!(accept_far < 1.0 / 3.0, "soundness violated");
    println!("\nboth sides of the 2/3 guarantee hold.");
    Ok(())
}
