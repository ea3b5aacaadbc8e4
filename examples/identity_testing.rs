//! Uniformity is complete: test identity to an arbitrary known
//! distribution by reducing to uniformity testing (Goldreich's
//! reduction), then running the standard collision tester.
//!
//! ```bash
//! cargo run --release --example identity_testing
//! ```

#![allow(clippy::print_stdout, reason = "an example prints its walkthrough")]

use distributed_uniformity::probability::{distance, families, DenseDistribution};
use distributed_uniformity::testers::centralized::CentralizedTester;
use distributed_uniformity::testers::reduction::IdentityToUniformityReduction;
use distributed_uniformity::testers::CollisionTester;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    let eps = 0.5;
    // The known reference: a Zipf-like popularity profile.
    let reference = families::zipf(n, 1.0)?;
    println!("testing identity to zipf({n}, 1.0) with proximity eps = {eps}\n");

    let reduction = IdentityToUniformityReduction::new(reference.clone(), eps)?;
    let m = reduction.output_domain_size();
    println!(
        "reduction: granularity M = {}, output domain m = {m}",
        reduction.granularity()
    );

    // After the reduction the distance shrinks by a constant factor;
    // test uniformity over the output domain at eps/8.
    let tester = CollisionTester::new(m, eps / 8.0);
    let q = tester.recommended_sample_count();
    println!("collision tester over the output domain: q = {q} samples\n");

    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut verdict_for = |mu: &DenseDistribution, label: &str| {
        let sampler = mu.alias_sampler();
        let samples: Vec<usize> = (0..q)
            .map(|_| reduction.transform_stream(&sampler, &mut rng))
            .collect();
        let verdict = tester.test(&samples);
        let dist = distance::l1_distance(mu, &reference);
        println!("  input = {label:<22} l1-to-reference = {dist:.3}  ->  {verdict}");
        verdict
    };

    println!("single-run verdicts:");
    let matching = verdict_for(&reference, "the reference itself");
    let far = verdict_for(&families::uniform(n), "uniform (far from zipf)");
    let mixed = families::mixture(&reference, &families::uniform(n), 0.9)?;
    verdict_for(&mixed, "90% zipf + 10% uniform");

    assert!(matching.is_accept(), "matching input must be accepted");
    assert!(far.is_reject(), "far input must be rejected");

    println!(
        "\nthe exact pushforward view: when the input IS the reference, the \
         reduction output is exactly uniform —"
    );
    let (out, bot) = reduction.output_distribution(&reference);
    let d = distance::l1_distance(&out, &families::uniform(m));
    println!("  l1(pushforward, uniform) = {d:.2e}, retry probability = {bot:.3}");
    Ok(())
}
