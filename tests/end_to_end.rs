//! End-to-end integration: the high-level tester API against the
//! paper's own hard instances (the `ν_z` family), across decision
//! rules.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use distributed_uniformity::probability::{families, PairedDomain, PerturbationVector};
use distributed_uniformity::{Rule, UniformityTester};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Protocols must reject the paper's own hard instances, not just the
/// structured two-level family.
#[test]
fn balanced_rule_rejects_random_hard_instances() {
    let ell = 9; // n = 1024
    let dom = PairedDomain::new(ell);
    let n = dom.universe_size();
    let eps = 0.5;
    let mut r = rng(1);

    let tester = UniformityTester::builder()
        .domain_size(n)
        .players(16)
        .epsilon(eps)
        .rule(Rule::Balanced)
        .build()
        .unwrap();
    let prepared = tester.prepare(tester.predicted_sample_count(), &mut r);

    // Uniform side.
    let uniform = dom.uniform().alias_sampler();
    assert!(
        prepared.acceptance_rate(&uniform, 60, &mut r) > 2.0 / 3.0,
        "completeness on the paired-domain uniform distribution"
    );

    // Three random hard instances.
    for i in 0..3 {
        let z = PerturbationVector::random(dom.cube_size(), &mut r);
        let nu = dom.perturbed_distribution(&z, eps).unwrap().alias_sampler();
        let accept = prepared.acceptance_rate(&nu, 60, &mut r);
        assert!(accept < 1.0 / 3.0, "hard instance {i}: acceptance {accept}");
    }
}

#[test]
fn all_rules_complete_on_uniform() {
    let n = 512;
    let mut r = rng(2);
    let uniform = families::uniform(n).alias_sampler();
    for rule in [
        Rule::And,
        Rule::TThreshold { t: 2 },
        Rule::Balanced,
        Rule::Centralized,
    ] {
        let tester = UniformityTester::builder()
            .domain_size(n)
            .players(8)
            .epsilon(0.5)
            .rule(rule)
            .build()
            .unwrap();
        let prepared = tester.prepare(tester.predicted_sample_count().min(4000), &mut r);
        let accept = prepared.acceptance_rate(&uniform, 50, &mut r);
        assert!(
            accept > 2.0 / 3.0,
            "rule {rule}: acceptance on uniform = {accept}"
        );
    }
}

#[test]
fn centralized_and_balanced_reject_far_families() {
    let n = 512;
    let eps = 0.6;
    let mut r = rng(3);
    let far_instances = [
        families::two_level(n, eps).unwrap(),
        families::alternating(n, eps).unwrap(),
        families::uniform_on_prefix(n, n / 4).unwrap(),
    ];
    for rule in [Rule::Balanced, Rule::Centralized] {
        let tester = UniformityTester::builder()
            .domain_size(n)
            .players(16)
            .epsilon(eps)
            .rule(rule)
            .build()
            .unwrap();
        let prepared = tester.prepare(tester.predicted_sample_count(), &mut r);
        for (i, far) in far_instances.iter().enumerate() {
            let accept = prepared.acceptance_rate(&far.alias_sampler(), 50, &mut r);
            assert!(
                accept < 1.0 / 3.0,
                "rule {rule}, instance {i}: acceptance {accept}"
            );
        }
    }
}

/// Sub-threshold inputs: a distribution closer than ε may be accepted
/// or rejected, but *uniform plus tiny noise* far below ε must not trip
/// a calibrated tester too often (robustness sanity, not a paper
/// requirement).
#[test]
fn nearly_uniform_inputs_mostly_accepted() {
    let n = 512;
    let eps = 0.5;
    let mut r = rng(4);
    let tester = UniformityTester::builder()
        .domain_size(n)
        .players(16)
        .epsilon(eps)
        .rule(Rule::Balanced)
        .build()
        .unwrap();
    let prepared = tester.prepare(tester.predicted_sample_count(), &mut r);
    let nearly = families::two_level(n, 0.05).unwrap().alias_sampler();
    let accept = prepared.acceptance_rate(&nearly, 60, &mut r);
    assert!(accept > 0.5, "acceptance on 0.05-far input = {accept}");
}

#[test]
fn advisor_recommendation_actually_works() {
    use distributed_uniformity::advisor::{recommend, LocalityRequirement};
    let n = 1024;
    let k = 32;
    let eps = 0.5;
    let rec = recommend(n, k, eps, LocalityRequirement::Unrestricted);
    let mut r = rng(5);
    let tester = UniformityTester::builder()
        .domain_size(n)
        .players(k)
        .epsilon(eps)
        .rule(rec.rule)
        .build()
        .unwrap();
    let prepared = tester.prepare(tester.predicted_sample_count(), &mut r);
    let uniform = families::uniform(n).alias_sampler();
    let far = families::two_level(n, eps).unwrap().alias_sampler();
    assert!(prepared.acceptance_rate(&uniform, 50, &mut r) > 2.0 / 3.0);
    assert!(prepared.acceptance_rate(&far, 50, &mut r) < 1.0 / 3.0);
}

#[test]
fn transcripts_expose_player_bits() {
    use distributed_uniformity::testers::TThresholdTester;
    let n = 256;
    let t = TThresholdTester::new(n, 8, 1).prepare(40);
    let mut r = rng(6);
    let point = families::point_mass(n, 0).unwrap().alias_sampler();
    let out = t.run(&point, &mut r);
    // Every node would reject; the first rejection settles the AND
    // rule, so the referee hears one node.
    assert_eq!(out.transcript.messages, vec![false]);
    assert_eq!(out.transcript.reject_count(), 1);
    assert_eq!(out.transcript.total_samples(), 40);
    assert!(out.verdict.is_reject());
}
