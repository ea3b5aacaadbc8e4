//! Cross-cutting checks of the paper's headline claims, at test-suite
//! scale (the full-scale versions are the E1–E11 benchmark binaries).

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use distributed_uniformity::lowerbound::{mixture, theory};
use distributed_uniformity::probability::{families, PairedDomain};
use distributed_uniformity::testers::reduction::IdentityToUniformityReduction;
use distributed_uniformity::testers::BalancedThresholdTester;
use rand::SeedableRng;

/// The theorem formulas reproduce the paper's qualitative hierarchy
/// across a parameter grid: centralized ≥ any-rule floor, AND floor ≥
/// any-rule floor (both bounds apply), r-bit floor ≤ 1-bit floor.
#[test]
fn theory_hierarchy_is_consistent() {
    for &n in &[1usize << 10, 1 << 16, 1 << 20] {
        for &k in &[2usize, 32, 1024] {
            for &eps in &[0.1, 0.5, 1.0] {
                let any = theory::theorem_1_1(n, k, eps);
                let and_floor = theory::theorem_1_2(n, k, eps).max(any);
                let centralized = theory::centralized(n, eps);
                assert!(any <= centralized + 1e-9, "n={n} k={k} eps={eps}");
                assert!(and_floor >= any - 1e-9, "n={n} k={k} eps={eps}");
                for r in 2..=6 {
                    assert!(
                        theory::theorem_6_4(n, k, eps, r)
                            <= theory::theorem_6_4(n, k, eps, r - 1) + 1e-9,
                        "n={n} k={k} eps={eps} r={r}"
                    );
                }
            }
        }
    }
}

/// Below the mixture barrier the calibrated tester must fail; above the
/// centralized budget it must succeed — the sandwich that pins the
/// Θ(√n/ε²) truth, checked end-to-end at one small size.
#[test]
fn mixture_barrier_sandwiches_real_tester() {
    let ell = 7; // n = 256
    let dom = PairedDomain::new(ell);
    let n = dom.universe_size();
    let eps = 0.5;
    let k = 8;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);

    // The information-theoretic floor: per-player budget at which even
    // the POOLED samples (k*q) sit below the chi^2 = 1/4 crossing.
    let pooled_floor =
        mixture::q_where_chi2_exceeds(&dom, eps, 0.25, 1 << 16).expect("crossing exists");
    let q_too_small = (pooled_floor / k / 4).max(1);

    let tester = BalancedThresholdTester::new(n, k, eps);
    let uniform = families::uniform(n).alias_sampler();
    let far = families::two_level(n, eps).unwrap().alias_sampler();

    // Far below the barrier: the guarantee must fail.
    let prepared = tester.prepare(q_too_small, 500, &mut rng);
    let trials = 80;
    let ok = (0..trials)
        .filter(|_| prepared.run(&uniform, &mut rng).verdict.is_accept())
        .count() as f64
        / f64::from(trials);
    let alarm = (0..trials)
        .filter(|_| prepared.run(&far, &mut rng).verdict.is_reject())
        .count() as f64
        / f64::from(trials);
    assert!(
        ok < 2.0 / 3.0 || alarm < 2.0 / 3.0,
        "q={q_too_small} is below the barrier yet both sides hold (ok={ok}, alarm={alarm})"
    );

    // At the generous upper budget: both sides must hold.
    let q_enough = tester.predicted_sample_count();
    let prepared = tester.prepare(q_enough, 1000, &mut rng);
    let ok = (0..trials)
        .filter(|_| prepared.run(&uniform, &mut rng).verdict.is_accept())
        .count() as f64
        / f64::from(trials);
    let alarm = (0..trials)
        .filter(|_| prepared.run(&far, &mut rng).verdict.is_reject())
        .count() as f64
        / f64::from(trials);
    assert!(
        ok >= 2.0 / 3.0 && alarm >= 2.0 / 3.0,
        "q={q_enough} should suffice (ok={ok}, alarm={alarm})"
    );
}

/// Uniformity is complete, distributedly: compose Goldreich's reduction
/// with the distributed balanced tester to test identity to a Zipf
/// reference with k players — no step is centralized.
#[test]
fn distributed_identity_testing_via_reduction() {
    let n = 64;
    let eps = 0.6;
    let k = 16;
    let reference = families::zipf(n, 1.0).unwrap();
    let reduction = IdentityToUniformityReduction::new(reference.clone(), eps).unwrap();
    let m = reduction.output_domain_size();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);

    // Each player transforms its own sample stream through the
    // reduction; the referee-side tester sees the output domain.
    let tester = BalancedThresholdTester::new(m, k, eps / 8.0);
    let q = tester.predicted_sample_count().min(30_000);
    let prepared = tester.prepare(q, 400, &mut rng);

    let run = |input: &distributed_uniformity::probability::DenseDistribution,
               rng: &mut rand::rngs::StdRng| {
        // Simulate the k players: each draws q reduced samples.
        let sampler = input.alias_sampler();
        let bits: Vec<bool> = (0..k)
            .map(|_| {
                let samples: Vec<usize> = (0..q)
                    .map(|_| reduction.transform_stream(&sampler, rng))
                    .collect();
                let lambda = (q * (q - 1)) as f64 / 2.0 / m as f64;
                let midpoint = lambda * (1.0 + (eps / 8.0) * (eps / 8.0) / 2.0);
                (distributed_uniformity::probability::empirical::collision_count_of(&samples)
                    as f64)
                    <= midpoint
            })
            .collect();
        let rejects = bits.iter().filter(|&&b| !b).count();
        rejects < prepared.referee_min_rejects()
    };

    let trials = 7;
    let accepts_reference = (0..trials).filter(|_| run(&reference, &mut rng)).count();
    assert!(
        accepts_reference >= trials - 1,
        "matching reference accepted only {accepts_reference}/{trials}"
    );
    let uniform_input = families::uniform(n);
    let accepts_far = (0..trials)
        .filter(|_| run(&uniform_input, &mut rng))
        .count();
    assert!(
        accepts_far <= 1,
        "far input accepted {accepts_far}/{trials}"
    );
}

/// The §6.2 remark: for fixed q the minimal player count changes regime
/// at q = 1/ε².
#[test]
fn fixed_q_regimes_meet_at_the_boundary() {
    let n = 1 << 12;
    let eps = 0.25; // boundary at q = 16
    let boundary = dut_stats::convert::round_to_usize(1.0 / (eps * eps));
    let below = theory::min_players_for_fixed_q(n, boundary - 1, eps);
    let at = theory::min_players_for_fixed_q(n, boundary, eps);
    let above = theory::min_players_for_fixed_q(n, boundary + 1, eps);
    // Continuity at the boundary (same value from both formulas)...
    assert!((at - n as f64 / (boundary as f64 * eps * eps)).abs() < 1e-9);
    // ...and monotone decrease through it.
    assert!(below > at && at > above);
}
