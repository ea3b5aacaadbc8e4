//! Integration between the lower-bound machinery and the live
//! protocols: the quantities the proofs reason about, measured on the
//! actual player functions the testers deploy.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use distributed_uniformity::lowerbound::{divergence, exact, lemmas, player::PairedSample};
use distributed_uniformity::probability::{empirical, PairedDomain, PerturbationVector};
use distributed_uniformity::testers::TThresholdTester;
use rand::SeedableRng;

/// The actual node function of the AND-rule tester, as a
/// `PlayerFunction` over the paired domain.
struct AndNodeBit {
    threshold: u64,
}

impl distributed_uniformity::lowerbound::player::PlayerFunction for AndNodeBit {
    fn output(&self, samples: &[PairedSample]) -> bool {
        // Encode (x, s) pairs as usize domain elements for the counter.
        let encoded: Vec<usize> = samples
            .iter()
            .map(|&(x, s)| 2 * x as usize + usize::from(s == -1))
            .collect();
        empirical::collision_count_of(&encoded) < self.threshold
    }
}

#[test]
fn real_tester_bits_satisfy_lemma_4_2() {
    // Take the AND tester's real node function and check the paper's
    // central inequality on it, exactly.
    let dom = PairedDomain::new(2);
    let n = dom.universe_size();
    let k = 8;
    let tester = TThresholdTester::new(n, k, 1);
    for q in 2..=3usize {
        let g = AndNodeBit {
            threshold: tester.node_threshold(q),
        };
        for &eps in &[0.2, 0.4] {
            let check = lemmas::check_lemma_4_2(&dom, q, eps, &g);
            assert!(check.holds(), "q={q} eps={eps}: {check:?}");
        }
    }
}

#[test]
fn biased_bits_carry_less_divergence_per_variance() {
    // The AND-rule mechanism: at matched q, the highly-biased node bit
    // achieves *less* raw divergence than the balanced bit.
    let dom = PairedDomain::new(2);
    let q = 3;
    let eps = 0.5;
    let biased = AndNodeBit { threshold: 3 }; // rarely rejects
    let balanced = AndNodeBit { threshold: 1 }; // rejects on any collision
    let d_biased = divergence::average_divergence_exact(&dom, q, eps, &biased);
    let d_balanced = divergence::average_divergence_exact(&dom, q, eps, &balanced);
    assert!(
        d_biased < d_balanced,
        "biased {d_biased} should be below balanced {d_balanced}"
    );
}

#[test]
fn divergence_budget_predicts_failure_at_tiny_q() {
    // With q = 1 and few players, the per-player cap times k is far
    // below the required budget — and indeed no tester configuration
    // can work there (the samples carry no collision information).
    let dom = PairedDomain::new(3);
    let n = dom.universe_size();
    let eps = 0.3;
    let k = 4;
    let budget = divergence::required_budget(1.0 / 3.0);
    let cap = divergence::per_player_cap(n, 1, eps);
    assert!(
        (k as f64) * cap < budget,
        "k*cap = {} should be below budget {budget}",
        k as f64 * cap
    );
}

#[test]
fn exact_and_theory_bounds_are_consistent() {
    // The solved-for q from the KL budget matches the Theorem 1.1 shape
    // within a constant factor across a small grid.
    use distributed_uniformity::lowerbound::theory;
    for &n in &[1usize << 12, 1 << 16] {
        for &k in &[4usize, 64] {
            for &eps in &[0.25, 0.5] {
                let solved = divergence::q_lower_bound(n, k, eps);
                let formula = theory::theorem_1_1(n, k, eps);
                let ratio = solved / formula;
                assert!(
                    ratio > 0.01 && ratio < 10.0,
                    "n={n} k={k} eps={eps}: solved {solved} vs formula {formula}"
                );
            }
        }
    }
}

#[test]
fn hard_family_defeats_mean_tests_but_not_collision_tests() {
    // E_z[nu_z] is uniform, so any statistic linear in the sample
    // marginals has zero averaged signal; the collision bit retains
    // second-order signal. This is the paper's core phenomenon.
    use distributed_uniformity::lowerbound::player::{SignDictator, SignParity};
    let dom = PairedDomain::new(2);
    let q = 2;
    let eps = 0.8;
    let dictator = exact::z_moments_exact(&dom, q, &SignDictator::new(0), eps);
    let parity_q1 = exact::z_moments_exact(&dom, 1, &SignParity, eps);
    let parity_q2 = exact::z_moments_exact(&dom, q, &SignParity, eps);
    let collision = exact::z_moments_exact(
        &dom,
        q,
        &distributed_uniformity::lowerbound::player::CollisionIndicator::new(1),
        eps,
    );
    // Degree-1 statistics (dictator; parity of a single sign) vanish on
    // average: E_z[nu_z] is exactly uniform.
    assert!(dictator.first_moment_abs() < 1e-12);
    assert!(parity_q1.first_moment_abs() < 1e-12);
    // Degree-2 statistics survive: the parity of TWO signs picks up the
    // eps^2 * z(x1)z(x2) term exactly when the cube points collide — it
    // is an implicit collision detector, which is the paper's point
    // that only "evenly covered" terms carry signal.
    assert!(parity_q2.first_moment_abs() > 1e-4);
    // And so does the explicit collision player.
    assert!(collision.first_moment_abs() > 1e-4);
}

#[test]
fn protocol_success_tracks_divergence_budget() {
    // Empirical protocol failure where the budget says "impossible":
    // a 4-player balanced tester at q=2 on a large domain must fail.
    use distributed_uniformity::probability::families;
    use distributed_uniformity::testers::BalancedThresholdTester;
    let n = 1 << 12;
    let eps = 0.25;
    let k = 4;
    let q = 2;
    // Budget check: impossible regime.
    assert!(
        (k as f64) * divergence::per_player_cap(n, q, eps) < divergence::required_budget(1.0 / 3.0)
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let prepared = BalancedThresholdTester::new(n, k, eps).prepare(q, 500, &mut rng);
    let uniform = families::uniform(n).alias_sampler();
    let far = families::two_level(n, eps).unwrap().alias_sampler();
    let ok = (0..60)
        .filter(|_| prepared.run(&uniform, &mut rng).verdict.is_accept())
        .count() as f64
        / 60.0;
    let alarm = (0..60)
        .filter(|_| prepared.run(&far, &mut rng).verdict.is_reject())
        .count() as f64
        / 60.0;
    // At least one side of the guarantee must break.
    assert!(
        ok < 2.0 / 3.0 || alarm < 2.0 / 3.0,
        "protocol should fail in the impossible regime: ok={ok} alarm={alarm}"
    );
}

#[test]
fn perturbation_vectors_from_code_cover_ensemble() {
    // The exact z-enumeration in `exact` relies on from_code covering
    // all vectors exactly once; verify via nu_g averaging = uniform.
    let dom = PairedDomain::new(2);
    let eps = 0.9;
    let count = 1u64 << dom.cube_size();
    let mut total = vec![0.0f64; dom.universe_size()];
    for code in 0..count {
        let z = PerturbationVector::from_code(dom.cube_size(), code);
        let nu = dom.perturbed_distribution(&z, eps).unwrap();
        for (i, t) in total.iter_mut().enumerate() {
            *t += nu.prob(i);
        }
    }
    for t in &total {
        assert!((t / count as f64 - 1.0 / dom.universe_size() as f64).abs() < 1e-12);
    }
}
