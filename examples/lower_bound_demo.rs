//! A tour of the executable lower-bound machinery: the hard instances,
//! the odd-cancelation phenomenon, the main lemmas checked exactly, and
//! the KL budget that yields Theorem 6.1.
//!
//! ```bash
//! cargo run --release --example lower_bound_demo
//! ```

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example prints its walkthrough, and a broken setup invariant ends it"
)]

use distributed_uniformity::fourier::evencover;
use distributed_uniformity::lowerbound::{
    divergence, exact, lemmas,
    player::{CollisionIndicator, SignDictator, SignParity},
    theory,
};
use distributed_uniformity::probability::{distance, PairedDomain, PerturbationVector};
use rand::SeedableRng;

fn main() {
    let ell = 3;
    let dom = PairedDomain::new(ell); // universe n = 2^{ell+1} = 16
    let n = dom.universe_size();
    let eps = 0.4;
    let q = 3;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);

    println!("== the hard family (Section 3) ==");
    let z = PerturbationVector::random(dom.cube_size(), &mut rng);
    let nu = dom
        .perturbed_distribution(&z, eps)
        .expect("valid parameters");
    println!(
        "nu_z on n = {n}: l1 distance from uniform = {:.3} (= eps exactly)",
        distance::l1_distance(&nu, &dom.uniform())
    );
    println!(
        "while the MIXTURE over all z is exactly uniform — no single test \
         statistic survives averaging.\n"
    );

    println!("== odd cancelation / even covers (Section 5) ==");
    let q_cover = 6u64;
    for r in 1..=q_cover / 2 {
        let exact_count = evencover::x_s_count_exact(dom.cube_size() as u64, q_cover, 2 * r);
        let bound = evencover::x_s_count_bound(dom.cube_size() as u64, q_cover, 2 * r);
        println!(
            "  |X_S| for |S| = {} (q = {q_cover}): exact = {exact_count}, Prop 5.2 bound = {bound:.0}",
            2 * r
        );
    }
    println!();

    println!("== the main lemmas, checked exactly (q = {q}, eps = {eps}) ==");
    let dom_small = PairedDomain::new(2); // exact z-enumeration: 2^4 vectors
    let players: [(
        &str,
        &dyn distributed_uniformity::lowerbound::player::PlayerFunction,
    ); 3] = [
        ("collision indicator", &CollisionIndicator::new(1)),
        ("sign dictator", &SignDictator::new(0)),
        ("sign parity", &SignParity),
    ];
    println!(
        "{:<22}{:>12}{:>14}{:>14}{:>8}",
        "player G", "mu(G)", "lemma 4.2 lhs", "rhs", "ratio"
    );
    for (name, g) in players {
        let check = lemmas::check_lemma_4_2(&dom_small, q, eps, g);
        let mu = exact::mu_g(&dom_small, q, g);
        println!(
            "{name:<22}{mu:>12.4}{:>14.6}{:>14.6}{:>8.2}",
            check.lhs,
            check.rhs,
            check.ratio()
        );
        assert!(check.holds());
    }
    println!("(every lhs <= rhs: the bound of Lemma 4.2 holds exactly)\n");

    println!("== the KL budget (Section 6.1) ==");
    let g = CollisionIndicator::new(1);
    let actual = divergence::average_divergence_exact(&dom_small, q, eps, &g);
    let cap = divergence::per_player_cap(dom_small.universe_size(), q, eps);
    println!("  one player's divergence E_z[D(nu_G || mu_G)] = {actual:.6} bits");
    println!("  the Fact 6.3 + Lemma 4.2 cap                 = {cap:.6} bits");
    println!(
        "  budget needed for 2/3 success: {:.3} bits  =>  k >= {:.1} players",
        divergence::required_budget(1.0 / 3.0),
        divergence::required_budget(1.0 / 3.0) / cap
    );
    println!();

    println!("== what the theorems predict at scale ==");
    let big_n = 1 << 16;
    println!("  n = {big_n}, eps = 0.25:");
    for k in [4usize, 64, 1024, 1 << 20] {
        // Both lower bounds apply to the AND rule; report their max.
        let and_bound =
            theory::theorem_1_2(big_n, k, 0.25).max(theory::theorem_1_1(big_n, k, 0.25));
        println!(
            "    k = {k:>7}: any rule >= {:>7.0}   AND rule >= {:>7.0}   (centralized {:.0})",
            theory::theorem_1_1(big_n, k, 0.25),
            and_bound,
            theory::centralized(big_n, 0.25),
        );
    }
    println!(
        "\nthe any-rule bound falls like 1/sqrt(k); the AND bound stalls at \
         sqrt(n)/log^2(k) — locality does not parallelize."
    );
}
