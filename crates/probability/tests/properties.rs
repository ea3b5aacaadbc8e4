//! Property-based tests for the probability substrate.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]
use dut_probability::{
    distance, empirical, families, CollisionWalk, DenseDistribution, Histogram, PairedDomain,
    PerturbationVector, Sampler,
};
use proptest::prelude::*;
use rand::SeedableRng;

/// The smallest sample value for which the collision functions sort a copy
/// instead of using their per-thread count table.
const TABLE_BOUND: usize = 1 << 20;

/// The occupancy histogram of `q` draws from a per-draw sampler.
fn bin<S: Sampler>(sampler: &S, q: u64, rng: &mut rand::rngs::StdRng) -> Histogram {
    let mut h = Histogram::new(sampler.support_size());
    for _ in 0..q {
        h.record(sampler.sample(rng));
    }
    h
}

/// Colliding pairs by brute force: every `i < j` with equal samples.
fn pair_count(samples: &[usize]) -> u64 {
    let mut pairs = 0;
    for (i, a) in samples.iter().enumerate() {
        pairs += samples[i + 1..].iter().filter(|&b| b == a).count() as u64;
    }
    pairs
}

/// `q` minus the number of distinct values, by brute force: every sample
/// equal to an earlier one.
fn coincidences(samples: &[usize]) -> u64 {
    (0..samples.len())
        .filter(|&i| samples[..i].contains(&samples[i]))
        .count() as u64
}

/// Asserts both collision functions against the brute-force oracles.
fn assert_matches_oracle(samples: &[usize]) {
    assert_eq!(empirical::collision_count_of(samples), pair_count(samples));
    assert_eq!(
        empirical::coincidence_count_of(samples),
        coincidences(samples)
    );
}

/// Sample slices mixing small values, values either side of the table bound
/// and values just below `usize::MAX`. A third of the slices are reduced
/// below 64 and a third below the bound, so both counting paths and their
/// repeats are reached.
fn arb_mixed_samples() -> impl Strategy<Value = Vec<usize>> {
    let value = (0u8..3, 0usize..64, 0usize..4).prop_map(|(kind, small, near)| match kind {
        0 => small,
        1 => TABLE_BOUND - 2 + near,
        _ => usize::MAX - near,
    });
    (0u8..3, prop::collection::vec(value, 0..96)).prop_map(|(cap, samples)| match cap {
        0 => samples.into_iter().map(|x| x % 64).collect(),
        1 => samples.into_iter().map(|x| x % TABLE_BOUND).collect(),
        _ => samples,
    })
}

/// Strategy producing a valid probability vector of length 2..=32.
fn arb_distribution() -> impl Strategy<Value = DenseDistribution> {
    prop::collection::vec(0.0f64..1.0, 2..32).prop_filter_map(
        "weights must not be all ~zero",
        |w| {
            let sum: f64 = w.iter().sum();
            if sum < 1e-6 {
                None
            } else {
                DenseDistribution::from_weights(w).ok()
            }
        },
    )
}

/// A pair of distributions on the same domain.
fn arb_pair() -> impl Strategy<Value = (DenseDistribution, DenseDistribution)> {
    (2usize..24).prop_flat_map(|n| {
        let left = prop::collection::vec(0.01f64..1.0, n)
            .prop_map(|w| DenseDistribution::from_weights(w).expect("positive weights"));
        let right = prop::collection::vec(0.01f64..1.0, n)
            .prop_map(|w| DenseDistribution::from_weights(w).expect("positive weights"));
        (left, right)
    })
}

proptest! {
    #[test]
    fn probabilities_sum_to_one(d in arb_distribution()) {
        let sum: f64 = d.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collision_probability_at_least_uniform(d in arb_distribution()) {
        // For any distribution on n elements, sum p_i^2 >= 1/n.
        let n = d.support_size() as f64;
        prop_assert!(d.collision_probability() >= 1.0 / n - 1e-12);
    }

    #[test]
    fn l1_distance_is_a_metric((p, q) in arb_pair()) {
        let d_pq = distance::l1_distance(&p, &q);
        let d_qp = distance::l1_distance(&q, &p);
        prop_assert!((d_pq - d_qp).abs() < 1e-12);        // symmetry
        prop_assert!((0.0..=2.0 + 1e-12).contains(&d_pq)); // bounded
        prop_assert!(distance::l1_distance(&p, &p) < 1e-12); // identity
    }

    #[test]
    fn triangle_inequality((p, q) in arb_pair(), w in prop::collection::vec(0.01f64..1.0, 2..24)) {
        // Build a third distribution on the same domain as p, q when lengths match.
        if w.len() == p.support_size() {
            let r = DenseDistribution::from_weights(w).expect("positive weights");
            let lhs = distance::l1_distance(&p, &q);
            let rhs = distance::l1_distance(&p, &r) + distance::l1_distance(&r, &q);
            prop_assert!(lhs <= rhs + 1e-9);
        }
    }

    #[test]
    fn kl_divergence_nonnegative((p, q) in arb_pair()) {
        prop_assert!(distance::kl_divergence(&p, &q) >= 0.0);
    }

    #[test]
    fn sampler_emits_in_range(d in arb_distribution(), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = d.alias_sampler();
        for _ in 0..64 {
            prop_assert!(s.sample(&mut rng) < d.support_size());
        }
    }

    #[test]
    fn histogram_total_matches(samples in prop::collection::vec(0usize..16, 0..128)) {
        let h = Histogram::from_samples(16, &samples);
        prop_assert_eq!(h.total(), samples.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), samples.len() as u64);
    }

    #[test]
    fn collision_functions_agree(samples in prop::collection::vec(0usize..8, 0..64)) {
        let h = Histogram::from_samples(8, &samples);
        prop_assert_eq!(h.collision_count(), empirical::collision_count_of(&samples));
        prop_assert_eq!(
            h.coincidence_count(),
            empirical::coincidence_count_of(&samples)
        );
    }

    #[test]
    fn collision_functions_match_pair_oracle(samples in arb_mixed_samples()) {
        prop_assert_eq!(empirical::collision_count_of(&samples), pair_count(&samples));
        prop_assert_eq!(empirical::coincidence_count_of(&samples), coincidences(&samples));
    }

    #[test]
    fn coincidences_at_most_collisions(samples in prop::collection::vec(0usize..8, 1..64)) {
        // Each coincidence contributes at least one colliding pair.
        prop_assert!(
            empirical::coincidence_count_of(&samples)
                <= empirical::collision_count_of(&samples)
        );
    }

    #[test]
    fn perturbed_distribution_epsilon_far(
        ell in 1u32..6,
        eps in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let dom = PairedDomain::new(ell);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let z = PerturbationVector::random(dom.cube_size(), &mut rng);
        let nu = dom.perturbed_distribution(&z, eps).expect("valid parameters");
        let dist = distance::l1_distance(&nu, &dom.uniform());
        prop_assert!((dist - eps).abs() < 1e-9);
    }

    #[test]
    fn paired_encode_decode_roundtrip(ell in 1u32..10, idx_frac in 0.0f64..1.0) {
        let dom = PairedDomain::new(ell);
        let idx = ((dom.universe_size() - 1) as f64 * idx_frac) as usize;
        let (x, s) = dom.decode(idx);
        prop_assert_eq!(dom.encode(x, s), idx);
    }

    #[test]
    fn two_level_distance_exact(half_n in 1usize..64, eps in 0.0f64..=1.0) {
        let n = half_n * 2;
        let d = families::two_level(n, eps).expect("valid parameters");
        let dist = distance::l1_distance(&d, &families::uniform(n));
        prop_assert!((dist - eps).abs() < 1e-9);
    }

    #[test]
    fn mixture_distance_scales(lambda in 0.0f64..=1.0) {
        let far = families::two_level(16, 0.6).expect("valid parameters");
        let u = families::uniform(16);
        let m = families::mixture(&far, &u, lambda).expect("same domain");
        let dist = distance::l1_distance(&m, &u);
        prop_assert!((dist - lambda * 0.6).abs() < 1e-9);
    }

    // --- occupancy backends ---------------------------------------------

    #[test]
    fn backends_total_is_q(d in arb_distribution(), q in 0u64..4096, seed in any::<u64>()) {
        let cdf = d.cdf_sampler();
        let hist = d.histogram_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        prop_assert_eq!(bin(&cdf, q, &mut rng).total(), q);
        prop_assert_eq!(hist.draw(q, &mut rng).total(), q);
    }

    #[test]
    fn backends_respect_zero_mass(
        mask in prop::collection::vec(prop::bool::ANY, 3..24),
        seed in any::<u64>(),
    ) {
        // Plant explicit zeroes; neither backend may put a sample there.
        let weights: Vec<f64> = mask.iter().map(|&on| if on { 1.0 } else { 0.0 }).collect();
        if weights.iter().sum::<f64>() > 0.0 {
            let d = DenseDistribution::from_weights(weights).expect("some positive mass");
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let per_draw = bin(&d.cdf_sampler(), 512, &mut rng);
            let histogram = d.histogram_sampler().draw(512, &mut rng);
            for (engine, h) in [("per-draw", per_draw), ("histogram", histogram)] {
                for (i, &on) in mask.iter().enumerate() {
                    if !on {
                        prop_assert_eq!(h.count(i), 0, "{} put mass at zero cell {}", engine, i);
                    }
                }
            }
        }
    }

    #[test]
    fn all_count_samplers_agree_in_expectation(d in arb_distribution(), seed in any::<u64>()) {
        // Alias, inverse-CDF and stick-breaking engines target the same
        // law; with q = 2048 each marginal mean must sit within 6 sigma
        // of q * p_i for every engine (same derived-seed stream each).
        let q = 2048u64;
        let alias = d.alias_sampler();
        let cdf = d.cdf_sampler();
        let hist = d.histogram_sampler();
        let engines: [&dyn Fn(&mut rand::rngs::StdRng) -> Histogram; 3] = [
            &|r| bin(&alias, q, r),
            &|r| bin(&cdf, q, r),
            &|r| hist.draw(q, r),
        ];
        for (e, engine) in engines.iter().enumerate() {
            let reps = 8u64;
            let mut totals = vec![0u64; d.support_size()];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (e as u64) << 32);
            for _ in 0..reps {
                let h = engine(&mut rng);
                for (i, t) in totals.iter_mut().enumerate() {
                    *t += h.count(i);
                }
            }
            let m = (reps * q) as f64;
            for (i, &t) in totals.iter().enumerate() {
                let p = d.prob(i);
                let sigma = (m * p * (1.0 - p)).sqrt();
                prop_assert!(
                    ((t as f64) - m * p).abs() <= 6.0 * sigma + 1e-9,
                    "engine {} cell {}: {} vs mean {}", e, i, t, m * p
                );
            }
        }
    }

    #[test]
    fn collision_walk_matches_draw_on_any_law(
        d in arb_distribution(),
        q in 0u64..600,
        seed in any::<u64>(),
    ) {
        assert_walk_matches_draw(&d, q, 64, seed);
    }
}

/// Asserts that `nodes` successive collision-walk counts of `q`-sample
/// histograms equal `draw(q, ..).collision_count()` and leave the
/// generator where `draw` leaves it.
fn assert_walk_matches_draw(d: &DenseDistribution, q: u64, nodes: usize, seed: u64) {
    let hist = d.histogram_sampler();
    let mut walk = hist.collision_walk(q);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut reference = rng.clone();
    for node in 0..nodes {
        assert_eq!(
            walk.collision_count(&mut rng),
            hist.draw(q, &mut reference).collision_count(),
            "q={q} node {node}"
        );
        assert_eq!(rng, reference, "q={q}: generator after node {node}");
    }
}

#[test]
fn collision_walk_matches_draw_on_every_branch() {
    let cap = CollisionWalk::MAX_TABLE_ENTRIES as u64;
    // Zero-mass cells, leading, inner and trailing, with and without
    // the table.
    let holes = DenseDistribution::new(vec![0.0, 0.2, 0.0, 0.3, 0.0, 0.5, 0.0]).unwrap();
    assert_walk_matches_draw(&holes, 40, 5_000, 1);
    assert_walk_matches_draw(&holes, 1_000, 2_000, 1);
    // A mirrored cell: cell 1 keeps 0.8 / 0.9 of what remains.
    let mirrored = DenseDistribution::new(vec![0.1, 0.8, 0.05, 0.05]).unwrap();
    assert_walk_matches_draw(&mirrored, 12, 5_000, 2);
    assert_walk_matches_draw(&mirrored, 500, 2_000, 3);
    assert_walk_matches_draw(&mirrored, 2_000, 2_000, 3);
    // Means of 30 and more take the general sampler.
    assert_walk_matches_draw(&families::uniform(8), 1_000, 2_000, 4);
    // m >= 128 computes `pmf0` with `exp`. uniform(32) keeps its table
    // up to q = 128 and none from q = 129; so does uniform(100) up to
    // q = 40 and from q = 41.
    assert_eq!((cap / 32, cap / 100), (128, 40));
    for q in [127, 128, 129, 1_000] {
        assert_walk_matches_draw(&families::uniform(32), q, 2_000, 5 + q);
    }
    for q in [40, 41, 150] {
        assert_walk_matches_draw(&families::uniform(100), q, 2_000, 5 + q);
    }
    // The shapes the balanced rule calibrates on the histogram engine.
    for (n, q) in [(64, 8), (256, 16), (256, 32), (256, 128), (1000, 1000)] {
        assert_walk_matches_draw(&families::uniform(n), q, 2_000, 6 + q);
    }
    assert_walk_matches_draw(&families::zipf(300, 1.1).unwrap(), 200, 2_000, 7);
    assert_walk_matches_draw(&families::uniform(5), 0, 10, 8);
}

/// Replays `words` first, then a seeded generator's stream.
#[derive(Debug, Clone, PartialEq)]
struct PlantedRng {
    words: Vec<u64>,
    next: usize,
    tail: rand::rngs::StdRng,
}

impl PlantedRng {
    fn new(words: Vec<u64>) -> Self {
        Self {
            words,
            next: 0,
            tail: rand::rngs::StdRng::seed_from_u64(99),
        }
    }
}

impl rand::RngCore for PlantedRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let word = self.words.get(self.next).copied();
        self.next += 1;
        word.unwrap_or_else(|| self.tail.next_u64())
    }
}

#[test]
fn collision_walk_decides_planted_words_at_the_cutoffs_as_draw_does() {
    // Cell 0 is on BINV's direct branch in each shape: its chunked walk
    // (m >= 4), its one-term tail (m < 4), the `exp` power (m >= 128)
    // with and without the walk's table.
    for (n, q) in [(3usize, 5u64), (3, 2), (3, 1), (32, 128), (1000, 1000)] {
        let hist = families::uniform(n).histogram_sampler();
        // Cell 0's count when the first word's top 53 bits are `k`.
        let first = |k: u64| hist.draw(q, &mut PlantedRng::new(vec![k << 11])).count(0);
        // The largest k whose count is at most `c`, by bisection.
        let last_at_most = |c: u64| {
            let (mut lo, mut hi) = (0u64, 1u64 << 53);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if first(mid) <= c {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let (t0, t1) = (last_at_most(0), last_at_most(1));
        assert_eq!(first(t0), 0, "n={n} q={q}");
        assert_eq!(first(t0 + 1), 1, "n={n} q={q}");
        assert_eq!(first(t1), 1, "n={n} q={q}");
        let mut walk = hist.collision_walk(q);
        for k in [t0, t0 + 1, t1, t1 + 1] {
            if k >= 1 << 53 {
                continue;
            }
            // The low 11 bits never decide.
            for word in [k << 11, k << 11 | 0x7ff] {
                let mut rng = PlantedRng::new(vec![word]);
                let mut reference = rng.clone();
                assert_eq!(
                    walk.collision_count(&mut rng),
                    hist.draw(q, &mut reference).collision_count(),
                    "n={n} q={q} k={k}"
                );
                assert_eq!(rng, reference, "n={n} q={q} k={k}");
            }
        }
    }
}

#[test]
fn collision_functions_edge_cases() {
    assert_matches_oracle(&[]);
    assert_matches_oracle(&[7]);
    assert_matches_oracle(&[usize::MAX]);
    assert_matches_oracle(&[3; 40]);
    assert_matches_oracle(&[usize::MAX; 40]);
    assert_eq!(empirical::collision_count_of(&[3; 40]), 40 * 39 / 2);
    assert_eq!(empirical::coincidence_count_of(&[3; 40]), 39);
    // The most equal values a count-table entry can hold, then one more,
    // which takes the sorting path.
    let full = vec![3; empirical::MAX_TALLY];
    assert_eq!(empirical::collision_count_of(&full), 2_094_081);
    assert_eq!(empirical::coincidence_count_of(&full), 2_046);
    let over = vec![3; empirical::MAX_TALLY + 1];
    assert_eq!(empirical::collision_count_of(&over), 2_096_128);
    assert_eq!(empirical::coincidence_count_of(&over), 2_047);
    assert_matches_oracle(&[3, 5, 3]);
}

#[test]
fn collision_functions_many_more_samples_than_values() {
    // q = 512 samples over a domain of 4: every value repeats ~127 times.
    let samples: Vec<usize> = (0..512).map(|i| (i * 7 + i / 3) % 4).collect();
    assert_matches_oracle(&samples);
    assert_eq!(empirical::coincidence_count_of(&samples), 508);
}

#[test]
fn collision_scratch_does_not_leak_between_calls_or_threads() {
    // Alternate slices that take the sorting path (large maximum) with
    // slices that reuse the per-thread count table, at its full 2²⁰
    // entries and small, on several threads at once: every answer must
    // match the oracle, so no counts survive a call. `growing` grows the
    // table mid-slice, past a power of two; `bailing` leaves for the
    // sorting path mid-slice, after counting small values.
    let large: Vec<usize> = vec![5, 9, TABLE_BOUND, 9, usize::MAX, TABLE_BOUND, 5];
    let wide: Vec<usize> = (0..300)
        .map(|i| i * 3500)
        .chain([TABLE_BOUND - 1; 2])
        .collect();
    let small: Vec<usize> = (0..200).map(|i| (i * 13) % 50).collect();
    let growing: Vec<usize> = (0..40).map(|i| i * 9).chain([7, 300, 7]).collect();
    let bailing: Vec<usize> = vec![5, 9, 5, 13, TABLE_BOUND, 9, 13, 5];
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (large, wide, small) = (&large, &wide, &small);
            let (growing, bailing) = (&growing, &bailing);
            scope.spawn(move || {
                for round in 0..50 {
                    assert_matches_oracle(large);
                    if (round + t) % 2 == 0 {
                        assert_matches_oracle(wide);
                    }
                    assert_matches_oracle(small);
                    assert_matches_oracle(&small[round..round + 3]);
                    assert_matches_oracle(growing);
                    assert_matches_oracle(&small[round..round + 3]);
                    assert_matches_oracle(bailing);
                    assert_matches_oracle(&[9, 13, 5, 2]);
                }
            });
        }
    });
}

/// FNV-1a over the first `count` alias draws of `dist` at the golden seed.
fn alias_stream_checksum(dist: &DenseDistribution, count: usize) -> u64 {
    let sampler = dist.alias_sampler();
    let mut rng = rand::rngs::StdRng::seed_from_u64(20_190_729);
    (0..count).fold(0xcbf2_9ce4_8422_2325_u64, |h, _| {
        (h ^ sampler.sample(&mut rng) as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The alias draw stream is part of the bit-identity contract: every q*,
/// every `results/*.csv` and the fuzz corpus depend on it. The two-level
/// and `uniform(4096)` checksums were recorded from the two-array sampler
/// (`prob`/`alias`) that predates the packed table; the Zipf and
/// `uniform(1000)` ones from the packed table that still compared
/// `u < keep` in `f64`. Any change to which random words a draw takes, or
/// to which side of a keep a word falls, fails here.
#[test]
fn alias_draw_streams_match_golden_checksums() {
    let far = families::two_level(4096, 0.5).unwrap();
    assert_eq!(alias_stream_checksum(&far, 10_000), 0x9138_aead_e300_2b99);
    let uniform = families::uniform(4096);
    assert_eq!(
        alias_stream_checksum(&uniform, 10_000),
        0x851f_112b_abe0_9212
    );
    let zipf = families::zipf(4096, 1.0).unwrap();
    assert_eq!(alias_stream_checksum(&zipf, 10_000), 0xae1f_93a8_4ad8_ada0);
    let uniform = families::uniform(1000);
    assert_eq!(
        alias_stream_checksum(&uniform, 10_000),
        0x9e86_4c4f_968f_f094
    );
}

/// The fused collision kernel draws the same stream: FNV-1a over 1,000
/// collision counts of `uniform(4096)` at `q = 233`, one generator for all.
/// Recorded from the sampler that compared `u < keep` in `f64`.
#[test]
fn alias_collision_stream_matches_golden_checksum() {
    let sampler = families::uniform(4096).alias_sampler();
    let mut rng = rand::rngs::StdRng::seed_from_u64(20_190_729);
    let checksum = (0..1_000).fold(0xcbf2_9ce4_8422_2325_u64, |h, _| {
        (h ^ sampler.collision_count(233, &mut rng)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(checksum, 0x3378_37dc_7a07_db18);
}
