//! The fused draw-and-count kernel against its definition.
//!
//! `Sampler::collision_count(q, rng)` must return exactly
//! `collision_count_of(&sample_many(q, rng))`, the pair count a histogram
//! of the same draws gives, and leave the generator where `sample_many`
//! leaves it. The cases cover both sides of every limit of the per-thread
//! count table (`MAX_TALLY` samples, `TABLE_BOUND` values) and several
//! wraps of its tag on one thread.

use dut_probability::empirical::{collision_count_of, MAX_TALLY, TABLE_BOUND};
use dut_probability::{families, AliasSampler, Histogram, Sampler, UniformSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

/// Asserts the kernel against both oracles for one `(sampler, q, seed)`.
fn check<S: Sampler>(name: &str, sampler: &S, q: usize, seed: u64) {
    let mut fused_rng = StdRng::seed_from_u64(seed);
    let mut oracle_rng = fused_rng.clone();
    let fused = sampler.collision_count(q, &mut fused_rng);
    let samples = sampler.sample_many(q, &mut oracle_rng);
    let histogram = Histogram::from_samples(sampler.support_size(), &samples).collision_count();
    assert_eq!(fused, collision_count_of(&samples), "{name}, q = {q}");
    assert_eq!(fused, histogram, "{name}, q = {q}: histogram");
    assert_eq!(fused_rng, oracle_rng, "{name}, q = {q}: streams diverged");
}

/// The sample counts at the kernel's edges: none, one, the first pair,
/// an E1-sized node, the most one table entry counts, and one more,
/// which takes the default path.
const QS: [usize; 6] = [0, 1, 2, 130, MAX_TALLY, MAX_TALLY + 1];

#[test]
fn kernel_matches_sample_many_on_every_sampler() {
    let n = 1 << 12;
    let uniform = families::uniform(n);
    let far = families::two_level(n, 0.5).expect("valid two_level");
    for (i, &q) in QS.iter().enumerate() {
        let seed = 100 + i as u64;
        check("alias uniform", &uniform.alias_sampler(), q, seed);
        check("alias two_level", &far.alias_sampler(), q, seed);
        check("uniform sampler", &UniformSampler::new(n), q, seed);
        check("cdf", &far.cdf_sampler(), q, seed);
    }
}

#[test]
fn kernel_matches_on_a_point_mass_at_the_count_limit() {
    // Every draw is the same value, so one entry counts all q of them:
    // exactly full at MAX_TALLY, and one past it the slice count has to
    // give up on the table and sort.
    let point = families::point_mass(8, 3).expect("valid point mass");
    for &q in &QS {
        check("alias point mass", &point.alias_sampler(), q, 7);
        check("cdf point mass", &point.cdf_sampler(), q, 7);
    }
    check(
        "uniform over one value",
        &UniformSampler::new(1),
        MAX_TALLY,
        9,
    );
    check(
        "uniform over one value",
        &UniformSampler::new(1),
        MAX_TALLY + 1,
        9,
    );
}

#[test]
fn kernel_matches_either_side_of_the_table_bound() {
    for support in [TABLE_BOUND - 1, TABLE_BOUND, TABLE_BOUND + 1] {
        for (i, &q) in [2, 1_500, MAX_TALLY].iter().enumerate() {
            check(
                "uniform sampler",
                &UniformSampler::new(support),
                q,
                11 + i as u64,
            );
        }
    }
    for support in [TABLE_BOUND, TABLE_BOUND + 1] {
        let alias = families::uniform(support).alias_sampler();
        check("alias uniform", &alias, 1_500, 13);
    }
}

#[test]
fn kernel_survives_tag_wraps_on_one_thread() {
    // A fresh thread, so every tally below shares one table. The tag
    // wraps once every 31 tallies; 400 tallies wrap it a dozen times.
    std::thread::spawn(|| {
        let mut gen = StdRng::seed_from_u64(17);
        let samplers: Vec<AliasSampler> = [50, 64, 300]
            .iter()
            .map(|&n| {
                families::two_level(n, 0.5)
                    .expect("valid two_level")
                    .alias_sampler()
            })
            .collect();
        for call in 0..400u64 {
            let sampler = &samplers[gen.random_range(0..samplers.len())];
            let q = gen.random_range(0..40);
            check("alias two_level", sampler, q, call);
            // A slice tally between kernel calls shares the same tags.
            let slice: Vec<usize> = (0..gen.random_range(0..20))
                .map(|_| gen.random_range(0..64))
                .collect();
            let histogram = Histogram::from_samples(64, &slice).collision_count();
            assert_eq!(
                collision_count_of(&slice),
                histogram,
                "slice at call {call}"
            );
        }
        // Value `i % 31` once per tally: each entry is next read exactly
        // one tag period after it was written, so an entry that survived
        // the wrap would be read as a sight from this tally.
        for i in 0..3 * 31 {
            assert_eq!(collision_count_of(&[i % 31]), 0, "tally {i}");
        }
    })
    .join()
    .expect("tag-wrap thread");
}

/// A wrapper that overrides only `sample_many`, as a timing wrapper does.
struct CountingSampler {
    inner: AliasSampler,
    sample_many_calls: Cell<usize>,
}

impl Sampler for CountingSampler {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.inner.sample(rng)
    }

    fn support_size(&self) -> usize {
        self.inner.support_size()
    }

    fn sample_many<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        self.sample_many_calls.set(self.sample_many_calls.get() + 1);
        self.inner.sample_many(count, rng)
    }
}

#[test]
fn a_sample_many_override_is_still_called() {
    let wrapped = CountingSampler {
        inner: families::uniform(256).alias_sampler(),
        sample_many_calls: Cell::new(0),
    };
    let mut rng = StdRng::seed_from_u64(19);
    let mut inner_rng = rng.clone();
    let count = wrapped.collision_count(40, &mut rng);
    assert_eq!(wrapped.sample_many_calls.get(), 1);
    assert_eq!(count, wrapped.inner.collision_count(40, &mut inner_rng));
    assert_eq!(rng, inner_rng);
}
