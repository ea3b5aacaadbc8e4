//! Statistical equivalence of the balanced rule's two calibration
//! engines.
//!
//! Calibration draws a uniform node's collision count either one sample
//! at a time through the fused kernel (`UniformSampler::collision_count`)
//! or from an occupancy histogram drawn by conditional-binomial
//! stick-breaking (`HistogramSampler`). The histogram path must be
//! *exact*: it follows the same Multinomial(q, p) law as binning `q`
//! per-draw samples, so both engines give a node's collision count the
//! same law. These tests check that claim through the facade crate —
//! two-sample chi-square on the collision counts and on the occupancy
//! frequencies, per-seed determinism, and bit-identity of `Auto` with
//! the engine it resolves to.

use distributed_uniformity::probability::{
    families, DenseDistribution, SampleBackend, Sampler, UniformSampler,
};
use distributed_uniformity::testers::BalancedThresholdTester;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Two-sample chi-square statistic between count vectors of equal
/// total: `Σ (a_i - b_i)² / (a_i + b_i)` over occupied cells,
/// approximately chi-square with (#occupied - 1) degrees of freedom
/// when both samples come from the same law.
fn two_sample_chi2(a: &[u64], b: &[u64]) -> (f64, usize) {
    assert_eq!(a.len(), b.len());
    let mut stat = 0.0;
    let mut occupied = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let total = (x + y) as f64;
        if total > 0.0 {
            occupied += 1;
            let d = x as f64 - y as f64;
            stat += d * d / total;
        }
    }
    (stat, occupied.saturating_sub(1))
}

/// Per-cell totals of `reps` occupancy histograms of `q` samples,
/// drawn per draw (alias samples) or by stick-breaking.
fn accumulated_counts(
    dist: &DenseDistribution,
    backend: SampleBackend,
    q: u64,
    reps: u64,
    seed: u64,
) -> Vec<u64> {
    let mut r = rng(seed);
    let mut totals = vec![0u64; dist.support_size()];
    if backend == SampleBackend::Histogram {
        let histogram = dist.histogram_sampler();
        for _ in 0..reps {
            let h = histogram.draw(q, &mut r);
            for (i, t) in totals.iter_mut().enumerate() {
                *t += h.count(i);
            }
        }
    } else {
        let alias = dist.alias_sampler();
        for _ in 0..reps * q {
            totals[alias.sample(&mut r)] += 1;
        }
    }
    totals
}

/// Occupancy chi-square bound: 5 sd above the mean of a chi-square
/// with `df` degrees of freedom.
fn occupancy_bound(df: usize) -> f64 {
    df as f64 + 5.0 * (2.0 * df as f64).sqrt()
}

/// `reps` collision counts of `q` uniform samples on `[n]`, drawn by
/// calibration's per-draw engine (the fused kernel) or its histogram
/// engine.
fn collision_counts(
    n: usize,
    q: usize,
    backend: SampleBackend,
    reps: usize,
    seed: u64,
) -> Vec<u64> {
    let uniform = UniformSampler::new(n);
    let histogram = DenseDistribution::uniform(n).histogram_sampler();
    let mut r = rng(seed);
    (0..reps)
        .map(|_| match backend {
            SampleBackend::Histogram => histogram.draw(q as u64, &mut r).collision_count(),
            _ => uniform.collision_count(q, &mut r),
        })
        .collect()
}

/// [`collision_counts`] tallied by value; the last of `bins` bins pools
/// every count from `bins - 1` up.
fn collision_count_law(
    n: usize,
    q: usize,
    backend: SampleBackend,
    reps: usize,
    bins: usize,
    seed: u64,
) -> Vec<u64> {
    let mut tally = vec![0u64; bins];
    for c in collision_counts(n, q, backend, reps, seed) {
        tally[usize::try_from(c).map_or(bins - 1, |c| c.min(bins - 1))] += 1;
    }
    tally
}

/// Upper `1 − α` quantile of a chi-square with `df` degrees of freedom
/// at `α ≈ 1.0e-6` (one-sided normal `z = 4.75`), by the
/// Wilson–Hilferty cube-root approximation.
fn chi2_bound(df: usize) -> f64 {
    let z = 4.75;
    let d = df as f64;
    let h = 2.0 / (9.0 * d);
    d * (1.0 - h + z * h.sqrt()).powi(3)
}

/// The two engines give a uniform node's collision count the same law
/// at E1's `n = 256` point (its q* is 50; the test covers q from 40 to
/// 64). With 40,000 nodes per engine and the tail pooled at 16
/// collisions (λ₀ ≤ 8), the two-sample statistic is approximately
/// chi-square with at most 16 degrees of freedom; the bound is its
/// 1 − 1.0e-6 quantile, so a correct pair of engines fails each of the
/// three checks with probability about 1e-6 (the seeds are fixed, so
/// the outcome never changes between runs).
///
/// Power: the same statistic must flag a planted one-sample shift
/// (q against q + 1), which moves λ₀ by `q/n`, about 4% of it. Its
/// noncentrality is about `reps · (q/n)² / (2λ₀) ≈ 160`, so the
/// shifted statistic stays under the bound with probability about
/// 1e-5 (the fixed seeds give 160–190 against bounds of 55–59).
#[test]
fn chi_square_uniform_law() {
    let (n, reps, bins) = (256, 40_000, 17);
    for (i, q) in [40usize, 50, 64].into_iter().enumerate() {
        let seed = 100 * i as u64;
        let per_draw = collision_count_law(n, q, SampleBackend::PerDraw, reps, bins, seed + 1);
        let histogram = collision_count_law(n, q, SampleBackend::Histogram, reps, bins, seed + 2);
        let (stat, df) = two_sample_chi2(&per_draw, &histogram);
        let bound = chi2_bound(df);
        assert!(stat < bound, "q={q}: chi2 {stat} exceeds {bound} (df {df})");

        let shifted = collision_count_law(n, q + 1, SampleBackend::Histogram, reps, bins, seed + 3);
        let (stat, df) = two_sample_chi2(&per_draw, &shifted);
        let bound = chi2_bound(df);
        assert!(
            stat > bound,
            "q={q}: a one-sample shift went unseen (chi2 {stat} under {bound})"
        );
    }
}

#[test]
fn chi_square_skewed_law() {
    // A far-from-uniform target exercises the mirrored (p > 1/2)
    // stick-breaking branch on the heavy cells.
    let dist = DenseDistribution::from_weights(vec![64.0, 16.0, 8.0, 4.0, 4.0, 2.0, 1.0, 1.0])
        .expect("valid weights");
    let a = accumulated_counts(&dist, SampleBackend::PerDraw, 10_000, 80, 303);
    let b = accumulated_counts(&dist, SampleBackend::Histogram, 10_000, 80, 404);
    let (stat, df) = two_sample_chi2(&a, &b);
    let bound = occupancy_bound(df);
    assert!(stat < bound, "chi2 {stat} exceeds {bound} (df {df})");
}

#[test]
fn chi_square_two_level_far_instance() {
    let dist = families::two_level(128, 0.5).expect("valid far instance");
    let a = accumulated_counts(&dist, SampleBackend::PerDraw, 2_048, 60, 505);
    let b = accumulated_counts(&dist, SampleBackend::Histogram, 2_048, 60, 606);
    let (stat, df) = two_sample_chi2(&a, &b);
    let bound = occupancy_bound(df);
    assert!(stat < bound, "chi2 {stat} exceeds {bound} (df {df})");
}

#[test]
fn both_backends_deterministic_per_seed() {
    let counts =
        |backend: SampleBackend, seed: u64| collision_counts(512, 20_000, backend, 8, seed);
    for backend in SampleBackend::ALL {
        let a = counts(backend, 7);
        assert_eq!(
            a,
            counts(backend, 7),
            "{backend} must be a pure function of the seed"
        );
        assert_ne!(
            a,
            counts(backend, 8),
            "{backend} must actually consume the rng"
        );
    }
}

/// `Auto` is a choice between the two engines, not a third law: the
/// balanced rule prepared through `Auto` is bit-identical to the rule
/// prepared on the engine `Auto` resolves to. E1's points cover both
/// resolutions.
#[test]
fn auto_is_bit_identical_to_its_resolved_engine() {
    let mut seen = Vec::new();
    for (n, k, q) in [
        (256usize, 64usize, 50usize),
        (1_024, 64, 96),
        (4_096, 64, 233),
    ] {
        let tester = BalancedThresholdTester::new(n, k, 0.5);
        let resolved = SampleBackend::Auto.resolve(n, q as u64);
        assert_ne!(resolved, SampleBackend::Auto, "resolve must pick an engine");
        seen.push(resolved);
        assert_eq!(
            tester.prepare(q, 800, &mut rng(42)),
            tester.prepare_with_backend(q, 800, resolved, &mut rng(42)),
            "(n={n}, q={q}): auto diverged from {resolved}"
        );
    }
    for backend in SampleBackend::ALL {
        assert!(seen.contains(&backend), "no point resolved to {backend}");
    }
}
