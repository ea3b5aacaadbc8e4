//! Samplers for drawing iid samples from a [`DenseDistribution`].
//!
//! Two implementations are provided:
//!
//! * [`AliasSampler`] — Vose's alias method: O(n) construction, O(1) per
//!   sample. This is what the protocol simulations use, since they draw
//!   millions of samples from a fixed distribution. Its table packs each
//!   column's `(threshold, alias)` pair into one entry, and a draw picks
//!   the column or its alias with an integer compare and a conditional
//!   move rather than a branch. A table whose every column keeps itself
//!   (any `uniform(n)`) is not stored at all: its draws do no lookup.
//! * [`CdfSampler`] — inverse-CDF with binary search: O(n) construction,
//!   O(log n) per sample. Used as an independently-implemented oracle in
//!   tests to cross-check the alias method.
//!
//! Every collision node reduces its samples to one number, their
//! collision count. [`Sampler::collision_count`] computes it for `q`
//! fresh draws; the alias and uniform samplers tally each draw as they
//! make it, without building a sample vector.

use crate::dense::DenseDistribution;
use crate::empirical::{collision_count_drawn, collision_count_of};
use rand::Rng;

/// A source of iid samples from a fixed discrete distribution.
pub trait Sampler {
    /// Draws one sample (an element of `{0, .., n-1}`).
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize;

    /// Number of elements in the sampled domain.
    fn support_size(&self) -> usize;

    /// Draws `count` iid samples into a fresh vector.
    fn sample_many<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// The number of colliding pairs, `Σ_i C(c_i, 2)`, among `q` iid
    /// samples: the statistic of a collision node.
    ///
    /// Always equals [`collision_count_of`] applied to
    /// `self.sample_many(q, rng)` and consumes the same random words;
    /// that is this default, so a wrapper that overrides only
    /// [`Sampler::sample_many`] is still called through it. [`AliasSampler`] and [`UniformSampler`]
    /// override it with one fused loop that tallies each draw in the
    /// per-thread count table of [`crate::empirical`] as it is made.
    fn collision_count<R: Rng + ?Sized>(&self, q: usize, rng: &mut R) -> u64 {
        let samples = self.sample_many(q, rng);
        collision_count_of(&samples)
    }
}

/// Vose's alias method: constant-time sampling from a discrete distribution.
///
/// A draw picks a column `i` uniformly with `random_range(0..n)`, then
/// takes one more word `w` and returns `i` if `u < keep` and `alias`
/// otherwise, where `u = (w >> 11) · 2⁻⁵³` is the `[0, 1)` double that
/// `random::<f64>()` makes of `w`. Since `u` is a multiple of 2⁻⁵³, the
/// draw compares integers instead: the table stores each column's
/// threshold `T = ⌈keep · 2⁵³⌉`, and `u < keep` exactly when
/// `w >> 11 < T`. A column that always keeps itself has `T = 2⁵³`.
///
/// When every scaled probability `p · n` falls on the same side of 1, as
/// it does for every `uniform(n)`, Vose's pairing loop never runs and
/// every column keeps itself. Then there is no table: a draw takes its
/// column and discards the second word without a lookup or a compare.
///
/// The choice goes through [`std::hint::select_unpredictable`], not an
/// `if`. On a far instance such as `two_level(n, ε)` half the columns have
/// `keep < 1`, so the outcome is a coin flip and a branch mispredicts on
/// about every other draw; the hint makes LLVM emit a conditional move
/// instead (a plain `if`, or a hand-written mask select, compiles back to
/// a branch). The two random words per draw and the `u < keep` outcome
/// fix the output stream, which every q*, result CSV and fuzz corpus
/// entry depends on; `tests/properties.rs` pins it with golden checksums.
///
/// [`Sampler::collision_count`] runs this draw, inlined, in a loop that
/// tallies each sample as it is drawn; the table's shape is resolved once
/// per call, not per draw.
///
/// # Example
///
/// ```
/// use dut_probability::{DenseDistribution, Sampler};
/// use rand::SeedableRng;
///
/// let d = DenseDistribution::uniform(10);
/// let sampler = d.alias_sampler();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let xs = sampler.sample_many(100, &mut rng);
/// assert!(xs.iter().all(|&x| x < 10));
/// ```
#[derive(Debug, Clone)]
pub struct AliasSampler {
    /// Number of columns.
    n: usize,
    /// Column `i` keeps `i` when `w >> 11 < threshold`, else yields
    /// `alias`. Empty when every column keeps itself.
    table: Vec<(u64, usize)>,
}

/// The threshold of a column that always keeps itself: every `w >> 11`
/// is below 2⁵³.
const ALWAYS_KEEP: u64 = 1 << 53;

/// `⌈keep · 2⁵³⌉`, the number of 53-bit draws `m` with `m · 2⁻⁵³ < keep`;
/// 0 for `keep ≤ 0`.
///
/// Scaling by 2⁵³ is exact, and below 2⁵³ so is the round trip through
/// an integer, so a product with a fractional part is exactly one whose
/// truncation converts back below it. No libm call, and `i64` rather
/// than `u64` because x86-64 converts signed integers in one instruction.
#[inline]
#[allow(
    clippy::cast_possible_truncation,
    reason = "|truncated| ≤ 2⁵³ for |keep| ≤ 1"
)]
fn threshold(keep: f64) -> u64 {
    let scaled = keep * ALWAYS_KEEP as f64;
    let truncated = scaled as i64;
    u64::try_from(truncated + i64::from((truncated as f64) < scaled)).unwrap_or(0)
}

impl AliasSampler {
    /// Builds the alias table for `dist`.
    #[must_use]
    pub fn new(dist: &DenseDistribution) -> Self {
        let n = dist.support_size();
        // When every scaled probability falls on one side of 1, the pairing
        // loop below would not run: every column keeps itself.
        let small_column = |p: &f64| (p * n as f64) < 1.0;
        if dist.probs().iter().all(small_column) || !dist.probs().iter().any(small_column) {
            return Self {
                n,
                table: Vec::new(),
            };
        }
        // Scaled probabilities: mean 1.
        let mut scaled: Vec<f64> = dist.probs().iter().map(|p| p * n as f64).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut table = vec![(0u64, 0usize); n];
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            table[s] = (threshold(scaled[s]), l);
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever is left is numerically 1.
        for &i in large.iter().chain(small.iter()) {
            table[i] = (ALWAYS_KEEP, i);
        }
        Self { n, table }
    }
}

impl Sampler for AliasSampler {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.table.is_empty() {
            Identity(self.n).sample(rng)
        } else {
            Paired(&self.table).sample(rng)
        }
    }

    fn support_size(&self) -> usize {
        self.n
    }

    fn collision_count<R: Rng + ?Sized>(&self, q: usize, rng: &mut R) -> u64 {
        if self.table.is_empty() {
            collision_count_drawn(&Identity(self.n), q, rng)
        } else {
            collision_count_drawn(&Paired(&self.table), q, rng)
        }
    }
}

/// The draw of an alias table whose every column keeps itself.
struct Identity(usize);

impl Sampler for Identity {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.0);
        // The keep word: spent, so the stream matches a stored table's.
        rng.next_u64();
        i
    }

    fn support_size(&self) -> usize {
        self.0
    }
}

/// The draw of an alias table with paired columns.
struct Paired<'a>(&'a [(u64, usize)]);

impl Sampler for Paired<'_> {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.0.len());
        let (threshold, alias) = self.0[i];
        std::hint::select_unpredictable((rng.next_u64() >> 11) < threshold, i, alias)
    }

    fn support_size(&self) -> usize {
        self.0.len()
    }
}

/// Inverse-CDF sampler with binary search.
#[derive(Debug, Clone)]
pub struct CdfSampler {
    /// `cdf[i]` = P(X <= i); the last entry is forced to exactly 1.
    cdf: Vec<f64>,
}

impl CdfSampler {
    /// Builds the cumulative table for `dist`.
    #[must_use]
    pub fn new(dist: &DenseDistribution) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = dist
            .probs()
            .iter()
            .map(|&p| {
                acc += p;
                acc
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }
}

impl Sampler for CdfSampler {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.random::<f64>();
        // First index with cdf[i] >= u. Zero-mass elements duplicate their
        // predecessor's CDF entry, and `binary_search_by` makes no
        // first-match guarantee among equal entries — an exact hit could
        // land on a zero-mass index. `partition_point` counts the strict
        // `cdf[i] < u` prefix, which is exactly the first qualifying index.
        self.cdf
            .partition_point(|c| c.total_cmp(&u) == std::cmp::Ordering::Less)
            .min(self.cdf.len() - 1)
    }

    fn support_size(&self) -> usize {
        self.cdf.len()
    }
}

/// A trivial sampler for the uniform distribution, avoiding table setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformSampler {
    n: usize,
}

impl UniformSampler {
    /// Uniform sampler over `{0, .., n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "uniform sampler needs a non-empty domain");
        Self { n }
    }
}

impl Sampler for UniformSampler {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.random_range(0..self.n)
    }

    fn support_size(&self) -> usize {
        self.n
    }

    fn collision_count<R: Rng + ?Sized>(&self, q: usize, rng: &mut R) -> u64 {
        collision_count_drawn(self, q, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn chi2_uniformity_ok(counts: &[u64], total: u64, probs: &[f64]) -> bool {
        // Generous chi-squared goodness-of-fit guard: statistic should be
        // within ~5 sigma of its mean (df) for correct samplers.
        let mut stat = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            let expected = probs[i] * total as f64;
            if expected > 0.0 {
                let d = c as f64 - expected;
                stat += d * d / expected;
            }
        }
        let df = (counts.len() - 1) as f64;
        stat < df + 5.0 * (2.0 * df).sqrt() + 10.0
    }

    fn frequencies<S: Sampler>(s: &S, trials: u64, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; s.support_size()];
        for _ in 0..trials {
            counts[s.sample(&mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn alias_matches_target_frequencies() {
        let d = DenseDistribution::new(vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let counts = frequencies(&d.alias_sampler(), 40_000, 11);
        assert!(chi2_uniformity_ok(&counts, 40_000, d.probs()));
    }

    #[test]
    fn cdf_matches_target_frequencies() {
        let d = DenseDistribution::new(vec![0.7, 0.05, 0.05, 0.2]).unwrap();
        let counts = frequencies(&d.cdf_sampler(), 40_000, 13);
        assert!(chi2_uniformity_ok(&counts, 40_000, d.probs()));
    }

    #[test]
    fn uniform_sampler_matches_frequencies() {
        let s = UniformSampler::new(8);
        let counts = frequencies(&s, 40_000, 17);
        let probs = vec![1.0 / 8.0; 8];
        assert!(chi2_uniformity_ok(&counts, 40_000, &probs));
    }

    #[test]
    fn alias_never_emits_zero_mass_elements() {
        let d = DenseDistribution::new(vec![0.5, 0.0, 0.5, 0.0]).unwrap();
        let counts = frequencies(&d.alias_sampler(), 10_000, 19);
        assert_eq!(counts[1], 0);
        assert_eq!(counts[3], 0);
    }

    #[test]
    fn cdf_never_emits_zero_mass_elements() {
        let d = DenseDistribution::new(vec![0.0, 1.0]).unwrap();
        let counts = frequencies(&d.cdf_sampler(), 5_000, 23);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 5_000);
    }

    /// Emits a fixed `u64` stream; `random::<f64>()` maps each word `w`
    /// to `(w >> 11) · 2⁻⁵³`, so `1 << 63` plants `u = 0.5` exactly.
    struct PlantedRng(Vec<u64>, usize);

    impl rand::RngCore for PlantedRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let w = self.0[self.1 % self.0.len()];
            self.1 += 1;
            w
        }
    }

    #[test]
    fn cdf_exact_hit_on_duplicated_entry_skips_zero_mass() {
        // dist [0.5, 0.0, 0.5] -> cdf [0.5, 0.5, 1.0]. With u planted
        // exactly on the duplicated 0.5 entry, the first index with
        // cdf[i] >= u is 0; a binary search could land on the zero-mass
        // index 1 (no first-match guarantee among equal entries).
        let d = DenseDistribution::new(vec![0.5, 0.0, 0.5]).unwrap();
        let s = d.cdf_sampler();
        let mut rng = PlantedRng(vec![1u64 << 63], 0);
        assert_eq!(s.sample(&mut rng), 0);
    }

    #[test]
    fn cdf_exact_hit_on_long_zero_run() {
        // A longer duplicate run: cdf [0.25, 0.25, 0.25, 0.25, 1.0].
        // binary_search_by probes the middle of the run first and returns
        // whatever equal entry it hits; partition_point must return 0.
        let d = DenseDistribution::new(vec![0.25, 0.0, 0.0, 0.0, 0.75]).unwrap();
        let s = d.cdf_sampler();
        // u = 0.25 exactly: word w with (w >> 11) * 2^-53 = 2^-2.
        let mut rng = PlantedRng(vec![1u64 << 62], 0);
        assert_eq!(s.sample(&mut rng), 0);
    }

    /// The branching reference draw over separate arrays: `u < prob[i]`
    /// keeps column `i`, anything else takes its alias.
    fn reference_draw<R: Rng + ?Sized>(prob: &[f64], alias: &[usize], rng: &mut R) -> usize {
        let i = rng.random_range(0..prob.len());
        if rng.random::<f64>() < prob[i] {
            i
        } else {
            alias[i]
        }
    }

    /// Vose's construction with `f64` keeps, as [`AliasSampler::new`]
    /// pairs columns before it converts each keep to a threshold.
    fn reference_table(dist: &DenseDistribution) -> (Vec<f64>, Vec<usize>) {
        let n = dist.support_size();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0; n];
        let mut scaled: Vec<f64> = dist.probs().iter().map(|p| p * n as f64).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            (prob[s], alias[s]) = (scaled[s], l);
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            (prob[i], alias[i]) = (1.0, i);
        }
        (prob, alias)
    }

    /// A sampler over a hand-built `(keep, alias)` table, each keep
    /// converted by [`threshold`] as [`AliasSampler::new`] converts it.
    fn from_keeps(columns: &[(f64, usize)]) -> AliasSampler {
        AliasSampler {
            n: columns.len(),
            table: columns
                .iter()
                .map(|&(keep, alias)| (threshold(keep), alias))
                .collect(),
        }
    }

    /// Asserts that `sampler` and the float reference over `(prob, alias)`
    /// draw the same 2,000 values and end in the same generator state.
    fn assert_matches_reference(sampler: &AliasSampler, prob: &[f64], alias: &[usize], seed: u64) {
        let mut sampler_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut reference_rng = sampler_rng.clone();
        for draw in 0..2_000 {
            assert_eq!(
                sampler.sample(&mut sampler_rng),
                reference_draw(prob, alias, &mut reference_rng),
                "seed {seed}, draw {draw}"
            );
        }
        assert_eq!(sampler_rng, reference_rng, "seed {seed}: streams diverged");
    }

    /// The keep values at the edges of the `u < keep` compare: never keep,
    /// always keep, and the largest double below 1.
    const EDGE_KEEPS: [f64; 3] = [0.0, 1.0, 1.0 - f64::EPSILON / 2.0];

    #[test]
    fn packed_draw_matches_reference_formula_on_random_tables() {
        for seed in 0..40u64 {
            let mut gen = rand::rngs::StdRng::seed_from_u64(seed);
            let n = gen.random_range(1..64usize);
            let columns: Vec<(f64, usize)> = (0..n)
                .map(|_| {
                    let keep = match gen.random_range(0..4u8) {
                        3 => gen.random::<f64>(),
                        edge => EDGE_KEEPS[usize::from(edge)],
                    };
                    (keep, gen.random_range(0..n))
                })
                .collect();
            let prob: Vec<f64> = columns.iter().map(|&(keep, _)| keep).collect();
            let alias: Vec<usize> = columns.iter().map(|&(_, alias)| alias).collect();
            assert_matches_reference(&from_keeps(&columns), &prob, &alias, seed ^ 0x5eed);
        }
    }

    #[test]
    fn vose_tables_of_real_families_match_the_float_reference() {
        let uniforms = (1..=64)
            .chain([1000, 4095, 4096])
            .map(DenseDistribution::uniform);
        let others = [
            crate::families::two_level(4096, 0.5).unwrap(),
            crate::families::two_level(1000, 0.3).unwrap(),
            crate::families::zipf(4096, 1.0).unwrap(),
            crate::families::point_mass(64, 17).unwrap(),
            crate::families::uniform_on_prefix(4096, 1000).unwrap(),
        ];
        // Zipf's tiny keeps are not multiples of 2⁻⁵³: their thresholds
        // round up.
        let (zipf_keeps, _) = reference_table(&others[2]);
        assert!(zipf_keeps
            .iter()
            .any(|&keep| (keep * ALWAYS_KEEP as f64).fract() > 0.0));
        for (seed, dist) in (0u64..).zip(uniforms.chain(others)) {
            let (prob, alias) = reference_table(&dist);
            let sampler = dist.alias_sampler();
            // Exactly the tables whose every column keeps itself are elided.
            let identity = prob
                .iter()
                .zip(&alias)
                .enumerate()
                .all(|(i, (&p, &a))| p >= 1.0 && a == i);
            assert_eq!(sampler.table.is_empty(), identity, "seed {seed}");
            assert_matches_reference(&sampler, &prob, &alias, seed);
            // The fused kernel draws the same stream.
            let mut fused_rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut drawn_rng = fused_rng.clone();
            let drawn = sampler.sample_many(233, &mut drawn_rng);
            assert_eq!(
                sampler.collision_count(233, &mut fused_rng),
                collision_count_of(&drawn),
                "seed {seed}"
            );
            assert_eq!(fused_rng, drawn_rng, "seed {seed}");
        }
    }

    #[test]
    fn uniform_tables_are_not_stored() {
        // Equal columns all fall on one side of 1: at n = 49 every
        // `p · n` rounds below 1, elsewhere to exactly 1.
        for n in (1..=64).chain([1000, 4095, 4096, 16384]) {
            assert!(
                DenseDistribution::uniform(n)
                    .alias_sampler()
                    .table
                    .is_empty(),
                "n {n}"
            );
        }
        let far = crate::families::two_level(4096, 0.5).unwrap();
        assert_eq!(far.alias_sampler().table.len(), 4096);
    }

    #[test]
    fn packed_draw_takes_alias_when_u_equals_keep() {
        // Four columns, so `random_range(0..4)` maps word `j << 62` to
        // column `j`. Column 3 keeps with probability 1, and no `u < 1`
        // can reach its alias.
        let sampler = from_keeps(&[(EDGE_KEEPS[0], 2), (0.5, 3), (EDGE_KEEPS[2], 0), (1.0, 1)]);
        let column = |j: usize| (j as u64) << 62;
        // `u = (w >> 11) · 2⁻⁵³`, so these words plant u = 0, 0.5 and
        // 1 − 2⁻⁵³ exactly: each equals its column's keep.
        let planted = [(0, 0u64, 2), (1, 1 << 63, 3), (2, u64::MAX, 0)];
        for (j, word, alias) in planted {
            let mut rng = PlantedRng(vec![column(j), word], 0);
            assert_eq!(sampler.sample(&mut rng), alias, "u == keep on column {j}");
            if word > 0 {
                // One ulp of u below keep, the column keeps itself.
                let mut rng = PlantedRng(vec![column(j), word - (1 << 11)], 0);
                assert_eq!(sampler.sample(&mut rng), j, "u < keep on column {j}");
            }
        }
        for word in [0, 1 << 63, u64::MAX] {
            let mut rng = PlantedRng(vec![column(3), word], 0);
            assert_eq!(sampler.sample(&mut rng), 3);
        }
    }

    #[test]
    fn planted_words_either_side_of_the_threshold_match_the_float_compare() {
        // Column 0 keeps with `keep`, else yields column 1, which always
        // keeps itself; word 0 makes `random_range(0..2)` pick column 0.
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(-0.0), 0);
        assert_eq!(threshold(1.0), ALWAYS_KEEP);
        let keeps = [
            0.3,
            2f64.powi(-60),
            f64::from_bits(3),
            1.0 - f64::EPSILON / 2.0,
        ];
        for keep in keeps {
            assert!(keep > 0.0 && keep < 1.0);
            let t = threshold(keep);
            let sampler = from_keeps(&[(keep, 1), (1.0, 1)]);
            for (m, kept) in [(t - 1, true), (t, false)] {
                let word = m << 11;
                let mut rng = PlantedRng(vec![0, word], 0);
                let mut reference_rng = PlantedRng(vec![0, word], 0);
                let expected = usize::from(!kept);
                assert_eq!(
                    reference_draw(&[keep, 1.0], &[1, 1], &mut reference_rng),
                    expected,
                    "the float compare, keep {keep:e}, m {m}"
                );
                assert_eq!(sampler.sample(&mut rng), expected, "keep {keep:e}, m {m}");
            }
        }
    }

    #[test]
    fn point_mass_always_sampled() {
        let d = DenseDistribution::new(vec![0.0, 0.0, 1.0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let s = d.alias_sampler();
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 2);
        }
    }

    #[test]
    fn sample_many_length() {
        let d = DenseDistribution::uniform(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        assert_eq!(d.alias_sampler().sample_many(17, &mut rng).len(), 17);
    }

    #[test]
    fn alias_and_cdf_agree_in_distribution() {
        // Cross-check two independent implementations on a skewed target.
        let d = DenseDistribution::from_weights(vec![1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        let a = frequencies(&d.alias_sampler(), 60_000, 29);
        let c = frequencies(&d.cdf_sampler(), 60_000, 31);
        for i in 0..5 {
            let fa = a[i] as f64 / 60_000.0;
            let fc = c[i] as f64 / 60_000.0;
            assert!((fa - fc).abs() < 0.02, "index {i}: {fa} vs {fc}");
        }
    }
}
