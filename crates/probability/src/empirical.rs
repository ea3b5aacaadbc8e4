//! Empirical statistics of sample multisets: histograms, collision counts,
//! coincidence counts and empirical distributions.
//!
//! These are the raw statistics every tester in this repository is built
//! from: the collision tester thresholds [`Histogram::collision_count`],
//! Paninski's coincidence tester thresholds [`Histogram::coincidence_count`].

use crate::dense::DenseDistribution;
use crate::error::DistributionError;
use std::cell::RefCell;

/// A histogram of samples over the domain `{0, .., n-1}`.
///
/// # Example
///
/// ```
/// use dut_probability::Histogram;
///
/// let h = Histogram::from_samples(4, &[0, 1, 1, 3, 1]);
/// assert_eq!(h.count(1), 3);
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.collision_count(), 3); // C(3,2) pairs of 1s
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram over a domain of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "histogram needs a non-empty domain");
        Self {
            counts: vec![0; n],
            total: 0,
        }
    }

    /// Builds a histogram from a sample slice.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any sample is out of range.
    #[must_use]
    pub fn from_samples(n: usize, samples: &[usize]) -> Self {
        let mut h = Self::new(n);
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// Builds a histogram directly from a pre-computed count vector, as
    /// produced by the occupancy fast path ([`crate::HistogramSampler`]).
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or the total overflows `u64`.
    #[must_use]
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "histogram needs a non-empty domain");
        let total = counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .expect("histogram total overflows u64");
        Self { counts, total }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample >= n`.
    pub fn record(&mut self, sample: usize) {
        assert!(sample < self.counts.len(), "sample {sample} out of range");
        self.counts[sample] += 1;
        self.total += 1;
    }

    /// Domain size.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.counts.len()
    }

    /// Number of samples recorded so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// The raw count vector.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of colliding pairs, `Σ_i C(c_i, 2)`.
    ///
    /// Under a distribution `μ` with `q` samples its expectation is
    /// `C(q,2) · ‖μ‖₂²` — the statistic of the collision tester.
    #[must_use]
    pub fn collision_count(&self) -> u64 {
        self.counts
            .iter()
            .map(|&c| c * c.saturating_sub(1) / 2)
            .sum()
    }

    /// Paninski's coincidence count: `q − (#distinct elements observed)`.
    #[must_use]
    pub fn coincidence_count(&self) -> u64 {
        let distinct = self.counts.iter().filter(|&&c| c > 0).count() as u64;
        self.total - distinct
    }

    /// Number of elements observed exactly once.
    #[must_use]
    pub fn singleton_count(&self) -> usize {
        self.counts.iter().filter(|&&c| c == 1).count()
    }

    /// Number of distinct elements observed.
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Pearson's χ² statistic against a reference distribution, using the
    /// "collision-corrected" form `Σ ((c_i − q·p_i)² − c_i) / (q·p_i)` from
    /// the identity-testing literature (mean zero under the reference).
    /// Elements with `p_i = 0` contribute `+∞` if observed.
    ///
    /// # Panics
    ///
    /// Panics if the domain sizes differ or no samples were recorded.
    #[must_use]
    pub fn corrected_chi2_statistic(&self, reference: &DenseDistribution) -> f64 {
        assert_eq!(
            self.domain_size(),
            reference.support_size(),
            "histogram and reference must share a domain"
        );
        assert!(self.total > 0, "no samples recorded");
        let q = self.total as f64;
        let mut stat = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let e = q * reference.prob(i);
            if e <= 0.0 {
                if c > 0 {
                    return f64::INFINITY;
                }
                continue;
            }
            let d = c as f64 - e;
            stat += (d * d - c as f64) / e;
        }
        stat
    }

    /// The empirical distribution `c_i / q`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::NotNormalized`] if no samples were
    /// recorded.
    pub fn empirical_distribution(&self) -> Result<DenseDistribution, DistributionError> {
        DenseDistribution::from_weights(self.counts.iter().map(|&c| c as f64).collect())
    }

    /// Laplace (add-`alpha`) smoothed empirical distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if `alpha` is negative or not finite, or if
    /// `alpha == 0` and no samples were recorded.
    pub fn smoothed_distribution(
        &self,
        alpha: f64,
    ) -> Result<DenseDistribution, DistributionError> {
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(DistributionError::InvalidParameter {
                name: "alpha",
                value: alpha,
            });
        }
        DenseDistribution::from_weights(self.counts.iter().map(|&c| c as f64 + alpha).collect())
    }

    /// ℓ₁ distance between the empirical distribution and a reference.
    ///
    /// # Panics
    ///
    /// Panics if the domains differ or no samples were recorded.
    #[must_use]
    pub fn l1_to(&self, reference: &DenseDistribution) -> f64 {
        assert_eq!(
            self.domain_size(),
            reference.support_size(),
            "histogram and reference must share a domain"
        );
        assert!(self.total > 0, "no samples recorded");
        let q = self.total as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (c as f64 / q - reference.prob(i)).abs())
            .sum()
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the domain sizes differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.domain_size(),
            other.domain_size(),
            "histograms must share a domain"
        );
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Counts colliding pairs, `Σ_i C(c_i, 2)`, directly from a sample slice
/// without allocating a full-domain histogram.
///
/// One O(q) pass over a per-thread `u16` count table adds each sample's
/// count so far to the total, then a second pass zeroes the entries it
/// touched. The table is reused across calls on the same thread, grows in
/// powers of two to cover the largest sample seen (32 KiB per thread at
/// n = 2¹⁴) and is all-zero between calls. A sample at or above 2²⁰, or a
/// slice longer than `u16::MAX`, sorts a copy instead (O(q log q)), which
/// bounds the table at 2 MiB per thread and keeps any `usize` sample
/// correct.
#[must_use]
pub fn collision_count_of(samples: &[usize]) -> u64 {
    repeat_stats(samples).collisions
}

/// Coincidence count (`q` minus number of distinct values) directly from a
/// sample slice: the number of samples whose value was already seen, from
/// the pass described at [`collision_count_of`].
#[must_use]
pub fn coincidence_count_of(samples: &[usize]) -> u64 {
    repeat_stats(samples).coincidences
}

/// Samples at or above this value take the sorting path, so the per-thread
/// count table never exceeds 2²⁰ entries.
const TABLE_BOUND: usize = 1 << 20;

thread_local! {
    // Per-thread so concurrent trial workers reuse their table without
    // locking; all-zero between calls.
    static COUNTS: RefCell<Vec<u16>> = const { RefCell::new(Vec::new()) };
}

/// The two pair statistics of one sample slice.
struct RepeatStats {
    collisions: u64,
    coincidences: u64,
}

/// Computes [`RepeatStats`] with the per-thread count table, or by sorting
/// when the table cannot hold the slice.
fn repeat_stats(samples: &[usize]) -> RepeatStats {
    if samples.len() <= usize::from(u16::MAX) {
        if let Some(stats) = COUNTS.with(|cell| tally(&mut cell.borrow_mut(), samples)) {
            return stats;
        }
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    fold_sorted_repeats(sorted.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]))
}

/// Tallies `samples` (at most `u16::MAX` of them) in `counts`: each sight
/// of a value pairs with its earlier sights. Returns `None` at the first
/// sample at or above [`TABLE_BOUND`]. Either way `counts` is all-zero
/// again on return.
fn tally(counts: &mut Vec<u16>, samples: &[usize]) -> Option<RepeatStats> {
    let mut stats = RepeatStats {
        collisions: 0,
        coincidences: 0,
    };
    let mut seen = samples.len();
    for (i, &x) in samples.iter().enumerate() {
        if x >= counts.len() {
            if x >= TABLE_BOUND {
                seen = i;
                break;
            }
            counts.resize((x + 1).next_power_of_two(), 0);
        }
        let count = &mut counts[x];
        stats.collisions += u64::from(*count);
        stats.coincidences += u64::from(*count != 0);
        *count += 1;
    }
    for &x in &samples[..seen] {
        counts[x] = 0;
    }
    (seen == samples.len()).then_some(stats)
}

/// Folds the repeated sights, in sorted order: a value drawn `c` times
/// appears `d = c − 1` times and contributes `C(c,2) = d(d+1)/2` pairs.
fn fold_sorted_repeats(sorted_repeats: impl Iterator<Item = usize>) -> RepeatStats {
    let mut stats = RepeatStats {
        collisions: 0,
        coincidences: 0,
    };
    let mut last = None;
    let mut run = 0u64;
    for x in sorted_repeats {
        run = if last == Some(x) { run + 1 } else { 1 };
        last = Some(x);
        // The run's `run`-th repeat pairs with the `run` sights before it.
        stats.collisions += run;
        stats.coincidences += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new(3);
        h.record(0);
        h.record(2);
        h.record(2);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 0);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.domain_size(), 3);
    }

    #[test]
    fn collision_count_matches_pairs() {
        // counts: [3, 2, 0, 1] -> C(3,2)+C(2,2) = 3+1 = 4
        let h = Histogram::from_samples(4, &[0, 0, 0, 1, 1, 3]);
        assert_eq!(h.collision_count(), 4);
    }

    #[test]
    fn collision_count_of_agrees_with_histogram() {
        let samples = [5, 1, 5, 5, 2, 1, 7, 7];
        let h = Histogram::from_samples(8, &samples);
        assert_eq!(h.collision_count(), collision_count_of(&samples));
    }

    #[test]
    fn coincidence_count_matches_definition() {
        let samples = [0, 0, 1, 2, 2, 2];
        let h = Histogram::from_samples(3, &samples);
        // 6 samples, 3 distinct -> 3 coincidences.
        assert_eq!(h.coincidence_count(), 3);
        assert_eq!(coincidence_count_of(&samples), 3);
    }

    #[test]
    fn singleton_and_distinct_counts() {
        let h = Histogram::from_samples(5, &[0, 1, 1, 4]);
        assert_eq!(h.singleton_count(), 2);
        assert_eq!(h.distinct_count(), 3);
    }

    #[test]
    fn empirical_distribution_normalizes() {
        let h = Histogram::from_samples(2, &[0, 0, 1, 0]);
        let d = h.empirical_distribution().unwrap();
        assert!((d.prob(0) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn empirical_distribution_of_empty_fails() {
        let h = Histogram::new(2);
        assert!(h.empirical_distribution().is_err());
    }

    #[test]
    fn smoothed_distribution_covers_unseen() {
        let h = Histogram::from_samples(3, &[0]);
        let d = h.smoothed_distribution(1.0).unwrap();
        assert!(d.prob(1) > 0.0);
        assert!((d.prob(0) - 2.0 / 4.0).abs() < 1e-15);
        assert!(h.smoothed_distribution(-1.0).is_err());
    }

    #[test]
    fn corrected_chi2_is_zero_mean_shape() {
        // For counts exactly equal to expectation e=1 with c=1:
        // ((1-1)^2 - 1)/1 = -1 per element.
        let h = Histogram::from_samples(4, &[0, 1, 2, 3]);
        let u = DenseDistribution::uniform(4);
        assert!((h.corrected_chi2_statistic(&u) + 4.0).abs() < 1e-12);
    }

    #[test]
    fn corrected_chi2_infinite_off_support() {
        let h = Histogram::from_samples(2, &[1]);
        let p = DenseDistribution::new(vec![1.0, 0.0]).unwrap();
        assert!(h.corrected_chi2_statistic(&p).is_infinite());
    }

    #[test]
    fn l1_to_uniform() {
        let h = Histogram::from_samples(2, &[0, 0]);
        let u = DenseDistribution::uniform(2);
        assert!((h.l1_to(&u) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::from_samples(3, &[0, 1]);
        let b = Histogram::from_samples(3, &[1, 2]);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 2, 1]);
        assert_eq!(a.total(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_out_of_range_panics() {
        let mut h = Histogram::new(2);
        h.record(2);
    }

    #[test]
    fn collision_count_of_no_collisions() {
        assert_eq!(collision_count_of(&[1, 2, 3]), 0);
        assert_eq!(collision_count_of(&[]), 0);
    }
}
