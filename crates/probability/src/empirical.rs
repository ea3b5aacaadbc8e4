//! Empirical statistics of sample multisets: histograms, collision counts,
//! coincidence counts and empirical distributions.
//!
//! These are the raw statistics every tester in this repository is built
//! from: the collision tester thresholds [`Histogram::collision_count`],
//! Paninski's coincidence tester thresholds [`Histogram::coincidence_count`].

use crate::dense::DenseDistribution;
use crate::error::DistributionError;
use crate::sampler::Sampler;
use rand::Rng;
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
        #[expect(
            clippy::expect_used,
            reason = "documented panic: the counts are one draw's occupancy, whose total is a u64 sample count"
        )]
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
}

/// Counts colliding pairs, `Σ_i C(c_i, 2)`, directly from a sample slice
/// without allocating a full-domain histogram.
///
/// One O(q) pass tallies the slice in this thread's count table (see
/// [`TABLE_BOUND`]): each sample adds its value's count so far to the
/// total. Nothing is zeroed afterwards; the next tally on the thread
/// simply carries a new tag. A sample at or above [`TABLE_BOUND`], or a
/// value seen more than [`MAX_TALLY`] times, sorts a copy instead
/// (O(q log q)), which keeps any `usize` sample and any slice length
/// correct.
///
/// [`Sampler::collision_count`] gives the same number for `q` fresh
/// draws without storing them.
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

/// Values at or above this bound are never tallied in the count table, so
/// it stays at most 2²⁰ entries (2 MiB) per thread.
///
/// The table is per-thread, so concurrent trial workers reuse theirs
/// without locking. Each entry is one `u16`: the high bits tag the tally
/// that last wrote it and the low bits hold that tally's count. A tally
/// reads an entry with another tag as zero, so no tally has to zero what
/// it touched; only when the tag wraps, once every 31 tallies, is the
/// table cleared, and it then regrows to the values the next tallies use.
pub const TABLE_BOUND: usize = 1 << 20;

/// Bits of a count-table entry that hold the count; the other
/// `16 − COUNT_BITS` hold the tag.
const COUNT_BITS: u32 = 11;

/// The count field of a table entry.
const COUNT_MASK: u16 = (1 << COUNT_BITS) - 1;

/// The most sights of one value a count-table entry holds (2047). A
/// tally of at most this many samples can never overflow it.
pub const MAX_TALLY: usize = COUNT_MASK as usize;

/// The last tag before the wrap. Tags run `1..=LAST_TAG`; tag 0 is an
/// entry written by no tally since the table was last cleared.
const LAST_TAG: u16 = u16::MAX >> COUNT_BITS;

/// One thread's count table: entries tagged by the tally that wrote them.
struct CountTable {
    entries: Vec<u16>,
    /// The tag of the latest tally; 0 before the first.
    tag: u16,
}

impl CountTable {
    /// Starts a tally over values below `bound` (more may be added as
    /// the tally grows the table) and returns its tag, shifted into
    /// place. At the wrap every entry is cleared to tag 0.
    fn open(&mut self, bound: usize) -> u16 {
        if self.tag == LAST_TAG {
            self.entries.clear();
            self.tag = 0;
        }
        self.tag += 1;
        if self.entries.len() < bound {
            self.entries.resize(bound, 0);
        }
        self.tag << COUNT_BITS
    }
}

thread_local! {
    static TABLE: RefCell<CountTable> = const {
        RefCell::new(CountTable {
            entries: Vec::new(),
            tag: 0,
        })
    };
}

/// Records one more sight in `entry` for the tally tagged `tag` and
/// returns the sights before it: the entry's count if the tally wrote
/// it, else 0. The count must be below [`COUNT_MASK`].
#[inline]
fn sight(entry: &mut u16, tag: u16) -> u16 {
    // XOR clears a matching tag and leaves any other one above the mask.
    let held = *entry ^ tag;
    let count = if held <= COUNT_MASK { held } else { 0 };
    *entry = tag | (count + 1);
    count
}

/// The fused [`Sampler::collision_count`]: the collision count of `q`
/// draws from `sampler`, tallied as they are drawn, so no sample vector
/// is built. When `q > MAX_TALLY` or the support exceeds
/// [`TABLE_BOUND`], it takes the default body instead, decided before
/// any draw.
#[inline]
pub(crate) fn collision_count_drawn<S, R>(sampler: &S, q: usize, rng: &mut R) -> u64
where
    S: Sampler + ?Sized,
    R: Rng + ?Sized,
{
    let support = sampler.support_size();
    if q > MAX_TALLY || support > TABLE_BOUND {
        let samples = sampler.sample_many(q, rng);
        return collision_count_of(&samples);
    }
    TABLE.with(|cell| {
        let table = &mut *cell.borrow_mut();
        let tag = table.open(support);
        draw_and_tally(sampler, q, rng, &mut table.entries[..support], tag)
    })
}

/// The fused loop of [`collision_count_drawn`]. It is a function of its
/// own, never inlined, so that `rng` and `entries` arrive as distinct
/// `&mut` arguments: the compiler then knows a tally store cannot change
/// the generator and keeps its state in registers for the whole loop.
///
/// # Panics
///
/// Panics if a draw is outside `entries`.
#[inline(never)]
fn draw_and_tally<S, R>(sampler: &S, q: usize, rng: &mut R, entries: &mut [u16], tag: u16) -> u64
where
    S: Sampler + ?Sized,
    R: Rng + ?Sized,
{
    let mut collisions = 0u64;
    for _ in 0..q {
        collisions += u64::from(sight(&mut entries[sampler.sample(rng)], tag));
    }
    collisions
}

/// The two pair statistics of one sample slice.
struct RepeatStats {
    collisions: u64,
    coincidences: u64,
}

/// Computes [`RepeatStats`] with the per-thread count table, or by sorting
/// when the table cannot hold the slice.
fn repeat_stats(samples: &[usize]) -> RepeatStats {
    if let Some(stats) = TABLE.with(|cell| tally(&mut cell.borrow_mut(), samples)) {
        return stats;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    fold_sorted_repeats(sorted.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]))
}

/// Tallies `samples` in `table`: each sight of a value pairs with its
/// earlier sights. Returns `None` at the first sample at or above
/// [`TABLE_BOUND`] or the first value seen more than [`MAX_TALLY`] times.
fn tally(table: &mut CountTable, samples: &[usize]) -> Option<RepeatStats> {
    let tag = table.open(0);
    let mut stats = RepeatStats {
        collisions: 0,
        coincidences: 0,
    };
    for &x in samples {
        if x >= table.entries.len() {
            if x >= TABLE_BOUND {
                return None;
            }
            table.entries.resize((x + 1).next_power_of_two(), 0);
        }
        let entry = &mut table.entries[x];
        if (*entry ^ tag) == COUNT_MASK {
            return None;
        }
        let count = sight(entry, tag);
        stats.collisions += u64::from(count);
        stats.coincidences += u64::from(count != 0);
    }
    Some(stats)
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
    fn singleton_count_matches_definition() {
        let h = Histogram::from_samples(5, &[0, 1, 1, 4]);
        assert_eq!(h.singleton_count(), 2);
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
