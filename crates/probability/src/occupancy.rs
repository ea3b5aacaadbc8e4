//! Occupancy-histogram fast path: draw a player's `q`-sample histogram
//! directly, without materializing the individual samples.
//!
//! A collision node consumes only the *occupancy histogram* of its `q`
//! samples — the order of the draws is irrelevant. The joint law of the
//! occupancy vector is Multinomial(q, p), which can be sampled in
//! O(n + q) expected time by stick-breaking: walk the support and draw
//! each count from the conditional binomial
//!
//! ```text
//! c_i ~ Binomial(q - Σ_{j<i} c_j,  p_i / Σ_{j>=i} p_j)
//! ```
//!
//! This is *exact* — the resulting histogram has the same distribution as
//! binning `q` iid per-draw samples. Protocol runs never take this path:
//! every node draws through [`crate::Sampler::collision_count`]. The
//! balanced rule's Monte-Carlo calibration is its one caller, where
//! [`SampleBackend`] picks it for the `(n, q)` at which the frozen cost
//! tables ([`crate::costmodel`]) predict it is cheaper.
//!
//! # Example
//!
//! ```
//! use dut_probability::DenseDistribution;
//! use rand::SeedableRng;
//!
//! let d = DenseDistribution::uniform(16);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let h = d.histogram_sampler().draw(100, &mut rng);
//! assert_eq!(h.total(), 100);
//! ```

use crate::dense::DenseDistribution;
use crate::empirical::Histogram;
use rand::Rng;
use std::fmt;

/// Which engine the balanced rule's calibration uses to draw a uniform
/// node's collision count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SampleBackend {
    /// Draw the `q` samples one by one and tally collisions as they
    /// come ([`crate::Sampler::collision_count`]) — O(q) per node.
    PerDraw,
    /// Draw the occupancy histogram directly via conditional-binomial
    /// stick-breaking — O(n + q) expected per node, no sample vector.
    Histogram,
    /// Consult the frozen cost tables ([`crate::costmodel`]) and take
    /// whichever concrete engine they predict is cheaper for the
    /// `(n, q)` at hand.
    #[default]
    Auto,
}

impl SampleBackend {
    /// The concrete engines, in presentation order. `Auto` is not a
    /// third engine — it resolves to one of these per `(n, q)` — so
    /// equivalence tests iterate this list.
    pub const ALL: [SampleBackend; 2] = [SampleBackend::PerDraw, SampleBackend::Histogram];

    /// Stable lowercase name, used in reports and test messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SampleBackend::PerDraw => "per-draw",
            SampleBackend::Histogram => "histogram",
            SampleBackend::Auto => "auto",
        }
    }

    /// Small stable integer code. `dut serve` mixes the resolved
    /// engine's code into each key's calibration seed, so the codes
    /// must never change.
    #[must_use]
    pub fn gauge_code(self) -> u64 {
        match self {
            SampleBackend::PerDraw => 1,
            SampleBackend::Histogram => 2,
            SampleBackend::Auto => 3,
        }
    }

    /// The concrete engine this backend uses for a `q`-sample draw on
    /// a size-`n` domain: fixed engines return themselves, `Auto` asks
    /// the cost model. Never returns `Auto`.
    #[must_use]
    pub fn resolve(self, n: usize, q: u64) -> SampleBackend {
        match self {
            SampleBackend::PerDraw | SampleBackend::Histogram => self,
            SampleBackend::Auto => crate::costmodel::choose(n, q),
        }
    }
}

impl fmt::Display for SampleBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Natural log of `k!`, exact summation below 128 and Stirling's series
/// (with the `1/12k` correction) above, where its error is < 1e-13.
#[must_use]
pub fn ln_factorial(k: u64) -> f64 {
    if k < 2 {
        return 0.0;
    }
    if k < 128 {
        return (2..=k).map(|i| (i as f64).ln()).sum();
    }
    let kf = k as f64;
    kf * kf.ln() - kf + 0.5 * (2.0 * std::f64::consts::PI * kf).ln() + 1.0 / (12.0 * kf)
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// # Panics
///
/// Panics if `k > n`.
#[must_use]
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose requires k <= n (got k={k}, n={n})");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Draws an exact Binomial(n, p) variate.
///
/// Strategy: mirror `p > 1/2` to the complement, then invert the CDF —
/// from zero when the mean is small (a handful of pmf-recurrence steps),
/// and zig-zagging outward from the mode when the mean is large, which
/// touches O(√np) terms in expectation. Both paths are exact inversion
/// against the true pmf; no normal/Poisson approximation is involved.
///
/// # Panics
///
/// Panics if `p` is not a probability (NaN or outside `[0, 1]`).
#[must_use]
pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "binomial probability must lie in [0, 1], got {p}"
    );
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial_inner(n, 1.0 - p, rng);
    }
    binomial_inner(n, p, rng)
}

/// Inversion sampler for `p <= 1/2` (callers mirror larger `p`).
fn binomial_inner<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let mean = n as f64 * p;
    let u = rng.random::<f64>();
    if mean < 30.0 {
        binomial_small_mean(n, p, u)
    } else {
        binomial_from_mode(n, p, u)
    }
}

/// CDF inversion from zero via the pmf recurrence
/// `pmf(k+1) = pmf(k) · (n-k)/(k+1) · p/(1-p)`; O(mean) expected steps.
/// `(1-p)^n` is computed in log space so it survives large `n`.
fn binomial_small_mean(n: u64, p: f64, u: f64) -> u64 {
    binv_from_zero(n, p / (1.0 - p), (n as f64 * (-p).ln_1p()).exp(), u)
}

/// The BINV recurrence with its inputs precomputed: `ratio = p/(1-p)`
/// and `pmf0 = (1-p)^n`. [`HistogramSampler`] hoists the log/exp work
/// behind these out of its per-cell loop.
///
/// The inversion walk is chunked: four pmf-recurrence steps are
/// unrolled per iteration and `u` is tested once against the chunk's
/// end, so long walks (large means) take one data-dependent branch per
/// four terms instead of one per term. The partial sums inside a chunk
/// accumulate in the same left-to-right order the one-step loop would
/// use and `cdf` is nondecreasing, so crossing points — and therefore
/// draws — are identical to the unchunked recurrence.
fn binv_from_zero(n: u64, ratio: f64, pmf0: f64, u: f64) -> u64 {
    let mut pmf = pmf0;
    let mut cdf = pmf;
    let mut k = 0u64;
    while cdf < u && k + 4 <= n {
        let p1 = pmf * (ratio * ((n - k) as f64) / ((k + 1) as f64));
        let p2 = p1 * (ratio * ((n - k - 1) as f64) / ((k + 2) as f64));
        let p3 = p2 * (ratio * ((n - k - 2) as f64) / ((k + 3) as f64));
        let p4 = p3 * (ratio * ((n - k - 3) as f64) / ((k + 4) as f64));
        let end = cdf + p1 + p2 + p3 + p4;
        if end < u {
            cdf = end;
            pmf = p4;
            k += 4;
            continue;
        }
        // `u` lands inside this chunk: re-walk its four terms with the
        // per-term test (sums recomputed in the identical order).
        for p in [p1, p2, p3, p4] {
            k += 1;
            pmf = p;
            cdf += p;
            if cdf >= u {
                return k;
            }
        }
    }
    while cdf < u && k < n {
        k += 1;
        pmf *= ratio * ((n - k + 1) as f64) / k as f64;
        cdf += pmf;
    }
    k
}

/// CDF inversion zig-zagging outward from the mode `⌊(n+1)p⌋`,
/// accumulating pmf mass alternately below and above until it covers `u`.
/// Each pmf is derived from its neighbour by an exact ratio; the mode pmf
/// comes from `ln_choose`. Expected O(√np) terms examined.
fn binomial_from_mode(n: u64, p: f64, u: f64) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // dut-lint: allow(lossy-cast): (n+1)p is a non-negative integer-floor bounded by n+1 ≤ 2^53 in every workspace workload, where the cast is exact
    let mode = (((n + 1) as f64) * p).floor().min(n as f64) as u64;
    let pmf_mode =
        (ln_choose(n, mode) + mode as f64 * p.ln() + (n - mode) as f64 * (-p).ln_1p()).exp();
    let mut acc = pmf_mode;
    if u < acc {
        return mode;
    }
    let ratio_up = p / (1.0 - p);
    let (mut lo, mut hi) = (mode, mode);
    let (mut pmf_lo, mut pmf_hi) = (pmf_mode, pmf_mode);
    loop {
        let mut progressed = false;
        if hi < n && pmf_hi > 0.0 {
            pmf_hi *= ratio_up * ((n - hi) as f64) / ((hi + 1) as f64);
            hi += 1;
            acc += pmf_hi;
            if u < acc {
                return hi;
            }
            progressed = true;
        }
        if lo > 0 && pmf_lo > 0.0 {
            pmf_lo *= (lo as f64) / (ratio_up * ((n - lo + 1) as f64));
            lo -= 1;
            acc += pmf_lo;
            if u < acc {
                return lo;
            }
            progressed = true;
        }
        if !progressed {
            // Both tails underflowed with ~1e-15 of mass unaccounted for;
            // `u` landed in that float dust. The mode is the honest answer.
            return mode;
        }
    }
}

/// Remaining-count bound below which `pmf0 = base^m` comes from the
/// cell's exp table (binary exponentiation over cached squarings)
/// instead of `exp(m · ln_base)`: at most [`POW_TABLE_BITS`] dependent
/// multiplies, which beats the transcendental for the small `m` that
/// dominate both deep stick-breaking walks and small-q serve traffic.
const POW_TABLE_MAX: u64 = 1 << POW_TABLE_BITS;
/// Cached squarings per cell: `base^(2^j)` for `j < POW_TABLE_BITS`.
const POW_TABLE_BITS: u32 = 7;

/// `base^m` for `m < 2^POW_TABLE_BITS` from the cached squarings.
fn pow_from_table(table: &[f64; POW_TABLE_BITS as usize], m: u64) -> f64 {
    let mut acc = 1.0f64;
    let mut bits = m;
    let mut j = 0usize;
    while bits != 0 {
        if bits & 1 == 1 {
            acc *= table[j];
        }
        bits >>= 1;
        j += 1;
    }
    acc
}

/// Repeated squarings of `base`: `[base, base², base⁴, …]`.
fn squarings(base: f64) -> [f64; POW_TABLE_BITS as usize] {
    let mut table = [base; POW_TABLE_BITS as usize];
    for j in 1..POW_TABLE_BITS as usize {
        table[j] = table[j - 1] * table[j - 1];
    }
    table
}

/// Precomputed stick-breaking tables for one support element: the
/// conditional success probability plus every log/ratio the inversion
/// sampler needs, so the per-cell draw loop touches no transcendentals.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// `p_i / Σ_{j >= i} p_j`, clamped into `[0, 1]`.
    conditional: f64,
    /// `conditional / (1 - conditional)` — the BINV pmf recurrence ratio.
    ratio: f64,
    /// `ln(1 - conditional)` — `(1-p)^m = exp(m · ln_keep)`.
    ln_keep: f64,
    /// The mirrored pair, for cells with `conditional > 1/2`.
    mirror_ratio: f64,
    /// `ln(conditional)`.
    ln_take: f64,
    /// Per-cell exp table for the direct branch: `(1-conditional)^(2^j)`,
    /// so small-`m` draws compute `pmf0` with a few multiplies and no
    /// `exp` at all.
    keep_pows: [f64; POW_TABLE_BITS as usize],
    /// Per-cell exp table for the mirrored branch: `conditional^(2^j)`.
    take_pows: [f64; POW_TABLE_BITS as usize],
}

/// A sampler that draws the full `q`-sample occupancy [`Histogram`] in one
/// O(n + q) pass via conditional-binomial stick-breaking.
///
/// Construction precomputes, per support element, the conditional
/// probability `p_i / Σ_{j>=i} p_j` (from a tail-accumulated suffix sum,
/// guarding against drift from left-to-right summation) together with
/// its logs and pmf-recurrence ratios. The draw loop then needs a single
/// `exp` per visited cell — the one power `(1-p)^remaining` whose
/// exponent changes per draw — which is what makes this path several
/// times faster than per-draw sampling even at modest `q/n`.
#[derive(Debug, Clone)]
pub struct HistogramSampler {
    probs: Vec<f64>,
    cells: Vec<Cell>,
    /// Index of the last element with positive mass; it absorbs every
    /// still-unallocated sample, so the conditional there is exactly 1.
    last_nonzero: usize,
}

impl HistogramSampler {
    /// Builds the stick-breaking tables for `dist`.
    #[must_use]
    pub fn new(dist: &DenseDistribution) -> Self {
        let probs = dist.probs().to_vec();
        let mut suffix = vec![0.0f64; probs.len()];
        let mut acc = 0.0;
        for i in (0..probs.len()).rev() {
            acc += probs[i];
            suffix[i] = acc;
        }
        let cells = probs
            .iter()
            .zip(&suffix)
            .map(|(&p, &s)| {
                let conditional = if p > 0.0 {
                    (p / s).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                Cell {
                    conditional,
                    ratio: conditional / (1.0 - conditional),
                    ln_keep: (-conditional).ln_1p(),
                    mirror_ratio: (1.0 - conditional) / conditional,
                    ln_take: conditional.ln(),
                    keep_pows: squarings(1.0 - conditional),
                    take_pows: squarings(conditional),
                }
            })
            .collect();
        let last_nonzero = probs
            .iter()
            .rposition(|&p| p > 0.0)
            .expect("DenseDistribution always carries positive mass");
        Self {
            probs,
            cells,
            last_nonzero,
        }
    }

    /// Draws the occupancy histogram of `q` iid samples.
    ///
    /// Exact: the returned histogram is Multinomial(q, p)-distributed,
    /// identical in law to binning `q` per-draw samples.
    #[must_use]
    pub fn draw<R: Rng + ?Sized>(&self, q: u64, rng: &mut R) -> Histogram {
        let mut counts = vec![0u64; self.probs.len()];
        let mut remaining = q;
        for (i, &p) in self.probs.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if p <= 0.0 {
                continue;
            }
            if i == self.last_nonzero {
                counts[i] = remaining;
                break;
            }
            let c = self.conditional_binomial(remaining, &self.cells[i], rng);
            counts[i] = c;
            remaining -= c;
        }
        Histogram::from_counts(counts)
    }

    /// One stick-breaking step: `Binomial(m, cell.conditional)` using the
    /// precomputed tables when the (possibly mirrored) mean is in BINV
    /// range, the general sampler otherwise.
    fn conditional_binomial<R: Rng + ?Sized>(&self, m: u64, cell: &Cell, rng: &mut R) -> u64 {
        let mf = m as f64;
        if cell.conditional <= 0.5 {
            if mf * cell.conditional < 30.0 {
                let u = rng.random::<f64>();
                let pmf0 = if m < POW_TABLE_MAX {
                    pow_from_table(&cell.keep_pows, m)
                } else {
                    (mf * cell.ln_keep).exp()
                };
                return binv_from_zero(m, cell.ratio, pmf0, u);
            }
        } else if mf * (1.0 - cell.conditional) < 30.0 {
            let u = rng.random::<f64>();
            let pmf0 = if m < POW_TABLE_MAX {
                pow_from_table(&cell.take_pows, m)
            } else {
                (mf * cell.ln_take).exp()
            };
            return m - binv_from_zero(m, cell.mirror_ratio, pmf0, u);
        }
        binomial(m, cell.conditional, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn backend_names_and_codes_are_stable() {
        for b in SampleBackend::ALL {
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(SampleBackend::default(), SampleBackend::Auto);
        assert_eq!(SampleBackend::PerDraw.gauge_code(), 1);
        assert_eq!(SampleBackend::Histogram.gauge_code(), 2);
        assert_eq!(SampleBackend::Auto.gauge_code(), 3);
        assert_eq!(SampleBackend::Auto.name(), "auto");
    }

    #[test]
    fn resolve_never_returns_auto() {
        for n in [2usize, 100, 1_000, 10_000, 1 << 17] {
            for q in [1u64, 1_000, 10_000, 100_000] {
                let r = SampleBackend::Auto.resolve(n, q);
                assert!(SampleBackend::ALL.contains(&r), "n={n} q={q} -> {r}");
            }
        }
        // Concrete engines resolve to themselves.
        for b in SampleBackend::ALL {
            assert_eq!(b.resolve(50, 50), b);
        }
    }

    #[test]
    fn pow_table_matches_exp_path() {
        // The per-cell squarings table must agree with the log-space
        // power it replaces to ~1 ulp-scale relative error for every
        // m below the cutoff.
        for base in [0.9999f64, 0.97, 0.5, 0.2, 1e-4] {
            let table = squarings(base);
            for m in 0..POW_TABLE_MAX {
                let fast = pow_from_table(&table, m);
                let slow = (m as f64 * base.ln()).exp();
                let err = (fast - slow).abs() / slow.max(f64::MIN_POSITIVE);
                assert!(err < 1e-12, "base={base} m={m}: {fast} vs {slow}");
            }
        }
        assert_eq!(pow_from_table(&squarings(0.3), 0), 1.0);
    }

    #[test]
    fn ln_factorial_matches_direct_products() {
        // Spot-check the Stirling branch against the exact branch's
        // recurrence: ln((k)!) = ln((k-1)!) + ln(k) across the seam.
        let below = ln_factorial(127);
        let above = ln_factorial(128);
        // Stirling's residual after the 1/12k term is ~1/(360k³) ≈ 1.3e-9
        // at the k=128 seam.
        assert!((above - below - (128.0f64).ln()).abs() < 1e-8);
        assert!((ln_factorial(5) - (120.0f64).ln()).abs() < 1e-12);
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
    }

    #[test]
    fn ln_choose_matches_pascal() {
        // C(10, 3) = 120.
        assert!((ln_choose(10, 3) - (120.0f64).ln()).abs() < 1e-12);
        // C(200, 100) via the identity C(n,k) = C(n-1,k-1) + C(n-1,k) is
        // awkward; instead check symmetry and edge values.
        assert!((ln_choose(200, 100) - ln_choose(200, 100)).abs() < 1e-12);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng(1);
        assert_eq!(binomial(0, 0.3, &mut r), 0);
        assert_eq!(binomial(10, 0.0, &mut r), 0);
        assert_eq!(binomial(10, 1.0, &mut r), 10);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn binomial_rejects_bad_probability() {
        let mut r = rng(2);
        let _ = binomial(5, 1.5, &mut r);
    }

    /// Sample mean within 6 sigma-of-the-mean of np, sample variance in a
    /// generous band around np(1-p).
    fn check_binomial_moments(n: u64, p: f64, seed: u64) {
        let trials = 20_000u64;
        let mut r = rng(seed);
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..trials {
            let x = binomial(n, p, &mut r) as f64;
            sum += x;
            sum_sq += x * x;
        }
        let t = trials as f64;
        let mean = sum / t;
        let var = sum_sq / t - mean * mean;
        let expect_mean = n as f64 * p;
        let expect_var = n as f64 * p * (1.0 - p);
        let mean_tol = 6.0 * (expect_var / t).sqrt();
        assert!(
            (mean - expect_mean).abs() < mean_tol.max(1e-9),
            "n={n} p={p}: mean {mean} vs {expect_mean} (tol {mean_tol})"
        );
        assert!(
            (var - expect_var).abs() < 0.15 * expect_var.max(1.0),
            "n={n} p={p}: var {var} vs {expect_var}"
        );
    }

    #[test]
    fn binomial_moments_small_mean_branch() {
        check_binomial_moments(40, 0.1, 11); // mean 4 -> BINV
        check_binomial_moments(1000, 0.02, 13); // mean 20 -> BINV
    }

    #[test]
    fn binomial_moments_mode_branch() {
        check_binomial_moments(10_000, 0.01, 17); // mean 100 -> zig-zag
        check_binomial_moments(100_000, 0.005, 19); // mean 500 -> zig-zag
    }

    #[test]
    fn binomial_moments_mirrored_branch() {
        check_binomial_moments(50, 0.9, 23); // p > 1/2 mirror, small mean
        check_binomial_moments(20_000, 0.7, 29); // p > 1/2 mirror, large mean
    }

    #[test]
    fn binomial_chi2_against_exact_pmf() {
        // Full goodness-of-fit on a small case covering both code paths
        // via the same public entry point.
        let (n, p) = (12u64, 0.35f64);
        let trials = 40_000u64;
        let mut r = rng(31);
        let mut counts = vec![0u64; (n + 1) as usize];
        for _ in 0..trials {
            counts[binomial(n, p, &mut r) as usize] += 1;
        }
        let mut stat = 0.0;
        for (k, &c) in counts.iter().enumerate() {
            let lp = ln_choose(n, k as u64)
                + (k as f64) * p.ln()
                + ((n - k as u64) as f64) * (-p).ln_1p();
            let expected = lp.exp() * trials as f64;
            if expected > 1.0 {
                let d = c as f64 - expected;
                stat += d * d / expected;
            }
        }
        // df ~ 12; anything under 40 is comfortably consistent.
        assert!(stat < 40.0, "chi2 stat {stat} too large");
    }

    #[test]
    fn histogram_total_always_q() {
        let d = DenseDistribution::from_weights(vec![1.0, 5.0, 0.0, 2.0, 0.5]).unwrap();
        let s = HistogramSampler::new(&d);
        let mut r = rng(37);
        for &q in &[0u64, 1, 7, 1000, 12_345] {
            let h = s.draw(q, &mut r);
            assert_eq!(h.total(), q, "q={q}");
            assert_eq!(h.domain_size(), 5);
        }
    }

    #[test]
    fn histogram_never_populates_zero_mass() {
        let d = DenseDistribution::new(vec![0.5, 0.0, 0.5, 0.0]).unwrap();
        let s = HistogramSampler::new(&d);
        let mut r = rng(41);
        let h = s.draw(10_000, &mut r);
        assert_eq!(h.count(1), 0);
        assert_eq!(h.count(3), 0);
        assert_eq!(h.count(0) + h.count(2), 10_000);
    }

    #[test]
    fn histogram_trailing_zero_mass_not_dumped_on() {
        // The "last element takes the remainder" shortcut must target the
        // last *positive-mass* element, not the last index.
        let d = DenseDistribution::new(vec![0.3, 0.7, 0.0]).unwrap();
        let s = HistogramSampler::new(&d);
        let mut r = rng(43);
        let h = s.draw(5_000, &mut r);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.total(), 5_000);
    }

    #[test]
    fn histogram_point_mass() {
        let d = DenseDistribution::new(vec![0.0, 1.0, 0.0]).unwrap();
        let s = HistogramSampler::new(&d);
        let mut r = rng(47);
        let h = s.draw(999, &mut r);
        assert_eq!(h.count(1), 999);
    }

    #[test]
    fn histogram_deterministic_per_seed() {
        let d = DenseDistribution::uniform(64);
        let s = HistogramSampler::new(&d);
        let a = s.draw(10_000, &mut rng(53));
        let b = s.draw(10_000, &mut rng(53));
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_matches_multinomial_marginals() {
        // Each marginal count is Binomial(q, p_i); check cell means
        // within 6 sigma across repeated draws.
        let d = DenseDistribution::new(vec![0.05, 0.5, 0.2, 0.25]).unwrap();
        let s = HistogramSampler::new(&d);
        let mut r = rng(59);
        let (q, reps) = (1_000u64, 400u64);
        let mut totals = [0u64; 4];
        for _ in 0..reps {
            let h = s.draw(q, &mut r);
            for (i, t) in totals.iter_mut().enumerate() {
                *t += h.count(i);
            }
        }
        for (i, &total) in totals.iter().enumerate() {
            let mean = total as f64 / reps as f64;
            let expect = q as f64 * d.prob(i);
            let sigma = (q as f64 * d.prob(i) * (1.0 - d.prob(i)) / reps as f64).sqrt();
            assert!(
                (mean - expect).abs() < 6.0 * sigma,
                "cell {i}: mean {mean} vs {expect} (sigma {sigma})"
            );
        }
    }
}
