//! The KKL level inequality (Lemma 5.4 in the paper, after \[KKL88\]):
//! for a Boolean function with small mean, the Fourier weight on low
//! levels is much smaller than the trivial Parseval bound. This is the
//! engine behind the paper's AND-rule lower bound — a highly-biased
//! player bit carries very little low-level spectral weight, hence very
//! little information about the samples.

use crate::BooleanFunction;

/// The right-hand side of Lemma 5.4: `δ^{-r} · μ^{2/(1+δ)}`.
///
/// # Panics
///
/// Panics unless `0 < δ` and `0 ≤ μ ≤ 1`.
#[must_use]
pub fn level_inequality_bound(mu: f64, r: u32, delta: f64) -> f64 {
    assert!(delta > 0.0, "delta must be positive");
    assert!((0.0..=1.0).contains(&mu), "mu must be a probability");
    if mu <= 0.0 {
        return 0.0;
    }
    delta.powi(-(r as i32)) * mu.powf(2.0 / (1.0 + delta))
}

/// Result of checking the level inequality on a concrete function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelCheck {
    /// Observed weight `Σ_{|S| ≤ r} f̂(S)²` (including the empty set,
    /// as in the statement of Lemma 5.4).
    pub observed: f64,
    /// The bound `δ^{-r} · μ^{2/(1+δ)}`.
    pub bound: f64,
    /// The mean used (min of `μ(f)` and `1 − μ(f)`; the paper applies the
    /// lemma to whichever of `f`, `1−f` has mean ≤ 1/2, which share all
    /// non-empty coefficients).
    pub mu: f64,
}

impl LevelCheck {
    /// Whether the inequality holds (with a small numerical slack).
    #[must_use]
    pub fn holds(&self) -> bool {
        self.observed <= self.bound * (1.0 + 1e-9) + 1e-15
    }

    /// `observed / bound`; values ≤ 1 mean the inequality holds.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.bound <= 0.0 {
            if self.observed <= 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.observed / self.bound
        }
    }
}

/// Checks Lemma 5.4 for a `{0,1}`-valued function at level `r` and
/// parameter `delta`, applying it to whichever of `f`, `1−f` has mean
/// ≤ 1/2 (they share every non-empty coefficient; the empty coefficient
/// of the flipped function is used, as in the paper's proof).
///
/// # Panics
///
/// Panics if `f` is not `{0,1}`-valued or `delta ≤ 0`.
#[must_use]
pub fn check_level_inequality(f: &BooleanFunction, r: u32, delta: f64) -> LevelCheck {
    assert!(
        f.is_boolean(),
        "level inequality applies to boolean functions"
    );
    let spec = f.spectrum();
    let mu = spec.mean().min(1.0 - spec.mean());
    // Weight on levels 1..=r is shared between f and 1-f; the level-0
    // weight of the small-mean version is mu^2.
    let observed = spec.low_level_weight(r) + mu * mu;
    LevelCheck {
        observed,
        bound: level_inequality_bound(mu, r, delta),
        mu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bound_is_monotone_in_mu() {
        assert!(level_inequality_bound(0.1, 2, 0.5) < level_inequality_bound(0.3, 2, 0.5));
    }

    #[test]
    fn bound_zero_mu() {
        assert_eq!(level_inequality_bound(0.0, 3, 0.5), 0.0);
    }

    #[test]
    fn holds_for_and_functions() {
        // AND_m has mean 2^{-m}: the paradigm biased function.
        for m in 2..=8u32 {
            let f = BooleanFunction::and_all(m);
            for r in 1..=m.min(4) {
                for &delta in &[0.25, 0.5, 1.0] {
                    let check = check_level_inequality(&f, r, delta);
                    assert!(check.holds(), "AND_{m} r={r} delta={delta}: {check:?}");
                }
            }
        }
    }

    #[test]
    fn holds_for_or_functions() {
        for m in 2..=8u32 {
            let f = BooleanFunction::or_any(m);
            let check = check_level_inequality(&f, 2, 0.5);
            assert!(check.holds(), "OR_{m}: {check:?}");
        }
    }

    #[test]
    fn holds_for_thresholds_and_majority() {
        for m in 2..=8u32 {
            for t in 1..=m {
                let f = BooleanFunction::threshold(m, t);
                let check = check_level_inequality(&f, 2, 0.5);
                assert!(check.holds(), "Thr_{m},{t}: {check:?}");
            }
        }
    }

    #[test]
    fn holds_for_random_sparse_functions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for &p in &[0.01, 0.05, 0.2, 0.5] {
            for _ in 0..5 {
                let f = BooleanFunction::random(8, p, &mut rng);
                for r in 1..=3 {
                    for &delta in &[0.3, 1.0] {
                        let check = check_level_inequality(&f, r, delta);
                        assert!(check.holds(), "p={p} r={r} delta={delta}: {check:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn holds_exhaustively_for_small_cubes() {
        // All 0/1 functions on 3 variables (256 of them).
        for code in 0u32..256 {
            let f = BooleanFunction::from_fn(3, |x| f64::from((code >> x) & 1));
            for r in 1..=3 {
                for &delta in &[0.5, 1.0] {
                    let check = check_level_inequality(&f, r, delta);
                    assert!(check.holds(), "code={code} r={r} delta={delta}: {check:?}");
                }
            }
        }
    }

    #[test]
    fn biased_functions_have_less_low_level_weight() {
        // The mechanism of Theorem 1.2: compare a balanced function
        // (dictator) with a biased AND at the same level.
        let balanced = check_level_inequality(&BooleanFunction::dictator(8, 0), 1, 1.0);
        let biased = check_level_inequality(&BooleanFunction::and_all(8), 1, 1.0);
        assert!(biased.observed < balanced.observed / 100.0);
    }

    #[test]
    fn ratio_reports_slack() {
        let check = check_level_inequality(&BooleanFunction::and_all(6), 2, 0.5);
        assert!(check.ratio() <= 1.0);
        assert!(check.ratio() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "boolean")]
    fn rejects_non_boolean_functions() {
        let f = BooleanFunction::constant(3, 0.5);
        let _ = check_level_inequality(&f, 1, 0.5);
    }
}
