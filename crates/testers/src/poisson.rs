//! Poisson tail probabilities.
//!
//! Under the uniform distribution, a node's collision count on `q ≪ n^{2/3}`
//! samples is well approximated by `Poisson(C(q,2)/n)`; the biased-node
//! protocols ([`crate::TThresholdTester`]) set their local thresholds from
//! exact Poisson tails at this rate.

// The binomial sampler's own table, so thresholds and the sampling
// fast path can never disagree on factorials.
use dut_probability::occupancy::ln_factorial;

/// `Pr[Poisson(λ) ≥ t]`, computed by direct stable summation.
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
#[must_use]
pub fn poisson_upper_tail(lambda: f64, t: u64) -> f64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be non-negative"
    );
    if t == 0 {
        return 1.0;
    }
    if lambda <= 0.0 {
        return 0.0;
    }
    // Sum the lower tail Pr[X < t] in log-stable fashion, then complement.
    // For large t relative to lambda, sum the upper tail directly instead.
    if (t as f64) > lambda {
        // Upper tail is small: sum from t upwards until terms vanish.
        let mut log_term = poisson_log_pmf(lambda, t);
        let mut total = log_term.exp();
        let mut k = t;
        loop {
            k += 1;
            log_term += lambda.ln() - (k as f64).ln();
            let term = log_term.exp();
            total += term;
            if term < total * 1e-16 || k > t + 10_000_000 {
                break;
            }
        }
        total.min(1.0)
    } else {
        // Lower tail is small: Pr[X >= t] = 1 - Pr[X <= t-1].
        let mut log_term = poisson_log_pmf(lambda, 0);
        let mut lower = log_term.exp();
        for k in 1..t {
            log_term += lambda.ln() - (k as f64).ln();
            lower += log_term.exp();
        }
        (1.0 - lower).clamp(0.0, 1.0)
    }
}

/// `log Pr[Poisson(λ) = k]` via Stirling-free accumulation.
///
/// # Panics
///
/// Panics if `lambda` is not positive and finite.
#[must_use]
pub fn poisson_log_pmf(lambda: f64, k: u64) -> f64 {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "lambda must be positive"
    );
    let k_f = k as f64;
    k_f * lambda.ln() - lambda - ln_factorial(k)
}

/// The smallest integer threshold `t` with `Pr[Poisson(λ) ≥ t] ≤ alpha`.
///
/// Brackets the answer with doubling steps away from `⌈λ⌉`, then
/// bisects, so it evaluates [`poisson_upper_tail`] O(log(|t − λ| + 1))
/// times rather than once per integer between `⌈λ⌉` and `t`.
///
/// # Panics
///
/// Panics if `alpha ∉ (0, 1]` or `lambda` is invalid.
#[must_use]
pub fn poisson_threshold_for_tail(lambda: f64, alpha: f64) -> u64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be non-negative"
    );
    let over = |t: u64| poisson_upper_tail(lambda, t) > alpha;
    let start = dut_stats::convert::ceil_to_usize(lambda) as u64;
    // `over(bad)` and `!over(good)` hold throughout.
    let (mut bad, mut good) = if start > 0 && !over(start - 1) {
        // Within budget below ⌈λ⌉: step down until the tail exceeds it.
        let mut good = start - 1;
        let mut step = 1;
        loop {
            if good == 0 {
                return 0;
            }
            let probe = good.saturating_sub(step);
            if over(probe) {
                break (probe, good);
            }
            good = probe;
            step *= 2;
        }
    } else if over(start) {
        let mut bad = start;
        let mut step = 1;
        loop {
            let probe = bad + step;
            if !over(probe) {
                break (bad, probe);
            }
            bad = probe;
            step *= 2;
        }
    } else {
        return start;
    };
    while good - bad > 1 {
        let mid = bad + (good - bad) / 2;
        if over(mid) {
            bad = mid;
        } else {
            good = mid;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_at_zero_is_one() {
        assert_eq!(poisson_upper_tail(3.0, 0), 1.0);
        assert_eq!(poisson_upper_tail(0.0, 0), 1.0);
        assert_eq!(poisson_upper_tail(0.0, 1), 0.0);
    }

    #[test]
    fn tail_matches_direct_pmf_sum() {
        let lambda = 2.5;
        for t in 1..15u64 {
            let direct: f64 = (t..60).map(|k| poisson_log_pmf(lambda, k).exp()).sum();
            let tail = poisson_upper_tail(lambda, t);
            assert!((tail - direct).abs() < 1e-10, "t={t}: {tail} vs {direct}");
        }
    }

    #[test]
    fn tail_is_monotone_decreasing_in_t() {
        let lambda = 7.0;
        let mut prev = 1.0;
        for t in 0..40 {
            let tail = poisson_upper_tail(lambda, t);
            assert!(tail <= prev + 1e-15);
            prev = tail;
        }
    }

    #[test]
    fn tail_is_monotone_increasing_in_lambda() {
        for t in [1u64, 3, 10] {
            assert!(poisson_upper_tail(1.0, t) < poisson_upper_tail(2.0, t));
        }
    }

    #[test]
    fn known_values() {
        // Pr[Poi(1) >= 1] = 1 - e^{-1}.
        assert!((poisson_upper_tail(1.0, 1) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // Pr[Poi(2) >= 2] = 1 - e^{-2}(1 + 2) = 1 - 3e^{-2}.
        assert!((poisson_upper_tail(2.0, 2) - (1.0 - 3.0 * (-2.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn threshold_achieves_target() {
        for &lambda in &[0.01, 0.5, 1.0, 5.0, 40.0] {
            for &alpha in &[0.5, 0.1, 0.01, 1e-4] {
                let t = poisson_threshold_for_tail(lambda, alpha);
                assert!(
                    poisson_upper_tail(lambda, t) <= alpha,
                    "λ={lambda} α={alpha}"
                );
                if t > 0 {
                    assert!(
                        poisson_upper_tail(lambda, t - 1) > alpha,
                        "λ={lambda} α={alpha}: threshold not minimal"
                    );
                }
            }
        }
    }

    /// The linear walk this search replaced: down from `⌈λ⌉` while the
    /// tail one below is within budget, then up until it is.
    fn walk_threshold(lambda: f64, alpha: f64) -> u64 {
        let mut t = dut_stats::convert::ceil_to_usize(lambda) as u64;
        while t > 0 && poisson_upper_tail(lambda, t - 1) <= alpha {
            t -= 1;
        }
        while poisson_upper_tail(lambda, t) > alpha {
            t += 1;
        }
        t
    }

    #[test]
    fn threshold_search_matches_the_linear_walk() {
        // λ from 2⁻¹⁴ (≈ 10⁻⁴) to 2¹² in half-octave
        // steps, plus the C(q,2)/n that E2, E3 and the serve path ask
        // for; α the node budgets T/(4k) and a few coarse levels.
        let mut lambdas: Vec<f64> = (-28..=24).map(|j| 2f64.powf(f64::from(j) / 2.0)).collect();
        for n in [64.0, 256.0, 1024.0, 4096.0] {
            lambdas.extend((2..200).step_by(9).map(|q| f64::from(q * (q - 1) / 2) / n));
        }
        let mut alphas = vec![0.05, 0.25, 0.5, 1.0];
        for k in (0..=12).map(|e| f64::from(1u32 << e)) {
            alphas.extend(
                [1.0, 2.0, 16.0]
                    .map(|t| t / (4.0 * k))
                    .into_iter()
                    .filter(|&a| a <= 1.0),
            );
        }
        for &lambda in &lambdas {
            for &alpha in &alphas {
                assert_eq!(
                    poisson_threshold_for_tail(lambda, alpha),
                    walk_threshold(lambda, alpha),
                    "λ={lambda} α={alpha}"
                );
            }
        }
    }

    #[test]
    fn threshold_alpha_one_is_zero() {
        assert_eq!(poisson_threshold_for_tail(3.0, 1.0), 0);
    }

    #[test]
    fn large_lambda_median_behaviour() {
        // Median of Poisson(100) is near 100.
        let t = poisson_threshold_for_tail(100.0, 0.5);
        assert!((95..=105).contains(&t), "median threshold {t}");
    }
}
