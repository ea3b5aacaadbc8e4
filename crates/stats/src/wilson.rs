/// A success count with Wilson-score confidence intervals.
///
/// Used everywhere a protocol's success probability is estimated: the
/// Wilson interval stays inside `[0,1]` and behaves sanely at extreme
/// counts, unlike the normal approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuccessEstimate {
    successes: u64,
    trials: u64,
}

impl SuccessEstimate {
    /// Creates an estimate from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `successes > trials`.
    #[must_use]
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(trials > 0, "need at least one trial");
        assert!(successes <= trials, "successes exceed trials");
        Self { successes, trials }
    }

    /// Number of successes.
    #[must_use]
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The point estimate `successes / trials`.
    #[must_use]
    pub fn point(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }

    /// Wilson-score lower confidence bound at `z` standard deviations.
    ///
    /// # Panics
    ///
    /// Panics if `z` is negative or not finite.
    #[must_use]
    pub fn wilson_lower(&self, z: f64) -> f64 {
        self.wilson(z).0
    }

    /// Wilson-score upper confidence bound at `z` standard deviations.
    ///
    /// # Panics
    ///
    /// Panics if `z` is negative or not finite.
    #[must_use]
    pub fn wilson_upper(&self, z: f64) -> f64 {
        self.wilson(z).1
    }

    fn wilson(&self, z: f64) -> (f64, f64) {
        assert!(z.is_finite() && z >= 0.0, "z must be non-negative");
        let n = self.trials as f64;
        let p = self.point();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_estimate() {
        let e = SuccessEstimate::new(30, 40);
        assert!((e.point() - 0.75).abs() < 1e-15);
        assert_eq!(e.successes(), 30);
        assert_eq!(e.trials(), 40);
    }

    #[test]
    fn interval_contains_point() {
        let e = SuccessEstimate::new(70, 100);
        assert!(e.wilson_lower(2.0) < e.point());
        assert!(e.wilson_upper(2.0) > e.point());
    }

    #[test]
    fn interval_stays_in_unit_range() {
        let zero = SuccessEstimate::new(0, 10);
        assert!(zero.wilson_lower(3.0) >= 0.0);
        assert!(zero.wilson_upper(3.0) > 0.0); // not degenerate at 0
        let one = SuccessEstimate::new(10, 10);
        assert!(one.wilson_upper(3.0) <= 1.0);
        assert!(one.wilson_lower(3.0) < 1.0); // not degenerate at 1
    }

    #[test]
    fn interval_narrows_with_trials() {
        let small = SuccessEstimate::new(7, 10);
        let large = SuccessEstimate::new(700, 1000);
        let w_small = small.wilson_upper(2.0) - small.wilson_lower(2.0);
        let w_large = large.wilson_upper(2.0) - large.wilson_lower(2.0);
        assert!(w_large < w_small / 3.0);
    }

    #[test]
    fn zero_z_collapses_to_point() {
        let e = SuccessEstimate::new(3, 4);
        assert!((e.wilson_lower(0.0) - 0.75).abs() < 1e-12);
        assert!((e.wilson_upper(0.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = SuccessEstimate::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn excess_successes_panic() {
        let _ = SuccessEstimate::new(2, 1);
    }
}
