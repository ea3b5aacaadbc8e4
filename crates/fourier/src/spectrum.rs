/// The full Fourier spectrum of a function on `{-1,1}^m`.
///
/// Coefficient `S` (a subset bitmask) is `f̂(S) = E_x[f(x)·χ_S(x)]`.
/// Provides the quantities the paper reads off the spectrum: the mean
/// `f̂(∅)` and variance `Σ_{S≠∅} f̂(S)²` (Fact 2.2), per-level weights,
/// and Parseval's identity (Fact 2.1).
///
/// # Example
///
/// ```
/// use dut_fourier::BooleanFunction;
///
/// let f = BooleanFunction::parity(4, 0b0110);
/// let spec = f.spectrum();
/// // The 0/1 parity indicator is (1 - chi_S)/2: coefficient -1/2 on S.
/// assert!((spec.coefficient(0b0110) + 0.5).abs() < 1e-12);
/// assert!((spec.level_weight(2) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    num_vars: u32,
    coeffs: Vec<f64>,
}

impl Spectrum {
    /// Wraps an explicit coefficient table of length `2^m`.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two `>= 2`.
    #[must_use]
    pub fn from_coefficients(coeffs: Vec<f64>) -> Self {
        assert!(
            coeffs.len() >= 2 && coeffs.len().is_power_of_two(),
            "coefficient table length must be a power of two >= 2"
        );
        let num_vars = coeffs.len().trailing_zeros();
        Self { num_vars, coeffs }
    }

    /// Number of variables `m`.
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The coefficient `f̂(S)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn coefficient(&self, s: u32) -> f64 {
        self.coeffs[s as usize]
    }

    /// All coefficients, indexed by subset bitmask.
    #[must_use]
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// The mean of the function: `f̂(∅)` (Fact 2.2).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.coeffs[0]
    }

    /// The variance of the function: `Σ_{S≠∅} f̂(S)²` (Fact 2.2).
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.coeffs[1..].iter().map(|c| c * c).sum()
    }

    /// Total Fourier weight `Σ_S f̂(S)² = E[f²]` (Parseval, Fact 2.1).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.coeffs.iter().map(|c| c * c).sum()
    }

    /// Weight at exactly level `r`: `Σ_{|S|=r} f̂(S)²`.
    #[must_use]
    pub fn level_weight(&self, r: u32) -> f64 {
        self.coeffs
            .iter()
            .enumerate()
            .filter(|(s, _)| crate::character::mask(*s).count_ones() == r)
            .map(|(_, c)| c * c)
            .sum()
    }

    /// Weight at levels `1..=r` (the quantity bounded by the KKL level
    /// inequality, Lemma 5.4, as applied in the paper).
    #[must_use]
    pub fn low_level_weight(&self, r: u32) -> f64 {
        self.coeffs
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(s, _)| crate::character::mask(*s).count_ones() <= r)
            .map(|(_, c)| c * c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::BooleanFunction;
    use rand::SeedableRng;

    #[test]
    fn mean_and_variance_match_direct_computation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let f = BooleanFunction::random(7, 0.4, &mut rng);
        let spec = f.spectrum();
        assert!((spec.mean() - f.mean()).abs() < 1e-12);
        assert!((spec.variance() - f.variance()).abs() < 1e-12);
    }

    #[test]
    fn parseval_for_boolean_functions() {
        // For 0/1-valued f, E[f^2] = E[f] = mean.
        let f = BooleanFunction::majority(5);
        let spec = f.spectrum();
        assert!((spec.total_weight() - spec.mean()).abs() < 1e-12);
    }

    #[test]
    fn dictator_spectrum() {
        // dictator_i = (1 - x_i)/2: coefficient 1/2 on empty, -1/2 on {i}.
        let spec = BooleanFunction::dictator(4, 1).spectrum();
        assert!((spec.coefficient(0) - 0.5).abs() < 1e-12);
        assert!((spec.coefficient(0b0010) + 0.5).abs() < 1e-12);
        assert!((spec.level_weight(1) - 0.25).abs() < 1e-12);
        assert!(spec.level_weight(2).abs() < 1e-12);
    }

    #[test]
    fn and_spectrum_is_flat() {
        // AND_m has |coefficient| = 2^{-m} on every subset.
        let m = 4;
        let spec = BooleanFunction::and_all(m).spectrum();
        for s in 0..(1u32 << m) {
            assert!(
                (spec.coefficient(s).abs() - 1.0 / 16.0).abs() < 1e-12,
                "s={s}"
            );
        }
    }

    #[test]
    fn level_weights_sum_to_total() {
        let f = BooleanFunction::threshold(6, 2);
        let spec = f.spectrum();
        let by_level: f64 = (0..=6).map(|r| spec.level_weight(r)).sum();
        assert!((by_level - spec.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn low_level_weight_excludes_mean() {
        let f = BooleanFunction::majority(3);
        let spec = f.spectrum();
        let m = spec.num_vars();
        assert!(
            (spec.low_level_weight(m) - spec.variance()).abs() < 1e-12,
            "all non-empty levels = variance"
        );
    }

    #[test]
    fn majority_has_no_even_level_weight() {
        // Majority of odd arity is an odd function (after centering):
        // pm1-majority has weight only on odd levels; the 0/1 version keeps
        // that structure apart from the empty coefficient.
        let spec = BooleanFunction::majority(5).spectrum();
        assert!(spec.level_weight(2) < 1e-12);
        assert!(spec.level_weight(4) < 1e-12);
        assert!(spec.level_weight(1) > 0.0);
    }
}
