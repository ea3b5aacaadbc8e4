use crate::spectrum::Spectrum;
use crate::transform;
use rand::Rng;

/// A real-valued function on the Boolean cube `{-1,1}^m`, stored densely.
///
/// Points are encoded as bitmasks: bit `i` set means `x_i = -1`. Most
/// constructors build `{0,1}`-valued functions (the paper's player
/// functions `G`); arbitrary real values are allowed for densities.
///
/// # Example
///
/// ```
/// use dut_fourier::BooleanFunction;
///
/// let f = BooleanFunction::dictator(4, 0);
/// // dictator on coordinate 0: outputs 1 iff x_0 = -1.
/// assert_eq!(f.eval(0b0001), 1.0);
/// assert_eq!(f.eval(0b0000), 0.0);
/// assert!((f.mean() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BooleanFunction {
    num_vars: u32,
    values: Vec<f64>,
}

impl BooleanFunction {
    /// Maximum supported number of variables (dense representation).
    pub const MAX_VARS: u32 = 26;

    /// Creates a function from an explicit value table of length `2^m`.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two matching `1..=MAX_VARS`
    /// variables.
    #[must_use]
    pub fn from_values(values: Vec<f64>) -> Self {
        let len = values.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "table length must be a power of two >= 2"
        );
        let num_vars = len.trailing_zeros();
        assert!(num_vars <= Self::MAX_VARS, "too many variables: {num_vars}");
        Self { num_vars, values }
    }

    /// Creates a function by evaluating a closure on every point.
    ///
    /// The closure receives the point bitmask (bit `i` set ⇔ `x_i = -1`).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` is 0 or exceeds [`Self::MAX_VARS`].
    #[must_use]
    pub fn from_fn<F: FnMut(u32) -> f64>(num_vars: u32, f: F) -> Self {
        assert!(
            (1..=Self::MAX_VARS).contains(&num_vars),
            "num_vars out of range"
        );
        let values = (0..1u32 << num_vars).map(f).collect();
        Self { num_vars, values }
    }

    /// The constant function with value `c`.
    #[must_use]
    pub fn constant(num_vars: u32, c: f64) -> Self {
        Self::from_fn(num_vars, |_| c)
    }

    /// Dictator: `1` iff `x_i = -1`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars`.
    #[must_use]
    pub fn dictator(num_vars: u32, i: u32) -> Self {
        assert!(i < num_vars, "coordinate {i} out of range");
        Self::from_fn(num_vars, |x| f64::from((x >> i) & 1))
    }

    /// Parity indicator of subset `s`: `1` iff `χ_S(x) = -1`
    /// (an odd number of coordinates in `S` are `-1`).
    ///
    /// # Panics
    ///
    /// Panics if `s` has bits outside the variable range.
    #[must_use]
    pub fn parity(num_vars: u32, s: u32) -> Self {
        assert!(u64::from(s) < (1u64 << num_vars), "subset out of range");
        Self::from_fn(num_vars, |x| f64::from((x & s).count_ones() % 2))
    }

    /// AND: `1` iff every coordinate is `-1` (all bits set). A maximally
    /// biased function with mean `2^{-m}`.
    #[must_use]
    pub fn and_all(num_vars: u32) -> Self {
        let full = if num_vars == 32 {
            u32::MAX
        } else {
            (1u32 << num_vars) - 1
        };
        Self::from_fn(num_vars, |x| f64::from(x == full))
    }

    /// OR: `1` iff at least one coordinate is `-1`.
    #[must_use]
    pub fn or_any(num_vars: u32) -> Self {
        Self::from_fn(num_vars, |x| f64::from(x != 0))
    }

    /// Majority: `1` iff more than half of the coordinates are `-1`
    /// (ties, possible for even `m`, give `0`).
    #[must_use]
    pub fn majority(num_vars: u32) -> Self {
        Self::from_fn(num_vars, |x| f64::from(2 * x.count_ones() > num_vars))
    }

    /// Threshold: `1` iff at least `t` coordinates are `-1`.
    #[must_use]
    pub fn threshold(num_vars: u32, t: u32) -> Self {
        Self::from_fn(num_vars, |x| f64::from(x.count_ones() >= t))
    }

    /// A random `{0,1}`-valued function where each point is `1`
    /// independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`.
    pub fn random<R: Rng + ?Sized>(num_vars: u32, p: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        Self::from_fn(num_vars, |_| f64::from(rng.random::<f64>() < p))
    }

    /// Number of variables `m`.
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Size of the domain, `2^m`.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.values.len()
    }

    /// Evaluates at a point bitmask.
    ///
    /// # Panics
    ///
    /// Panics if the mask has bits outside the variable range.
    #[must_use]
    pub fn eval(&self, x: u32) -> f64 {
        self.values[x as usize]
    }

    /// The value table.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean `E_x[f(x)]` over the uniform distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Variance `E[f²] − E[f]²`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        let mean_sq = self.values.iter().map(|v| v * v).sum::<f64>() / self.values.len() as f64;
        (mean_sq - mean * mean).max(0.0)
    }

    /// True if every value is `0.0` or `1.0`.
    #[must_use]
    #[allow(
        clippy::float_cmp,
        reason = "membership in {0.0, 1.0} is an exact predicate"
    )]
    pub fn is_boolean(&self) -> bool {
        // dut-lint: allow(float-eq): membership in {0.0, 1.0} is an exact predicate — both values are representable and an epsilon band would accept non-boolean functions
        self.values.iter().all(|&v| v == 0.0 || v == 1.0)
    }

    /// Pointwise complement `1 − f` (meaningful for `{0,1}`-valued `f`).
    #[must_use]
    pub fn complement(&self) -> Self {
        Self {
            num_vars: self.num_vars,
            values: self.values.iter().map(|v| 1.0 - v).collect(),
        }
    }

    /// Computes the full Fourier spectrum via the fast Walsh–Hadamard
    /// transform (O(m·2^m)).
    #[must_use]
    pub fn spectrum(&self) -> Spectrum {
        let mut coeffs = self.values.clone();
        transform::walsh_hadamard(&mut coeffs);
        let scale = 1.0 / self.values.len() as f64;
        for c in &mut coeffs {
            *c *= scale;
        }
        Spectrum::from_coefficients(coeffs)
    }

    /// Single Fourier coefficient `f̂(S) = E_x[f(x)·χ_S(x)]` computed
    /// directly (O(2^m); use [`Self::spectrum`] for many coefficients).
    #[must_use]
    pub fn coefficient(&self, s: u32) -> f64 {
        let mut acc = 0.0;
        for (x, &v) in self.values.iter().enumerate() {
            acc += v * f64::from(crate::character::chi(s, crate::character::mask(x)));
        }
        acc / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dictator_mean_and_variance() {
        let f = BooleanFunction::dictator(5, 2);
        assert!((f.mean() - 0.5).abs() < 1e-15);
        assert!((f.variance() - 0.25).abs() < 1e-15);
        assert!(f.is_boolean());
    }

    #[test]
    fn and_is_maximally_biased() {
        let f = BooleanFunction::and_all(4);
        assert!((f.mean() - 1.0 / 16.0).abs() < 1e-15);
        assert_eq!(f.eval(0b1111), 1.0);
        assert_eq!(f.eval(0b0111), 0.0);
    }

    #[test]
    fn or_complements_and() {
        // OR(x) = 1 - AND(-x); check means only.
        let f = BooleanFunction::or_any(4);
        assert!((f.mean() - 15.0 / 16.0).abs() < 1e-15);
    }

    #[test]
    fn majority_of_three() {
        let f = BooleanFunction::majority(3);
        assert_eq!(f.eval(0b000), 0.0);
        assert_eq!(f.eval(0b011), 1.0);
        assert_eq!(f.eval(0b111), 1.0);
        assert!((f.mean() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn majority_even_ties_give_zero() {
        let f = BooleanFunction::majority(4);
        assert_eq!(f.eval(0b0011), 0.0);
        assert_eq!(f.eval(0b0111), 1.0);
    }

    #[test]
    fn threshold_matches_count() {
        let f = BooleanFunction::threshold(4, 2);
        assert_eq!(f.eval(0b0001), 0.0);
        assert_eq!(f.eval(0b0101), 1.0);
    }

    #[test]
    fn parity_indicator() {
        let f = BooleanFunction::parity(3, 0b101);
        assert_eq!(f.eval(0b001), 1.0); // one bit of S set
        assert_eq!(f.eval(0b101), 0.0); // two bits set
        assert_eq!(f.eval(0b010), 0.0); // no bits of S set
    }

    #[test]
    fn complement_flips_mean() {
        let f = BooleanFunction::and_all(3);
        let g = f.complement();
        assert!((f.mean() + g.mean() - 1.0).abs() < 1e-15);
        assert!((f.variance() - g.variance()).abs() < 1e-15);
    }

    #[test]
    fn random_function_mean_near_p() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let f = BooleanFunction::random(12, 0.3, &mut rng);
        assert!((f.mean() - 0.3).abs() < 0.03);
        assert!(f.is_boolean());
    }

    #[test]
    fn coefficient_agrees_with_spectrum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let f = BooleanFunction::random(6, 0.5, &mut rng);
        let spec = f.spectrum();
        for s in 0..(1u32 << 6) {
            assert!((f.coefficient(s) - spec.coefficient(s)).abs() < 1e-12);
        }
    }

    #[test]
    fn from_fn_and_from_values_agree() {
        let a = BooleanFunction::from_fn(3, |x| f64::from(x.count_ones()));
        let b =
            BooleanFunction::from_values((0..8u32).map(|x| f64::from(x.count_ones())).collect());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_values_rejects_non_power_of_two() {
        let _ = BooleanFunction::from_values(vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dictator_rejects_bad_coordinate() {
        let _ = BooleanFunction::dictator(3, 3);
    }
}
