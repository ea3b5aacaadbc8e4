//! Characters of the Boolean cube and subset iteration utilities.

/// The character `χ_S(x) = Π_{i∈S} x_i ∈ {-1, +1}`.
///
/// Both `S` and `x` are bitmasks (bit `i` of `x` set ⇔ `x_i = -1`).
#[must_use]
pub fn chi(s: u32, x: u32) -> i8 {
    if (s & x).count_ones().is_multiple_of(2) {
        1
    } else {
        -1
    }
}

/// Converts a coefficient/cube-point index (bounded by `2^num_vars`,
/// and every function in this crate keeps `num_vars` far below 32)
/// into the `u32` bitmask form the character functions take.
///
/// # Panics
///
/// Panics if `index` does not fit in a `u32`.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "documented panic: cube indices are below 2^num_vars, far below 2^32"
)]
pub fn mask(index: usize) -> u32 {
    u32::try_from(index).expect("cube index fits a u32 bitmask")
}

/// Converts a small non-negative subset size into the `i32` exponent
/// that `f64::powi` takes.
///
/// # Panics
///
/// Panics if `exponent` exceeds `i32::MAX`.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "documented panic: subset sizes are far below i32::MAX"
)]
pub fn powi_exp(exponent: u64) -> i32 {
    i32::try_from(exponent).expect("exponent fits an i32")
}

/// Iterator over all subsets of `{0,..,n-1}` of a fixed size, as bitmasks
/// in increasing numeric order (Gosper's hack).
///
/// # Example
///
/// ```
/// use dut_fourier::character::subsets_of_size;
///
/// let pairs: Vec<u64> = subsets_of_size(4, 2).collect();
/// assert_eq!(pairs, vec![0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]);
/// ```
///
/// # Panics
///
/// Panics if `n > 63`.
pub fn subsets_of_size(n: u32, size: u32) -> SubsetsOfSize {
    assert!(n <= 63, "subset iteration supports at most 63 elements");
    let current = if size > n {
        None
    } else if size == 0 {
        Some(0)
    } else {
        Some((1u64 << size) - 1)
    };
    SubsetsOfSize {
        limit: 1u64 << n,
        current,
    }
}

/// Iterator returned by [`subsets_of_size`].
#[derive(Debug, Clone)]
pub struct SubsetsOfSize {
    limit: u64,
    current: Option<u64>,
}

impl Iterator for SubsetsOfSize {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let v = self.current?;
        if v >= self.limit {
            self.current = None;
            return None;
        }
        // Gosper's hack: next mask with the same popcount.
        self.current = if v == 0 {
            None
        } else {
            let c = v & v.wrapping_neg();
            let r = v + c;
            Some((((r ^ v) >> 2) / c) | r)
        };
        Some(v)
    }
}

/// Binomial coefficient `C(n, k)` as `u128`, exact for the sizes used here.
///
/// # Panics
///
/// Panics on internal overflow (beyond the sizes any experiment uses).
#[must_use]
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    #[expect(
        clippy::expect_used,
        reason = "documented panic: u128 overflow lies beyond the sizes any experiment uses"
    )]
    for i in 0..k {
        result = result
            .checked_mul(u128::from(n - i))
            .expect("binomial overflow");
        result /= u128::from(i + 1);
    }
    result
}

/// Double factorial `n!! = n·(n−2)·(n−4)···`, with `0!! = (−1)!! = 1`.
#[must_use]
pub fn double_factorial(n: u64) -> u128 {
    let mut result: u128 = 1;
    let mut i = n;
    #[expect(
        clippy::expect_used,
        reason = "n!! overflows u128 only beyond the sizes any experiment uses"
    )]
    while i >= 2 {
        result = result
            .checked_mul(u128::from(i))
            .expect("double factorial overflow");
        i -= 2;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_of_empty_set_is_one() {
        for x in 0..16 {
            assert_eq!(chi(0, x), 1);
        }
    }

    #[test]
    fn chi_multiplicative_in_x() {
        // chi_S(x XOR y) = chi_S(x) * chi_S(y)
        for s in 0..8u32 {
            for x in 0..8u32 {
                for y in 0..8u32 {
                    assert_eq!(chi(s, x ^ y), chi(s, x) * chi(s, y));
                }
            }
        }
    }

    #[test]
    fn chi_orthogonality() {
        // E_x[chi_S(x) chi_T(x)] = 1 iff S == T.
        let n = 4u32;
        for s in 0..(1u32 << n) {
            for t in 0..(1u32 << n) {
                let sum: i32 = (0..(1u32 << n))
                    .map(|x| i32::from(chi(s, x)) * i32::from(chi(t, x)))
                    .sum();
                if s == t {
                    assert_eq!(sum, 16);
                } else {
                    assert_eq!(sum, 0);
                }
            }
        }
    }

    #[test]
    fn subsets_of_size_counts_binomially() {
        for n in 0..=8u32 {
            for k in 0..=n {
                let count = subsets_of_size(n, k).count() as u128;
                assert_eq!(count, binomial(u64::from(n), u64::from(k)), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn subsets_of_size_zero_is_empty_set() {
        let subsets: Vec<u64> = subsets_of_size(5, 0).collect();
        assert_eq!(subsets, vec![0]);
    }

    #[test]
    fn subsets_of_size_too_large_is_empty() {
        assert_eq!(subsets_of_size(3, 4).count(), 0);
    }

    #[test]
    fn subsets_have_right_popcount_and_order() {
        let subsets: Vec<u64> = subsets_of_size(6, 3).collect();
        assert!(subsets.iter().all(|s| s.count_ones() == 3));
        assert!(subsets.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(60, 30), 118_264_581_564_861_424);
    }

    #[test]
    fn double_factorial_values() {
        assert_eq!(double_factorial(0), 1);
        assert_eq!(double_factorial(1), 1);
        assert_eq!(double_factorial(5), 15);
        assert_eq!(double_factorial(6), 48);
        assert_eq!(double_factorial(7), 105);
    }

    #[test]
    fn pairings_count_is_double_factorial() {
        // The number of perfect matchings of 2r points is (2r-1)!!.
        // Check recursively: m(2r) = (2r-1) * m(2r-2).
        let mut expected: u128 = 1;
        for r in 1..=6u64 {
            expected *= u128::from(2 * r - 1);
            assert_eq!(double_factorial(2 * r - 1), expected);
        }
    }
}
