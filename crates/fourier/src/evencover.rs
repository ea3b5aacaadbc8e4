//! Even-cover combinatorics from Section 5 of the paper.
//!
//! For a tuple `x = (x_1, .., x_q)` of cube points and a subset
//! `S ⊆ [q]`, the multiset `x_S = {x_j}_{j∈S}` is **evenly covered** when
//! every cube point appears an even number of times in it. These are
//! exactly the `(x, S)` pairs that survive the expectation over the random
//! perturbation `z` (the "odd cancelation"), so the lower-bound analysis
//! reduces to counting them:
//!
//! * `X_S = {x : x_S evenly covered}` — Proposition 5.2 bounds `|X_S|` by
//!   `(|S|−1)!! · (n/2)^{q−|S|/2}`; [`x_s_count_exact`] computes it
//!   exactly via even-word counting.
//! * `a_r(x) = #{S : |S| = 2r, x_S evenly covered}` — Lemma 5.5 bounds its
//!   moments; [`a_r_count`] computes it exactly and
//!   [`a_r_moment_monte_carlo`] estimates `E_x[a_r(x)^m]`.

use crate::character::{binomial, double_factorial, subsets_of_size};
use rand::Rng;
use std::collections::BTreeMap;

/// Tests whether the multiset `{xs[j] : j ∈ subset}` is evenly covered
/// (every value appears an even number of times).
///
/// `subset` is a bitmask over positions of `xs`.
///
/// # Panics
///
/// Panics if `subset` selects positions beyond `xs.len()`.
#[must_use]
pub fn is_evenly_covered(xs: &[u32], subset: u64) -> bool {
    assert!(
        subset < (1u64 << xs.len()) || xs.len() >= 64,
        "subset selects positions beyond the tuple"
    );
    let mut parity: BTreeMap<u32, bool> = BTreeMap::new();
    let mut s = subset;
    while s != 0 {
        let j = s.trailing_zeros() as usize;
        s &= s - 1;
        *parity.entry(xs[j]).or_insert(false) ^= true;
    }
    parity.values().all(|&odd| !odd)
}

/// Number of words of length `len` over an alphabet of size
/// `alphabet_size` in which every letter appears an even number of times.
///
/// Computed exactly from the generating function `cosh(t)^D`:
/// `count = (1/2^D) · Σ_{j=0}^{D} C(D,j) · (D−2j)^{len}` — zero for odd
/// `len`.
///
/// # Panics
///
/// Panics if `alphabet_size == 0`, or if `D^len` would overflow `i128`
/// (the computation needs `len·log₂(D) ≤ 126`).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "the sum counts even words, so the final quotient is non-negative"
)]
pub fn even_word_count(alphabet_size: u64, len: u64) -> u128 {
    assert!(alphabet_size >= 1, "alphabet must be non-empty");
    assert!(
        alphabet_size <= 64
            && len <= 24
            && len as f64 * (alphabet_size.max(2) as f64).log2() <= 126.0,
        "even_word_count needs D <= 64, len <= 24 and len*log2(D) <= 126"
    );
    if len % 2 == 1 {
        return 0;
    }
    if len == 0 {
        return 1;
    }
    let d = alphabet_size as i128;
    let mut total: i128 = 0;
    #[expect(
        clippy::expect_used,
        reason = "documented panic: the asserted len·log₂(D) <= 126 keeps the signed sum inside i128"
    )]
    for j in 0..=alphabet_size {
        let base = d - 2 * j as i128;
        #[expect(
            clippy::expect_used,
            reason = "the asserts bound len <= 24 and len·log₂(D) <= 126, so len fits a u32 and |D − 2j|^len fits an i128"
        )]
        let pow = base
            .checked_pow(u32::try_from(len).expect("len is asserted <= 24"))
            .expect("even_word_count overflow");
        #[expect(clippy::expect_used, reason = "D <= 64, so C(D, j) fits an i128")]
        let coef = i128::try_from(binomial(alphabet_size, j)).expect("binomial fits i128");
        total = total
            .checked_add(coef * pow)
            .expect("even_word_count overflow");
    }
    // Divide by 2^D; the sum is always divisible.
    let denom: i128 = 1i128 << alphabet_size.min(126);
    debug_assert_eq!(total % denom, 0, "even word sum must be divisible by 2^D");
    u128::try_from(total / denom).expect("count is non-negative")
}

/// Exact `|X_S|` for `|S| = subset_size`: the number of tuples
/// `x ∈ D^q` whose restriction to `S` is evenly covered, where
/// `D = cube_size`. Depends only on `|S|` (Proposition 5.2 (1)):
/// positions outside `S` are free, positions inside form an even word.
///
/// # Panics
///
/// Panics if `subset_size > q` or on overflow (guarded domain sizes).
#[must_use]
pub fn x_s_count_exact(cube_size: u64, q: u64, subset_size: u64) -> u128 {
    assert!(subset_size <= q, "subset larger than tuple");
    let free = q - subset_size;
    let even = even_word_count(cube_size, subset_size);
    let mut result = even;
    #[expect(
        clippy::expect_used,
        reason = "documented panic on overflow, beyond the guarded domain sizes"
    )]
    for _ in 0..free {
        result = result
            .checked_mul(u128::from(cube_size))
            .expect("x_s_count overflow");
    }
    result
}

/// Proposition 5.2 (2): the upper bound
/// `|X_S| ≤ (2r−1)!! · (n/2)^{q−r}` for `|S| = 2r` (with `n/2` the cube
/// size), as `f64` for comparisons.
#[must_use]
pub fn x_s_count_bound(cube_size: u64, q: u64, subset_size: u64) -> f64 {
    if subset_size % 2 == 1 {
        return 0.0;
    }
    let r = subset_size / 2;
    double_factorial(subset_size.saturating_sub(1)) as f64
        * (cube_size as f64).powi(crate::character::powi_exp(q - r))
}

/// `a_r(x)`: the number of subsets `S` of size `2r` for which `x_S` is
/// evenly covered (exact enumeration over all `C(q, 2r)` subsets).
///
/// # Panics
///
/// Panics if `xs.len() > 24` (enumeration guard) or `2r > xs.len()`.
#[must_use]
pub fn a_r_count(xs: &[u32], r: u32) -> u64 {
    let q = crate::character::mask(xs.len());
    assert!(q <= 24, "a_r_count enumeration limited to q <= 24");
    assert!(2 * r <= q, "subset size 2r exceeds q");
    subsets_of_size(q, 2 * r)
        .filter(|&s| is_evenly_covered(xs, s))
        .count() as u64
}

/// Monte-Carlo estimate of the moment `E_x[a_r(x)^m]` for `x` uniform on
/// `D^q` (`D = cube_size`), with the standard error of the estimate.
///
/// Returns `(estimate, standard_error)`.
///
/// # Panics
///
/// Panics if `trials == 0` or the enumeration guards of [`a_r_count`]
/// trip.
pub fn a_r_moment_monte_carlo<R: Rng + ?Sized>(
    cube_size: u32,
    q: u32,
    r: u32,
    m: u32,
    trials: u32,
    rng: &mut R,
) -> (f64, f64) {
    assert!(trials > 0, "need at least one trial");
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..trials {
        let xs: Vec<u32> = (0..q).map(|_| rng.random_range(0..cube_size)).collect();
        let a = a_r_count(&xs, r) as f64;
        let v = a.powi(m as i32);
        sum += v;
        sum_sq += v * v;
    }
    let mean = sum / f64::from(trials);
    let var = (sum_sq / f64::from(trials) - mean * mean).max(0.0);
    (mean, (var / f64::from(trials)).sqrt())
}

/// The Lemma 5.5 moment bound on `E_x[a_r(x)^m]`:
/// `(4m)^{2mr} · (q/√(n/2))^{2mr}` when `q ≥ √(n/2)`, and
/// `(4m)^{2mr} · (q/√(n/2))^{2r}` when `q < √(n/2)`.
#[must_use]
pub fn a_r_moment_bound(cube_size: u64, q: u64, r: u32, m: u32) -> f64 {
    let ratio = q as f64 / (cube_size as f64).sqrt();
    let factor = (4.0 * f64::from(m)).powi((2 * m * r) as i32);
    if ratio >= 1.0 {
        factor * ratio.powi((2 * m * r) as i32)
    } else {
        factor * ratio.powi(2 * r as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `E_x[a_r(x)] = C(q, 2r) · |X_{2r}| / D^q`, the interchange of
    /// summation used in Section 5.1.
    fn a_r_mean(d: u64, q: u64, r: u64) -> f64 {
        binomial(q, 2 * r) as f64 * x_s_count_exact(d, q, 2 * r) as f64 / (d as f64).powi(q as i32)
    }

    #[test]
    fn empty_subset_is_evenly_covered() {
        assert!(is_evenly_covered(&[1, 2, 3], 0));
    }

    #[test]
    fn pair_covered_iff_equal() {
        assert!(is_evenly_covered(&[5, 5], 0b11));
        assert!(!is_evenly_covered(&[5, 6], 0b11));
    }

    #[test]
    fn four_elements_two_pairs() {
        let xs = [1, 2, 2, 1];
        assert!(is_evenly_covered(&xs, 0b1111));
        assert!(is_evenly_covered(&xs, 0b1001)); // the two 1s
        assert!(is_evenly_covered(&xs, 0b0110)); // the two 2s
        assert!(!is_evenly_covered(&xs, 0b0011));
        assert!(!is_evenly_covered(&xs, 0b0111));
    }

    #[test]
    fn quadruple_repeat_is_even() {
        assert!(is_evenly_covered(&[7, 7, 7, 7], 0b1111));
        assert!(!is_evenly_covered(&[7, 7, 7], 0b0111));
    }

    #[test]
    fn even_word_count_brute_force() {
        // Brute force all words of length L over alphabet D.
        for d in 1..=4u64 {
            for len in 0..=6u64 {
                let mut count = 0u128;
                let total = (d as u128).pow(len as u32);
                for code in 0..total {
                    let mut word = Vec::new();
                    let mut c = code;
                    for _ in 0..len {
                        word.push((c % d as u128) as u32);
                        c /= d as u128;
                    }
                    let all = if word.is_empty() {
                        0
                    } else {
                        (1u64 << word.len()) - 1
                    };
                    if is_evenly_covered(&word, all) {
                        count += 1;
                    }
                }
                assert_eq!(even_word_count(d, len), count, "D={d} len={len}");
            }
        }
    }

    #[test]
    fn even_word_count_odd_length_is_zero() {
        assert_eq!(even_word_count(8, 3), 0);
        assert_eq!(even_word_count(8, 5), 0);
    }

    #[test]
    fn even_word_count_length_two_is_alphabet() {
        for d in 1..=32u64 {
            assert_eq!(even_word_count(d, 2), u128::from(d));
        }
    }

    #[test]
    fn x_s_count_exact_brute_force() {
        // q=3, |S|=2, D=2: free position contributes factor D.
        assert_eq!(x_s_count_exact(2, 3, 2), 2 * 2);
        // q=2, |S|=2, D=4: pairs (a,a): 4.
        assert_eq!(x_s_count_exact(4, 2, 2), 4);
        // |S|=0: everything.
        assert_eq!(x_s_count_exact(3, 2, 0), 9);
    }

    #[test]
    fn proposition_5_2_bound_holds() {
        // |X_{2r}| <= (2r-1)!! (n/2)^{q-r} across a parameter grid.
        for d in [2u64, 4, 8, 16] {
            for q in 1..=8u64 {
                for size in (0..=q).step_by(2) {
                    let exact = x_s_count_exact(d, q, size) as f64;
                    let bound = x_s_count_bound(d, q, size);
                    assert!(
                        exact <= bound * (1.0 + 1e-12),
                        "D={d} q={q} |S|={size}: exact={exact} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn proposition_5_2_odd_sizes_are_empty() {
        for d in [2u64, 8] {
            for q in 1..=6u64 {
                for size in (1..=q).step_by(2) {
                    // Odd subset size: no x is evenly covered.
                    assert_eq!(even_word_count(d, size), 0, "D={d} size={size}");
                }
            }
        }
    }

    #[test]
    fn a_r_count_small_example() {
        // xs = [3,3,5,5]: subsets of size 2 evenly covered: {0,1}, {2,3}.
        let xs = [3, 3, 5, 5];
        assert_eq!(a_r_count(&xs, 1), 2);
        // size 4: the whole thing.
        assert_eq!(a_r_count(&xs, 2), 1);
    }

    #[test]
    fn a_r_count_no_repeats_is_zero() {
        let xs = [1, 2, 3, 4, 5];
        assert_eq!(a_r_count(&xs, 1), 0);
        assert_eq!(a_r_count(&xs, 2), 0);
    }

    #[test]
    fn a_r_mean_interchange_matches_enumeration() {
        // Enumerate all x in D^q and average a_r(x).
        let d = 3u32;
        let q = 4u32;
        let r = 1u32;
        let total = (d as u64).pow(q);
        let mut sum = 0u64;
        for code in 0..total {
            let mut xs = Vec::new();
            let mut c = code;
            for _ in 0..q {
                xs.push((c % d as u64) as u32);
                c /= d as u64;
            }
            sum += a_r_count(&xs, r);
        }
        let mean = sum as f64 / total as f64;
        let predicted = a_r_mean(d.into(), q.into(), r.into());
        assert!(
            (mean - predicted).abs() < 1e-12,
            "mean={mean} predicted={predicted}"
        );
    }

    #[test]
    fn a_r_mean_bounded_by_q2_over_n_power() {
        // Section 5.1: E[a_r] <= (q^2/(n/2))^r -- paper's moment estimate
        // (stated with n the universe; cube size is n/2).
        for d in [4u64, 8, 16] {
            for q in 2..=8u64 {
                for r in 1..=(q / 2) {
                    let mean = a_r_mean(d, q, r);
                    let bound = ((q * q) as f64 / d as f64).powi(r as i32);
                    assert!(
                        mean <= bound * (1.0 + 1e-9),
                        "D={d} q={q} r={r}: mean={mean} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma_5_5_moment_bound_holds_exhaustively() {
        // Exhaustive over D^q for small cases, all m up to 3.
        for d in [2u32, 4] {
            for q in 2..=5u32 {
                let total = (d as u64).pow(q);
                for r in 1..=(q / 2) {
                    for m in 1..=3u32 {
                        let mut sum = 0.0;
                        for code in 0..total {
                            let mut xs = Vec::new();
                            let mut c = code;
                            for _ in 0..q {
                                xs.push((c % d as u64) as u32);
                                c /= d as u64;
                            }
                            sum += (a_r_count(&xs, r) as f64).powi(m as i32);
                        }
                        let moment = sum / total as f64;
                        let bound = a_r_moment_bound(d.into(), q.into(), r, m);
                        assert!(
                            moment <= bound * (1.0 + 1e-9),
                            "D={d} q={q} r={r} m={m}: moment={moment} bound={bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "len*log2(D)")]
    fn even_word_count_guards_i128_overflow() {
        // 64^24 needs 144 bits: must refuse, not wrap.
        let _ = even_word_count(64, 24);
    }

    #[test]
    fn monte_carlo_moment_agrees_with_exact_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (est, se) = a_r_moment_monte_carlo(8, 6, 1, 1, 4000, &mut rng);
        let exact = a_r_mean(8, 6, 1);
        assert!(
            (est - exact).abs() < 5.0 * se + 1e-9,
            "est={est} exact={exact} se={se}"
        );
    }
}
