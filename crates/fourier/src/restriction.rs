//! Restrictions of Boolean functions.
//!
//! The paper's proofs constantly fix the cube part `x` of the samples
//! and study the restricted function `G_x(s) = G(x, s)` of the signs
//! alone (Lemma 4.1 onward). This module provides that operation in
//! general: fix any subset of coordinates to constants and obtain the
//! function on the remaining ones.

use crate::BooleanFunction;

/// A partial assignment: which coordinates are fixed, and to what.
///
/// Bit `i` of `mask` set means coordinate `i` is fixed; bit `i` of
/// `values` (only meaningful under the mask) gives the fixed value
/// (`1` ⇔ `x_i = -1`, matching the crate's encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Restriction {
    mask: u32,
    values: u32,
}

impl Restriction {
    /// Creates a restriction fixing the coordinates in `mask` to
    /// `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` has bits outside `mask`.
    #[must_use]
    pub fn new(mask: u32, values: u32) -> Self {
        assert_eq!(values & !mask, 0, "values must lie within the fixed mask");
        Self { mask, values }
    }

    /// The fixed-coordinate mask.
    #[must_use]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// The fixed values.
    #[must_use]
    pub fn values(&self) -> u32 {
        self.values
    }
}

/// Applies a restriction: returns the function of the **free**
/// coordinates (re-indexed in increasing order of their original
/// positions).
///
/// # Panics
///
/// Panics if the restriction fixes every coordinate (the result would
/// have zero variables; read the point value with
/// [`BooleanFunction::eval`] instead) or references coordinates beyond
/// the function's arity.
#[must_use]
pub fn restrict(f: &BooleanFunction, restriction: Restriction) -> BooleanFunction {
    let m = f.num_vars();
    let full = if m == 32 { u32::MAX } else { (1u32 << m) - 1 };
    assert_eq!(
        restriction.mask() & !full,
        0,
        "restriction touches coordinates beyond the function"
    );
    let free_mask = full & !restriction.mask();
    let free_count = free_mask.count_ones();
    assert!(free_count > 0, "restriction fixes every coordinate");
    // Positions of free coordinates, in increasing order.
    let mut free_positions = Vec::with_capacity(free_count as usize);
    for i in 0..m {
        if (free_mask >> i) & 1 == 1 {
            free_positions.push(i);
        }
    }
    let values = (0..1u32 << free_count)
        .map(|packed| {
            let mut point = restriction.values();
            for (j, &pos) in free_positions.iter().enumerate() {
                if (packed >> j) & 1 == 1 {
                    point |= 1 << pos;
                }
            }
            f.eval(point)
        })
        .collect();
    BooleanFunction::from_values(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn restricting_a_dictator_to_its_variable_gives_constant() {
        let f = BooleanFunction::dictator(4, 2);
        let fixed_neg = restrict(&f, Restriction::new(0b0100, 0b0100));
        assert!(fixed_neg.values().iter().all(|&v| v == 1.0));
        let fixed_pos = restrict(&f, Restriction::new(0b0100, 0));
        assert!(fixed_pos.values().iter().all(|&v| v == 0.0));
        assert_eq!(fixed_pos.num_vars(), 3);
    }

    #[test]
    fn restricting_other_variables_leaves_dictator() {
        let f = BooleanFunction::dictator(4, 0);
        let g = restrict(&f, Restriction::new(0b1100, 0b0100));
        // Free coordinates are {0, 1}; the dictator is now coordinate 0.
        assert_eq!(g.num_vars(), 2);
        assert_eq!(g.eval(0b01), 1.0);
        assert_eq!(g.eval(0b10), 0.0);
    }

    #[test]
    fn and_restricted_to_partial_ones_is_smaller_and() {
        let f = BooleanFunction::and_all(4);
        let g = restrict(&f, Restriction::new(0b0011, 0b0011));
        assert_eq!(g.num_vars(), 2);
        // g is AND of the remaining two coordinates.
        assert_eq!(g.eval(0b11), 1.0);
        assert_eq!(g.eval(0b01), 0.0);
    }

    #[test]
    fn and_restricted_to_a_zero_is_constant_zero() {
        let f = BooleanFunction::and_all(3);
        let g = restrict(&f, Restriction::new(0b001, 0));
        assert!(g.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn restricted_means_average_to_total_mean() {
        // E[f] = E over the fixed value of E[f | fixed].
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let f = BooleanFunction::random(6, 0.4, &mut rng);
        for i in 0..6u32 {
            let mask = 1u32 << i;
            let a = restrict(&f, Restriction::new(mask, 0)).mean();
            let b = restrict(&f, Restriction::new(mask, mask)).mean();
            assert!(((a + b) / 2.0 - f.mean()).abs() < 1e-12, "coordinate {i}");
        }
    }

    #[test]
    fn empty_restriction_is_identity() {
        let f = BooleanFunction::majority(5);
        let g = restrict(&f, Restriction::new(0, 0));
        assert_eq!(g, f);
    }

    #[test]
    fn restriction_paper_usage_g_x_of_s() {
        // The paper's G_x: fix the cube parts, keep the sign parts.
        // Layout (ell=1, q=2): bits [x1, s1, x2, s2].
        let g = BooleanFunction::from_fn(4, |w| {
            // Accept iff the two (x, s) samples are NOT equal.
            let sample1 = w & 0b0011;
            let sample2 = (w >> 2) & 0b0011;
            f64::from(sample1 != sample2)
        });
        // Fix x1 = x2 = 0: collision iff s1 == s2.
        let gx = restrict(&g, Restriction::new(0b0101, 0));
        assert_eq!(gx.num_vars(), 2);
        assert_eq!(gx.eval(0b00), 0.0); // equal signs: collision: G = 0
        assert_eq!(gx.eval(0b01), 1.0);
        // Its spectrum is the object of Lemma 4.1.
        let spec = gx.spectrum();
        assert!((spec.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "within the fixed mask")]
    fn values_outside_mask_rejected() {
        let _ = Restriction::new(0b01, 0b10);
    }

    #[test]
    #[should_panic(expected = "fixes every coordinate")]
    fn full_restriction_cannot_build_function() {
        let f = BooleanFunction::majority(3);
        let _ = restrict(&f, Restriction::new(0b111, 0b000));
    }
}
