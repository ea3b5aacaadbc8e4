//! The fast Walsh–Hadamard transform.
//!
//! [`walsh_hadamard`] computes, in place, the *unnormalized* transform
//! `g(S) = Σ_x f(x)·χ_S(x)`; dividing by the table length gives the
//! Fourier coefficients under the expectation inner product of Section 2
//! of the paper. The transform is an involution up to the factor `2^m`.

/// In-place unnormalized Walsh–Hadamard transform.
///
/// After the call, `table[S] = Σ_x table_before[x] · (-1)^{|S ∩ x|}`.
/// Runs in `O(m · 2^m)`.
///
/// # Panics
///
/// Panics if the length is not a power of two (length 1 is allowed and is
/// a no-op).
pub fn walsh_hadamard(table: &mut [f64]) {
    assert!(
        !table.is_empty() && table.len().is_power_of_two(),
        "table length must be a power of two"
    );
    let n = table.len();
    let mut h = 1;
    while h < n {
        let mut i = 0;
        while i < n {
            for j in i..i + h {
                let a = table[j];
                let b = table[j + h];
                table[j] = a + b;
                table[j + h] = a - b;
            }
            i += h * 2;
        }
        h *= 2;
    }
}

/// Naive `O(4^m)` transform used as a test oracle.
#[must_use]
pub fn walsh_hadamard_naive(table: &[f64]) -> Vec<f64> {
    assert!(
        !table.is_empty() && table.len().is_power_of_two(),
        "table length must be a power of two"
    );
    let n = table.len();
    (0..n)
        .map(|s| {
            table
                .iter()
                .enumerate()
                .map(|(x, &v)| if (s & x).count_ones() % 2 == 0 { v } else { -v })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn fast_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for m in 1..=8u32 {
            let table: Vec<f64> = (0..1usize << m).map(|_| rng.random::<f64>()).collect();
            let expected = walsh_hadamard_naive(&table);
            let mut fast = table.clone();
            walsh_hadamard(&mut fast);
            for (a, b) in fast.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-9, "m={m}");
            }
        }
    }

    #[test]
    fn transform_is_involutive_up_to_scale() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let original: Vec<f64> = (0..64).map(|_| rng.random::<f64>()).collect();
        let mut table = original.clone();
        walsh_hadamard(&mut table);
        walsh_hadamard(&mut table);
        for (a, b) in table.iter().zip(&original) {
            assert!((a / 64.0 - b).abs() < 1e-12);
        }
    }

    #[test]
    fn delta_function_transforms_to_characters() {
        // Indicator of x=0 transforms to all-ones.
        let mut table = vec![0.0; 16];
        table[0] = 1.0;
        walsh_hadamard(&mut table);
        assert!(table.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn constant_transforms_to_delta() {
        let mut table = vec![1.0; 8];
        walsh_hadamard(&mut table);
        assert!((table[0] - 8.0).abs() < 1e-12);
        assert!(table[1..].iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let table: Vec<f64> = (0..128).map(|_| rng.random::<f64>() - 0.5).collect();
        let energy: f64 = table.iter().map(|v| v * v).sum();
        let mut t = table;
        walsh_hadamard(&mut t);
        let transformed_energy: f64 = t.iter().map(|v| v * v).sum();
        // Unnormalized transform scales energy by n.
        assert!((transformed_energy - 128.0 * energy).abs() < 1e-6);
    }

    #[test]
    fn length_one_is_noop() {
        let mut table = vec![3.5];
        walsh_hadamard(&mut table);
        assert_eq!(table, vec![3.5]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut table = vec![0.0; 6];
        walsh_hadamard(&mut table);
    }
}
