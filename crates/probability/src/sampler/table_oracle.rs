//! The table-identity oracle: the textbook two-stack Vose loop, kept
//! verbatim as [`AliasSampler::new`] ran it before the construction
//! read its two stacks off the probability vector. The sampler must
//! build its table, entry for entry.

use super::{threshold, AliasSampler, ALWAYS_KEEP};
use crate::dense::DenseDistribution;
use crate::families;
use proptest::prelude::*;

/// Vose's construction with separate `small` and `large` stacks and a
/// scaled copy of the probabilities.
fn reference(dist: &DenseDistribution) -> AliasSampler {
    let n = dist.support_size();
    // When every scaled probability falls on one side of 1, the pairing
    // loop below would not run: every column keeps itself.
    let small_column = |p: &f64| (p * n as f64) < 1.0;
    if dist.probs().iter().all(small_column) || !dist.probs().iter().any(small_column) {
        return AliasSampler {
            n,
            table: Vec::new(),
        };
    }
    // Scaled probabilities: mean 1.
    let mut scaled: Vec<f64> = dist.probs().iter().map(|p| p * n as f64).collect();
    let mut small: Vec<usize> = Vec::with_capacity(n);
    let mut large: Vec<usize> = Vec::with_capacity(n);
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    let mut table = vec![(0u64, 0usize); n];
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        large.pop();
        table[s] = (threshold(scaled[s]), l);
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if scaled[l] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    // Whatever is left is numerically 1.
    for &i in large.iter().chain(small.iter()) {
        table[i] = (ALWAYS_KEEP, i);
    }
    AliasSampler { n, table }
}

/// Panics unless `alias_sampler` builds the reference table for `dist`;
/// returns whether that table is stored.
fn assert_same_table(dist: &DenseDistribution, what: &str) -> bool {
    let expected = reference(dist);
    let built = dist.alias_sampler();
    assert_eq!(built.n, expected.n, "{what}: n");
    assert!(
        built.table == expected.table,
        "{what}: a different table (first difference at column {:?})",
        built
            .table
            .iter()
            .zip(&expected.table)
            .position(|(a, b)| a != b)
    );
    !expected.table.is_empty()
}

/// ε values of every experiment grid, `0.5` (E1's) and the edges.
const EPSILONS: [f64; 6] = [0.1, 0.25, 0.35, 0.5, 0.7, 1.0];

#[test]
fn far_families_build_the_reference_table() {
    for n in [2, 6, 64, 4096, 16384, 1 << 20] {
        for eps in EPSILONS {
            let two_level = families::two_level(n, eps).unwrap();
            assert!(assert_same_table(
                &two_level,
                &format!("two_level({n}, {eps})")
            ));
            let alternating = families::alternating(n, eps).unwrap();
            assert!(assert_same_table(
                &alternating,
                &format!("alternating({n}, {eps})")
            ));
        }
    }
}

#[test]
fn edge_vectors_build_the_reference_table() {
    let stored = [
        ("zipf(4096, 1.0)", families::zipf(4096, 1.0).unwrap()),
        ("zipf(1000, 2.0)", families::zipf(1000, 2.0).unwrap()),
        ("point mass", families::point_mass(64, 17).unwrap()),
        ("point mass at the end", families::point_mass(7, 6).unwrap()),
        (
            "zero-mass entries",
            DenseDistribution::new(vec![0.5, 0.0, 0.5, 0.0]).unwrap(),
        ),
        (
            "uniform on a prefix",
            families::uniform_on_prefix(4096, 1000).unwrap(),
        ),
        // Scaled entries 1, 2, ½, ½: column 0 starts at exactly 1, and
        // column 1's mass falls to exactly 1 after two pairings.
        (
            "scaled entries of exactly 1",
            DenseDistribution::new(vec![0.25, 0.5, 0.125, 0.125]).unwrap(),
        ),
        (
            "a large column that ends at exactly 1",
            DenseDistribution::new(vec![0.375, 0.125, 0.25, 0.25]).unwrap(),
        ),
    ];
    for (what, dist) in &stored {
        assert!(assert_same_table(dist, what), "{what}: table elided");
    }
    let elided = [
        ("n = 1", families::uniform(1)),
        ("point mass at n = 1", families::point_mass(1, 0).unwrap()),
        ("uniform(1000)", families::uniform(1000)),
        // Every 1/49 · 49 rounds below 1.
        (
            "uniform vector at n = 49",
            DenseDistribution::new(vec![1.0 / 49.0; 49]).unwrap(),
        ),
        (
            "two_level at ε = 0",
            families::two_level(4096, 0.0).unwrap(),
        ),
    ];
    for (what, dist) in &elided {
        assert!(!assert_same_table(dist, what), "{what}: table stored");
    }
}

/// Weight vectors of length 1..=300 with a share of zero weights and a
/// share of weights drawn from a few repeated values, so that columns of
/// equal mass (and exact sums of 1) come up.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    let weight = (0u8..6, 0.0f64..4.0).prop_map(|(kind, w)| match kind {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        _ => w,
    });
    prop::collection::vec(weight, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn random_weight_vectors_build_the_reference_table(weights in arb_weights()) {
        if let Ok(dist) = DenseDistribution::from_weights(weights) {
            assert_same_table(&dist, &format!("{:?}", dist.probs()));
        }
    }
}
