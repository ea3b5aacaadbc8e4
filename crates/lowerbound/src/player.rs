//! Concrete player functions `G` — the objects the paper's lemmas
//! quantify over.
//!
//! A player sees `q` samples from the paired domain, each a pair
//! `(x, s)` with `x ∈ {-1,1}^ℓ` (encoded as a bitmask) and `s ∈ {±1}`,
//! and outputs one bit. The [`PlayerFunction`] trait evaluates that bit
//! on a sample tuple; the library below covers the qualitatively
//! different behaviours the lemmas distinguish:
//!
//! * [`CollisionIndicator`] — what real testers do: reject on repeated
//!   samples (information-carrying, collision-based);
//! * [`SignDictator`] / [`SignParity`] / [`SignMajority`] — functions of
//!   the matching bits `s` only (these cannot detect anything: the
//!   `s` marginal of every `ν_z` is uniform);
//! * [`CubeDictator`] — a function of the cube part only;
//! * [`TableFunction`] — an arbitrary (e.g. random) function given by a
//!   truth table over the `(ℓ+1)·q` sample bits, bridging to
//!   `dut_fourier::BooleanFunction`.

use dut_fourier::BooleanFunction;
use dut_probability::PairedDomain;
use rand::Rng;

/// A sample from the paired domain: the cube point and the sign.
pub type PairedSample = (u32, i8);

/// A player's decision function `G`: one bit from `q` paired samples.
///
/// The paper's convention: the output is the bit sent to the referee
/// (`true` ↦ 1). For uniformity testers, `1` conventionally means
/// "accept", but nothing in the lower-bound machinery depends on the
/// interpretation.
pub trait PlayerFunction {
    /// Evaluates the bit on a tuple of `q` samples.
    fn output(&self, samples: &[PairedSample]) -> bool;
}

impl<F: Fn(&[PairedSample]) -> bool> PlayerFunction for F {
    fn output(&self, samples: &[PairedSample]) -> bool {
        self(samples)
    }
}

/// Outputs 1 iff the number of colliding pairs among the full samples
/// `(x, s)` is **below** `threshold` — the "accept bit" of a local
/// collision tester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollisionIndicator {
    threshold: u64,
}

impl CollisionIndicator {
    /// Accept iff fewer than `threshold` colliding pairs.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` (the function would be constant 0).
    #[must_use]
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self { threshold }
    }
}

impl PlayerFunction for CollisionIndicator {
    fn output(&self, samples: &[PairedSample]) -> bool {
        let mut sorted: Vec<PairedSample> = samples.to_vec();
        sorted.sort_unstable();
        let mut collisions = 0u64;
        let mut run = 1u64;
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                run += 1;
            } else {
                collisions += run * (run - 1) / 2;
                run = 1;
            }
        }
        collisions += run * (run - 1) / 2;
        collisions < self.threshold
    }
}

/// Outputs the sign bit of sample `index`: 1 iff `s_index = -1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignDictator {
    index: usize,
}

impl SignDictator {
    /// Dictator on the sign of sample `index`.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self { index }
    }
}

impl PlayerFunction for SignDictator {
    fn output(&self, samples: &[PairedSample]) -> bool {
        samples[self.index].1 == -1
    }
}

/// Outputs the parity of all sign bits: 1 iff an odd number of samples
/// have `s = -1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignParity;

impl PlayerFunction for SignParity {
    fn output(&self, samples: &[PairedSample]) -> bool {
        samples.iter().filter(|&&(_, s)| s == -1).count() % 2 == 1
    }
}

/// Outputs 1 iff a strict majority of samples have `s = -1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignMajority;

impl PlayerFunction for SignMajority {
    fn output(&self, samples: &[PairedSample]) -> bool {
        2 * samples.iter().filter(|&&(_, s)| s == -1).count() > samples.len()
    }
}

/// Outputs bit `bit` of the cube point of sample `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubeDictator {
    index: usize,
    bit: u32,
}

impl CubeDictator {
    /// Dictator on cube bit `bit` of sample `index`.
    #[must_use]
    pub fn new(index: usize, bit: u32) -> Self {
        Self { index, bit }
    }
}

impl PlayerFunction for CubeDictator {
    fn output(&self, samples: &[PairedSample]) -> bool {
        (samples[self.index].0 >> self.bit) & 1 == 1
    }
}

/// An arbitrary player function given by a truth table over the
/// `(ℓ+1)·q` sample bits, in the bit layout of [`encode_tuple`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableFunction {
    dom: PairedDomain,
    q: usize,
    table: BooleanFunction,
}

impl TableFunction {
    /// Wraps a truth table; its variable count must be `(ℓ+1)·q`.
    ///
    /// # Panics
    ///
    /// Panics on a size mismatch or non-Boolean table.
    #[must_use]
    pub fn new(dom: PairedDomain, q: usize, table: BooleanFunction) -> Self {
        assert_eq!(
            table.num_vars(),
            (dom.ell() + 1) * dut_fourier::character::mask(q),
            "table must have (ell+1)*q variables"
        );
        assert!(table.is_boolean(), "player functions are 0/1-valued");
        Self { dom, q, table }
    }

    /// A uniformly random player function (each tuple's bit independent
    /// with density `p`).
    ///
    /// # Panics
    ///
    /// Panics if the bit count `(ℓ+1)·q` exceeds
    /// [`BooleanFunction::MAX_VARS`] or `p ∉ [0,1]`.
    pub fn random<R: Rng + ?Sized>(dom: PairedDomain, q: usize, p: f64, rng: &mut R) -> Self {
        let bits = (dom.ell() + 1) * dut_fourier::character::mask(q);
        Self::new(dom, q, BooleanFunction::random(bits, p, rng))
    }

    /// The underlying truth table.
    #[must_use]
    pub fn table(&self) -> &BooleanFunction {
        &self.table
    }

    /// The paired domain.
    #[must_use]
    pub fn domain(&self) -> PairedDomain {
        self.dom
    }

    /// Samples per player.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.q
    }
}

impl PlayerFunction for TableFunction {
    fn output(&self, samples: &[PairedSample]) -> bool {
        // Truth tables store exact 0.0/1.0; a midpoint threshold is
        // equivalent and robust, with no float equality involved.
        self.table.eval(encode_tuple(&self.dom, samples)) > 0.5
    }
}

/// Encodes a sample tuple as a bitmask over `(ℓ+1)·q` variables: sample
/// `i` occupies bits `[i·(ℓ+1), (i+1)·(ℓ+1))`, low `ℓ` bits the cube
/// point, the top bit the sign (`1` ⇔ `s = -1`).
///
/// # Panics
///
/// Panics if the total bit count exceeds 32.
#[must_use]
pub fn encode_tuple(dom: &PairedDomain, samples: &[PairedSample]) -> u32 {
    let width = dom.ell() + 1;
    assert!(
        width as usize * samples.len() <= 32,
        "tuple encoding exceeds 32 bits"
    );
    let mut mask = 0u32;
    for (i, &(x, s)) in samples.iter().enumerate() {
        debug_assert!((x as usize) < dom.cube_size());
        let mut part = x;
        if s == -1 {
            part |= 1 << dom.ell();
        }
        mask |= part << (dut_fourier::character::mask(i) * width);
    }
    mask
}

/// Decodes a bitmask back into a sample tuple (inverse of
/// [`encode_tuple`]).
#[must_use]
pub fn decode_tuple(dom: &PairedDomain, mask: u32, q: usize) -> Vec<PairedSample> {
    let width = dom.ell() + 1;
    let cube_mask = (1u32 << dom.ell()) - 1;
    (0..q)
        .map(|i| {
            let part = (mask >> (dut_fourier::character::mask(i) * width)) & ((1u32 << width) - 1);
            let x = part & cube_mask;
            let s = if part >> dom.ell() == 1 { -1 } else { 1 };
            (x, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn collision_indicator_counts_pairs() {
        let g = CollisionIndicator::new(1);
        assert!(g.output(&[(0, 1), (1, 1), (0, -1)])); // all distinct pairs
        assert!(!g.output(&[(0, 1), (0, 1)])); // one collision
        let g2 = CollisionIndicator::new(2);
        assert!(g2.output(&[(0, 1), (0, 1)])); // below threshold 2
        assert!(!g2.output(&[(0, 1), (0, 1), (0, 1)])); // 3 collisions
    }

    #[test]
    fn sign_dictator_reads_sign() {
        let g = SignDictator::new(1);
        assert!(g.output(&[(0, 1), (3, -1)]));
        assert!(!g.output(&[(0, -1), (3, 1)]));
    }

    #[test]
    fn sign_parity_and_majority() {
        let samples = [(0, -1), (1, -1), (2, 1)];
        assert!(!SignParity.output(&samples)); // two minus signs: even
        assert!(SignMajority.output(&samples)); // 2 of 3
        let one = [(0, -1), (1, 1), (2, 1)];
        assert!(SignParity.output(&one));
        assert!(!SignMajority.output(&one));
    }

    #[test]
    fn cube_dictator_reads_bit() {
        let g = CubeDictator::new(0, 2);
        assert!(g.output(&[(0b100, 1)]));
        assert!(!g.output(&[(0b011, 1)]));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dom = PairedDomain::new(3);
        let samples = vec![(0b101u32, -1i8), (0b010, 1), (0b111, -1)];
        let mask = encode_tuple(&dom, &samples);
        assert_eq!(decode_tuple(&dom, mask, 3), samples);
    }

    #[test]
    fn encode_all_tuples_distinct() {
        let dom = PairedDomain::new(2);
        let q = 2;
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..dom.universe_size() {
            for b in 0..dom.universe_size() {
                let (xa, sa) = dom.decode(a);
                let (xb, sb) = dom.decode(b);
                assert!(seen.insert(encode_tuple(&dom, &[(xa, sa), (xb, sb)])));
            }
        }
        assert_eq!(seen.len(), dom.universe_size().pow(q));
    }

    #[test]
    fn table_function_matches_direct_eval() {
        let dom = PairedDomain::new(2);
        let q = 2;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let tf = TableFunction::random(dom, q, 0.5, &mut rng);
        // Consistency: output must equal table lookup for every tuple.
        for mask in 0..(1u32 << ((dom.ell() + 1) * q as u32)) {
            let samples = decode_tuple(&dom, mask, q);
            assert_eq!(
                tf.output(&samples),
                tf.table().eval(mask) == 1.0,
                "mask {mask:#b}"
            );
        }
        assert_eq!(tf.sample_count(), q);
        assert_eq!(tf.domain(), dom);
    }

    #[test]
    fn closure_is_a_player_function() {
        let g = |samples: &[PairedSample]| samples.len() > 2;
        assert!(g.output(&[(0, 1), (0, 1), (0, 1)]));
        assert!(!g.output(&[(0, 1)]));
    }

    #[test]
    #[should_panic(expected = "exceeds 32 bits")]
    fn oversized_tuple_panics() {
        let dom = PairedDomain::new(7);
        let samples = vec![(0u32, 1i8); 5]; // 8 * 5 = 40 bits
        let _ = encode_tuple(&dom, &samples);
    }
}
