//! Deterministic seed derivation.
//!
//! All experiments take a single master seed; per-trial, per-player and
//! per-sweep-point seeds are derived with SplitMix64 mixing so that
//! (a) runs are exactly reproducible and (b) streams are statistically
//! independent for any pattern of indices.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed from a master seed and a stream index.
#[must_use]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(master ^ splitmix64(stream))
}

/// Derives a seed from a master seed and two indices (e.g. sweep point
/// and trial number).
#[must_use]
pub fn derive_seed2(master: u64, a: u64, b: u64) -> u64 {
    derive_seed(derive_seed(master, a), b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_eq!(derive_seed2(1, 2, 3), derive_seed2(1, 2, 3));
    }

    #[test]
    fn different_streams_differ() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(0, 7), derive_seed(1, 7));
        assert_ne!(derive_seed2(1, 2, 3), derive_seed2(1, 3, 2));
    }

    #[test]
    fn no_collisions_on_a_grid() {
        let mut seen = BTreeSet::new();
        for master in 0..8u64 {
            for stream in 0..256u64 {
                assert!(seen.insert(derive_seed(master, stream)));
            }
        }
    }

    #[test]
    fn splitmix_avalanche_spot_check() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(0x0123_4567_89AB_CDEF);
        let b = splitmix64(0x0123_4567_89AB_CDEE);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped} bits");
    }
}
