//! Checked float→integer conversions.
//!
//! `dut lint` (and clippy's `cast_possible_truncation`, denied in this
//! workspace) bans bare float-to-integer `as` casts in stats code: a
//! silent saturation inside a quantile or grid computation corrupts
//! results without failing. The conversions below are the single
//! sanctioned path — they clamp explicitly, document the invariant,
//! and carry the one suppressed cast each.

/// Exactly representable `usize` ceiling for `f64` clamping: `2^53`.
/// Beyond it, `f64` cannot distinguish adjacent integers anyway; no
/// quantity in this workspace (sample counts, grid values, quantile
/// indices) comes near it.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// Rounds `value` to the nearest `usize`, clamping to `[0, 2^53]`.
/// NaN maps to 0.
#[must_use]
pub fn round_to_usize(value: f64) -> usize {
    #[allow(
        clippy::cast_possible_truncation,
        reason = "input is clamped to [0, 2^53] where the cast is exact; this fn is the workspace's one sanctioned float→usize conversion"
    )]
    let converted = value.round().clamp(0.0, MAX_EXACT) as usize;
    converted
}

/// Floors `value` into a `usize`, clamping to `[0, 2^53]`. NaN maps
/// to 0.
#[must_use]
pub fn floor_to_usize(value: f64) -> usize {
    round_to_usize(value.floor())
}

/// Ceils `value` into a `usize`, clamping to `[0, 2^53]`. NaN maps
/// to 0.
#[must_use]
pub fn ceil_to_usize(value: f64) -> usize {
    round_to_usize(value.ceil())
}

/// Converts a `u64` trial count into a `usize`, saturating at
/// `usize::MAX` on 32-bit targets where the count may not fit. The
/// saturation only widens thread-count clamps and capacity hints — a
/// batch of `usize::MAX` trials would never complete anyway — so both
/// runner entry points share this one conversion instead of one
/// panicking and the other saturating.
#[must_use]
pub fn saturating_usize_from_u64(value: u64) -> usize {
    usize::try_from(value).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_to_nearest() {
        assert_eq!(round_to_usize(2.4), 2);
        assert_eq!(round_to_usize(2.5), 3);
        assert_eq!(round_to_usize(0.0), 0);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(floor_to_usize(2.9), 2);
        assert_eq!(ceil_to_usize(2.1), 3);
        assert_eq!(floor_to_usize(3.0), 3);
        assert_eq!(ceil_to_usize(3.0), 3);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        assert_eq!(round_to_usize(-7.3), 0);
        assert_eq!(round_to_usize(f64::NEG_INFINITY), 0);
        assert_eq!(round_to_usize(f64::INFINITY), 9_007_199_254_740_992);
        assert_eq!(round_to_usize(f64::NAN), 0);
    }

    #[test]
    fn u64_to_usize_is_identity_in_range() {
        assert_eq!(saturating_usize_from_u64(0), 0);
        assert_eq!(saturating_usize_from_u64(1), 1);
        assert_eq!(saturating_usize_from_u64(1 << 20), 1 << 20);
        // On 64-bit targets the full range fits; either way the call
        // never panics.
        let _ = saturating_usize_from_u64(u64::MAX);
    }

    #[test]
    fn quantile_index_pattern() {
        // The bootstrap use: index of the alpha/2 quantile among
        // `resamples` sorted statistics.
        let resamples = 1000usize;
        let alpha = 0.05f64;
        let lo = floor_to_usize((alpha / 2.0) * resamples as f64);
        let hi = ceil_to_usize((1.0 - alpha / 2.0) * resamples as f64).min(resamples - 1);
        assert_eq!(lo, 25);
        assert_eq!(hi, 975);
    }
}
