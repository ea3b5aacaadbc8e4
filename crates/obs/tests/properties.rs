//! Property-based tests for the windowed-metrics plane: histogram
//! quantiles, snapshot deltas, and epoch-window expiry.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
use dut_obs::metrics::{
    bucket_high, bucket_index, bucket_low, Counter, Histogram, HistogramId, Registry,
};
use dut_obs::window::SnapshotRing;
use proptest::prelude::*;

/// Strategy: a non-empty batch of histogram observations spanning
/// many log buckets.
fn arb_observations() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..2_000_000, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantile_is_monotone_in_p(values in arb_observations()) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = f64::MIN;
        for i in 0..=20u32 {
            let q = h.quantile(f64::from(i) / 20.0);
            prop_assert!(q >= last, "p={} gave {q} < {last}", f64::from(i) / 20.0);
            last = q;
        }
    }

    #[test]
    fn quantile_is_bracketed_by_bucket_bounds(values in arb_observations(), p in 0.0f64..=1.0) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let q = h.quantile(p);
        // The estimate must lie within the span of the occupied
        // buckets: [low of smallest, high of largest].
        let min_low = values.iter().map(|&v| bucket_low(bucket_index(v))).min().unwrap();
        let max_high = values.iter().map(|&v| bucket_high(bucket_index(v))).max().unwrap();
        {
            prop_assert!(q >= min_low as f64 - 1e-9, "q={q} below {min_low}");
            prop_assert!(q <= max_high as f64 + 1e-9, "q={q} above {max_high}");
        }
        // And it must never undershoot the true minimum or overshoot
        // the bucket ceiling of the true maximum.
        let true_min = *values.iter().min().unwrap();
        prop_assert!(q + 1e-9 >= bucket_low(bucket_index(true_min)) as f64);
    }

    #[test]
    fn quantile_is_exact_on_single_bucket_data(value in 0u64..2_000_000, copies in 1usize..100, p in 0.0f64..=1.0) {
        // All observations equal → every quantile is that value.
        let h = Histogram::new();
        for _ in 0..copies {
            h.record(value);
        }
        let q = h.quantile(p);
        let expected = value as f64;
        prop_assert!((q - expected).abs() < 1e-6, "q={q} expected={expected}");
    }

    #[test]
    fn snapshot_delta_matches_recorded_difference(
        before in prop::collection::vec(0u64..5_000, 0..40),
        after in prop::collection::vec(0u64..5_000, 0..40),
    ) {
        let reg = Registry::new();
        for &v in &before {
            reg.observe(HistogramId::RequestMicros, v);
            reg.add(Counter::ServeRequests, 1);
        }
        let base = reg.snapshot();
        for &v in &after {
            reg.observe(HistogramId::RequestMicros, v);
            reg.add(Counter::ServeRequests, 1);
        }
        let delta = reg.snapshot().delta(&base);
        prop_assert_eq!(delta.counter(Counter::ServeRequests), after.len() as u64);
        let hist = delta.histogram(HistogramId::RequestMicros).unwrap();
        prop_assert_eq!(hist.count, after.len() as u64);
        prop_assert_eq!(hist.sum, after.iter().sum::<u64>());
        // Bucket-wise, the delta is exactly the histogram of `after`.
        let expected = Histogram::new();
        for &v in &after {
            expected.record(v);
        }
        prop_assert_eq!(&hist.buckets, &expected.nonzero_buckets());
    }

    #[test]
    fn expired_epochs_stop_contributing(
        old_burst in 1u64..1_000,
        recent in 0u64..1_000,
        gap_secs in 10u64..100,
    ) {
        const SEC: u64 = 1_000_000;
        let ring = SnapshotRing::new(SEC, 256);
        let reg = Registry::new();
        reg.add(Counter::ServeShed, old_burst);
        prop_assert!(ring.maybe_capture(&reg, SEC));
        let now = (1 + gap_secs) * SEC;
        prop_assert!(ring.maybe_capture(&reg, now - SEC));
        reg.add(Counter::ServeRequests, recent);
        // A window shorter than the gap excludes the old burst...
        let w = ring.window(&reg, now, SEC);
        prop_assert_eq!(w.delta.counter(Counter::ServeShed), 0);
        prop_assert_eq!(w.delta.counter(Counter::ServeRequests), recent);
        // ...and a window spanning everything still includes it.
        let all = ring.window(&reg, now, now + SEC);
        prop_assert_eq!(all.delta.counter(Counter::ServeShed), old_burst);
    }
}
