//! SLO tracking with multi-window burn rates.
//!
//! An SLO here is two targets on the serve plane: a p99 latency bound
//! ("99% of requests complete under T µs") and a shed-rate bound
//! ("at most a fraction S of arrivals are shed"). Each implies an
//! error budget — 1% of requests may exceed T, a fraction S may be
//! shed — and the *burn rate* is how fast that budget is being spent:
//! burn 1.0 consumes exactly the budget, burn 10.0 consumes it ten
//! times too fast.
//!
//! Alerting on a single window is either noisy (short window: one
//! slow request trips it) or sluggish (long window: a real incident
//! takes minutes to surface). The standard fix is to require the burn
//! to exceed the threshold over a **short and a long window
//! simultaneously**: the long window proves the problem is sustained,
//! the short window proves it is still happening. [`evaluate`] takes
//! one windowed [`Snapshot`] delta per window (produced by
//! [`window::SnapshotRing::window`](crate::window::SnapshotRing::window))
//! and applies exactly that rule.

use crate::metrics::{
    bucket_high, bucket_index, Counter, HistogramId, HistogramSnapshot, Snapshot,
};

/// p99 latency target in microseconds: 99% of requests should
/// complete faster than this.
pub const P99_TARGET_MICROS: u64 = 250_000;
/// Maximum acceptable fraction of arrivals shed for overload.
pub const MAX_SHED_RATE: f64 = 0.05;
/// Burn-rate multiple above which a window is considered burning
/// (1.0 = spending budget exactly at the sustainable rate).
pub const BURN_THRESHOLD: f64 = 2.0;

/// Error-budget burn rates measured over one window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowBurn {
    /// Latency-budget burn: (fraction of requests above target) / 1%.
    pub latency_burn: f64,
    /// Shed-budget burn: (shed fraction of arrivals) / `max_shed_rate`.
    pub shed_burn: f64,
}

/// The SLO verdict across both windows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloStatus {
    /// Burn rates over the short window.
    pub short: WindowBurn,
    /// Burn rates over the long window.
    pub long: WindowBurn,
    /// Latency burn exceeds the threshold in *both* windows.
    pub latency_breach: bool,
    /// Shed burn exceeds the threshold in *both* windows.
    pub shed_breach: bool,
}

impl SloStatus {
    /// Whether no objective is currently breached.
    #[must_use]
    pub fn healthy(&self) -> bool {
        !self.latency_breach && !self.shed_breach
    }
}

/// Estimated fraction of observations strictly above `threshold`,
/// from log-bucket occupancy. Buckets entirely above count in full;
/// the bucket straddling the threshold contributes linearly by how
/// much of its span lies above.
#[must_use]
pub fn fraction_above(hist: &HistogramSnapshot, threshold: u64) -> f64 {
    if hist.count == 0 {
        return 0.0;
    }
    let mut above = 0.0f64;
    for &(low, n) in &hist.buckets {
        if n == 0 {
            continue;
        }
        let high = bucket_high(bucket_index(low));
        if low > threshold {
            above += n as f64;
        } else if high > threshold {
            let span = (high - low).max(1) as f64;
            let frac = (high - threshold) as f64 / span;
            above += n as f64 * frac;
        }
    }
    let count = hist.count as f64;
    (above / count).clamp(0.0, 1.0)
}

/// Burn rates for one windowed snapshot delta.
#[must_use]
pub fn window_burn(delta: &Snapshot) -> WindowBurn {
    let latency_burn = delta
        .histogram(HistogramId::RequestMicros)
        .map_or(0.0, |hist| {
            // p99 objective → 1% error budget.
            fraction_above(hist, P99_TARGET_MICROS) / 0.01
        });
    let served = delta.counter(Counter::ServeRequests);
    let shed = delta.counter(Counter::ServeShed);
    let arrivals = served + shed;
    let shed_burn = if arrivals == 0 {
        0.0
    } else {
        let shed_frac = shed as f64 / arrivals as f64;
        shed_frac / MAX_SHED_RATE
    };
    WindowBurn {
        latency_burn,
        shed_burn,
    }
}

/// Evaluates the SLO over a short and a long windowed delta. A
/// breach requires the burn threshold to be exceeded in both windows.
#[must_use]
pub fn evaluate(short: &Snapshot, long: &Snapshot) -> SloStatus {
    let short = window_burn(short);
    let long = window_burn(long);
    let over = |burn: f64| burn > BURN_THRESHOLD;
    SloStatus {
        short,
        long,
        latency_breach: over(short.latency_burn) && over(long.latency_burn),
        shed_breach: over(short.shed_burn) && over(long.shed_burn),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Gauge, HistogramId, Registry};

    fn snapshot_with(requests: u64, shed: u64, latencies: &[u64]) -> Snapshot {
        let reg = Registry::new();
        reg.add(Counter::ServeRequests, requests);
        reg.add(Counter::ServeShed, shed);
        for &v in latencies {
            reg.observe(HistogramId::RequestMicros, v);
        }
        reg.snapshot()
    }

    #[test]
    fn fraction_above_counts_high_buckets() {
        let snap = snapshot_with(4, 0, &[10, 10, 1_000_000, 1_000_000]);
        let hist = snap.histogram(HistogramId::RequestMicros).unwrap();
        let frac = fraction_above(hist, 250_000);
        assert!((frac - 0.5).abs() < 0.2, "roughly half above: {frac}");
        assert!(fraction_above(hist, u64::MAX - 1).abs() < 1e-9);
        assert!((fraction_above(hist, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn healthy_service_does_not_breach() {
        let snap = snapshot_with(100, 0, &[1_000; 100]);
        let status = evaluate(&snap, &snap);
        assert!(status.healthy());
        assert!(status.short.latency_burn.abs() < 1e-9);
        assert!(status.short.shed_burn.abs() < 1e-9);
    }

    #[test]
    fn sustained_slow_requests_breach_latency() {
        // Every request blows the 250 ms target → burn 100×.
        let snap = snapshot_with(10, 0, &[2_000_000; 10]);
        let status = evaluate(&snap, &snap);
        assert!(status.latency_breach);
        assert!(!status.shed_breach);
        assert!(status.short.latency_burn > 50.0);
    }

    #[test]
    fn breach_requires_both_windows() {
        let bad = snapshot_with(10, 0, &[2_000_000; 10]);
        let good = snapshot_with(1000, 0, &[1_000; 100]);
        // Short spike, calm long window: no alert.
        assert!(evaluate(&bad, &good).healthy());
        // Old incident, now recovered: no alert.
        assert!(evaluate(&good, &bad).healthy());
    }

    #[test]
    fn shed_burst_breaches_shed_budget() {
        // Half the arrivals shed against a 5% budget → burn 10×.
        let snap = snapshot_with(50, 50, &[1_000; 50]);
        let status = evaluate(&snap, &snap);
        assert!(status.shed_breach);
        assert!((status.short.shed_burn - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_healthy() {
        let empty = Registry::new().snapshot();
        let status = evaluate(&empty, &empty);
        assert!(status.healthy());
        // A gauge-only snapshot is also quiet.
        let reg = Registry::new();
        reg.set_gauge(Gauge::ServeQueueDepth, 5);
        let status = evaluate(&reg.snapshot(), &empty);
        assert!(status.healthy());
    }
}
