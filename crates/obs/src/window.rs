//! Windowed metrics: rates and quantiles over the last N seconds.
//!
//! The [`metrics::Registry`](crate::metrics::Registry) is cumulative
//! since boot, which is the right shape for the hot path (one relaxed
//! atomic per event) but useless for "what is the req/s *right now*".
//! A [`SnapshotRing`] closes the gap without touching the hot path:
//! once per epoch (default 1 s) some caller — the serve engine on a
//! request, or the stats command itself — invokes
//! [`SnapshotRing::maybe_capture`], which stores a full cumulative
//! [`Snapshot`] into a fixed ring. A windowed view is then just
//! `live − base` where `base` is the newest stored snapshot at or
//! before `now − window`, computed with [`Snapshot::delta`].
//!
//! This is the streaming-literature trade: bounded memory (`slots`
//! snapshots, a few KB each), one pass, and answers that are exact at
//! epoch granularity. Writers never see the ring; readers pay one
//! relaxed load on the fast path and a short mutex only when an epoch
//! boundary is actually crossed.

use crate::metrics::{Registry, Snapshot};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default epoch width: one second.
pub const DEFAULT_EPOCH_MICROS: u64 = 1_000_000;
/// Default ring capacity: two minutes of one-second epochs.
pub const DEFAULT_SLOTS: usize = 128;

#[derive(Debug, Clone)]
struct EpochSnapshot {
    at_micros: u64,
    snapshot: Snapshot,
}

/// A fixed ring of cumulative snapshots, one per elapsed epoch.
#[derive(Debug)]
pub struct SnapshotRing {
    epoch_micros: u64,
    slots: usize,
    /// Epoch index of the most recent capture; the lock-free fast
    /// path of [`maybe_capture`](SnapshotRing::maybe_capture).
    last_epoch: AtomicU64,
    ring: Mutex<VecDeque<EpochSnapshot>>,
}

impl SnapshotRing {
    /// A ring of `slots` epochs, each `epoch_micros` wide. The ring
    /// is seeded with an all-zero snapshot at time 0 so early windows
    /// fall back to "since boot" rather than reporting nothing.
    #[must_use]
    pub fn new(epoch_micros: u64, slots: usize) -> SnapshotRing {
        let mut ring = VecDeque::with_capacity(slots.max(2));
        ring.push_back(EpochSnapshot {
            at_micros: 0,
            snapshot: Snapshot::zero(),
        });
        SnapshotRing {
            epoch_micros: epoch_micros.max(1),
            slots: slots.max(2),
            last_epoch: AtomicU64::new(0),
            ring: Mutex::new(ring),
        }
    }

    /// The configured epoch width in microseconds.
    #[must_use]
    pub fn epoch_micros(&self) -> u64 {
        self.epoch_micros
    }

    /// Captures a snapshot of `registry` if `now_micros` has crossed
    /// into a new epoch since the last capture. Returns whether a
    /// capture happened. Cheap to call on every request: the common
    /// case is one relaxed load and a compare.
    pub fn maybe_capture(&self, registry: &Registry, now_micros: u64) -> bool {
        let epoch = now_micros / self.epoch_micros;
        if epoch <= self.last_epoch.load(Ordering::Relaxed) {
            return false;
        }
        let mut ring = self.ring.lock();
        // Re-check under the lock: another thread may have captured
        // this epoch while we waited.
        if epoch <= self.last_epoch.load(Ordering::Relaxed) {
            return false;
        }
        ring.push_back(EpochSnapshot {
            at_micros: now_micros,
            snapshot: registry.snapshot(),
        });
        while ring.len() > self.slots {
            ring.pop_front();
        }
        self.last_epoch.store(epoch, Ordering::Relaxed);
        true
    }

    /// The delta over (at most) the trailing `window_micros`, ending
    /// now: a live snapshot of `registry` minus the newest stored
    /// snapshot at or before `now_micros − window_micros`. Returns
    /// the delta and the span it covers in microseconds: shorter than
    /// requested early in the process lifetime or past the ring's
    /// reach, and never longer than `window_micros`.
    ///
    /// After an idle spell no snapshot sits near the cutoff, and the
    /// base is older than it. The idle epochs add no events, so the
    /// span stays capped at the window rather than folding the idle
    /// time into every rate. What remains is a one-epoch error: events
    /// in the base snapshot's own epoch, after it was taken and before
    /// the cutoff, still count towards the window.
    #[must_use]
    pub fn window(
        &self,
        registry: &Registry,
        now_micros: u64,
        window_micros: u64,
    ) -> WindowedDelta {
        let cutoff = now_micros.saturating_sub(window_micros);
        let live = registry.snapshot();
        let ring = self.ring.lock();
        // Newest snapshot at or before the cutoff; if every stored
        // snapshot is newer than the cutoff (ring already trimmed),
        // fall back to the oldest one we still have.
        let base = ring
            .iter()
            .rev()
            .find(|s| s.at_micros <= cutoff)
            .or_else(|| ring.front())
            .cloned();
        drop(ring);
        match base {
            Some(base) => WindowedDelta {
                delta: live.delta(&base.snapshot),
                span_micros: now_micros.saturating_sub(base.at_micros).min(window_micros),
            },
            None => WindowedDelta {
                delta: live,
                span_micros: now_micros.min(window_micros),
            },
        }
    }

    /// Number of snapshots currently stored (including the zero seed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the ring holds no snapshots (never true in practice:
    /// the constructor seeds one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SnapshotRing {
    fn default() -> SnapshotRing {
        SnapshotRing::new(DEFAULT_EPOCH_MICROS, DEFAULT_SLOTS)
    }
}

/// A windowed metrics view: the counter/histogram delta over the
/// span, plus how long the span actually is.
#[derive(Debug, Clone)]
pub struct WindowedDelta {
    /// Metric deltas over the span (gauges keep their latest value).
    pub delta: Snapshot,
    /// The span the delta covers, in microseconds.
    pub span_micros: u64,
}

impl WindowedDelta {
    /// A counter's per-second rate over the span.
    #[must_use]
    pub fn rate_per_sec(&self, counter: crate::metrics::Counter) -> f64 {
        if self.span_micros == 0 {
            return 0.0;
        }
        let events = self.delta.counter(counter) as f64;
        let secs = self.span_micros as f64 / 1e6;
        events / secs
    }
}

/// The process-wide ring used by `dut serve`, with default geometry.
pub fn global() -> &'static SnapshotRing {
    static GLOBAL: OnceLock<SnapshotRing> = OnceLock::new();
    GLOBAL.get_or_init(SnapshotRing::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Gauge, HistogramId};

    const SEC: u64 = 1_000_000;

    #[test]
    fn capture_happens_once_per_epoch() {
        let ring = SnapshotRing::new(SEC, 8);
        let reg = Registry::new();
        assert!(ring.maybe_capture(&reg, SEC));
        assert!(!ring.maybe_capture(&reg, SEC + 1000));
        assert!(!ring.maybe_capture(&reg, SEC + 999_999));
        assert!(ring.maybe_capture(&reg, 2 * SEC));
        assert_eq!(ring.len(), 3); // zero seed + two captures
    }

    #[test]
    fn window_reports_only_recent_activity() {
        let ring = SnapshotRing::new(SEC, 8);
        let reg = Registry::new();
        reg.add(Counter::ServeRequests, 100);
        assert!(ring.maybe_capture(&reg, 10 * SEC));
        reg.add(Counter::ServeRequests, 7);
        reg.observe(HistogramId::RequestMicros, 40);
        let w = ring.window(&reg, 12 * SEC, 2 * SEC);
        // The 100 old requests sit behind the 10 s snapshot; only the
        // 7 recent ones are in the 2 s window.
        assert_eq!(w.delta.counter(Counter::ServeRequests), 7);
        assert_eq!(w.span_micros, 2 * SEC);
        assert!((w.rate_per_sec(Counter::ServeRequests) - 3.5).abs() < 1e-9);
        let hist = w.delta.histogram(HistogramId::RequestMicros).unwrap();
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn expired_epochs_stop_contributing() {
        let ring = SnapshotRing::new(SEC, 8);
        let reg = Registry::new();
        // A burst at t=1s…3s, then silence.
        reg.add(Counter::ServeShed, 50);
        assert!(ring.maybe_capture(&reg, SEC));
        reg.add(Counter::ServeShed, 5);
        assert!(ring.maybe_capture(&reg, 3 * SEC));
        // At t=20s a 5-second window no longer covers the burst.
        let w = ring.window(&reg, 20 * SEC, 5 * SEC);
        assert_eq!(w.delta.counter(Counter::ServeShed), 0);
        // Whereas a since-boot-sized window still sees everything.
        let all = ring.window(&reg, 20 * SEC, 60 * SEC);
        assert_eq!(all.delta.counter(Counter::ServeShed), 55);
    }

    #[test]
    fn idle_time_before_the_window_does_not_dilute_its_rate() {
        let ring = SnapshotRing::new(SEC, 128);
        let reg = Registry::new();
        // One request at t=1s, then 20 s idle, then 100 req/s for 5 s
        // with a capture at the start of every epoch.
        reg.add(Counter::ServeRequests, 1);
        assert!(ring.maybe_capture(&reg, SEC));
        for t in 21..26u64 {
            assert!(ring.maybe_capture(&reg, t * SEC));
            reg.add(Counter::ServeRequests, 100);
            reg.add(Counter::ServeShed, 10);
        }
        // The base snapshot is the t=1s one, 25 s before now; the
        // trailing 10 s window holds the 500 recent requests.
        let w = ring.window(&reg, 26 * SEC, 10 * SEC);
        assert_eq!(w.delta.counter(Counter::ServeRequests), 500);
        assert_eq!(w.span_micros, 10 * SEC);
        assert!((w.rate_per_sec(Counter::ServeRequests) - 50.0).abs() < 1e-9);
        assert!((w.rate_per_sec(Counter::ServeShed) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ring_is_bounded_and_falls_back_to_oldest() {
        let ring = SnapshotRing::new(SEC, 4);
        let reg = Registry::new();
        for t in 1..=10u64 {
            reg.add(Counter::ServeRequests, 1);
            assert!(ring.maybe_capture(&reg, t * SEC));
        }
        assert_eq!(ring.len(), 4);
        // Asking for a window wider than the ring's reach clamps to
        // the oldest retained snapshot (t=7s, 7 requests seen).
        let w = ring.window(&reg, 10 * SEC, 60 * SEC);
        assert_eq!(w.delta.counter(Counter::ServeRequests), 3);
        assert_eq!(w.span_micros, 3 * SEC);
    }

    #[test]
    fn gauges_pass_through_latest_value() {
        let ring = SnapshotRing::new(SEC, 8);
        let reg = Registry::new();
        reg.set_gauge(Gauge::ServeQueueDepth, 3);
        assert!(ring.maybe_capture(&reg, SEC));
        reg.set_gauge(Gauge::ServeQueueDepth, 9);
        let w = ring.window(&reg, 2 * SEC, 10 * SEC);
        assert_eq!(w.delta.gauge(Gauge::ServeQueueDepth), 9);
    }

    #[test]
    fn concurrent_capture_is_single_flight() {
        let ring = SnapshotRing::new(SEC, 8);
        let reg = Registry::new();
        let captures = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    if ring.maybe_capture(&reg, 5 * SEC) {
                        captures.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(captures.load(Ordering::Relaxed), 1);
        assert_eq!(ring.len(), 2);
    }
}
