//! Lock-free metrics: counters, gauges, and log-bucketed histograms.
//!
//! Metrics are the always-on half of the observability layer: every
//! well-known quantity (samples drawn, message bits, verdicts, search
//! probes, …) has a fixed slot in a global [`Registry`], updated with
//! relaxed atomics so the hot paths in `dut-simnet` and `dut-stats`
//! never contend on a lock. A [`snapshot`](Registry::snapshot) turns
//! the registry into plain data for trace sinks and `dut report`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Well-known counters, one fixed slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Protocol executions completed (`Network` and `ResilientNetwork`).
    NetRuns,
    /// Samples drawn across all players, summed over runs.
    SamplesDrawn,
    /// Message bits delivered to the referee.
    BitsSent,
    /// Referee accept verdicts.
    VerdictAccept,
    /// Referee reject verdicts.
    VerdictReject,
    /// Players that crashed before sending (fault injection).
    FaultsCrashed,
    /// Messages lost in transit (fault injection).
    FaultsMessagesLost,
    /// Redundant transmissions after the first attempt (recovery).
    FaultRetries,
    /// Delivered duplicate bits beyond each player's first copy; these
    /// are charged to the communication budget like first copies.
    FaultRedundantBits,
    /// Player bits corrupted by a Byzantine adversary.
    FaultByzantineFlips,
    /// Bits whose first transmission was lost but that a later
    /// redundant copy delivered (recovery successes).
    FaultRecoveredBits,
    /// Senders the referee never heard from after all retry attempts.
    FaultTimeouts,
    /// Monte-Carlo trials executed by `run_measurements` and
    /// `decide_two_sided`.
    TrialsRun,
    /// Trials `decide_two_sided` never ran because the finished ones
    /// had already fixed the two-sided verdict.
    TrialsSkipped,
    /// Predicate evaluations spent inside `minimal_sufficient`.
    SearchProbes,
    /// Scaling-law fits computed by `dut-stats::sweep`.
    SweepFits,
    /// Verdict requests answered by `dut serve` (success or error).
    ServeRequests,
    /// Serve requests whose prepared tester came from the LRU cache.
    ServeCacheHits,
    /// Serve requests that had to prepare (calibrate) a fresh tester.
    ServeCacheMisses,
    /// Connections shed with an `overloaded` reply because the accept
    /// queue was at its bound.
    ServeShed,
    /// Request lines `dut serve` rejected as malformed before they
    /// reached the engine: unparseable JSON or over the per-line byte
    /// cap.
    ServeMalformed,
    /// Connections `dut serve` closed for failing to complete a
    /// request line within the idle timeout (idle-forever clients and
    /// slowloris writers alike).
    ServeReaped,
    /// Connections `dut serve` closed for exhausting their
    /// per-connection error budget (abusive clients looping on
    /// rejected requests).
    ServeErrorBudget,
    /// Request evaluations that panicked and were converted into a
    /// structured `internal` error reply instead of killing a worker.
    ServePanicsCaught,
    /// Served requests whose trials ran: every served trial draws
    /// through the alias sampler's per-draw kernel.
    ServeBackendPerDraw,
    /// Always 0: no served trial draws on the histogram engine. Kept
    /// because the `{"cmd":"stats"}` schema still carries it.
    ServeBackendHistogram,
    /// Served requests whose cache lookup joined a prepared-tester
    /// build still in flight for another request (single flight): a
    /// subset of `serve_cache_hits`.
    ServeCoalesced,
    /// Requests shed by per-tenant admission control (token-bucket
    /// quota exhausted) rather than by the global queue bound.
    ServeTenantShed,
    /// Service passes of the `dut serve` shard loops: one sweep over a
    /// shard's parked connections (flush, frame, dispatch, reap).
    ServeShardPasses,
    /// Times a `dut serve` shard parked in `poll(2)` after a pass
    /// instead of sweeping again at once. A saturated shard rarely
    /// parks; an idle one parks once per wake.
    ServeShardParks,
    /// Cache hits `dut serve` answered on the shard thread that framed
    /// them instead of queueing them for a worker: a subset of
    /// `serve_cache_hits`.
    ServeInline,
    /// Hostile client actions injected by `dut fuzz --plane chaos`
    /// (slowloris writes, half-open connects, mid-frame disconnects,
    /// reconnect storms, garbage frames, …).
    ChaosInjected,
}

impl Counter {
    const COUNT: usize = 32;

    /// All counters, in slot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::NetRuns,
        Counter::SamplesDrawn,
        Counter::BitsSent,
        Counter::VerdictAccept,
        Counter::VerdictReject,
        Counter::FaultsCrashed,
        Counter::FaultsMessagesLost,
        Counter::FaultRetries,
        Counter::FaultRedundantBits,
        Counter::FaultByzantineFlips,
        Counter::FaultRecoveredBits,
        Counter::FaultTimeouts,
        Counter::TrialsRun,
        Counter::TrialsSkipped,
        Counter::SearchProbes,
        Counter::SweepFits,
        Counter::ServeRequests,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeShed,
        Counter::ServeMalformed,
        Counter::ServeReaped,
        Counter::ServeErrorBudget,
        Counter::ServePanicsCaught,
        Counter::ServeBackendPerDraw,
        Counter::ServeBackendHistogram,
        Counter::ServeCoalesced,
        Counter::ServeTenantShed,
        Counter::ServeShardPasses,
        Counter::ServeShardParks,
        Counter::ServeInline,
        Counter::ChaosInjected,
    ];

    /// The stable name used in trace snapshots.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::NetRuns => "net_runs",
            Counter::SamplesDrawn => "samples_drawn",
            Counter::BitsSent => "bits_sent",
            Counter::VerdictAccept => "verdict_accept",
            Counter::VerdictReject => "verdict_reject",
            Counter::FaultsCrashed => "faults_crashed",
            Counter::FaultsMessagesLost => "faults_messages_lost",
            Counter::FaultRetries => "fault_retries",
            Counter::FaultRedundantBits => "redundant_bits",
            Counter::FaultByzantineFlips => "byzantine_flips",
            Counter::FaultRecoveredBits => "recovered_bits",
            Counter::FaultTimeouts => "fault_timeouts",
            Counter::TrialsRun => "trials_run",
            Counter::TrialsSkipped => "trials_skipped",
            Counter::SearchProbes => "search_probes",
            Counter::SweepFits => "sweep_fits",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeCacheMisses => "serve_cache_misses",
            Counter::ServeShed => "serve_shed",
            Counter::ServeMalformed => "serve_malformed",
            Counter::ServeReaped => "serve_reaped",
            Counter::ServeErrorBudget => "serve_error_budget",
            Counter::ServePanicsCaught => "serve_panics_caught",
            Counter::ServeBackendPerDraw => "serve_backend_per_draw",
            Counter::ServeBackendHistogram => "serve_backend_histogram",
            Counter::ServeCoalesced => "serve_coalesced",
            Counter::ServeTenantShed => "serve_tenant_shed",
            Counter::ServeShardPasses => "serve_shard_passes",
            Counter::ServeShardParks => "serve_shard_parks",
            Counter::ServeInline => "serve_inline",
            Counter::ChaosInjected => "chaos_injected",
        }
    }
}

/// Well-known gauges (last-written-wins values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Worker threads chosen by the most recent `run_measurements` or
    /// `decide_two_sided` call.
    RunnerThreads,
    /// Requests waiting in the `dut serve` dispatch queue (sampled at
    /// each enqueue/dequeue). Written only while the queue lock is
    /// held, so the published depth always matches the queue it
    /// describes (the PR 6 gauge race).
    // dut-lint: guarded_by(queue)
    ServeQueueDepth,
    /// Persistent connections currently parked on the `dut serve`
    /// shard loops (accepted and not yet closed).
    ServeConnections,
}

impl Gauge {
    const COUNT: usize = 3;

    /// All gauges, in slot order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::RunnerThreads,
        Gauge::ServeQueueDepth,
        Gauge::ServeConnections,
    ];

    /// The stable name used in trace snapshots.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::RunnerThreads => "runner_threads",
            Gauge::ServeQueueDepth => "serve_queue_depth",
            Gauge::ServeConnections => "serve_connections",
        }
    }
}

/// Well-known histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Wall-clock microseconds of each `run_measurements` or
    /// `decide_two_sided` batch.
    TrialBatchMicros,
    /// Wall-clock microseconds of each search probe.
    ProbeMicros,
    /// Samples drawn per protocol execution.
    RunSamples,
    /// Wall-clock microseconds per `dut serve` request (parse through
    /// reply write).
    RequestMicros,
    /// Microseconds a *request* waited in the `dut serve` dispatch
    /// queue between parse and worker pickup (the queue phase). Only
    /// queued requests count: a cache hit answered inline on its shard
    /// never queued and records nothing here. Before the request-level
    /// scheduler this recorded whole-connection queueing, which
    /// inflated the p99 by the connection's lifetime.
    QueueWaitMicros,
    /// Microseconds spent preparing (calibrating) a tester on a
    /// `dut serve` cache miss (the calibrate phase).
    CalibrateMicros,
    /// Microseconds spent running a served request's trials against a
    /// resolved tester (the compute phase).
    ComputeMicros,
}

impl HistogramId {
    const COUNT: usize = 7;

    /// All histograms, in slot order.
    pub const ALL: [HistogramId; HistogramId::COUNT] = [
        HistogramId::TrialBatchMicros,
        HistogramId::ProbeMicros,
        HistogramId::RunSamples,
        HistogramId::RequestMicros,
        HistogramId::QueueWaitMicros,
        HistogramId::CalibrateMicros,
        HistogramId::ComputeMicros,
    ];

    /// The stable name used in trace snapshots.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::TrialBatchMicros => "trial_batch_micros",
            HistogramId::ProbeMicros => "probe_micros",
            HistogramId::RunSamples => "run_samples",
            HistogramId::RequestMicros => "request_micros",
            HistogramId::QueueWaitMicros => "queue_wait_micros",
            HistogramId::CalibrateMicros => "calibrate_micros",
            HistogramId::ComputeMicros => "compute_micros",
        }
    }
}

/// Number of power-of-two buckets: bucket `b` holds values with
/// `bucket_index(v) == b`, i.e. `0`, then `[2^(b-1), 2^b)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index of a value: `0` for `0`, else `1 + floor(log2 v)`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The smallest value landing in bucket `index`.
#[must_use]
pub fn bucket_low(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// The largest value landing in bucket `index` (inclusive). Bucket 0
/// holds only the value 0, so its high edge equals its low edge.
#[must_use]
pub fn bucket_high(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// An interpolated quantile over `(bucket_low, count)` pairs from a
/// log-bucketed histogram (the shape [`Histogram::nonzero_buckets`]
/// and [`HistogramSnapshot::buckets`] produce).
///
/// The rank `ceil(p · count)` (clamped to `1..=count`) selects a
/// bucket; the estimate interpolates linearly across that bucket's
/// `[low, high]` span by the rank's position inside the bucket, so the
/// result is monotone in `p` and always bracketed by the bucket
/// bounds. When every observation landed in one bucket, `sum / count`
/// is the better estimator (exact whenever all observations share one
/// value), clamped to the bucket's bounds.
///
/// Returns 0.0 on an empty histogram.
#[must_use]
pub fn quantile_from_buckets(buckets: &[(u64, u64)], count: u64, sum: u64, p: f64) -> f64 {
    if count == 0 || buckets.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    let target = ((count as f64 * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64).min(count);
    if let [(low, n)] = buckets {
        if *n > 0 {
            // Single-bucket data: the mean is inside the bucket by
            // construction and exact when all observations are equal.
            #[allow(clippy::cast_precision_loss)]
            let mean = sum as f64 / *n as f64;
            let index = bucket_index(*low);
            #[allow(clippy::cast_precision_loss)]
            return mean.clamp(*low as f64, bucket_high(index) as f64);
        }
    }
    let mut seen = 0u64;
    for &(low, n) in buckets {
        if n == 0 {
            continue;
        }
        if seen + n >= target {
            let index = bucket_index(low);
            let (lo, hi) = (low, bucket_high(index));
            // Position of the target rank inside this bucket, mapped
            // to the bucket midpoints (rank r of n sits at fraction
            // (r - 1/2) / n), so the estimate never touches the next
            // bucket's low edge and stays monotone across buckets.
            #[allow(clippy::cast_precision_loss)]
            let frac = ((target - seen) as f64 - 0.5) / n as f64;
            #[allow(clippy::cast_precision_loss)]
            return lo as f64 + frac * (hi - lo) as f64;
        }
        seen += n;
    }
    #[allow(clippy::cast_precision_loss)]
    buckets.last().map_or(0.0, |&(low, _)| low as f64)
}

/// A log-bucketed histogram with atomic buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (all buckets zero).
    #[must_use]
    pub const fn new() -> Self {
        // `AtomicU64` is not Copy; build the array with a const block.
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Observation count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// An interpolated quantile of the recorded observations; see
    /// [`quantile_from_buckets`] for the estimator.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        quantile_from_buckets(&self.nonzero_buckets(), self.count(), self.sum(), p)
    }

    /// Non-empty buckets as `(bucket_low, count)` pairs.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_low(i), n))
            })
            .collect()
    }
}

/// The metrics registry: fixed atomic slots for every well-known
/// metric. All methods are `&self` and lock-free.
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    histograms: [Histogram; HistogramId::COUNT],
}

impl Registry {
    /// An all-zero registry.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            gauges: [const { AtomicU64::new(0) }; Gauge::COUNT],
            histograms: [const { Histogram::new() }; HistogramId::COUNT],
        }
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Reads a counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Reads a gauge.
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    /// Records a histogram observation.
    pub fn observe(&self, histogram: HistogramId, value: u64) {
        self.histograms[histogram as usize].record(value);
    }

    /// Access to a histogram's current state.
    #[must_use]
    pub fn histogram(&self, histogram: HistogramId) -> &Histogram {
        &self.histograms[histogram as usize]
    }

    /// A plain-data copy of every metric, for serialization.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.counter(c)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), self.gauge(g)))
                .collect(),
            histograms: HistogramId::ALL
                .iter()
                .map(|&h| {
                    let hist = self.histogram(h);
                    HistogramSnapshot {
                        name: h.name(),
                        count: hist.count(),
                        sum: hist.sum(),
                        buckets: hist.nonzero_buckets(),
                    }
                })
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Stable metric name.
    pub name: &'static str,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// `(bucket_low, count)` pairs for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// An interpolated quantile of the captured observations; see
    /// [`quantile_from_buckets`] for the estimator.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        quantile_from_buckets(&self.buckets, self.count, self.sum, p)
    }

    /// The observations this snapshot has beyond `earlier` (bucket-wise
    /// saturating subtraction). With `earlier` a prefix of the same
    /// metric's history, the delta is exactly the observations recorded
    /// between the two snapshots.
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let base: std::collections::BTreeMap<u64, u64> = earlier.buckets.iter().copied().collect();
        HistogramSnapshot {
            name: self.name,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .filter_map(|&(low, n)| {
                    let left = n.saturating_sub(base.get(&low).copied().unwrap_or(0));
                    (left > 0).then_some((low, left))
                })
                .collect(),
        }
    }
}

/// Plain-data view of the whole registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// An all-zero snapshot with every well-known metric name present
    /// (the identity element of [`Snapshot::delta`]).
    #[must_use]
    pub fn zero() -> Snapshot {
        Registry::new().snapshot()
    }

    /// A named counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        let name = counter.name();
        self.counters
            .iter()
            .find_map(|&(n, v)| (n == name).then_some(v))
            .unwrap_or(0)
    }

    /// A named gauge's value (0 when absent).
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        let name = gauge.name();
        self.gauges
            .iter()
            .find_map(|&(n, v)| (n == name).then_some(v))
            .unwrap_or(0)
    }

    /// A named histogram's summary, if present.
    #[must_use]
    pub fn histogram(&self, histogram: HistogramId) -> Option<&HistogramSnapshot> {
        let name = histogram.name();
        self.histograms.iter().find(|h| h.name == name)
    }

    /// What this snapshot accumulated beyond `earlier`: counters and
    /// histograms subtract (saturating, element-wise), gauges keep this
    /// snapshot's (latest) value — a gauge is a level, not a flow.
    ///
    /// With `earlier` captured before `self` on the same registry, the
    /// delta is exactly the activity between the two captures; this is
    /// what the windowed-metrics ring serves.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let base_counter = |name: &str| -> u64 {
            earlier
                .counters
                .iter()
                .find_map(|&(n, v)| (n == name).then_some(v))
                .unwrap_or(0)
        };
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|&(name, v)| (name, v.saturating_sub(base_counter(name))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| {
                    earlier
                        .histograms
                        .iter()
                        .find(|e| e.name == h.name)
                        .map_or_else(|| h.clone(), |e| h.delta(e))
                })
                .collect(),
        }
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry used by instrumented crates.
#[must_use]
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..HISTOGRAM_BUCKETS {
            // Every bucket's low edge maps back to that bucket.
            assert_eq!(bucket_index(bucket_low(i)), i, "bucket {i}");
            // One below the low edge lands strictly lower.
            assert!(bucket_index(bucket_low(i) - 1) < i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_accumulates() {
        let h = Histogram::new();
        for v in [0, 1, 1, 3, 8, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 22);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (2, 1), (8, 2)]);
    }

    #[test]
    fn registry_counters_and_gauges() {
        let r = Registry::new();
        r.incr(Counter::NetRuns);
        r.add(Counter::SamplesDrawn, 40);
        assert_eq!(r.counter(Counter::NetRuns), 1);
        assert_eq!(r.counter(Counter::SamplesDrawn), 40);
        r.set_gauge(Gauge::RunnerThreads, 8);
        assert_eq!(r.gauge(Gauge::RunnerThreads), 8);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        r.incr(Counter::TrialsRun);
                        r.observe(HistogramId::RunSamples, 5);
                    }
                });
            }
        });
        assert_eq!(r.counter(Counter::TrialsRun), 80_000);
        assert_eq!(r.histogram(HistogramId::RunSamples).count(), 80_000);
        assert_eq!(r.histogram(HistogramId::RunSamples).sum(), 400_000);
    }

    #[test]
    fn bucket_high_meets_next_low() {
        assert_eq!(bucket_high(0), 0);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_high(i) + 1, bucket_low(i + 1), "bucket {i}");
            assert_eq!(bucket_index(bucket_high(i)), i, "bucket {i}");
        }
        assert_eq!(bucket_high(64), u64::MAX);
    }

    #[test]
    fn quantile_is_exact_on_constant_data() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(37);
        }
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert!((h.quantile(p) - 37.0).abs() < 1e-9, "p={p}");
        }
        let zeros = Histogram::new();
        zeros.record(0);
        zeros.record(0);
        assert!(zeros.quantile(0.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_monotone_and_bracketed() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 10, 20, 100, 1000, 5000] {
            h.record(v);
        }
        let mut last = f64::MIN;
        for i in 0..=20 {
            let p = f64::from(i) / 20.0;
            let q = h.quantile(p);
            assert!(q >= last, "quantile not monotone at p={p}: {q} < {last}");
            assert!((0.0..=8192.0).contains(&q), "out of range at p={p}: {q}");
            last = q;
        }
        // The 4th of 8 sorted values is 10, inside the [8,15] bucket.
        let p50 = h.quantile(0.5);
        assert!((8.0..=15.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn empty_quantile_is_zero() {
        let h = Histogram::new();
        assert!(h.quantile(0.5).abs() < 1e-9);
        assert!(quantile_from_buckets(&[], 0, 0, 0.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_histograms() {
        let r = Registry::new();
        r.add(Counter::ServeRequests, 5);
        r.observe(HistogramId::RequestMicros, 10);
        r.set_gauge(Gauge::ServeQueueDepth, 2);
        let earlier = r.snapshot();
        r.add(Counter::ServeRequests, 7);
        r.observe(HistogramId::RequestMicros, 10);
        r.observe(HistogramId::RequestMicros, 500);
        r.set_gauge(Gauge::ServeQueueDepth, 9);
        let delta = r.snapshot().delta(&earlier);
        assert_eq!(delta.counter(Counter::ServeRequests), 7);
        // Gauges are levels: the delta keeps the latest value.
        assert_eq!(delta.gauge(Gauge::ServeQueueDepth), 9);
        let hist = delta.histogram(HistogramId::RequestMicros).unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 510);
        assert_eq!(hist.buckets, vec![(8, 1), (256, 1)]);
        // Delta against itself is empty.
        let snap = r.snapshot();
        let none = snap.delta(&snap);
        assert_eq!(none.counter(Counter::ServeRequests), 0);
        assert_eq!(none.histogram(HistogramId::RequestMicros).unwrap().count, 0);
    }

    #[test]
    fn snapshot_carries_all_names() {
        let r = Registry::new();
        r.add(Counter::BitsSent, 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), Counter::ALL.len());
        assert!(snap.counters.contains(&("bits_sent", 3)));
        assert_eq!(snap.histograms.len(), HistogramId::ALL.len());
    }
}
