//! The recorder: routes events to sinks, tracks spans, and owns the
//! enabled/verbosity fast-path flags.

use crate::json::Json;
use crate::metrics;
use crate::sink::{JsonlSink, Sink};
use crate::trace::Event;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A cheap, cloneable handle to the tracing pipeline.
///
/// With no sinks installed every `emit_with` / `span` call reduces to
/// one relaxed atomic load (plus an `Instant::now` for spans), so
/// instrumented hot paths cost near-zero when tracing is off.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    verbose: AtomicBool,
    sinks: RwLock<Vec<Arc<dyn Sink>>>,
    epoch: Instant,
}

impl std::fmt::Debug for dyn Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sink")
    }
}

impl Recorder {
    /// A disabled recorder with no sinks.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                verbose: AtomicBool::new(false),
                sinks: RwLock::new(Vec::new()),
                epoch: Instant::now(),
            }),
        }
    }

    /// Whether any sink is installed (the fast-path check).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Whether per-execution (high-volume) events should be emitted.
    #[must_use]
    pub fn is_verbose(&self) -> bool {
        self.inner.verbose.load(Ordering::Relaxed)
    }

    /// Enables or disables per-execution events.
    pub fn set_verbose(&self, verbose: bool) {
        self.inner.verbose.store(verbose, Ordering::Relaxed);
    }

    /// Installs a sink and enables the recorder.
    pub fn install_sink(&self, sink: Arc<dyn Sink>) {
        self.inner.sinks.write().push(sink);
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Removes all sinks and disables the recorder (mainly for tests).
    pub fn clear_sinks(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
        self.inner.sinks.write().clear();
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        for sink in self.inner.sinks.read().iter() {
            sink.flush();
        }
    }

    /// Microseconds since this recorder was created.
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Emits an event (timestamping it) if any sink is installed.
    pub fn emit(&self, event: Event) {
        if !self.is_enabled() {
            return;
        }
        self.emit_now(event);
    }

    /// Emits lazily: `build` runs only when a sink is installed, so
    /// disabled tracing pays no field formatting.
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if !self.is_enabled() {
            return;
        }
        self.emit_now(build());
    }

    /// Like [`emit_with`](Self::emit_with), but only at verbose level
    /// (per-execution events).
    pub fn emit_verbose_with(&self, build: impl FnOnce() -> Event) {
        if !self.is_enabled() || !self.is_verbose() {
            return;
        }
        self.emit_now(build());
    }

    fn emit_now(&self, mut event: Event) {
        event.ts_micros = self.now_micros();
        for sink in self.inner.sinks.read().iter() {
            sink.record(&event);
        }
    }

    /// Starts a span; its wall time is recorded as a `"span"` event
    /// when the returned guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            recorder: self.clone(),
            name,
            fields: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Emits a `"metrics"` snapshot event of the global registry.
    pub fn emit_metrics_snapshot(&self) {
        self.emit_with(|| snapshot_event(&metrics::global().snapshot()));
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard measuring one span; see [`Recorder::span`].
#[derive(Debug)]
pub struct Span {
    recorder: Recorder,
    name: &'static str,
    fields: Vec<(&'static str, Json)>,
    start: Instant,
}

impl Span {
    /// Attaches a field to the span's closing event.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.fields.push((key, value.into()));
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recorder.is_enabled() {
            return;
        }
        let elapsed = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut event = Event::new("span")
            .with("name", self.name)
            .with("elapsed_us", elapsed);
        event.fields.append(&mut self.fields);
        self.recorder.emit_now(event);
    }
}

/// Builds the `"metrics"` event from a registry snapshot.
#[must_use]
pub fn snapshot_event(snapshot: &metrics::Snapshot) -> Event {
    let values = |named: &[(&'static str, u64)]| {
        Json::obj(named.iter().map(|&(name, value)| (name, value.into())))
    };
    let histograms = snapshot.histograms.iter().map(|hist| {
        let buckets = hist
            .buckets
            .iter()
            .map(|&(low, count)| Json::Arr(vec![low.into(), count.into()]));
        let summary = Json::obj([
            ("count", hist.count.into()),
            ("sum", hist.sum.into()),
            ("buckets", Json::Arr(buckets.collect())),
        ]);
        (hist.name, summary)
    });
    Event::new("metrics")
        .with("counters", values(&snapshot.counters))
        .with("gauges", values(&snapshot.gauges))
        .with("histograms", Json::obj(histograms))
}

/// Builds the one-time `clock_anchor` event binding this process's
/// `Instant`-relative trace timestamps to the wall clock.
///
/// Recorder timestamps are microseconds since the recorder's own
/// creation, which makes traces from different processes (server and
/// loadgen, say) mutually unalignable. The anchor carries the wall
/// clock (`unix_micros`) observed at a known trace time (`ts_us`,
/// stamped at emit), so `dut report` can shift every trace onto the
/// shared wall-clock axis: `wall = ts_us + (unix_micros − anchor.ts_us)`.
#[must_use]
pub fn clock_anchor_event() -> Event {
    // dut-lint: allow(nondet-rng): the anchor's entire purpose is to record the wall clock — it binds deterministic trace time to real time for cross-process alignment and feeds no experiment logic
    let unix_micros = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    Event::new("clock_anchor")
        .with("unix_micros", unix_micros)
        .with("pid", u64::from(std::process::id()))
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();
static ENV_INIT: OnceLock<Option<String>> = OnceLock::new();

/// The process-wide recorder used by instrumented crates.
#[must_use]
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Installs a JSONL sink on the global recorder if `DUT_TRACE` names a
/// path, and enables verbose per-execution events if
/// `DUT_TRACE_VERBOSE` is `1`/`true`. Idempotent: only the first call
/// acts. Returns the trace path if one was installed.
pub fn init_from_env() -> Option<String> {
    ENV_INIT
        .get_or_init(|| {
            let path = std::env::var("DUT_TRACE").ok().filter(|p| !p.is_empty())?;
            match JsonlSink::create(&path) {
                Ok(sink) => {
                    let recorder = global();
                    recorder.install_sink(Arc::new(sink));
                    if matches!(
                        std::env::var("DUT_TRACE_VERBOSE").as_deref(),
                        Ok("1" | "true")
                    ) {
                        recorder.set_verbose(true);
                    }
                    // One-time wall-clock anchor so multi-process
                    // traces can be aligned by `dut report`.
                    recorder.emit(clock_anchor_event());
                    Some(path)
                }
                Err(error) => {
                    // dut-lint: allow(println): the trace sink itself failed to open, so no obs channel exists to carry this diagnostic — stderr is the fallback of last resort
                    eprintln!("warning: cannot open DUT_TRACE file `{path}`: {error}");
                    None
                }
            }
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_recorder_drops_events() {
        let r = Recorder::new();
        r.emit(Event::new("x"));
        r.emit_with(|| panic!("must not build when disabled"));
        assert!(!r.is_enabled());
    }

    #[test]
    fn events_reach_installed_sink_with_timestamps() {
        let r = Recorder::new();
        let sink = Arc::new(MemorySink::new());
        r.install_sink(sink.clone());
        r.emit(Event::new("first"));
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.emit(Event::new("second"));
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(events[1].ts_micros > events[0].ts_micros);
    }

    #[test]
    fn verbose_gating() {
        let r = Recorder::new();
        let sink = Arc::new(MemorySink::new());
        r.install_sink(sink.clone());
        r.emit_verbose_with(|| Event::new("hot"));
        assert!(sink.is_empty(), "verbose events suppressed by default");
        r.set_verbose(true);
        r.emit_verbose_with(|| Event::new("hot"));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn span_records_elapsed() {
        let r = Recorder::new();
        let sink = Arc::new(MemorySink::new());
        r.install_sink(sink.clone());
        {
            let _span = r.span("unit.work").with("k", 4u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = sink.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "span");
        assert_eq!(events[0].field("name"), Some(&Json::from("unit.work")));
        let Some(Json::Uint(us)) = events[0].field("elapsed_us") else {
            panic!("missing elapsed_us");
        };
        assert!(*us >= 1_000, "elapsed {us}us");
        assert_eq!(events[0].field("k"), Some(&Json::Uint(4)));
    }

    #[test]
    fn snapshot_event_is_valid_json() {
        let registry = metrics::Registry::new();
        registry.add(metrics::Counter::SamplesDrawn, 7);
        registry.observe(metrics::HistogramId::RunSamples, 7);
        let event = snapshot_event(&registry.snapshot());
        let parsed = crate::json::parse(&event.to_json_line()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("samples_drawn"))
                .and_then(crate::json::Json::as_u64),
            Some(7)
        );
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("run_samples"))
            .unwrap();
        assert_eq!(
            hist.get("count").and_then(crate::json::Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn snapshot_event_keeps_its_bytes() {
        let registry = metrics::Registry::new();
        registry.add(metrics::Counter::SamplesDrawn, 64);
        registry.add(metrics::Counter::ServeRequests, 3);
        registry.set_gauge(metrics::Gauge::ServeQueueDepth, 5);
        for micros in [5, 300, 70_000] {
            registry.observe(metrics::HistogramId::RequestMicros, micros);
        }
        registry.observe(metrics::HistogramId::QueueWaitMicros, 1);
        assert_eq!(
            snapshot_event(&registry.snapshot()).to_json_line(),
            r#"{"event":"metrics","ts_us":0,"counters":{"net_runs":0,"samples_drawn":64,"bits_sent":0,"verdict_accept":0,"verdict_reject":0,"faults_crashed":0,"faults_messages_lost":0,"fault_retries":0,"redundant_bits":0,"byzantine_flips":0,"recovered_bits":0,"fault_timeouts":0,"trials_run":0,"trials_skipped":0,"search_probes":0,"sweep_fits":0,"serve_requests":3,"serve_cache_hits":0,"serve_cache_misses":0,"serve_shed":0,"serve_malformed":0,"serve_reaped":0,"serve_error_budget":0,"serve_panics_caught":0,"serve_backend_per_draw":0,"serve_backend_histogram":0,"serve_coalesced":0,"serve_tenant_shed":0,"serve_shard_passes":0,"serve_shard_parks":0,"serve_inline":0,"chaos_injected":0},"gauges":{"runner_threads":0,"serve_queue_depth":5,"serve_connections":0},"histograms":{"trial_batch_micros":{"count":0,"sum":0,"buckets":[]},"probe_micros":{"count":0,"sum":0,"buckets":[]},"run_samples":{"count":0,"sum":0,"buckets":[]},"request_micros":{"count":3,"sum":70305,"buckets":[[4,1],[256,1],[65536,1]]},"queue_wait_micros":{"count":1,"sum":1,"buckets":[[1,1]]},"calibrate_micros":{"count":0,"sum":0,"buckets":[]},"compute_micros":{"count":0,"sum":0,"buckets":[]}}}"#
        );
    }

    #[test]
    fn clock_anchor_carries_wall_clock() {
        let event = clock_anchor_event();
        assert_eq!(event.name, "clock_anchor");
        let Some(Json::Uint(unix)) = event.field("unix_micros") else {
            panic!("missing unix_micros");
        };
        // Sanity: after 2020-01-01 in microseconds.
        assert!(*unix > 1_577_836_800_000_000, "unix_micros {unix}");
        assert!(event.field("pid").is_some());
    }

    #[test]
    fn clear_sinks_disables() {
        let r = Recorder::new();
        r.install_sink(Arc::new(MemorySink::new()));
        assert!(r.is_enabled());
        r.clear_sinks();
        assert!(!r.is_enabled());
    }
}
