//! The `{"cmd":"stats"}` reply: cumulative totals, windowed rates and
//! quantiles, and SLO status in one JSON line.
//!
//! Built server-side by [`gather`] from the global metrics registry,
//! the windowed [`SnapshotRing`](dut_obs::window::SnapshotRing), and
//! the SLO targets in [`dut_obs::slo`]; parsed client-side by
//! [`Stats::parse`] (the `dut top` dashboard and the loadgen's
//! `--stats-check` both consume it). All numbers cross the wire
//! through shortest-round-trip `f64` formatting, so a parsed reply
//! reproduces the server's values exactly.

use dut_obs::json::{self, Json};
use dut_obs::metrics::{Counter, Gauge, HistogramId, Snapshot};
use dut_obs::slo;

/// Short burn-rate / quantile window: the "still happening" signal.
pub const SHORT_WINDOW_MICROS: u64 = 10 * 1_000_000;
/// Long burn-rate window: the "sustained, not a blip" signal.
pub const LONG_WINDOW_MICROS: u64 = 60 * 1_000_000;

/// One tenant's row in the stats reply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStat {
    /// Tenant id as it appears on the wire.
    pub name: String,
    /// Requests this tenant had admitted since boot.
    pub requests: u64,
    /// Requests shed at this tenant's quota since boot.
    pub shed: u64,
}

/// One stats reply, flattened for easy consumption.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Microseconds since the server's recorder epoch.
    pub uptime_micros: u64,
    /// Requests waiting in the dispatch queue right now.
    pub queue_depth: u64,
    /// Persistent connections currently parked on the shard loops.
    pub connections: u64,
    /// Prepared testers resident in the LRU.
    pub cached_testers: u64,
    /// Cumulative requests answered since boot.
    pub requests: u64,
    /// Cumulative requests shed since boot (global cap + tenant
    /// quotas combined).
    pub shed: u64,
    /// Cumulative requests whose cache lookup joined a tester build
    /// already in flight for another request (a subset of
    /// `cache_hits`).
    pub coalesced: u64,
    /// Cumulative requests shed by per-tenant admission (a subset of
    /// `shed`).
    pub tenant_shed: u64,
    /// Cumulative tester-cache hits since boot.
    pub cache_hits: u64,
    /// Cumulative tester-cache misses since boot.
    pub cache_misses: u64,
    /// Cumulative cache hits answered on the shard thread that framed
    /// them, never queued for a worker (a subset of `cache_hits`).
    pub inline: u64,
    /// Cumulative malformed lines (unparseable or over the byte cap).
    pub malformed: u64,
    /// Cumulative connections reaped for idleness / slowloris drips.
    pub reaped: u64,
    /// Cumulative connections closed for exhausting the error budget.
    pub error_budget_closed: u64,
    /// Cumulative computed requests. Every trial draws through the
    /// alias sampler's per-draw kernel, so every computed request
    /// counts here.
    pub backend_per_draw: u64,
    /// Always 0: no served trial draws on the histogram engine. The
    /// field stays in the schema until the benchmark, which reads it,
    /// drops it.
    pub backend_histogram: u64,
    /// Cumulative shard-loop service passes since boot.
    pub shard_passes: u64,
    /// Cumulative times a shard loop parked in `poll(2)` since boot.
    pub shard_parks: u64,
    /// Actual span of the short window, microseconds.
    pub window_micros: u64,
    /// Requests per second over the short window.
    pub req_per_sec: f64,
    /// Sheds per second over the short window.
    pub shed_per_sec: f64,
    /// Cache hit ratio over the short window (0 when no lookups).
    pub hit_ratio: f64,
    /// Windowed request-latency quantiles, microseconds.
    pub p50_micros: f64,
    /// 95th percentile over the short window.
    pub p95_micros: f64,
    /// 99th percentile over the short window.
    pub p99_micros: f64,
    /// Windowed p99 of the queue-wait phase.
    pub queue_wait_p99: f64,
    /// Windowed p99 of the calibrate phase (miss builds).
    pub calibrate_p99: f64,
    /// Windowed p99 of the compute phase.
    pub compute_p99: f64,
    /// No SLO currently breached.
    pub slo_healthy: bool,
    /// Latency burn exceeds threshold in both windows.
    pub latency_breach: bool,
    /// Shed burn exceeds threshold in both windows.
    pub shed_breach: bool,
    /// Latency-budget burn over the short window.
    pub latency_burn_short: f64,
    /// Latency-budget burn over the long window.
    pub latency_burn_long: f64,
    /// Shed-budget burn over the short window.
    pub shed_burn_short: f64,
    /// Shed-budget burn over the long window.
    pub shed_burn_long: f64,
    /// The p99 latency target, microseconds
    /// ([`slo::P99_TARGET_MICROS`]).
    pub p99_target_micros: u64,
    /// The shed-rate budget ([`slo::MAX_SHED_RATE`]).
    pub max_shed_rate: f64,
    /// One admission row per configured tenant quota (empty when no
    /// quota is configured; the wire object is omitted entirely in
    /// that case).
    pub tenants: Vec<TenantStat>,
}

fn hist_quantile(delta: &Snapshot, id: HistogramId, p: f64) -> f64 {
    delta.histogram(id).map_or(0.0, |h| h.quantile(p))
}

/// Assembles a stats reply from the global registry and windowed
/// ring. Ticks the ring first so an idle server still rolls its
/// epochs forward (otherwise windows would only advance under load).
#[must_use]
pub fn gather(cached_testers: u64) -> Stats {
    let registry = dut_obs::metrics::global();
    let now = dut_obs::global().now_micros();
    let ring = dut_obs::window::global();
    ring.maybe_capture(registry, now);
    let short = ring.window(registry, now, SHORT_WINDOW_MICROS);
    let long = ring.window(registry, now, LONG_WINDOW_MICROS);
    let status = slo::evaluate(&short.delta, &long.delta);
    let hits = short.delta.counter(Counter::ServeCacheHits);
    let misses = short.delta.counter(Counter::ServeCacheMisses);
    #[allow(clippy::cast_precision_loss)]
    let hit_ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    Stats {
        uptime_micros: now,
        queue_depth: registry.gauge(Gauge::ServeQueueDepth),
        connections: registry.gauge(Gauge::ServeConnections),
        cached_testers,
        requests: registry.counter(Counter::ServeRequests),
        shed: registry.counter(Counter::ServeShed),
        coalesced: registry.counter(Counter::ServeCoalesced),
        tenant_shed: registry.counter(Counter::ServeTenantShed),
        cache_hits: registry.counter(Counter::ServeCacheHits),
        cache_misses: registry.counter(Counter::ServeCacheMisses),
        inline: registry.counter(Counter::ServeInline),
        malformed: registry.counter(Counter::ServeMalformed),
        reaped: registry.counter(Counter::ServeReaped),
        error_budget_closed: registry.counter(Counter::ServeErrorBudget),
        backend_per_draw: registry.counter(Counter::ServeBackendPerDraw),
        backend_histogram: registry.counter(Counter::ServeBackendHistogram),
        shard_passes: registry.counter(Counter::ServeShardPasses),
        shard_parks: registry.counter(Counter::ServeShardParks),
        window_micros: short.span_micros,
        req_per_sec: short.rate_per_sec(Counter::ServeRequests),
        shed_per_sec: short.rate_per_sec(Counter::ServeShed),
        hit_ratio,
        p50_micros: hist_quantile(&short.delta, HistogramId::RequestMicros, 0.5),
        p95_micros: hist_quantile(&short.delta, HistogramId::RequestMicros, 0.95),
        p99_micros: hist_quantile(&short.delta, HistogramId::RequestMicros, 0.99),
        queue_wait_p99: hist_quantile(&short.delta, HistogramId::QueueWaitMicros, 0.99),
        calibrate_p99: hist_quantile(&short.delta, HistogramId::CalibrateMicros, 0.99),
        compute_p99: hist_quantile(&short.delta, HistogramId::ComputeMicros, 0.99),
        slo_healthy: status.healthy(),
        latency_breach: status.latency_breach,
        shed_breach: status.shed_breach,
        latency_burn_short: status.short.latency_burn,
        latency_burn_long: status.long.latency_burn,
        shed_burn_short: status.short.shed_burn,
        shed_burn_long: status.long.shed_burn,
        p99_target_micros: slo::P99_TARGET_MICROS,
        max_shed_rate: slo::MAX_SHED_RATE,
        // The tenant table lives in the server, not the registry; the
        // caller attaches its snapshot.
        tenants: Vec::new(),
    }
}

/// Renders the `{"cmd":"flight"}` reply: the recorder's ring as a
/// JSON array and the retained event count, one line total.
#[must_use]
pub fn render_flight(recorder: &dut_obs::FlightRecorder) -> String {
    json::to_string(&Json::obj([
        ("flight", recorder.dump_json()),
        ("retained", recorder.len().into()),
    ]))
}

impl Stats {
    /// Renders the wire line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let cumulative = Json::obj([
            ("requests", self.requests.into()),
            ("shed", self.shed.into()),
            ("coalesced", self.coalesced.into()),
            ("tenant_shed", self.tenant_shed.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("inline", self.inline.into()),
            ("malformed", self.malformed.into()),
            ("reaped", self.reaped.into()),
            ("error_budget_closed", self.error_budget_closed.into()),
            ("backend_per_draw", self.backend_per_draw.into()),
            ("backend_histogram", self.backend_histogram.into()),
            ("shard_passes", self.shard_passes.into()),
            ("shard_parks", self.shard_parks.into()),
        ]);
        let window = Json::obj([
            ("span_us", self.window_micros.into()),
            ("req_per_sec", self.req_per_sec.into()),
            ("shed_per_sec", self.shed_per_sec.into()),
            ("hit_ratio", self.hit_ratio.into()),
            ("p50_us", self.p50_micros.into()),
            ("p95_us", self.p95_micros.into()),
            ("p99_us", self.p99_micros.into()),
            ("queue_wait_p99_us", self.queue_wait_p99.into()),
            ("calibrate_p99_us", self.calibrate_p99.into()),
            ("compute_p99_us", self.compute_p99.into()),
        ]);
        let slo = Json::obj([
            ("healthy", self.slo_healthy.into()),
            ("latency_breach", self.latency_breach.into()),
            ("shed_breach", self.shed_breach.into()),
            ("latency_burn_short", self.latency_burn_short.into()),
            ("latency_burn_long", self.latency_burn_long.into()),
            ("shed_burn_short", self.shed_burn_short.into()),
            ("shed_burn_long", self.shed_burn_long.into()),
            ("p99_target_us", self.p99_target_micros.into()),
            ("max_shed_rate", self.max_shed_rate.into()),
        ]);
        let mut stats = Json::obj([
            ("uptime_us", self.uptime_micros.into()),
            ("queue_depth", self.queue_depth.into()),
            ("connections", self.connections.into()),
            ("cached_testers", self.cached_testers.into()),
            ("cumulative", cumulative),
            ("window", window),
            ("slo", slo),
        ]);
        if !self.tenants.is_empty() {
            let rows = self.tenants.iter().map(|tenant| {
                let row = Json::obj([
                    ("requests", tenant.requests.into()),
                    ("shed", tenant.shed.into()),
                ]);
                (tenant.name.clone().into(), row)
            });
            stats.push("tenants", Json::Obj(rows.collect()));
        }
        json::to_string(&Json::obj([("stats", stats)]))
    }

    /// Parses a stats wire line. Absent counters read zero, so stats
    /// lines from older servers stay parseable.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a stats reply.
    pub fn parse(line: &str) -> Result<Stats, String> {
        let doc = json::parse(line)?;
        let stats = doc.get("stats").ok_or("missing `stats` object")?;
        let cumulative = stats.get("cumulative").ok_or("missing `cumulative`")?;
        let window = stats.get("window").ok_or("missing `window`")?;
        let slo = stats.get("slo").ok_or("missing `slo`")?;
        let tenants = stats
            .get("tenants")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(name, row)| TenantStat {
                name: name.to_string(),
                requests: row.get_u64("requests").unwrap_or_default(),
                shed: row.get_u64("shed").unwrap_or_default(),
            })
            .collect();
        Ok(Stats {
            uptime_micros: stats.get_u64("uptime_us").unwrap_or_default(),
            queue_depth: stats.get_u64("queue_depth").unwrap_or_default(),
            connections: stats.get_u64("connections").unwrap_or_default(),
            cached_testers: stats.get_u64("cached_testers").unwrap_or_default(),
            requests: cumulative.get_u64("requests").unwrap_or_default(),
            shed: cumulative.get_u64("shed").unwrap_or_default(),
            coalesced: cumulative.get_u64("coalesced").unwrap_or_default(),
            tenant_shed: cumulative.get_u64("tenant_shed").unwrap_or_default(),
            cache_hits: cumulative.get_u64("cache_hits").unwrap_or_default(),
            cache_misses: cumulative.get_u64("cache_misses").unwrap_or_default(),
            inline: cumulative.get_u64("inline").unwrap_or_default(),
            malformed: cumulative.get_u64("malformed").unwrap_or_default(),
            reaped: cumulative.get_u64("reaped").unwrap_or_default(),
            error_budget_closed: cumulative
                .get_u64("error_budget_closed")
                .unwrap_or_default(),
            backend_per_draw: cumulative.get_u64("backend_per_draw").unwrap_or_default(),
            backend_histogram: cumulative.get_u64("backend_histogram").unwrap_or_default(),
            shard_passes: cumulative.get_u64("shard_passes").unwrap_or_default(),
            shard_parks: cumulative.get_u64("shard_parks").unwrap_or_default(),
            window_micros: window.get_u64("span_us").unwrap_or_default(),
            req_per_sec: window.get_f64("req_per_sec").unwrap_or_default(),
            shed_per_sec: window.get_f64("shed_per_sec").unwrap_or_default(),
            hit_ratio: window.get_f64("hit_ratio").unwrap_or_default(),
            p50_micros: window.get_f64("p50_us").unwrap_or_default(),
            p95_micros: window.get_f64("p95_us").unwrap_or_default(),
            p99_micros: window.get_f64("p99_us").unwrap_or_default(),
            queue_wait_p99: window.get_f64("queue_wait_p99_us").unwrap_or_default(),
            calibrate_p99: window.get_f64("calibrate_p99_us").unwrap_or_default(),
            compute_p99: window.get_f64("compute_p99_us").unwrap_or_default(),
            slo_healthy: slo.get_bool("healthy").unwrap_or_default(),
            latency_breach: slo.get_bool("latency_breach").unwrap_or_default(),
            shed_breach: slo.get_bool("shed_breach").unwrap_or_default(),
            latency_burn_short: slo.get_f64("latency_burn_short").unwrap_or_default(),
            latency_burn_long: slo.get_f64("latency_burn_long").unwrap_or_default(),
            shed_burn_short: slo.get_f64("shed_burn_short").unwrap_or_default(),
            shed_burn_long: slo.get_f64("shed_burn_long").unwrap_or_default(),
            p99_target_micros: slo.get_u64("p99_target_us").unwrap_or_default(),
            max_shed_rate: slo.get_f64("max_shed_rate").unwrap_or_default(),
            tenants,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stats {
        Stats {
            uptime_micros: 12_345_678,
            queue_depth: 3,
            connections: 17,
            cached_testers: 4,
            requests: 1_000,
            shed: 7,
            coalesced: 120,
            tenant_shed: 2,
            cache_hits: 950,
            cache_misses: 50,
            inline: 900,
            malformed: 11,
            reaped: 2,
            error_budget_closed: 1,
            backend_per_draw: 40,
            backend_histogram: 960,
            shard_passes: 2_150,
            shard_parks: 1_990,
            window_micros: 10_000_000,
            req_per_sec: 99.5,
            shed_per_sec: 0.25,
            hit_ratio: 0.95,
            p50_micros: 210.0,
            p95_micros: 480.5,
            p99_micros: 1_024.0,
            queue_wait_p99: 88.0,
            calibrate_p99: 45_000.0,
            compute_p99: 333.0,
            slo_healthy: false,
            latency_breach: true,
            shed_breach: false,
            latency_burn_short: 3.5,
            latency_burn_long: 2.5,
            shed_burn_short: 0.4,
            shed_burn_long: 0.1,
            p99_target_micros: 250_000,
            max_shed_rate: 0.05,
            tenants: Vec::new(),
        }
    }

    #[test]
    fn render_is_one_json_object() {
        let line = sample().render();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("cumulative"))
                .and_then(|c| c.get("requests"))
                .and_then(Json::as_u64),
            Some(1_000)
        );
    }

    #[test]
    fn tenants_round_trip_and_are_omitted_when_empty() {
        let mut stats = sample();
        assert!(
            !stats.render().contains("\"tenants\""),
            "no tenants → no wire object"
        );
        stats.tenants = vec![
            TenantStat {
                name: "alpha".to_owned(),
                requests: 40,
                shed: 0,
            },
            TenantStat {
                name: "metered".to_owned(),
                requests: 10,
                shed: 5,
            },
        ];
        let line = stats.render();
        let back = Stats::parse(&line).unwrap();
        assert_eq!(back, stats);
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("tenants"))
                .and_then(|t| t.get("metered"))
                .and_then(|m| m.get("shed"))
                .and_then(Json::as_u64),
            Some(5)
        );
    }

    #[test]
    fn stats_and_flight_lines_keep_their_bytes() {
        let mut stats = sample();
        assert_eq!(
            stats.render(),
            r#"{"stats":{"uptime_us":12345678,"queue_depth":3,"connections":17,"cached_testers":4,"cumulative":{"requests":1000,"shed":7,"coalesced":120,"tenant_shed":2,"cache_hits":950,"cache_misses":50,"inline":900,"malformed":11,"reaped":2,"error_budget_closed":1,"backend_per_draw":40,"backend_histogram":960,"shard_passes":2150,"shard_parks":1990},"window":{"span_us":10000000,"req_per_sec":99.5,"shed_per_sec":0.25,"hit_ratio":0.95,"p50_us":210,"p95_us":480.5,"p99_us":1024,"queue_wait_p99_us":88,"calibrate_p99_us":45000,"compute_p99_us":333},"slo":{"healthy":false,"latency_breach":true,"shed_breach":false,"latency_burn_short":3.5,"latency_burn_long":2.5,"shed_burn_short":0.4,"shed_burn_long":0.1,"p99_target_us":250000,"max_shed_rate":0.05}}}"#
        );
        stats.tenants = vec![
            TenantStat {
                name: "alpha".to_owned(),
                requests: 40,
                shed: 0,
            },
            TenantStat {
                name: "metered".to_owned(),
                requests: 10,
                shed: 5,
            },
        ];
        assert_eq!(
            stats.render(),
            r#"{"stats":{"uptime_us":12345678,"queue_depth":3,"connections":17,"cached_testers":4,"cumulative":{"requests":1000,"shed":7,"coalesced":120,"tenant_shed":2,"cache_hits":950,"cache_misses":50,"inline":900,"malformed":11,"reaped":2,"error_budget_closed":1,"backend_per_draw":40,"backend_histogram":960,"shard_passes":2150,"shard_parks":1990},"window":{"span_us":10000000,"req_per_sec":99.5,"shed_per_sec":0.25,"hit_ratio":0.95,"p50_us":210,"p95_us":480.5,"p99_us":1024,"queue_wait_p99_us":88,"calibrate_p99_us":45000,"compute_p99_us":333},"slo":{"healthy":false,"latency_breach":true,"shed_breach":false,"latency_burn_short":3.5,"latency_burn_long":2.5,"shed_burn_short":0.4,"shed_burn_long":0.1,"p99_target_us":250000,"max_shed_rate":0.05},"tenants":{"alpha":{"requests":40,"shed":0},"metered":{"requests":10,"shed":5}}}}"#
        );
        use dut_obs::{Event, FlightRecorder, Sink as _};
        let flight = FlightRecorder::new(3);
        assert_eq!(render_flight(&flight), r#"{"flight":[],"retained":0}"#);
        for i in 0..4u64 {
            let tick = Event::new("tick").with("i", i).with("r", 0.5);
            flight.record(&Event {
                ts_micros: i * 10,
                ..tick
            });
        }
        flight.record(&Event::new("named").with("s", "x\"y"));
        assert_eq!(
            render_flight(&flight),
            r#"{"flight":[{"event":"tick","ts_us":20,"i":2,"r":0.5},{"event":"tick","ts_us":30,"i":3,"r":0.5},{"event":"named","ts_us":0,"s":"x\"y"}],"retained":3}"#
        );
    }

    #[test]
    fn parse_rejects_non_stats_lines() {
        assert!(Stats::parse("{\"verdict\":\"accept\"}").is_err());
        assert!(Stats::parse("nope").is_err());
    }

    #[test]
    fn gather_reads_the_global_registry() {
        let registry = dut_obs::metrics::global();
        registry.incr(Counter::ServeRequests);
        let stats = gather(2);
        assert!(stats.requests >= 1);
        assert_eq!(stats.cached_testers, 2);
        assert_eq!(stats.p99_target_micros, 250_000);
        // A render/parse of live data round-trips too.
        assert_eq!(Stats::parse(&stats.render()).unwrap(), stats);
    }
}
