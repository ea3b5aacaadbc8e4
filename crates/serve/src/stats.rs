//! The `{"cmd":"stats"}` reply: cumulative totals, windowed rates and
//! quantiles, and SLO status in one JSON line.
//!
//! Built server-side by [`gather`] from the global metrics registry,
//! the windowed [`SnapshotRing`](dut_obs::window::SnapshotRing), and
//! the configured [`SloConfig`]; parsed client-side by
//! [`Stats::parse`] (the `dut top` dashboard and the loadgen's
//! `--stats-check` both consume it). All numbers cross the wire
//! through shortest-round-trip `f64` formatting, so a parsed reply
//! reproduces the server's values exactly.

use dut_obs::json::{self, Json};
use dut_obs::metrics::{Counter, Gauge, HistogramId, Snapshot};
use dut_obs::slo::{self, SloConfig};
use std::fmt::Write as _;

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
    /// Cumulative malformed lines (unparseable or over the byte cap).
    pub malformed: u64,
    /// Cumulative connections reaped for idleness / slowloris drips.
    pub reaped: u64,
    /// Cumulative connections closed for exhausting the error budget.
    pub error_budget_closed: u64,
    /// Cumulative requests whose resolved backend was the per-draw
    /// engine (the cost model's pick for their `(n, q)`).
    pub backend_per_draw: u64,
    /// Cumulative requests whose resolved backend was the histogram
    /// engine.
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
    /// Configured p99 latency target, microseconds.
    pub p99_target_micros: u64,
    /// Configured shed-rate budget.
    pub max_shed_rate: f64,
    /// Per-tenant admission rows (empty when tenancy is unused; the
    /// wire object is omitted entirely in that case).
    pub tenants: Vec<TenantStat>,
}

fn hist_quantile(delta: &Snapshot, id: HistogramId, p: f64) -> f64 {
    delta.histogram(id).map_or(0.0, |h| h.quantile(p))
}

/// Assembles a stats reply from the global registry and windowed
/// ring. Ticks the ring first so an idle server still rolls its
/// epochs forward (otherwise windows would only advance under load).
#[must_use]
pub fn gather(cached_testers: u64, slo_config: &SloConfig) -> Stats {
    let registry = dut_obs::metrics::global();
    let now = dut_obs::global().now_micros();
    let ring = dut_obs::window::global();
    ring.maybe_capture(registry, now);
    let short = ring.window(registry, now, SHORT_WINDOW_MICROS);
    let long = ring.window(registry, now, LONG_WINDOW_MICROS);
    let status = slo::evaluate(&short.delta, &long.delta, slo_config);
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
        p99_target_micros: slo_config.p99_target_micros,
        max_shed_rate: slo_config.max_shed_rate,
        // The tenant table lives in the server, not the registry; the
        // caller attaches its snapshot.
        tenants: Vec::new(),
    }
}

/// Renders the `{"cmd":"flight"}` reply: the retained event count and
/// the recorder's ring as a JSON array, one line total.
#[must_use]
pub fn render_flight(recorder: &dut_obs::FlightRecorder) -> String {
    let dump = recorder.dump_json();
    let mut out = String::with_capacity(dump.len() + 32);
    let _ = write!(out, "{{\"flight\":{dump},\"retained\":{}}}", recorder.len());
    out
}

impl Stats {
    /// Renders the wire line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"stats\":{{\"uptime_us\":{},\"queue_depth\":{},\"connections\":{},\"cached_testers\":{}",
            self.uptime_micros, self.queue_depth, self.connections, self.cached_testers
        );
        let _ = write!(
            out,
            ",\"cumulative\":{{\"requests\":{},\"shed\":{},\"coalesced\":{},\"tenant_shed\":{},\"cache_hits\":{},\"cache_misses\":{},\"malformed\":{},\"reaped\":{},\"error_budget_closed\":{},\"backend_per_draw\":{},\"backend_histogram\":{},\"shard_passes\":{},\"shard_parks\":{}}}",
            self.requests, self.shed, self.coalesced, self.tenant_shed,
            self.cache_hits, self.cache_misses,
            self.malformed, self.reaped, self.error_budget_closed,
            self.backend_per_draw, self.backend_histogram,
            self.shard_passes, self.shard_parks
        );
        let _ = write!(out, ",\"window\":{{\"span_us\":{}", self.window_micros);
        let field = |out: &mut String, key: &str, value: f64| {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            json::write_f64(out, value);
        };
        field(&mut out, "req_per_sec", self.req_per_sec);
        field(&mut out, "shed_per_sec", self.shed_per_sec);
        field(&mut out, "hit_ratio", self.hit_ratio);
        field(&mut out, "p50_us", self.p50_micros);
        field(&mut out, "p95_us", self.p95_micros);
        field(&mut out, "p99_us", self.p99_micros);
        field(&mut out, "queue_wait_p99_us", self.queue_wait_p99);
        field(&mut out, "calibrate_p99_us", self.calibrate_p99);
        field(&mut out, "compute_p99_us", self.compute_p99);
        out.push('}');
        let _ = write!(
            out,
            ",\"slo\":{{\"healthy\":{},\"latency_breach\":{},\"shed_breach\":{}",
            self.slo_healthy, self.latency_breach, self.shed_breach
        );
        field(&mut out, "latency_burn_short", self.latency_burn_short);
        field(&mut out, "latency_burn_long", self.latency_burn_long);
        field(&mut out, "shed_burn_short", self.shed_burn_short);
        field(&mut out, "shed_burn_long", self.shed_burn_long);
        let _ = write!(out, ",\"p99_target_us\":{}", self.p99_target_micros);
        field(&mut out, "max_shed_rate", self.max_shed_rate);
        out.push('}');
        if !self.tenants.is_empty() {
            out.push_str(",\"tenants\":{");
            for (index, tenant) in self.tenants.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                json::write_escaped(&mut out, &tenant.name);
                let _ = write!(
                    out,
                    ":{{\"requests\":{},\"shed\":{}}}",
                    tenant.requests, tenant.shed
                );
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a stats wire line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a stats reply.
    pub fn parse(line: &str) -> Result<Stats, String> {
        let doc = json::parse(line)?;
        let stats = doc.get("stats").ok_or("missing `stats` object")?;
        let u = |node: &Json, key: &str| node.get(key).and_then(Json::as_u64).unwrap_or(0);
        let f = |node: &Json, key: &str| node.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let b = |node: &Json, key: &str| node.get(key) == Some(&Json::Bool(true));
        let cumulative = stats.get("cumulative").ok_or("missing `cumulative`")?;
        let window = stats.get("window").ok_or("missing `window`")?;
        let slo = stats.get("slo").ok_or("missing `slo`")?;
        let tenants = stats
            .get("tenants")
            .and_then(Json::as_obj)
            .map(|rows| {
                rows.iter()
                    .map(|(name, row)| TenantStat {
                        name: name.clone(),
                        requests: u(row, "requests"),
                        shed: u(row, "shed"),
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(Stats {
            uptime_micros: u(stats, "uptime_us"),
            queue_depth: u(stats, "queue_depth"),
            connections: u(stats, "connections"),
            cached_testers: u(stats, "cached_testers"),
            requests: u(cumulative, "requests"),
            shed: u(cumulative, "shed"),
            coalesced: u(cumulative, "coalesced"),
            tenant_shed: u(cumulative, "tenant_shed"),
            cache_hits: u(cumulative, "cache_hits"),
            cache_misses: u(cumulative, "cache_misses"),
            // `unwrap_or(0)` keeps stats lines from older servers
            // parseable: the hardening counters simply read zero.
            malformed: u(cumulative, "malformed"),
            reaped: u(cumulative, "reaped"),
            error_budget_closed: u(cumulative, "error_budget_closed"),
            backend_per_draw: u(cumulative, "backend_per_draw"),
            backend_histogram: u(cumulative, "backend_histogram"),
            shard_passes: u(cumulative, "shard_passes"),
            shard_parks: u(cumulative, "shard_parks"),
            window_micros: u(window, "span_us"),
            req_per_sec: f(window, "req_per_sec"),
            shed_per_sec: f(window, "shed_per_sec"),
            hit_ratio: f(window, "hit_ratio"),
            p50_micros: f(window, "p50_us"),
            p95_micros: f(window, "p95_us"),
            p99_micros: f(window, "p99_us"),
            queue_wait_p99: f(window, "queue_wait_p99_us"),
            calibrate_p99: f(window, "calibrate_p99_us"),
            compute_p99: f(window, "compute_p99_us"),
            slo_healthy: b(slo, "healthy"),
            latency_breach: b(slo, "latency_breach"),
            shed_breach: b(slo, "shed_breach"),
            latency_burn_short: f(slo, "latency_burn_short"),
            latency_burn_long: f(slo, "latency_burn_long"),
            shed_burn_short: f(slo, "shed_burn_short"),
            shed_burn_long: f(slo, "shed_burn_long"),
            p99_target_micros: u(slo, "p99_target_us"),
            max_shed_rate: f(slo, "max_shed_rate"),
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
    fn stats_round_trip_exactly() {
        let stats = sample();
        let line = stats.render();
        let back = Stats::parse(&line).unwrap();
        assert_eq!(back, stats);
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
    fn parse_rejects_non_stats_lines() {
        assert!(Stats::parse("{\"verdict\":\"accept\"}").is_err());
        assert!(Stats::parse("nope").is_err());
    }

    #[test]
    fn gather_reads_the_global_registry() {
        let registry = dut_obs::metrics::global();
        registry.incr(Counter::ServeRequests);
        let stats = gather(2, &SloConfig::default());
        assert!(stats.requests >= 1);
        assert_eq!(stats.cached_testers, 2);
        assert_eq!(stats.p99_target_micros, 250_000);
        // A render/parse of live data round-trips too.
        assert_eq!(Stats::parse(&stats.render()).unwrap(), stats);
    }
}
