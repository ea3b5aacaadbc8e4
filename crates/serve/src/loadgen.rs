//! Load generation against a running server.
//!
//! Every run is one arrival schedule spread over a pool of lanes, each
//! lane one persistent connection, and one lane loop serves them all.
//! An arrival is a [`TraceEvent`]: its due offset, lane, catalog index,
//! seed and optional tenant. The schedule comes from one of two places:
//!
//! * **Open loop** (no trace): request `i` goes on lane `i mod conns`,
//!   is due at `i/rps`, and takes its seed from [`request_for_index`].
//!   Arrivals are computed lazily as the lane reaches them, so memory
//!   does not grow with `rps × duration`. Sending stops at wall-clock
//!   `duration`.
//! * **Trace replay**: the arrivals of a [`Trace`] file, with their
//!   recorded lanes, offsets, seeds and tenants. Every event is sent.
//!
//! Pacing follows the schedule, not reply arrival, so the generator
//! stays open-loop: a slow server falls behind the schedule and the
//! achieved-throughput number says so, instead of the generator
//! politely slowing down and hiding the problem (coordinated
//! omission). With `pipeline > 1` a lane writes a window of its next
//! arrivals in one syscall once the window's first arrival is due.
//!
//! Each reply is timed twice. Its *service time* runs from the
//! window's write. Its *response time* runs from the earlier of its
//! own due time and that write, so a stall that delays the next window
//! shows up in the response time of every arrival it held back.
//!
//! With `verify_offline` set, every reply is also checked for
//! bit-identity against a local [`Engine`]
//! evaluating the same request — the service's determinism contract,
//! enforced from the outside.

use crate::client;
use crate::engine::Engine;
use crate::protocol::{self, Family, ReplyLine, Request};
use crate::stats::Stats;
use crate::trace::{Trace, TraceEvent};
use dut_core::Rule;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A shed-free [`smoke_failures`] run must show a server queue-wait
/// p99 below this (microseconds): with per-request scheduling, a
/// healthy queue drains in well under 10ms.
pub const SANE_QUEUE_WAIT_MICROS: f64 = 10_000.0;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7979`.
    pub addr: String,
    /// Target request rate (requests per second, across all
    /// connections).
    pub rps: u64,
    /// How long to generate load.
    pub duration: Duration,
    /// Persistent connections (= sender threads).
    pub connections: usize,
    /// Requests each lane keeps in flight per connection: the lane
    /// writes a window of this many request lines in one syscall,
    /// then drains the same number of replies. `1` is strict
    /// closed-loop; deeper windows amortize syscalls on both sides
    /// of the wire (the server frames pipelined lines natively).
    pub pipeline: usize,
    /// Check every reply against a local engine for bit-identity.
    pub verify_offline: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7979".to_owned(),
            rps: 500,
            duration: Duration::from_secs(2),
            connections: 4,
            pipeline: 1,
            verify_offline: false,
        }
    }
}

/// What a load-generation run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests written to the sockets.
    pub sent: u64,
    /// Well-formed test replies received.
    pub replies: u64,
    /// `overloaded` replies received.
    pub shed: u64,
    /// Error replies, malformed replies, and transport failures.
    pub errors: u64,
    /// Replies disagreeing with the local engine (0 unless
    /// `verify_offline`).
    pub mismatches: u64,
    /// Wall-clock time from first send to last reply.
    pub elapsed: Duration,
    /// Replies per second actually achieved.
    pub achieved_rps: f64,
    /// Median service time in microseconds: from the window's write
    /// to the reply.
    pub p50_micros: u64,
    /// 95th-percentile service time in microseconds.
    pub p95_micros: u64,
    /// 99th-percentile service time in microseconds.
    pub p99_micros: u64,
    /// Median response time in microseconds: from the earlier of the
    /// arrival's due time and the window's write, to the reply.
    pub response_p50_micros: u64,
    /// 99th-percentile response time in microseconds.
    pub response_p99_micros: u64,
}

/// The request mix: four distinct configurations (distinct cache
/// keys, covering every rule) cycled per request index, with the
/// seed varying so trial randomness differs request to request.
/// Small domains keep a single request far below a millisecond, so
/// throughput measures the service, not the math.
#[must_use]
pub fn catalog() -> Vec<Request> {
    vec![
        Request {
            n: 64,
            k: 8,
            q: 8,
            eps: 0.5,
            rule: Rule::Balanced,
            family: Family::Uniform,
            seed: 0,
            trials: 1,
        },
        Request {
            n: 128,
            k: 8,
            q: 10,
            eps: 0.5,
            rule: Rule::TThreshold { t: 2 },
            family: Family::TwoLevel,
            seed: 0,
            trials: 1,
        },
        Request {
            n: 64,
            k: 4,
            q: 6,
            eps: 0.9,
            rule: Rule::And,
            family: Family::Alternating,
            seed: 0,
            trials: 1,
        },
        Request {
            n: 256,
            k: 1,
            q: 32,
            eps: 0.5,
            rule: Rule::Centralized,
            family: Family::Zipf,
            seed: 0,
            trials: 1,
        },
    ]
}

/// The request for global index `i`: catalog entry `i % len`, seed
/// drawn from a small rotating pool so the server sees repeated
/// (configuration, seed) pairs — which is what makes offline
/// verification cheap (the verifier memoizes per distinct request).
#[must_use]
pub fn request_for_index(i: u64, catalog: &[Request]) -> Request {
    let mut req = catalog[usize::try_from(i % catalog.len() as u64).unwrap_or(0)];
    req.seed = 1000 + (i % 64);
    req
}

/// One reply's two clocks, in microseconds.
#[derive(Debug, Clone, Copy)]
struct ReplyTimes {
    /// From the window's write.
    service: u64,
    /// From the earlier of the arrival's due time and the write.
    response: u64,
}

impl ReplyTimes {
    /// Times the reply read at `replied_at` to an arrival due at `due`
    /// and written at `sent_at`. A pipelined arrival can be written
    /// before it is due, and then both clocks start at the write.
    fn of(due: Instant, sent_at: Instant, replied_at: Instant) -> Self {
        let micros = |from: Instant| {
            u64::try_from(replied_at.saturating_duration_since(from).as_micros())
                .unwrap_or(u64::MAX)
        };
        ReplyTimes {
            service: micros(sent_at),
            response: micros(due.min(sent_at)),
        }
    }
}

#[derive(Default)]
struct Tally {
    sent: u64,
    replies: u64,
    shed: u64,
    errors: u64,
    mismatches: u64,
    latencies: Vec<ReplyTimes>,
}

/// Runs the generator and aggregates the report: the open loop when
/// `trace` is `None`, otherwise a replay of the trace's arrivals.
///
/// # Errors
///
/// Returns an error if no connection could be established; transport
/// errors after that are counted, not fatal.
pub fn run(config: &LoadgenConfig, trace: Option<&Trace>) -> Result<LoadgenReport, String> {
    let catalog = catalog();
    // Fail fast if the server is not there at all.
    let probe = TcpStream::connect(&config.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", config.addr))?;
    drop(probe);
    let verifier = config
        .verify_offline
        .then(|| Engine::new(catalog.len() * 2));
    let verifier = verifier.as_ref();
    let lanes = trace
        .map_or(config.connections as u64, |trace| trace.lanes)
        .max(1);
    let rps = config.rps.max(1);
    let total = Mutex::new(Tally::default());
    let start = Instant::now();
    // The open loop stops sending at wall-clock `duration`; a replay
    // sends every recorded arrival.
    let stop_at = trace.is_none().then(|| start + config.duration);
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            let catalog = &catalog;
            let total = &total;
            scope.spawn(move || {
                let arrivals = lane_arrivals(trace, lane, lanes, rps, catalog);
                let tally = lane_loop(config, catalog, verifier, arrivals, start, stop_at);
                let mut total = total.lock();
                total.sent += tally.sent;
                total.replies += tally.replies;
                total.shed += tally.shed;
                total.errors += tally.errors;
                total.mismatches += tally.mismatches;
                total.latencies.extend(tally.latencies);
            });
        }
    });
    Ok(finish_report(total.into_inner(), start.elapsed()))
}

/// The arrivals of `lane` out of `lanes`, in order: the trace's events
/// on that lane, or else the open loop's requests `lane, lane + lanes,
/// …`, request `i` due at `i/rps`, computed as the lane reaches them.
fn lane_arrivals<'a>(
    trace: Option<&'a Trace>,
    lane: u64,
    lanes: u64,
    rps: u64,
    catalog: &'a [Request],
) -> Box<dyn Iterator<Item = TraceEvent> + 'a> {
    match trace {
        Some(trace) => Box::new(
            trace
                .events
                .iter()
                .filter(move |event| event.lane % lanes == lane)
                .cloned(),
        ),
        None => Box::new(
            (lane..)
                .step_by(usize::try_from(lanes).unwrap_or(1))
                .map(move |index| TraceEvent {
                    at_micros: index.saturating_mul(1_000_000) / rps,
                    lane,
                    index,
                    seed: request_for_index(index, catalog).seed,
                    tenant: None,
                }),
        ),
    }
}

/// The `p`-th percentile of an ascending slice (0 when empty).
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Folds a run's tally into the final report (sorts each clock once).
#[allow(clippy::cast_precision_loss)] // reply counts → rps display
fn finish_report(total: Tally, elapsed: Duration) -> LoadgenReport {
    let sorted = |clock: fn(&ReplyTimes) -> u64| {
        let mut micros: Vec<u64> = total.latencies.iter().map(clock).collect();
        micros.sort_unstable();
        micros
    };
    let service = sorted(|t| t.service);
    let response = sorted(|t| t.response);
    LoadgenReport {
        sent: total.sent,
        replies: total.replies,
        shed: total.shed,
        errors: total.errors,
        mismatches: total.mismatches,
        elapsed,
        achieved_rps: if elapsed.as_secs_f64() > 0.0 {
            total.replies as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        p50_micros: percentile(&service, 50),
        p95_micros: percentile(&service, 95),
        p99_micros: percentile(&service, 99),
        response_p50_micros: percentile(&response, 50),
        response_p99_micros: percentile(&response, 99),
    }
}

/// One lane: one persistent connection carrying `arrivals` in order.
/// Once a window's first arrival is due, the lane writes the window
/// (up to `pipeline` arrivals) in one syscall, then reads the window's
/// replies — the server's per-connection sequencing returns them in
/// send order even when the work completes out of order. No window
/// starts after `stop_at`. Each reply is timed by [`ReplyTimes::of`].
fn lane_loop(
    config: &LoadgenConfig,
    catalog: &[Request],
    verifier: Option<&Engine>,
    arrivals: impl Iterator<Item = TraceEvent>,
    start: Instant,
    stop_at: Option<Instant>,
) -> Tally {
    let mut tally = Tally::default();
    let mut arrivals = arrivals.peekable();
    // A replay lane with no arrivals never connects.
    if arrivals.peek().is_none() {
        return tally;
    }
    let Ok(stream) = TcpStream::connect(&config.addr) else {
        tally.errors += 1;
        return tally;
    };
    let _ = stream.set_read_timeout(Some(client::REPLY_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        tally.errors += 1;
        return tally;
    };
    let pipeline = config.pipeline.max(1);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut batch = String::new();
    let mut window: Vec<(Request, Instant)> = Vec::with_capacity(pipeline);
    while let Some(first) = arrivals.peek() {
        let due = start + Duration::from_micros(first.at_micros);
        let now = Instant::now();
        if stop_at.is_some_and(|stop| now >= stop) {
            break;
        }
        if due > now {
            std::thread::sleep(due - now);
        }
        batch.clear();
        window.clear();
        for event in arrivals.by_ref().take(pipeline) {
            let mut request = request_for_index(event.index, catalog);
            request.seed = event.seed;
            batch.push_str(&match &event.tenant {
                Some(tenant) => protocol::render_request_tenant(&request, tenant),
                None => protocol::render_request(&request),
            });
            batch.push('\n');
            window.push((request, start + Duration::from_micros(event.at_micros)));
        }
        let sent_at = Instant::now();
        if writer.write_all(batch.as_bytes()).is_err() {
            tally.errors += 1;
            break;
        }
        tally.sent += window.len() as u64;
        for (request, due) in &window {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    tally.errors += 1;
                    return tally;
                }
                Ok(_) => {
                    let times = ReplyTimes::of(*due, sent_at, Instant::now());
                    record_reply(&mut tally, line.trim(), request, verifier, times);
                }
            }
        }
    }
    tally
}

fn record_reply(
    tally: &mut Tally,
    line: &str,
    request: &Request,
    verifier: Option<&Engine>,
    times: ReplyTimes,
) {
    match ReplyLine::parse(line) {
        Ok(ReplyLine::Reply(reply)) => {
            tally.replies += 1;
            tally.latencies.push(times);
            if let Some(engine) = verifier {
                match engine.handle(request) {
                    Ok(expected) if expected.same_answer(&reply) => {}
                    _ => tally.mismatches += 1,
                }
            }
        }
        Ok(ReplyLine::Overloaded) => tally.shed += 1,
        Ok(ReplyLine::Error(_) | ReplyLine::ShutdownAck) | Err(_) => tally.errors += 1,
    }
}

/// Connects, sends one `{"cmd":"stats"}`, and parses the reply.
///
/// # Errors
///
/// Returns an error if the server cannot be reached or the reply is
/// not a stats line.
pub fn fetch_stats(addr: &str) -> Result<Stats, String> {
    Stats::parse(&client::exchange(addr, "{\"cmd\":\"stats\"}")?)
}

/// Server-side accounting cross-checked against the client's tally.
#[derive(Debug, Clone)]
pub struct StatsCheck {
    /// Stats snapshot taken before the first request was sent.
    pub pre: Stats,
    /// Stats snapshot taken after the last reply was read.
    pub post: Stats,
    /// Successful mid-load stats polls (the server answered admin
    /// commands while under load).
    pub mid_polls: u64,
    /// Human-readable inconsistencies; empty means the check passed.
    pub failures: Vec<String>,
}

impl StatsCheck {
    /// Whether every consistency assertion held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares a pre/post stats delta against the client-side report.
/// The deltas make the check robust to whatever traffic the server
/// saw before this run — but they assume *this* loadgen was the only
/// source of `run` traffic in between.
#[must_use]
pub fn check_consistency(pre: &Stats, post: &Stats, report: &LoadgenReport) -> Vec<String> {
    let mut failures = Vec::new();
    let served = post.requests.saturating_sub(pre.requests);
    if served != report.replies {
        failures.push(format!(
            "server answered {served} requests but loadgen saw {} replies",
            report.replies
        ));
    }
    let hits = post.cache_hits.saturating_sub(pre.cache_hits);
    let misses = post.cache_misses.saturating_sub(pre.cache_misses);
    if hits + misses != served {
        failures.push(format!(
            "cache lookups ({hits} hits + {misses} misses) != {served} requests served"
        ));
    }
    let inline = post.inline.saturating_sub(pre.inline);
    if inline > hits {
        failures.push(format!(
            "{inline} inline answers exceed the {hits} cache hits they are a subset of"
        ));
    }
    if post.shed.saturating_sub(pre.shed) < report.shed {
        failures.push(format!(
            "server counted {} sheds but loadgen received {} overloaded replies",
            post.shed.saturating_sub(pre.shed),
            report.shed
        ));
    }
    if !(post.p50_micros <= post.p95_micros && post.p95_micros <= post.p99_micros) {
        failures.push(format!(
            "windowed quantiles out of order: p50 {} p95 {} p99 {}",
            post.p50_micros, post.p95_micros, post.p99_micros
        ));
    }
    if served > 0 && post.p99_micros <= 0.0 {
        failures.push("requests were served but windowed p99 is zero".to_owned());
    }
    // Queue-wait sanity: with per-request scheduling, a run that shed
    // nothing must show a queue-wait p99 below the latency target.
    // (Under the old connection-pinned dispatch this number was the
    // whole-connection queue time and blew past the target on
    // perfectly healthy runs.)
    #[allow(clippy::cast_precision_loss)]
    let target = post.p99_target_micros as f64;
    if post.shed.saturating_sub(pre.shed) == 0
        && served > 0
        && target > 0.0
        && post.queue_wait_p99 >= target
    {
        failures.push(format!(
            "queue-wait p99 {}us reached the {}us latency target on a shed-free run — per-request scheduling delay should be far below it",
            post.queue_wait_p99, post.p99_target_micros
        ));
    }
    failures
}

/// Runs the generator with the stats cross-check wrapped around it:
/// snapshot before, poll `{"cmd":"stats"}` from a side thread during
/// the run (proving the admin plane answers under load), snapshot
/// after, and compare the server's accounting to the client's.
///
/// # Errors
///
/// Returns an error when the server is unreachable or a stats
/// snapshot fails; accounting *inconsistencies* are reported in the
/// returned [`StatsCheck`], not as errors.
pub fn run_checked(
    config: &LoadgenConfig,
    trace: Option<&Trace>,
) -> Result<(LoadgenReport, StatsCheck), String> {
    let pre = fetch_stats(&config.addr)?;
    let stop = AtomicBool::new(false);
    let mid_polls = AtomicU64::new(0);
    let report = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if fetch_stats(&config.addr).is_ok() {
                    mid_polls.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let report = run(config, trace);
        stop.store(true, Ordering::Relaxed);
        let _ = poller.join();
        report
    })?;
    let post = fetch_stats(&config.addr)?;
    let failures = check_consistency(&pre, &post, &report);
    Ok((
        report,
        StatsCheck {
            pre,
            post,
            mid_polls: mid_polls.load(Ordering::Relaxed),
            failures,
        },
    ))
}

/// The `dut loadgen --smoke` gate over one run and its stats
/// cross-check: sustained throughput with zero sheds, zero errors,
/// zero offline disagreements, a client service-time p99 under 50ms
/// and, on a shed-free run, a server queue-wait p99 under
/// [`SANE_QUEUE_WAIT_MICROS`]. The cross-check's own failures stay in
/// [`StatsCheck::failures`]; an empty result means the gate passed.
#[must_use]
pub fn smoke_failures(report: &LoadgenReport, check: &StatsCheck) -> Vec<String> {
    let mut failures = Vec::new();
    if report.achieved_rps < 20_000.0 {
        failures.push(format!(
            "achieved {:.0} req/s, smoke floor is 20000",
            report.achieved_rps
        ));
    }
    if report.shed > 0 {
        failures.push(format!(
            "{} requests shed below the queue bound",
            report.shed
        ));
    }
    if report.errors > 0 {
        failures.push(format!("{} transport/protocol errors", report.errors));
    }
    if report.mismatches > 0 {
        failures.push(format!(
            "{} replies disagreed with the offline engine",
            report.mismatches
        ));
    }
    if report.p99_micros > 50_000 {
        failures.push(format!(
            "p99 service time {}us exceeds the 50ms smoke bound",
            report.p99_micros
        ));
    }
    let queue_wait = check.post.queue_wait_p99;
    if report.shed == 0 && queue_wait >= SANE_QUEUE_WAIT_MICROS {
        failures.push(format!(
            "queue-wait p99 {queue_wait}us on a shed-free run (must be < {SANE_QUEUE_WAIT_MICROS}us)"
        ));
    }
    failures
}

/// Connects, sends `{"cmd":"shutdown"}`, and waits for the ack.
///
/// # Errors
///
/// Returns an error if the server cannot be reached or never acks.
pub fn send_shutdown(addr: &str) -> Result<(), String> {
    match ReplyLine::parse(&client::exchange(addr, "{\"cmd\":\"shutdown\"}")?)? {
        ReplyLine::ShutdownAck => Ok(()),
        other => Err(format!("unexpected shutdown reply: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_distinct_cache_keys() {
        use crate::engine::CacheKey;
        let catalog = catalog();
        let keys: std::collections::BTreeSet<_> = catalog.iter().map(CacheKey::of).collect();
        assert_eq!(keys.len(), catalog.len());
    }

    #[test]
    fn index_mapping_cycles_and_reseeds() {
        let catalog = catalog();
        let a = request_for_index(0, &catalog);
        let b = request_for_index(4, &catalog);
        // Same configuration, different seed.
        assert_eq!(
            crate::engine::CacheKey::of(&a),
            crate::engine::CacheKey::of(&b)
        );
        assert_ne!(a.seed, b.seed);
        let c = request_for_index(1, &catalog);
        assert_ne!(
            crate::engine::CacheKey::of(&a),
            crate::engine::CacheKey::of(&c)
        );
    }

    #[test]
    fn unreachable_server_is_an_error() {
        let config = LoadgenConfig {
            // Port 1 on loopback: refused immediately, no server.
            addr: "127.0.0.1:1".to_owned(),
            duration: Duration::from_millis(10),
            ..LoadgenConfig::default()
        };
        assert!(run(&config, None).is_err());
        assert!(send_shutdown(&config.addr).is_err());
        assert!(fetch_stats(&config.addr).is_err());
        assert!(run_checked(&config, None).is_err());
    }

    #[test]
    fn reply_times_start_response_at_the_earlier_of_due_and_write() {
        let t0 = Instant::now();
        let at = |micros| t0 + Duration::from_micros(micros);
        // Written 300us late: the response clock also counts the wait.
        let late = ReplyTimes::of(at(0), at(300), at(1_000));
        assert_eq!((late.service, late.response), (700, 1_000));
        // Pipelined ahead of its due time: both clocks start at the write.
        let early = ReplyTimes::of(at(500), at(300), at(1_000));
        assert_eq!((early.service, early.response), (700, 700));
    }

    /// Replays `arrivals` on one lane of depth 8 against a live server
    /// and returns every reply's times.
    fn pipelined_reply_times(arrivals: Vec<TraceEvent>) -> Vec<ReplyTimes> {
        let handle = crate::server::start(&crate::server::ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            ..crate::server::ServeConfig::default()
        })
        .expect("server starts on an ephemeral port");
        let config = LoadgenConfig {
            addr: handle.local_addr().to_string(),
            pipeline: 8,
            ..LoadgenConfig::default()
        };
        let expected = arrivals.len() as u64;
        let tally = lane_loop(
            &config,
            &catalog(),
            None,
            arrivals.into_iter(),
            Instant::now(),
            None,
        );
        handle.request_shutdown();
        handle.join();
        assert_eq!((tally.errors, tally.replies), (0, expected));
        tally.latencies
    }

    #[test]
    fn pipelined_response_time_never_undercuts_service_time() {
        let event = |index: u64, at_micros| TraceEvent {
            at_micros,
            lane: 0,
            index,
            seed: 1000 + index,
            tenant: None,
        };
        // Paced arrivals: seven of every eight are written before due.
        let paced = pipelined_reply_times((0..32).map(|i| event(i, i * 500)).collect());
        // A burst all due at once: every window after the first waits for
        // the one ahead of it, which only the response clock counts.
        let burst = pipelined_reply_times((0..32).map(|i| event(i, 0)).collect());
        for times in paced.iter().chain(&burst) {
            assert!(times.response >= times.service, "{times:?}");
        }
        assert!(
            burst.iter().any(|t| t.response > t.service),
            "the burst's held-back windows must show their wait: {burst:?}"
        );
    }

    fn report() -> LoadgenReport {
        LoadgenReport {
            sent: 100,
            replies: 90,
            shed: 10,
            errors: 0,
            mismatches: 0,
            elapsed: Duration::from_secs(2),
            achieved_rps: 45.0,
            p50_micros: 100,
            p95_micros: 300,
            p99_micros: 900,
            response_p50_micros: 120,
            response_p99_micros: 1_100,
        }
    }

    #[test]
    fn smoke_requires_a_sane_queue_wait_on_shed_free_runs() {
        let shed_free = LoadgenReport {
            sent: 60_000,
            replies: 60_000,
            shed: 0,
            achieved_rps: 30_000.0,
            ..report()
        };
        let check = |queue_wait_p99| StatsCheck {
            pre: Stats::default(),
            post: Stats {
                queue_wait_p99,
                ..Stats::default()
            },
            mid_polls: 1,
            failures: Vec::new(),
        };
        let healthy = check(500.0);
        assert!(smoke_failures(&shed_free, &healthy).is_empty());
        // The committed v1 baseline's value, from the era of
        // connection-pinned dispatch.
        let mismeasured = check(1_572_863.5);
        let failures = smoke_failures(&shed_free, &mismeasured);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("queue-wait"), "{failures:?}");
        // A run that shed is allowed a backed-up queue (the shed
        // itself fails the gate).
        let failures = smoke_failures(&report(), &mismeasured);
        assert!(
            !failures.iter().any(|f| f.contains("queue-wait")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("requests shed")),
            "{failures:?}"
        );
    }

    #[test]
    fn consistency_flags_an_insane_queue_wait() {
        let pre = Stats::default();
        let post = Stats {
            requests: 100,
            cache_hits: 100,
            p50_micros: 50.0,
            p95_micros: 80.0,
            p99_micros: 95.0,
            queue_wait_p99: 1_572_863.5,
            p99_target_micros: 250_000,
            ..Stats::default()
        };
        let report = LoadgenReport {
            sent: 100,
            replies: 100,
            shed: 0,
            elapsed: Duration::from_secs(1),
            ..LoadgenReport::default()
        };
        let failures = check_consistency(&pre, &post, &report);
        assert!(
            failures.iter().any(|f| f.contains("queue-wait")),
            "{failures:?}"
        );
        let sane = Stats {
            queue_wait_p99: 900.0,
            ..post
        };
        assert!(check_consistency(&pre, &sane, &report).is_empty());
    }

    #[test]
    fn trace_replay_partitions_events_by_lane() {
        // Replay against nothing: unreachable server is an error, but
        // the trace machinery itself is exercised via generate/parse
        // round trips in `trace::tests`; here we only pin the error
        // path so `--trace` against a dead server fails loudly.
        let trace = crate::trace::generate(&crate::trace::TraceConfig {
            duration: Duration::from_millis(20),
            ..crate::trace::TraceConfig::default()
        });
        let config = LoadgenConfig {
            addr: "127.0.0.1:1".to_owned(),
            ..LoadgenConfig::default()
        };
        assert!(run(&config, Some(&trace)).is_err());
    }

    #[test]
    fn consistency_check_compares_deltas() {
        let pre = Stats {
            requests: 10,
            cache_hits: 6,
            cache_misses: 4,
            ..Stats::default()
        };
        let post = Stats {
            requests: 100,
            cache_hits: 80,
            cache_misses: 20,
            shed: 10,
            p50_micros: 50.0,
            p95_micros: 80.0,
            p99_micros: 95.0,
            ..Stats::default()
        };
        let report = LoadgenReport {
            replies: 90,
            shed: 10,
            ..report()
        };
        assert!(check_consistency(&pre, &post, &report).is_empty());
        // A lost reply shows up as a request-count mismatch.
        let short = LoadgenReport {
            replies: 89,
            ..report
        };
        let failures = check_consistency(&pre, &post, &short);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("89"));
        // Broken cache accounting is its own failure.
        let bad_cache = Stats {
            cache_hits: 70,
            ..post.clone()
        };
        let failures = check_consistency(&pre, &bad_cache, &report);
        assert!(failures.iter().any(|f| f.contains("cache lookups")));
        // Inline answers are cache hits: at most as many as the hits.
        let inline = |n: u64| Stats {
            inline: 5 + n,
            ..post.clone()
        };
        let pre = Stats { inline: 5, ..pre };
        assert!(check_consistency(&pre, &inline(74), &report).is_empty());
        let failures = check_consistency(&pre, &inline(75), &report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("75 inline"), "{failures:?}");
    }
}
