//! End-to-end telemetry tests: the stats and flight admin commands
//! against a live server, queue-depth gauge hygiene, the shed-burst
//! flight dump, and the `dut top` dashboard loop.
//!
//! The metrics registry and flight recorder are process-global, so
//! every test that generates `run` traffic (or compares counter
//! deltas) serializes on [`TRAFFIC`]; pure protocol tests and the
//! renderer tests stay parallel.

use dut_core::Rule;
use dut_serve::protocol::{render_request, Family, ReplyLine, Request};
use dut_serve::server::{self, ServeConfig, SHED_BURST_THRESHOLD};
use dut_serve::stats::Stats;
use dut_serve::{loadgen, top};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests whose counter-delta assertions would see each
/// other's traffic through the process-global registry.
static TRAFFIC: Mutex<()> = Mutex::new(());

fn start_server(workers: usize, queue_cap: usize) -> server::ServerHandle {
    server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        cache_cap: 16,
        queue_cap,
        ..ServeConfig::default()
    })
    .expect("server starts on an ephemeral port")
}

fn request() -> Request {
    Request {
        n: 64,
        k: 8,
        q: 8,
        eps: 0.5,
        rule: Rule::Balanced,
        family: Family::Uniform,
        seed: 7,
        trials: 1,
    }
}

fn connect(addr: &std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    reply.trim().to_owned()
}

#[test]
fn stats_accounting_is_exact_and_queue_drains() {
    let _traffic = TRAFFIC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let handle = start_server(2, 64);
    let addr = handle.local_addr();
    let pre = loadgen::fetch_stats(&addr.to_string()).expect("pre stats");
    let total = 25u64;
    {
        let (mut stream, mut reader) = connect(&addr);
        for _ in 0..total {
            let reply = send_line(&mut stream, &mut reader, &render_request(&request()));
            assert!(
                matches!(ReplyLine::parse(&reply), Ok(ReplyLine::Reply(_))),
                "unexpected reply: {reply}"
            );
        }
    }
    let post = loadgen::fetch_stats(&addr.to_string()).expect("post stats");
    // Server-side accounting matches the client exactly: every request
    // answered, every one a cache lookup, nothing left in the queue.
    assert_eq!(post.requests - pre.requests, total);
    assert_eq!(
        (post.cache_hits + post.cache_misses) - (pre.cache_hits + pre.cache_misses),
        total
    );
    assert_eq!(
        post.queue_depth, 0,
        "queue depth must return to 0 after drain"
    );
    assert!(post.uptime_micros >= pre.uptime_micros);
    handle.request_shutdown();
    handle.join();
}

#[test]
fn flight_command_dumps_the_ring() {
    let handle = start_server(1, 8);
    let (mut stream, mut reader) = connect(&handle.local_addr());
    let reply = send_line(&mut stream, &mut reader, "{\"cmd\":\"flight\"}");
    let doc = dut_obs::json::parse(&reply).expect("flight reply is JSON");
    let retained = doc
        .get("retained")
        .and_then(dut_obs::json::Json::as_u64)
        .expect("retained count");
    let events = match doc.get("flight") {
        Some(dut_obs::json::Json::Arr(items)) => items.len() as u64,
        other => panic!("flight is not an array: {other:?}"),
    };
    assert_eq!(retained, events);
    // The server's own serve_started event is in the ring, so a live
    // server never dumps empty.
    assert!(retained >= 1);
    drop(stream);
    handle.request_shutdown();
    handle.join();
}

/// A request heavy enough (a couple of seconds in either build
/// profile) to pin the single worker while queue pressure builds
/// behind it. Its cache key is distinct from [`request`]'s, so it
/// never shares a prepared tester with the light traffic.
fn slow_request() -> Request {
    // Debug builds run the trial loop roughly 8x slower; scale so the
    // pin lasts seconds in both profiles without wasting minutes. Each
    // trial draws k·q = 65,536 samples through the alias kernel (about
    // 0.4 ms in release).
    let trials = if cfg!(debug_assertions) { 800 } else { 6_000 };
    Request {
        n: 256,
        k: 64,
        q: 1024,
        eps: 0.5,
        rule: Rule::Balanced,
        family: Family::Uniform,
        seed: 11,
        trials,
    }
}

#[test]
fn shed_burst_triggers_a_flight_dump() {
    let _traffic = TRAFFIC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let sink = std::sync::Arc::new(dut_obs::MemorySink::new());
    dut_obs::global().install_sink(sink.clone());
    let handle = start_server(1, 1);
    let addr = handle.local_addr();
    // Pin the only worker with a slow request and fill the one queue
    // slot with a light one, both from the same connection. The pin
    // goes first and gets a head start: sent back to back, the
    // filler could be shed at the still-full queue instead of
    // occupying it.
    let (mut busy, mut busy_reader) = connect(&addr);
    writeln!(busy, "{}", render_request(&slow_request())).expect("pin send");
    std::thread::sleep(Duration::from_millis(200));
    writeln!(busy, "{}", render_request(&request())).expect("filler send");
    std::thread::sleep(Duration::from_millis(200));
    // ...then every further request is shed; enough consecutive
    // sheds cross the burst threshold and dump the flight recorder —
    // once per burst, even though the victim connection stays open
    // the whole time.
    let (mut victim, mut victim_reader) = connect(&addr);
    for _ in 0..(SHED_BURST_THRESHOLD + 2) {
        let line = send_line(&mut victim, &mut victim_reader, &render_request(&request()));
        assert!(
            matches!(ReplyLine::parse(&line), Ok(ReplyLine::Overloaded)),
            "expected overloaded, got: {line}"
        );
    }
    let dumps: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "flight_dump")
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one dump per burst");
    // Drain the pinned connection before shutdown.
    for _ in 0..2 {
        let mut line = String::new();
        busy_reader.read_line(&mut line).expect("busy reply");
        assert!(matches!(
            ReplyLine::parse(line.trim()),
            Ok(ReplyLine::Reply(_))
        ));
    }
    drop(busy);
    drop(victim);
    handle.request_shutdown();
    handle.join();
}

/// A cold herd shares one build: concurrent requests for one
/// uncached configuration, each on its own connection, reach at least
/// two workers, yet the single-flight cache calibrates the tester
/// once. Every request is still one cache lookup (hits + misses ==
/// requests), the requests that joined the build in flight are a
/// subset of the hits, and every reply is bit-identical to the
/// offline engine.
#[test]
fn cold_herd_builds_its_tester_once() {
    let _traffic = TRAFFIC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let handle = start_server(2, 64);
    let addr = handle.local_addr();
    let pre = loadgen::fetch_stats(&addr.to_string()).expect("pre stats");
    // A balanced-rule key whose 800-trial calibration takes long
    // enough for the herd to arrive while it is being built.
    let herd = Request {
        n: 1024,
        k: 64,
        q: 48,
        eps: 0.5,
        rule: Rule::Balanced,
        family: Family::Uniform,
        seed: 5,
        trials: 1,
    };
    let n = 8u64;
    let mut conns: Vec<_> = (0..n).map(|_| connect(&addr)).collect();
    for (stream, _reader) in &mut conns {
        writeln!(stream, "{}", render_request(&herd)).expect("herd send");
    }
    let offline = dut_serve::engine::offline_reply(&herd).expect("offline reference");
    for (_stream, reader) in &mut conns {
        let mut line = String::new();
        reader.read_line(&mut line).expect("herd reply");
        let ReplyLine::Reply(reply) = ReplyLine::parse(line.trim()).expect("parses") else {
            panic!("non-reply herd line: {line}");
        };
        assert!(reply.same_answer(&offline), "served {line} != offline");
    }
    let post = loadgen::fetch_stats(&addr.to_string()).expect("post stats");
    let requests = post.requests - pre.requests;
    let misses = post.cache_misses - pre.cache_misses;
    let hits = post.cache_hits - pre.cache_hits;
    assert_eq!(requests, n);
    assert_eq!(misses, 1, "one calibration for the whole herd");
    assert_eq!(hits + misses, requests, "one lookup per request");
    assert!(
        post.coalesced - pre.coalesced <= hits,
        "joins are a subset of the hits"
    );
    drop(conns);
    handle.request_shutdown();
    handle.join();
}

#[test]
fn top_renders_frames_from_a_live_server() {
    let handle = start_server(2, 16);
    let config = top::TopConfig {
        addr: handle.local_addr().to_string(),
        interval: Duration::from_millis(10),
        frames: Some(2),
        clear: true,
    };
    let mut out: Vec<u8> = Vec::new();
    top::run(&config, &mut out).expect("top runs");
    let text = String::from_utf8(out).expect("utf8 frames");
    assert_eq!(text.matches("dut top \u{2014}").count(), 2);
    // The second frame repaints in place.
    assert!(text.contains("\x1b[2J\x1b[H"));
    assert!(text.contains("req/s"));
    assert!(text.contains("SLO"));
    handle.request_shutdown();
    handle.join();
}

#[test]
fn stats_and_run_interleave_on_one_connection() {
    // Sends `run` traffic, so it must not overlap the counter-delta
    // tests above.
    let _traffic = TRAFFIC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let handle = start_server(1, 8);
    let (mut stream, mut reader) = connect(&handle.local_addr());
    let first = send_line(&mut stream, &mut reader, "{\"cmd\":\"stats\"}");
    let stats = Stats::parse(&first).expect("first stats parses");
    let reply = send_line(&mut stream, &mut reader, &render_request(&request()));
    assert!(matches!(ReplyLine::parse(&reply), Ok(ReplyLine::Reply(_))));
    let second = send_line(&mut stream, &mut reader, "{\"cmd\":\"stats\"}");
    let later = Stats::parse(&second).expect("second stats parses");
    assert!(later.requests > stats.requests.saturating_sub(1));
    drop(stream);
    handle.request_shutdown();
    handle.join();
}
