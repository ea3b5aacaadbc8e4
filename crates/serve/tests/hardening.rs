//! Hostile-client hardening, end to end against a real server:
//! oversized lines, idle/slowloris reaping, error budgets, panic
//! containment, and the full chaos mix — each followed by proof that
//! the service plane still answers honest requests bit-exactly.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]

use dut_serve::chaos::{self, ChaosConfig};
use dut_serve::protocol::{self, render_request, ReplyLine};
use dut_serve::server::{self, ServeConfig};
use dut_serve::stats::Stats;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start_server(config: ServeConfig) -> server::ServerHandle {
    server::start(&config).expect("server starts on an ephemeral port")
}

fn connect(handle: &server::ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let got = reader.read_line(&mut line).expect("reply arrives");
    assert!(got > 0, "connection closed without a reply");
    line.trim().to_owned()
}

/// A well-formed request the server must keep answering after abuse.
fn known_good(handle: &server::ServerHandle) {
    let (mut stream, mut reader) = connect(handle);
    writeln!(stream, "{}", render_request(&chaos::probe_request())).expect("send");
    let line = read_reply(&mut reader);
    match ReplyLine::parse(&line).expect("parseable reply") {
        ReplyLine::Reply(_) => {}
        other => panic!("known-good request got {other:?}"),
    }
}

fn shutdown(handle: server::ServerHandle) {
    handle.request_shutdown();
    handle.join();
}

#[test]
fn oversized_line_is_rejected_and_connection_closed() {
    let handle = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_line_bytes: 1024,
        ..ServeConfig::default()
    });
    let (mut stream, mut reader) = connect(&handle);
    // 8 KiB of garbage, no newline until the end: blows the 1 KiB cap.
    let bomb = "x".repeat(8 * 1024);
    stream.write_all(bomb.as_bytes()).expect("send bomb");
    stream.write_all(b"\n").expect("send newline");
    let line = read_reply(&mut reader);
    assert!(
        line.contains("line_too_long"),
        "expected line_too_long, got: {line}"
    );
    // The connection is closed after the reply.
    let mut rest = String::new();
    let got = reader.read_line(&mut rest).expect("EOF is clean");
    assert_eq!(got, 0, "connection stayed open after line_too_long");
    known_good(&handle);
    shutdown(handle);
}

#[test]
fn slowloris_is_reaped_on_no_completed_line() {
    let handle = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        // Clamped up to POLL_INTERVAL (100ms) internally; keep the
        // test's hold 5x above it for margin.
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let (mut stream, mut reader) = connect(&handle);
    // Drip bytes every 20ms without ever completing a line. A
    // byte-level timeout would never fire; the line-level one must.
    let started = Instant::now();
    let mut reply = None;
    while started.elapsed() < Duration::from_secs(3) {
        if stream.write_all(b"{").is_err() {
            break; // already reaped and closed
        }
        let _ = stream.flush();
        std::thread::sleep(Duration::from_millis(20));
        // Peek for the reap notice without blocking the drip.
        if reply.is_none() {
            let mut line = String::new();
            stream
                .set_read_timeout(Some(Duration::from_millis(1)))
                .expect("short timeout");
            if reader.read_line(&mut line).is_ok() && !line.trim().is_empty() {
                reply = Some(line.trim().to_owned());
                break;
            }
        }
    }
    let line = reply.expect("the drip was reaped within the test budget");
    assert!(
        line.contains("idle_timeout"),
        "expected idle_timeout, got: {line}"
    );
    known_good(&handle);
    shutdown(handle);
}

#[test]
fn error_budget_closes_abusive_connections() {
    let handle = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        error_budget: 3,
        ..ServeConfig::default()
    });
    let (mut stream, mut reader) = connect(&handle);
    // Three garbage lines exhaust the budget of 3.
    for i in 0..3 {
        writeln!(stream, "not json at all #{i}").expect("send garbage");
        let line = read_reply(&mut reader);
        assert!(line.contains("error"), "garbage got a non-error: {line}");
    }
    // The budget notice follows the final error reply, then EOF.
    let notice = read_reply(&mut reader);
    assert!(
        notice.contains("error_budget_exhausted"),
        "expected budget notice, got: {notice}"
    );
    let mut rest = String::new();
    let got = reader.read_line(&mut rest).expect("EOF is clean");
    assert_eq!(got, 0, "connection stayed open after budget exhausted");
    known_good(&handle);
    shutdown(handle);
}

#[test]
fn oversized_configs_are_rejected_cheaply() {
    let handle = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    });
    let (mut stream, mut reader) = connect(&handle);
    // An allocation bomb: n far over MAX_N must be rejected by
    // validation, never by the allocator.
    let huge = format!(
        "{{\"n\":{},\"k\":4,\"q\":8,\"eps\":0.5,\"rule\":\"and\",\"seed\":1}}",
        u64::from(u32::MAX)
    );
    writeln!(stream, "{huge}").expect("send huge n");
    let line = read_reply(&mut reader);
    assert!(line.contains("error"), "huge n got a non-error: {line}");
    assert!(
        line.contains("maximum") || line.contains("large"),
        "error does not explain the cap: {line}"
    );
    // Work bombs. A work product over MAX_WORK with each dimension
    // under its cap, and a λ₀ = C(q,2)/n over MAX_LAMBDA under
    // MAX_WORK (its Poisson tail inversion would pin a worker for
    // hours).
    let wide = format!(
        "{{\"n\":{},\"k\":{},\"q\":{},\"eps\":0.5,\"rule\":\"and\",\"seed\":1}}",
        protocol::MAX_N,
        protocol::MAX_K,
        protocol::MAX_Q
    );
    let dense = format!(
        "{{\"n\":2,\"k\":1,\"q\":{},\"eps\":0.5,\"rule\":\"and\",\"seed\":1}}",
        protocol::MAX_Q
    );
    for bomb in [wide, dense] {
        writeln!(stream, "{bomb}").expect("send work bomb");
        let line = read_reply(&mut reader);
        assert!(line.contains("too large"), "work bomb got through: {line}");
    }
    known_good(&handle);
    shutdown(handle);
}

#[test]
fn stats_accounting_survives_abuse() {
    let handle = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        error_budget: 2,
        ..ServeConfig::default()
    });
    // Metrics are process-global: snapshot a delta around the abuse.
    let pre = {
        let (mut stream, mut reader) = connect(&handle);
        writeln!(stream, "{{\"cmd\":\"stats\"}}").expect("send stats");
        Stats::parse(&read_reply(&mut reader)).expect("stats parse")
    };
    {
        let (mut stream, mut reader) = connect(&handle);
        writeln!(stream, "garbage one").expect("send");
        let _ = read_reply(&mut reader);
        writeln!(stream, "garbage two").expect("send");
        let _ = read_reply(&mut reader);
    }
    let post = {
        let (mut stream, mut reader) = connect(&handle);
        writeln!(stream, "{{\"cmd\":\"stats\"}}").expect("send stats");
        Stats::parse(&read_reply(&mut reader)).expect("stats parse")
    };
    assert!(
        post.malformed >= pre.malformed + 2,
        "malformed lines not counted: {} -> {}",
        pre.malformed,
        post.malformed
    );
    assert!(
        post.error_budget_closed > pre.error_budget_closed,
        "budget closure not counted"
    );
    // The core invariant the fuzz planes rely on: cache accounting
    // stays exact through abuse.
    assert_eq!(
        post.cache_hits + post.cache_misses,
        post.requests,
        "hits + misses != requests after abuse"
    );
    shutdown(handle);
}

#[test]
fn chaos_mix_does_not_take_down_the_server() {
    let handle = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        queue_cap: 32,
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let report = chaos::run(&ChaosConfig {
        addr: handle.local_addr().to_string(),
        duration: Duration::from_millis(800),
        seed: 1,
    })
    .expect("chaos runs");
    assert!(
        report.survived(),
        "server did not survive chaos: {}",
        report.summary()
    );
    assert!(report.total_attacks() > 0, "no hostile actions launched");
    assert!(report.probes_sent > 0, "no honest probes interleaved");
    shutdown(handle);
}
