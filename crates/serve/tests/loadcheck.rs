//! Load-generator integration tests that assert on *windowed* server
//! statistics (the stats cross-check and the trace replayer).
//!
//! These live in their own test binary on purpose: the metrics
//! registry is process-global and its latency histograms are
//! windowed, so tests that deliberately park requests behind a
//! multi-second pin (the shed tests) would poison the queue-wait
//! percentiles these assertions read. A separate binary is a separate
//! process and a clean registry.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]

use dut_serve::server::{self, ServeConfig};
use dut_serve::trace::{self, TraceConfig};
use dut_serve::{loadgen, Trace};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests: both drive real load through the one
/// process-global registry.
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

#[test]
fn run_checked_passes_against_a_live_server() {
    let _traffic = TRAFFIC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let handle = start_server(2, 64);
    let config = loadgen::LoadgenConfig {
        addr: handle.local_addr().to_string(),
        rps: 400,
        duration: Duration::from_millis(400),
        connections: 2,
        pipeline: 1,
        verify_offline: false,
    };
    let (report, check) = loadgen::run_checked(&config, None).expect("run_checked");
    assert!(report.replies > 0);
    assert_eq!(report.errors, 0);
    assert!(
        check.passed(),
        "stats cross-check failed: {:?}",
        check.failures
    );
    handle.request_shutdown();
    handle.join();
}

/// Pipelined lanes (a window of requests per write) keep every reply
/// bit-identical and correctly paired: the server's per-connection
/// sequencing returns replies in send order even when workers finish
/// out of order, so offline verification must see zero mismatches.
#[test]
fn pipelined_lanes_verify_bit_identical() {
    let _traffic = TRAFFIC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let handle = start_server(2, 64);
    let config = loadgen::LoadgenConfig {
        addr: handle.local_addr().to_string(),
        rps: 1200,
        duration: Duration::from_millis(400),
        connections: 2,
        pipeline: 4,
        verify_offline: true,
    };
    let report = loadgen::run(&config, None).expect("pipelined run");
    assert!(report.replies >= 8, "windows actually flowed");
    assert_eq!(report.errors, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(
        report.mismatches, 0,
        "pipelined replies must stay in send order and bit-identical"
    );
    // Response time starts no later than service time, reply by reply,
    // so its quantiles cannot undercut the service quantiles.
    assert!(report.response_p50_micros >= report.p50_micros);
    assert!(report.response_p99_micros >= report.p99_micros);
    handle.request_shutdown();
    handle.join();
}

/// A generated bursty/diurnal trace replays cleanly against a live
/// server through pipelined lanes: every arrival is answered, nothing
/// errors, the tenant field survives the wire, and the replies verify
/// bit-identical against the offline engine.
#[test]
fn trace_replay_round_trips_against_a_live_server() {
    let _traffic = TRAFFIC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let handle = start_server(2, 64);
    let trace = trace::generate(&TraceConfig {
        rps: 300,
        duration: Duration::from_millis(500),
        lanes: 4,
        burstiness: 0.3,
        diurnal: true,
        seed: 21,
        tenants: vec!["team-a".to_owned(), "team-b".to_owned()],
    });
    assert!(!trace.events.is_empty());
    // The artifact round-trips before it is replayed, the same path
    // `dut loadgen --trace <file>` takes.
    let parsed = Trace::parse(&trace.render()).expect("rendered trace parses");
    let config = loadgen::LoadgenConfig {
        addr: handle.local_addr().to_string(),
        rps: 300,
        duration: Duration::from_millis(500),
        connections: 4,
        pipeline: 4,
        verify_offline: true,
    };
    let report = loadgen::run(&config, Some(&parsed)).expect("trace replay");
    assert_eq!(report.sent, parsed.events.len() as u64);
    assert_eq!(report.replies + report.shed, report.sent);
    assert_eq!(report.errors, 0, "no transport or protocol errors");
    assert_eq!(report.mismatches, 0, "replayed replies stay bit-identical");
    // Generous bound on shed: the queue is 64 deep and the rate low.
    assert_eq!(report.shed, 0, "nothing sheds at this gentle rate");
    handle.request_shutdown();
    handle.join();
}
