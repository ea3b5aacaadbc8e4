//! The worker pool starts at one worker and grows on demand. A request
//! starts another worker only when it is queued while no idle worker
//! is left to take it, and the pool never grows past `--workers`.
//! Shard 0 accepts, so a started server runs its shards and one worker
//! and nothing else. The only test here reads the process-global
//! worker gauge, so it has this test binary to itself.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]

use dut_core::Rule;
use dut_obs::metrics::Gauge;
use dut_serve::loadgen;
use dut_serve::protocol::{render_request, Family, ReplyLine, Request};
use dut_serve::server::{self, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const CAP: usize = 3;

fn connect(handle: &server::ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Sends `requests` in one write and checks that each gets a verdict.
fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, requests: &[Request]) {
    let batch: String = requests
        .iter()
        .map(|req| format!("{}\n", render_request(req)))
        .collect();
    stream.write_all(batch.as_bytes()).expect("send");
    for _ in requests {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("reply") > 0);
        assert!(
            matches!(ReplyLine::parse(line.trim()), Ok(ReplyLine::Reply(_))),
            "expected a verdict reply, got: {line}"
        );
    }
}

/// A small request: once its key is built, a hit the shard answers.
fn hit(seed: u64) -> Request {
    Request {
        n: 64,
        k: 8,
        q: 8,
        eps: 0.5,
        rule: Rule::Balanced,
        family: Family::Uniform,
        seed,
        trials: 1,
    }
}

/// A miss on a key of its own that keeps a worker busy for
/// milliseconds: the calibration, then 65,536 draws per trial.
fn slow_miss(i: usize) -> Request {
    Request {
        n: 256 + i,
        k: 64,
        q: 1024,
        trials: if cfg!(debug_assertions) { 5 } else { 40 },
        ..hit(7)
    }
}

fn workers(handle: &server::ServerHandle) -> u64 {
    loadgen::fetch_stats(&handle.local_addr().to_string())
        .expect("stats")
        .workers
}

/// The names of this process's threads that belong to a server.
fn server_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_owned())
        .filter(|comm| comm.starts_with("serve-"))
        .collect();
    names.sort();
    names
}

#[test]
fn pool_starts_with_one_worker_and_grows_to_its_cap_on_demand() {
    let handle = server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: SHARDS,
        workers: CAP,
        ..ServeConfig::default()
    })
    .expect("server starts on an ephemeral port");
    // A new thread names itself, so wait for every name to show.
    let started = Instant::now();
    let mut threads = server_threads();
    while threads.len() < SHARDS + 1 && started.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
        threads = server_threads();
    }
    assert_eq!(
        threads,
        ["serve-shard-0", "serve-shard-1", "serve-worker-0"],
        "the shards and one worker, nothing else"
    );
    assert_eq!(workers(&handle), 1);

    // Hits only: the one worker builds the key, and every request
    // after that is answered on its shard.
    let (mut stream, mut reader) = connect(&handle);
    round_trip(&mut stream, &mut reader, &[hit(0)]);
    let hits: Vec<Request> = (1..=200).map(hit).collect();
    round_trip(&mut stream, &mut reader, &hits);
    assert_eq!(workers(&handle), 1, "a hits-only server keeps one worker");

    // A herd of distinct slow misses, framed from one read: each one
    // queued behind a busy worker starts another, up to the cap. A
    // worker stays until shutdown, so the gauge now reads the most
    // workers the pool ever ran.
    let herd: Vec<Request> = (0..8).map(slow_miss).collect();
    round_trip(&mut stream, &mut reader, &herd);
    assert_eq!(
        workers(&handle),
        CAP as u64,
        "the herd grows the pool to its cap and never past it"
    );
    drop((stream, reader));

    handle.request_shutdown();
    handle.join();
    assert_eq!(
        dut_obs::metrics::global().gauge(Gauge::ServeWorkers),
        0,
        "join returns with every worker exited"
    );
}
