//! Wake sources of the readiness-driven serve loops. Shards park in
//! `poll(2)`, shard 0 with the listener in its poll set; each test
//! here lets them park and then needs exactly one kind of wake to make
//! progress: a connect on the listener, a connection handed to another
//! shard, an idle-reap deadline, shutdown, the last reply of a
//! half-closed connection, and a socket turning writable again after
//! the client stopped reading.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]

use dut_core::Rule;
use dut_serve::loadgen;
use dut_serve::protocol::{self, render_request, Family, ReplyLine, Request};
use dut_serve::server::{self, ServeConfig, OUTBUF_CAP};
use dut_serve::stats::Stats;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Long enough for every shard to park.
const SETTLE: Duration = Duration::from_millis(300);

/// The tests run one at a time: their timing bounds assume an
/// otherwise idle process, and the flood test reads counter deltas
/// from the process-global metrics registry.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn start(config: ServeConfig) -> server::ServerHandle {
    server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("server starts on an ephemeral port")
}

fn connect(handle: &server::ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let got = reader.read_line(&mut line).expect("line arrives");
    assert!(got > 0, "connection closed before the line");
    line.trim().to_owned()
}

fn request(seed: u64) -> Request {
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

/// A request that keeps a worker busy for some milliseconds: far
/// longer than a shard takes to see EOF and park, far shorter than the
/// poll cap.
fn slow_request() -> Request {
    // k·q = 65,536 alias draws per trial: about 0.4 ms in release,
    // roughly 8x that in debug.
    let trials = if cfg!(debug_assertions) { 5 } else { 40 };
    Request {
        n: 256,
        k: 64,
        q: 1024,
        trials,
        ..request(11)
    }
}

fn assert_reply(line: &str) {
    assert!(
        matches!(ReplyLine::parse(line), Ok(ReplyLine::Reply(_))),
        "expected a verdict reply, got: {line}"
    );
}

fn stop(handle: server::ServerHandle) {
    handle.request_shutdown();
    handle.join();
}

#[test]
fn connection_accepted_while_shards_park_gets_its_reply_promptly() {
    let _serial = serial();
    let handle = start(ServeConfig::default());
    // Warm the cache so the timed requests below are pure hand-off.
    let (mut stream, mut reader) = connect(&handle);
    writeln!(stream, "{}", render_request(&request(1))).expect("send");
    assert_reply(&read_line(&mut reader));
    drop((stream, reader));
    // Ten fresh connections, each made while every shard is parked.
    // The connect must wake shard 0, and shard 0 the chosen shard:
    // waiting for the poll cap instead would cost about half the cap
    // per connection.
    let mut total = Duration::ZERO;
    for seed in 0..10 {
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        let (mut stream, mut reader) = connect(&handle);
        writeln!(stream, "{}", render_request(&request(seed))).expect("send");
        assert_reply(&read_line(&mut reader));
        total += started.elapsed();
    }
    assert!(
        total < Duration::from_millis(300),
        "ten parked hand-offs took {total:?}"
    );
    let stats = loadgen::fetch_stats(&handle.local_addr().to_string()).expect("stats");
    assert!(stats.shard_parks > 0, "shards never parked: {stats:?}");
    assert!(stats.shard_passes >= stats.shard_parks);
    stop(handle);
}

#[test]
fn idle_reap_fires_near_a_short_timeout() {
    let _serial = serial();
    let timeout = Duration::from_millis(200);
    let handle = start(ServeConfig {
        idle_timeout: timeout,
        ..ServeConfig::default()
    });
    // Staggered idle clients: each reap must come from its own
    // deadline, not from whenever the shard's poll cap next expires
    // (which would land anywhere up to a full cap late).
    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(17));
            let started = Instant::now();
            let (stream, reader) = connect(&handle);
            (started, stream, reader)
        })
        .collect();
    for (started, _stream, mut reader) in clients {
        assert_eq!(read_line(&mut reader), protocol::render_idle_timeout());
        let reaped_after = started.elapsed();
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "EOF follows");
        assert!(reaped_after >= timeout, "reaped early: {reaped_after:?}");
        assert!(
            reaped_after < timeout + Duration::from_millis(50),
            "the reap deadline did not wake the shard: {reaped_after:?}"
        );
    }
    stop(handle);
}

#[test]
fn request_shutdown_joins_an_idle_server_within_a_second() {
    let _serial = serial();
    let handle = start(ServeConfig::default());
    // One parked keep-alive connection, so a shard has a socket in
    // its poll set as well as its waker.
    let (mut stream, mut reader) = connect(&handle);
    writeln!(stream, "{}", render_request(&request(2))).expect("send");
    assert_reply(&read_line(&mut reader));
    std::thread::sleep(SETTLE);
    let started = Instant::now();
    stop(handle);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "join took {took:?}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
}

#[test]
fn half_closed_client_gets_its_slow_reply_then_eof() {
    let _serial = serial();
    let handle = start(ServeConfig::default());
    // Warm the slow key's tester so each round below is pure compute.
    let (mut stream, mut reader) = connect(&handle);
    writeln!(stream, "{}", render_request(&slow_request())).expect("send");
    assert_reply(&read_line(&mut reader));
    drop((stream, reader));
    // The shard stops reading at EOF and parks until the worker
    // retires the last in-flight request; that retire must wake it to
    // drop the connection. Waiting for the poll cap instead would add
    // most of the cap per round.
    let mut lag = Duration::ZERO;
    for _ in 0..8 {
        let (mut stream, mut reader) = connect(&handle);
        writeln!(stream, "{}", render_request(&slow_request())).expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        assert_reply(&read_line(&mut reader));
        let replied = Instant::now();
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "EOF follows");
        lag += replied.elapsed();
    }
    assert!(
        lag < Duration::from_millis(200),
        "EOF trailed the replies by {lag:?} over eight rounds"
    );
    stop(handle);
}

/// Bytes a loopback connection absorbs (send buffer plus receive
/// window) before a nonblocking write would block, measured the way
/// the server flushes: large nonblocking writes, nodelay, until the
/// first `WouldBlock`, with no pause for the kernel to grow its
/// buffers.
fn loopback_capacity() -> usize {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (server_side, _peer) = listener.accept().expect("accept");
    server_side.set_nodelay(true).expect("nodelay");
    server_side.set_nonblocking(true).expect("nonblocking");
    let chunk = vec![b'x'; OUTBUF_CAP];
    let mut total = 0;
    loop {
        match (&server_side).write(&chunk) {
            Ok(n) => total += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => panic!("probe write failed: {e}"),
        }
    }
    drop(client);
    total
}

/// Sends `groups` groups of four lines on a fresh connection without
/// reading, then reads every reply. Three lines of a group are `run`
/// requests answered by workers and one is `stats`, answered inline by
/// the shard, so in-order delivery is the reorder buffer's doing.
/// Returns `false` when the server dropped the connection as a
/// non-reader (more than [`OUTBUF_CAP`] bytes it could not flush).
fn flood_then_read(handle: &server::ServerHandle, groups: usize) -> bool {
    let addr = handle.local_addr().to_string();
    let before = loadgen::fetch_stats(&addr).expect("stats").requests;
    let (mut stream, mut reader) = connect(handle);
    let mut batch = String::new();
    for i in 0..4 * groups {
        if i % 4 == 3 {
            batch.push_str(STATS_LINE);
        } else {
            batch.push_str(&render_request(&request(i as u64)));
        }
        batch.push('\n');
    }
    if stream.write_all(batch.as_bytes()).is_err() {
        return false;
    }
    // Read only once every reply exists: wait until the workers
    // answered all run requests, or the count stops moving because the
    // server dropped the connection with requests unread.
    let runs = 3 * groups as u64;
    let mut last = u64::MAX;
    loop {
        let answered = loadgen::fetch_stats(&addr).expect("stats").requests - before;
        if answered >= runs || answered == last {
            break;
        }
        last = answered;
        std::thread::sleep(Duration::from_millis(200));
    }
    let mut last_uptime = 0;
    for i in 0..4 * groups {
        let mut line = String::new();
        // A reset or EOF ends the stream, possibly mid-line.
        if reader.read_line(&mut line).is_err() || !line.ends_with('\n') {
            return false;
        }
        if i % 4 == 3 {
            let stats = Stats::parse(line.trim()).unwrap_or_else(|e| panic!("line {i}: {e}"));
            assert!(stats.uptime_micros >= last_uptime, "stats out of order");
            last_uptime = stats.uptime_micros;
        } else {
            assert_reply(line.trim());
        }
    }
    // Nothing extra was queued, and the connection still works.
    writeln!(stream, "{}", render_request(&request(3))).expect("send");
    assert_reply(&read_line(&mut reader));
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).expect("eof"), 0);
    true
}

const STATS_LINE: &str = "{\"cmd\":\"stats\"}";

#[test]
fn stalled_reader_resumes_and_gets_every_reply_in_order() {
    let _serial = serial();
    let handle = start(ServeConfig {
        queue_cap: 1 << 20,
        ..ServeConfig::default()
    });
    // Size one group's replies.
    let (mut stream, mut reader) = connect(&handle);
    writeln!(stream, "{}", render_request(&request(0))).expect("send");
    writeln!(stream, "{STATS_LINE}").expect("send");
    let run_bytes = read_line(&mut reader).len() + 1;
    let stats_bytes = read_line(&mut reader).len() + 1;
    let group_bytes = 3 * run_bytes + stats_bytes;
    drop((stream, reader));
    // How much the kernel buffers depends on the host, so bisect for
    // the largest flood the server holds. Overflow means the excess
    // over the kernel's share passed OUTBUF_CAP; a flood that arrives
    // whole within half a cap of one that overflowed therefore left
    // more than half a cap unflushed in the server, for the shard to
    // flush once its POLLOUT wait sees the socket writable again.
    let mut hi = 2 * loopback_capacity() / group_bytes;
    assert!(
        !flood_then_read(&handle, hi),
        "twice the kernel's buffering must overflow"
    );
    let mut lo = 0;
    while (hi - lo) * group_bytes > OUTBUF_CAP / 2 {
        let mid = (lo + hi) / 2;
        if flood_then_read(&handle, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    assert!(lo > 0, "no flood arrived whole");
    stop(handle);
}
