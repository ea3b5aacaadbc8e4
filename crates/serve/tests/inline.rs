//! Cache hits answered on the shard that framed them. A small request
//! whose key has a finished build never reaches the queue: the shard
//! computes it, files the reply in the connection's reorder buffer,
//! and flushes once per read. These tests pin the order, the bound,
//! the independence from busy workers, and the `POLLOUT` path that
//! finishes a flush the socket could not take whole.

use dut_core::Rule;
use dut_obs::metrics::HistogramId;
use dut_serve::engine;
use dut_serve::loadgen;
use dut_serve::protocol::{render_request, Family, ReplyLine, Request};
use dut_serve::server::{self, ServeConfig, INLINE_MAX_DRAWS, OUTBUF_CAP};
use dut_serve::stats::Stats;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The tests read counter deltas from the process-global metrics
/// registry, so they run one at a time.
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

fn stop(handle: server::ServerHandle) {
    handle.request_shutdown();
    handle.join();
}

fn connect(handle: &server::ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
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

fn stats(handle: &server::ServerHandle) -> Stats {
    loadgen::fetch_stats(&handle.local_addr().to_string()).expect("stats")
}

/// A hit-sized request: 64 draws per trial, well under the bound.
fn small(seed: u64) -> Request {
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

/// A miss that holds its worker for a while: a cold key whose trials
/// (65,536 draws each) take about half a second in either build
/// profile.
fn slow_miss() -> Request {
    let trials = if cfg!(debug_assertions) { 150 } else { 1_200 };
    Request {
        n: 256,
        k: 64,
        q: 1024,
        trials,
        ..small(11)
    }
}

/// Asserts that `line` is the reply `offline_reply` gives for `req`,
/// bit for bit.
fn assert_offline(line: &str, req: &Request) {
    let ReplyLine::Reply(reply) = ReplyLine::parse(line).expect("reply parses") else {
        panic!("expected a verdict reply, got: {line}");
    };
    let offline = engine::offline_reply(req).expect("offline reference");
    assert!(reply.same_answer(&offline), "served {line} != offline");
}

/// Nothing is readable on `stream` right now.
fn nothing_readable(stream: &TcpStream) -> bool {
    stream.set_nonblocking(true).expect("nonblocking");
    let mut byte = [0u8; 1];
    let idle = matches!(stream.peek(&mut byte), Err(e) if e.kind() == ErrorKind::WouldBlock);
    stream.set_nonblocking(false).expect("blocking");
    idle
}

#[test]
fn hits_behind_a_slow_miss_reply_in_request_order() {
    let _serial = serial();
    let handle = start(ServeConfig::default());
    let (mut warm, mut warm_reader) = connect(&handle);
    writeln!(warm, "{}", render_request(&small(0))).expect("send");
    read_line(&mut warm_reader);
    let before = stats(&handle);
    // One connection: a slow miss first, then hits on the warm key.
    // The hits are answered on the shard at once, but their replies
    // wait in the reorder buffer behind the miss.
    let hits: Vec<Request> = (1..=8).map(small).collect();
    let (mut stream, mut reader) = connect(&handle);
    let mut batch = render_request(&slow_miss());
    for req in &hits {
        batch.push('\n');
        batch.push_str(&render_request(req));
    }
    batch.push('\n');
    stream.write_all(batch.as_bytes()).expect("send");
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats(&handle).inline - before.inline < hits.len() as u64 {
        assert!(Instant::now() < deadline, "the hits were never answered");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The miss is still computing, so nothing may have left yet.
    assert!(
        nothing_readable(&stream),
        "an inline reply overtook the miss ahead of it"
    );
    assert_offline(&read_line(&mut reader), &slow_miss());
    for req in &hits {
        assert_offline(&read_line(&mut reader), req);
    }
    let after = stats(&handle);
    assert_eq!(after.inline - before.inline, hits.len() as u64);
    assert_eq!(after.cache_misses - before.cache_misses, 1);
    assert_eq!(
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses),
        after.requests - before.requests,
        "hits + misses == requests"
    );
    stop(handle);
}

#[test]
fn one_shard_answers_a_hit_while_its_worker_computes_a_miss() {
    let _serial = serial();
    let handle = start(ServeConfig {
        shards: 1,
        workers: 1,
        ..ServeConfig::default()
    });
    let (mut b, mut b_reader) = connect(&handle);
    writeln!(b, "{}", render_request(&small(0))).expect("send");
    read_line(&mut b_reader);
    let (mut a, mut a_reader) = connect(&handle);
    let before = stats(&handle);
    writeln!(a, "{}", render_request(&slow_miss())).expect("send");
    // Give the only worker time to pop the miss and start on it.
    std::thread::sleep(Duration::from_millis(50));
    writeln!(b, "{}", render_request(&small(1))).expect("send");
    assert_offline(&read_line(&mut b_reader), &small(1));
    let during = stats(&handle);
    assert_eq!(
        during.inline - before.inline,
        1,
        "the hit was answered inline"
    );
    assert!(
        nothing_readable(&a),
        "the miss finished before the hit was answered"
    );
    assert_offline(&read_line(&mut a_reader), &slow_miss());
    stop(handle);
}

#[test]
fn only_requests_within_the_bound_skip_the_queue() {
    let _serial = serial();
    let handle = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&handle);
    // One key at three sizes: 64 draws per trial, so 16 trials sit
    // exactly on the bound and 17 are over it.
    let at_bound = Request {
        trials: INLINE_MAX_DRAWS / 64,
        ..small(3)
    };
    let over_bound = Request {
        trials: INLINE_MAX_DRAWS / 64 + 1,
        ..small(4)
    };
    writeln!(stream, "{}", render_request(&small(2))).expect("send");
    read_line(&mut reader);
    let registry = dut_obs::metrics::global();
    let queued = || registry.histogram(HistogramId::QueueWaitMicros).count();
    for (req, inline) in [(at_bound, true), (over_bound, false)] {
        let before = (stats(&handle).inline, queued());
        writeln!(stream, "{}", render_request(&req)).expect("send");
        assert_offline(&read_line(&mut reader), &req);
        let after = (stats(&handle).inline, queued());
        let moved = (after.0 - before.0, after.1 - before.1);
        let expected = if inline { (1, 0) } else { (0, 1) };
        assert_eq!(
            moved, expected,
            "(inline, queued) for {} trials",
            req.trials
        );
    }
    stop(handle);
}

/// A hit of eight trials (512 draws), so answers vary seed to seed.
fn hit(seed: u64) -> Request {
    Request {
        trials: 8,
        ..small(seed)
    }
}

/// Sends hits `from..` on `stream` in rounds of 64 without reading a
/// reply, each round once the server answered the last, until `stop`
/// says so or the server stops answering (it dropped the connection
/// as a non-reader). Returns the last seed sent and whether the
/// server answered every hit.
fn flood(
    handle: &server::ServerHandle,
    stream: &mut TcpStream,
    from: u64,
    stop: impl Fn(u64) -> bool,
) -> (u64, bool) {
    let base = stats(handle).inline - (from - 1);
    let mut sent = from - 1;
    while !stop(sent) {
        let mut batch = String::new();
        for _ in 0..64 {
            sent += 1;
            batch.push_str(&render_request(&hit(sent)));
            batch.push('\n');
        }
        if stream.write_all(batch.as_bytes()).is_err() {
            return (sent, false);
        }
        let mut answered = 0;
        let mut still = Instant::now();
        while answered < sent {
            std::thread::sleep(Duration::from_millis(2));
            let now = stats(handle).inline - base;
            if now > answered {
                answered = now;
                still = Instant::now();
            } else if still.elapsed() > Duration::from_secs(1) {
                return (sent, false);
            }
        }
    }
    (sent, true)
}

#[test]
fn pipelined_hits_past_the_socket_buffer_arrive_whole_and_in_order() {
    let _serial = serial();
    let handle = start(ServeConfig::default());
    let (mut stream, mut reader) = connect(&handle);
    writeln!(stream, "{}", render_request(&hit(0))).expect("send");
    let reply_bytes = read_line(&mut reader).len() as u64 + 1;
    drop((stream, reader));
    // How much the kernel buffers depends on the host. A first reader
    // that never reads finds out: the server drops it once the replies
    // the kernel would not take pass OUTBUF_CAP.
    let (mut doomed, _doomed_reader) = connect(&handle);
    let (overflow, answered_all) = flood(&handle, &mut doomed, 1, |_| false);
    assert!(!answered_all);
    // A second reader stalls at half a cap below that, so the server
    // holds replies it could not flush, then drains: every reply
    // arrives, in request order (the shard computed them in order, so
    // their rids are consecutive).
    let cap = OUTBUF_CAP as u64;
    let target = (overflow * reply_bytes).saturating_sub(cap / 2) / reply_bytes;
    assert!(target * reply_bytes > cap, "the kernel took nothing");
    let (mut stream, mut reader) = connect(&handle);
    let (sent, answered_all) = flood(&handle, &mut stream, 1, |sent| sent >= target);
    assert!(
        answered_all,
        "the stalled reader was dropped at {sent} hits"
    );
    let reference = engine::Engine::new(4);
    let mut first_rid = None;
    for seed in 1..=sent {
        let line = read_line(&mut reader);
        let ReplyLine::Reply(reply) = ReplyLine::parse(&line).expect("reply parses") else {
            panic!("reply {seed} of {sent} is not a verdict: {line}");
        };
        let first = *first_rid.get_or_insert(reply.rid);
        assert_eq!(reply.rid, first + seed - 1, "reply {seed} out of order");
        let offline = reference.handle(&hit(seed)).expect("reference");
        assert!(reply.same_answer(&offline), "reply {seed}: {line}");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).expect("eof"), 0);
    stop(handle);
}
