//! End-to-end stress tests for the service: concurrency, exact
//! reply accounting, offline bit-identity, load-shedding, and
//! graceful shutdown — all against a real server on a loopback
//! socket.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]

use dut_core::Rule;
use dut_serve::engine;
use dut_serve::protocol::{render_request, render_request_tenant, Family, ReplyLine, Request};
use dut_serve::server::{self, ServeConfig, TenantQuota};
use dut_serve::stats::Stats;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

/// A request heavy enough (a couple of seconds in either build
/// profile) to pin a worker while a test arranges queue pressure
/// behind it. Its cache key is distinct from every [`request`]
/// catalog slot, so it never shares a prepared tester with the light
/// traffic.
fn slow_request(seed: u64) -> Request {
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
        seed,
        trials,
    }
}

fn request(catalog_slot: u64, seed: u64) -> Request {
    let mut req = match catalog_slot % 3 {
        0 => Request {
            n: 64,
            k: 8,
            q: 8,
            eps: 0.5,
            rule: Rule::Balanced,
            family: Family::Uniform,
            seed: 0,
            trials: 2,
        },
        1 => Request {
            n: 128,
            k: 8,
            q: 10,
            eps: 0.5,
            rule: Rule::TThreshold { t: 2 },
            family: Family::TwoLevel,
            seed: 0,
            trials: 2,
        },
        _ => Request {
            n: 256,
            k: 1,
            q: 24,
            eps: 0.5,
            rule: Rule::Centralized,
            family: Family::Zipf,
            seed: 0,
            trials: 2,
        },
    };
    req.seed = seed;
    req
}

fn send_shutdown(addr: &std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    writeln!(stream, "{{\"cmd\":\"shutdown\"}}").expect("send shutdown");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("shutdown ack");
    assert_eq!(
        ReplyLine::parse(line.trim()).expect("parseable ack"),
        ReplyLine::ShutdownAck
    );
}

/// M concurrent clients, R requests each over persistent
/// connections: every request gets exactly one reply, and every
/// reply is bit-identical to the offline reference evaluation of the
/// same request.
#[test]
fn concurrent_clients_get_exact_offline_identical_replies() {
    let clients = 8u64;
    let per_client = 24u64;
    let handle = start_server(4, 64);
    let addr = handle.local_addr();
    let mut joins = Vec::new();
    for client in 0..clients {
        joins.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut replies = Vec::new();
            for i in 0..per_client {
                let req = request(client + i, 7000 + client * 1000 + i);
                writeln!(writer, "{}", render_request(&req)).expect("send");
                let mut line = String::new();
                let got = reader.read_line(&mut line).expect("reply arrives");
                assert!(got > 0, "server closed early on client {client}");
                replies.push((req, line.trim().to_owned()));
            }
            // Half-close the write side: the server sees EOF, closes
            // the connection, and the reader must observe a clean EOF
            // with no stray bytes (exactly one reply per request).
            writer
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut rest = String::new();
            let trailing = reader.read_to_string(&mut rest).expect("clean EOF");
            assert_eq!(trailing, 0, "stray bytes after replies: {rest:?}");
            replies
        }));
    }
    let mut total = 0u64;
    for join in joins {
        for (req, line) in join.join().expect("client thread") {
            total += 1;
            let ReplyLine::Reply(reply) = ReplyLine::parse(&line).expect("reply parses") else {
                panic!("non-reply line: {line}");
            };
            let offline = engine::offline_reply(&req).expect("offline reference");
            assert!(
                reply.same_answer(&offline),
                "request {req:?}: served {reply:?}, offline {offline:?}"
            );
        }
    }
    assert_eq!(total, clients * per_client, "one reply per request");
    send_shutdown(&addr);
    handle.join();
}

/// Below the queue bound nothing is shed; beyond it, excess
/// *requests* get the explicit `overloaded` reply while the
/// connection stays parked and usable, and already accepted work
/// still completes.
#[test]
fn sheds_only_above_the_queue_bound() {
    // One worker, queue of two: the worker is pinned by a slow
    // request, two light requests sit queued behind it, and every
    // further request must be shed — per request, not per connection.
    let handle = start_server(1, 2);
    let addr = handle.local_addr();

    let mut busy = TcpStream::connect(addr).expect("busy connect");
    busy.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let pin = slow_request(42);
    let filler = request(0, 43);
    writeln!(busy, "{}", render_request(&pin)).expect("pin send");
    let mut busy_reader = BufReader::new(busy.try_clone().expect("clone"));
    // Wait until the worker holds the pin before queueing the
    // fillers — sent back to back, a filler can reach the full queue
    // before the worker pops the pin and be shed in its place.
    std::thread::sleep(Duration::from_millis(200));
    writeln!(busy, "{}", render_request(&filler)).expect("filler send");
    writeln!(busy, "{}", render_request(&filler)).expect("filler send");
    // Let the shard frame the fillers so they occupy the whole queue.
    std::thread::sleep(Duration::from_millis(200));

    // Overflow from a separate connection: each request is shed with
    // an explicit reply and the connection itself stays open.
    let victim = TcpStream::connect(addr).expect("victim connect");
    victim
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut victim_writer = victim.try_clone().expect("clone");
    let mut victim_reader = BufReader::new(victim);
    for i in 0..4 {
        writeln!(victim_writer, "{}", render_request(&request(i, 900 + i))).expect("overflow send");
        let mut line = String::new();
        let got = victim_reader.read_line(&mut line).expect("shed reply");
        assert!(got > 0, "connection must survive a shed");
        match ReplyLine::parse(line.trim()) {
            Ok(ReplyLine::Overloaded) => {}
            other => panic!("expected overloaded, got {other:?}"),
        }
    }

    // Accepted work completes: the pin and both fillers answer in
    // submission order on the busy connection.
    for expect in [&pin, &filler, &filler] {
        let mut line = String::new();
        busy_reader.read_line(&mut line).expect("busy reply");
        let ReplyLine::Reply(reply) = ReplyLine::parse(line.trim()).expect("parseable") else {
            panic!("non-reply on busy connection: {line}");
        };
        let offline = engine::offline_reply(expect).expect("offline reference");
        assert!(
            reply.same_answer(&offline),
            "request {expect:?}: served {reply:?}, offline {offline:?}"
        );
    }

    // The shed connection was never closed: with capacity back, the
    // same socket is served end to end.
    writeln!(victim_writer, "{}", render_request(&request(1, 77))).expect("victim send again");
    let mut line = String::new();
    victim_reader.read_line(&mut line).expect("victim served");
    assert!(
        matches!(ReplyLine::parse(line.trim()), Ok(ReplyLine::Reply(_))),
        "shed connection must be served once the queue drains: {line}"
    );

    drop(busy);
    drop(busy_reader);
    drop(victim_writer);
    drop(victim_reader);
    send_shutdown(&addr);
    handle.join();
}

/// Sixty-four persistent connections multiplexed over four shard
/// event loops: every reply is bit-identical to the offline
/// reference and every connection sees a clean EOF — no cross-shard
/// interleaving corruption.
#[test]
fn four_shards_keep_sixty_four_connections_bit_identical() {
    let handle = server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        shards: 4,
        cache_cap: 16,
        queue_cap: 256,
        ..ServeConfig::default()
    })
    .expect("server starts on an ephemeral port");
    let addr = handle.local_addr();
    let clients = 64u64;
    let per_client = 4u64;
    let mut joins = Vec::new();
    for client in 0..clients {
        joins.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut replies = Vec::new();
            for i in 0..per_client {
                let req = request(client + i, 40_000 + client * 100 + i);
                writeln!(writer, "{}", render_request(&req)).expect("send");
                let mut line = String::new();
                let got = reader.read_line(&mut line).expect("reply arrives");
                assert!(got > 0, "server closed early on client {client}");
                replies.push((req, line.trim().to_owned()));
            }
            writer
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut rest = String::new();
            let trailing = reader.read_to_string(&mut rest).expect("clean EOF");
            assert_eq!(trailing, 0, "stray bytes after replies: {rest:?}");
            replies
        }));
    }
    let mut total = 0u64;
    for join in joins {
        for (req, line) in join.join().expect("client thread") {
            total += 1;
            let ReplyLine::Reply(reply) = ReplyLine::parse(&line).expect("reply parses") else {
                panic!("non-reply line: {line}");
            };
            let offline = engine::offline_reply(&req).expect("offline reference");
            assert!(
                reply.same_answer(&offline),
                "request {req:?}: served {reply:?}, offline {offline:?}"
            );
        }
    }
    assert_eq!(total, clients * per_client, "one reply per request");
    send_shutdown(&addr);
    handle.join();
}

/// Token-bucket admission: the over-quota tenant is shed at its
/// bucket, other tenants and the global queue are untouched, and the
/// per-tenant accounting lands in `{"cmd":"stats"}`.
#[test]
fn tenant_quota_sheds_only_the_over_quota_tenant() {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_cap: 16,
        queue_cap: 64,
        ..ServeConfig::default()
    };
    config.tenancy.push(TenantQuota {
        name: "metered".to_owned(),
        rate: 0.001,
        burst: 3.0,
        priority: 0,
    });
    let handle = server::start(&config).expect("server starts");
    let addr = handle.local_addr();

    let metered = TcpStream::connect(addr).expect("metered connect");
    metered
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut metered_writer = metered.try_clone().expect("clone");
    let mut metered_reader = BufReader::new(metered);
    let mut verdicts = Vec::new();
    for i in 0..6 {
        let wire = render_request_tenant(&request(0, 600 + i), "metered");
        writeln!(metered_writer, "{wire}").expect("metered send");
        let mut line = String::new();
        metered_reader.read_line(&mut line).expect("metered reply");
        verdicts.push(match ReplyLine::parse(line.trim()) {
            Ok(ReplyLine::Reply(_)) => "served",
            Ok(ReplyLine::Overloaded) => {
                assert!(
                    line.contains("\"scope\":\"tenant\""),
                    "tenant shed must be marked: {line}"
                );
                "shed"
            }
            other => panic!("unexpected metered reply: {other:?}"),
        });
    }
    // Burst of 3 with a negligible refill rate: exactly the first
    // three admitted, the rest shed, all on one open connection.
    assert_eq!(
        verdicts,
        ["served", "served", "served", "shed", "shed", "shed"]
    );

    // An unlisted tenant has no quota: it is not metered and never sheds.
    let free = TcpStream::connect(addr).expect("free connect");
    free.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut free_writer = free.try_clone().expect("clone");
    let mut free_reader = BufReader::new(free);
    for i in 0..6 {
        let wire = render_request_tenant(&request(1, 700 + i), "free");
        writeln!(free_writer, "{wire}").expect("free send");
        let mut line = String::new();
        free_reader.read_line(&mut line).expect("free reply");
        assert!(
            matches!(ReplyLine::parse(line.trim()), Ok(ReplyLine::Reply(_))),
            "unlisted tenant must never shed: {line}"
        );
    }

    // Per-tenant accounting is server-local, so the stats reply is
    // exact even when other tests share the process-global registry.
    writeln!(free_writer, "{{\"cmd\":\"stats\"}}").expect("stats send");
    let mut line = String::new();
    free_reader.read_line(&mut line).expect("stats reply");
    let stats = Stats::parse(line.trim()).expect("stats parse");
    let row = stats
        .tenants
        .iter()
        .find(|t| t.name == "metered")
        .expect("metered tenant row");
    assert_eq!(row.requests, 3, "admitted requests for the metered tenant");
    assert_eq!(row.shed, 3, "shed requests for the metered tenant");

    drop(metered_writer);
    drop(metered_reader);
    drop(free_writer);
    drop(free_reader);
    send_shutdown(&addr);
    handle.join();
}

/// Sends 1,000 requests, each naming a tenant of its own, and returns
/// the stats reply that follows them on the same connection.
fn stats_after_distinct_tenants(addr: std::net::SocketAddr) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    // Windows of 50 keep the pipeline under the queue cap.
    for window in 0..20u64 {
        for i in 0..50 {
            let id = window * 50 + i;
            let wire = render_request_tenant(&request(id, 900 + id), &format!("client-{id}"));
            writeln!(writer, "{wire}").expect("send");
        }
        for _ in 0..50 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            assert!(
                matches!(ReplyLine::parse(line.trim()), Ok(ReplyLine::Reply(_))),
                "an unconfigured tenant is never shed: {line}"
            );
        }
    }
    writeln!(writer, "{{\"cmd\":\"stats\"}}").expect("stats send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("stats reply");
    line
}

/// The tenant table holds only configured tenants: client-chosen
/// names neither grow it nor the stats reply.
#[test]
fn unconfigured_tenant_names_add_no_stats_rows() {
    let handle = start_server(2, 64);
    let addr = handle.local_addr();
    let line = stats_after_distinct_tenants(addr);
    assert!(!line.contains("\"tenants\""), "no quota, no rows: {line}");
    assert!(Stats::parse(line.trim()).expect("stats").tenants.is_empty());
    send_shutdown(&addr);
    handle.join();

    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        ..ServeConfig::default()
    };
    config.tenancy.push(TenantQuota {
        name: "metered".to_owned(),
        rate: 0.0,
        burst: 0.0,
        priority: 1,
    });
    let handle = server::start(&config).expect("server starts");
    let addr = handle.local_addr();
    let stats = Stats::parse(stats_after_distinct_tenants(addr).trim()).expect("stats");
    let names: Vec<&str> = stats.tenants.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["metered"], "an unlisted name gets no row");
    send_shutdown(&addr);
    handle.join();
}

/// The accept-stall regression: shed replies ride the nonblocking
/// per-connection writer, so clients that never read do not stall
/// new connections, and every unread shed reply is still delivered —
/// exactly one per request — once the slow reader finally drains.
#[test]
fn slow_readers_do_not_stall_fresh_connections_during_a_shed_burst() {
    let handle = start_server(1, 1);
    let addr = handle.local_addr();

    // Pin the worker and fill the one queue slot from one connection.
    let mut busy = TcpStream::connect(addr).expect("busy connect");
    busy.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    writeln!(busy, "{}", render_request(&slow_request(8))).expect("pin send");
    let mut busy_reader = BufReader::new(busy.try_clone().expect("clone"));
    // Pin first, then the filler: back to back the filler could be
    // shed at the still-full queue instead of occupying it.
    std::thread::sleep(Duration::from_millis(200));
    writeln!(busy, "{}", render_request(&request(0, 9))).expect("filler send");
    std::thread::sleep(Duration::from_millis(200));

    // Three slow readers each fire four shed-bound requests and do
    // not read a single byte back.
    let mut slow_readers = Vec::new();
    for s in 0..3u64 {
        let stream = TcpStream::connect(addr).expect("slow-reader connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        for i in 0..4u64 {
            writeln!(
                writer,
                "{}",
                render_request(&request(i, 8_000 + s * 10 + i))
            )
            .expect("slow-reader send");
        }
        slow_readers.push((writer, BufReader::new(stream)));
    }
    std::thread::sleep(Duration::from_millis(100));

    // A fresh connection is accepted and answered promptly even
    // though twelve shed replies sit undrained in other sockets.
    let fresh = TcpStream::connect(addr).expect("fresh connect");
    fresh
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut fresh_writer = fresh.try_clone().expect("clone");
    let mut fresh_reader = BufReader::new(fresh);
    let t0 = std::time::Instant::now();
    writeln!(fresh_writer, "{}", render_request(&request(2, 5))).expect("fresh send");
    let mut line = String::new();
    fresh_reader.read_line(&mut line).expect("fresh shed reply");
    assert!(
        matches!(ReplyLine::parse(line.trim()), Ok(ReplyLine::Overloaded)),
        "fresh connection sheds at the full queue: {line}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shed reply must not wait on slow readers: {:?}",
        t0.elapsed()
    );

    // Every slow reader now drains exactly its four shed replies.
    for (writer, mut reader) in slow_readers {
        for _ in 0..4 {
            let mut line = String::new();
            let got = reader.read_line(&mut line).expect("buffered shed reply");
            assert!(got > 0, "shed reply lost for a slow reader");
            assert!(
                matches!(ReplyLine::parse(line.trim()), Ok(ReplyLine::Overloaded)),
                "expected overloaded, got: {line}"
            );
        }
        writer
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = String::new();
        let trailing = reader.read_to_string(&mut rest).expect("clean EOF");
        assert_eq!(trailing, 0, "stray bytes after shed replies: {rest:?}");
    }

    // The pinned connection's work still completes.
    for _ in 0..2 {
        let mut line = String::new();
        busy_reader.read_line(&mut line).expect("busy reply");
        assert!(matches!(
            ReplyLine::parse(line.trim()),
            Ok(ReplyLine::Reply(_))
        ));
    }
    drop(busy);
    drop(busy_reader);
    drop(fresh_writer);
    drop(fresh_reader);
    send_shutdown(&addr);
    handle.join();
}

/// Graceful shutdown: the ack arrives, `join` returns, queued work
/// drained, and the port stops accepting.
#[test]
fn shutdown_drains_and_releases_the_port() {
    let handle = start_server(2, 8);
    let addr = handle.local_addr();

    // A connection with one request in flight at shutdown time.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let req = request(1, 99);
    writeln!(writer, "{}", render_request(&req)).expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    assert!(matches!(
        ReplyLine::parse(line.trim()),
        Ok(ReplyLine::Reply(_))
    ));

    send_shutdown(&addr);
    assert!(handle.is_shutting_down());
    handle.join();

    // After join the listener is gone; a fresh connect must fail
    // outright or be closed without ever answering a request.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            let _ = writeln!(late, "{}", render_request(&req));
            let mut reader = BufReader::new(late);
            let mut line = String::new();
            let got = reader.read_line(&mut line).unwrap_or(0);
            assert_eq!(got, 0, "a drained server must not answer: {line}");
        }
    }
}

/// The tester cache under a worker-pool-shaped herd: every lookup is
/// classified, exactly one build per distinct key, hits + misses ==
/// calls.
#[test]
fn cache_accounting_is_exact_under_threads() {
    let engine = dut_serve::Engine::new(8);
    let threads = 8u64;
    let calls_per_thread = 12u64;
    let outcomes = parking_lot::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = &engine;
            let outcomes = &outcomes;
            scope.spawn(move || {
                let mut local = Vec::new();
                for i in 0..calls_per_thread {
                    // Two distinct keys shared by all threads.
                    let req = request((t + i) % 2, 300 + i);
                    let reply = engine.handle(&req).expect("handled");
                    local.push(reply.cache_hit);
                }
                outcomes.lock().extend(local);
            });
        }
    });
    let outcomes = outcomes.into_inner();
    assert_eq!(outcomes.len() as u64, threads * calls_per_thread);
    let misses = outcomes.iter().filter(|&&hit| !hit).count();
    // Exactly one miss per distinct key — single flight — and every
    // other call a hit: hits + misses == calls by construction of
    // the two counts, misses == distinct keys by single-flight.
    assert_eq!(misses, 2, "one build per distinct key");
    assert_eq!(engine.cached_testers(), 2);
}
