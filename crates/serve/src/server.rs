//! The request-multiplexed TCP front end.
//!
//! One accept thread hands each connection to a **shard**: an event
//! loop that parks any number of persistent connections on nonblocking
//! sockets, frames complete request lines, and either answers them
//! itself or dispatches them as individual jobs to a shared worker
//! pool. A shard answers a request only when the tester cache already
//! holds a finished build for it and the request is small (at most
//! [`INLINE_MAX_DRAWS`] draws over its trials): such a hit costs less
//! than the hand-off to a worker would. Misses, joins of a build still
//! in flight, and larger requests go to the queue, so a tester is
//! never built on a shard. The dispatch queue holds *requests*, not
//! connections, so queue depth and shed decisions are per request: a
//! full queue sheds the request with an explicit
//! `{"error":"overloaded","shed":true}` line while the connection
//! stays parked — idle keep-alive clients no longer occupy workers,
//! and a shed never costs the client its connection.
//!
//! Shards and the accept thread are readiness-driven. After each pass
//! a shard blocks in `poll(2)` on exactly the sockets it would act on:
//! readable where it would read a request (or drain a closing
//! connection), writable where a reply is only partly flushed. The
//! timeout is the nearest idle-reap, drain-window or shutdown-grace
//! deadline, capped at `POLL_INTERVAL`. What the sockets cannot show
//! arrives through the shard's self-pipe waker: a connection handed
//! over by the accept thread, shutdown, a worker reply that left bytes
//! unflushed or closed the writer, and the last in-flight reply of a
//! connection that stopped reading (peer EOF or shutdown) and now only
//! waits to be dropped. A worker's reply that flushes whole wakes
//! nobody. The replies a shard answers itself from one read leave in
//! one flush after that read's last line; if the socket does not take
//! them all, the shard watches that connection for `POLLOUT` in the
//! same pass. The accept thread likewise blocks on the listener plus
//! its own waker.
//!
//! A worker pops one queued request at a time and answers it with
//! [`Engine::handle_queued`]; a shard answers its hits with
//! [`Engine::handle_cached`], and both share everything after the
//! cache lookup. A herd of identical configurations shares one
//! prepared tester through the engine's single-flight cache. Replies
//! are written through a per-connection reorder buffer: each request
//! line gets a sequence number at parse time and replies release
//! strictly in that order, so pipelined clients see answers in request
//! order even when a queued miss finishes after the hits behind it.
//!
//! Admission is two-tier. A per-tenant token bucket (see
//! [`TenantQuota`]) sheds over-quota tenants before their requests
//! ever reach the queue, with the shed scoped to the tenant on the
//! wire (`"scope":"tenant"`). The tenant table holds one row per
//! configured quota and never grows: a request naming any other
//! tenant is admitted at priority 0 and not tracked. Above the global
//! queue cap, an incoming higher-priority request may evict the
//! lowest-priority queued request instead of being shed itself.
//!
//! Shutdown is cooperative. A `{"cmd":"shutdown"}` request flips a
//! flag and wakes every parked thread; the accept thread stops
//! accepting, shards stop reading new lines, workers drain every
//! queued request, and the shard loops keep each connection parked
//! until its in-flight replies have flushed (bounded by a grace
//! period). [`ServerHandle::join`] returns once all threads exit.

use crate::engine::Engine;
use crate::poll::{PollFd, Waker, POLLIN, POLLOUT};
use crate::protocol::{self, Command, Reply};
use crate::stats;
use dut_obs::metrics::{Counter, Gauge, HistogramId};
use parking_lot::Mutex as PlMutex;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a parked thread waits before re-checking its state: the
/// worker condvar timeout and the cap on every `poll(2)` timeout. Wakes
/// normally come sooner; this only bounds the cost of one missed.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Read chunks one connection may consume per shard pass, so one
/// firehose client cannot starve its shard siblings.
const READS_PER_PASS: usize = 16;

/// Largest `trials·k·q` (alias draws over a request's trials) that a
/// cache hit may have to be answered on the shard thread that framed
/// it instead of being queued for a worker. At the bound a hit costs
/// less than the hand-off it replaces: 1024 draws compute in about
/// 4 µs (`compute_micros` p50, p90 5 µs: balanced rule, `n = 1024`,
/// `k = q = 32`, one trial, release build on a 2-vCPU Xeon VM), while
/// a queued request's parse-to-pickup wait has a p50 of 8 µs at
/// 1000 req/s on the same host. 4096 draws take about 18 µs, more
/// than that wait.
pub const INLINE_MAX_DRAWS: u64 = 1024;

/// Inline draws one shard pass may spend across all its connections.
/// `READS_PER_PASS` bounds a pass's bytes, not its work; past this
/// budget the pass queues even small hits for the workers, so inline
/// compute delays a shard's other connections by at most about 0.3 ms
/// per pass.
const INLINE_DRAWS_PER_PASS: u64 = 64 * INLINE_MAX_DRAWS;

/// Bytes of un-flushed reply a connection may accumulate before the
/// server declares the client a non-reader and drops it. Bounds
/// memory under the slow-reader attack the per-connection writer
/// otherwise invites.
pub const OUTBUF_CAP: usize = 256 * 1024;

/// How long a closing connection is drained (client bytes read and
/// discarded) after the final notice, so the notice survives instead
/// of being destroyed by an RST from unread input.
const DRAIN_WINDOW: Duration = Duration::from_millis(250);

/// How long shards keep parked connections alive after shutdown to
/// let in-flight replies flush before the loop exits anyway.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Consecutive shed *requests* that count as a burst and trigger an
/// automatic flight-recorder dump (once per burst; the streak resets
/// when a request is admitted again).
pub const SHED_BURST_THRESHOLD: u64 = 8;

/// Tenant name charged when a request carries no `tenant` field.
pub const DEFAULT_TENANT: &str = "default";

/// One tenant's admission quota.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Tenant id as it appears on the wire.
    pub name: String,
    /// Sustained admissions per second (0 disables rate limiting for
    /// this tenant).
    pub rate: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// Priority above the global queue cap: an incoming request may
    /// evict a queued lower-priority request instead of shedding.
    pub priority: u8,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Prepared testers kept resident (across all cache shards).
    pub cache_cap: usize,
    /// Requests waiting for a worker before the server sheds.
    pub queue_cap: usize,
    /// One request in this many emits a sampled `serve_trace` event
    /// (0 disables sampling).
    pub trace_sample: u64,
    /// A connection that completes no request line for this long is
    /// reaped (covers both idle-forever clients and slowloris drips
    /// that send bytes but never a newline).
    pub idle_timeout: Duration,
    /// Error replies a single connection may receive before the
    /// server closes it (0 disables the budget). Honest clients never
    /// get near it; a fuzzer or abuser hits it quickly.
    pub error_budget: u32,
    /// Hard cap on one request line's bytes; longer lines get
    /// `{"error":"line_too_long"}` and the connection closes.
    pub max_line_bytes: usize,
    /// Connection-shard event loops (each parks a subset of the
    /// persistent connections).
    pub shards: usize,
    /// Independent prepared-tester cache shards.
    pub cache_shards: usize,
    /// Per-tenant admission quotas, one per distinct tenant name
    /// ([`start`] rejects a name given twice). Requests with no
    /// tenant field are charged to [`DEFAULT_TENANT`]; a request whose
    /// tenant has no quota is admitted at priority 0 and not tracked.
    pub tenancy: Vec<TenantQuota>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            cache_cap: 32,
            queue_cap: 64,
            trace_sample: crate::engine::DEFAULT_TRACE_SAMPLE,
            idle_timeout: Duration::from_secs(30),
            error_budget: 64,
            max_line_bytes: protocol::MAX_LINE_BYTES,
            shards: 2,
            cache_shards: crate::engine::DEFAULT_CACHE_SHARDS,
            tenancy: Vec::new(),
        }
    }
}

/// One reply line waiting in a connection's reorder buffer.
struct Line {
    text: String,
    /// Counts against the connection's error budget when released.
    is_error: bool,
    /// Close the connection after this line (shutdown ack, final
    /// notice, caught handler panic).
    close_after: bool,
}

/// The write half of a connection: a reorder buffer keyed by request
/// sequence number, an output byte buffer, and the error-budget
/// ledger. Replies may be submitted from any worker in any order;
/// they release strictly in sequence order so pipelined clients see
/// answers in request order.
struct ConnWriter {
    stream: TcpStream,
    /// The next sequence number allowed to release.
    next_release: u64,
    /// Out-of-order replies parked until their turn.
    ready: BTreeMap<u64, Line>,
    /// Released bytes not yet accepted by the socket.
    out: Vec<u8>,
    errors_released: u32,
    error_budget: u32,
    /// A close-after line released: no further lines release, and the
    /// write side shuts down once `out` drains.
    closing: bool,
    /// `shutdown(Write)` already issued.
    write_shut: bool,
    /// The socket failed or the client stopped reading; the shard
    /// drops the connection on its next pass.
    dead: bool,
}

impl ConnWriter {
    fn new(stream: TcpStream, error_budget: u32) -> ConnWriter {
        ConnWriter {
            stream,
            next_release: 0,
            ready: BTreeMap::new(),
            out: Vec::new(),
            errors_released: 0,
            error_budget,
            closing: false,
            write_shut: false,
            dead: false,
        }
    }

    /// Files the reply for `seq` in the reorder buffer and releases
    /// what is now in order. Returns `false` (dropping the reply) once
    /// the connection is closing or dead: the close-after line already
    /// won.
    fn accept(&mut self, seq: u64, text: String, is_error: bool, close_after: bool) -> bool {
        if self.dead || self.closing {
            return false;
        }
        self.ready.insert(
            seq,
            Line {
                text,
                is_error,
                close_after,
            },
        );
        self.release();
        true
    }

    /// Moves every consecutively-sequenced reply from the reorder
    /// buffer into the output buffer, applying the close-after and
    /// error-budget contracts in release order (so "N errors, then
    /// the budget notice, then EOF" holds exactly even when workers
    /// finish out of order).
    fn release(&mut self) {
        while !self.closing && !self.dead {
            let Some(line) = self.ready.remove(&self.next_release) else {
                break;
            };
            self.next_release += 1;
            self.out.extend_from_slice(line.text.as_bytes());
            self.out.push(b'\n');
            if line.close_after {
                self.closing = true;
                self.ready.clear();
                break;
            }
            if line.is_error {
                self.errors_released = self.errors_released.saturating_add(1);
                if self.error_budget > 0 && self.errors_released >= self.error_budget {
                    dut_obs::metrics::global().incr(Counter::ServeErrorBudget);
                    self.out
                        .extend_from_slice(protocol::render_error_budget_exhausted().as_bytes());
                    self.out.push(b'\n');
                    self.closing = true;
                    self.ready.clear();
                    break;
                }
            }
        }
    }

    /// Writes as much of the output buffer as the socket accepts
    /// right now.
    fn flush(&mut self) {
        let mut written = 0usize;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if written > 0 {
            self.out.drain(..written);
        }
        if self.out.len() > OUTBUF_CAP {
            // The client is not reading; buffering further replies
            // only converts their stall into our memory.
            self.dead = true;
        }
    }
}

/// Writer-side snapshot taken once per shard pass.
struct WriterStatus {
    dead: bool,
    closing: bool,
    write_shut: bool,
    /// Released bytes still wait for the socket to accept them.
    unflushed: bool,
    /// Nothing released or buffered remains unwritten.
    drained: bool,
}

/// One live connection, shared between its shard (reads) and any
/// workers holding its queued jobs (reply submission).
struct Conn {
    writer: PlMutex<ConnWriter>,
    /// Requests parsed off this connection not yet answered.
    inflight: AtomicU64,
    /// The shard stopped reading (peer EOF or shutdown) and keeps the
    /// connection only until its in-flight replies flush: retiring the
    /// last one must wake the shard.
    draining: AtomicBool,
    /// The owning shard's waker.
    waker: Arc<Waker>,
}

impl Conn {
    fn new(write_half: TcpStream, error_budget: u32, waker: Arc<Waker>) -> Conn {
        Conn {
            writer: PlMutex::new(ConnWriter::new(write_half, error_budget)),
            inflight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            waker,
        }
    }

    /// Submits the reply for sequence `seq` and opportunistically
    /// flushes. Called from workers and from the shard itself; safe
    /// to call after the connection started closing (the reply is
    /// dropped — the close-after line already won).
    fn submit(&self, seq: u64, text: String, is_error: bool, close_after: bool) {
        let mut writer = self.writer.lock();
        if !writer.accept(seq, text, is_error, close_after) {
            return;
        }
        writer.flush();
        // A reply flushed whole needs nothing from the shard. Bytes
        // left over (the shard must watch for POLLOUT) and a closing
        // or dead writer are changes its sockets cannot show.
        let wake = !writer.out.is_empty() || writer.closing || writer.dead;
        drop(writer);
        if wake {
            self.waker.wake();
        }
    }

    /// Files the reply for sequence `seq` and releases what it can,
    /// but writes nothing: the shard answering a hit inline flushes
    /// once after the read that framed it (see [`process_pending`]),
    /// so every reply framed from one read leaves in one `write(2)`.
    fn push(&self, seq: u64, text: String, is_error: bool) {
        self.writer.lock().accept(seq, text, is_error, false);
    }

    /// Retires one answered (or shed) request. The last one of a
    /// draining connection wakes the shard waiting to drop it.
    fn retire(&self) {
        // SeqCst pairs with the shard's `draining` store and
        // `inflight` load in `step_conn`: at least one side sees the
        // other, so the final retire is never missed.
        if self.inflight.fetch_sub(1, Ordering::SeqCst) == 1 && self.draining.load(Ordering::SeqCst)
        {
            self.waker.wake();
        }
    }

    fn is_closing(&self) -> bool {
        let writer = self.writer.lock();
        writer.closing || writer.dead
    }

    /// One shard-pass service step: flush pending output, start the
    /// write-side shutdown once a closing connection drains, and
    /// report state for the shard's keep/drop decision.
    fn pump(&self) -> WriterStatus {
        let mut writer = self.writer.lock();
        if !writer.dead {
            writer.flush();
        }
        if writer.closing && !writer.dead && !writer.write_shut && writer.out.is_empty() {
            let _ = writer.stream.shutdown(Shutdown::Write);
            writer.write_shut = true;
        }
        WriterStatus {
            dead: writer.dead,
            closing: writer.closing,
            write_shut: writer.write_shut,
            unflushed: !writer.out.is_empty(),
            drained: writer.out.is_empty() && writer.ready.is_empty(),
        }
    }
}

/// A freshly accepted connection in transit from the accept thread to
/// its shard.
struct NewConn {
    stream: TcpStream,
    conn: Arc<Conn>,
}

/// The read half of a parked connection, owned by exactly one shard.
struct ConnReader {
    conn: Arc<Conn>,
    stream: TcpStream,
    pending: Vec<u8>,
    /// Next request sequence number on this connection. Allocated at
    /// parse time on the shard thread, so sequences are consecutive
    /// and the writer's reorder buffer releases without gaps.
    next_seq: u64,
    last_line_at: Instant,
    peer_eof: bool,
    /// A final notice was submitted; stop reading request lines.
    muted: bool,
    drain_deadline: Option<Instant>,
}

impl ConnReader {
    fn new(item: NewConn) -> ConnReader {
        ConnReader {
            conn: item.conn,
            stream: item.stream,
            pending: Vec::new(),
            next_seq: 0,
            last_line_at: Instant::now(),
            peer_eof: false,
            muted: false,
            drain_deadline: None,
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

/// A parsed request waiting for (or evicted from) the dispatch queue.
struct Job {
    conn: Arc<Conn>,
    seq: u64,
    req: protocol::Request,
    priority: u8,
    enqueued_at: Instant,
}

/// One configured tenant's quota, token bucket and ledger.
struct TenantRow {
    rate: f64,
    burst: f64,
    priority: u8,
    bucket: PlMutex<TenantBucket>,
}

struct TenantBucket {
    tokens: f64,
    last_refill: Instant,
    admitted: u64,
    shed: u64,
}

/// The tenant table: one row per configured quota, built once at
/// start and never grown. Requests with no tenant field are looked up
/// under [`DEFAULT_TENANT`]; a name with no row is admitted at
/// priority 0 without taking a lock.
struct Tenants {
    rows: BTreeMap<String, TenantRow>,
}

impl Tenants {
    /// Builds the table, rejecting a tenant name configured twice.
    fn new(quotas: &[TenantQuota]) -> Result<Tenants, String> {
        let now = Instant::now();
        let mut rows = BTreeMap::new();
        for quota in quotas {
            let burst = quota.burst.max(1.0);
            let row = TenantRow {
                rate: quota.rate,
                burst,
                priority: quota.priority,
                bucket: PlMutex::new(TenantBucket {
                    tokens: burst,
                    last_refill: now,
                    admitted: 0,
                    shed: 0,
                }),
            };
            if rows.insert(quota.name.clone(), row).is_some() {
                return Err(format!("tenant `{}` is configured twice", quota.name));
            }
        }
        Ok(Tenants { rows })
    }

    /// Admission decision for one request: `(admitted, priority)`.
    fn admit(&self, tenant: Option<&str>) -> (bool, u8) {
        let Some(row) = self.rows.get(tenant.unwrap_or(DEFAULT_TENANT)) else {
            return (true, 0);
        };
        let mut bucket = row.bucket.lock();
        if row.rate > 0.0 {
            let now = Instant::now();
            let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
            bucket.tokens = (bucket.tokens + elapsed * row.rate).min(row.burst);
            bucket.last_refill = now;
            if bucket.tokens < 1.0 {
                bucket.shed += 1;
                return (false, row.priority);
            }
            bucket.tokens -= 1.0;
        }
        bucket.admitted += 1;
        (true, row.priority)
    }

    fn snapshot(&self) -> Vec<stats::TenantStat> {
        self.rows
            .iter()
            .map(|(name, row)| {
                let bucket = row.bucket.lock();
                stats::TenantStat {
                    name: name.clone(),
                    requests: bucket.admitted,
                    shed: bucket.shed,
                }
            })
            .collect()
    }
}

/// A shard's hand-off box: connections the accept thread passed over,
/// and the waker that tells the parked shard to collect them.
struct Mailbox {
    inbox: PlMutex<Vec<NewConn>>,
    waker: Arc<Waker>,
}

struct Shared {
    engine: Engine,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    queue_cap: usize,
    /// Consecutive shed requests since the last admission; crossing
    /// [`SHED_BURST_THRESHOLD`] dumps the flight recorder once per
    /// burst (the compare-exchange in [`streak_shed`] makes the
    /// crossing a single atomic transition, so concurrent shedders
    /// cannot double-fire or skip it).
    shed_streak: AtomicU64,
    idle_timeout: Duration,
    error_budget: u32,
    max_line_bytes: usize,
    /// Per-shard hand-off boxes from the accept thread.
    shards: Vec<Mailbox>,
    /// Wakes the accept thread out of its `poll(2)` (shutdown).
    accept_waker: Waker,
    tenants: Tenants,
    conn_count: AtomicU64,
}

impl Shared {
    /// The state every server thread shares, before any thread starts.
    fn new(config: &ServeConfig) -> Result<Shared, String> {
        let waker = || Waker::new().map_err(|e| format!("cannot create waker: {e}"));
        let shards = (0..config.shards.max(1))
            .map(|_| {
                Ok(Mailbox {
                    inbox: PlMutex::new(Vec::new()),
                    waker: Arc::new(waker()?),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Shared {
            engine: Engine::with_options(
                config.cache_cap,
                config.trace_sample,
                config.cache_shards.max(1),
            ),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_cap: config.queue_cap.max(1),
            shed_streak: AtomicU64::new(0),
            idle_timeout: config.idle_timeout.max(POLL_INTERVAL),
            error_budget: config.error_budget,
            max_line_bytes: config.max_line_bytes.max(1),
            shards,
            accept_waker: waker()?,
            tenants: Tenants::new(&config.tenancy)?,
            conn_count: AtomicU64::new(0),
        })
    }

    /// Locks the request queue, recovering from poisoning (a
    /// panicking worker must not wedge the whole server).
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        self.accept_waker.wake();
        for mailbox in &self.shards {
            mailbox.waker.wake();
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Atomically advances the shed streak by one and reports whether
/// *this* increment crossed [`SHED_BURST_THRESHOLD`] — exactly one
/// caller per burst observes `true`, no matter how increments and
/// [`streak_reset`] calls interleave across threads.
fn streak_shed(streak: &AtomicU64) -> bool {
    let mut current = streak.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(1);
        match streak.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return next == SHED_BURST_THRESHOLD,
            Err(found) => current = found,
        }
    }
}

/// An admission ends the current burst. Every shard admits requests,
/// so the counter is read first: outside a burst nothing writes the
/// cache line the shards share.
fn streak_reset(streak: &AtomicU64) {
    if streak.load(Ordering::Relaxed) != 0 {
        streak.store(0, Ordering::Relaxed);
    }
}

/// A running server. Dropping the handle detaches the threads; call
/// [`ServerHandle::join`] (usually after a client sent `shutdown`, or
/// after [`ServerHandle::request_shutdown`]) for a clean exit.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0` to the real port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown from the host process (equivalent to a
    /// client's `{"cmd":"shutdown"}`).
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has been initiated.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Waits for the accept thread, every shard, and every worker to
    /// exit. Returns only after a shutdown was requested (by a client
    /// or by [`Self::request_shutdown`]) and all in-flight work
    /// drained.
    pub fn join(self) {
        for thread in self.threads {
            // A worker that panicked already served its panic to the
            // affected requests; the server still drains the rest.
            let _ = thread.join();
        }
    }
}

/// Binds the listener and starts the accept thread, connection
/// shards, and worker pool.
///
/// # Errors
///
/// Returns the bind/configuration error message.
pub fn start(config: &ServeConfig) -> Result<ServerHandle, String> {
    let shared = Arc::new(Shared::new(config)?);
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    // The flight recorder is a process-wide sink: install it once no
    // matter how many servers this process starts (tests start many).
    static FLIGHT_INSTALL: Once = Once::new();
    FLIGHT_INSTALL.call_once(|| {
        dut_obs::global()
            .install_sink(Arc::clone(dut_obs::flight::global()) as Arc<dyn dut_obs::Sink>);
    });
    let shards = shared.shards.len();
    let workers = config.workers.max(1);
    let mut threads = Vec::with_capacity(workers + shards + 1);
    for worker in 0..workers {
        threads.push(spawn_named(
            format!("serve-worker-{worker}"),
            &shared,
            worker_loop,
        )?);
    }
    for shard in 0..shards {
        threads.push(spawn_named(
            format!("serve-shard-{shard}"),
            &shared,
            move |shared| shard_loop(shared, shard),
        )?);
    }
    threads.push(spawn_named(
        "serve-accept".to_owned(),
        &shared,
        move |shared| accept_loop(&listener, shared),
    )?);
    dut_obs::global().emit_with(|| {
        dut_obs::Event::new("serve_started")
            .with("addr", addr.to_string())
            .with("workers", workers)
            .with("shards", shards)
            .with("queue_cap", config.queue_cap.max(1))
    });
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Spawns one named server thread (the names make per-thread CPU in
/// `/proc/<pid>/task/*/stat` attributable). On failure the threads
/// already running are told to exit.
fn spawn_named<F>(name: String, shared: &Arc<Shared>, body: F) -> Result<JoinHandle<()>, String>
where
    F: FnOnce(&Shared) + Send + 'static,
{
    let thread_shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&thread_shared))
        .map_err(|e| {
            shared.begin_shutdown();
            format!("cannot spawn server thread: {e}")
        })
}

fn conn_opened(shared: &Shared) {
    let count = shared.conn_count.fetch_add(1, Ordering::AcqRel) + 1;
    dut_obs::metrics::global().set_gauge(Gauge::ServeConnections, count);
}

fn conn_closed(shared: &Shared) {
    let before = shared.conn_count.fetch_sub(1, Ordering::AcqRel);
    dut_obs::metrics::global().set_gauge(Gauge::ServeConnections, before.saturating_sub(1));
}

/// Accepts connections and hands each to a shard round-robin. This
/// thread never writes to a socket: under overload the shed decision
/// is per *request* and happens on the shard/worker side, so a burst
/// of slow clients cannot stall the accept path. Between bursts it
/// parks in `poll(2)` on the listener and its waker.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut next_shard = 0usize;
    let mut fds = Vec::with_capacity(2);
    while !shared.is_shutting_down() {
        let listening = match listener.accept() {
            Ok((stream, _peer)) => {
                hand_off(shared, stream, next_shard);
                next_shard = (next_shard + 1) % shared.shards.len();
                continue;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => true,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) =>
            {
                continue;
            }
            // Out of descriptors or buffers: the listener stays
            // readable, so watching it would spin. Wait out one
            // interval on the waker alone, then retry.
            Err(_) => false,
        };
        fds.clear();
        if listening {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        shared.accept_waker.wait(&mut fds, POLL_INTERVAL);
    }
    // Listener drops here: further connects are refused, which is the
    // observable "server is gone" signal clients get after drain.
    shared.available.notify_all();
}

/// Sets up one accepted connection and passes it to `shard`.
fn hand_off(shared: &Shared, stream: TcpStream, shard: usize) {
    // One-line replies must leave immediately: without nodelay the
    // reply sits in Nagle's buffer waiting on the client's delayed ACK
    // (~40ms a round trip).
    let _ = stream.set_nodelay(true);
    // Both halves share the fd, so this covers the writer clone too.
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mailbox = &shared.shards[shard];
    let conn = Arc::new(Conn::new(
        write_half,
        shared.error_budget,
        Arc::clone(&mailbox.waker),
    ));
    conn_opened(shared);
    mailbox.inbox.lock().push(NewConn { stream, conn });
    mailbox.waker.wake();
}

/// What a kept connection needs from its shard before the next pass.
#[derive(Default)]
struct Wait {
    /// `poll(2)` events to watch on the socket; 0 leaves the socket
    /// out of the poll set (muted, peer-EOF and shutting connections
    /// with nothing left to flush).
    events: i16,
    /// A timer (idle reap, drain window) that needs a pass.
    deadline: Option<Instant>,
    /// The next pass has work whatever the socket shows (read budget
    /// spent, or the connection changed state this pass).
    now: bool,
}

impl Wait {
    fn socket(events: i16) -> Wait {
        Wait {
            events,
            ..Wait::default()
        }
    }

    fn now() -> Wait {
        Wait {
            now: true,
            ..Wait::default()
        }
    }
}

/// One shard: parks its connections, frames request lines, dispatches
/// jobs, and retires connections that died, drained after EOF, or
/// finished their closing handshake. Each pass ends in `poll(2)` over
/// the sockets the pass left waiting, unless some connection already
/// has more work.
fn shard_loop(shared: &Shared, shard: usize) {
    let registry = dut_obs::metrics::global();
    let mailbox = &shared.shards[shard];
    let mut conns: Vec<ConnReader> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut shutdown_deadline: Option<Instant> = None;
    loop {
        registry.incr(Counter::ServeShardPasses);
        let fresh: Vec<NewConn> = std::mem::take(&mut *mailbox.inbox.lock());
        conns.extend(fresh.into_iter().map(ConnReader::new));
        let shutting = shared.is_shutting_down();
        if shutting && shutdown_deadline.is_none() {
            shutdown_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
        }
        let mut deadline = shutdown_deadline;
        let mut busy = false;
        let mut inline_budget = INLINE_DRAWS_PER_PASS;
        fds.clear();
        conns.retain_mut(|reader| {
            let Some(wait) = step_conn(shared, reader, shutting, &mut inline_budget) else {
                conn_closed(shared);
                return false;
            };
            if wait.events != 0 {
                fds.push(PollFd::new(reader.stream.as_raw_fd(), wait.events));
            }
            deadline = match (deadline, wait.deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            busy |= wait.now;
            true
        });
        if shutting {
            let expired = shutdown_deadline.is_some_and(|deadline| Instant::now() >= deadline);
            if conns.is_empty() || expired {
                for _ in &conns {
                    conn_closed(shared);
                }
                conns.clear();
                break;
            }
        }
        if !busy {
            registry.incr(Counter::ServeShardParks);
            let timeout = deadline.map_or(POLL_INTERVAL, |at| {
                at.saturating_duration_since(Instant::now())
                    .min(POLL_INTERVAL)
            });
            mailbox.waker.wait(&mut fds, timeout);
        }
    }
}

/// Services one connection for one shard pass and says what it waits
/// for next (`None`: drop it). Order matters: flush first (replies
/// drain even off a muted or closing connection), then the closing
/// handshake, then EOF/shutdown drain conditions, then the idle reap,
/// and only then new reads. Hits answered inline from a read are
/// flushed before the next read; bytes the socket did not take add
/// `POLLOUT` to this pass's wait.
fn step_conn(
    shared: &Shared,
    reader: &mut ConnReader,
    shutting: bool,
    inline_budget: &mut u64,
) -> Option<Wait> {
    let status = reader.conn.pump();
    if status.dead {
        return None;
    }
    let mut flush = if status.unflushed { POLLOUT } else { 0 };
    if status.write_shut {
        // Final notice sent and write side shut: drain (and discard)
        // client leftovers for a bounded moment so the notice is not
        // destroyed by an RST, then drop.
        let deadline = *reader
            .drain_deadline
            .get_or_insert_with(|| Instant::now() + DRAIN_WINDOW);
        let mut sink = [0u8; 4096];
        loop {
            match reader.stream.read(&mut sink) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        return Some(Wait {
            events: POLLIN,
            deadline: Some(deadline),
            now: false,
        });
    }
    if status.closing {
        // Close-after reply released but not fully flushed yet.
        return Some(Wait::socket(flush));
    }
    if reader.peer_eof || shutting {
        // Half-closed client (served until its queued work drains,
        // then dropped → clean FIN) or server shutdown (no new reads;
        // in-flight replies still flush).
        reader.conn.draining.store(true, Ordering::SeqCst);
        let inflight = reader.conn.inflight.load(Ordering::SeqCst);
        return (inflight > 0 || !status.drained).then(|| Wait::socket(flush));
    }
    // A connection still awaiting a reply is not idle; its reap is
    // re-checked on a later pass (see the deadline below).
    if !reader.muted
        && reader.conn.inflight.load(Ordering::Acquire) == 0
        && reader.last_line_at.elapsed() >= shared.idle_timeout
    {
        dut_obs::metrics::global().incr(Counter::ServeReaped);
        let seq = reader.alloc_seq();
        reader
            .conn
            .submit(seq, protocol::render_idle_timeout(), false, true);
        reader.muted = true;
        return Some(Wait::now());
    }
    if reader.muted {
        return Some(Wait::socket(flush));
    }
    let mut chunk = [0u8; 4096];
    for _ in 0..READS_PER_PASS {
        match reader.stream.read(&mut chunk) {
            Ok(0) => {
                reader.peer_eof = true;
                return Some(Wait::now());
            }
            Ok(got) => {
                reader.pending.extend_from_slice(&chunk[..got]);
                let status = process_pending(shared, reader, inline_budget);
                if reader.muted || status.closing || status.dead {
                    return Some(Wait::now());
                }
                flush = if status.unflushed { POLLOUT } else { 0 };
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // A reap deadline already past (requests in flight)
                // is left to the poll cap rather than spun on.
                let idle_at = reader.last_line_at + shared.idle_timeout;
                return Some(Wait {
                    events: POLLIN | flush,
                    deadline: (idle_at > Instant::now()).then_some(idle_at),
                    now: false,
                });
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    // Read budget spent with bytes still arriving: come straight back.
    Some(Wait::now())
}

/// Frames and answers every complete request line buffered on the
/// connection. A partial trailing line stays buffered (or trips the
/// line cap). Three hostile-client defenses live here and in
/// [`step_conn`], all with explicit final replies so a
/// well-meaning-but-buggy client can diagnose itself: the line cap,
/// the idle reap, and (enforced at release time by [`ConnWriter`])
/// the error budget. Ends with one flush of whatever the lines
/// released (the replies of hits answered inline) and returns the
/// writer's state after it.
fn process_pending(
    shared: &Shared,
    reader: &mut ConnReader,
    inline_budget: &mut u64,
) -> WriterStatus {
    loop {
        if reader.muted || reader.conn.is_closing() {
            reader.pending.clear();
            break;
        }
        let Some(newline) = reader.pending.iter().position(|&b| b == b'\n') else {
            break;
        };
        let line: Vec<u8> = reader.pending.drain(..=newline).collect();
        reader.last_line_at = Instant::now();
        if line.len() > shared.max_line_bytes {
            mute_with_notice(reader, protocol::render_line_too_long());
            break;
        }
        let text = String::from_utf8_lossy(&line);
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        answer_parsed(shared, reader, text, inline_budget);
    }
    if reader.pending.len() > shared.max_line_bytes {
        // A line still has no newline but already blew the cap: stop
        // buffering it.
        mute_with_notice(reader, protocol::render_line_too_long());
    }
    reader.conn.pump()
}

/// Submits a final malformed-line notice and mutes the reader.
fn mute_with_notice(reader: &mut ConnReader, notice: String) {
    dut_obs::metrics::global().incr(Counter::ServeMalformed);
    let seq = reader.alloc_seq();
    reader.conn.submit(seq, notice, false, true);
    reader.muted = true;
    reader.pending.clear();
}

/// Allocates the line's sequence number and evaluates it behind a
/// panic boundary. A panicking handler must cost at most its own
/// connection: without this, the unwind kills the shard thread and
/// every connection parked on it.
fn answer_parsed(shared: &Shared, reader: &mut ConnReader, text: &str, inline_budget: &mut u64) {
    let seq = reader.alloc_seq();
    let conn = Arc::clone(&reader.conn);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_line(shared, &conn, seq, text, inline_budget);
    }));
    if caught.is_err() {
        dut_obs::metrics::global().incr(Counter::ServePanicsCaught);
        conn.submit(
            seq,
            protocol::render_error("internal: request handler panicked"),
            true,
            true,
        );
        reader.muted = true;
    }
}

/// Evaluates one request line: admin commands answer inline on the
/// shard; runs pass tenant admission, then a small hit on a finished
/// build is answered on the shard too (its reply waits for the read's
/// one flush) and everything else enters the dispatch queue.
fn handle_line(shared: &Shared, conn: &Arc<Conn>, seq: u64, line: &str, inline_budget: &mut u64) {
    let registry = dut_obs::metrics::global();
    match protocol::parse_command_meta(line) {
        Ok((Command::Run(request), meta)) => {
            let (admitted, priority) = shared.tenants.admit(meta.tenant.as_deref());
            if !admitted {
                // A tenant-scoped shed: the *tenant* is over quota,
                // not the server — it neither feeds the burst streak
                // nor costs the connection its error budget.
                registry.incr(Counter::ServeShed);
                registry.incr(Counter::ServeTenantShed);
                let name = meta.tenant.as_deref().unwrap_or(DEFAULT_TENANT);
                conn.submit(seq, protocol::render_overloaded_tenant(name), false, false);
                return;
            }
            if let Some(answer) = answer_inline(shared, &request, inline_budget) {
                streak_reset(&shared.shed_streak);
                let (text, is_error) = reply_text(answer);
                conn.push(seq, text, is_error);
                return;
            }
            enqueue_request(
                shared,
                Job {
                    conn: Arc::clone(conn),
                    seq,
                    req: request,
                    priority,
                    enqueued_at: Instant::now(),
                },
            );
        }
        Ok((Command::Shutdown, _meta)) => {
            shared.begin_shutdown();
            conn.submit(seq, protocol::render_shutdown_ack(), false, true);
        }
        Ok((Command::Stats, _meta)) => {
            conn.submit(seq, render_stats(shared), false, false);
        }
        Ok((Command::Flight, _meta)) => {
            conn.submit(
                seq,
                stats::render_flight(dut_obs::flight::global()),
                false,
                false,
            );
        }
        Err(message) => {
            registry.incr(Counter::ServeMalformed);
            conn.submit(seq, protocol::render_error(&message), true, false);
        }
    }
}

/// Answers a request on the shard when it is small (`trials·k·q` at
/// most [`INLINE_MAX_DRAWS`] and within the pass's remaining budget)
/// and its key has a finished build in the cache; the draws are
/// charged to the budget. `None` leaves the request to the queue: a
/// miss, a join of a build in flight, or a large request.
fn answer_inline(
    shared: &Shared,
    req: &protocol::Request,
    inline_budget: &mut u64,
) -> Option<Result<Reply, String>> {
    let draws = req
        .trials
        .saturating_mul(req.k as u64)
        .saturating_mul(req.q as u64);
    if draws > INLINE_MAX_DRAWS.min(*inline_budget) {
        return None;
    }
    let answer = shared.engine.handle_cached(req)?;
    *inline_budget -= draws;
    Some(answer)
}

/// A computed answer as its wire line and whether it counts against
/// the connection's error budget.
fn reply_text(answer: Result<Reply, String>) -> (String, bool) {
    match answer {
        Ok(reply) => (reply.render(), false),
        Err(message) => (protocol::render_error(&message), true),
    }
}

/// Current stats with the live tenant table attached.
fn render_stats(shared: &Shared) -> String {
    let cached = u64::try_from(shared.engine.cached_testers()).unwrap_or(u64::MAX);
    let mut gathered = stats::gather(cached);
    gathered.tenants = shared.tenants.snapshot();
    gathered.render()
}

/// Queues one admitted request, or sheds. At the cap an incoming
/// request may evict the lowest-priority queued request strictly
/// below its own priority (the evictee gets the shed reply); equal
/// priorities never preempt each other.
fn enqueue_request(shared: &Shared, job: Job) {
    let registry = dut_obs::metrics::global();
    job.conn.inflight.fetch_add(1, Ordering::AcqRel);
    let mut queue = shared.lock_queue();
    if queue.len() >= shared.queue_cap {
        let victim_at = (0..queue.len())
            .filter(|&i| queue[i].priority < job.priority)
            .min_by_key(|&i| queue[i].priority);
        if let Some(at) = victim_at {
            let victim = queue.remove(at);
            queue.push_back(job);
            registry.set_gauge(Gauge::ServeQueueDepth, queue.len() as u64);
            drop(queue);
            shared.available.notify_one();
            if let Some(victim) = victim {
                shed_request(shared, &victim.conn, victim.seq);
                victim.conn.retire();
            }
        } else {
            registry.set_gauge(Gauge::ServeQueueDepth, queue.len() as u64);
            drop(queue);
            shed_request(shared, &job.conn, job.seq);
            job.conn.retire();
        }
    } else {
        streak_reset(&shared.shed_streak);
        queue.push_back(job);
        registry.set_gauge(Gauge::ServeQueueDepth, queue.len() as u64);
        drop(queue);
        shared.available.notify_one();
    }
}

/// Sheds one request: explicit reply on the request's own sequence
/// slot (the connection stays parked), plus the burst accounting.
fn shed_request(shared: &Shared, conn: &Conn, seq: u64) {
    dut_obs::metrics::global().incr(Counter::ServeShed);
    if streak_shed(&shared.shed_streak) {
        // A burst is in progress: capture what led up to it. The
        // dump travels as a trace event, so file sinks record the
        // incident context; the ring itself skips it.
        dut_obs::global().emit_with(|| dut_obs::flight::global().dump_event("shed_burst"));
    }
    conn.submit(seq, protocol::render_overloaded(), false, false);
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = next_job(shared) {
        process_job(shared, &job);
    }
}

/// Pops the next job. Returns `None` only when the queue is empty
/// *and* shutdown was requested, so drain is guaranteed.
fn next_job(shared: &Shared) -> Option<Job> {
    let mut queue = shared.lock_queue();
    loop {
        if let Some(job) = queue.pop_front() {
            dut_obs::metrics::global().set_gauge(Gauge::ServeQueueDepth, queue.len() as u64);
            return Some(job);
        }
        if shared.is_shutting_down() {
            return None;
        }
        let (guard, _timed_out) = shared
            .available
            .wait_timeout(queue, POLL_INTERVAL)
            .unwrap_or_else(PoisonError::into_inner);
        queue = guard;
    }
}

/// Answers one job. The queue wait recorded here is the *request's*
/// scheduling delay — parse to worker pickup — which is the number
/// `queue_wait_p99` in stats actually promises.
fn process_job(shared: &Shared, job: &Job) {
    let registry = dut_obs::metrics::global();
    let waited = u64::try_from(job.enqueued_at.elapsed().as_micros()).unwrap_or(u64::MAX);
    registry.observe(HistogramId::QueueWaitMicros, waited);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.engine.handle_queued(&job.req, waited)
    }));
    match caught {
        Ok(answer) => {
            let (text, is_error) = reply_text(answer);
            job.conn.submit(job.seq, text, is_error, false);
        }
        Err(_panic) => {
            registry.incr(Counter::ServePanicsCaught);
            job.conn.submit(
                job.seq,
                protocol::render_error("internal: request handler panicked"),
                true,
                true,
            );
        }
    }
    job.conn.retire();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn streak_crossing_fires_exactly_once_per_burst() {
        let streak = AtomicU64::new(0);
        let mut fired = 0;
        for _ in 0..(SHED_BURST_THRESHOLD * 3) {
            if streak_shed(&streak) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "one crossing per uninterrupted burst");
        streak_reset(&streak);
        let mut refired = 0;
        for _ in 0..SHED_BURST_THRESHOLD {
            if streak_shed(&streak) {
                refired += 1;
            }
        }
        assert_eq!(refired, 1, "a reset starts a new burst");
    }

    #[test]
    fn streak_crossing_is_exactly_once_under_contention() {
        // 16 threads race SHED_BURST_THRESHOLD * 16 total increments
        // with no resets: the threshold is crossed once, so exactly
        // one thread may observe `true`.
        let streak = Arc::new(AtomicU64::new(0));
        let fired = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let streak = Arc::clone(&streak);
            let fired = Arc::clone(&fired);
            handles.push(std::thread::spawn(move || {
                for _ in 0..SHED_BURST_THRESHOLD {
                    if streak_shed(&streak) {
                        fired.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().expect("streak thread");
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(
            streak.load(Ordering::Relaxed),
            SHED_BURST_THRESHOLD * 16,
            "every increment landed exactly once"
        );
    }

    #[test]
    fn writer_releases_replies_in_sequence_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _peer) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        let mut writer = ConnWriter::new(server_side, 0);
        for (seq, text) in [(2u64, "third"), (0, "first")] {
            writer.ready.insert(
                seq,
                Line {
                    text: text.to_owned(),
                    is_error: false,
                    close_after: false,
                },
            );
        }
        writer.release();
        assert_eq!(writer.out, b"first\n", "seq 1 gates seq 2");
        writer.ready.insert(
            1,
            Line {
                text: "second".to_owned(),
                is_error: false,
                close_after: false,
            },
        );
        writer.release();
        assert_eq!(writer.out, b"first\nsecond\nthird\n");
        drop(client);
    }

    #[test]
    fn writer_error_budget_appends_notice_in_release_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server_side, _peer) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        let mut writer = ConnWriter::new(server_side, 2);
        for seq in 0..3u64 {
            writer.ready.insert(
                seq,
                Line {
                    text: format!("err{seq}"),
                    is_error: true,
                    close_after: false,
                },
            );
        }
        writer.release();
        let text = String::from_utf8(writer.out.clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "err0",
                "err1",
                protocol::render_error_budget_exhausted().as_str()
            ],
            "budget notice lands after the budget-th error, never after more"
        );
        assert!(writer.closing, "budget exhaustion closes the connection");
        drop(client);
    }

    fn quota(name: &str, rate: f64, burst: f64, priority: u8) -> TenantQuota {
        TenantQuota {
            name: name.to_owned(),
            rate,
            burst,
            priority,
        }
    }

    #[test]
    fn tenant_bucket_sheds_only_the_over_quota_tenant() {
        // A rate of 0.001/s effectively never refills within the test.
        let tenants = Tenants::new(&[quota("metered", 0.001, 3.0, 2)]).unwrap();
        let mut metered_ok = 0;
        let mut metered_shed = 0;
        for _ in 0..10 {
            let (admitted, priority) = tenants.admit(Some("metered"));
            assert_eq!(priority, 2);
            if admitted {
                metered_ok += 1;
            } else {
                metered_shed += 1;
            }
        }
        assert_eq!(metered_ok, 3, "burst capacity admits exactly the bucket");
        assert_eq!(metered_shed, 7);
        for _ in 0..10 {
            let (admitted, priority) = tenants.admit(Some("open"));
            assert!(admitted, "an unlisted tenant is never metered");
            assert_eq!(priority, 0);
        }
        let snapshot = tenants.snapshot();
        assert_eq!(snapshot.len(), 1, "only the configured tenant has a row");
        assert_eq!(
            (
                snapshot[0].name.as_str(),
                snapshot[0].requests,
                snapshot[0].shed
            ),
            ("metered", 3, 7)
        );
    }

    #[test]
    fn unconfigured_tenant_names_add_no_rows() {
        let empty = Tenants::new(&[]).unwrap();
        assert_eq!(empty.admit(None), (true, 0));
        for i in 0..1_000 {
            assert_eq!(empty.admit(Some(&format!("client-{i}"))), (true, 0));
        }
        assert!(empty.snapshot().is_empty(), "no quota, no rows");

        let configured = Tenants::new(&[quota("metered", 0.0, 0.0, 3)]).unwrap();
        assert_eq!(configured.admit(Some("stranger")), (true, 0));
        assert_eq!(configured.admit(None), (true, 0));
        assert_eq!(configured.admit(Some("metered")), (true, 3));
        let names: Vec<String> = configured.snapshot().into_iter().map(|t| t.name).collect();
        assert_eq!(names, ["metered"], "an unlisted name gets no row");
    }

    /// A connection whose replies arrive on the returned client
    /// socket.
    fn test_conn(shared: &Shared) -> (Arc<Conn>, BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_side, _peer) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let waker = Arc::clone(&shared.shards[0].waker);
        (
            Arc::new(Conn::new(server_side, 0, waker)),
            BufReader::new(client),
        )
    }

    fn job(conn: &Arc<Conn>, seq: u64, priority: u8) -> Job {
        Job {
            conn: Arc::clone(conn),
            seq,
            req: crate::chaos::probe_request(),
            priority,
            enqueued_at: Instant::now(),
        }
    }

    /// The queue as `(connection, seq, priority)`, connections named
    /// by their index in `conns`.
    fn queued(shared: &Shared, conns: &[&Arc<Conn>]) -> Vec<(usize, u64, u8)> {
        shared
            .lock_queue()
            .iter()
            .map(|job| {
                let conn = conns
                    .iter()
                    .position(|c| Arc::ptr_eq(c, &job.conn))
                    .expect("known connection");
                (conn, job.seq, job.priority)
            })
            .collect()
    }

    fn read_line(client: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        client.read_line(&mut line).expect("reply line");
        line.trim_end().to_owned()
    }

    #[test]
    fn replies_a_read_left_unflushed_wait_on_pollout_in_the_same_pass() {
        let shared = Shared::new(&ServeConfig::default()).unwrap();
        let req = crate::chaos::probe_request();
        shared.engine.handle(&req).expect("warm the key");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_side, _peer) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        let waker = Arc::clone(&shared.shards[0].waker);
        let conn = Arc::new(Conn::new(server_side.try_clone().expect("clone"), 0, waker));
        let mut reader = ConnReader::new(NewConn {
            stream: server_side,
            conn,
        });
        // Rounds of 64 pipelined hits to a client that never reads:
        // each pass answers them inline and flushes once. The first
        // pass whose flush the full socket cuts short must ask for
        // POLLOUT itself, not leave the rest to the poll cap. (A pass
        // that spent its read budget, because loopback delivery lagged
        // and rounds piled up, is repeated at once and asks for no
        // wait.)
        let batch = format!("{}\n", protocol::render_request(&req)).repeat(64);
        for _ in 0..10_000 {
            client.write_all(batch.as_bytes()).expect("send");
            let mut budget = INLINE_DRAWS_PER_PASS;
            let wait = step_conn(&shared, &mut reader, false, &mut budget).expect("kept");
            if wait.now {
                continue;
            }
            if !reader.conn.writer.lock().out.is_empty() {
                assert_eq!(wait.events, POLLIN | POLLOUT, "leftover bytes need POLLOUT");
                return;
            }
            assert_eq!(wait.events, POLLIN);
        }
        panic!("the socket never filled");
    }

    #[test]
    fn higher_priority_request_evicts_the_lowest_priority_queued_one() {
        let shared = Shared::new(&ServeConfig {
            queue_cap: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let (a, mut a_client) = test_conn(&shared);
        let (b, _b_client) = test_conn(&shared);
        enqueue_request(&shared, job(&a, 0, 1));
        enqueue_request(&shared, job(&a, 1, 0));
        enqueue_request(&shared, job(&b, 0, 2));
        assert_eq!(
            queued(&shared, &[&a, &b]),
            [(0, 0, 1), (1, 0, 2)],
            "the priority-0 request made room"
        );
        // The evictee's shed line waits in its own slot, behind the
        // still-queued seq 0, and releases right after it.
        assert!(a.writer.lock().out.is_empty());
        a.submit(0, "first".to_owned(), false, false);
        assert_eq!(read_line(&mut a_client), "first");
        assert_eq!(read_line(&mut a_client), protocol::render_overloaded());
        assert_eq!(a.inflight.load(Ordering::SeqCst), 1, "seq 1 retired");
    }

    #[test]
    fn equal_priorities_never_preempt() {
        let shared = Shared::new(&ServeConfig {
            queue_cap: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let (a, _a_client) = test_conn(&shared);
        let (c, mut c_client) = test_conn(&shared);
        enqueue_request(&shared, job(&a, 0, 1));
        enqueue_request(&shared, job(&a, 1, 1));
        enqueue_request(&shared, job(&c, 0, 1));
        enqueue_request(&shared, job(&c, 1, 0));
        assert_eq!(queued(&shared, &[&a, &c]), [(0, 0, 1), (0, 1, 1)]);
        assert_eq!(read_line(&mut c_client), protocol::render_overloaded());
        assert_eq!(read_line(&mut c_client), protocol::render_overloaded());
        assert_eq!(c.inflight.load(Ordering::SeqCst), 0, "both sheds retired");
    }
}
