//! `serve-hot`: an in-process `dut serve` driven by the open-loop
//! generator in [`crate::openloop`] with the 4-key
//! `loadgen::catalog()` mix. After set-up every request hits the cache,
//! so framing, queueing, reorder, write and JSON dominate.
//!
//! A run sets the server up many times (start until the first reply),
//! warms it, and measures two fixed rates. An untraced run then keeps
//! the server saturated with a closed loop; a traced run instead
//! searches a fixed rate ladder for the highest rate that meets the
//! latency limit. After the timed phases every distinct reply is
//! checked bit for bit against `engine::offline_reply`.

use crate::openloop::{self, Outcome as Got, Phase, Schedule};
use crate::summary::{mean, median, nproc, peak_rss_mib, process_cpu, quantile};
use crate::{Args, LayerValues, Outcome};
use dut_obs::metrics::{Counter, HistogramId, HistogramSnapshot, Snapshot};
use dut_serve::engine::{self, Engine};
use dut_serve::loadgen::{self, LoadgenReport};
use dut_serve::protocol::{self, Command, Reply, ReplyLine, Request};
use dut_serve::{server, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Workload name in report lines.
const NAME: &str = "serve-hot";
/// The light rate (requests/s): idle polling dominates. Later runs
/// compare at these same rates, so they are constants, not fractions of
/// a measured capacity.
const LIGHT_RPS: f64 = 1_000.0;
/// The heavy rate (requests/s): request handling dominates. It stays
/// well under capacity so that a stall of the shared machine does not
/// overflow the server's queue and shed requests.
const HEAVY_RPS: f64 = 5_000.0;
/// Share of `--seconds` given to each of the light and heavy phases.
const PHASE_SHARE: f64 = 0.35;
/// Requests of the saturation phase per second of `--seconds`: about
/// a fifth of the run on two cores.
const SATURATION_PER_S: f64 = 10_000.0;
/// Requests each connection keeps unanswered in the saturation phase:
/// enough queued work that no server thread idles while another waits
/// for a CPU. With 32, a competing CPU-bound process on the machine
/// moved server CPU per request by a tenth; with 256, not measurably.
const SATURATION_WINDOW: usize = 256;
/// Warm-up at the light rate before the light phase, seconds.
const WARMUP_S: f64 = 0.3;

/// The rate ladder searched for `max_rate_rps`: `LADDER_STEPS` rates
/// from `LADDER_START` req/s, each 8% above the last, rounded to
/// 100 req/s.
const LADDER_START: f64 = 2_000.0;
/// See [`LADDER_START`].
const LADDER_FACTOR: f64 = 1.08;
/// See [`LADDER_START`].
const LADDER_STEPS: i32 = 55;
/// Share of `--seconds` given to each ladder step.
const STEP_SHARE: f64 = 0.1;
/// Latency limit on a ladder window's p99, microseconds.
const LIMIT_US: f64 = 10_000.0;
/// Requests per ladder window: ten beyond the p99.
const WINDOW: usize = 1_000;
/// Most failed requests a passing ladder step may have, as a share.
const MAX_FAILED_SHARE: f64 = 0.001;

/// Server starts per run; the mean is reported.
const SETUP_REPS: usize = 100;
/// Time allowed after the last due time for outstanding replies.
const DRAIN: Duration = Duration::from_secs(5);
/// Time allowed for the whole saturation phase, whose requests are all
/// due at its start.
const SATURATION_DRAIN: Duration = Duration::from_secs(60);

/// Server settings: the `dut serve` defaults on a free local port,
/// except for a deeper request queue. With the default 64, a stall of
/// a shared machine of some 13 ms at the heavy rate fills the queue and
/// sheds requests; 1024 holds 200 ms of it, and every request the
/// saturation phase keeps unanswered.
fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_cap: 1024,
        ..ServeConfig::default()
    }
}

/// Open-loop connections, one client thread each: one per core.
fn connections() -> usize {
    nproc()
}

/// The ladder's rates, ascending.
fn ladder_rates() -> Vec<f64> {
    (0..LADDER_STEPS)
        .map(|i| (LADDER_START * LADDER_FACTOR.powi(i) / 100.0).round() * 100.0)
        .collect()
}

/// `request_for_index` cycles the catalog by `i % 4` and the seed by
/// `i % 64`, so 64 indices cover every request the mix sends.
const DISTINCT: usize = 64;

/// The generated request stream of a run: the arrival times and the
/// start of the request cycle derive from the workload seed. Requests
/// are ids into the table of the distinct requests the mix sends.
struct Stream {
    rng: StdRng,
    next_index: usize,
    table: Vec<Request>,
    lines: Vec<String>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed);
        let next_index = rng.random_range(0..DISTINCT);
        let catalog = loadgen::catalog();
        let table: Vec<Request> = (0..DISTINCT as u64)
            .map(|i| loadgen::request_for_index(i, &catalog))
            .collect();
        let lines = table.iter().map(protocol::render_request).collect();
        Stream {
            rng,
            next_index,
            table,
            lines,
        }
    }

    /// The next `count` requests of the cycle.
    fn take(&mut self, count: usize) -> Vec<usize> {
        let ids = (0..count)
            .map(|i| (self.next_index + i) % DISTINCT)
            .collect();
        self.next_index += count;
        ids
    }

    /// Poisson arrivals at `rate` for `secs`, with their requests.
    fn schedule(&mut self, rate: f64, secs: f64) -> Schedule {
        let due = openloop::poisson_arrivals(&mut self.rng, rate, Duration::from_secs_f64(secs));
        let ids = self.take(due.len());
        Schedule { due, ids }
    }
}

/// The set-up probe: the first catalog entry, a cheap balanced key.
fn probe_line() -> String {
    let mut req = loadgen::catalog()[0];
    req.seed = 1;
    protocol::render_request(&req)
}

/// One server start: from `server::start` to the first successful
/// reply.
struct Start {
    handle: server::ServerHandle,
    /// CPU time the process used.
    cpu_s: f64,
    /// Wall time.
    wall_s: f64,
}

/// Starts a server and waits for its first successful reply.
fn start_once() -> Result<Start, String> {
    use std::io::{BufRead, BufReader, Write};
    let cpu = process_cpu();
    let start = Instant::now();
    let handle = server::start(&config())?;
    let stream = std::net::TcpStream::connect(handle.local_addr())
        .map_err(|e| format!("cannot connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    writeln!(writer, "{}", probe_line()).map_err(|e| format!("send probe: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("read probe reply: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (process_cpu() - cpu).as_secs_f64();
    match ReplyLine::parse(line.trim_end()) {
        Ok(ReplyLine::Reply(_)) => Ok(Start {
            handle,
            cpu_s,
            wall_s,
        }),
        other => Err(format!("set-up probe failed: {other:?}")),
    }
}

fn stop(handle: server::ServerHandle) {
    handle.request_shutdown();
    handle.join();
}

/// The results of one phase, with the request ids it sent.
struct Measured {
    phase: Phase,
    ids: Vec<usize>,
    rate: f64,
    secs: f64,
    /// CPU time the server used during the phase: the process's CPU
    /// time less the generator's.
    server_cpu: Duration,
}

impl Measured {
    fn failed_share(&self) -> f64 {
        self.phase.failed() as f64 / self.ids.len().max(1) as f64
    }

    /// Server CPU microseconds per scheduled request.
    fn cpu_us_per_req(&self) -> f64 {
        self.server_cpu.as_secs_f64() * 1e6 / self.ids.len().max(1) as f64
    }

    /// Replies per second over the phase.
    fn achieved_rps(&self) -> f64 {
        let replies = self.phase.count(|o| matches!(o, Got::Reply(_)));
        replies as f64 / self.phase.elapsed.as_secs_f64().max(self.secs)
    }

    /// Latency quantile `p` over the phase's replies.
    fn latency(&self, p: f64) -> f64 {
        quantile(&self.phase.reply_latencies(), p)
    }

    /// The latency of the last fifth of the phase is more than twice
    /// that of the first fifth, and a sizable share of the limit.
    fn backlog_grew(&self) -> bool {
        let lat: Vec<f64> = self
            .phase
            .latency_us
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        let fifth = lat.len() / 5;
        if fifth == 0 {
            return false;
        }
        let first = median(&lat[..fifth]);
        let last = median(&lat[lat.len() - fifth..]);
        last > 2.0 * first && last > LIMIT_US / 5.0
    }

    /// The step meets the SLO: at most [`MAX_FAILED_SHARE`] of its
    /// requests failed, its backlog did not grow, and at least half of
    /// its windows (runs of [`WINDOW`] requests in due order) keep
    /// their p99 within the limit. A stall of the shared machine
    /// spoils the windows it hits, not the step; a rate the server
    /// cannot sustain spoils all of them.
    fn meets_slo(&self) -> bool {
        let lat = &self.phase.latency_us;
        let windows: Vec<&[Option<f64>]> = if lat.len() < WINDOW {
            vec![lat]
        } else {
            lat.chunks_exact(WINDOW).collect()
        };
        let within = windows
            .iter()
            .filter(|w| {
                let replied: Vec<f64> = w.iter().flatten().copied().collect();
                quantile(&replied, 0.99) <= LIMIT_US
            })
            .count();
        2 * within >= windows.len()
            && self.failed_share() <= MAX_FAILED_SHARE
            && !self.backlog_grew()
    }

    fn lag_p99(&self) -> f64 {
        let lag: Vec<f64> = self.phase.lag_us.iter().flatten().copied().collect();
        quantile(&lag, 0.99)
    }

    /// One report line on the phase.
    fn report(&self, label: &str) {
        println!(
            "{NAME}: {label} {:.0} req/s: latency_p50_us {:.1} us, latency_p99_us {:.1} us ({} replies), server cpu {:.2} us/req, lag p99 {:.1} us, failed {}",
            self.rate,
            self.latency(0.5),
            self.latency(0.99),
            self.phase.reply_latencies().len(),
            self.cpu_us_per_req(),
            self.lag_p99(),
            self.phase.failed()
        );
    }
}

/// An open-loop phase: Poisson arrivals at `rate` for `secs`.
fn measure(
    addr: SocketAddr,
    stream: &mut Stream,
    rate: f64,
    secs: f64,
) -> Result<Measured, String> {
    let schedule = stream.schedule(rate, secs);
    let cpu = process_cpu();
    let phase = openloop::run(
        addr,
        &schedule,
        &stream.lines,
        connections(),
        usize::MAX,
        DRAIN,
    )?;
    let server_cpu = (process_cpu() - cpu).saturating_sub(phase.client_cpu);
    Ok(Measured {
        phase,
        ids: schedule.ids,
        rate,
        secs,
        server_cpu,
    })
}

/// A closed-loop phase that keeps the server saturated: `count`
/// requests all due at once, [`SATURATION_WINDOW`] unanswered per
/// connection. The server is never idle, so its CPU time per request
/// counts request handling alone, whereas at a fixed rate it includes
/// idle polling, which shrinks whenever the host steals the CPU.
fn saturate(addr: SocketAddr, stream: &mut Stream, count: usize) -> Result<Measured, String> {
    let schedule = Schedule {
        due: vec![Duration::ZERO; count],
        ids: stream.take(count),
    };
    let cpu = process_cpu();
    let phase = openloop::run(
        addr,
        &schedule,
        &stream.lines,
        connections(),
        SATURATION_WINDOW,
        SATURATION_DRAIN,
    )?;
    let server_cpu = (process_cpu() - cpu).saturating_sub(phase.client_cpu);
    Ok(Measured {
        phase,
        ids: schedule.ids,
        rate: 0.0,
        secs: 0.0,
        server_cpu,
    })
}

/// Binary search over the ladder for the highest step that meets the
/// SLO. A failing step is measured once more before it counts, so a
/// brief stall of the shared machine does not decide the search.
/// Returns the achieved rate at the highest passing step (0 when none
/// passes).
fn ladder(
    addr: SocketAddr,
    stream: &mut Stream,
    secs: f64,
    answers: &mut Answers,
) -> Result<f64, String> {
    let rates = ladder_rates();
    let (mut lo, mut hi) = (0, rates.len());
    let mut best = 0.0;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let mut pass = false;
        for _attempt in 0..2 {
            let m = measure(addr, stream, rates[mid], secs)?;
            pass = m.meets_slo();
            println!(
                "{NAME}: ladder {:.0} req/s: step p99 {:.0} us, failed {:.4}, backlog grew {}, achieved {:.1} req/s -> {}",
                m.rate,
                m.latency(0.99),
                m.failed_share(),
                m.backlog_grew(),
                m.achieved_rps(),
                if pass { "pass" } else { "fail" }
            );
            answers.add(&m);
            if pass {
                best = m.achieved_rps();
            }
            // Let an overloaded step's backlog clear before the next one.
            std::thread::sleep(Duration::from_millis(200));
            if pass {
                break;
            }
        }
        if pass {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(best)
}

/// Every test reply of a run, folded per distinct request: the first
/// answer, and how many replies agreed and disagreed with it.
#[derive(Default)]
struct Answers(BTreeMap<usize, (Reply, usize, usize)>);

impl Answers {
    fn add(&mut self, m: &Measured) {
        for (&id, outcome) in m.ids.iter().zip(&m.phase.outcomes) {
            if let Got::Reply(r) = outcome {
                let entry = self.0.entry(id).or_insert((*r, 0, 0));
                if same_answer(&entry.0, r) {
                    entry.1 += 1;
                } else {
                    entry.2 += 1;
                }
            }
        }
    }

    /// Checks each distinct request's answer against
    /// `engine::offline_reply`, on every core. Returns the number of
    /// replies that differ from it; a request answered two ways counts
    /// every reply that disagrees with its first answer too.
    fn mismatches(&self, table: &[Request]) -> usize {
        let distinct: Vec<(&usize, &(Reply, usize, usize))> = self.0.iter().collect();
        let chunk = distinct.len().div_ceil(nproc()).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&(&id, &(first, agree, disagree))| {
                                match engine::offline_reply(&table[id]) {
                                    Ok(want) if same_answer(&first, &want) => disagree,
                                    _ => agree + disagree,
                                }
                            })
                            .sum::<usize>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verifier panicked"))
                .sum()
        })
    }
}

/// Bit-identity on the answer fields (`micros`, `rid` and the cache
/// flag legitimately differ).
fn same_answer(a: &Reply, b: &Reply) -> bool {
    a.verdict == b.verdict
        && a.p_hat.to_bits() == b.p_hat.to_bits()
        && a.wilson_lo.to_bits() == b.wilson_lo.to_bits()
        && a.wilson_hi.to_bits() == b.wilson_hi.to_bits()
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error when the server cannot start or be reached.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut stream = Stream::new(args.seed);
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut handle = None;
    for _ in 0..SETUP_REPS {
        if let Some(h) = handle.take() {
            stop(h);
        }
        let start = start_once()?;
        cpu.push(start.cpu_s);
        wall.push(start.wall_s);
        handle = Some(start.handle);
    }
    let handle = handle.expect("at least one set-up repetition");
    let addr = handle.local_addr();
    // Set-up is reported as CPU time. Its wall time hangs on whether
    // the probe connects before the accept thread first polls its
    // listener or waits out the thread's 5 ms sleep, and on steal time
    // on a shared machine; neither is work the set-up does.
    let setup_s = mean(&cpu);
    println!(
        "{NAME}: setup_s {setup_s:.6} s CPU (mean of {SETUP_REPS}); wall mean {:.6} s, median {:.6} s",
        mean(&wall),
        median(&wall)
    );
    let result = if args.trace {
        traced(args, addr, &mut stream)
    } else {
        untraced(args, addr, &mut stream, setup_s)
    };
    stop(handle);
    result
}

fn untraced(
    args: &Args,
    addr: SocketAddr,
    stream: &mut Stream,
    setup_s: f64,
) -> Result<Outcome, String> {
    let mut answers = Answers::default();
    let warmup = measure(addr, stream, LIGHT_RPS, WARMUP_S)?;
    answers.add(&warmup);
    let light = measure(addr, stream, LIGHT_RPS, args.seconds * PHASE_SHARE)?;
    answers.add(&light);
    light.report("light");
    let heavy = measure(addr, stream, HEAVY_RPS, args.seconds * PHASE_SHARE)?;
    answers.add(&heavy);
    heavy.report("heavy");
    // Read before the saturation phase, whose record of 10^5 replies
    // would make the generator's memory the larger part of the figure.
    let rss = peak_rss_mib()?;
    let saturated = saturate(addr, stream, (args.seconds * SATURATION_PER_S) as usize)?;
    answers.add(&saturated);
    println!(
        "{NAME}: saturated ({} in flight per connection): {} replies at {:.1} req/s, server cpu {:.2} us/req, failed {}",
        SATURATION_WINDOW,
        saturated.phase.reply_latencies().len(),
        saturated.achieved_rps(),
        saturated.cpu_us_per_req(),
        saturated.phase.failed()
    );
    let mismatches = answers.mismatches(&stream.table);
    let phases = [&light, &heavy, &saturated];
    let mut out = Outcome {
        correct: mismatches == 0,
        attempted: phases.iter().map(|m| m.ids.len() as u64).sum(),
        failed: (phases.iter().map(|m| m.phase.failed()).sum::<usize>() + mismatches) as u64,
        ..Outcome::default()
    };
    out.push("setup_s", setup_s, "s");
    out.push("cpu_us_per_op.light", light.cpu_us_per_req(), "us");
    out.push("cpu_us_per_op.heavy", saturated.cpu_us_per_req(), "us");
    out.push("peak_rss_mib", rss, "MiB");
    println!(
        "{NAME}: failed_share {:.5} at heavy; {mismatches} mismatching replies; peak_rss_mib {rss:.2} MiB",
        heavy.failed_share()
    );
    Ok(out)
}

/// A registry histogram's activity between two snapshots.
fn hist(after: &Snapshot, before: &Snapshot, id: HistogramId) -> HistogramSnapshot {
    let pick = |s: &Snapshot| {
        s.histogram(id)
            .cloned()
            .expect("a registry snapshot holds every histogram")
    };
    pick(after).delta(&pick(before))
}

fn traced(args: &Args, addr: SocketAddr, stream: &mut Stream) -> Result<Outcome, String> {
    let registry = dut_obs::metrics::global();
    let mut answers = Answers::default();
    let warmup = measure(addr, stream, LIGHT_RPS, WARMUP_S)?;
    answers.add(&warmup);
    let light_before = registry.snapshot();
    let light = measure(addr, stream, LIGHT_RPS, args.seconds * PHASE_SHARE)?;
    let light_request = hist(
        &registry.snapshot(),
        &light_before,
        HistogramId::RequestMicros,
    );
    answers.add(&light);
    light.report("light");
    let addr_text = addr.to_string();
    let pre = loadgen::fetch_stats(&addr_text)?;
    let before = registry.snapshot();
    let heavy = measure(addr, stream, HEAVY_RPS, args.seconds * PHASE_SHARE)?;
    let after = registry.snapshot();
    let post = loadgen::fetch_stats(&addr_text)?;
    answers.add(&heavy);
    heavy.report("heavy");
    let max_rate = ladder(addr, stream, args.seconds * STEP_SHARE, &mut answers)?;
    println!(
        "{NAME}: max_rate_rps {max_rate:.1} req/s (p99 limit {LIMIT_US:.0} us in half the windows)"
    );
    let mismatches = answers.mismatches(&stream.table);
    let client = LoadgenReport {
        sent: heavy.phase.lag_us.iter().flatten().count() as u64,
        replies: heavy.phase.count(|o| matches!(o, Got::Reply(_))) as u64,
        shed: heavy.phase.count(|o| matches!(o, Got::Shed)) as u64,
        errors: heavy
            .phase
            .count(|o| matches!(o, Got::Error | Got::Unanswered)) as u64,
        ..LoadgenReport::default()
    };
    let mut errors = loadgen::check_consistency(&pre, &post, &client);
    if mismatches > 0 {
        errors.push(format!("{mismatches} replies differ from offline_reply"));
    }
    for e in &errors {
        println!("{NAME}: CHECK FAILED {e}");
    }
    let replay = replay(stream, &[&warmup, &light, &heavy], heavy.ids.len());
    let served = post.requests - pre.requests;
    let hits = post.cache_hits - pre.cache_hits;
    let misses = post.cache_misses - pre.cache_misses;
    let calibrate = hist(&after, &before, HistogramId::CalibrateMicros);
    let delta = after.delta(&before);
    let mut layer = LayerValues::default();
    layer.set("testers.calibrate.calls", calibrate.count as f64);
    layer.set("testers.calibrate.busy_s", calibrate.sum as f64 / 1e6);
    layer.set(
        "probability.sample.draws",
        delta.counter(Counter::SamplesDrawn) as f64,
    );
    layer.set("simnet.run.calls", delta.counter(Counter::NetRuns) as f64);
    layer.set("serve.requests", served as f64);
    for (name, id, p) in [
        (
            "serve.queue_wait_p99_us",
            HistogramId::QueueWaitMicros,
            0.99,
        ),
        ("serve.request_p50_us", HistogramId::RequestMicros, 0.5),
        ("serve.request_p99_us", HistogramId::RequestMicros, 0.99),
        ("serve.calibrate_p99_us", HistogramId::CalibrateMicros, 0.99),
        ("serve.compute_p99_us", HistogramId::ComputeMicros, 0.99),
    ] {
        layer.set(name, hist(&after, &before, id).quantile(p));
    }
    layer.set("serve.shed", (post.shed - pre.shed) as f64);
    layer.set(
        "serve.backend.per_draw",
        (post.backend_per_draw - pre.backend_per_draw) as f64,
    );
    layer.set(
        "serve.backend.histogram",
        (post.backend_histogram - pre.backend_histogram) as f64,
    );
    layer.set(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layer.set("serve.cache.misses", misses as f64);
    layer.set(
        "serve.coalesced_share",
        (post.coalesced - pre.coalesced) as f64 / served.max(1) as f64,
    );
    layer.set("serve.max_rate_rps", max_rate);
    layer.set("replay.requests", replay.requests as f64);
    layer.set("protocol.parse_us_per_req", replay.parse_us);
    layer.set("engine.handle_us_per_req", replay.handle_us);
    layer.set("protocol.render_us_per_req", replay.render_us);
    let client_light_p50 = light.latency(0.5);
    let server_light_p50 = light_request.quantile(0.5);
    layer.set(
        "server.unattributed_p50_us",
        client_light_p50 - server_light_p50 - replay.parse_us - replay.render_us,
    );
    layer.set("loadgen.latency_p50_us.light", client_light_p50);
    layer.set("loadgen.latency_p50_us.heavy", heavy.latency(0.5));
    layer.set("loadgen.latency_p99_us.light", light.latency(0.99));
    layer.set("loadgen.latency_p99_us.heavy", heavy.latency(0.99));
    layer.set("loadgen.lag_p99_us", heavy.lag_p99());
    layer.set("loadgen.sent", client.sent as f64);
    layer.set("loadgen.replies", client.replies as f64);
    layer.set("loadgen.shed", client.shed as f64);
    layer.set("loadgen.errors", client.errors as f64);
    layer.set("loadgen.mismatches", mismatches as f64);
    layer.set("failed_share", heavy.failed_share());
    // The server's metrics registry is always on and the snapshots and
    // stats calls sit outside the timed phases, so the traced run adds
    // no instrumentation inside them: trace.overhead_share stays 0.
    println!(
        "{NAME}: at the light rate the client p50 is {client_light_p50:.1} us, the server's request p50 {server_light_p50:.1} us"
    );
    let failed = heavy.phase.failed() + mismatches;
    Ok(layer.into_outcome(errors.is_empty(), heavy.ids.len() as u64, failed as u64))
}

/// Per-request time of each in-process step of a replay.
struct Replay {
    parse_us: f64,
    handle_us: f64,
    render_us: f64,
    requests: usize,
}

/// Replays the run's request stream in-process, with no sockets,
/// through `parse_command`, `Engine::handle` and `Reply::render` on a
/// fresh engine of the server's cache size, and times the last
/// `measured` requests.
fn replay(stream: &Stream, phases: &[&Measured], measured: usize) -> Replay {
    let cfg = config();
    let engine = Engine::with_options(cfg.cache_cap, cfg.trace_sample, cfg.cache_shards);
    let ids: Vec<usize> = phases.iter().flat_map(|m| m.ids.iter().copied()).collect();
    let skip = ids.len().saturating_sub(measured);
    let (mut parse, mut handle, mut render) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut bytes = 0usize;
    for (i, &id) in ids.iter().enumerate() {
        let t0 = Instant::now();
        let Ok(Command::Run(req)) =
            protocol::parse_command(std::hint::black_box(&stream.lines[id]))
        else {
            continue;
        };
        let t1 = Instant::now();
        let Ok(reply) = engine.handle(&req) else {
            continue;
        };
        let t2 = Instant::now();
        bytes += std::hint::black_box(reply.render()).len();
        let t3 = Instant::now();
        if i >= skip {
            parse += t1 - t0;
            handle += t2 - t1;
            render += t3 - t2;
        }
    }
    std::hint::black_box(bytes);
    let requests = ids.len() - skip;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / requests.max(1) as f64;
    Replay {
        parse_us: us(parse),
        handle_us: us(handle),
        render_us: us(render),
        requests,
    }
}
