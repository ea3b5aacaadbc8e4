//! `qstar-e1`: the 14 q* searches of `e1_any_rule_scaling`, run with
//! the same seeds, trials and calibration as that binary.
//!
//! A *light* pass runs the searches one after another, as the binary
//! does (each search's trials use every core). A *heavy* pass hands
//! the same 14 searches, all due at once, to one worker per core, so a
//! search's latency includes the time it waits behind the others. The
//! searches are a fixed experiment: the workload seed only shuffles the
//! order of the light pass. Each search derives its own streams, so
//! every pass must reproduce the recorded q* values exactly.

use crate::summary::{mean, median, nproc, peak_rss_mib, process_cpu};
use crate::{Args, Outcome};
use dut_bench::{log_log_slope, q_star, two_sided_success, workload};
use dut_core::probability::{AliasSampler, Sampler};
use dut_core::stats::seed::{derive_seed, derive_seed2};
use dut_core::testers::BalancedThresholdTester;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Master seed of `e1_any_rule_scaling` (its `DUT_SEED` default).
const E1_SEED: u64 = 20_190_729;
/// Trials per success estimate (its `DUT_TRIALS` default).
const E1_TRIALS: u64 = 200;
/// Monte-Carlo trials per referee calibration.
const CALIBRATION_TRIALS: usize = 800;

/// Which sweep a point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    K,
    N,
    Eps,
}

/// One q* search: sweep, `(n, k, ε)`, seed stream, and the q* the
/// current code produces for it.
#[derive(Debug, Clone, Copy)]
struct Point {
    sweep: Sweep,
    n: usize,
    k: usize,
    eps: f64,
    stream: u64,
    expected_q: usize,
}

const fn point(sweep: Sweep, n: usize, k: usize, eps: f64, stream: u64, q: usize) -> Point {
    Point {
        sweep,
        n,
        k,
        eps,
        stream,
        expected_q: q,
    }
}

/// The E1 sweeps, in the binary's order, with the q* values it prints.
const POINTS: [Point; 14] = [
    point(Sweep::K, 4096, 1, 0.5, 100, 396),
    point(Sweep::K, 4096, 4, 0.5, 101, 448),
    point(Sweep::K, 4096, 16, 0.5, 102, 235),
    point(Sweep::K, 4096, 64, 0.5, 103, 94),
    point(Sweep::K, 4096, 256, 0.5, 104, 40),
    point(Sweep::N, 256, 16, 0.5, 200, 50),
    point(Sweep::N, 1024, 16, 0.5, 201, 96),
    point(Sweep::N, 4096, 16, 0.5, 202, 233),
    point(Sweep::N, 16384, 16, 0.5, 203, 406),
    point(Sweep::Eps, 4096, 16, 0.25, 300, 775),
    point(Sweep::Eps, 4096, 16, 0.35, 301, 374),
    point(Sweep::Eps, 4096, 16, 0.5, 302, 184),
    point(Sweep::Eps, 4096, 16, 0.7, 303, 110),
    point(Sweep::Eps, 4096, 16, 1.0, 304, 46),
];

/// The fitted log-log slopes the binary prints (k, n, ε), to 3 places.
const EXPECTED_SLOPES: [&str; 3] = ["-0.443", "0.517", "-1.984"];

/// Set-up repetitions; the mean is reported.
const SETUP_REPS: usize = 31;

/// Samplers and tester for one point: what exists before its first
/// probe.
struct Prepared {
    point: Point,
    uniform: AliasSampler,
    far: AliasSampler,
    tester: BalancedThresholdTester,
}

fn set_up() -> Vec<Prepared> {
    POINTS
        .iter()
        .map(|&point| {
            let (uniform, far) = workload(point.n, point.eps);
            Prepared {
                point,
                uniform,
                far,
                tester: BalancedThresholdTester::new(point.n, point.k, point.eps),
            }
        })
        .collect()
}

/// Per-layer time and work, accumulated from timed calls into each
/// layer's public functions.
#[derive(Debug, Default)]
struct Layers {
    calibrate_calls: AtomicU64,
    calibrate_ns: AtomicU64,
    sample_calls: AtomicU64,
    sample_draws: AtomicU64,
    sample_ns: AtomicU64,
    run_calls: AtomicU64,
    run_ns: AtomicU64,
    run_trials_ns: AtomicU64,
    probes: AtomicU64,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn secs(ns: &AtomicU64) -> f64 {
    ns.load(Ordering::Relaxed) as f64 / 1e9
}

fn count(c: &AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64
}

/// A [`Sampler`] that times every `sample_many` call of the sampler it
/// wraps. It delegates each call unchanged, so the random stream and
/// every result are those of the wrapped sampler. One instance lives
/// for one protocol run on one thread.
struct TimedSampler<'a> {
    inner: &'a AliasSampler,
    calls: Cell<u64>,
    draws: Cell<u64>,
    ns: Cell<u64>,
}

impl<'a> TimedSampler<'a> {
    fn new(inner: &'a AliasSampler) -> Self {
        TimedSampler {
            inner,
            calls: Cell::new(0),
            draws: Cell::new(0),
            ns: Cell::new(0),
        }
    }
}

impl Sampler for TimedSampler<'_> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.inner.sample(rng)
    }

    fn support_size(&self) -> usize {
        self.inner.support_size()
    }

    fn sample_many<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        let start = Instant::now();
        let out = self.inner.sample_many(count, rng);
        self.ns.set(self.ns.get() + nanos(start.elapsed()));
        self.calls.set(self.calls.get() + 1);
        self.draws.set(self.draws.get() + count as u64);
        out
    }
}

/// Runs one q* search exactly as `e1_any_rule_scaling` does. With
/// `layers`, every call into a layer is timed.
fn search(p: &Prepared, layers: Option<&Layers>) -> usize {
    let point = p.point;
    q_star(2, 1 << 17, |q| {
        let probe_seed = derive_seed2(E1_SEED, point.stream, q as u64);
        let mut rng = StdRng::seed_from_u64(probe_seed);
        let Some(layers) = layers else {
            let prepared = p.tester.prepare(q, CALIBRATION_TRIALS, &mut rng);
            return two_sided_success(
                E1_TRIALS,
                derive_seed(probe_seed, 1),
                &p.uniform,
                &p.far,
                |s, r| prepared.run(s, r).verdict.is_accept(),
            );
        };
        layers.probes.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let prepared = p.tester.prepare(q, CALIBRATION_TRIALS, &mut rng);
        layers.calibrate_calls.fetch_add(1, Ordering::Relaxed);
        layers
            .calibrate_ns
            .fetch_add(nanos(start.elapsed()), Ordering::Relaxed);
        let start = Instant::now();
        let ok = two_sided_success(
            E1_TRIALS,
            derive_seed(probe_seed, 1),
            &p.uniform,
            &p.far,
            |s, r| {
                let timed = TimedSampler::new(s);
                let run_start = Instant::now();
                let accept = prepared.run(&timed, r).verdict.is_accept();
                layers
                    .run_ns
                    .fetch_add(nanos(run_start.elapsed()), Ordering::Relaxed);
                layers.run_calls.fetch_add(1, Ordering::Relaxed);
                layers
                    .sample_ns
                    .fetch_add(timed.ns.get(), Ordering::Relaxed);
                layers
                    .sample_calls
                    .fetch_add(timed.calls.get(), Ordering::Relaxed);
                layers
                    .sample_draws
                    .fetch_add(timed.draws.get(), Ordering::Relaxed);
                accept
            },
        );
        layers
            .run_trials_ns
            .fetch_add(nanos(start.elapsed()), Ordering::Relaxed);
        ok
    })
    .minimal
}

/// One pass over the 14 searches.
struct Pass {
    wall: Duration,
    /// CPU time the process used during the pass.
    cpu: Duration,
    /// Per search, in [`POINTS`] order: its q* and its latency.
    q: Vec<usize>,
    latency: Vec<Duration>,
}

/// Searches one at a time in `order`; a search's latency is its own
/// duration.
fn light_pass(points: &[Prepared], order: &[usize], layers: Option<&Layers>) -> Pass {
    let mut q = vec![0; points.len()];
    let mut latency = vec![Duration::ZERO; points.len()];
    let cpu = process_cpu();
    let start = Instant::now();
    for &i in order {
        let t = Instant::now();
        q[i] = search(&points[i], layers);
        latency[i] = t.elapsed();
    }
    Pass {
        wall: start.elapsed(),
        cpu: process_cpu() - cpu,
        q,
        latency,
    }
}

/// All searches due at once, taken in `order` by one worker per core;
/// a search's latency runs from the pass start to its completion.
fn heavy_pass(points: &[Prepared], order: &[usize]) -> Pass {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(vec![(0usize, Duration::ZERO); points.len()]);
    let cpu = process_cpu();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(slot) else { break };
                let q = search(&points[i], None);
                done.lock()
                    .expect("no worker panics while holding the lock")[i] = (q, start.elapsed());
            });
        }
    });
    let done = done.into_inner().expect("workers joined");
    Pass {
        wall: start.elapsed(),
        cpu: process_cpu() - cpu,
        q: done.iter().map(|d| d.0).collect(),
        latency: done.iter().map(|d| d.1).collect(),
    }
}

/// Mismatches between a pass and the recorded q* values and slopes,
/// as messages.
fn check(pass: &Pass) -> Vec<String> {
    let mut bad = Vec::new();
    for (p, &q) in POINTS.iter().zip(&pass.q) {
        if q != p.expected_q {
            bad.push(format!(
                "q* at (n={}, k={}, eps={}) is {q}, expected {}",
                p.n, p.k, p.eps, p.expected_q
            ));
        }
    }
    for (sweep, expected) in [Sweep::K, Sweep::N, Sweep::Eps].iter().zip(EXPECTED_SLOPES) {
        let points: Vec<(f64, f64)> = POINTS
            .iter()
            .zip(&pass.q)
            .filter(|(p, _)| p.sweep == *sweep)
            .map(|(p, &q)| {
                let x = match sweep {
                    Sweep::K => p.k as f64,
                    Sweep::N => p.n as f64,
                    Sweep::Eps => p.eps,
                };
                (x, q as f64)
            })
            .collect();
        let slope = format!("{:.3}", log_log_slope(&points));
        if slope != expected {
            bad.push(format!("{sweep:?}-slope is {slope}, expected {expected}"));
        }
    }
    bad
}

fn micros(d: &[Duration]) -> Vec<f64> {
    d.iter().map(|d| d.as_secs_f64() * 1e6).collect()
}

/// The heavy pass queues the searches in the binary's order on every
/// seed, so its completion times measure the same queue each run.
const HEAVY_ORDER: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];

/// Issue order for the light pass, shuffled by the workload seed.
fn issue_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..POINTS.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Runs the workload.
///
/// # Errors
///
/// Returns an error when process measurements are unavailable.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let order = issue_order(args.seed);
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut points = Vec::new();
    for _ in 0..SETUP_REPS {
        let start_cpu = process_cpu();
        let start = Instant::now();
        points = std::hint::black_box(set_up());
        wall.push(start.elapsed().as_secs_f64());
        cpu.push((process_cpu() - start_cpu).as_secs_f64());
    }
    // CPU time, as on every workload: steal time on a shared machine
    // moves the wall time of so short a build by tens of percent.
    let setup_s = mean(&cpu);
    println!(
        "qstar-e1: setup_s {setup_s:.6} s CPU (mean of {SETUP_REPS}); wall median {:.6} s; order {order:?}",
        median(&wall)
    );
    if args.trace {
        traced(&points, &order)
    } else {
        untraced(args, &points, &order, setup_s)
    }
}

fn untraced(
    args: &Args,
    points: &[Prepared],
    order: &[usize],
    setup_s: f64,
) -> Result<Outcome, String> {
    // One light and one heavy pass take about ten seconds on two cores;
    // the count depends only on --seconds, so every run of a given
    // length measures the same work.
    let iterations = ((args.seconds / 10.0).floor() as usize).max(1);
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    let mut errors = Vec::new();
    for _ in 0..iterations {
        let l = light_pass(points, order, None);
        errors.extend(check(&l));
        let h = heavy_pass(points, &HEAVY_ORDER);
        errors.extend(check(&h));
        println!(
            "qstar-e1: light pass {:.3} s, heavy pass {:.3} s",
            l.wall.as_secs_f64(),
            h.wall.as_secs_f64()
        );
        light.push(l);
        heavy.push(h);
    }
    for e in &errors {
        println!("qstar-e1: MISMATCH {e}");
    }
    let wall_s = |passes: &[Pass]| {
        median(
            &passes
                .iter()
                .map(|p| p.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let p50 = |passes: &[Pass]| {
        median(
            &passes
                .iter()
                .map(|p| median(&micros(&p.latency)))
                .collect::<Vec<_>>(),
        )
    };
    let rss = peak_rss_mib()?;
    let mut out = Outcome {
        correct: errors.is_empty(),
        attempted: (POINTS.len() * (light.len() + heavy.len())) as u64,
        failed: errors.len() as u64,
        ..Outcome::default()
    };
    println!(
        "qstar-e1: qstar_e1_s {:.4} s; search latency_p50_us light {:.0} us, heavy {:.0} us (medians over {} passes each; wall time, which moves with the host's steal time)",
        wall_s(&light),
        p50(&light),
        p50(&heavy),
        light.len()
    );
    println!(
        "qstar-e1: cpu_us_per_op light {:.0} us, heavy {:.0} us per search; peak_rss_mib {rss:.2} MiB",
        cpu_us_per_search(&light),
        cpu_us_per_search(&heavy)
    );
    out.push("setup_s", setup_s, "s");
    out.push("cpu_us_per_op.light", cpu_us_per_search(&light), "us");
    out.push("cpu_us_per_op.heavy", cpu_us_per_search(&heavy), "us");
    out.push("peak_rss_mib", rss, "MiB");
    Ok(out)
}

/// Process CPU microseconds per search over `passes`.
fn cpu_us_per_search(passes: &[Pass]) -> f64 {
    let cpu: f64 = passes.iter().map(|p| p.cpu.as_secs_f64()).sum();
    cpu * 1e6 / (POINTS.len() * passes.len()).max(1) as f64
}

/// Largest share of the traced wall time that calibration plus trial
/// running may leave unexplained before the run fails.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

fn traced(points: &[Prepared], order: &[usize]) -> Result<Outcome, String> {
    let plain = light_pass(points, order, None);
    let layers = Layers::default();
    let registry = dut_obs::metrics::global();
    let runs_before = registry.counter(dut_obs::metrics::Counter::NetRuns);
    let pass = light_pass(points, order, Some(&layers));
    let net_runs = registry.counter(dut_obs::metrics::Counter::NetRuns) - runs_before;
    let mut errors = check(&plain);
    errors.extend(check(&pass));
    let wall = pass.wall.as_secs_f64();
    let calibrate = secs(&layers.calibrate_ns);
    let run_trials = secs(&layers.run_trials_ns);
    let accounted = (calibrate + run_trials) / wall;
    if (1.0 - accounted).abs() > ACCOUNTING_TOLERANCE {
        errors.push(format!(
            "calibration + run_trials cover {:.1}% of the traced wall time (tolerance {:.0}%)",
            accounted * 100.0,
            ACCOUNTING_TOLERANCE * 100.0
        ));
    }
    if net_runs != layers.run_calls.load(Ordering::Relaxed) {
        errors.push(format!(
            "simnet counted {net_runs} runs, the wrapper timed {}",
            layers.run_calls.load(Ordering::Relaxed)
        ));
    }
    for e in &errors {
        println!("qstar-e1: MISMATCH {e}");
    }
    let threads = dut_core::stats::runner::available_threads();
    let run_busy = secs(&layers.run_ns);
    // CPU time, which steal time on a shared machine leaves alone,
    // compares the two passes more steadily than wall time.
    let overhead = pass.cpu.as_secs_f64() / plain.cpu.as_secs_f64() - 1.0;
    println!(
        "qstar-e1 traced: wall {wall:.3} s (untraced {:.3} s; CPU overhead {:+.1}%); calibrate {calibrate:.3} s + run_trials {run_trials:.3} s = {:.1}% of wall",
        plain.wall.as_secs_f64(),
        overhead * 100.0,
        accounted * 100.0
    );
    println!(
        "qstar-e1 traced: run_trials parallel efficiency {:.3} (protocol-run busy {run_busy:.3} s over {threads} threads)",
        run_busy / (run_trials * threads as f64)
    );
    let mut layer = crate::LayerValues::default();
    layer.set("testers.calibrate.calls", count(&layers.calibrate_calls));
    layer.set("testers.calibrate.busy_s", calibrate);
    layer.set("probability.sample.calls", count(&layers.sample_calls));
    layer.set("probability.sample.draws", count(&layers.sample_draws));
    layer.set("probability.sample.busy_s", secs(&layers.sample_ns));
    layer.set("simnet.run.calls", count(&layers.run_calls));
    layer.set("simnet.run.self_s", run_busy - secs(&layers.sample_ns));
    layer.set("stats.search.probes", count(&layers.probes));
    layer.set("stats.run_trials.busy_s", run_trials);
    layer.set("stats.runner.threads", threads as f64);
    layer.set(
        "stats.run_trials.efficiency",
        run_busy / (run_trials * threads as f64),
    );
    layer.set("qstar.accounted_share", accounted);
    layer.set("trace.overhead_share", overhead);
    layer.set("qstar_e1_s", plain.wall.as_secs_f64());
    Ok(layer.into_outcome(
        errors.is_empty(),
        2 * POINTS.len() as u64,
        errors.len() as u64,
    ))
}
