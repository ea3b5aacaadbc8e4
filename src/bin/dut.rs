//! `dut` — the distributed-uniformity-testing command line.
//!
//! ```bash
//! # Run a distributed test and report acceptance rates:
//! dut test --n 4096 --k 64 --eps 0.5 --rule balanced --input two-level --trials 200
//!
//! # Print every theory prediction for a configuration:
//! dut predict --n 4096 --k 64 --eps 0.5
//!
//! # Ask the advisor which rule to deploy:
//! dut advise --n 4096 --k 64 --eps 0.5 --locality any
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the CLI writes its results to stdout and its errors to stderr"
)]

use distributed_uniformity::advisor::{recommend, LocalityRequirement};
use distributed_uniformity::lowerbound::theory;
use distributed_uniformity::probability::{families, DenseDistribution};
use distributed_uniformity::{ConfigError, UniformityTester};
use rand::SeedableRng;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "\
dut — distributed uniformity testing

USAGE:
    dut <COMMAND> [--flag [value]]... [argument]...

COMMANDS:
    test      run a tester and report acceptance rates
    predict   print the theory predictions for a configuration
    advise    recommend a decision rule
    faults    render error-vs-fault-rate curves and Byzantine tolerance
    report    summarize a JSONL trace (written via DUT_TRACE=<path>)
    lint      run workspace static analysis (determinism / numeric / concurrency rules)
    serve     run the long-lived uniformity-testing TCP service
    loadgen   drive a running service at a fixed request rate
    top       live dashboard over a running service's stats
    fuzz      structured adversarial testing (protocol / differential / chaos)

COMMON OPTIONS (test, predict, advise, faults):
    --n <int>         domain size                  [default: 1024; faults: 256]
    --k <int>         number of players            [default: 16]
    --eps <float>     proximity parameter          [default: 0.5; faults: 0.9]
    --seed <int>      master seed                  [default: 20190729]

test OPTIONS:
    --rule <name>     and | threshold:<T> | balanced | centralized
                                                   [default: balanced]
    --input <name>    uniform | two-level | alternating | zipf | hard
                                                   [default: two-level]
    --q <int>         samples per player           [default: predicted]
    --trials <int>    protocol executions          [default: 200]

advise OPTIONS:
    --locality <name> and | threshold:<T> | any    [default: any]

faults OPTIONS:
    --model <name>    iid | ge | targeted          [default: iid]
    --policy <name>   assume-accept | assume-reject | exclude
                                                   [default: assume-accept]
    --recovery <name> none | repeat:<R> | ack:<A>  [default: none]
    --t <int>         counting-rule threshold      [default: max(2, k/4), at most k]
    --q <int>         samples per player           [default: 100]
    --trials <int>    runs per sweep point         [default: 60]

report USAGE:
    dut report <trace.jsonl> [<trace.jsonl>...]
        one trace: per-event summary; several traces: their clock
        anchors place all events on one shared wall-clock axis

lint USAGE:
    dut lint [workspace-root]     the float-eq and concurrency rules clippy
                                  cannot express (default root: cwd);
                                  exits 1 on any unsuppressed finding

serve USAGE:
    dut serve [--addr <host:port>] [--workers <N>] [--shards <N>]
              [--cache-cap <N>] [--cache-shards <N>] [--queue-cap <N>]
              [--tenant <name:rate:burst:priority>]
              [--trace-sample <N>] [--idle-timeout <secs>]
              [--error-budget <N>] [--max-line-bytes <N>]
        serve newline-delimited JSON requests until a client sends
        {\"cmd\":\"shutdown\"}; also answers {\"cmd\":\"stats\"} (windowed
        metrics + SLO) and {\"cmd\":\"flight\"} (flight-recorder dump)
        [defaults: 127.0.0.1:7979, up to 4 workers, 2 shards, 32
        cached testers in 8 cache shards, 64 queued requests, 1-in-64
        trace sampling]; --shards event loops park persistent
        connections (shard 0 also accepts them),
        answer a request themselves when its tester is already built
        and it draws at most 1024 samples over all its trials, and
        dispatch every other request line to the worker pool (queue
        depth and shed decisions count requests, not connections);
        --workers caps the pool: it starts with one worker and starts
        another only when a request is queued while no worker is idle;
        each worker answers one queued request at a time, and requests for
        one configuration share its prepared tester through the
        single-flight cache (a request that finds the build in flight
        waits for it and counts as coalesced); --tenant (repeatable,
        names distinct) adds a per-tenant token-bucket quota with a
        shed priority, and stats rows list only those tenants (a
        request without a tenant field counts as `default`);
        hardening: connections with no completed line for
        --idle-timeout are reaped (default 30s), lines past
        --max-line-bytes get {\"error\":\"line_too_long\"} then close,
        and a connection exhausting --error-budget error replies is
        closed (default 64, 0 disables)

loadgen USAGE:
    dut loadgen [--addr <host:port>] [--rps <N>] [--duration <secs>]
                [--conns <N>] [--pipeline <N>] [--smoke] [--stats-check]
                [--trace <file>] [--trace-out <file>]
                [--shutdown] [--shutdown-only]
        open-loop load at --rps for --duration, then print achieved
        throughput, p50/p95/p99 service time (from each window's write)
        and p50/p99 response time (from each arrival's due time, so a
        stall that delays later windows shows); --pipeline keeps a window
        of N requests in flight per connection (one write per window,
        replies drained in send order); --stats-check cross-checks the
        server's {\"cmd\":\"stats\"} accounting against the client
        tally (polling mid-load); --smoke runs the CI gate, stats
        cross-check included (>=20000 req/s, zero shed, service p99
        under 50ms, offline-identical verdicts, server queue-wait p99
        under 10ms); --trace-out writes a replayable bursty/diurnal
        arrival trace (dut-serve-trace/v1, no load generated) and
        --trace replays one against the server (--pipeline and
        --stats-check apply to replays too); --shutdown stops the
        server afterwards, --shutdown-only does nothing else

fuzz USAGE:
    dut fuzz --smoke [--seed <N>] [--corpus-dir <dir>]
        run all three attack planes bounded with fixed seeds against
        in-process servers — the CI gate
    dut fuzz --plane <protocol|differential|chaos> [--iters <N>]
             [--seed <N>] [--duration <secs>] [--addr <host:port>]
             [--corpus-dir <dir>]
        run one plane against --addr when given, otherwise against a
        fuzz-owned in-process server; violations persist to
        --corpus-dir as replayable dut-fuzz-corpus/v1 entries. The
        chaos plane sends the hostile client mix (slowloris, half-open
        connects, mid-frame cuts, idle holds, reconnect storms) and
        verifies the server still answers bit-exactly afterwards; its
        idle clients hold for 750ms, so give an --addr server a
        shorter --idle-timeout to exercise the reaper
    dut fuzz --check <file|dir>...
        validate corpus entries against the schema
    dut fuzz --replay <file|dir>... [--addr <host:port>]
        replay corpus entries as assertions (protocol entries against
        --addr or an in-process server)

top USAGE:
    dut top [--addr <host:port>] [--interval <secs>] [--once]
        poll {\"cmd\":\"stats\"} and render a live dashboard (traffic,
        cache, latency phases, SLO burn); --once prints one frame
        and exits  [defaults: 127.0.0.1:7979, 1s interval]
";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args::new(&command, argv.collect());
    // DUT_TRACE=<path> traces these commands.
    let traced = matches!(
        command.as_str(),
        "test" | "predict" | "advise" | "faults" | "lint" | "serve" | "loadgen"
    );
    if traced {
        dut_obs::init_from_env();
    }
    let result = match command.as_str() {
        "test" => cmd_test(args),
        "predict" => cmd_predict(args),
        "advise" => cmd_advise(args),
        "faults" => cmd_faults(args),
        "report" => cmd_report(args),
        "lint" => cmd_lint(args),
        "serve" => cmd_serve(args),
        "loadgen" => cmd_loadgen(args),
        "top" => cmd_top(args),
        "fuzz" => cmd_fuzz(args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        "" => Err(format!("no command given\n\n{USAGE}")),
        other => Err(format!(
            "unknown command `{other}`\nrun `dut help` for usage"
        )),
    };
    if traced {
        let recorder = dut_obs::global();
        recorder.emit_metrics_snapshot();
        recorder.flush();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The sections of [`USAGE`] whose header line names `command`.
fn usage(command: &str) -> String {
    let sections: Vec<&str> = USAGE
        .split("\n\n")
        .filter(|section| {
            section.lines().next().is_some_and(|header| {
                header
                    .split(|c: char| !c.is_ascii_alphanumeric())
                    .any(|word| word == command)
            })
        })
        .collect();
    sections.join("\n\n")
}

/// One command's arguments, claimed flag by flag: each accessor names
/// its flag once, and [`Args::finish`] rejects whatever no accessor
/// claimed, so a misspelt flag is an error rather than a silent
/// default. A flag's value is the next token and never starts with
/// `--`; every other token is a positional argument.
struct Args {
    command: String,
    /// `None` once claimed.
    tokens: Vec<Option<String>>,
}

impl Args {
    fn new(command: &str, tokens: Vec<String>) -> Self {
        Args {
            command: command.to_owned(),
            tokens: tokens.into_iter().map(Some).collect(),
        }
    }

    /// A parse error, followed by the command's usage.
    fn error(&self, message: &str) -> String {
        format!("{message}\n\n{}", usage(&self.command))
    }

    /// Whether the switch `name` was given.
    fn switch(&mut self, name: &str) -> bool {
        let mut seen = false;
        for token in &mut self.tokens {
            if token.as_deref() == Some(name) {
                *token = None;
                seen = true;
            }
        }
        seen
    }

    /// Every value given for the repeatable flag `name`, in order.
    fn values(&mut self, name: &str) -> Result<Vec<String>, String> {
        let mut values = Vec::new();
        for i in 0..self.tokens.len() {
            if self.tokens[i].as_deref() != Some(name) {
                continue;
            }
            match self.tokens.get_mut(i + 1).and_then(Option::take) {
                Some(value) if !value.starts_with("--") => values.push(value),
                _ => return Err(self.error(&format!("{name} needs a value"))),
            }
            self.tokens[i] = None;
        }
        Ok(values)
    }

    /// The value of flag `name` (the last one, if repeated).
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        Ok(self.values(name)?.pop())
    }

    /// The value of flag `name`, parsed as `T`.
    fn get<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value(name)? {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|e| self.error(&format!("{name} got `{text}`: {e}"))),
        }
    }

    /// Ends parsing: the positional arguments (at most `max`), or an
    /// error naming the first unknown flag or surplus argument.
    fn finish(self, max: usize) -> Result<Vec<String>, String> {
        let rest: Vec<String> = self.tokens.iter().flatten().cloned().collect();
        if let Some(flag) = rest.iter().find(|t| t.starts_with("--")) {
            return Err(self.error(&format!("unknown flag `{flag}`")));
        }
        if let Some(extra) = rest.get(max) {
            return Err(self.error(&format!("unexpected argument `{extra}`")));
        }
        Ok(rest)
    }
}

/// The COMMON OPTIONS of test, predict, advise and faults.
struct Common {
    n: usize,
    k: usize,
    eps: f64,
    seed: u64,
}

impl Common {
    /// Parses the common options; n ≥ 1, k ≥ 1 and ε ∈ (0, 1], or an
    /// error naming the flag.
    fn parse(args: &mut Args, default_n: usize, default_eps: f64) -> Result<Self, String> {
        let common = Common {
            n: args.get("--n")?.unwrap_or(default_n),
            k: args.get("--k")?.unwrap_or(16),
            eps: args.get("--eps")?.unwrap_or(default_eps),
            seed: args.get("--seed")?.unwrap_or(20_190_729),
        };
        let invalid = if common.n == 0 {
            Some(("--n", ConfigError::EmptyDomain))
        } else if common.k == 0 {
            Some(("--k", ConfigError::NoPlayers))
        } else if !(common.eps > 0.0 && common.eps <= 1.0) {
            Some(("--eps", ConfigError::BadEpsilon(common.eps)))
        } else {
            None
        };
        match invalid {
            Some((flag, error)) => Err(format!("{flag}: {error}")),
            None => Ok(common),
        }
    }
}

/// The `--trials` of test and faults, which must be at least 1.
fn trials(args: &mut Args, default: usize) -> Result<usize, String> {
    match args.get("--trials")?.unwrap_or(default) {
        0 => Err("--trials: must be at least 1".into()),
        trials => Ok(trials),
    }
}

fn parse_input(
    spec: &str,
    n: usize,
    eps: f64,
    rng: &mut rand::rngs::StdRng,
) -> Result<DenseDistribution, String> {
    if let Some(family) = dut_serve::protocol::Family::parse(spec) {
        return family.build(n, eps);
    }
    if spec != "hard" {
        return Err(format!(
            "unknown input `{spec}` (uniform | two-level | alternating | zipf | hard)"
        ));
    }
    // A random member of the paper's nu_z family; requires a
    // power-of-two domain of size >= 4.
    if !n.is_power_of_two() || n < 4 {
        return Err("the hard family needs a power-of-two domain >= 4".into());
    }
    let ell = n.trailing_zeros() - 1;
    let dom = distributed_uniformity::probability::PairedDomain::new(ell);
    let z = distributed_uniformity::probability::PerturbationVector::random(dom.cube_size(), rng);
    dom.perturbed_distribution(&z, eps)
        .map_err(|e| e.to_string())
}

fn cmd_test(mut args: Args) -> Result<(), String> {
    let Common { n, k, eps, seed } = Common::parse(&mut args, 1024, 0.5)?;
    let trials = trials(&mut args, 200)?;
    let rule_spec = args.value("--rule")?;
    let input_spec = args.value("--input")?;
    let q = args.get("--q")?;
    args.finish(0)?;
    let rule = dut_serve::protocol::parse_rule(rule_spec.as_deref().unwrap_or("balanced"), k)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let input_spec = input_spec.as_deref().unwrap_or("two-level");
    let input = parse_input(input_spec, n, eps, &mut rng)?;

    let tester = UniformityTester::builder()
        .domain_size(n)
        .players(k)
        .epsilon(eps)
        .rule(rule)
        .build()
        .map_err(|e| e.to_string())?;
    let q = q.unwrap_or_else(|| tester.predicted_sample_count());
    println!("configuration: n={n} k={k} eps={eps} rule={rule} q={q} input={input_spec}");
    let prepared = tester.prepare(q, &mut rng);

    let target = input.alias_sampler();
    let accept = prepared.acceptance_rate(&target, trials, &mut rng);
    println!(
        "acceptance on `{input_spec}` over {trials} runs: {:.1}%",
        100.0 * accept
    );

    if input_spec != "uniform" {
        let uniform = families::uniform(n).alias_sampler();
        let completeness = prepared.acceptance_rate(&uniform, trials, &mut rng);
        println!(
            "acceptance on uniform (completeness):      {:.1}%",
            100.0 * completeness
        );
        let dist = distributed_uniformity::probability::distance::l1_distance(
            &input,
            &families::uniform(n),
        );
        println!("input l1 distance from uniform: {dist:.4}");
        if dist >= eps {
            let ok = completeness >= 2.0 / 3.0 && accept <= 1.0 / 3.0;
            println!(
                "two-sided 2/3 guarantee: {}",
                if ok { "HOLDS" } else { "violated at this q" }
            );
        }
    }
    Ok(())
}

/// `dut lint [root]` — workspace static analysis (dut-analyze).
///
/// Fails on any unsuppressed finding, so CI can gate on it. The pass
/// runs under a `lint.workspace` span and emits a `lint_summary`
/// event, so `dut report` shows analysis cost next to experiment cost.
fn cmd_lint(args: Args) -> Result<(), String> {
    let root = match args.finish(1)?.pop() {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::current_dir().map_err(|e| format!("cannot resolve cwd: {e}"))?,
    };
    let report = {
        let _span = dut_obs::span!("lint.workspace");
        dut_analyze::lint_workspace(&root)?
    };
    dut_obs::global().emit_with(|| {
        dut_obs::Event::new("lint_summary")
            .with("files", report.files_checked as u64)
            .with("findings", report.findings.len() as u64)
            .with("suppressed", report.suppressed as u64)
    });
    println!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "lint is not clean: {} finding(s)",
            report.findings.len()
        ))
    }
}

/// `dut serve` — run the concurrent uniformity-testing service until
/// a client sends `{"cmd":"shutdown"}`.
fn cmd_serve(mut args: Args) -> Result<(), String> {
    let mut config = dut_serve::ServeConfig::default();
    if let Some(addr) = args.value("--addr")? {
        config.addr = addr;
    }
    // Every count is clamped to at least 1.
    for (name, slot) in [
        ("--workers", &mut config.workers),
        ("--cache-cap", &mut config.cache_cap),
        ("--queue-cap", &mut config.queue_cap),
        ("--max-line-bytes", &mut config.max_line_bytes),
        ("--shards", &mut config.shards),
        ("--cache-shards", &mut config.cache_shards),
    ] {
        if let Some(count) = args.get::<usize>(name)? {
            *slot = count.max(1);
        }
    }
    if let Some(every) = args.get("--trace-sample")? {
        config.trace_sample = every;
    }
    if let Some(secs) = args.get::<f64>("--idle-timeout")? {
        config.idle_timeout = Duration::from_secs_f64(secs.clamp(0.05, 3600.0));
    }
    if let Some(budget) = args.get("--error-budget")? {
        config.error_budget = budget;
    }
    for spec in args.values("--tenant")? {
        config.tenancy.push(parse_tenant_quota(&spec)?);
    }
    args.finish(0)?;
    let handle = dut_serve::server::start(&config)?;
    println!(
        "dut serve listening on {} (up to {} workers, started on demand, {} shards, cache {} testers, queue {} requests)",
        handle.local_addr(),
        config.workers.max(1),
        config.shards.max(1),
        config.cache_cap.max(1),
        config.queue_cap.max(1)
    );
    println!("send {{\"cmd\":\"shutdown\"}} to stop");
    handle.join();
    println!("dut serve: drained and stopped");
    Ok(())
}

/// `dut loadgen` — open-loop load against a running `dut serve`.
fn cmd_loadgen(mut args: Args) -> Result<(), String> {
    let mut config = dut_serve::LoadgenConfig::default();
    let smoke = args.switch("--smoke");
    let shutdown_after = args.switch("--shutdown");
    let shutdown_only = args.switch("--shutdown-only");
    // The smoke gate reads the server's queue wait, so it always
    // runs the stats cross-check.
    let stats_check = args.switch("--stats-check") || smoke;
    let trace_path = args.value("--trace")?;
    let trace_out = args.value("--trace-out")?;
    if let Some(addr) = args.value("--addr")? {
        config.addr = addr;
    }
    if let Some(rps) = args.get::<u64>("--rps")? {
        config.rps = rps.max(1);
    }
    let duration_secs = args
        .get::<f64>("--duration")?
        .map_or(2.0, |secs| secs.clamp(0.1, 600.0));
    if let Some(conns) = args.get::<usize>("--conns")? {
        config.connections = conns.max(1);
    }
    if let Some(window) = args.get::<usize>("--pipeline")? {
        config.pipeline = window.max(1);
    }
    args.finish(0)?;
    // `--trace-out` generates a replayable arrival trace; no load is
    // generated and no server is needed.
    if let Some(path) = trace_out {
        let trace = dut_serve::trace::generate(&dut_serve::TraceConfig {
            rps: config.rps,
            duration: Duration::from_secs_f64(duration_secs),
            lanes: config.connections.max(1) as u64,
            ..dut_serve::TraceConfig::default()
        });
        std::fs::write(&path, trace.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "trace written to {path}: {} arrivals over {:.2}s on {} lanes",
            trace.events.len(),
            Duration::from_micros(trace.span_micros).as_secs_f64(),
            trace.lanes
        );
        return Ok(());
    }
    if shutdown_only {
        return send_shutdown(&config.addr);
    }
    if smoke {
        config.rps = 30_000;
        config.connections = 8;
        config.pipeline = 4;
        config.verify_offline = true;
    }
    config.duration = Duration::from_secs_f64(if smoke { 2.0 } else { duration_secs });
    let outcome = run_load(&config, trace_path, stats_check, smoke);
    let shutdown = if shutdown_after {
        send_shutdown(&config.addr)
    } else {
        Ok(())
    };
    outcome.and(shutdown)
}

/// One loadgen run (open-loop, or a `--trace` replay), its report, and
/// the `--stats-check` and `--smoke` gates.
fn run_load(
    config: &dut_serve::LoadgenConfig,
    trace_path: Option<String>,
    stats_check: bool,
    smoke: bool,
) -> Result<(), String> {
    // `--trace` replays a recorded arrival schedule instead of the
    // open loop; lanes and timing come from the file.
    let trace = match trace_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let trace = dut_serve::Trace::parse(&text)?;
            println!(
                "replaying {path}: {} arrivals over {:.2}s on {} lanes",
                trace.events.len(),
                Duration::from_micros(trace.span_micros).as_secs_f64(),
                trace.lanes
            );
            Some(trace)
        }
        None => None,
    };
    let (report, check) = if stats_check {
        let (report, check) = dut_serve::loadgen::run_checked(config, trace.as_ref())?;
        (report, Some(check))
    } else {
        (dut_serve::loadgen::run(config, trace.as_ref())?, None)
    };
    println!(
        "loadgen: {} sent, {} replies, {} shed, {} errors in {:.2}s ({:.0} req/s)",
        report.sent,
        report.replies,
        report.shed,
        report.errors,
        report.elapsed.as_secs_f64(),
        report.achieved_rps
    );
    println!(
        "latency: p50 {}us  p95 {}us  p99 {}us",
        report.p50_micros, report.p95_micros, report.p99_micros
    );
    println!(
        "response: p50 {}us  p99 {}us (from due time)",
        report.response_p50_micros, report.response_p99_micros
    );
    if config.verify_offline {
        println!(
            "offline agreement: {} of {} replies bit-identical",
            report.replies - report.mismatches,
            report.replies
        );
    }
    let mut failures = Vec::new();
    if let Some(check) = &check {
        if smoke {
            let gate = dut_serve::loadgen::smoke_failures(&report, check);
            if gate.is_empty() {
                println!("smoke: PASS");
            }
            failures.extend(gate.iter().map(|f| format!("smoke: {f}")));
        }
        println!(
            "stats-check: {} mid-load polls answered; server delta {} requests; queue-wait p99 {:.0}us",
            check.mid_polls,
            check.post.requests.saturating_sub(check.pre.requests),
            check.post.queue_wait_p99
        );
        if check.passed() {
            println!("stats-check: PASS");
        }
        failures.extend(check.failures.iter().map(|f| format!("stats-check: {f}")));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn send_shutdown(addr: &str) -> Result<(), String> {
    dut_serve::loadgen::send_shutdown(addr)?;
    println!("server at {addr} acknowledged shutdown");
    Ok(())
}

/// Parses a `--tenant name:rate:burst:priority` quota spec. Rate is
/// requests/second (0 = unlimited but still tracked), burst is the
/// bucket depth, priority orders eviction at the queue cap (higher
/// wins).
fn parse_tenant_quota(spec: &str) -> Result<dut_serve::TenantQuota, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 4 || parts[0].is_empty() {
        return Err(format!(
            "--tenant needs `name:rate:burst:priority`, got `{spec}`"
        ));
    }
    let rate = parts[1]
        .parse::<f64>()
        .map_err(|_| format!("--tenant rate must be a number, got `{}`", parts[1]))?;
    let burst = parts[2]
        .parse::<f64>()
        .map_err(|_| format!("--tenant burst must be a number, got `{}`", parts[2]))?;
    let priority = parts[3]
        .parse::<u8>()
        .map_err(|_| format!("--tenant priority must be 0-255, got `{}`", parts[3]))?;
    Ok(dut_serve::TenantQuota {
        name: parts[0].to_owned(),
        rate: rate.max(0.0),
        burst: burst.max(0.0),
        priority,
    })
}

fn cmd_report(args: Args) -> Result<(), String> {
    let paths = args.finish(usize::MAX)?;
    let summary = match paths.as_slice() {
        [] => return Err("usage: dut report <trace.jsonl> [<trace.jsonl>...]".into()),
        [path] => dut_obs::report::summarize_file(path)?,
        // Several traces: use their clock anchors to place every
        // process on one shared wall-clock axis.
        paths => {
            let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
            dut_obs::report::summarize_aligned(&paths)?
        }
    };
    print!("{summary}");
    Ok(())
}

/// `dut top` — live dashboard polling a running server's stats.
fn cmd_top(mut args: Args) -> Result<(), String> {
    let mut config = dut_serve::top::TopConfig {
        addr: "127.0.0.1:7979".to_owned(),
        ..dut_serve::top::TopConfig::default()
    };
    if args.switch("--once") {
        config.frames = Some(1);
        config.clear = false;
    }
    if let Some(addr) = args.value("--addr")? {
        config.addr = addr;
    }
    if let Some(secs) = args.get::<f64>("--interval")? {
        config.interval = Duration::from_secs_f64(secs.clamp(0.1, 60.0));
    }
    args.finish(0)?;
    dut_serve::top::run(&config, &mut std::io::stdout())
}

/// `dut fuzz` — structured adversarial testing (crates/fuzz).
///
/// `--smoke` runs all three attack planes bounded with fixed seeds —
/// the CI gate. `--plane` runs one plane with tunable iteration
/// counts. `--check` validates corpus entries against the
/// `dut-fuzz-corpus/v1` schema; `--replay` re-fires them as
/// assertions.
fn cmd_fuzz(mut args: Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let mode_check = args.switch("--check");
    let mode_replay = args.switch("--replay");
    let plane = args.value("--plane")?;
    let iters = args.get::<u64>("--iters")?.map(|v| v.max(1));
    let seed = args.get("--seed")?.unwrap_or(7);
    let duration = Duration::from_secs_f64(
        args.get::<f64>("--duration")?
            .map_or(0.8, |secs| secs.clamp(0.1, 600.0)),
    );
    let addr = args.value("--addr")?;
    let corpus_dir = args.value("--corpus-dir")?.map(std::path::PathBuf::from);
    let paths = args.finish(usize::MAX)?;
    if mode_check {
        return fuzz_check(&paths);
    }
    if mode_replay {
        return fuzz_replay(&paths, addr);
    }
    if smoke {
        let report = dut_fuzz::smoke(&dut_fuzz::SmokeConfig {
            seed,
            corpus_dir,
            ..dut_fuzz::SmokeConfig::default()
        })?;
        print_protocol_report(&report.protocol);
        print_diff_report(&report.differential);
        println!("chaos: {}", report.chaos.summary());
        if report.passed() {
            println!("fuzz smoke: PASS (all three planes held)");
            return Ok(());
        }
        let failed: Vec<&str> = [
            (report.protocol.passed(), "protocol"),
            (report.differential.passed(), "differential"),
            (report.chaos.survived(), "chaos"),
        ]
        .into_iter()
        .filter(|(held, _)| !held)
        .map(|(_, plane)| plane)
        .collect();
        return Err(format!("fuzz smoke failed: {} plane", failed.join(", ")));
    }
    let held = match plane.as_deref() {
        Some("protocol") => {
            let (addr, server) = fuzz_target(addr)?;
            let result =
                dut_fuzz::protocol_plane::run(&dut_fuzz::protocol_plane::ProtocolFuzzConfig {
                    iters: iters.unwrap_or(100),
                    seed,
                    addr,
                    corpus_dir,
                });
            stop_fuzz_server(server);
            let report = result?;
            print_protocol_report(&report);
            report.passed()
        }
        Some("differential") => {
            let (addr, server) = fuzz_target(addr)?;
            let result = dut_fuzz::differential::run(&dut_fuzz::differential::DiffConfig {
                iters: iters.unwrap_or(32),
                seed,
                addr: Some(addr),
                corpus_dir,
            });
            stop_fuzz_server(server);
            let report = result?;
            print_diff_report(&report);
            report.passed()
        }
        Some("chaos") => {
            let report = match addr {
                // An external server keeps its own idle timeout; the
                // mix holds idle clients for `chaos::HOLD`.
                Some(addr) => {
                    println!("fuzz: attacking {addr}");
                    dut_serve::chaos::run(&dut_serve::chaos::ChaosConfig {
                        addr,
                        duration,
                        seed,
                    })
                }
                None => dut_fuzz::chaos_plane::run(&dut_fuzz::chaos_plane::ChaosPlaneConfig {
                    duration,
                    seed,
                }),
            }?;
            println!("chaos: {}", report.summary());
            report.survived()
        }
        Some(other) => {
            return Err(format!(
                "unknown plane `{other}` (protocol | differential | chaos)"
            ))
        }
        None => return Err(format!("no fuzz mode given\n\n{}", usage("fuzz"))),
    };
    if held {
        println!("{}: PASS", plane.unwrap_or_default());
        Ok(())
    } else {
        Err(format!("{} plane failed", plane.unwrap_or_default()))
    }
}

/// Resolves the fuzz target: an explicit `--addr`, or a fuzz-owned
/// in-process server the caller must stop via [`stop_fuzz_server`].
fn fuzz_target(
    addr: Option<String>,
) -> Result<(String, Option<dut_serve::server::ServerHandle>), String> {
    match addr {
        Some(addr) => Ok((addr, None)),
        None => {
            let handle = dut_serve::server::start(&dut_serve::ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 4,
                queue_cap: 32,
                ..dut_serve::ServeConfig::default()
            })?;
            let addr = handle.local_addr().to_string();
            println!("fuzz: attacking in-process server at {addr}");
            Ok((addr, Some(handle)))
        }
    }
}

fn stop_fuzz_server(server: Option<dut_serve::server::ServerHandle>) {
    if let Some(handle) = server {
        handle.request_shutdown();
        handle.join();
    }
}

fn print_protocol_report(report: &dut_fuzz::protocol_plane::ProtocolFuzzReport) {
    println!(
        "protocol: {} frames fired, {} known-good probes, accounting {}",
        report.iterations,
        report.probes,
        if report.accounting_ok {
            "balanced"
        } else {
            "BROKEN"
        }
    );
    for violation in &report.violations {
        eprintln!(
            "protocol violation [{}]: {} (frame: {})",
            violation.mutation.name(),
            violation.what,
            violation.frame_preview
        );
        if let Some(path) = &violation.corpus_file {
            eprintln!("  persisted to {}", path.display());
        }
    }
}

fn print_diff_report(report: &dut_fuzz::differential::DiffReport) {
    println!(
        "differential: {} configs, {} served-path checks",
        report.iterations, report.served_checked
    );
    for failure in &report.failures {
        eprintln!(
            "differential mismatch: {} (shrunk config: {:?})",
            failure.what, failure.request
        );
        if let Some(path) = &failure.corpus_file {
            eprintln!("  persisted to {}", path.display());
        }
    }
}

/// `dut fuzz --check` — schema-validate corpus entries.
fn fuzz_check(paths: &[String]) -> Result<(), String> {
    let files = dut_fuzz::corpus::collect_files(paths)?;
    let mut bad = 0u64;
    for file in &files {
        if let Err(message) = std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| dut_fuzz::corpus::validate(&text))
        {
            eprintln!("{}: {message}", file.display());
            bad += 1;
        }
    }
    println!(
        "fuzz check: {} of {} corpus entries valid",
        files.len() as u64 - bad,
        files.len()
    );
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("{bad} invalid corpus entr(ies)"))
    }
}

/// `dut fuzz --replay` — re-fire corpus entries as assertions.
fn fuzz_replay(paths: &[String], addr: Option<String>) -> Result<(), String> {
    let mut entries = Vec::new();
    for file in &dut_fuzz::corpus::collect_files(paths)? {
        let entry = std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| dut_fuzz::corpus::Entry::parse(&text))
            .map_err(|message| format!("{}: {message}", file.display()))?;
        entries.push(entry);
    }
    // Protocol entries need a live server; differential ones run
    // in-process, so only start a server when something will use it.
    let needs_server = entries
        .iter()
        .any(|e| e.plane == dut_fuzz::corpus::Plane::Protocol);
    let (addr, server) = if needs_server {
        fuzz_target(addr)?
    } else {
        (String::new(), None)
    };
    let mut failed = 0u64;
    for entry in &entries {
        match entry.replay(&addr) {
            Ok(()) => println!("replay {} [{}]: ok", entry.name, entry.plane.name()),
            Err(message) => {
                eprintln!("replay {} [{}]: {message}", entry.name, entry.plane.name());
                failed += 1;
            }
        }
    }
    stop_fuzz_server(server);
    println!(
        "fuzz replay: {} of {} entries held",
        entries.len() as u64 - failed,
        entries.len()
    );
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} corpus entr(ies) failed to replay"))
    }
}

/// `dut faults` — graceful-degradation curves and Byzantine tolerance.
///
/// Sweeps a fault model's intensity and prints the measured two-sided
/// error of the AND rule next to a calibrated counting rule at the
/// same `k`, `q`, `ε`, then probes how many Byzantine bit-flippers
/// each rule absorbs: the measured tolerance is one less than the
/// first flipper count whose two-sided error exceeds 1/3, and 0 when
/// the error exceeds 1/3 already without flippers (predicted:
/// `t < min(T, k − T + 1)`, so AND breaks at `t = 1`).
fn cmd_faults(mut args: Args) -> Result<(), String> {
    use distributed_uniformity::simnet::{
        byzantine_tolerance, measured_byzantine_tolerance, rejection_rate, ByzantinePlan,
        FaultPlan, GilbertElliott, IidFaults, MissingPolicy, Recovery, ResilientNetwork,
        TargetedLoss,
    };
    use distributed_uniformity::testers::{PreparedThresholdTester, TThresholdTester};

    let Common { n, k, eps, seed } = Common::parse(&mut args, 256, 0.9)?;
    let trials = trials(&mut args, 60)?;
    let q = args.get("--q")?.unwrap_or(100);
    let t = args.get("--t")?.unwrap_or((k / 4).max(2).min(k));
    let model = args.value("--model")?;
    let policy = args.value("--policy")?;
    let recovery = args.value("--recovery")?;
    args.finish(0)?;
    if t == 0 || t > k {
        return Err(format!("--t {t} outside 1..={k}"));
    }
    let model = model.as_deref().unwrap_or("iid");
    let policy = match policy.as_deref().unwrap_or("assume-accept") {
        "assume-accept" => MissingPolicy::AssumeAccept,
        "assume-reject" => MissingPolicy::AssumeReject,
        "exclude" => MissingPolicy::Exclude,
        other => {
            return Err(format!(
                "unknown policy `{other}` (assume-accept | assume-reject | exclude)"
            ))
        }
    };
    let recovery = match recovery.as_deref().unwrap_or("none") {
        "none" => Recovery::None,
        other => {
            let count = |spec: &str| -> Result<usize, String> {
                let count: usize = spec
                    .parse()
                    .map_err(|_| format!("--recovery needs an integer after `:`, got `{spec}`"))?;
                if count == 0 {
                    return Err("--recovery count must be at least 1".into());
                }
                Ok(count)
            };
            if let Some(copies) = other.strip_prefix("repeat:") {
                Recovery::Repetition {
                    copies: count(copies)?,
                }
            } else if let Some(attempts) = other.strip_prefix("ack:") {
                Recovery::AckRetry {
                    max_attempts: count(attempts)?,
                }
            } else {
                return Err(format!(
                    "unknown recovery `{other}` (none | repeat:<R> | ack:<A>)"
                ));
            }
        }
    };

    let uniform = families::uniform(n).alias_sampler();
    let far = families::two_level(n, eps)
        .map_err(|e| e.to_string())?
        .alias_sampler();
    let network = ResilientNetwork::new(k, policy).with_recovery(recovery);

    let and_rule = TThresholdTester::new(n, k, 1).prepare(q);
    let thr_rule = TThresholdTester::new(n, k, t).prepare(q);
    // Each measurement gets its own fault-randomness stream, derived
    // deterministically from its position, so output is reproducible.
    let mut stream = 0u64;
    let mut measure =
        |prepared: &PreparedThresholdTester, plan: &mut dyn FaultPlan, far_side: bool| {
            stream += 1;
            let sampler = if far_side { &far } else { &uniform };
            let rates = rejection_rate(trials, seed, stream, |rng| {
                prepared.run_faulty(&network, plan, sampler, rng)
            });
            if far_side {
                rates.error_on_far()
            } else {
                rates.error_on_uniform()
            }
        };

    println!(
        "fault tolerance: n={n} k={k} eps={eps} q={q} trials={trials} model={model} \
         policy={policy:?} recovery={recovery}"
    );
    println!();

    // Sweep points: fault intensity per model. Targeted loss sweeps
    // its per-round deletion budget instead of a probability.
    type PlanFactory = Box<dyn Fn() -> Box<dyn FaultPlan>>;
    let sweep: Vec<(String, PlanFactory)> = match model {
        "iid" => (0..=5)
            .map(|s| {
                let rate = f64::from(s) * 0.1;
                let label = format!("{rate:.2}");
                let factory: PlanFactory = Box::new(move || Box::new(IidFaults::loss_only(rate)));
                (label, factory)
            })
            .collect(),
        "ge" => (0..=5)
            .map(|s| {
                let rate = f64::from(s) * 0.07;
                let label = format!("{rate:.2}");
                let factory: PlanFactory =
                    Box::new(move || Box::new(GilbertElliott::bursty_with_mean_loss(rate)));
                (label, factory)
            })
            .collect(),
        "targeted" => (0..=4usize)
            .map(|budget| {
                let label = format!("b={budget}");
                let factory: PlanFactory =
                    Box::new(move || Box::new(TargetedLoss::alarm_silencer(budget)));
                (label, factory)
            })
            .collect(),
        other => return Err(format!("unknown model `{other}` (iid | ge | targeted)")),
    };

    println!("graceful degradation (two-sided error per fault intensity):");
    println!("  rate   and:errU  and:errF  thr({t}):errU  thr({t}):errF");
    for (label, factory) in &sweep {
        let and_u = measure(&and_rule, factory().as_mut(), false);
        let and_f = measure(&and_rule, factory().as_mut(), true);
        let thr_u = measure(&thr_rule, factory().as_mut(), false);
        let thr_f = measure(&thr_rule, factory().as_mut(), true);
        println!("  {label:<6} {and_u:<9.3} {and_f:<9.3} {thr_u:<12.3} {thr_f:<12.3}");
    }
    println!();

    println!("byzantine tolerance (bit-flippers until two-sided error > 1/3):");
    println!("  rule          predicted  measured");
    for (name, prepared) in [
        ("and".to_owned(), &and_rule),
        (thr_rule.referee().name(), &thr_rule),
    ] {
        let predicted = byzantine_tolerance(&prepared.referee(), k);
        let scan_to = (predicted + 2).min(k);
        let mut errors = Vec::new();
        let mut measured = None;
        for flippers in 0..=scan_to {
            let err_u = measure(prepared, &mut ByzantinePlan::flippers(flippers), false);
            let err_f = measure(prepared, &mut ByzantinePlan::flippers(flippers), true);
            errors.push((err_u, err_f));
            measured = measured_byzantine_tolerance(&errors);
            if measured.is_some() {
                break;
            }
        }
        let measured = measured.map_or_else(|| format!(">={scan_to}"), |m| m.to_string());
        println!("  {name:<13} {predicted:<10} {measured}");
    }
    Ok(())
}
fn cmd_predict(mut args: Args) -> Result<(), String> {
    let Common { n, k, eps, .. } = Common::parse(&mut args, 1024, 0.5)?;
    args.finish(0)?;
    println!("theory predictions for n={n}, k={k}, eps={eps}:");
    println!(
        "  centralized (Paninski)             q ~ {:>10.0}",
        theory::centralized(n, eps)
    );
    println!(
        "  any rule (Thm 1.1 floor)           q ≥ {:>10.0}",
        theory::theorem_1_1(n, k, eps)
    );
    println!(
        "  optimal threshold upper ([7])      q ~ {:>10.0}",
        theory::fmo_threshold_upper(n, k, eps)
    );
    println!(
        "  AND rule (Thm 1.2 floor)           q ≥ {:>10.0}",
        theory::theorem_1_2(n, k, eps).max(theory::theorem_1_1(n, k, eps))
    );
    println!(
        "  AND rule upper ([7])               q ~ {:>10.0}",
        theory::fmo_and_upper(n, k, eps)
    );
    println!(
        "  Thm 1.2 validity range             k ≤ 2^(1/eps) = {:.0}",
        theory::theorem_1_2_k_range(eps)
    );
    println!(
        "  learning floor at q=16 (Thm 1.4)   k ≥ {:>10.0}",
        theory::theorem_1_4_min_players(n, 16)
    );
    Ok(())
}

fn cmd_advise(mut args: Args) -> Result<(), String> {
    let Common { n, k, eps, .. } = Common::parse(&mut args, 1024, 0.5)?;
    let locality = args.value("--locality")?;
    args.finish(0)?;
    let locality = match locality.as_deref().unwrap_or("any") {
        "and" => LocalityRequirement::FullyLocal,
        "any" => LocalityRequirement::Unrestricted,
        other => {
            if let Some(t) = other.strip_prefix("threshold:") {
                let t = t
                    .parse()
                    .map_err(|_| format!("threshold locality needs an integer, got `{t}`"))?;
                LocalityRequirement::AtMostThreshold(t)
            } else {
                return Err(format!(
                    "unknown locality `{other}` (and | threshold:<T> | any)"
                ));
            }
        }
    };
    let rec = recommend(n, k, eps, locality);
    println!("recommended rule: {}", rec.rule);
    println!("predicted samples/player: {:.0}", rec.predicted_samples);
    println!(
        "alternatives: AND {:.0} | optimal {:.0} | centralized {:.0}",
        rec.and_rule_samples, rec.optimal_samples, rec.centralized_samples
    );
    println!("rationale: {}", rec.rationale);
    Ok(())
}
