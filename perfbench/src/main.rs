//! End-to-end and per-layer benchmark for the E1 q* searches and the
//! `dut serve` path.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <qstar-e1|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable report lines go to standard output first; the last
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics (see `perfbench/README.md`).

mod openloop;
mod qstar;
mod serve;
mod summary;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed (shed, error, wrong answer, unanswered).
    pub failed: u64,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Every per-layer metric, with its unit, in report order. A traced run
/// of any workload reports all of them; a layer the workload does not
/// exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 43] = [
    ("testers.calibrate.calls", "count"),
    ("testers.calibrate.busy_s", "s"),
    ("probability.sample.calls", "count"),
    ("probability.sample.draws", "count"),
    ("probability.sample.busy_s", "s"),
    ("simnet.run.calls", "count"),
    ("simnet.run.self_s", "s"),
    ("stats.search.probes", "count"),
    ("stats.run_trials.busy_s", "s"),
    ("stats.runner.threads", "count"),
    ("stats.run_trials.efficiency", "ratio"),
    ("qstar.accounted_share", "ratio"),
    ("qstar_e1_s", "s"),
    ("serve.requests", "count"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p99_us", "us"),
    ("serve.calibrate_p99_us", "us"),
    ("serve.compute_p99_us", "us"),
    ("serve.shed", "count"),
    ("serve.backend.per_draw", "count"),
    ("serve.backend.histogram", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.misses", "count"),
    ("serve.coalesced_share", "ratio"),
    ("serve.max_rate_rps", "1/s"),
    ("replay.requests", "count"),
    ("protocol.parse_us_per_req", "us"),
    ("engine.handle_us_per_req", "us"),
    ("protocol.render_us_per_req", "us"),
    ("server.unattributed_p50_us", "us"),
    ("loadgen.latency_p50_us.light", "us"),
    ("loadgen.latency_p50_us.heavy", "us"),
    ("loadgen.latency_p99_us.light", "us"),
    ("loadgen.latency_p99_us.heavy", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.replies", "count"),
    ("loadgen.shed", "count"),
    ("loadgen.errors", "count"),
    ("loadgen.mismatches", "count"),
    ("failed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Per-layer values a traced run has measured, by name.
#[derive(Debug, Default)]
pub struct LayerValues(std::collections::BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The outcome of a traced run: every per-layer metric, 0 where
    /// nothing was recorded.
    #[must_use]
    pub fn into_outcome(self, correct: bool, attempted: u64, failed: u64) -> Outcome {
        let mut out = Outcome {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
        };
        for (name, unit) in LAYER_METRICS {
            out.push(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        out
    }
}

fn render(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` prints the shortest representation that round-trips.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "qstar-e1" => qstar::run(&args),
        "serve-hot" => serve::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not a finite number", bad.name);
        return ExitCode::from(1);
    }
    println!("{}", render(&outcome));
    ExitCode::SUCCESS
}
