//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests name a complete test configuration:
//!
//! ```json
//! {"n":1024,"k":16,"q":40,"eps":0.5,"rule":"balanced","seed":7,
//!  "samples":"two-level","trials":20}
//! ```
//!
//! `samples` (the input family) defaults to `"uniform"` and `trials`
//! to 1. Admin commands share the line format: `{"cmd":"shutdown"}`
//! drains and stops the server, `{"cmd":"stats"}` returns cumulative
//! and windowed metrics with SLO status, `{"cmd":"flight"}` dumps the
//! flight recorder's recent events. Replies are single lines too:
//!
//! ```json
//! {"verdict":"accept","p_hat":0.95,"wilson_lo":0.76,"wilson_hi":0.99,
//!  "cache":"hit","micros":412,"rid":1042}
//! ```
//!
//! Errors come back as `{"error":"..."}`; a shed *request* receives
//! `{"error":"overloaded","shed":true}` on its line (the connection
//! stays open — shedding is per request under the request-level
//! scheduler). Requests may carry an optional `"tenant":"name"` field
//! for admission control; a request shed by its tenant's quota gets
//! the overloaded line extended with `"scope":"tenant"` and the
//! tenant name, which still parses as [`ReplyLine::Overloaded`].
//!
//! Numbers cross the wire through Rust's shortest-round-trip `f64`
//! formatting, so a reply parsed back yields bit-identical floats —
//! the loadgen's offline-agreement check depends on this.

use dut_core::Rule;
use dut_obs::json::{self, Json, Value};
use dut_probability::{families, DenseDistribution};
use dut_simnet::Verdict;
use std::fmt;

/// Most trials a single request may ask for. It bounds a request's
/// trial count, not its time: [`MAX_REQUEST_WORK`] bounds how long the
/// request may hold its worker.
pub const MAX_TRIALS: u64 = 100_000;

/// Largest domain size a served request may name. A prepared tester
/// materializes O(n) probability tables, so an unchecked
/// `{"n":1e18}` is a one-line allocation bomb — the fuzzer's favorite
/// abusive config. Offline runs (`dut test`) are not bound by this;
/// only the wire protocol is.
pub const MAX_N: usize = 1 << 20;

/// Largest per-player sample count a served request may name. Every
/// trial draws `k·q` samples through the alias kernel, so at
/// [`MAX_WORK`] the largest `q` sets the slowest admitted trial (see
/// there).
pub const MAX_Q: usize = 1 << 20;

/// Largest player count a served request may name.
pub const MAX_K: usize = 1 << 12;

/// Upper bound on `k·(n+q)`: the alias table is O(n) and every trial
/// draws `k·q` samples. Individually legal n, q, k can still multiply
/// into hours of worker time; this cap bounds one trial to about a
/// second. The slowest admitted trial is at the largest `q`: one trial
/// of `n = 256, q = 2²⁰, k = 63` (balanced rule, uniform input) took
/// 0.97–1.22 s per trial on a warm cache (method under
/// [`MAX_REQUEST_WORK`]). With `q ≤ 4096` a trial stays under 0.2 s. A
/// request's trials run one after another on one worker, so
/// [`MAX_REQUEST_WORK`] bounds their sum.
pub const MAX_WORK: u64 = 1 << 26;

/// Upper bound on `trials·k·(n+q)`, the work of a whole request.
/// [`MAX_TRIALS`] and [`MAX_WORK`] alone admit a request that holds its
/// worker for days. At this bound the slowest trials are 32 of
/// `n = 256, q = 2²⁰, k = 63` (balanced rule, uniform input): 34.8 s of
/// one worker (1.09 s per trial) with the key's tester already cached;
/// single-trial and 3-trial requests of that key took 0.97–1.22 s per
/// trial. The slowest request on a cold cache is 32 trials of
/// `n = q = 2²⁰, k = 32`: 50.7 s, against 0.50 s for one more trial of
/// the then-cached key, so about 35 s of it is the key's one-time
/// calibration.
///
/// Method: release build, `dut serve --workers 1` on a 2-vCPU VM on a
/// shared host, no other build or benchmark running, one client
/// connection on the same VM sending one request at a time and timing
/// each reply's wall clock.
/// The VM's speed drifts between sessions: the same 32-trial request
/// has also taken 20.7 s (0.65 s per trial), so read these as about a
/// second per trial and under a minute per request.
///
/// The bound does not cover a balanced-rule cache miss's calibration:
/// preparing the key runs 800 uniform nodes of `q` draws each, whatever
/// the request's `trials`. One trial of `n = q = 2²⁰, k = 32, ε = 0.5`
/// on a cold cache took 43.1–51.3 s (four fresh servers, same method),
/// against 0.68–0.95 s for a second trial of the then-cached key, so
/// 42–50 s of a worker goes to calibration; a cold 32-trial request of
/// that key took 66.2 s. An exact null law for the node's collision
/// count (ROADMAP item 1) would let exact-size calibration (ROADMAP
/// item 5) replace that Monte Carlo and remove this cost.
pub const MAX_REQUEST_WORK: u64 = 1 << 31;

/// Upper bound on `λ₀ = C(q,2)/n` for the `and` and `threshold:T`
/// rules. Preparing either rule inverts a Poisson(λ₀) tail, each tail
/// evaluation costing O(λ₀) time, and `MAX_WORK` alone still admits
/// `{"n":2,"q":1048576}` (λ₀ ≈ 2.7·10¹¹, hours of one worker). At this
/// bound the threshold search costs about 3 ms at both `k = 1` and
/// `k = 4096` (the smallest node budget, `1/(4k)`): best of 5
/// release-build calls on a 2-vCPU VM. It still admits every `q` up
/// to ≈ 370k at `n = MAX_N` and ≈ 11.6k at `n = 1024`.
pub const MAX_LAMBDA: u64 = 1 << 16;

/// Longest request line the server will buffer, in bytes. A client
/// that streams bytes without a newline used to grow the server's
/// line buffer without limit; past this cap the connection gets
/// [`render_line_too_long`] and is closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The input families a request can name. A closed enum (rather than
/// an arbitrary distribution) keeps cache keys small and totally
/// ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(
    clippy::disallowed_methods,
    reason = "the derived partial_cmp compares unit variants, never a float"
)]
pub enum Family {
    /// The uniform distribution on `[n]`.
    Uniform,
    /// `families::two_level` at the request's `ε`.
    TwoLevel,
    /// `families::alternating` at the request's `ε`.
    Alternating,
    /// `families::zipf` with exponent 1.
    Zipf,
}

impl Family {
    /// All families, for iteration in tests and docs.
    pub const ALL: [Family; 4] = [
        Family::Uniform,
        Family::TwoLevel,
        Family::Alternating,
        Family::Zipf,
    ];

    /// Parses the wire name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Family> {
        match name {
            "uniform" => Some(Family::Uniform),
            "two-level" => Some(Family::TwoLevel),
            "alternating" => Some(Family::Alternating),
            "zipf" => Some(Family::Zipf),
            _ => None,
        }
    }

    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Uniform => "uniform",
            Family::TwoLevel => "two-level",
            Family::Alternating => "alternating",
            Family::Zipf => "zipf",
        }
    }

    /// Builds the named distribution for a domain of size `n` at
    /// proximity `eps`.
    ///
    /// # Errors
    ///
    /// Propagates the family constructor's validation error (e.g. a
    /// domain too small for the requested `ε`).
    pub fn build(self, n: usize, eps: f64) -> Result<DenseDistribution, String> {
        match self {
            Family::Uniform => Ok(families::uniform(n)),
            Family::TwoLevel => families::two_level(n, eps).map_err(|e| e.to_string()),
            Family::Alternating => families::alternating(n, eps).map_err(|e| e.to_string()),
            Family::Zipf => families::zipf(n, 1.0).map_err(|e| e.to_string()),
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated test request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Domain size `n`.
    pub n: usize,
    /// Number of players `k`.
    pub k: usize,
    /// Samples per player `q`.
    pub q: usize,
    /// Proximity parameter `ε ∈ (0, 1]`.
    pub eps: f64,
    /// Decision rule.
    pub rule: Rule,
    /// Input family to sample from.
    pub family: Family,
    /// Master seed; trial `i` runs on `derive_seed(seed, i)`.
    pub seed: u64,
    /// Number of protocol executions (default 1).
    pub trials: u64,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a test and reply with the verdict.
    Run(Request),
    /// Drain in-flight work and stop the server.
    Shutdown,
    /// Reply with cumulative + windowed metrics and SLO status.
    Stats,
    /// Reply with the flight recorder's retained events.
    Flight,
}

/// Longest tenant name accepted on the wire.
pub const MAX_TENANT_BYTES: usize = 64;

/// Request envelope fields that ride alongside a [`Command`] but are
/// not part of the test configuration (and therefore never enter the
/// cache key): today just the tenant identity for admission control.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestMeta {
    /// The tenant this request bills against (`"tenant"` on the
    /// wire). Absent requests bill against the default tenant.
    pub tenant: Option<String>,
}

fn field_usize(doc: &Value<'_>, key: &str) -> Result<usize, String> {
    let raw = doc
        .get_u64(key)
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))?;
    usize::try_from(raw).map_err(|_| format!("`{key}` out of range"))
}

/// Parses one request line, discarding the envelope metadata; see
/// [`parse_command_meta`] for the full form the server uses.
///
/// # Errors
///
/// Returns a message naming the first malformed or missing field;
/// the server sends it back verbatim as `{"error":...}`.
pub fn parse_command(line: &str) -> Result<Command, String> {
    parse_command_meta(line).map(|(cmd, _)| cmd)
}

/// Parses one request line together with its envelope metadata
/// (tenant identity). This is the server's parser; [`parse_command`]
/// is the metadata-free convenience wrapper.
///
/// # Errors
///
/// Returns a message naming the first malformed or missing field;
/// the server sends it back verbatim as `{"error":...}`.
pub fn parse_command_meta(line: &str) -> Result<(Command, RequestMeta), String> {
    command_from_json(&json::parse(line)?)
}

/// Reads a command and its envelope metadata from a parsed request
/// object; [`parse_command_meta`] is this after [`json::parse`].
///
/// # Errors
///
/// Returns a message naming the first malformed or missing field.
pub fn command_from_json(doc: &Value<'_>) -> Result<(Command, RequestMeta), String> {
    let mut meta = RequestMeta::default();
    if let Some(tenant) = doc.get("tenant") {
        let name = tenant
            .as_str()
            .ok_or("`tenant` must be a string")?
            .to_owned();
        if name.is_empty() || name.len() > MAX_TENANT_BYTES {
            return Err(format!(
                "`tenant` must be 1..={MAX_TENANT_BYTES} bytes, got {}",
                name.len()
            ));
        }
        meta.tenant = Some(name);
    }
    if let Some(cmd) = doc.get_str("cmd") {
        return match cmd {
            "shutdown" => Ok((Command::Shutdown, meta)),
            "stats" => Ok((Command::Stats, meta)),
            "flight" => Ok((Command::Flight, meta)),
            other => Err(format!("unknown cmd `{other}` (shutdown | stats | flight)")),
        };
    }
    let n = field_usize(doc, "n")?;
    let k = field_usize(doc, "k")?;
    let q = field_usize(doc, "q")?;
    if n > MAX_N {
        return Err(format!("`n` exceeds the served maximum {MAX_N}"));
    }
    if k > MAX_K {
        return Err(format!("`k` exceeds the served maximum {MAX_K}"));
    }
    if q > MAX_Q {
        return Err(format!("`q` exceeds the served maximum {MAX_Q}"));
    }
    let work = (k as u64).saturating_mul((n as u64).saturating_add(q as u64));
    if work > MAX_WORK {
        return Err(format!(
            "configuration too large: k*(n+q) = {work} exceeds {MAX_WORK}"
        ));
    }
    let eps = doc.get_f64("eps").ok_or("`eps` must be a number")?;
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(format!("`eps` must be in (0, 1], got {eps}"));
    }
    if q == 0 {
        return Err("`q` must be at least 1".into());
    }
    let seed = doc.get_u64("seed").unwrap_or(0);
    let trials = doc.get_u64("trials").unwrap_or(1);
    if trials == 0 || trials > MAX_TRIALS {
        return Err(format!("`trials` must be in 1..={MAX_TRIALS}"));
    }
    let request_work = trials.saturating_mul(work);
    if request_work > MAX_REQUEST_WORK {
        return Err(format!(
            "request too large: trials*k*(n+q) = {request_work} exceeds {MAX_REQUEST_WORK}"
        ));
    }
    let rule_spec = doc.get_str("rule").unwrap_or("balanced");
    let rule = parse_rule(rule_spec, k)?;
    if matches!(rule, Rule::And | Rule::TThreshold { .. }) {
        // λ₀ > MAX_LAMBDA exactly when C(q,2) > MAX_LAMBDA·n (q ≥ 1 here).
        let pairs = (q as u64) * (q as u64 - 1) / 2;
        if pairs > MAX_LAMBDA.saturating_mul(n as u64) {
            return Err(format!(
                "configuration too large: C(q,2)/n = {pairs}/{n} exceeds {MAX_LAMBDA} \
                 for the `{rule_spec}` rule"
            ));
        }
    }
    let family_spec = doc.get_str("samples").unwrap_or("uniform");
    let family = Family::parse(family_spec).ok_or_else(|| {
        format!("unknown samples family `{family_spec}` (uniform | two-level | alternating | zipf)")
    })?;
    Ok((
        Command::Run(Request {
            n,
            k,
            q,
            eps,
            rule,
            family,
            seed,
            trials,
        }),
        meta,
    ))
}

/// Parses a rule spec: `and | threshold:<T> | balanced | centralized`.
///
/// # Errors
///
/// Returns a message for unknown names or a threshold outside `1..=k`.
pub fn parse_rule(spec: &str, k: usize) -> Result<Rule, String> {
    match spec {
        "and" => Ok(Rule::And),
        "balanced" => Ok(Rule::Balanced),
        "centralized" => Ok(Rule::Centralized),
        other => {
            if let Some(t) = other.strip_prefix("threshold:") {
                let t: usize = t
                    .parse()
                    .map_err(|_| format!("threshold rule needs an integer, got `{t}`"))?;
                if t == 0 || t > k {
                    return Err(format!("threshold {t} outside 1..={k}"));
                }
                Ok(Rule::TThreshold { t })
            } else {
                Err(format!(
                    "unknown rule `{other}` (and | threshold:<T> | balanced | centralized)"
                ))
            }
        }
    }
}

/// Renders a request as its wire line (no trailing newline). Used by
/// the load generator and tests; the server only parses.
#[must_use]
pub fn render_request(req: &Request) -> String {
    json::to_string(&request_json(req))
}

/// A request as its wire object, members in wire order.
#[must_use]
pub fn request_json(req: &Request) -> Json {
    Json::obj([
        ("n", req.n.into()),
        ("k", req.k.into()),
        ("q", req.q.into()),
        ("eps", req.eps.into()),
        ("rule", rule_wire_name(req.rule).into()),
        ("samples", req.family.name().into()),
        ("seed", req.seed.into()),
        ("trials", req.trials.into()),
    ])
}

/// The wire spelling of a rule (`Display` for `TThreshold` prints
/// `threshold(T)`, the wire wants `threshold:T`).
#[must_use]
pub fn rule_wire_name(rule: Rule) -> String {
    match rule {
        Rule::TThreshold { t } => format!("threshold:{t}"),
        other => other.to_string(),
    }
}

/// A successful test reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reply {
    /// Verdict of trial 0 (the canonical single-run answer).
    pub verdict: Verdict,
    /// Fraction of trials that accepted.
    pub p_hat: f64,
    /// Wilson lower bound on the acceptance probability (z = 1.96).
    pub wilson_lo: f64,
    /// Wilson upper bound on the acceptance probability (z = 1.96).
    pub wilson_hi: f64,
    /// Whether a cached prepared tester served this request.
    pub cache_hit: bool,
    /// Service time in microseconds (cache resolution + trials).
    pub micros: u64,
    /// Server-assigned request id, unique per process lifetime; the
    /// correlation handle between a reply and its trace events
    /// (0 for offline/legacy replies, which have no server).
    pub rid: u64,
}

impl Reply {
    /// Whether `other` carries the same answer: the same verdict and
    /// bit-identical `p_hat`, `wilson_lo` and `wilson_hi`. Cache
    /// status, service time and request id are not part of the answer.
    /// This is the served-equals-offline contract's one comparison.
    #[must_use]
    pub fn same_answer(&self, other: &Reply) -> bool {
        self.verdict == other.verdict
            && self.p_hat.to_bits() == other.p_hat.to_bits()
            && self.wilson_lo.to_bits() == other.wilson_lo.to_bits()
            && self.wilson_hi.to_bits() == other.wilson_hi.to_bits()
    }

    /// Renders the reply as its wire line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        json::to_string(&Json::obj([
            ("verdict", self.verdict.as_str().into()),
            ("p_hat", self.p_hat.into()),
            ("wilson_lo", self.wilson_lo.into()),
            ("wilson_hi", self.wilson_hi.into()),
            ("cache", if self.cache_hit { "hit" } else { "miss" }.into()),
            ("micros", self.micros.into()),
            ("rid", self.rid.into()),
        ]))
    }
}

/// Any line a client can receive.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyLine {
    /// A completed test.
    Reply(Reply),
    /// The server shed this request (at the global queue bound or by
    /// its tenant's quota); the connection stays parked for the next.
    Overloaded,
    /// The request was rejected with a message.
    Error(String),
    /// Acknowledgement of a shutdown command.
    ShutdownAck,
}

impl ReplyLine {
    /// Parses one reply line.
    ///
    /// # Errors
    ///
    /// Returns a message if the line is not one of the reply shapes.
    pub fn parse(line: &str) -> Result<ReplyLine, String> {
        let doc = json::parse(line)?;
        if let Some(message) = doc.get_str("error") {
            if doc.get_bool("shed") == Some(true) {
                return Ok(ReplyLine::Overloaded);
            }
            return Ok(ReplyLine::Error(message.to_owned()));
        }
        if doc.get_str("ok") == Some("shutdown") {
            return Ok(ReplyLine::ShutdownAck);
        }
        let verdict = match doc.get_str("verdict") {
            Some("accept") => Verdict::Accept,
            Some("reject") => Verdict::Reject,
            other => return Err(format!("bad verdict field: {other:?}")),
        };
        Ok(ReplyLine::Reply(Reply {
            verdict,
            p_hat: doc.need("p_hat", Value::as_f64)?,
            wilson_lo: doc.need("wilson_lo", Value::as_f64)?,
            wilson_hi: doc.need("wilson_hi", Value::as_f64)?,
            cache_hit: doc.get_str("cache") == Some("hit"),
            micros: doc.get_u64("micros").unwrap_or(0),
            rid: doc.get_u64("rid").unwrap_or(0),
        }))
    }
}

/// The line sent for a request shed at the global queue bound.
#[must_use]
pub fn render_overloaded() -> String {
    json::to_string(&overloaded())
}

fn overloaded() -> Json {
    Json::obj([("error", "overloaded".into()), ("shed", true.into())])
}

/// The line sent for a request shed by its tenant's admission quota.
/// The extra fields keep it parsing as [`ReplyLine::Overloaded`]
/// while letting clients distinguish quota sheds from global ones.
#[must_use]
pub fn render_overloaded_tenant(tenant: &str) -> String {
    let mut line = overloaded();
    line.push("scope", "tenant");
    line.push("tenant", tenant.to_owned());
    json::to_string(&line)
}

/// Renders a request with a tenant envelope field; used by the load
/// generator's tenant lanes and the trace replayer.
#[must_use]
pub fn render_request_tenant(req: &Request, tenant: &str) -> String {
    let mut line = request_json(req);
    line.push("tenant", tenant.to_owned());
    json::to_string(&line)
}

/// The line sent for a malformed or invalid request.
#[must_use]
pub fn render_error(message: &str) -> String {
    json::to_string(&Json::obj([("error", message.to_owned().into())]))
}

/// The acknowledgement for a shutdown command.
#[must_use]
pub fn render_shutdown_ack() -> String {
    json::to_string(&Json::obj([("ok", "shutdown".into())]))
}

/// The line sent when a request line exceeds [`MAX_LINE_BYTES`]; the
/// connection is closed right after.
#[must_use]
pub fn render_line_too_long() -> String {
    render_error("line_too_long")
}

/// The line sent when a connection exhausts its error budget; the
/// connection is closed right after.
#[must_use]
pub fn render_error_budget_exhausted() -> String {
    render_error("error_budget_exhausted")
}

/// The line sent when a connection is reaped for failing to complete
/// a request line within the idle timeout.
#[must_use]
pub fn render_idle_timeout() -> String {
    render_error("idle_timeout")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            n: 256,
            k: 8,
            q: 12,
            eps: 0.5,
            rule: Rule::TThreshold { t: 2 },
            family: Family::TwoLevel,
            seed: 42,
            trials: 5,
        }
    }

    #[test]
    fn same_answer_is_verdict_plus_bit_exact_estimates() {
        let reply = Reply {
            verdict: Verdict::Accept,
            p_hat: 2.0 / 3.0,
            wilson_lo: 0.25,
            wilson_hi: 0.9,
            cache_hit: false,
            micros: 10,
            rid: 1,
        };
        let bookkeeping = Reply {
            cache_hit: true,
            micros: 999,
            rid: 77,
            ..reply
        };
        assert!(reply.same_answer(&bookkeeping));
        let flipped = Reply {
            verdict: Verdict::Reject,
            ..reply
        };
        assert!(!reply.same_answer(&flipped));
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
        for nudged in [
            Reply {
                p_hat: ulp(reply.p_hat),
                ..reply
            },
            Reply {
                wilson_lo: ulp(reply.wilson_lo),
                ..reply
            },
            Reply {
                wilson_hi: ulp(reply.wilson_hi),
                ..reply
            },
        ] {
            assert!(
                !reply.same_answer(&nudged),
                "1-ulp change missed: {nudged:?}"
            );
        }
    }

    #[test]
    fn shutdown_and_service_lines_parse() {
        assert_eq!(
            parse_command("{\"cmd\":\"shutdown\"}"),
            Ok(Command::Shutdown)
        );
        assert_eq!(parse_command("{\"cmd\":\"stats\"}"), Ok(Command::Stats));
        assert_eq!(parse_command("{\"cmd\":\"flight\"}"), Ok(Command::Flight));
        assert_eq!(
            ReplyLine::parse(&render_overloaded()),
            Ok(ReplyLine::Overloaded)
        );
        assert_eq!(
            ReplyLine::parse(&render_error("nope")),
            Ok(ReplyLine::Error("nope".into()))
        );
        assert_eq!(
            ReplyLine::parse(&render_shutdown_ack()),
            Ok(ReplyLine::ShutdownAck)
        );
    }

    #[test]
    fn rejects_bad_fields() {
        assert!(parse_command("{\"n\":64}").is_err());
        assert!(parse_command("not json").is_err());
        let bad_eps = "{\"n\":64,\"k\":4,\"q\":8,\"eps\":1.5,\"seed\":1}";
        assert!(parse_command(bad_eps).unwrap_err().contains("eps"));
        let bad_rule = "{\"n\":64,\"k\":4,\"q\":8,\"eps\":0.5,\"rule\":\"vote\"}";
        assert!(parse_command(bad_rule).unwrap_err().contains("rule"));
        let bad_thresh = "{\"n\":64,\"k\":4,\"q\":8,\"eps\":0.5,\"rule\":\"threshold:9\"}";
        assert!(parse_command(bad_thresh).unwrap_err().contains("threshold"));
        let zero_trials = "{\"n\":64,\"k\":4,\"q\":8,\"eps\":0.5,\"trials\":0}";
        assert!(parse_command(zero_trials).is_err());
        assert!(parse_command("{\"cmd\":\"restart\"}").is_err());
        // λ₀ = C(q,2)/n: at n = 2, q = 512 is under MAX_LAMBDA and
        // q = 513 over it. The balanced rule inverts no Poisson tail and
        // is not bound by it.
        let at = |q: u64, rule: &str| {
            format!("{{\"n\":2,\"k\":1,\"q\":{q},\"eps\":0.5,\"rule\":\"{rule}\"}}")
        };
        assert!(parse_command(&at(512, "and")).is_ok());
        assert!(parse_command(&at(513, "and"))
            .unwrap_err()
            .contains("too large"));
        assert!(parse_command(&at(513, "threshold:1")).is_err());
        assert!(parse_command(&at(513, "balanced")).is_ok());
    }

    #[test]
    fn request_work_is_bounded_by_trials_times_trial_work() {
        // k·(n+q) = 2¹⁶, so 2¹⁵ trials sit exactly at MAX_REQUEST_WORK.
        let with_trials = |trials: u64| {
            format!("{{\"n\":32768,\"k\":1,\"q\":32768,\"eps\":0.5,\"trials\":{trials}}}")
        };
        assert_eq!(MAX_REQUEST_WORK, (1 << 16) * (1 << 15));
        assert!(parse_command(&with_trials(1 << 15)).is_ok());
        let err = parse_command(&with_trials((1 << 15) + 1)).unwrap_err();
        assert!(
            err.contains(&format!(
                "trials*k*(n+q) = {}",
                MAX_REQUEST_WORK + (1 << 16)
            )),
            "{err}"
        );
    }

    #[test]
    fn defaults_fill_in() {
        let cmd = parse_command("{\"n\":64,\"k\":4,\"q\":8,\"eps\":0.5}").unwrap();
        let Command::Run(req) = cmd else {
            panic!("not a run");
        };
        assert_eq!(req.family, Family::Uniform);
        assert_eq!(req.trials, 1);
        assert_eq!(req.seed, 0);
        assert_eq!(req.rule, Rule::Balanced);
    }

    #[test]
    fn tenant_meta_round_trips_and_validates() {
        let req = sample_request();
        let line = render_request_tenant(&req, "team-a");
        let (cmd, meta) = parse_command_meta(&line).unwrap();
        assert_eq!(cmd, Command::Run(req));
        assert_eq!(meta.tenant.as_deref(), Some("team-a"));
        // The tenant-free parser accepts the same line and drops the
        // envelope.
        assert_eq!(parse_command(&line), Ok(Command::Run(req)));
        // No tenant -> default meta.
        let (_, bare) = parse_command_meta(&render_request(&req)).unwrap();
        assert_eq!(bare, RequestMeta::default());
        // Admin commands carry the envelope too.
        let (cmd, meta) = parse_command_meta("{\"cmd\":\"stats\",\"tenant\":\"ops\"}").unwrap();
        assert_eq!(cmd, Command::Stats);
        assert_eq!(meta.tenant.as_deref(), Some("ops"));
        // Bad tenants are rejected before the config is looked at.
        assert!(parse_command_meta("{\"tenant\":17,\"n\":64}").is_err());
        assert!(parse_command_meta("{\"tenant\":\"\",\"n\":64}").is_err());
        let long = format!("{{\"tenant\":\"{}\",\"n\":64}}", "x".repeat(65));
        assert!(parse_command_meta(&long).is_err());
    }

    #[test]
    fn wire_lines_keep_their_bytes() {
        let large = Request {
            n: MAX_N,
            k: 1,
            q: 3,
            eps: 1.0,
            rule: Rule::Balanced,
            family: Family::Zipf,
            seed: 13_827_855_532_095_422_826,
            trials: MAX_TRIALS,
        };
        let lines = [
            (
                render_request(&sample_request()),
                r#"{"n":256,"k":8,"q":12,"eps":0.5,"rule":"threshold:2","samples":"two-level","seed":42,"trials":5}"#,
            ),
            (
                render_request(&large),
                r#"{"n":1048576,"k":1,"q":3,"eps":1,"rule":"balanced","samples":"zipf","seed":13827855532095422826,"trials":100000}"#,
            ),
            (
                render_request_tenant(&sample_request(), "team-a"),
                r#"{"n":256,"k":8,"q":12,"eps":0.5,"rule":"threshold:2","samples":"two-level","seed":42,"trials":5,"tenant":"team-a"}"#,
            ),
            (
                render_request_tenant(&large, "q\"u\\o\n\u{1}é☃"),
                r#"{"n":1048576,"k":1,"q":3,"eps":1,"rule":"balanced","samples":"zipf","seed":13827855532095422826,"trials":100000,"tenant":"q\"u\\o\n\u0001é☃"}"#,
            ),
            (
                Reply {
                    verdict: Verdict::Accept,
                    p_hat: 2.0 / 3.0,
                    wilson_lo: 0.123_456_789_012_345_6,
                    wilson_hi: 0.999_999_999_999_999_9,
                    cache_hit: true,
                    micros: 777,
                    rid: 31,
                }
                .render(),
                r#"{"verdict":"accept","p_hat":0.6666666666666666,"wilson_lo":0.1234567890123456,"wilson_hi":0.9999999999999999,"cache":"hit","micros":777,"rid":31}"#,
            ),
            (
                Reply {
                    verdict: Verdict::Reject,
                    p_hat: 0.0,
                    wilson_lo: 1e-7,
                    wilson_hi: 1.0,
                    cache_hit: false,
                    micros: 0,
                    rid: u64::MAX,
                }
                .render(),
                r#"{"verdict":"reject","p_hat":0,"wilson_lo":0.0000001,"wilson_hi":1,"cache":"miss","micros":0,"rid":18446744073709551615}"#,
            ),
            (
                render_overloaded(),
                r#"{"error":"overloaded","shed":true}"#,
            ),
            (
                render_overloaded_tenant("team-b"),
                r#"{"error":"overloaded","shed":true,"scope":"tenant","tenant":"team-b"}"#,
            ),
            (
                render_overloaded_tenant("t\"\u{7f}\u{1f}"),
                "{\"error\":\"overloaded\",\"shed\":true,\"scope\":\"tenant\",\"tenant\":\"t\\\"\u{7f}\\u001f\"}",
            ),
            (
                render_error("nope \"quoted\"\n\ttab\u{0}"),
                r#"{"error":"nope \"quoted\"\n\ttab\u0000"}"#,
            ),
            (render_shutdown_ack(), r#"{"ok":"shutdown"}"#),
            (render_line_too_long(), r#"{"error":"line_too_long"}"#),
            (
                render_error_budget_exhausted(),
                r#"{"error":"error_budget_exhausted"}"#,
            ),
            (render_idle_timeout(), r#"{"error":"idle_timeout"}"#),
        ];
        for (line, expected) in lines {
            assert_eq!(line, expected);
        }
    }

    #[test]
    fn tenant_shed_line_still_parses_as_overloaded() {
        let line = render_overloaded_tenant("team-b");
        assert_eq!(ReplyLine::parse(&line), Ok(ReplyLine::Overloaded));
        assert!(line.contains("\"scope\":\"tenant\""));
        assert!(line.contains("\"tenant\":\"team-b\""));
    }

    #[test]
    fn family_names_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.name()), Some(family));
            assert!(family.build(64, 0.5).is_ok(), "{family}");
        }
        assert_eq!(Family::parse("hard"), None);
    }
}
