//! One round-trip property for every JSON artifact the workspace
//! writes.
//!
//! All artifacts are built as `dut_obs::json::Json` values and
//! rendered by `json::write`. Over seeded random trees, writing is
//! stable under a parse round trip, and once a tree is in written form
//! (integral numbers as `Uint`, non-finite numbers as `Null`) parsing
//! gives back the same value. Each typed artifact then parses back to
//! the value it was rendered from.

use dut_analyze::baseline;
use dut_analyze::findings::Finding;
use dut_core::{Rule, Verdict};
use dut_fuzz::corpus::{self, Entry, Expect};
use dut_obs::json::{self, Json};
use dut_serve::protocol::{self, Command, Family, Reply, ReplyLine, Request};
use dut_serve::stats::{Stats, TenantStat};
use dut_serve::trace::{Trace, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 300;

/// Characters that stress the escaper: quotes, backslashes, every
/// named escape, other control characters, DEL, and 2-, 3- and 4-byte
/// UTF-8.
const CHARS: &str = "aZ0 \"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é☃\u{1d11e}";

fn text(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.random_range(0..=max_len);
    let chars: Vec<char> = CHARS.chars().collect();
    (0..len)
        .map(|_| chars[rng.random_range(0..chars.len())])
        .collect()
}

fn number(rng: &mut StdRng) -> Json {
    match rng.random_range(0..8) {
        0 => Json::Uint(rng.random()),
        1 => Json::Uint(rng.random_range(0..1000)),
        // Integral floats write as integer literals.
        2 => Json::Num(f64::from(rng.random_range(-1000..1000_i32))),
        3 => Json::Num(rng.random::<f64>() * 1e6 - 5e5),
        4 => Json::Num(f64::from_bits(rng.random())),
        5 => Json::Num(if rng.random_bool(0.5) { 1e300 } else { -1e-300 }),
        6 => Json::Num(
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][rng.random_range(0..4_usize)],
        ),
        _ => Json::Num(rng.random::<f64>()),
    }
}

fn tree(rng: &mut StdRng, depth: u32) -> Json {
    let leaf = depth == 0 || rng.random_bool(0.4);
    match rng.random_range(0..if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.random()),
        2 => number(rng),
        3 => Json::from(text(rng, 6)),
        4 => Json::Arr(
            (0..rng.random_range(0..4))
                .map(|_| tree(rng, depth - 1))
                .collect(),
        ),
        _ => {
            // Keys from a small pool, so objects repeat them.
            let mut obj = Json::obj([]);
            for _ in 0..rng.random_range(0..5) {
                let key = ["a", "b", "é\"", ""][rng.random_range(0..4_usize)];
                obj.push(key, tree(rng, depth - 1));
            }
            obj
        }
    }
}

#[test]
fn writing_is_stable_under_parse_and_written_trees_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x150);
    for _ in 0..CASES * 4 {
        let value = tree(&mut rng, 4);
        let written = json::to_string(&value);
        let parsed = json::parse(&written).unwrap_or_else(|e| panic!("{written}: {e}"));
        assert_eq!(json::to_string(&parsed), written);
        assert_eq!(json::parse(&json::to_string(&parsed)).unwrap(), parsed);
    }
}

fn request(rng: &mut StdRng) -> Request {
    let k = rng.random_range(1..=64_usize);
    let n = rng.random_range(2..=4096);
    let q = rng.random_range(1..=64);
    // Every admitted trial count: the request's total work is bounded.
    let max_trials = protocol::MAX_TRIALS.min(protocol::MAX_REQUEST_WORK / (k * (n + q)) as u64);
    Request {
        n,
        k,
        q,
        eps: 1.0 - rng.random::<f64>(),
        rule: match rng.random_range(0..4) {
            0 => Rule::And,
            1 => Rule::Balanced,
            2 => Rule::Centralized,
            _ => Rule::TThreshold {
                t: rng.random_range(1..=k),
            },
        },
        family: Family::ALL[rng.random_range(0..Family::ALL.len())],
        seed: rng.random(),
        trials: rng.random_range(1..=max_trials),
    }
}

#[test]
fn requests_and_replies_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x151);
    for _ in 0..CASES {
        let req = request(&mut rng);
        assert_eq!(
            protocol::parse_command(&protocol::render_request(&req)),
            Ok(Command::Run(req))
        );
        let tenant = format!("t{}", text(&mut rng, 8));
        let (cmd, meta) =
            protocol::parse_command_meta(&protocol::render_request_tenant(&req, &tenant)).unwrap();
        assert_eq!((cmd, meta.tenant), (Command::Run(req), Some(tenant)));

        let reply = Reply {
            verdict: if rng.random_bool(0.5) {
                Verdict::Accept
            } else {
                Verdict::Reject
            },
            p_hat: rng.random(),
            wilson_lo: rng.random::<f64>() / 3.0,
            wilson_hi: 1.0 - rng.random::<f64>() / 7.0,
            cache_hit: rng.random(),
            micros: rng.random(),
            rid: rng.random(),
        };
        let ReplyLine::Reply(back) = ReplyLine::parse(&reply.render()).unwrap() else {
            panic!("not a reply");
        };
        assert!(back.same_answer(&reply), "{back:?} vs {reply:?}");
        assert_eq!(back, reply);
    }
}

#[test]
fn stats_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x152);
    for _ in 0..CASES {
        let mut u = || rng.random::<u64>() >> rng.random_range(0..64);
        let stats = Stats {
            uptime_micros: u(),
            queue_depth: u(),
            connections: u(),
            cached_testers: u(),
            requests: u(),
            shed: u(),
            coalesced: u(),
            tenant_shed: u(),
            cache_hits: u(),
            cache_misses: u(),
            inline: u(),
            malformed: u(),
            reaped: u(),
            error_budget_closed: u(),
            backend_per_draw: u(),
            backend_histogram: u(),
            shard_passes: u(),
            shard_parks: u(),
            window_micros: u(),
            p99_target_micros: u(),
            ..Stats::default()
        };
        let mut f = || match rng.random_range(0..3) {
            0 => 0.0,
            1 => f64::from(rng.random_range(0..100_000_u32)),
            _ => rng.random::<f64>() * 1e4,
        };
        let stats = Stats {
            req_per_sec: f(),
            shed_per_sec: f(),
            hit_ratio: f(),
            p50_micros: f(),
            p95_micros: f(),
            p99_micros: f(),
            queue_wait_p99: f(),
            calibrate_p99: f(),
            compute_p99: f(),
            latency_burn_short: f(),
            latency_burn_long: f(),
            shed_burn_short: f(),
            shed_burn_long: f(),
            max_shed_rate: f(),
            slo_healthy: rng.random(),
            latency_breach: rng.random(),
            shed_breach: rng.random(),
            tenants: (0..rng.random_range(0..4))
                .map(|_| TenantStat {
                    name: text(&mut rng, 8),
                    requests: rng.random(),
                    shed: rng.random(),
                })
                .collect(),
            ..stats
        };
        assert_eq!(Stats::parse(&stats.render()), Ok(stats));
    }
}

#[test]
fn traces_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x153);
    for _ in 0..CASES / 10 {
        let lanes = rng.random_range(1..=8_u64);
        let mut at = 0;
        let events = (0..rng.random_range(0..40))
            .map(|index| {
                at += rng.random_range(0..1000_u64);
                TraceEvent {
                    at_micros: at,
                    lane: rng.random_range(0..lanes),
                    index,
                    seed: rng.random(),
                    tenant: rng.random_bool(0.5).then(|| text(&mut rng, 8)),
                }
            })
            .collect();
        let trace = Trace {
            span_micros: rng.random(),
            lanes,
            events,
        };
        assert_eq!(Trace::parse(&trace.render()), Ok(trace));
    }
}

#[test]
fn corpus_entries_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x154);
    let expects = [
        Expect::Reply,
        Expect::Error,
        Expect::ReplyOrError,
        Expect::LineTooLong,
    ];
    for _ in 0..CASES {
        let name = text(&mut rng, 10);
        let entry = if rng.random_bool(0.3) {
            Entry::differential(&name, &request(&mut rng))
        } else {
            // Random bytes are usually not UTF-8 and travel as hex.
            let mut bytes = text(&mut rng, 12).into_bytes();
            if rng.random_bool(0.5) {
                bytes.push(rng.random());
            }
            let mut entry =
                Entry::protocol(&name, &bytes, expects[rng.random_range(0..expects.len())]);
            entry.pad_to = rng.random_bool(0.3).then(|| rng.random_range(0..64));
            assert_eq!(entry.frame_bytes().unwrap()[..bytes.len()], bytes);
            entry
        };
        let text = entry.render();
        assert_eq!(Entry::parse(&text).as_ref(), Ok(&entry));
        corpus::validate(&text).unwrap();
    }
}

#[test]
fn baselines_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x155);
    let rules = ["unwrap", "float-eq", "lock-order"];
    for _ in 0..CASES / 3 {
        let findings: Vec<Finding> = (0..rng.random_range(0..5))
            .map(|_| {
                let mut f = Finding::new(
                    &text(&mut rng, 12),
                    rng.random(),
                    rules[rng.random_range(0..rules.len())],
                    text(&mut rng, 20),
                    "hint",
                );
                f.id = format!("{:016x}", rng.random::<u64>());
                f
            })
            .collect();
        let back = baseline::parse(&baseline::render(&findings)).unwrap();
        let fields = |e: &baseline::BaselineEntry| {
            (
                e.id.clone(),
                e.rule.clone(),
                e.path.clone(),
                e.line,
                e.message.clone(),
            )
        };
        let expected: Vec<_> = findings
            .iter()
            .map(|f| {
                (
                    f.id.clone(),
                    f.rule.to_owned(),
                    f.path.clone(),
                    f.line,
                    f.message.clone(),
                )
            })
            .collect();
        assert_eq!(
            back.entries.iter().map(fields).collect::<Vec<_>>(),
            expected
        );
    }
}
