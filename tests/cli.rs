//! Smoke tests for the `dut` command-line binary.

#![allow(clippy::float_cmp, clippy::cast_possible_truncation)] // test code asserts exact values
use std::process::Command;

fn dut() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dut"))
}

#[test]
fn predict_prints_all_bounds() {
    let out = dut()
        .args(["predict", "--n", "4096", "--k", "64", "--eps", "0.5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("centralized"));
    assert!(text.contains("any rule"));
    assert!(text.contains("AND rule"));
    assert!(text.contains("learning floor"));
}

#[test]
fn advise_recommends_a_rule() {
    let out = dut()
        .args([
            "advise",
            "--n",
            "1024",
            "--k",
            "32",
            "--eps",
            "0.5",
            "--locality",
            "any",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("recommended rule: balanced"));
    assert!(text.contains("rationale"));
}

#[test]
fn test_command_reports_rates() {
    let out = dut()
        .args([
            "test",
            "--n",
            "256",
            "--k",
            "8",
            "--eps",
            "0.9",
            "--rule",
            "balanced",
            "--input",
            "two-level",
            "--trials",
            "40",
            "--seed",
            "7",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("acceptance on `two-level`"));
    assert!(text.contains("completeness"));
}

#[test]
fn hard_family_input_works() {
    let out = dut()
        .args([
            "test", "--n", "256", "--k", "8", "--eps", "0.8", "--input", "hard", "--trials", "20",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
}

#[test]
fn unknown_command_fails_with_usage_hint() {
    // `bench` timed the second sampling engine, which is gone.
    for command in ["frobnicate", "bench"] {
        let out = dut().args([command]).output().expect("binary runs");
        assert!(!out.status.success());
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            err.contains(&format!("unknown command `{command}`")),
            "{err}"
        );
        assert!(err.contains("dut help"));
    }
}

#[test]
fn bad_option_value_fails_cleanly() {
    let out = dut()
        .args(["predict", "--n", "not-a-number"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--n"));
}

#[test]
fn threshold_rule_spec_parses() {
    let out = dut()
        .args([
            "test",
            "--n",
            "256",
            "--k",
            "8",
            "--eps",
            "0.9",
            "--rule",
            "threshold:2",
            "--trials",
            "20",
            "--q",
            "80",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("rule=threshold(2)"));
    assert!(text.contains("q=80"));
}

#[test]
fn faults_renders_curves_and_tolerance() {
    let out = dut()
        .args([
            "faults",
            "--n",
            "256",
            "--k",
            "8",
            "--eps",
            "0.9",
            "--q",
            "60",
            "--trials",
            "10",
            "--t",
            "2",
            "--recovery",
            "repeat:2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("graceful degradation"));
    assert!(text.contains("byzantine tolerance"));
    assert!(text.contains("recovery=repeat(2)"));
    // And's predicted tolerance is always zero.
    assert!(text.contains("and           0"));
}

#[test]
fn faults_rejects_unknown_model() {
    let out = dut()
        .args(["faults", "--model", "martian"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("unknown model"));
}

#[test]
fn help_prints_usage() {
    let out = dut().args(["help"]).output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("USAGE"));
    assert!(text.contains("COMMANDS"));
}

/// Runs `dut` with `args` and returns (success, stderr).
fn run_dut(args: &[&str]) -> (bool, String) {
    let out = dut().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_flags_fail_naming_the_flag() {
    // Every case exits before binding a port or doing any work.
    let cases: &[(&[&str], &str)] = &[
        (&["top", "--interval"], "--interval"),
        (&["top", "--interval", "soon"], "--interval"),
        (&["serve", "--workers", "abc"], "--workers"),
        (&["serve", "--idle-timeout", "later"], "--idle-timeout"),
        (&["serve", "--tenant", "no-colons"], "--tenant"),
        (&["serve", "--bogus"], "--bogus"),
        (&["loadgen", "--rps"], "--rps"),
        (&["loadgen", "--conns", "many"], "--conns"),
        (&["loadgen", "--bogus"], "--bogus"),
        (&["top", "--bogus"], "--bogus"),
        (&["fuzz", "--iters", "abc"], "--iters"),
        (&["fuzz", "--bogus"], "--bogus"),
        (&["lint", "--format"], "--format"),
        (&["lint", "--format", "yaml"], "--format"),
        (&["lint", "--bogus"], "--bogus"),
        (&["report"], "dut report <trace.jsonl>"),
    ];
    for (args, flag) in cases {
        let (ok, err) = run_dut(args);
        assert!(!ok, "`dut {}` should fail", args.join(" "));
        assert!(
            err.contains(flag),
            "`dut {}` error should name {flag}: {err}",
            args.join(" ")
        );
    }
}

#[test]
fn lint_rules_lists_rules() {
    let out = dut()
        .args(["lint", "--rules"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("float-eq"), "{text}");
}

#[test]
fn unknown_flags_are_rejected_with_the_command_usage() {
    let cases: &[(&[&str], &str)] = &[
        (&["predict", "--n", "1024", "--bogus", "3"], "--bogus"),
        // A misspelt `--trials` must not silently run the default 200.
        (
            &["test", "--n", "64", "--k", "4", "--trails", "5"],
            "--trails",
        ),
        (&["advise", "--localty", "and"], "--localty"),
        (&["faults", "--modle", "ge"], "--modle"),
        (&["predict", "--n"], "--n"),
        (&["predict", "stray"], "stray"),
        // The chaos client mix lives under `dut fuzz --plane chaos`.
        (&["loadgen", "--chaos"], "--chaos"),
        // The serve bench artifact is retired; perfbench's serve-hot
        // is the serve performance record.
        (&["loadgen", "--bench-out", "x.json"], "--bench-out"),
        (&["loadgen", "--check", "x.json"], "--check"),
        // Requests share a prepared tester only through the
        // single-flight cache; there is no coalescing pass to size.
        (&["serve", "--coalesce", "16"], "--coalesce"),
        // `Auto` is a fixed function of (n, q): no startup probe
        // rescales the cost model.
        (&["serve", "--probe"], "--probe"),
        // Every protocol run draws through the alias kernel; there is
        // no second engine to pick.
        (&["test", "--backend", "both"], "--backend"),
    ];
    for (args, flag) in cases {
        let (ok, err) = run_dut(args);
        assert!(!ok, "`dut {}` should fail", args.join(" "));
        assert!(
            err.contains(flag),
            "`dut {}` error should name {flag}: {err}",
            args.join(" ")
        );
        // The command's section of `dut help` follows the error.
        let section = match args[0] {
            "loadgen" => "loadgen USAGE:",
            "serve" => "serve USAGE:",
            _ => "COMMON OPTIONS",
        };
        assert!(err.contains(section), "{err}");
    }
}

/// A `dut serve` child on an ephemeral port, its stdout pipe (kept
/// open until the server exits: it prints as it stops), and its
/// listening address.
struct Server {
    child: std::process::Child,
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Server {
    fn start(extra: &[&str]) -> Server {
        use std::io::BufRead;
        let mut child = dut()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("server starts");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("banner line");
        let addr = banner
            .split_whitespace()
            .nth(4)
            .expect("listening address")
            .to_owned();
        Server {
            child,
            stdout,
            addr,
        }
    }

    /// Client-initiated shutdown; the server must exit 0 on its own.
    fn stop(mut self) {
        let stopped = dut()
            .args(["loadgen", "--addr", &self.addr, "--shutdown-only"])
            .status()
            .expect("binary runs");
        assert!(stopped.success());
        std::io::Read::read_to_end(&mut self.stdout, &mut Vec::new()).expect("drain stdout");
        assert!(self.child.wait().expect("server exits").success());
    }
}

/// A separate `dut serve` process answers one request that resolves
/// per-draw, one that resolves histogram and one near the engine
/// crossover, and this process computes each offline reference. They
/// can only agree bit for bit if the engine choice and the
/// calibration seed depend on the request alone, not on either
/// process's state.
#[test]
fn served_replies_match_offline_across_processes() {
    use distributed_uniformity::Rule;
    use dut_serve::client::{check_served, Served};
    use dut_serve::protocol::{Family, Request};
    // Resolves per-draw: the balanced herd key of the serve telemetry
    // tests.
    let per_draw = Request {
        n: 1024,
        k: 64,
        q: 48,
        eps: 0.5,
        rule: Rule::Balanced,
        family: Family::Uniform,
        seed: 5,
        trials: 1,
    };
    // Resolves histogram.
    let histogram = Request {
        n: 64,
        k: 8,
        q: 8,
        seed: 7,
        ..per_draw
    };
    // Near the engine crossover, where a host-timed cost model used to
    // pick differently from one process to the next.
    let crossover = Request {
        n: 10_000,
        k: 1,
        q: 10_000,
        eps: 0.1,
        rule: Rule::Centralized,
        family: Family::TwoLevel,
        seed: 1,
        trials: 50,
    };
    let server = Server::start(&[]);
    let outcomes: Vec<_> = [per_draw, histogram, crossover]
        .iter()
        .map(|req| (req.n, check_served(&server.addr, req)))
        .collect();
    server.stop();
    for (n, outcome) in outcomes {
        assert_eq!(outcome, Ok(Served::Exact), "n={n}");
    }
}

#[test]
fn fuzz_chaos_plane_attacks_an_external_server() {
    let server = Server::start(&["--idle-timeout", "0.15"]);
    let addr = server.addr.clone();
    let out = dut()
        .args([
            "fuzz",
            "--plane",
            "chaos",
            "--addr",
            &addr,
            "--duration",
            "0.5",
        ])
        .output()
        .expect("binary runs");
    server.stop();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    // The mix hit the external server, not a fuzz-owned one.
    assert!(text.contains(&format!("attacking {addr}")), "{text}");
    assert!(text.contains("chaos: PASS"), "{text}");
}

#[test]
fn trace_replay_honours_stats_check_and_pipeline() {
    let dir = std::env::temp_dir().join(format!("dut_cli_trace_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    let trace = trace.to_str().expect("utf8 path");
    let written = dut()
        .args([
            "loadgen",
            "--rps",
            "400",
            "--duration",
            "0.5",
            "--conns",
            "2",
            "--trace-out",
            trace,
        ])
        .output()
        .expect("binary runs");
    assert!(written.status.success());
    let server = Server::start(&[]);
    let out = dut()
        .args([
            "loadgen",
            "--addr",
            &server.addr,
            "--trace",
            trace,
            "--stats-check",
            "--pipeline",
            "2",
        ])
        .output()
        .expect("binary runs");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("replaying"), "{text}");
    assert!(text.contains("stats-check: PASS"), "{text}");
}
