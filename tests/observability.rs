//! Integration tests for the dut-obs layer: tracing must be a pure
//! observer (bit-identical results instrumented or not), and a JSONL
//! trace must round-trip through the `dut report` analyzer.

#![allow(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    reason = "test code asserts exact values"
)]
#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]
use distributed_uniformity::obs;
use distributed_uniformity::probability::families;
use distributed_uniformity::stats::runner::run_measurements;
use distributed_uniformity::{Rule, UniformityTester};
use rand::SeedableRng;
use std::process::Command;
use std::sync::Arc;

/// One full protocol trial, the same shape the experiment binaries use.
fn protocol_trial(seed: u64) -> bool {
    let tester = UniformityTester::builder()
        .domain_size(64)
        .players(4)
        .epsilon(1.0)
        .rule(Rule::And)
        .build()
        .expect("valid config");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let prepared = tester.prepare(16, &mut rng);
    let uniform = families::uniform(64).alias_sampler();
    prepared.run(&uniform, &mut rng).is_accept()
}

/// [`protocol_trial`] as a measurement: 1.0 for accept, 0.0 for reject.
fn accepted(seed: u64) -> f64 {
    f64::from(u8::from(protocol_trial(seed)))
}

#[test]
fn instrumentation_does_not_perturb_determinism() {
    let trials = 64;
    let master_seed = 20_190_729;

    // Uninstrumented: the global recorder has no sinks.
    let baseline = run_measurements(trials, master_seed, accepted);

    // Instrumented: memory sink installed, verbose per-run events on.
    let recorder = obs::global();
    let sink = Arc::new(obs::MemorySink::new());
    recorder.install_sink(sink.clone());
    recorder.set_verbose(true);
    let instrumented = run_measurements(trials, master_seed, accepted);
    recorder.set_verbose(false);
    recorder.clear_sinks();

    // Tracing never touches the RNG stream, so every trial's outcome
    // is bit-identical, not merely statistically close.
    assert_eq!(baseline.len(), instrumented.len());
    for (i, (a, b)) in baseline.iter().zip(&instrumented).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "trial {i}");
    }

    // And the instrumented run did actually record events.
    let events = sink.take();
    assert!(
        events.iter().any(|e| e.name == "trial_batch"),
        "expected a trial_batch event, got {:?}",
        events.iter().map(|e| e.name).collect::<Vec<_>>()
    );
    assert!(events.iter().any(|e| e.name == "net_run"));
}

#[test]
fn metrics_registry_counts_protocol_activity() {
    // Exact per-protocol counts are pinned in `run_accounting.rs`; this
    // checks the counters through a registry snapshot.
    let registry = obs::metrics::global();
    let before = registry.snapshot();
    let outcomes = run_measurements(8, 7, accepted);
    let after = registry.snapshot();

    let delta = |name: &str| {
        let get = |s: &obs::metrics::Snapshot| {
            s.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        get(&after) - get(&before)
    };
    // Other tests in this binary run protocols concurrently, so the
    // deltas are lower bounds, not exact counts.
    assert!(
        delta("net_runs") >= 8,
        "net_runs delta {}",
        delta("net_runs")
    );
    // 4 players x 16 samples, one bit each, per AND run.
    assert!(delta("samples_drawn") >= 8 * 64);
    assert!(delta("bits_sent") >= 8 * 4);
    assert!(delta("verdict_accept") + delta("verdict_reject") >= 8);
    assert!(delta("trials_run") >= 8);
    assert_eq!(outcomes.len(), 8);
}

#[test]
fn jsonl_trace_round_trips_through_dut_report() {
    let dir = std::env::temp_dir().join("dut_obs_roundtrip");
    let path = dir.join("trace.jsonl");

    // A local recorder with a file sink (independent of the global one,
    // so parallel tests cannot interleave events into this trace).
    let recorder = obs::Recorder::new();
    recorder.install_sink(Arc::new(
        obs::JsonlSink::create(&path).expect("create trace file"),
    ));
    recorder.emit(
        obs::Event::new("manifest")
            .with("experiment", "roundtrip_test")
            .with("seed", 7u64)
            .with("trials", 8u64),
    );
    {
        let _span = recorder.span("test.phase").with("k", 4u64);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    recorder.emit(
        obs::Event::new("probe")
            .with("value", 16u64)
            .with("sufficient", true)
            .with("elapsed_us", 250u64),
    );
    recorder.emit_metrics_snapshot();
    recorder.flush();

    // The library-level aggregation parses it...
    let report = obs::Report::from_jsonl(&std::fs::read_to_string(&path).expect("trace readable"))
        .expect("trace parses");
    assert_eq!(report.manifest.get("experiment").unwrap(), "roundtrip_test");
    assert_eq!(report.spans.get("test.phase").unwrap().count, 1);
    assert_eq!(report.probes.len(), 1);
    assert_eq!(report.malformed_lines, 0);

    // ...and so does the `dut report` subcommand end to end.
    let out = Command::new(env!("CARGO_BIN_EXE_dut"))
        .arg("report")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("dut trace report"), "{text}");
    assert!(text.contains("test.phase"), "{text}");
    assert!(text.contains("samples drawn"), "{text}");
    assert!(text.contains("message bits"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dut_report_rejects_missing_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_dut"))
        .args(["report", "/nonexistent/trace.jsonl"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read trace"), "{err}");
}

#[test]
fn dut_test_writes_trace_when_env_set() {
    let dir = std::env::temp_dir().join("dut_obs_cli_trace");
    let path = dir.join("cli.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_dut"))
        .args([
            "test",
            "--n",
            "64",
            "--k",
            "4",
            "--eps",
            "1.0",
            "--rule",
            "and",
            "--input",
            "two-level",
            "--trials",
            "10",
            "--seed",
            "3",
        ])
        .env("DUT_TRACE", &path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace written");
    let report = obs::Report::from_jsonl(&text).expect("trace parses");
    // The final metrics snapshot reflects the protocol runs.
    assert!(report.counter("net_runs") >= 20, "{:?}", report.counters);
    assert!(report.counter("samples_drawn") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
