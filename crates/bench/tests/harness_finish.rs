//! An experiment binary's trace must end the way `Harness::finish`
//! ends it: with the final metrics snapshot and then `run_done`.

use std::process::Command;

#[test]
fn traced_experiment_ends_with_snapshot_and_run_done() {
    let dir = std::env::temp_dir().join(format!("dut_bench_finish_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("e5.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_e5_lemma42_numeric"))
        .env("DUT_RESULTS", &dir)
        .env("DUT_TRACE", &trace)
        .env_remove("DUT_TRACE_VERBOSE")
        .output()
        .expect("run e5_lemma42_numeric");
    assert!(out.status.success(), "e5 failed: {out:?}");
    let text = std::fs::read_to_string(&trace).expect("read trace");
    let events: Vec<String> = text
        .lines()
        .map(|line| {
            let event = dut_obs::json::parse(line).expect("trace line is JSON");
            event.get_str("event").expect("event name").to_owned()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        events.ends_with(&["metrics".to_owned(), "run_done".to_owned()]),
        "trace ends with {:?}",
        &events[events.len().saturating_sub(3)..]
    );
}
