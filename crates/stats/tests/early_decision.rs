//! The early two-sided decision skips the trials its verdict no longer
//! needs, and the metrics registry accounts for every one of them.
//!
//! This binary holds a single test, so the global counter deltas it
//! reads are this test's alone.

use dut_obs::metrics::{global, Counter};
use dut_stats::runner::decide_two_sided;
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn an_always_failing_side_stops_the_decision_early() {
    let trials = 200;
    let registry = global();
    let run_before = registry.counter(Counter::TrialsRun);
    let skipped_before = registry.counter(Counter::TrialsSkipped);
    let calls = AtomicU64::new(0);
    let verdict = decide_two_sided(trials, [1, 2], |side, _seed| {
        calls.fetch_add(1, Ordering::Relaxed);
        side == 0
    });
    assert!(!verdict);
    let run = registry.counter(Counter::TrialsRun) - run_before;
    let skipped = registry.counter(Counter::TrialsSkipped) - skipped_before;
    assert_eq!(run, calls.into_inner(), "trials_run counts executed trials");
    assert_eq!(run + skipped, 2 * trials);
    // Side 1 is fixed at false after 67 losses (133/200 < 2/3). Once
    // it has lost a trial it is the losing side, so side 0 runs about
    // one trial, plus at most one in-flight trial per extra worker.
    assert!(run <= 67 + 8, "ran {run} of {} trials", 2 * trials);
}
