//! A malformed `DUT_SEED` or `DUT_TRIALS` must stop an experiment binary
//! before it measures anything, naming the variable and its value.
//! Falling back to the default would reproduce the committed tables
//! under a seed nobody asked for.

use std::process::Command;

#[test]
fn malformed_seed_or_trials_stops_the_binary() {
    let dir = std::env::temp_dir().join(format!("dut_bench_env_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (name, value) in [
        ("DUT_SEED", "0x2a"),
        ("DUT_SEED", ""),
        ("DUT_TRIALS", "0"),
        ("DUT_TRIALS", "-3"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e5_lemma42_numeric"))
            .env_remove("DUT_SEED")
            .env_remove("DUT_TRIALS")
            .env_remove("DUT_TRACE")
            .env("DUT_RESULTS", &dir)
            .env(name, value)
            .output()
            .expect("run e5_lemma42_numeric");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}={value:?}: {out:?}");
        assert!(
            stderr.contains(&format!("error: {name}={value} is not a positive integer")),
            "{name}={value:?}: stderr {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{name}={value:?} printed results");
    }
    let written = std::fs::read_dir(&dir).expect("read temp dir").count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, 0, "a rejected run wrote CSVs");
}
