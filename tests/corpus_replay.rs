//! Deterministic replay of the committed fuzz corpus
//! (`tests/corpus/`, schema `dut-fuzz-corpus/v1`).
//!
//! Every entry is a past fuzz finding or a seeded hostile shape.
//! Replaying them under `cargo test` turns each one into a permanent
//! regression test: protocol entries fire against a fresh in-process
//! server and assert the frame's legal behaviors (plus a bit-exact
//! known-good answer afterwards); differential entries re-run the
//! offline / fresh-engine / cached-engine paths and demand bit
//! identity.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]

use dut_fuzz::corpus::{self, Entry, Plane};
use dut_serve::server::{self, ServeConfig};
use std::path::{Path, PathBuf};

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    corpus::collect_files(&[corpus_root()]).expect("tests/corpus holds at least one entry")
}

#[test]
fn every_corpus_entry_validates() {
    for file in corpus_files() {
        let text = std::fs::read_to_string(&file).expect("corpus file readable");
        corpus::validate(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    }
}

#[test]
fn every_corpus_file_is_what_its_entry_renders() {
    for file in corpus_files() {
        let text = std::fs::read_to_string(&file).expect("corpus file readable");
        let entry = Entry::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert_eq!(entry.render(), text, "{}", file.display());
    }
}

#[test]
fn every_corpus_entry_replays_clean() {
    let entries: Vec<(PathBuf, Entry)> = corpus_files()
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file).expect("corpus file readable");
            let entry = Entry::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            (file, entry)
        })
        .collect();
    // One shared server for all protocol entries: later entries then
    // also prove the earlier hostile frames left it healthy.
    let handle = server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_cap: 16,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    let mut failures = Vec::new();
    for (file, entry) in &entries {
        if let Err(e) = entry.replay(&addr) {
            failures.push(format!("{}: {e}", file.display()));
        }
    }
    handle.request_shutdown();
    handle.join();
    assert!(
        failures.is_empty(),
        "corpus regressions:\n{}",
        failures.join("\n")
    );
}

/// The differential fuzzer's first real find: seeds above 2^53 were
/// silently rounded through the wire's f64 JSON numbers, so the
/// server ran a different RNG stream than the client asked for. The
/// committed entry pins the exact seed that exposed it.
#[test]
fn big_seed_precision_finding_stays_fixed() {
    let file = corpus_root().join("differential/big-seed-precision.json");
    let text = std::fs::read_to_string(&file).expect("finding entry present");
    let entry = Entry::parse(&text).expect("finding entry parses");
    assert_eq!(entry.plane, Plane::Differential);
    let config = entry.config.expect("differential entry has a config");
    assert_eq!(
        config.seed, 13_827_855_532_095_422_826,
        "the committed entry must keep the exact >2^53 seed that exposed the bug"
    );
    corpus::bit_identity(&config).expect("all paths bit-identical");
}
