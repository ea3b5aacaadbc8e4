//! The protocol fuzz plane: grammar-aware hostile frames against a
//! live in-process server.
//!
//! Each iteration fires one generated frame (see [`crate::gen`]) on a
//! fresh connection and checks the server's response against the
//! frame's legal behaviors. After every full mutation window, a
//! known-good request must still be answered bit-exactly — hostile
//! traffic may cost the hostile client its connection, never the next
//! honest client's answer. At the end, the global cache accounting
//! must still balance (`hits + misses == requests`): a fuzz campaign
//! that poisons accounting has found a real bug even if every reply
//! looked structured.

use crate::client;
use crate::corpus::{Entry, Expect};
use crate::gen::{Expectation, FrameGen, Mutation};
use dut_serve::chaos::probe_request;
use dut_serve::client::{check_served, Served};
use dut_serve::protocol::ReplyLine;
use std::path::{Path, PathBuf};

/// Protocol-plane configuration.
#[derive(Debug, Clone)]
pub struct ProtocolFuzzConfig {
    /// Frames to fire.
    pub iters: u64,
    /// Master seed for frame generation.
    pub seed: u64,
    /// The live server to attack.
    pub addr: String,
    /// Where to persist violating frames (`None` disables).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for ProtocolFuzzConfig {
    fn default() -> Self {
        ProtocolFuzzConfig {
            iters: 100,
            seed: 1,
            addr: "127.0.0.1:7979".to_owned(),
            corpus_dir: None,
        }
    }
}

/// One invariant violation found by the plane.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which mutation class produced the frame.
    pub mutation: Mutation,
    /// Human-readable (lossy) preview of the frame.
    pub frame_preview: String,
    /// What went wrong.
    pub what: String,
    /// Corpus file the frame was persisted to, when enabled.
    pub corpus_file: Option<PathBuf>,
}

/// What a protocol fuzz run covered and found.
#[derive(Debug, Clone, Default)]
pub struct ProtocolFuzzReport {
    /// Frames fired.
    pub iterations: u64,
    /// Frames per mutation class, [`Mutation::ALL`] order.
    pub per_mutation: [u64; Mutation::ALL.len()],
    /// Known-good probes interleaved (one per mutation window).
    pub probes: u64,
    /// Invariant violations (empty = the server held).
    pub violations: Vec<Violation>,
    /// The post-run accounting invariant held:
    /// `cache_hits + cache_misses == requests`.
    pub accounting_ok: bool,
}

impl ProtocolFuzzReport {
    /// Whether the server survived with every invariant intact.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.accounting_ok
    }
}

/// Sends the known-good request and demands a bit-exact answer: after
/// hostile traffic a shed is a finding too.
fn probe(addr: &str) -> Result<(), String> {
    check_served(addr, &probe_request()).and_then(Served::answered)
}

/// Checks one outcome against a frame's legal behaviors.
fn check_outcome(expect: Expectation, outcome: &client::FireOutcome) -> Result<(), String> {
    match expect {
        Expectation::Reply => match &outcome.first {
            Some(ReplyLine::Reply(_) | ReplyLine::Overloaded) => Ok(()),
            other => Err(format!("valid frame got {other:?}")),
        },
        Expectation::Error => match &outcome.first {
            Some(ReplyLine::Error(_)) => Ok(()),
            other => Err(format!("malformed frame got {other:?} instead of an error")),
        },
        Expectation::LineTooLong => match &outcome.first {
            Some(ReplyLine::Error(message)) if message.contains("line_too_long") => {
                if outcome.closed {
                    Ok(())
                } else {
                    Err("oversized line answered but connection left open".into())
                }
            }
            other => Err(format!("oversized line got {other:?}")),
        },
        Expectation::ReplyOrError => {
            if outcome.first.is_some() || outcome.closed {
                Ok(())
            } else {
                Err("damaged frame got neither a line nor a close".into())
            }
        }
    }
}

fn persist(
    dir: &Path,
    index: u64,
    mutation: Mutation,
    bytes: &[u8],
    expect: Expectation,
) -> Option<PathBuf> {
    let name = format!("proto-violation-{index}-{}", mutation.name());
    let corpus_expect = match expect {
        Expectation::Reply => Expect::Reply,
        Expectation::Error => Expect::Error,
        Expectation::LineTooLong => Expect::LineTooLong,
        Expectation::ReplyOrError => Expect::ReplyOrError,
    };
    let entry = Entry::protocol(&name, bytes, corpus_expect);
    let path = dir.join(format!("{name}.json"));
    std::fs::create_dir_all(dir).ok()?;
    std::fs::write(&path, entry.render()).ok()?;
    Some(path)
}

/// Runs the protocol plane against a live server.
///
/// # Errors
///
/// Returns an error only when the server is unreachable before the
/// first frame; violations land in the report.
pub fn run(config: &ProtocolFuzzConfig) -> Result<ProtocolFuzzReport, String> {
    probe(&config.addr).map_err(|e| format!("server not healthy before protocol fuzzing: {e}"))?;
    let mut gen = FrameGen::new(config.seed);
    let mut report = ProtocolFuzzReport::default();
    let window = Mutation::ALL.len() as u64;
    for i in 0..config.iters {
        let frame = gen.frame(i);
        report.iterations += 1;
        report.per_mutation[Mutation::ALL
            .iter()
            .position(|&m| m == frame.mutation)
            .unwrap_or(0)] += 1;
        let verdict = match client::fire_frame(&config.addr, &frame.bytes) {
            Ok(outcome) => check_outcome(frame.expect, &outcome),
            Err(e) => Err(e), // hang or unparseable reply: a finding
        };
        if let Err(what) = verdict {
            let corpus_file = config
                .corpus_dir
                .as_deref()
                .and_then(|dir| persist(dir, i, frame.mutation, &frame.bytes, frame.expect));
            report.violations.push(Violation {
                mutation: frame.mutation,
                frame_preview: String::from_utf8_lossy(&frame.bytes)
                    .chars()
                    .take(120)
                    .collect(),
                what,
                corpus_file,
            });
        }
        // After each full mutation window: the hostile burst must not
        // have cost the next honest client its answer.
        if (i + 1) % window == 0 {
            report.probes += 1;
            if let Err(what) = probe(&config.addr) {
                report.violations.push(Violation {
                    mutation: frame.mutation,
                    frame_preview: "<known-good probe>".to_owned(),
                    what,
                    corpus_file: None,
                });
            }
        }
    }
    // The post-fuzz accounting pass: the registry is process-global
    // and the invariant is per-request, so it must hold absolutely.
    report.accounting_ok = match dut_serve::loadgen::fetch_stats(&config.addr) {
        Ok(stats) => stats.cache_hits + stats.cache_misses == stats.requests,
        Err(_) => false,
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_outcome_enforces_expectations() {
        let structured_error = client::FireOutcome {
            first: Some(ReplyLine::Error("nope".into())),
            closed: false,
        };
        assert!(check_outcome(Expectation::Error, &structured_error).is_ok());
        assert!(check_outcome(Expectation::Reply, &structured_error).is_err());
        let silent_hang_shape = client::FireOutcome {
            first: None,
            closed: false,
        };
        assert!(check_outcome(Expectation::ReplyOrError, &silent_hang_shape).is_err());
        let too_long_open = client::FireOutcome {
            first: Some(ReplyLine::Error("line_too_long".into())),
            closed: false,
        };
        assert!(
            check_outcome(Expectation::LineTooLong, &too_long_open).is_err(),
            "line_too_long must also close"
        );
        let too_long_closed = client::FireOutcome {
            first: Some(ReplyLine::Error("line_too_long".into())),
            closed: true,
        };
        assert!(check_outcome(Expectation::LineTooLong, &too_long_closed).is_ok());
    }

    #[test]
    fn unreachable_server_fails_fast() {
        let config = ProtocolFuzzConfig {
            addr: "127.0.0.1:1".to_owned(),
            ..ProtocolFuzzConfig::default()
        };
        assert!(run(&config).is_err());
    }
}
