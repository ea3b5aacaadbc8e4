//! Differential execution: one configuration, every evaluation path.
//!
//! The serve stack promises that a request's answer is a pure
//! function of `(n, k, q, ε, rule, family, seed, trials)` — the
//! offline reference, a fresh engine's miss path, a warm engine's hit
//! path, and a served TCP round trip must all produce bit-identical
//! `(verdict, p̂, Wilson bounds)`. This plane hammers that contract
//! with random configurations and bit-compares the paths.
//!
//! A failing configuration is *shrunk* (halving n, q, k, trials while
//! the failure persists) and persisted as a replayable corpus entry;
//! findings must outlive the run that found them.

use crate::corpus::{self, Entry};
use crate::gen::FrameGen;
use dut_serve::chaos::probe_request;
use dut_serve::client::{check_served, Served};
use dut_serve::protocol::Request;
use std::path::{Path, PathBuf};

/// Differential-plane configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Random configurations to test.
    pub iters: u64,
    /// Master seed for configuration generation.
    pub seed: u64,
    /// A live server to include in the comparison (`None` skips the
    /// served path and compares local paths only).
    pub addr: Option<String>,
    /// Where to persist shrunk failing configurations (`None`
    /// disables persistence).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            iters: 32,
            seed: 1,
            addr: None,
            corpus_dir: None,
        }
    }
}

/// One disagreement between evaluation paths.
#[derive(Debug, Clone)]
pub struct DiffFailure {
    /// The (shrunk) configuration that disagrees.
    pub request: Request,
    /// Which paths disagreed and how.
    pub what: String,
    /// Corpus file the shrunk configuration was written to, if
    /// persistence was on and the write succeeded.
    pub corpus_file: Option<PathBuf>,
}

/// What a differential run covered and found.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Configurations tested.
    pub iterations: u64,
    /// Configurations that included the served-TCP path.
    pub served_checked: u64,
    /// Path disagreements (empty = the contract held).
    pub failures: Vec<DiffFailure>,
}

impl DiffReport {
    /// Whether every configuration agreed on every path.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Bit-compares the local paths (offline, fresh-engine miss,
/// cached-engine hit) for one configuration.
///
/// # Errors
///
/// Returns a description of the first disagreement.
pub fn compare_local_paths(request: &Request) -> Result<(), String> {
    corpus::bit_identity(request)
}

/// Bit-compares one configuration across every requested path.
///
/// # Errors
///
/// Returns a description of the first disagreement.
pub fn compare_all_paths(request: &Request, addr: Option<&str>) -> Result<(), String> {
    compare_local_paths(request)?;
    if let Some(addr) = addr {
        // A shed is not a disagreement.
        check_served(addr, request)?;
    }
    Ok(())
}

/// Shrinks a failing configuration: repeatedly halves `n`, `q`, `k`,
/// and `trials` (respecting validity: a threshold rule's `t` is
/// clamped into `1..=k`) while the failure reproduces, so the corpus
/// holds the smallest configuration that still disagrees.
fn shrink(request: &Request, addr: Option<&str>) -> Request {
    let mut current = *request;
    for _ in 0..32 {
        let mut reduced = false;
        let candidates = [
            Request {
                n: (current.n / 2).max(2),
                ..current
            },
            Request {
                q: (current.q / 2).max(1),
                ..current
            },
            Request {
                k: (current.k / 2).max(1),
                rule: match current.rule {
                    dut_core::Rule::TThreshold { t } => dut_core::Rule::TThreshold {
                        t: t.min((current.k / 2).max(1)),
                    },
                    other => other,
                },
                ..current
            },
            Request {
                trials: (current.trials / 2).max(1),
                ..current
            },
        ];
        for candidate in candidates {
            if candidate != current && compare_all_paths(&candidate, addr).is_err() {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    current
}

/// Persists a shrunk failing configuration as a corpus entry.
fn persist(dir: &Path, index: u64, request: &Request) -> Option<PathBuf> {
    let name = format!("diff-mismatch-{index}");
    let entry = Entry::differential(&name, request);
    let path = dir.join(format!("{name}.json"));
    std::fs::create_dir_all(dir).ok()?;
    std::fs::write(&path, entry.render()).ok()?;
    Some(path)
}

/// Runs the differential plane.
///
/// # Errors
///
/// Returns an error only for harness failures (e.g. the server at
/// `addr` is unreachable); contract violations land in the report.
pub fn run(config: &DiffConfig) -> Result<DiffReport, String> {
    if let Some(addr) = &config.addr {
        // Fail fast on a dead server rather than attributing connect
        // errors to every configuration.
        check_served(addr, &probe_request())
            .and_then(Served::answered)
            .map_err(|e| format!("server not healthy before differential run: {e}"))?;
    }
    let mut gen = FrameGen::new(config.seed);
    let mut report = DiffReport::default();
    for i in 0..config.iters {
        let request = gen.valid_request();
        report.iterations += 1;
        let addr = config.addr.as_deref();
        if addr.is_some() {
            report.served_checked += 1;
        }
        if let Err(what) = compare_all_paths(&request, addr) {
            let shrunk = shrink(&request, addr);
            let corpus_file = config
                .corpus_dir
                .as_deref()
                .and_then(|dir| persist(dir, i, &shrunk));
            report.failures.push(DiffFailure {
                request: shrunk,
                what,
                corpus_file,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_serve::protocol;

    #[test]
    fn generated_configs_are_servable() {
        let mut gen = FrameGen::new(4);
        for _ in 0..20 {
            let request = gen.valid_request();
            let line = protocol::render_request(&request);
            match protocol::parse_command(&line) {
                Ok(protocol::Command::Run(parsed)) => {
                    assert_eq!(parsed.n, request.n);
                    assert_eq!(parsed.rule, request.rule);
                }
                other => panic!("generated config does not parse: {other:?} from {line}"),
            }
        }
    }

    #[test]
    fn local_paths_agree_on_random_configs() {
        // A miniature differential run with no server and no corpus:
        // the bit-identity contract on a handful of random configs.
        let report = run(&DiffConfig {
            iters: 4,
            seed: 5,
            ..DiffConfig::default()
        })
        .expect("run completes");
        assert_eq!(report.iterations, 4);
        assert!(
            report.passed(),
            "differential failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn shrink_respects_threshold_validity() {
        let request = Request {
            n: 256,
            k: 6,
            q: 32,
            eps: 0.5,
            rule: dut_core::Rule::TThreshold { t: 6 },
            family: protocol::Family::Uniform,
            seed: 1,
            trials: 4,
        };
        // Nothing actually fails here, so shrink returns the input
        // unchanged — but it must not panic on the threshold clamp.
        let shrunk = shrink(&request, None);
        assert_eq!(shrunk, request);
    }
}
