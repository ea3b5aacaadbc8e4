//! `dut fuzz` — structured adversarial testing for the serve stack.
//!
//! Three attack planes, all seeded, all replayable:
//!
//! 1. **Protocol** ([`protocol_plane`]): grammar-aware mutation of
//!    the newline-JSON wire protocol fired at a live server. The
//!    generator damages *valid* frames (bit flips, truncations,
//!    nesting bombs, oversized lines, absurd numerics) so the fuzz
//!    reaches deep parser and validation states instead of dying at
//!    byte 0. Invariant: every frame gets a structured line or a
//!    clean close — never a hang, never a crash — and a known-good
//!    request is still answered bit-exactly after every hostile
//!    burst.
//! 2. **Differential** ([`differential`]): random configurations
//!    through every evaluation path — offline reference, fresh
//!    engine, warm cache, served TCP — with bit-comparison of
//!    `(verdict, p̂, Wilson bounds)`. Failing configurations are
//!    shrunk and persisted to the corpus.
//! 3. **Chaos** ([`chaos_plane`]): the hostile-client mix (slowloris,
//!    half-open connects, mid-frame cuts, idle holds, reconnect
//!    storms) with Gilbert-Elliott burst arrivals, against a server
//!    configured so the reaper and error budgets actually engage.
//!
//! Findings persist as `dut-fuzz-corpus/v1` entries ([`corpus`]) and
//! replay forever under `cargo test`. The crate depends only on
//! workspace crates and the vendored shims — fuzzing infrastructure
//! that cannot run offline cannot run in this build at all.

pub mod chaos_plane;
pub mod client;
pub mod corpus;
pub mod differential;
pub mod gen;
pub mod protocol_plane;

use dut_serve::server::{self, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

/// What `dut fuzz --smoke` ran and found. One struct so the CLI can
/// print one summary and exit nonzero on any failure.
#[derive(Debug)]
pub struct SmokeReport {
    /// The protocol plane's findings.
    pub protocol: protocol_plane::ProtocolFuzzReport,
    /// The differential plane's findings.
    pub differential: differential::DiffReport,
    /// The chaos plane's findings.
    pub chaos: dut_serve::chaos::ChaosReport,
}

impl SmokeReport {
    /// Whether every plane held every invariant.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.protocol.passed() && self.differential.passed() && self.chaos.survived()
    }
}

/// Bounded smoke settings: fixed seeds, small iteration counts, the
/// same configuration CI runs. Deterministic by construction — a
/// smoke failure always replays.
#[derive(Debug, Clone)]
pub struct SmokeConfig {
    /// Protocol frames to fire.
    pub protocol_iters: u64,
    /// Differential configurations to compare.
    pub diff_iters: u64,
    /// Chaos duration.
    pub chaos_duration: Duration,
    /// Master seed shared by all planes.
    pub seed: u64,
    /// Corpus directory for persisting violations (`None` disables).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for SmokeConfig {
    fn default() -> Self {
        SmokeConfig {
            protocol_iters: 60,
            diff_iters: 8,
            chaos_duration: Duration::from_millis(700),
            seed: 7,
            corpus_dir: None,
        }
    }
}

/// Runs all three planes, bounded, against fuzz-owned in-process
/// servers.
///
/// # Errors
///
/// Returns an error for harness failures (a server that will not
/// start); invariant violations land in the report.
pub fn smoke(config: &SmokeConfig) -> Result<SmokeReport, String> {
    // Protocol and differential share one server: the differential
    // plane's served path then also exercises a cache warmed by fuzz
    // traffic, which is the interesting state.
    let handle = server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        queue_cap: 32,
        ..ServeConfig::default()
    })?;
    let addr = handle.local_addr().to_string();
    let protocol = protocol_plane::run(&protocol_plane::ProtocolFuzzConfig {
        iters: config.protocol_iters,
        seed: config.seed,
        addr: addr.clone(),
        corpus_dir: config.corpus_dir.as_ref().map(|d| d.join("protocol")),
    })?;
    let differential = differential::run(&differential::DiffConfig {
        iters: config.diff_iters,
        seed: config.seed,
        addr: Some(addr),
        corpus_dir: config.corpus_dir.as_ref().map(|d| d.join("differential")),
    })?;
    handle.request_shutdown();
    handle.join();
    let chaos = chaos_plane::run(&chaos_plane::ChaosPlaneConfig {
        duration: config.chaos_duration,
        lanes: 3,
        rate: 0.3,
        seed: config.seed,
    })?;
    Ok(SmokeReport {
        protocol,
        differential,
        chaos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_all_three_planes_clean() {
        let report = smoke(&SmokeConfig {
            protocol_iters: 20,
            diff_iters: 3,
            chaos_duration: Duration::from_millis(300),
            seed: 7,
            corpus_dir: None,
        })
        .expect("smoke completes");
        assert!(report.protocol.iterations == 20);
        assert!(report.differential.iterations == 3);
        assert!(
            report.passed(),
            "smoke failed: protocol {:?} / diff {:?} / chaos {}",
            report.protocol.violations,
            report.differential.failures,
            report.chaos.summary()
        );
    }
}
