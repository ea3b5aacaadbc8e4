//! The chaos fuzz plane: the hostile-client mix from
//! [`dut_serve::chaos`] run against a fuzz-owned in-process server.
//!
//! The serve crate's chaos module implements the client behaviors and
//! the survival verdict; this plane owns the *harness*: it starts a
//! server configured so the chaos actually bites (an idle timeout
//! several times shorter than the hold duration, so idle-forever and
//! slowloris clients are reaped mid-run rather than outliving it),
//! runs the mix, shuts the server down cleanly, and folds the result
//! into the fuzz report shape the CLI prints.

use dut_serve::chaos::{self, ChaosConfig, ChaosReport};
use dut_serve::server::{self, ServeConfig};
use std::time::Duration;

/// Chaos-plane configuration.
#[derive(Debug, Clone)]
pub struct ChaosPlaneConfig {
    /// How long to keep injecting.
    pub duration: Duration,
    /// Master seed.
    pub seed: u64,
}

/// Idle timeout for the fuzz-owned server: a fifth of the mix's
/// [`chaos::HOLD`], so every idle-forever and slowloris client is
/// reaped mid-run; the margin keeps the plane deterministic on slow
/// CI.
const CHAOS_IDLE_TIMEOUT: Duration = match chaos::HOLD.checked_div(5) {
    Some(timeout) => timeout,
    None => Duration::ZERO,
};

/// Runs the chaos mix against a fresh in-process server and returns
/// the underlying report.
///
/// # Errors
///
/// Returns an error when the server cannot start or is unhealthy
/// before chaos begins; survival failures are in the report.
pub fn run(config: &ChaosPlaneConfig) -> Result<ChaosReport, String> {
    let handle = server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        queue_cap: 32,
        idle_timeout: CHAOS_IDLE_TIMEOUT,
        ..ServeConfig::default()
    })?;
    let report = chaos::run(&ChaosConfig {
        addr: handle.local_addr().to_string(),
        duration: config.duration,
        seed: config.seed,
    });
    handle.request_shutdown();
    handle.join();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plane_survives_a_short_burst() {
        let report = run(&ChaosPlaneConfig {
            duration: Duration::from_millis(400),
            seed: 2,
        })
        .expect("plane runs");
        assert!(report.survived(), "chaos verdict: {}", report.summary());
    }
}
