//! Chaos injection: a hostile-client mix for `dut fuzz --plane chaos`.
//!
//! Where the load generator measures how the server performs for
//! *honest* clients, this module measures whether it survives
//! *hostile* ones. A pool of chaos lanes runs a seeded mix of attack
//! behaviors — slowloris drips, half-open connects, mid-frame
//! disconnects, idle-forever holds, reconnect storms — while honest
//! probe requests interleave between bursts to prove the service
//! plane stays alive throughout.
//!
//! Hostility arrives in *bursts*, not i.i.d.: real abuse (and real
//! network pathology) clusters. The burst structure is the same
//! [`GilbertElliott`] two-state channel the resilience experiments
//! use — a lane's next action is hostile exactly when the channel
//! drops the delivery, so runs are deterministic per seed and the
//! burstiness matches the paper-side fault model.
//!
//! The invariant enforced at the end of a run: the server still
//! answers a known-good request with the bit-exact offline verdict,
//! and `{"cmd":"stats"}` still parses. A server that survived chaos
//! but wedged a worker fails that probe.

use crate::client::{check_served, Served};
use crate::protocol::{self, Request};
use dut_obs::metrics::Counter;
use dut_simnet::{FaultPlan, GilbertElliott};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Concurrent chaos lanes.
const LANES: usize = 3;

/// Mean fraction of actions that are hostile: the Gilbert-Elliott mean
/// loss rate (bursts make the instantaneous rate swing). It must stay
/// at or below the bursty channel's ceiling of 0.375, the bad state's
/// stationary mass (see `GilbertElliott::bursty_with_mean_loss`).
const RATE: f64 = 0.3;

/// How long idle-forever and slowloris clients hold their socket. A
/// server whose idle timeout is comfortably shorter exercises the
/// reaper; a longer one exercises patience.
pub const HOLD: Duration = Duration::from_millis(750);

/// Chaos-run configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Server address.
    pub addr: String,
    /// How long to keep injecting.
    pub duration: Duration,
    /// Master seed; every lane derives its own stream from it.
    pub seed: u64,
}

/// The hostile behaviors a lane can perform. `COUNT`/`ALL` follow the
/// same exhaustive-enum idiom as the metrics registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Send a valid request one byte at a time, far too slowly to
    /// ever finish a line.
    Slowloris,
    /// Connect and immediately vanish without sending anything.
    HalfOpen,
    /// Send half a frame, then drop the connection mid-line.
    MidFrameCut,
    /// Connect, send nothing, and hold the socket open.
    IdleForever,
    /// A rapid burst of connect/close cycles.
    ReconnectStorm,
}

impl Attack {
    /// Every attack, for mix selection and reporting.
    pub const ALL: [Attack; 5] = [
        Attack::Slowloris,
        Attack::HalfOpen,
        Attack::MidFrameCut,
        Attack::IdleForever,
        Attack::ReconnectStorm,
    ];

    /// Stable label for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Attack::Slowloris => "slowloris",
            Attack::HalfOpen => "half_open",
            Attack::MidFrameCut => "mid_frame_cut",
            Attack::IdleForever => "idle_forever",
            Attack::ReconnectStorm => "reconnect_storm",
        }
    }
}

/// What a chaos run did and whether the server survived it.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Hostile actions launched, per [`Attack::ALL`] order.
    pub attacks: [u64; Attack::ALL.len()],
    /// Honest probe requests interleaved between hostile actions.
    pub probes_sent: u64,
    /// Honest probes answered with the bit-exact offline verdict.
    pub probes_ok: u64,
    /// Honest probes shed by an overloaded server (acceptable: shed
    /// is the contract, not a failure).
    pub probes_shed: u64,
    /// The final known-good request after all chaos drained was
    /// answered bit-exactly.
    pub final_probe_ok: bool,
    /// The final `{"cmd":"stats"}` reply parsed.
    pub final_stats_ok: bool,
}

impl ChaosReport {
    /// Total hostile actions across every attack kind.
    #[must_use]
    pub fn total_attacks(&self) -> u64 {
        self.attacks.iter().sum()
    }

    /// The survival verdict: every mid-run probe that was answered
    /// (not shed) was answered correctly, and the server still serves
    /// and accounts after the storm.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.final_probe_ok
            && self.final_stats_ok
            && self.probes_ok + self.probes_shed == self.probes_sent
    }

    /// One-line summary for CLI output.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = Attack::ALL
            .iter()
            .zip(self.attacks.iter())
            .map(|(attack, count)| format!("{}={count}", attack.name()))
            .collect();
        parts.push(format!(
            "probes={}/{} (+{} shed)",
            self.probes_ok, self.probes_sent, self.probes_shed
        ));
        parts.push(format!(
            "survived={}",
            if self.survived() { "yes" } else { "NO" }
        ));
        parts.join("  ")
    }
}

/// The known-good request: every chaos probe, fuzz probe and corpus
/// replay sends it to prove the server still answers bit-exactly.
/// Small enough that its tester builds in microseconds and its offline
/// verdict is cheap.
#[must_use]
pub fn probe_request() -> Request {
    Request {
        n: 64,
        k: 4,
        q: 8,
        eps: 0.5,
        rule: dut_core::Rule::And,
        family: protocol::Family::Uniform,
        seed: 42,
        trials: 1,
    }
}

/// Performs one hostile action against the server. Every path is
/// best-effort: a hostile client gets no guarantees, and connect
/// failures (a shedding server writes its overloaded line and closes)
/// are part of the scenery.
fn attack(addr: &str, kind: Attack, rng: &mut StdRng) {
    dut_obs::metrics::global().incr(Counter::ChaosInjected);
    match kind {
        Attack::Slowloris => {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return;
            };
            let line = protocol::render_request(&probe_request());
            let bytes = line.as_bytes();
            // Drip bytes (never the newline) until the hold expires;
            // the server must reap on "no completed line", because
            // bytes keep arriving the whole time.
            let started = Instant::now();
            let mut i = 0usize;
            while started.elapsed() < HOLD {
                if stream.write_all(&bytes[i..=i]).is_err() {
                    return; // reaped mid-drip: mission accomplished
                }
                let _ = stream.flush();
                i = (i + 1) % bytes.len().saturating_sub(1).max(1);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        Attack::HalfOpen => {
            // Connect and drop instantly: the worker sees EOF.
            let _ = TcpStream::connect(addr);
        }
        Attack::MidFrameCut => {
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return;
            };
            let line = protocol::render_request(&probe_request());
            let cut = rng.random_range(1..line.len());
            let _ = stream.write_all(&line.as_bytes()[..cut]);
            let _ = stream.flush();
            // Drop without the newline: the partial line must be
            // discarded, never half-answered.
        }
        Attack::IdleForever => {
            let Ok(stream) = TcpStream::connect(addr) else {
                return;
            };
            std::thread::sleep(HOLD);
            drop(stream);
        }
        Attack::ReconnectStorm => {
            for _ in 0..8 {
                let _ = TcpStream::connect(addr);
            }
        }
    }
}

/// One lane: alternates hostile actions and honest probes, gated by
/// its own Gilbert-Elliott channel and RNG stream.
struct LaneTally {
    attacks: [u64; Attack::ALL.len()],
    probes_sent: u64,
    probes_ok: u64,
    probes_shed: u64,
}

fn lane_loop(config: &ChaosConfig, lane: u64, start: Instant) -> LaneTally {
    let mut tally = LaneTally {
        attacks: [0; Attack::ALL.len()],
        probes_sent: 0,
        probes_ok: 0,
        probes_shed: 0,
    };
    // Lane seeds come from the same split-mix derivation the engine
    // uses for trial seeds, so lanes are decorrelated but replayable.
    let mut rng = StdRng::seed_from_u64(dut_stats::seed::derive_seed(config.seed, lane));
    let mut channel = GilbertElliott::bursty_with_mean_loss(RATE);
    channel.begin_run(1, &mut rng);
    while start.elapsed() < config.duration {
        // A dropped delivery = a hostile action this step.
        let hostile = channel.deliver_round(&[Some(true)], &mut rng)[0].is_none();
        if hostile {
            let kind = Attack::ALL[rng.random_range(0..Attack::ALL.len())];
            tally.attacks[Attack::ALL.iter().position(|&a| a == kind).unwrap_or(0)] += 1;
            attack(&config.addr, kind, &mut rng);
        } else {
            tally.probes_sent += 1;
            match check_served(&config.addr, &probe_request()) {
                Ok(Served::Exact) => tally.probes_ok += 1,
                Ok(Served::Shed) => tally.probes_shed += 1,
                Err(_) => {}
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    tally
}

/// Runs the chaos mix and the post-storm survival checks.
///
/// # Errors
///
/// Returns an error only when the server is unreachable before any
/// chaos starts; everything after that is reported, not fatal.
pub fn run(config: &ChaosConfig) -> Result<ChaosReport, String> {
    match check_served(&config.addr, &probe_request()) {
        Ok(Served::Exact) => {}
        Ok(Served::Shed) => {
            return Err(
                "server shed the pre-chaos probe; start chaos against an idle server".into(),
            )
        }
        Err(e) => return Err(format!("server not healthy before chaos: {e}")),
    }
    let start = Instant::now();
    let tallies: Vec<LaneTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LANES)
            .map(|lane| scope.spawn(move || lane_loop(config, lane as u64, start)))
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let mut report = ChaosReport::default();
    for tally in tallies {
        for (total, lane) in report.attacks.iter_mut().zip(tally.attacks.iter()) {
            *total += lane;
        }
        report.probes_sent += tally.probes_sent;
        report.probes_ok += tally.probes_ok;
        report.probes_shed += tally.probes_shed;
    }
    // Give the reaper one idle-timeout's grace to collect held
    // sockets before the verdict probes.
    std::thread::sleep(Duration::from_millis(50));
    report.final_probe_ok = matches!(
        check_served(&config.addr, &probe_request()),
        Ok(Served::Exact)
    );
    report.final_stats_ok = crate::loadgen::fetch_stats(&config.addr).is_ok();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_names_are_stable_and_distinct() {
        let names: std::collections::BTreeSet<_> = Attack::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), Attack::ALL.len());
    }

    #[test]
    fn report_survival_requires_all_probes_accounted() {
        let mut report = ChaosReport {
            probes_sent: 10,
            probes_ok: 9,
            probes_shed: 1,
            final_probe_ok: true,
            final_stats_ok: true,
            ..ChaosReport::default()
        };
        assert!(report.survived());
        report.probes_ok = 8; // one probe vanished
        assert!(!report.survived());
        report.probes_ok = 9;
        report.final_probe_ok = false;
        assert!(!report.survived());
    }

    #[test]
    fn summary_names_every_attack() {
        let report = ChaosReport::default();
        let summary = report.summary();
        for attack in Attack::ALL {
            assert!(summary.contains(attack.name()), "missing {}", attack.name());
        }
        assert!(summary.contains("survived"));
    }

    #[test]
    fn unreachable_server_fails_fast() {
        let config = ChaosConfig {
            addr: "127.0.0.1:1".to_owned(),
            duration: Duration::from_secs(2),
            seed: 7,
        };
        assert!(run(&config).is_err());
    }
}
