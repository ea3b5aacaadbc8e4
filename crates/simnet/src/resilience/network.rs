//! The fault-aware network: [`ResilientNetwork`] runs the one-bit
//! protocol under an arbitrary [`FaultPlan`] with optional
//! [`Recovery`], and accounts honestly for everything that happened.

use super::plan::FaultPlan;
use super::recovery::Recovery;
use crate::network::{record_run, Transcript};
use crate::rule::{DecisionRule, Verdict};
use dut_obs::metrics::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the referee treats players it did not hear from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingPolicy {
    /// Treat silence as an accept bit (the deployed default for alarm
    /// systems: no alarm heard ⇒ assume fine). This is what makes the
    /// AND rule fragile.
    AssumeAccept,
    /// Treat silence as a reject bit (fail-safe, but false alarms rise
    /// with the fault rate).
    AssumeReject,
    /// Drop silent players from the vote (the rule sees fewer bits).
    /// A threshold rule counts only rejections, so its verdict is the
    /// one [`MissingPolicy::AssumeAccept`] gives; only the transcript
    /// differs.
    Exclude,
}

/// Everything that went wrong (and was repaired) in one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Copies lost in transit, summed over all transmission rounds.
    pub lost: u64,
    /// Bits corrupted at the source by Byzantine players.
    pub byzantine_flips: u64,
    /// Transmission attempts after each player's first (repetition
    /// copies and ack-triggered retransmissions alike).
    pub retries: u64,
    /// Delivered copies beyond the first per player — redundancy that
    /// reached the referee but carried no new bit.
    pub redundant_bits: u64,
    /// Players whose first copy was lost but who got a later copy
    /// through — losses that recovery actually repaired.
    pub recovered: u64,
    /// Players the referee gave up on after exhausting the recovery
    /// budget (only possible with [`Recovery::AckRetry`] /
    /// [`Recovery::Repetition`]; without recovery silence is immediate,
    /// not a timeout).
    pub timeouts: u64,
    /// Copies that reached the referee — what the communication budget
    /// is charged for.
    pub delivered_bits: u64,
}

impl FaultStats {
    fn record(&self) {
        let registry = dut_obs::metrics::global();
        registry.add(Counter::FaultsMessagesLost, self.lost);
        registry.add(Counter::FaultRetries, self.retries);
        registry.add(Counter::FaultRedundantBits, self.redundant_bits);
        registry.add(Counter::FaultByzantineFlips, self.byzantine_flips);
        registry.add(Counter::FaultRecoveredBits, self.recovered);
        registry.add(Counter::FaultTimeouts, self.timeouts);
    }
}

/// The result of one fault-injected execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientOutcome {
    /// The referee's verdict.
    pub verdict: Verdict,
    /// The effective transcript the referee decided on (after missing
    /// policy and majority decoding).
    pub transcript: Transcript<bool>,
    /// Fault and recovery accounting for this execution.
    pub faults: FaultStats,
}

/// A simultaneous-message network whose executions pass through a
/// pluggable [`FaultPlan`], with referee-side [`Recovery`] and a
/// [`MissingPolicy`] for players it never hears from.
///
/// # Randomness
///
/// Each run discards one word of the caller's RNG, then seeds two
/// independent streams from it: a *sampling* stream and a *fault*
/// stream. (The discarded word was once a shared seed that no node
/// read; skipping it keeps every committed fault sweep's streams.) The
/// node closure runs on the sampling stream for every player, so the
/// samples a player sees are identical across fault models, rates and
/// recovery settings for a fixed caller RNG state — fault sweeps are
/// paired experiments by construction (see the [`plan`](super::plan)
/// module docs for the coupling discipline on the fault side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientNetwork {
    num_players: usize,
    missing_policy: MissingPolicy,
    recovery: Recovery,
}

impl ResilientNetwork {
    /// A network of `num_players` players with no recovery.
    ///
    /// # Panics
    ///
    /// Panics if `num_players == 0`.
    #[must_use]
    pub fn new(num_players: usize, missing_policy: MissingPolicy) -> Self {
        assert!(num_players > 0, "network needs at least one player");
        Self {
            num_players,
            missing_policy,
            recovery: Recovery::None,
        }
    }

    /// Sets the recovery mechanism.
    ///
    /// # Panics
    ///
    /// Panics on zero-round recovery parameters.
    #[must_use]
    pub fn with_recovery(mut self, recovery: Recovery) -> Self {
        recovery.validate();
        self.recovery = recovery;
        self
    }

    /// Number of players `k`.
    #[must_use]
    pub fn num_players(&self) -> usize {
        self.num_players
    }

    /// The recovery mechanism.
    #[must_use]
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// Runs one execution of the one-bit protocol under `plan`, with
    /// each player's bit computed by `node` as in
    /// [`Network::run_nodes`](crate::Network::run_nodes): from its
    /// player index, its sample count `samples_per_player` and the
    /// sampling stream, from which it draws its own samples.
    ///
    /// Phases: `begin_run` → node call per player → `corrupt`
    /// (Byzantine) → up to `Recovery::rounds` transmission
    /// rounds through `deliver_round` → majority decoding (ties decode
    /// to *reject*, the fail-safe direction) → missing policy →
    /// decision rule.
    ///
    /// If every bit is missing under [`MissingPolicy::Exclude`] the
    /// referee accepts (it has no evidence to act on).
    pub fn run<F, R, N>(
        &self,
        samples_per_player: usize,
        rule: &DecisionRule,
        plan: &mut F,
        rng: &mut R,
        mut node: N,
    ) -> ResilientOutcome
    where
        F: FaultPlan + ?Sized,
        R: Rng + ?Sized,
        N: FnMut(usize, usize, &mut StdRng) -> bool,
    {
        let k = self.num_players;
        let q = samples_per_player;
        let _: u64 = rng.random();
        let mut sample_rng = StdRng::seed_from_u64(rng.random());
        let mut fault_rng = StdRng::seed_from_u64(rng.random());
        let mut stats = FaultStats::default();

        plan.begin_run(k, &mut fault_rng);

        // Phase 1: bit computation. Every player's node runs on the
        // sample stream, so the stream advances the same whatever the
        // plan.
        let mut bits: Vec<bool> = (0..k)
            .map(|player_id| node(player_id, q, &mut sample_rng))
            .collect();

        // Phase 2: source corruption.
        stats.byzantine_flips = plan.corrupt(&mut bits, &mut fault_rng);

        // Phase 3: transmission rounds.
        let mut copies: Vec<Vec<bool>> = vec![Vec::new(); k];
        let mut first_copy_lost = vec![false; k];
        for round in 0..self.recovery.rounds() {
            let sending: Vec<Option<bool>> = bits
                .iter()
                .zip(&copies)
                .map(|(&bit, got)| {
                    (!self.recovery.stops_after_ack() || got.is_empty()).then_some(bit)
                })
                .collect();
            let senders = sending.iter().filter(|b| b.is_some()).count() as u64;
            if senders == 0 {
                break;
            }
            if round > 0 {
                stats.retries += senders;
            }
            let delivered = plan.deliver_round(&sending, &mut fault_rng);
            assert_eq!(delivered.len(), k, "fault plan changed the player count");
            for (i, (sent, got)) in sending.iter().zip(&delivered).enumerate() {
                match (sent, got) {
                    (Some(_), Some(v)) => copies[i].push(*v),
                    (Some(_), None) => {
                        stats.lost += 1;
                        if round == 0 {
                            first_copy_lost[i] = true;
                        }
                    }
                    (None, _) => {}
                }
            }
        }

        // Phase 4: referee-side decoding. Majority per player; ties
        // decode to reject — the fail-safe direction for a tester.
        let mut decoded: Vec<Option<bool>> = Vec::with_capacity(k);
        for (i, player_copies) in copies.iter().enumerate() {
            stats.delivered_bits += player_copies.len() as u64;
            stats.redundant_bits += player_copies.len().saturating_sub(1) as u64;
            if player_copies.is_empty() {
                decoded.push(None);
                if !matches!(self.recovery, Recovery::None) {
                    stats.timeouts += 1;
                }
            } else {
                if first_copy_lost[i] {
                    stats.recovered += 1;
                }
                let accepts = player_copies.iter().filter(|&&b| b).count();
                decoded.push(Some(2 * accepts > player_copies.len()));
            }
        }

        // Phase 5: missing policy and decision.
        let effective: Vec<bool> = match self.missing_policy {
            MissingPolicy::AssumeAccept => decoded.iter().map(|b| b.unwrap_or(true)).collect(),
            MissingPolicy::AssumeReject => decoded.iter().map(|b| b.unwrap_or(false)).collect(),
            MissingPolicy::Exclude => decoded.iter().filter_map(|&b| b).collect(),
        };
        let verdict = if effective.is_empty() {
            Verdict::Accept
        } else {
            rule.decide(&effective)
        };

        stats.record();
        record_run(verdict, (k * q) as u64, stats.delivered_bits);

        ResilientOutcome {
            verdict,
            transcript: Transcript {
                messages: effective,
                samples_drawn: vec![q; k],
            },
            faults: stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::plan::{IidFaults, ReliablePlan};
    use super::*;
    use dut_probability::{families, Sampler};
    use rand::SeedableRng;

    /// The AND rule: reject iff any player rejects.
    const AND: DecisionRule = DecisionRule { min_rejects: 1 };

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn always_accept(_: usize, _: usize, _: &mut StdRng) -> bool {
        true
    }

    fn always_reject(_: usize, _: usize, _: &mut StdRng) -> bool {
        false
    }

    #[test]
    fn reliable_plan_is_faithful() {
        let net = ResilientNetwork::new(6, MissingPolicy::Exclude);
        let out = net.run(3, &AND, &mut ReliablePlan, &mut rng(1), always_reject);
        assert!(out.verdict.is_reject());
        assert_eq!(out.transcript.messages.len(), 6);
        assert_eq!(out.transcript.total_samples(), 18);
        assert_eq!(
            out.faults,
            FaultStats {
                delivered_bits: 6,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn total_loss_accepts_under_exclude() {
        let net = ResilientNetwork::new(4, MissingPolicy::Exclude);
        let mut plan = IidFaults::loss_only(1.0);
        let out = net.run(2, &AND, &mut plan, &mut rng(2), always_reject);
        assert!(out.verdict.is_accept());
        assert_eq!(out.transcript.messages.len(), 0);
        assert_eq!(out.faults.lost, 4);
        assert_eq!(out.faults.delivered_bits, 0);
        // Lost messages still consumed samples.
        assert_eq!(out.transcript.total_samples(), 8);
    }

    #[test]
    fn repetition_defeats_heavy_loss() {
        // 60% loss kills most single transmissions; 9 blind copies
        // essentially always get at least one through.
        let net = ResilientNetwork::new(8, MissingPolicy::AssumeAccept)
            .with_recovery(Recovery::Repetition { copies: 9 });
        let mut r = rng(3);
        for _ in 0..30 {
            let mut plan = IidFaults::loss_only(0.6);
            let out = net.run(1, &AND, &mut plan, &mut r, always_reject);
            assert!(out.verdict.is_reject());
            // Redundancy was delivered and charged.
            assert!(out.faults.redundant_bits > 0);
            assert!(out.faults.delivered_bits > 8 / 2);
            assert_eq!(out.faults.retries, 8 * 8);
        }
    }

    #[test]
    fn ack_retry_spends_only_on_losses() {
        let net = ResilientNetwork::new(8, MissingPolicy::AssumeAccept)
            .with_recovery(Recovery::AckRetry { max_attempts: 5 });
        // No faults: one attempt each, no retries, no redundancy.
        let out = net.run(1, &AND, &mut ReliablePlan, &mut rng(4), always_accept);
        assert_eq!(out.faults.retries, 0);
        assert_eq!(out.faults.redundant_bits, 0);
        assert_eq!(out.faults.delivered_bits, 8);
    }

    #[test]
    fn ack_retry_recovers_lost_bits_and_counts_them() {
        let net = ResilientNetwork::new(16, MissingPolicy::AssumeAccept)
            .with_recovery(Recovery::AckRetry { max_attempts: 12 });
        let mut r = rng(5);
        let mut saw_recovery = false;
        for _ in 0..20 {
            let mut plan = IidFaults::loss_only(0.5);
            let out = net.run(1, &AND, &mut plan, &mut r, always_reject);
            assert!(out.verdict.is_reject());
            if out.faults.recovered > 0 {
                saw_recovery = true;
                assert!(out.faults.retries > 0);
            }
            // Ack-retry delivers at most one copy per player.
            assert_eq!(out.faults.redundant_bits, 0);
            assert!(out.faults.delivered_bits <= 16);
        }
        assert!(saw_recovery, "50% loss never needed recovery in 20 runs");
    }

    #[test]
    fn timeouts_fire_when_recovery_budget_exhausted() {
        let net = ResilientNetwork::new(4, MissingPolicy::AssumeAccept)
            .with_recovery(Recovery::AckRetry { max_attempts: 3 });
        let mut plan = IidFaults::loss_only(1.0);
        let out = net.run(1, &AND, &mut plan, &mut rng(6), always_reject);
        assert_eq!(out.faults.timeouts, 4);
        assert_eq!(out.faults.lost, 12);
        assert_eq!(out.faults.retries, 8);
        // AssumeAccept: every silent player reads as accept.
        assert!(out.verdict.is_accept());
    }

    #[test]
    fn sample_stream_is_isolated_from_faults() {
        // Same caller RNG state, wildly different fault plans: every
        // player must draw the same samples, so runs are paired.
        let sampler = families::uniform(64).alias_sampler();
        let record = |plan: &mut dyn FaultPlan| {
            let mut counts = Vec::new();
            let out = ResilientNetwork::new(8, MissingPolicy::Exclude).run(
                12,
                &AND,
                plan,
                &mut rng(8),
                |_, q, rng| {
                    counts.push(sampler.collision_count(q, rng));
                    true
                },
            );
            (out, counts)
        };
        let (_, reliable_counts) = record(&mut ReliablePlan);
        let (faulty, faulty_counts) = record(&mut IidFaults::loss_only(0.9));
        assert!(faulty.faults.lost > 0, "no message was lost");
        assert_eq!(reliable_counts.len(), 8);
        assert_eq!(reliable_counts, faulty_counts);
    }

    #[test]
    fn majority_decoding_breaks_ties_toward_reject() {
        // A plan that flips every second copy of player 0 produces a
        // 1–1 tie over two repetition rounds; the decoder must read it
        // as reject.
        struct AlternatingCorruption {
            round: usize,
        }
        impl FaultPlan for AlternatingCorruption {
            fn deliver_round(
                &mut self,
                bits: &[Option<bool>],
                _rng: &mut StdRng,
            ) -> Vec<Option<bool>> {
                self.round += 1;
                bits.iter()
                    .map(|&b| b.map(|v| if self.round.is_multiple_of(2) { !v } else { v }))
                    .collect()
            }
        }
        let net = ResilientNetwork::new(1, MissingPolicy::Exclude)
            .with_recovery(Recovery::Repetition { copies: 2 });
        let out = net.run(
            1,
            &AND,
            &mut AlternatingCorruption { round: 0 },
            &mut rng(9),
            always_accept,
        );
        assert!(out.verdict.is_reject());
    }

    // iid message loss through `IidFaults`, the model the root
    // `fault_tolerance` tests measure at scale.

    #[test]
    fn fault_free_matches_reliable_network() {
        let net = ResilientNetwork::new(8, MissingPolicy::AssumeAccept);
        let out = net.run(
            2,
            &AND,
            &mut IidFaults::loss_only(0.0),
            &mut rng(1),
            always_reject,
        );
        assert!(out.verdict.is_reject());
        assert_eq!(out.transcript.messages.len(), 8);
    }

    #[test]
    fn and_rule_fragile_under_loss_with_assume_accept() {
        // One rejecting player among 8 accepting ones; 50% loss.
        // Whenever ITS message is lost, the alarm vanishes.
        let net = ResilientNetwork::new(8, MissingPolicy::AssumeAccept);
        let one_rejector = |player: usize, _: usize, _: &mut StdRng| player != 3;
        let mut plan = IidFaults::loss_only(0.5);
        let mut r = rng(2);
        let trials = 400;
        let rejected = (0..trials)
            .filter(|_| {
                net.run(1, &AND, &mut plan, &mut r, one_rejector)
                    .verdict
                    .is_reject()
            })
            .count();
        // Alarm survives only when the message survives: ~50%.
        let rate = rejected as f64 / f64::from(trials);
        assert!((0.35..0.65).contains(&rate), "alarm survival rate {rate}");
    }

    #[test]
    fn assume_reject_is_fail_safe_but_noisy() {
        let net = ResilientNetwork::new(8, MissingPolicy::AssumeReject);
        let mut plan = IidFaults::loss_only(0.5);
        let mut r = rng(3);
        // All players accept, but losses turn into rejects: AND almost
        // always rejects — false alarms.
        let trials = 200;
        let rejected = (0..trials)
            .filter(|_| {
                net.run(1, &AND, &mut plan, &mut r, always_accept)
                    .verdict
                    .is_reject()
            })
            .count();
        assert!(rejected > trials * 9 / 10, "rejected {rejected}/{trials}");
    }

    #[test]
    fn exclude_policy_shrinks_the_vote() {
        let net = ResilientNetwork::new(10, MissingPolicy::Exclude);
        let mut r = rng(4);
        let out = net.run(
            1,
            &AND,
            &mut IidFaults::loss_only(0.5),
            &mut r,
            always_accept,
        );
        assert!(out.transcript.messages.len() < 10);
        assert!(out.verdict.is_accept());
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_rejected() {
        let _ = ResilientNetwork::new(0, MissingPolicy::Exclude);
    }
}
