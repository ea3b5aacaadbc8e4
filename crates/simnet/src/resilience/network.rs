//! The fault-aware network: [`ResilientNetwork`] runs the one-bit
//! protocol under an arbitrary [`FaultPlan`] with optional
//! [`Recovery`], and accounts honestly for everything that happened.

use super::plan::FaultPlan;
use super::recovery::Recovery;
use crate::message::Message;
use crate::network::{record_run, Transcript};
use crate::player::{Player, PlayerContext};
use crate::rule::{DecisionRule, Verdict};
use dut_obs::metrics::Counter;
use dut_probability::Sampler;
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
    Exclude,
}

/// Everything that went wrong (and was repaired) in one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Players that crashed before transmitting.
    pub crashed: u64,
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
        registry.add(Counter::FaultsCrashed, self.crashed);
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
    pub transcript: Transcript,
    /// Fault and recovery accounting for this execution.
    pub faults: FaultStats,
}

/// A simultaneous-message network whose executions pass through a
/// pluggable [`FaultPlan`], with referee-side [`Recovery`] and a
/// [`MissingPolicy`] for players it never hears from.
///
/// # Randomness
///
/// Each run derives three independent streams from the caller's RNG:
/// the shared-randomness seed, a *sampling* stream and a *fault*
/// stream. Sampling always draws `q` values per player from its own
/// stream (truncating for partial crashes), so the samples a player
/// would see are identical across fault models, rates and recovery
/// settings for a fixed caller RNG state — fault sweeps are paired
/// experiments by construction (see the [`plan`](super::plan) module
/// docs for the coupling discipline on the fault side).
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

    /// The missing-bit policy.
    #[must_use]
    pub fn missing_policy(&self) -> MissingPolicy {
        self.missing_policy
    }

    /// The recovery mechanism.
    #[must_use]
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// Runs one execution of the one-bit protocol under `plan`.
    ///
    /// Phases: `begin_run` → per-player `pre_sample` + sampling →
    /// bit computation → `corrupt` (Byzantine) → up to
    /// `Recovery::rounds` transmission rounds through
    /// `deliver_round` → majority decoding (ties decode to *reject*,
    /// the fail-safe direction) → missing policy → decision rule.
    ///
    /// If every bit is missing under [`MissingPolicy::Exclude`] the
    /// referee accepts (it has no evidence to act on).
    pub fn run<S, P, F, R>(
        &self,
        sampler: &S,
        samples_per_player: usize,
        player: &P,
        rule: &DecisionRule,
        plan: &mut F,
        rng: &mut R,
    ) -> ResilientOutcome
    where
        S: Sampler,
        P: Player + ?Sized,
        F: FaultPlan + ?Sized,
        R: Rng + ?Sized,
    {
        let k = self.num_players;
        let q = samples_per_player;
        let shared_seed: u64 = rng.random();
        let mut sample_rng = StdRng::seed_from_u64(rng.random());
        let mut fault_rng = StdRng::seed_from_u64(rng.random());
        let mut stats = FaultStats::default();

        plan.begin_run(k, &mut fault_rng);

        // Phase 1: sampling and bit computation. The sample stream
        // always advances by exactly q per player.
        let mut bits: Vec<Option<bool>> = Vec::with_capacity(k);
        let mut samples_drawn = Vec::with_capacity(k);
        for player_id in 0..k {
            let pre = plan.pre_sample(player_id, q, &mut fault_rng);
            let samples = sampler.sample_many(q, &mut sample_rng);
            if pre.sends {
                let ctx = PlayerContext {
                    player_id,
                    num_players: k,
                    shared_seed,
                };
                bits.push(Some(player.accepts(&ctx, &samples)));
                samples_drawn.push(q);
            } else {
                bits.push(None);
                samples_drawn.push(pre.samples.min(q));
                stats.crashed += 1;
            }
        }

        // Phase 2: source corruption.
        stats.byzantine_flips = plan.corrupt(&mut bits, &mut fault_rng);

        // Phase 3: transmission rounds.
        let mut copies: Vec<Vec<bool>> = vec![Vec::new(); k];
        let mut first_copy_lost = vec![false; k];
        for round in 0..self.recovery.rounds() {
            let sending: Vec<Option<bool>> = bits
                .iter()
                .enumerate()
                .map(|(i, &bit)| {
                    bit.filter(|_| !self.recovery.stops_after_ack() || copies[i].is_empty())
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
                if bits[i].is_some() && !matches!(self.recovery, Recovery::None) {
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
        record_run(
            verdict,
            samples_drawn.iter().map(|&s| s as u64).sum(),
            stats.delivered_bits,
        );

        let messages = effective
            .iter()
            .map(|&b| Message::from_accept_bit(b))
            .collect();
        ResilientOutcome {
            verdict,
            transcript: Transcript {
                messages,
                samples_drawn,
                shared_seed,
            },
            faults: stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::plan::{IidFaults, PartialCrash, ReliablePlan};
    use super::*;
    use dut_probability::families;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    struct AlwaysAccept;
    impl Player for AlwaysAccept {
        fn accepts(&self, _: &PlayerContext, _: &[usize]) -> bool {
            true
        }
    }

    struct AlwaysReject;
    impl Player for AlwaysReject {
        fn accepts(&self, _: &PlayerContext, _: &[usize]) -> bool {
            false
        }
    }

    #[test]
    fn reliable_plan_is_faithful() {
        let net = ResilientNetwork::new(6, MissingPolicy::Exclude);
        let sampler = families::uniform(8).alias_sampler();
        let out = net.run(
            &sampler,
            3,
            &AlwaysReject,
            &DecisionRule::And,
            &mut ReliablePlan,
            &mut rng(1),
        );
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
        let sampler = families::uniform(8).alias_sampler();
        let mut plan = IidFaults::loss_only(1.0);
        let out = net.run(
            &sampler,
            2,
            &AlwaysReject,
            &DecisionRule::And,
            &mut plan,
            &mut rng(2),
        );
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
        let sampler = families::uniform(8).alias_sampler();
        let mut r = rng(3);
        for _ in 0..30 {
            let mut plan = IidFaults::loss_only(0.6);
            let out = net.run(
                &sampler,
                1,
                &AlwaysReject,
                &DecisionRule::And,
                &mut plan,
                &mut r,
            );
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
        let sampler = families::uniform(8).alias_sampler();
        // No faults: one attempt each, no retries, no redundancy.
        let out = net.run(
            &sampler,
            1,
            &AlwaysAccept,
            &DecisionRule::And,
            &mut ReliablePlan,
            &mut rng(4),
        );
        assert_eq!(out.faults.retries, 0);
        assert_eq!(out.faults.redundant_bits, 0);
        assert_eq!(out.faults.delivered_bits, 8);
    }

    #[test]
    fn ack_retry_recovers_lost_bits_and_counts_them() {
        let net = ResilientNetwork::new(16, MissingPolicy::AssumeAccept)
            .with_recovery(Recovery::AckRetry { max_attempts: 12 });
        let sampler = families::uniform(8).alias_sampler();
        let mut r = rng(5);
        let mut saw_recovery = false;
        for _ in 0..20 {
            let mut plan = IidFaults::loss_only(0.5);
            let out = net.run(
                &sampler,
                1,
                &AlwaysReject,
                &DecisionRule::And,
                &mut plan,
                &mut r,
            );
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
        let sampler = families::uniform(8).alias_sampler();
        let mut plan = IidFaults::loss_only(1.0);
        let out = net.run(
            &sampler,
            1,
            &AlwaysReject,
            &DecisionRule::And,
            &mut plan,
            &mut rng(6),
        );
        assert_eq!(out.faults.timeouts, 4);
        assert_eq!(out.faults.lost, 12);
        assert_eq!(out.faults.retries, 8);
        // AssumeAccept: every silent player reads as accept.
        assert!(out.verdict.is_accept());
    }

    #[test]
    fn partial_crash_charges_sample_prefix() {
        let net = ResilientNetwork::new(10, MissingPolicy::Exclude);
        let sampler = families::uniform(8).alias_sampler();
        let mut plan = PartialCrash::new(1.0);
        let out = net.run(
            &sampler,
            10,
            &AlwaysAccept,
            &DecisionRule::And,
            &mut plan,
            &mut rng(7),
        );
        assert_eq!(out.faults.crashed, 10);
        // Prefixes are strictly below q but the budget is still charged.
        assert!(out.transcript.samples_drawn.iter().all(|&s| s < 10));
        assert!(out.verdict.is_accept());
    }

    #[test]
    fn sample_stream_is_isolated_from_faults() {
        // Same caller RNG state, wildly different fault plans: the
        // shared seed and each player's sample budget positions must
        // coincide, so runs are paired.
        let sampler = families::uniform(64).alias_sampler();
        let reliable = ResilientNetwork::new(8, MissingPolicy::Exclude).run(
            &sampler,
            4,
            &AlwaysAccept,
            &DecisionRule::And,
            &mut ReliablePlan,
            &mut rng(8),
        );
        let mut lossy = IidFaults::loss_only(0.9);
        let faulty = ResilientNetwork::new(8, MissingPolicy::Exclude).run(
            &sampler,
            4,
            &AlwaysAccept,
            &DecisionRule::And,
            &mut lossy,
            &mut rng(8),
        );
        assert_eq!(
            reliable.transcript.shared_seed,
            faulty.transcript.shared_seed
        );
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
            fn label(&self) -> String {
                "alternating".to_owned()
            }
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
        let sampler = families::uniform(8).alias_sampler();
        let out = net.run(
            &sampler,
            1,
            &AlwaysAccept,
            &DecisionRule::And,
            &mut AlternatingCorruption { round: 0 },
            &mut rng(9),
        );
        assert!(out.verdict.is_reject());
    }

    // iid crashes and message loss through `IidFaults`, the model the
    // root `fault_tolerance` tests measure at scale.

    #[test]
    fn fault_free_matches_reliable_network() {
        let net = ResilientNetwork::new(8, MissingPolicy::AssumeAccept);
        let sampler = families::uniform(16).alias_sampler();
        let out = net.run(
            &sampler,
            2,
            &AlwaysReject,
            &DecisionRule::And,
            &mut IidFaults::new(0.0, 0.0),
            &mut rng(1),
        );
        assert!(out.verdict.is_reject());
        assert_eq!(out.transcript.messages.len(), 8);
    }

    #[test]
    fn and_rule_fragile_under_loss_with_assume_accept() {
        // One rejecting player among 8 accepting ones; 50% loss.
        // Whenever ITS message is lost, the alarm vanishes.
        let net = ResilientNetwork::new(8, MissingPolicy::AssumeAccept);
        let sampler = families::uniform(16).alias_sampler();
        let one_rejector = |ctx: &PlayerContext, _: &[usize]| ctx.player_id != 3;
        let mut plan = IidFaults::new(0.0, 0.5);
        let mut r = rng(2);
        let trials = 400;
        let rejected = (0..trials)
            .filter(|_| {
                net.run(
                    &sampler,
                    1,
                    &one_rejector,
                    &DecisionRule::And,
                    &mut plan,
                    &mut r,
                )
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
        let sampler = families::uniform(16).alias_sampler();
        let mut plan = IidFaults::new(0.0, 0.5);
        let mut r = rng(3);
        // All players accept, but losses turn into rejects: AND almost
        // always rejects — false alarms.
        let trials = 200;
        let rejected = (0..trials)
            .filter(|_| {
                net.run(
                    &sampler,
                    1,
                    &AlwaysAccept,
                    &DecisionRule::And,
                    &mut plan,
                    &mut r,
                )
                .verdict
                .is_reject()
            })
            .count();
        assert!(rejected > trials * 9 / 10, "rejected {rejected}/{trials}");
    }

    #[test]
    fn exclude_policy_shrinks_the_vote() {
        let net = ResilientNetwork::new(10, MissingPolicy::Exclude);
        let sampler = families::uniform(16).alias_sampler();
        let mut r = rng(4);
        let out = net.run(
            &sampler,
            1,
            &AlwaysAccept,
            &DecisionRule::Majority,
            &mut IidFaults::new(0.5, 0.0),
            &mut r,
        );
        assert!(out.transcript.messages.len() < 10);
        assert!(out.verdict.is_accept());
    }

    #[test]
    fn total_silence_accepts_under_exclude() {
        let net = ResilientNetwork::new(4, MissingPolicy::Exclude);
        let sampler = families::uniform(4).alias_sampler();
        let out = net.run(
            &sampler,
            1,
            &AlwaysReject,
            &DecisionRule::And,
            &mut IidFaults::new(1.0, 0.0),
            &mut rng(5),
        );
        assert!(out.verdict.is_accept());
        assert_eq!(out.transcript.messages.len(), 0);
        // Crashed players drew no samples.
        assert_eq!(out.transcript.total_samples(), 0);
    }

    #[test]
    fn combined_crash_and_loss_compound() {
        // Both fault modes at once: crashes suppress sampling entirely,
        // losses consume samples but drop the bit. Under AssumeReject
        // every fault of either kind turns into a reject vote.
        let net = ResilientNetwork::new(12, MissingPolicy::AssumeReject);
        let sampler = families::uniform(16).alias_sampler();
        let mut plan = IidFaults::new(0.3, 0.3);
        let mut r = rng(6);
        let trials = 300;
        let mut rejected = 0usize;
        let mut zero_sample_players = 0usize;
        let mut partial_sample_runs = 0usize;
        for _ in 0..trials {
            let out = net.run(
                &sampler,
                2,
                &AlwaysAccept,
                &DecisionRule::And,
                &mut plan,
                &mut r,
            );
            if out.verdict.is_reject() {
                rejected += 1;
            }
            let zeros = out
                .transcript
                .samples_drawn
                .iter()
                .filter(|&&q| q == 0)
                .count();
            zero_sample_players += zeros;
            // Lost messages consumed samples without being counted in
            // the vote: transcript shows fewer messages than sampling
            // players.
            if out.transcript.messages.len() < 12 - zeros {
                partial_sample_runs += 1;
            }
        }
        // P(all 12 players survive both faults) = (0.7 * 0.7)^12 ≈ 2e-4,
        // so AND under AssumeReject should essentially always reject.
        assert!(rejected > trials * 9 / 10, "rejected {rejected}/{trials}");
        // Crashes happened (~30% of 12 * 300 = 1080 expected).
        assert!(zero_sample_players > 500, "{zero_sample_players} crashes");
        // AssumeReject keeps every player in the vote, so messages are
        // never fewer than the number of non-crashed players.
        assert_eq!(partial_sample_runs, 0);
    }

    #[test]
    fn combined_faults_with_exclude_shrink_transcript() {
        let net = ResilientNetwork::new(12, MissingPolicy::Exclude);
        let sampler = families::uniform(16).alias_sampler();
        let mut plan = IidFaults::new(0.4, 0.4);
        let mut r = rng(7);
        let mut saw_shrunk_vote = false;
        for _ in 0..50 {
            let out = net.run(
                &sampler,
                1,
                &AlwaysAccept,
                &DecisionRule::Majority,
                &mut plan,
                &mut r,
            );
            let crashes = out
                .transcript
                .samples_drawn
                .iter()
                .filter(|&&q| q == 0)
                .count();
            assert!(out.transcript.messages.len() <= 12 - crashes);
            if out.transcript.messages.len() < 12 - crashes {
                saw_shrunk_vote = true; // a non-crashed player's message was lost
            }
        }
        assert!(
            saw_shrunk_vote,
            "40% loss never dropped a message in 50 runs"
        );
    }

    #[test]
    fn crash_probability_validated() {
        let m = IidFaults::new(0.1, 0.2);
        assert!((m.crash_probability() - 0.1).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_probability() {
        let _ = IidFaults::new(1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_rejected() {
        let _ = ResilientNetwork::new(0, MissingPolicy::Exclude);
    }
}
