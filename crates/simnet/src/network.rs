use crate::rule::{DecisionRule, Verdict};
use dut_obs::metrics::{Counter, HistogramId};
use rand::Rng;

/// Records one finished execution in the global metrics registry and,
/// at verbose trace level, emits a per-run event. Pure observation:
/// never touches the RNG, so instrumented runs are bit-identical to
/// uninstrumented ones.
///
/// The three star loops, [`Network::run_nodes`],
/// [`Network::run_until_settled`] and
/// [`ResilientNetwork::run`](crate::ResilientNetwork::run), are its only
/// callers, once per run each, so every protocol's runs, samples and
/// message bits are counted in one place. `samples` and `bits` are what
/// the run's nodes drew and sent: a run that stops once its referee's
/// verdict is settled counts only the nodes it ran.
pub(crate) fn record_run(verdict: Verdict, samples: u64, bits: u64) {
    let registry = dut_obs::metrics::global();
    registry.incr(Counter::NetRuns);
    registry.add(Counter::SamplesDrawn, samples);
    registry.add(Counter::BitsSent, bits);
    registry.incr(if verdict.is_accept() {
        Counter::VerdictAccept
    } else {
        Counter::VerdictReject
    });
    registry.observe(HistogramId::RunSamples, samples);
    dut_obs::global().emit_verbose_with(|| {
        dut_obs::Event::new("net_run")
            .with("accept", verdict.is_accept())
            .with("samples", samples)
            .with("bits", bits)
    });
}

/// A simultaneous-message network of `k` sampling players and a referee.
///
/// One [`Network::run_nodes`] call simulates a single execution of a
/// protocol: every player draws its samples from the (common, unknown)
/// input distribution and computes its message, and the referee
/// decides on the messages. One-bit counting protocols run on
/// [`Network::run_until_settled`] instead, which stops at the first
/// player after which the referee's verdict can no longer change.
///
/// The network itself is stateless and reusable; all randomness comes
/// from the caller-provided RNG. It draws no shared randomness: a
/// protocol that uses some (the single-sample protocol's shared
/// partition) draws its own seed before it runs its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Network {
    num_players: usize,
}

/// The result of one protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome<M> {
    /// The referee's verdict.
    pub verdict: Verdict,
    /// The execution transcript (messages and sample counts).
    pub transcript: Transcript<M>,
}

/// The observable record of one execution: what each player sent and how
/// many samples it consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transcript<M> {
    /// The messages the referee decided on, in player order. A
    /// [`Network::run_nodes`] run holds one per player. A
    /// [`Network::run_until_settled`] run holds the prefix of players
    /// the referee heard before its verdict was settled. A
    /// fault-injected run under
    /// [`MissingPolicy::Exclude`](crate::MissingPolicy::Exclude) keeps
    /// only the players it heard. One-bit protocols send accept bits
    /// (`true` = accept).
    pub messages: Vec<M>,
    /// Number of samples each player that ran drew: one entry per
    /// player on [`Network::run_nodes`] and the fault-injected star,
    /// one per message on [`Network::run_until_settled`].
    pub samples_drawn: Vec<usize>,
}

impl<M> Transcript<M> {
    /// Total samples drawn across the players that ran.
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.samples_drawn.iter().sum()
    }
}

impl Transcript<bool> {
    /// Number of players in the transcript that rejected.
    #[must_use]
    pub fn reject_count(&self) -> usize {
        self.messages.iter().filter(|&&b| !b).count()
    }
}

impl Network {
    /// A network with `num_players` players.
    ///
    /// # Panics
    ///
    /// Panics if `num_players == 0`.
    #[must_use]
    pub fn new(num_players: usize) -> Self {
        assert!(num_players > 0, "network needs at least one player");
        Self { num_players }
    }

    /// Number of players `k`.
    #[must_use]
    pub fn num_players(&self) -> usize {
        self.num_players
    }

    /// Runs one execution. The nodes run in player order: `node` gets
    /// the player's index, its sample count and the run's RNG, draws
    /// its own samples from the RNG (a collision node draws straight
    /// into [`dut_probability::Sampler::collision_count`] without
    /// storing them) and returns its `message_bits`-bit message. Then
    /// `referee` decides on the `k` messages. Per-player sample counts
    /// give the asymmetric-cost model of §6.2.
    ///
    /// The run is counted once in the metrics registry, with `Σq`
    /// samples and `k·message_bits` bits sent.
    ///
    /// # Panics
    ///
    /// Panics if `sample_counts.len() != k`.
    pub fn run_nodes<M, R, N, D>(
        &self,
        sample_counts: Vec<usize>,
        message_bits: u8,
        rng: &mut R,
        mut node: N,
        referee: D,
    ) -> RunOutcome<M>
    where
        R: Rng + ?Sized,
        N: FnMut(usize, usize, &mut R) -> M,
        D: FnOnce(&[M]) -> Verdict,
    {
        assert_eq!(
            sample_counts.len(),
            self.num_players,
            "need one sample count per player"
        );
        let messages: Vec<M> = sample_counts
            .iter()
            .enumerate()
            .map(|(player, &q)| node(player, q, rng))
            .collect();
        let verdict = referee(&messages);
        record_run(
            verdict,
            sample_counts.iter().map(|&q| q as u64).sum(),
            self.num_players as u64 * u64::from(message_bits),
        );
        RunOutcome {
            verdict,
            transcript: Transcript {
                messages,
                samples_drawn: sample_counts,
            },
        }
    }

    /// Runs one execution of a one-bit counting protocol, stopping as
    /// soon as `rule` is settled. Player 0, 1, … run in order on the
    /// run's RNG: `node` gets the player's index, `q` and the RNG, draws
    /// its samples and returns its accept bit. Before each player runs,
    /// [`DecisionRule::settled`] is asked whether the rejections so far
    /// and the players still unheard fix the verdict; the first time
    /// they do, the run ends there, and no later player draws a sample.
    ///
    /// The verdict is the one [`DecisionRule::decide`] gives on every
    /// player's bit, because no unheard bit could change it. The RNG is
    /// left where the last player that ran left it, so a caller that
    /// reuses it for a later run draws from a different stream than a
    /// run of every node would leave. The transcript holds the players
    /// heard, and the run is counted once in the metrics registry with
    /// their `q` samples and one bit each.
    pub fn run_until_settled<R, N>(
        &self,
        q: usize,
        rule: &DecisionRule,
        rng: &mut R,
        mut node: N,
    ) -> RunOutcome<bool>
    where
        R: Rng + ?Sized,
        N: FnMut(usize, usize, &mut R) -> bool,
    {
        let mut messages = Vec::with_capacity(self.num_players);
        let mut rejects = 0;
        let verdict = loop {
            if let Some(verdict) = rule.settled(rejects, self.num_players - messages.len()) {
                break verdict;
            }
            let accept = node(messages.len(), q, rng);
            rejects += usize::from(!accept);
            messages.push(accept);
        };
        let heard = messages.len();
        record_run(verdict, (heard * q) as u64, heard as u64);
        RunOutcome {
            verdict,
            transcript: Transcript {
                messages,
                samples_drawn: vec![q; heard],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::DecisionRule;
    use dut_probability::{families, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// A node that accepts iff every one of its samples is below 8.
    fn accept_if_small<S: Sampler>(
        sampler: &S,
    ) -> impl FnMut(usize, usize, &mut StdRng) -> bool + '_ {
        |_, q, rng| sampler.sample_many(q, rng).iter().all(|&s| s < 8)
    }

    fn and(bits: &[bool]) -> Verdict {
        DecisionRule { min_rejects: 1 }.decide(bits)
    }

    #[test]
    fn run_records_bits_and_sample_counts() {
        let net = Network::new(5);
        let sampler = families::uniform(16).alias_sampler();
        let out = net.run_nodes(vec![3; 5], 1, &mut rng(), accept_if_small(&sampler), and);
        assert_eq!(out.transcript.samples_drawn, vec![3; 5]);
        assert_eq!(out.transcript.total_samples(), 15);
        assert_eq!(out.transcript.messages.len(), 5);
    }

    #[test]
    fn and_rule_end_to_end() {
        let net = Network::new(4);
        // All mass on small elements: every player accepts.
        let low = families::uniform_on_prefix(16, 4).unwrap().alias_sampler();
        let out = net.run_nodes(vec![5; 4], 1, &mut rng(), accept_if_small(&low), and);
        assert_eq!(out.verdict, Verdict::Accept);
        assert_eq!(out.transcript.reject_count(), 0);

        // All mass on large elements: every player rejects.
        let hi = families::point_mass(16, 12).unwrap().alias_sampler();
        let out = net.run_nodes(vec![5; 4], 1, &mut rng(), accept_if_small(&hi), and);
        assert_eq!(out.verdict, Verdict::Reject);
        assert_eq!(out.transcript.reject_count(), 4);
    }

    #[test]
    fn referee_sees_every_node_message_in_player_order() {
        let net = Network::new(3);
        let mut heard = Vec::new();
        let out = net.run_nodes(
            vec![1, 5, 9],
            4,
            &mut rng(),
            |player, q, _| (player, q),
            |messages| {
                heard = messages.to_vec();
                Verdict::Accept
            },
        );
        assert_eq!(heard, vec![(0, 1), (1, 5), (2, 9)]);
        assert_eq!(out.transcript.messages, heard);
    }

    #[test]
    fn network_draws_no_randomness_of_its_own() {
        let mut r = rng();
        let _ = Network::new(4).run_nodes(vec![2; 4], 1, &mut r, |_, _, _| true, and);
        let rule = DecisionRule { min_rejects: 2 };
        let _ = Network::new(4).run_until_settled(2, &rule, &mut r, |_, _, _| true);
        assert_eq!(r.random::<u64>(), rng().random::<u64>());
    }

    #[test]
    fn settled_run_stops_at_the_player_that_fixes_the_verdict() {
        let bits = [true, false, true, false, false];
        let run = |min_rejects| {
            Network::new(5).run_until_settled(
                7,
                &DecisionRule { min_rejects },
                &mut rng(),
                |player, q, _| {
                    assert_eq!(q, 7);
                    bits[player]
                },
            )
        };
        // The second rejection, at player 3, settles a reject.
        let out = run(2);
        assert_eq!(out.verdict, Verdict::Reject);
        assert_eq!(out.transcript.messages, bits[..4]);
        assert_eq!(out.transcript.samples_drawn, vec![7; 4]);
        // Three rejections need players 1, 3 and 4: every player runs.
        let out = run(3);
        assert_eq!(out.verdict, Verdict::Reject);
        assert_eq!(out.transcript.messages, bits);
        // Four cannot be reached once player 2 accepts as well.
        let out = run(4);
        assert_eq!(out.verdict, Verdict::Accept);
        assert_eq!(out.transcript.messages, bits[..3]);
        // A threshold above the player count is settled before anyone runs.
        let out = run(6);
        assert_eq!(out.verdict, Verdict::Accept);
        assert!(out.transcript.messages.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_panics() {
        let _ = Network::new(0);
    }

    #[test]
    #[should_panic(expected = "one sample count per player")]
    fn mismatched_counts_panic() {
        let _ = Network::new(2).run_nodes(vec![1], 1, &mut rng(), |_, _, _| true, and);
    }
}
