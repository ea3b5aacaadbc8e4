use crate::rule::Verdict;
use dut_obs::metrics::{Counter, HistogramId};
use rand::Rng;

/// Records one finished execution in the global metrics registry and,
/// at verbose trace level, emits a per-run event. Pure observation:
/// never touches the RNG, so instrumented runs are bit-identical to
/// uninstrumented ones.
///
/// The two star loops, [`Network::run_nodes`] and
/// [`ResilientNetwork::run`](crate::ResilientNetwork::run), are its only
/// callers, once per run each, so every protocol's runs, samples and
/// message bits are counted in one place.
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
/// decides on the messages.
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
    /// The messages the referee decided on: one per player, except that
    /// a fault-injected run under
    /// [`MissingPolicy::Exclude`](crate::MissingPolicy::Exclude) keeps
    /// only the players it heard. One-bit protocols send accept bits
    /// (`true` = accept).
    pub messages: Vec<M>,
    /// Number of samples each player drew.
    pub samples_drawn: Vec<usize>,
}

impl<M> Transcript<M> {
    /// Total samples drawn across all players.
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.samples_drawn.iter().sum()
    }
}

impl Transcript<bool> {
    /// Number of players that rejected.
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
        assert_eq!(r.random::<u64>(), rng().random::<u64>());
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
