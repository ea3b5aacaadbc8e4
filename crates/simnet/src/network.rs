use crate::player::PlayerContext;
use crate::rule::{DecisionRule, Verdict};
use dut_obs::metrics::{Counter, HistogramId};
use rand::Rng;

/// Records one finished execution in the global metrics registry and,
/// at verbose trace level, emits a per-run event. Pure observation:
/// never touches the RNG, so instrumented runs are bit-identical to
/// uninstrumented ones.
///
/// [`Network`] calls it once per run; a protocol that runs its nodes
/// outside the network calls it once per run itself, with the samples
/// its nodes drew and the message bits they sent.
pub fn record_run(verdict: Verdict, samples: u64, bits: u64) {
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
/// input distribution, computes its bit, and the referee decides.
///
/// The network itself is stateless and reusable; all randomness comes
/// from the caller-provided RNG (sample draws) and from
/// [`PlayerContext::shared_seed`] (shared randomness), which is drawn
/// fresh from the RNG on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Network {
    num_players: usize,
}

/// The result of one protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The referee's verdict.
    pub verdict: Verdict,
    /// The execution transcript (player bits and sample counts).
    pub transcript: Transcript,
}

/// The observable record of one execution: what each player sent and how
/// many samples it consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transcript {
    /// The accept bits the referee counted (`true` = accept): one per
    /// player, except that a fault-injected run under
    /// [`MissingPolicy::Exclude`](crate::MissingPolicy::Exclude) keeps
    /// only the players it heard.
    pub accept_bits: Vec<bool>,
    /// Number of samples each player drew.
    pub samples_drawn: Vec<usize>,
    /// The shared-randomness seed used in this execution.
    pub shared_seed: u64,
}

impl Transcript {
    /// Number of players that rejected.
    #[must_use]
    pub fn reject_count(&self) -> usize {
        self.accept_bits.iter().filter(|&&b| !b).count()
    }

    /// Total samples drawn across all players.
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.samples_drawn.iter().sum()
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

    /// Runs the one-bit protocol with each node's bit computed by `node`
    /// from its context, its sample count and the run's RNG, from which
    /// it draws its own samples; a collision node draws straight into
    /// [`dut_probability::Sampler::collision_count`] without storing
    /// them. The shared seed is drawn first, then the nodes run in
    /// player order. Per-player sample counts give the asymmetric-cost
    /// model of §6.2.
    ///
    /// # Panics
    ///
    /// Panics if `sample_counts.len() != k`.
    pub fn run_nodes<R, F>(
        &self,
        sample_counts: Vec<usize>,
        rule: &DecisionRule,
        rng: &mut R,
        mut node: F,
    ) -> RunOutcome
    where
        R: Rng + ?Sized,
        F: FnMut(&PlayerContext, usize, &mut R) -> bool,
    {
        assert_eq!(
            sample_counts.len(),
            self.num_players,
            "need one sample count per player"
        );
        let shared_seed: u64 = rng.random();
        let accept_bits: Vec<bool> = sample_counts
            .iter()
            .enumerate()
            .map(|(player_id, &q)| {
                let ctx = PlayerContext {
                    player_id,
                    num_players: self.num_players,
                    shared_seed,
                };
                node(&ctx, q, rng)
            })
            .collect();
        let verdict = rule.decide(&accept_bits);
        record_run(
            verdict,
            sample_counts.iter().map(|&q| q as u64).sum(),
            self.num_players as u64,
        );
        RunOutcome {
            verdict,
            transcript: Transcript {
                accept_bits,
                samples_drawn: sample_counts,
                shared_seed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::{families, Sampler};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    /// A node that accepts iff every one of its samples is below 8.
    fn accept_if_small<S: Sampler>(
        sampler: &S,
    ) -> impl FnMut(&PlayerContext, usize, &mut rand::rngs::StdRng) -> bool + '_ {
        |_ctx, q, rng| sampler.sample_many(q, rng).iter().all(|&s| s < 8)
    }

    #[test]
    fn run_records_bits_and_sample_counts() {
        let net = Network::new(5);
        let sampler = families::uniform(16).alias_sampler();
        let out = net.run_nodes(
            vec![3; 5],
            &DecisionRule::And,
            &mut rng(),
            accept_if_small(&sampler),
        );
        assert_eq!(out.transcript.samples_drawn, vec![3; 5]);
        assert_eq!(out.transcript.total_samples(), 15);
        assert_eq!(out.transcript.accept_bits.len(), 5);
    }

    #[test]
    fn and_rule_end_to_end() {
        let net = Network::new(4);
        // All mass on small elements: every player accepts.
        let low = families::uniform_on_prefix(16, 4).unwrap().alias_sampler();
        let out = net.run_nodes(
            vec![5; 4],
            &DecisionRule::And,
            &mut rng(),
            accept_if_small(&low),
        );
        assert_eq!(out.verdict, Verdict::Accept);
        assert_eq!(out.transcript.reject_count(), 0);

        // All mass on large elements: every player rejects.
        let hi = families::point_mass(16, 12).unwrap().alias_sampler();
        let out = net.run_nodes(
            vec![5; 4],
            &DecisionRule::And,
            &mut rng(),
            accept_if_small(&hi),
        );
        assert_eq!(out.verdict, Verdict::Reject);
        assert_eq!(out.transcript.reject_count(), 4);
    }

    #[test]
    fn nodes_see_their_ids_counts_and_one_shared_seed() {
        let net = Network::new(3);
        let mut seen = Vec::new();
        let out = net.run_nodes(
            vec![1, 5, 9],
            &DecisionRule::And,
            &mut rng(),
            |ctx, q, _| {
                seen.push((ctx.player_id, q, ctx.shared_seed));
                true
            },
        );
        assert_eq!(
            seen.iter().map(|&(id, q, _)| (id, q)).collect::<Vec<_>>(),
            vec![(0, 1), (1, 5), (2, 9)]
        );
        assert!(seen
            .iter()
            .all(|&(_, _, s)| s == out.transcript.shared_seed));
    }

    #[test]
    fn shared_seed_changes_between_runs() {
        let net = Network::new(1);
        let mut r = rng();
        let a = net.run_nodes(vec![1], &DecisionRule::And, &mut r, |_, _, _| true);
        let b = net.run_nodes(vec![1], &DecisionRule::And, &mut r, |_, _, _| true);
        assert_ne!(a.transcript.shared_seed, b.transcript.shared_seed);
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_panics() {
        let _ = Network::new(0);
    }

    #[test]
    #[should_panic(expected = "one sample count per player")]
    fn mismatched_counts_panic() {
        let _ = Network::new(2).run_nodes(vec![1], &DecisionRule::And, &mut rng(), |_, _, _| true);
    }
}
