use crate::bits::PackedBits;
use crate::message::Message;
use crate::player::{CountPlayer, Player, PlayerContext};
use crate::rule::{DecisionRule, Verdict};
use dut_obs::metrics::{Counter, Gauge, HistogramId};
use dut_probability::{DualSampler, SampleBackend, Sampler};
use dut_stats::seed::derive_seed;
use rand::{Rng, SeedableRng};

/// Estimated sampling work (cost-model nanoseconds summed over all
/// players) below which [`Network::run_counts`] stays sequential even
/// when threads are available: spawning scoped threads costs tens of
/// microseconds, so tiny runs — the typical served request — must not
/// pay it.
const PARALLEL_MIN_WORK_NS: f64 = 200_000.0;

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
/// One [`Network::run`] call simulates a single execution of a protocol:
/// every player draws its samples from the (common, unknown) input
/// distribution, computes its bit/message, and the referee decides.
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
    /// Message sent by each player.
    pub messages: Vec<Message>,
    /// Number of samples each player drew.
    pub samples_drawn: Vec<usize>,
    /// The shared-randomness seed used in this execution.
    pub shared_seed: u64,
}

impl Transcript {
    /// The accept bits, when every message is one bit.
    ///
    /// # Panics
    ///
    /// Panics if any message is longer than one bit.
    #[must_use]
    pub fn accept_bits(&self) -> Vec<bool> {
        self.messages.iter().map(Message::as_accept_bit).collect()
    }

    /// Number of players that rejected (one-bit messages only).
    ///
    /// # Panics
    ///
    /// Panics if any message is longer than one bit.
    #[must_use]
    pub fn reject_count(&self) -> usize {
        self.accept_bits().iter().filter(|&&b| !b).count()
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

    /// Runs the one-bit protocol: every player draws `samples_per_player`
    /// samples, all players run the same (anonymous) decision function,
    /// and the referee applies `rule`.
    pub fn run<S, P, R>(
        &self,
        sampler: &S,
        samples_per_player: usize,
        player: &P,
        rule: &DecisionRule,
        rng: &mut R,
    ) -> RunOutcome
    where
        S: Sampler,
        P: Player + ?Sized,
        R: Rng + ?Sized,
    {
        let qs = vec![samples_per_player; self.num_players];
        self.run_with_sample_counts(sampler, &qs, player, rule, rng)
    }

    /// Runs the one-bit protocol with per-player sample counts (the
    /// asymmetric-cost model of §6.2).
    ///
    /// # Panics
    ///
    /// Panics if `sample_counts.len() != k`.
    pub fn run_with_sample_counts<S, P, R>(
        &self,
        sampler: &S,
        sample_counts: &[usize],
        player: &P,
        rule: &DecisionRule,
        rng: &mut R,
    ) -> RunOutcome
    where
        S: Sampler,
        P: Player + ?Sized,
        R: Rng + ?Sized,
    {
        self.run_nodes(sample_counts.to_vec(), rule, rng, |ctx, q, rng| {
            player.accepts(ctx, &sampler.sample_many(q, rng))
        })
    }

    /// Runs the one-bit protocol with each node's bit computed by `node`
    /// from its context, its sample count and the run's RNG, from which
    /// it draws its own samples. The shared seed is drawn first, then
    /// the nodes run in player order, so `node` decides how a node
    /// draws: [`Network::run_with_sample_counts`] hands a [`Player`] its
    /// sample vector, while a collision node can draw straight into
    /// [`Sampler::collision_count`] without storing its samples.
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
        let mut messages = Vec::with_capacity(self.num_players);
        let mut bits = PackedBits::with_capacity(self.num_players);
        for (player_id, &q) in sample_counts.iter().enumerate() {
            let ctx = PlayerContext {
                player_id,
                num_players: self.num_players,
                shared_seed,
            };
            let accept = node(&ctx, q, rng);
            bits.push(accept);
            messages.push(Message::from_accept_bit(accept));
        }
        let verdict = rule.decide_packed(&bits);
        record_run(
            verdict,
            sample_counts.iter().map(|&q| q as u64).sum(),
            self.num_players as u64,
        );
        RunOutcome {
            verdict,
            transcript: Transcript {
                messages,
                samples_drawn: sample_counts,
                shared_seed,
            },
        }
    }

    /// Runs the one-bit protocol for count-consuming players: every
    /// player receives its `q`-sample occupancy histogram, realized by
    /// the chosen [`SampleBackend`] — either by binning per-draw samples
    /// or through the O(n + q) conditional-binomial fast path
    /// (`Auto` resolves through the cost model first). Both backends
    /// produce Multinomial(q, p)-distributed histograms, so verdict
    /// distributions are identical in law.
    ///
    /// Each player draws from its own RNG stream derived from the
    /// caller's RNG (one seed per run, split per player with
    /// [`derive_seed`]), which makes runs independent of player
    /// execution order. Large runs exploit that: when the cost model
    /// estimates enough sampling work, players are drawn data-parallel
    /// on up to [`dut_stats::runner::available_threads`] scoped
    /// threads, with results bit-identical to the sequential path at
    /// any thread count.
    pub fn run_counts<P, R>(
        &self,
        sampler: &DualSampler,
        backend: SampleBackend,
        samples_per_player: usize,
        player: &P,
        rule: &DecisionRule,
        rng: &mut R,
    ) -> RunOutcome
    where
        P: CountPlayer + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        self.run_counts_with_threads(
            sampler,
            backend,
            samples_per_player,
            player,
            rule,
            dut_stats::runner::available_threads(),
            rng,
        )
    }

    /// [`Network::run_counts`] with an explicit thread budget instead
    /// of the process-wide [`dut_stats::runner::available_threads`]
    /// (which memoizes `DUT_THREADS` once per process). Results are
    /// bit-identical for every `threads` value; tests use this to
    /// assert exactly that.
    #[allow(clippy::too_many_arguments)]
    pub fn run_counts_with_threads<P, R>(
        &self,
        sampler: &DualSampler,
        backend: SampleBackend,
        samples_per_player: usize,
        player: &P,
        rule: &DecisionRule,
        threads: usize,
        rng: &mut R,
    ) -> RunOutcome
    where
        P: CountPlayer + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        let q = samples_per_player as u64;
        let backend = sampler.resolve(backend, q);
        let registry = dut_obs::metrics::global();
        registry.set_gauge(Gauge::SamplingBackend, backend.gauge_code());
        if backend == SampleBackend::Histogram {
            registry.add(Counter::HistogramDraws, self.num_players as u64);
        }
        let shared_seed: u64 = rng.random();
        // One master seed per run, split into per-player streams, so
        // the draw for player `i` does not depend on who drew before
        // it — the property that lets the chunked path below run
        // players in parallel without changing any histogram.
        let draw_base: u64 = rng.random();
        let draw_one = |player_id: usize| -> bool {
            let ctx = PlayerContext {
                player_id,
                num_players: self.num_players,
                shared_seed,
            };
            let mut player_rng =
                rand::rngs::StdRng::seed_from_u64(derive_seed(draw_base, player_id as u64));
            let histogram = sampler.draw(backend, q, &mut player_rng);
            player.accepts_counts(&ctx, &histogram)
        };
        let threads = threads.clamp(1, self.num_players);
        #[allow(clippy::cast_precision_loss)]
        let estimated_work_ns = self.num_players as f64
            * dut_probability::costmodel::predicted_draw_ns(backend, sampler.support_size(), q);
        let accepts: Vec<bool> = if threads > 1 && estimated_work_ns > PARALLEL_MIN_WORK_NS {
            let mut accepts = vec![false; self.num_players];
            let chunk = self.num_players.div_ceil(threads);
            let draw_one = &draw_one;
            std::thread::scope(|scope| {
                for (t, out) in accepts.chunks_mut(chunk).enumerate() {
                    let start = t * chunk;
                    scope.spawn(move || {
                        for (offset, slot) in out.iter_mut().enumerate() {
                            *slot = draw_one(start + offset);
                        }
                    });
                }
            });
            accepts
        } else {
            (0..self.num_players).map(draw_one).collect()
        };
        let mut messages = Vec::with_capacity(self.num_players);
        let mut bits = PackedBits::with_capacity(self.num_players);
        for &accept in &accepts {
            bits.push(accept);
            messages.push(Message::from_accept_bit(accept));
        }
        let verdict = rule.decide_packed(&bits);
        record_run(
            verdict,
            (samples_per_player * self.num_players) as u64,
            self.num_players as u64,
        );
        RunOutcome {
            verdict,
            transcript: Transcript {
                messages,
                samples_drawn: vec![samples_per_player; self.num_players],
                shared_seed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::families;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    struct AcceptIfSmall;
    impl Player for AcceptIfSmall {
        fn accepts(&self, _ctx: &PlayerContext, samples: &[usize]) -> bool {
            samples.iter().all(|&s| s < 8)
        }
    }

    #[test]
    fn run_draws_right_sample_counts() {
        let net = Network::new(5);
        let sampler = families::uniform(16).alias_sampler();
        let out = net.run(&sampler, 3, &AcceptIfSmall, &DecisionRule::And, &mut rng());
        assert_eq!(out.transcript.samples_drawn, vec![3; 5]);
        assert_eq!(out.transcript.total_samples(), 15);
        assert_eq!(out.transcript.messages.len(), 5);
    }

    #[test]
    fn and_rule_end_to_end() {
        let net = Network::new(4);
        // All mass on small elements: every player accepts.
        let low = families::uniform_on_prefix(16, 4).unwrap().alias_sampler();
        let out = net.run(&low, 5, &AcceptIfSmall, &DecisionRule::And, &mut rng());
        assert_eq!(out.verdict, Verdict::Accept);
        assert_eq!(out.transcript.reject_count(), 0);

        // All mass on large elements: every player rejects.
        let hi = families::point_mass(16, 12).unwrap().alias_sampler();
        let out = net.run(&hi, 5, &AcceptIfSmall, &DecisionRule::And, &mut rng());
        assert_eq!(out.verdict, Verdict::Reject);
        assert_eq!(out.transcript.reject_count(), 4);
    }

    #[test]
    fn per_player_contexts_have_distinct_ids() {
        let net = Network::new(3);
        let sampler = families::uniform(4).alias_sampler();
        let seen = parking_lot::Mutex::new(Vec::new());
        let player = |ctx: &PlayerContext, _s: &[usize]| {
            seen.lock().push((ctx.player_id, ctx.shared_seed));
            true
        };
        net.run(&sampler, 1, &player, &DecisionRule::And, &mut rng());
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[2].0, 2);
        // Shared seed identical across players.
        assert!(seen.iter().all(|&(_, s)| s == seen[0].1));
    }

    #[test]
    fn asymmetric_counts_respected() {
        let net = Network::new(3);
        let sampler = families::uniform(4).alias_sampler();
        let counts = [1usize, 5, 9];
        let lens = parking_lot::Mutex::new(Vec::new());
        let player = |_ctx: &PlayerContext, s: &[usize]| {
            lens.lock().push(s.len());
            true
        };
        net.run_with_sample_counts(&sampler, &counts, &player, &DecisionRule::And, &mut rng());
        assert_eq!(lens.into_inner(), vec![1, 5, 9]);
    }

    #[test]
    fn run_counts_on_both_backends() {
        use dut_probability::{Histogram, SampleBackend};
        let net = Network::new(6);
        let dual = families::uniform(32).dual_sampler();
        // Reject when the local histogram shows any collision: on a
        // 32-element uniform domain with 2 samples collisions are rare,
        // so the AND rule accepts most runs under either backend.
        let player = |_ctx: &PlayerContext, h: &Histogram| h.collision_count() == 0;
        for backend in SampleBackend::ALL {
            let mut r = rng();
            let mut accepts = 0usize;
            for _ in 0..200 {
                let out = net.run_counts(&dual, backend, 2, &player, &DecisionRule::And, &mut r);
                assert_eq!(out.transcript.samples_drawn, vec![2; 6]);
                accepts += usize::from(out.verdict.is_accept());
            }
            assert!(accepts > 120, "{backend}: only {accepts}/200 accepted");
        }
    }

    #[test]
    fn run_counts_deterministic_per_seed() {
        use dut_probability::{Histogram, SampleBackend};
        let net = Network::new(4);
        let dual = families::uniform(16).dual_sampler();
        let player = |_ctx: &PlayerContext, h: &Histogram| h.collision_count() < 2;
        for backend in SampleBackend::ALL {
            let a = net.run_counts(
                &dual,
                backend,
                8,
                &player,
                &DecisionRule::Majority,
                &mut rng(),
            );
            let b = net.run_counts(
                &dual,
                backend,
                8,
                &player,
                &DecisionRule::Majority,
                &mut rng(),
            );
            assert_eq!(a, b, "{backend} not deterministic per seed");
        }
    }

    #[test]
    fn run_counts_identical_at_any_thread_count() {
        use dut_probability::{Histogram, SampleBackend};
        // Enough players × samples that the work estimate crosses the
        // parallel threshold and the threaded path actually runs.
        let net = Network::new(64);
        let dual = families::uniform(100).dual_sampler();
        let player = |_ctx: &PlayerContext, h: &Histogram| h.collision_count() < 200;
        for backend in [
            SampleBackend::PerDraw,
            SampleBackend::Histogram,
            SampleBackend::Auto,
        ] {
            let mut outcomes = (1usize..=8).map(|threads| {
                net.run_counts_with_threads(
                    &dual,
                    backend,
                    5_000,
                    &player,
                    &DecisionRule::Majority,
                    threads,
                    &mut rng(),
                )
            });
            let first = outcomes.next().unwrap();
            for (i, out) in outcomes.enumerate() {
                assert_eq!(first, out, "{backend}: threads=1 vs threads={}", i + 2);
            }
        }
    }

    #[test]
    fn run_counts_auto_matches_its_resolved_engine() {
        use dut_probability::{Histogram, SampleBackend};
        let net = Network::new(8);
        let dual = families::uniform(64).dual_sampler();
        let player = |_ctx: &PlayerContext, h: &Histogram| h.collision_count() == 0;
        let q = 4usize;
        let resolved = dual.resolve(SampleBackend::Auto, q as u64);
        let via_auto = net.run_counts(
            &dual,
            SampleBackend::Auto,
            q,
            &player,
            &DecisionRule::And,
            &mut rng(),
        );
        let direct = net.run_counts(&dual, resolved, q, &player, &DecisionRule::And, &mut rng());
        assert_eq!(via_auto, direct);
    }

    #[test]
    fn shared_seed_changes_between_runs() {
        let net = Network::new(1);
        let sampler = families::uniform(2).alias_sampler();
        let player = |_: &PlayerContext, _: &[usize]| true;
        let mut r = rng();
        let a = net.run(&sampler, 1, &player, &DecisionRule::And, &mut r);
        let b = net.run(&sampler, 1, &player, &DecisionRule::And, &mut r);
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
        let net = Network::new(2);
        let sampler = families::uniform(2).alias_sampler();
        let player = |_: &PlayerContext, _: &[usize]| true;
        net.run_with_sample_counts(&sampler, &[1], &player, &DecisionRule::And, &mut rng());
    }
}
