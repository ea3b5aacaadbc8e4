//! The [`FaultPlan`] abstraction and the stochastic baseline models.
//!
//! A fault plan owns every way an execution can deviate from the
//! reliable network: it decides, per player, how many samples are
//! drawn and whether the player survives to transmit
//! ([`FaultPlan::pre_sample`]), it may corrupt computed bits at the
//! source ([`FaultPlan::corrupt`]), and it adjudicates each
//! transmission round ([`FaultPlan::deliver_round`]). Plans are
//! stateful (`&mut self`) so correlated channels like
//! [`GilbertElliott`](super::GilbertElliott) can carry burst state
//! across players and retry rounds.
//!
//! # Coupling discipline
//!
//! Stochastic plans draw their randomness from a *dedicated fault RNG*
//! (see [`ResilientNetwork::run`](super::ResilientNetwork::run)) and
//! draw **unconditionally** — one uniform per decision point whether or
//! not the fault fires. Two consequences, both load-bearing for the
//! experiments:
//!
//! * turning faults on/off (or changing rates) never perturbs which
//!   samples players draw, so fault-free and faulty runs are *paired*;
//! * for a fixed seed the fault indicators are coupled across rates
//!   (`u < p` is monotone in `p`), so measured error-vs-fault-rate
//!   curves are exactly monotone per trial, not just in expectation —
//!   the graceful-degradation plots are noise-free by construction.

use rand::rngs::StdRng;
use rand::Rng;

/// What a fault plan decided about one player before transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreSample {
    /// How many of the player's `q` samples it actually draws (a crash
    /// mid-sampling consumes a prefix; these are still charged to the
    /// sample budget).
    pub samples: usize,
    /// Whether the player survives to transmit its bit.
    pub sends: bool,
}

impl PreSample {
    /// A healthy player: draws all `q` samples and transmits.
    #[must_use]
    pub fn healthy(q: usize) -> Self {
        Self {
            samples: q,
            sends: true,
        }
    }

    /// A player that crashed after drawing `samples` samples.
    #[must_use]
    pub fn crashed(samples: usize) -> Self {
        Self {
            samples,
            sends: false,
        }
    }
}

/// A pluggable fault model for [`ResilientNetwork`](super::ResilientNetwork).
///
/// Implementations range from iid loss ([`IidFaults`]) through bursty
/// channels ([`GilbertElliott`](super::GilbertElliott)) to adversaries
/// ([`ByzantinePlan`](super::ByzantinePlan),
/// [`TargetedLoss`](super::TargetedLoss)).
pub trait FaultPlan {
    /// Called once at the start of every execution, before any player
    /// acts; stateful channels re-draw their initial state here.
    fn begin_run(&mut self, k: usize, rng: &mut StdRng) {
        let _ = (k, rng);
    }

    /// The fate of player `player_id` before transmission. The default
    /// is a healthy player.
    fn pre_sample(&mut self, player_id: usize, q: usize, rng: &mut StdRng) -> PreSample {
        let _ = (player_id, rng);
        PreSample::healthy(q)
    }

    /// Corrupts computed bits at the source (Byzantine players).
    /// `bits[i]` is `None` for crashed players. Returns how many bits
    /// were actually altered. The default corrupts nothing.
    fn corrupt(&mut self, bits: &mut [Option<bool>], rng: &mut StdRng) -> u64 {
        let _ = (bits, rng);
        0
    }

    /// Adjudicates one transmission round. `bits[i]` is the value
    /// player `i` transmits this round (`None`: crashed, or not
    /// retransmitting). Returns one entry per player: `Some(v)` — a
    /// copy carrying `v` reached the referee; `None` — lost (or
    /// nothing was sent). Must preserve length. The default delivers
    /// every copy.
    fn deliver_round(&mut self, bits: &[Option<bool>], rng: &mut StdRng) -> Vec<Option<bool>> {
        let _ = rng;
        bits.to_vec()
    }
}

/// The fault-free plan: every player is healthy and every message is
/// delivered. Useful as the control arm of paired experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliablePlan;

impl FaultPlan for ReliablePlan {}

fn assert_probability(p: f64, what: &str) {
    assert!((0.0..=1.0).contains(&p), "{what} probability out of range");
}

/// Independent faults: each player crashes before sampling with
/// probability `crash`, and each transmitted copy is lost with
/// probability `loss`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IidFaults {
    crash: f64,
    loss: f64,
}

impl IidFaults {
    /// Validates and builds the model.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(crash: f64, loss: f64) -> Self {
        assert_probability(crash, "crash");
        assert_probability(loss, "loss");
        Self { crash, loss }
    }

    /// Pure message loss at rate `loss`.
    #[must_use]
    pub fn loss_only(loss: f64) -> Self {
        Self::new(0.0, loss)
    }
}

impl FaultPlan for IidFaults {
    fn pre_sample(&mut self, _player_id: usize, q: usize, rng: &mut StdRng) -> PreSample {
        // Unconditional draw: see the module docs on coupling.
        let u: f64 = rng.random();
        if u < self.crash {
            PreSample::crashed(0)
        } else {
            PreSample::healthy(q)
        }
    }

    fn deliver_round(&mut self, bits: &[Option<bool>], rng: &mut StdRng) -> Vec<Option<bool>> {
        bits.iter()
            .map(|&bit| {
                // One draw per slot even when nothing is sent, so the
                // fault stream is independent of crash outcomes.
                let u: f64 = rng.random();
                bit.filter(|_| u >= self.loss)
            })
            .collect()
    }
}

/// Crash-with-partial-samples: with probability `crash` a player dies
/// *mid-sampling* — it has already consumed a uniformly-random prefix
/// of its `q` samples (charged to the sample budget) but never
/// computes or sends a bit. Stresses the distinction between samples
/// drawn and bits delivered in the accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialCrash {
    crash: f64,
}

impl PartialCrash {
    /// Validates and builds the model.
    ///
    /// # Panics
    ///
    /// Panics if `crash` is outside `[0, 1]`.
    #[must_use]
    pub fn new(crash: f64) -> Self {
        assert_probability(crash, "crash");
        Self { crash }
    }
}

impl FaultPlan for PartialCrash {
    fn pre_sample(&mut self, _player_id: usize, q: usize, rng: &mut StdRng) -> PreSample {
        let u: f64 = rng.random();
        // Drawn unconditionally so the fault stream has a fixed shape.
        let prefix = if q == 0 { 0 } else { rng.random_range(0..q) };
        if u < self.crash {
            PreSample::crashed(prefix)
        } else {
            PreSample::healthy(q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn reliable_plan_delivers_everything() {
        let mut plan = ReliablePlan;
        let bits = vec![Some(true), None, Some(false)];
        assert_eq!(plan.deliver_round(&bits, &mut rng(1)), bits);
        assert_eq!(plan.pre_sample(0, 7, &mut rng(1)), PreSample::healthy(7));
    }

    #[test]
    fn iid_loss_couples_across_rates() {
        // Same seed, higher rate: the lost set can only grow.
        let bits = vec![Some(true); 64];
        let lost_at = |loss: f64| -> Vec<bool> {
            let mut plan = IidFaults::loss_only(loss);
            plan.deliver_round(&bits, &mut rng(9))
                .iter()
                .map(Option::is_none)
                .collect()
        };
        let low = lost_at(0.2);
        let high = lost_at(0.6);
        for (i, (&l, &h)) in low.iter().zip(&high).enumerate() {
            assert!(!l || h, "slot {i} lost at 0.2 but delivered at 0.6");
        }
        assert!(high.iter().filter(|&&x| x).count() > low.iter().filter(|&&x| x).count());
    }

    #[test]
    fn iid_crash_rate_is_roughly_respected() {
        let mut plan = IidFaults::new(0.5, 0.0);
        let mut r = rng(4);
        let crashes = (0..1000)
            .filter(|_| !plan.pre_sample(0, 3, &mut r).sends)
            .count();
        assert!((380..=620).contains(&crashes), "{crashes} crashes");
    }

    #[test]
    fn partial_crash_consumes_a_strict_prefix() {
        let mut plan = PartialCrash::new(1.0);
        let mut r = rng(5);
        for _ in 0..50 {
            let pre = plan.pre_sample(0, 10, &mut r);
            assert!(!pre.sends);
            assert!(pre.samples < 10);
        }
        // q = 0 is safe.
        assert_eq!(plan.pre_sample(0, 0, &mut r).samples, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn iid_rejects_bad_probability() {
        let _ = IidFaults::new(0.1, 1.5);
    }
}
