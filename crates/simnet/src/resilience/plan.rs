//! The [`FaultPlan`] abstraction and the stochastic baseline models.
//!
//! A fault plan owns every way an execution can deviate from the
//! reliable network: it may corrupt computed bits at the source
//! ([`FaultPlan::corrupt`]), and it adjudicates each transmission
//! round ([`FaultPlan::deliver_round`]). Plans are stateful
//! (`&mut self`) so correlated channels like
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

    /// Corrupts computed bits at the source (Byzantine players).
    /// Returns how many bits were actually altered. The default
    /// corrupts nothing.
    fn corrupt(&mut self, bits: &mut [bool], rng: &mut StdRng) -> u64 {
        let _ = (bits, rng);
        0
    }

    /// Adjudicates one transmission round. `bits[i]` is the value
    /// player `i` transmits this round (`None`: not retransmitting).
    /// Returns one entry per player: `Some(v)` — a copy carrying `v`
    /// reached the referee; `None` — lost (or nothing was sent). Must
    /// preserve length. The default delivers every copy.
    fn deliver_round(&mut self, bits: &[Option<bool>], rng: &mut StdRng) -> Vec<Option<bool>> {
        let _ = rng;
        bits.to_vec()
    }
}

/// The fault-free plan: every message is delivered. Useful as the
/// control arm of paired experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliablePlan;

impl FaultPlan for ReliablePlan {}

/// Independent message loss: each transmitted copy is lost with
/// probability `loss`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IidFaults {
    loss: f64,
}

impl IidFaults {
    /// Pure message loss at rate `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    #[must_use]
    pub fn loss_only(loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss probability out of range");
        Self { loss }
    }
}

impl FaultPlan for IidFaults {
    fn begin_run(&mut self, k: usize, rng: &mut StdRng) {
        // One word per player, unused. The model once drew a crash
        // decision per player here; every committed iid fault sweep
        // was measured on the fault stream after these draws, so
        // skipping them keeps those sweeps reproducible.
        for _ in 0..k {
            let _: f64 = rng.random();
        }
    }

    fn deliver_round(&mut self, bits: &[Option<bool>], rng: &mut StdRng) -> Vec<Option<bool>> {
        bits.iter()
            .map(|&bit| {
                // One draw per slot even when nothing is sent, so the
                // fault stream has a fixed shape per round.
                let u: f64 = rng.random();
                bit.filter(|_| u >= self.loss)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn reliable_plan_delivers_everything() {
        let mut plan = ReliablePlan;
        let bits = vec![Some(true), None, Some(false)];
        assert_eq!(plan.deliver_round(&bits, &mut rng(1)), bits);
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
    fn iid_begin_run_draws_one_word_per_player() {
        let mut drawn = rng(3);
        IidFaults::loss_only(0.5).begin_run(5, &mut drawn);
        let mut skipped = rng(3);
        for _ in 0..5 {
            skipped.next_u64();
        }
        assert_eq!(drawn.next_u64(), skipped.next_u64());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn iid_rejects_bad_probability() {
        let _ = IidFaults::loss_only(1.5);
    }
}
