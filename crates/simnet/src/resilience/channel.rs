//! Correlated (bursty) loss: the two-state Gilbert–Elliott channel.

use super::plan::FaultPlan;
use rand::rngs::StdRng;
use rand::Rng;

/// A two-state Markov loss channel: the channel is either *good* or
/// *bad*, and flips state with fixed transition probabilities as it is
/// traversed (player by player within a round, round by round). The
/// good state is lossless; the bad state loses each transmitted copy
/// with one probability, set by [`GilbertElliott::bursty_with_mean_loss`].
/// Unlike iid loss, failures arrive in bursts, which is exactly the
/// regime where the AND rule's single-alarm fragility and a repetition
/// code's diminishing returns show up.
///
/// The traversal order is player `0..k` within each transmission
/// round, so a burst wipes out a *contiguous block* of players — the
/// worst case for rules that need several simultaneous alarms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    loss_bad: f64,
    bad: bool,
}

/// The fixed burst structure: enter the bad state with probability
/// 0.3, leave with 0.5, so the stationary bad fraction is
/// 0.3 / (0.3 + 0.5) = 0.375 and bursts last 2 messages on average.
const BURSTY_TO_BAD: f64 = 0.3;
const BURSTY_TO_GOOD: f64 = 0.5;
const BURSTY_STATIONARY_BAD: f64 = BURSTY_TO_BAD / (BURSTY_TO_BAD + BURSTY_TO_GOOD);

impl GilbertElliott {
    /// A bursty channel with the fixed burst structure (mean burst
    /// length 2, stationary bad fraction 0.375) whose long-run loss
    /// rate is `mean_loss`: the bad state loses with probability
    /// `mean_loss / 0.375`.
    ///
    /// Because only the bad-state loss probability varies with
    /// `mean_loss`, channels built at different rates share the same
    /// state trajectory for a fixed fault seed — sweeps over
    /// `mean_loss` are exactly coupled (see the module docs in
    /// [`plan`](super::plan)).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ mean_loss ≤ 0.375`.
    #[must_use]
    pub fn bursty_with_mean_loss(mean_loss: f64) -> Self {
        assert!(
            (0.0..=BURSTY_STATIONARY_BAD).contains(&mean_loss),
            "bursty mean loss must be in [0, {BURSTY_STATIONARY_BAD}], got {mean_loss}"
        );
        Self {
            loss_bad: mean_loss / BURSTY_STATIONARY_BAD,
            bad: false,
        }
    }
}

impl FaultPlan for GilbertElliott {
    fn begin_run(&mut self, _k: usize, rng: &mut StdRng) {
        // Start each run from the stationary distribution.
        let u: f64 = rng.random();
        self.bad = u < BURSTY_STATIONARY_BAD;
    }

    fn deliver_round(&mut self, bits: &[Option<bool>], rng: &mut StdRng) -> Vec<Option<bool>> {
        bits.iter()
            .map(|&bit| {
                // Two unconditional draws per slot: transition, then loss.
                let step: f64 = rng.random();
                if self.bad {
                    if step < BURSTY_TO_GOOD {
                        self.bad = false;
                    }
                } else if step < BURSTY_TO_BAD {
                    self.bad = true;
                }
                let u: f64 = rng.random();
                bit.filter(|_| !(self.bad && u < self.loss_bad))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mean_loss_matches_construction() {
        let ge = GilbertElliott::bursty_with_mean_loss(0.3);
        assert!((BURSTY_STATIONARY_BAD - 0.375).abs() < 1e-12);
        assert!((BURSTY_STATIONARY_BAD * ge.loss_bad - 0.3).abs() < 1e-12);
    }

    #[test]
    fn long_run_loss_rate_is_close_to_nominal() {
        let mut ge = GilbertElliott::bursty_with_mean_loss(0.25);
        let mut rng = StdRng::seed_from_u64(11);
        let bits = vec![Some(true); 100];
        let mut lost = 0usize;
        let rounds = 200;
        ge.begin_run(bits.len(), &mut rng);
        for _ in 0..rounds {
            lost += ge
                .deliver_round(&bits, &mut rng)
                .iter()
                .filter(|d| d.is_none())
                .count();
        }
        let rate = lost as f64 / (100 * rounds) as f64;
        assert!((0.2..0.3).contains(&rate), "observed loss rate {rate}");
    }

    #[test]
    fn losses_are_bursty() {
        // Adjacent-slot loss correlation must exceed the iid baseline:
        // P(lost | previous lost) > P(lost).
        let mut ge = GilbertElliott::bursty_with_mean_loss(0.3);
        let mut rng = StdRng::seed_from_u64(12);
        let bits = vec![Some(true); 2000];
        ge.begin_run(bits.len(), &mut rng);
        let outcome = ge.deliver_round(&bits, &mut rng);
        let lost: Vec<bool> = outcome.iter().map(Option::is_none).collect();
        let total = lost.iter().filter(|&&x| x).count();
        let after_loss = lost.windows(2).filter(|w| w[0] && w[1]).count();
        let p_loss = total as f64 / lost.len() as f64;
        let p_loss_after_loss = after_loss as f64 / total.max(1) as f64;
        // Theory: p = 0.3, p_after = loss_bad · P(stay bad) = 0.8 · 0.5
        // = 0.4; ask for half the theoretical gap.
        assert!(
            p_loss_after_loss > p_loss + 0.05,
            "no burstiness: p={p_loss}, p_after={p_loss_after_loss}"
        );
    }

    #[test]
    fn rate_sweep_is_exactly_coupled() {
        // Same seed, higher mean loss: the lost set can only grow,
        // because the state trajectory is rate-independent.
        let bits = vec![Some(true); 256];
        let lost_at = |mean: f64| -> Vec<bool> {
            let mut ge = GilbertElliott::bursty_with_mean_loss(mean);
            let mut rng = StdRng::seed_from_u64(13);
            ge.begin_run(bits.len(), &mut rng);
            ge.deliver_round(&bits, &mut rng)
                .iter()
                .map(Option::is_none)
                .collect()
        };
        let low = lost_at(0.1);
        let high = lost_at(0.3);
        for (i, (&l, &h)) in low.iter().zip(&high).enumerate() {
            assert!(!l || h, "slot {i} lost at 0.1 but delivered at 0.3");
        }
    }

    #[test]
    #[should_panic(expected = "bursty mean loss")]
    fn bursty_mean_loss_bounded() {
        let _ = GilbertElliott::bursty_with_mean_loss(0.5);
    }
}
