//! Adversarial fault models: Byzantine players and targeted loss.
//!
//! The paper's locality trade-off is usually told with benign faults;
//! these plans tell the sharper version. A single bit-flipping player
//! breaks the AND rule completely (under uniform input its flipped
//! accept is a false alarm on every run), while
//! `DecisionRule { min_rejects: T }` tolerates any `t < min(T, k − T + 1)`
//! flippers (see
//! [`byzantine_tolerance`](super::byzantine_tolerance)). A targeted
//! dropper that sees the transcript before choosing victims silences
//! the AND rule with a budget of **one** message per round.

use super::plan::FaultPlan;
use rand::rngs::StdRng;

/// Up to `t` Byzantine players (ids `0..t`, the adversary's choice is
/// WLOG by symmetry of the protocol) flip their bit at the source; the
/// channel itself is reliable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantinePlan {
    corrupted: usize,
}

impl ByzantinePlan {
    /// `t` bit-flipping players on an otherwise reliable channel.
    #[must_use]
    pub fn flippers(t: usize) -> Self {
        Self { corrupted: t }
    }
}

impl FaultPlan for ByzantinePlan {
    fn corrupt(&mut self, bits: &mut [bool], _rng: &mut StdRng) -> u64 {
        let mut flips = 0u64;
        for b in bits.iter_mut().take(self.corrupted) {
            *b = !*b;
            flips += 1;
        }
        flips
    }
}

/// A transcript-aware dropper, the alarm silencer: each round it
/// inspects every bit in flight and deletes up to `budget` *reject*
/// bits, pushing every rule towards accept. With budget 1 it is the
/// minimal adversary that defeats the AND rule outright, while a
/// `DecisionRule { min_rejects: T }` referee forces it to spend `T`
/// deletions *per round* — the communication-side reading of the
/// paper's locality trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedLoss {
    budget: usize,
}

impl TargetedLoss {
    /// The alarm silencer: deletes up to `budget` reject bits per
    /// round.
    #[must_use]
    pub fn alarm_silencer(budget: usize) -> Self {
        Self { budget }
    }
}

impl FaultPlan for TargetedLoss {
    fn deliver_round(&mut self, bits: &[Option<bool>], _rng: &mut StdRng) -> Vec<Option<bool>> {
        let mut remaining = self.budget;
        bits.iter()
            .map(|&bit| match bit {
                Some(false) if remaining > 0 => {
                    remaining -= 1;
                    None
                }
                other => other,
            })
            .collect()
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
    fn flippers_negate_only_their_players() {
        let mut plan = ByzantinePlan::flippers(3);
        let mut bits = vec![true, false, true, false];
        let flips = plan.corrupt(&mut bits, &mut rng(1));
        assert_eq!(flips, 3);
        assert_eq!(bits, vec![false, true, false, false]);
        // More flippers than players flips every bit once.
        let flips = ByzantinePlan::flippers(9).corrupt(&mut bits, &mut rng(1));
        assert_eq!(flips, 4);
        assert_eq!(bits, vec![true, false, true, true]);
    }

    #[test]
    fn targeted_loss_spends_budget_on_matching_bits() {
        let mut plan = TargetedLoss::alarm_silencer(2);
        let bits = vec![Some(false), Some(true), Some(false), Some(false)];
        let out = plan.deliver_round(&bits, &mut rng(4));
        // The first two alarms die; the third survives (budget spent).
        assert_eq!(out, vec![None, Some(true), None, Some(false)]);
    }

    #[test]
    fn targeted_loss_budget_resets_each_round() {
        let mut plan = TargetedLoss::alarm_silencer(1);
        let bits = vec![Some(false)];
        for _ in 0..3 {
            assert_eq!(plan.deliver_round(&bits, &mut rng(5)), vec![None]);
        }
    }
}
