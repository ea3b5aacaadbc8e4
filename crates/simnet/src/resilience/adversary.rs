//! Adversarial fault models: Byzantine players and targeted loss.
//!
//! The paper's locality trade-off is usually told with benign faults;
//! these plans tell the sharper version. A single Byzantine player
//! breaks the AND rule completely (it can raise a permanent false
//! alarm, or — flipped the other way — is one of the honest alarms an
//! adversary must merely outshout), while `Threshold { min_rejects: T }`
//! tolerates any `t < min(T, k − T + 1)` corruptions (see
//! [`byzantine_tolerance`](super::byzantine_tolerance)). A targeted
//! dropper that sees the transcript before choosing victims silences
//! the AND rule with a budget of **one** message per round.

use super::plan::FaultPlan;
use rand::rngs::StdRng;
use rand::Rng;

/// What a corrupted player does with its honest bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineBehavior {
    /// Send the negation of the honest bit.
    Flip,
    /// Send a fixed bit regardless of the samples (`true` silences
    /// alarms; `false` raises permanent ones).
    Fix(bool),
}

/// Up to `t` Byzantine players (ids `0..t`, the adversary's choice is
/// WLOG by symmetry of the protocol) corrupt their bit at the source;
/// optionally the surrounding channel also drops copies iid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantinePlan {
    corrupted: usize,
    behavior: ByzantineBehavior,
    loss: f64,
}

impl ByzantinePlan {
    /// `t` bit-flipping players on an otherwise reliable channel.
    #[must_use]
    pub fn flippers(t: usize) -> Self {
        Self {
            corrupted: t,
            behavior: ByzantineBehavior::Flip,
            loss: 0.0,
        }
    }

    /// `t` players that always send `bit` on an otherwise reliable
    /// channel.
    #[must_use]
    pub fn fixers(t: usize, bit: bool) -> Self {
        Self {
            corrupted: t,
            behavior: ByzantineBehavior::Fix(bit),
            loss: 0.0,
        }
    }

    /// Adds iid per-copy loss at rate `loss` on top of the corruption.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    #[must_use]
    pub fn with_message_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss probability out of range");
        self.loss = loss;
        self
    }
}

impl FaultPlan for ByzantinePlan {
    fn label(&self) -> String {
        let kind = match self.behavior {
            ByzantineBehavior::Flip => "flip".to_owned(),
            ByzantineBehavior::Fix(bit) => format!("fix={}", u8::from(bit)),
        };
        format!("byzantine(t={},{kind},loss={})", self.corrupted, self.loss)
    }

    fn corrupt(&mut self, bits: &mut [Option<bool>], _rng: &mut StdRng) -> u64 {
        let mut flips = 0u64;
        for b in bits.iter_mut().take(self.corrupted).flatten() {
            let forced = match self.behavior {
                ByzantineBehavior::Flip => !*b,
                ByzantineBehavior::Fix(v) => v,
            };
            if forced != *b {
                *b = forced;
                flips += 1;
            }
        }
        flips
    }

    fn deliver_round(&mut self, bits: &[Option<bool>], rng: &mut StdRng) -> Vec<Option<bool>> {
        bits.iter()
            .map(|&bit| {
                let u: f64 = rng.random();
                bit.filter(|_| u >= self.loss)
            })
            .collect()
    }
}

/// A transcript-aware dropper: each round it inspects every bit in
/// flight and deletes up to `budget` copies carrying `suppressed_bit`.
/// With `suppressed_bit = false` (the alarm bit) and budget 1 it is
/// the minimal adversary that defeats the AND rule outright, while a
/// `Threshold { min_rejects: T }` referee forces it to spend `T`
/// deletions *per round* — the communication-side reading of the
/// paper's locality trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedLoss {
    budget: usize,
    suppressed_bit: bool,
}

impl TargetedLoss {
    /// An adversary deleting up to `budget` copies of `suppressed_bit`
    /// per round.
    #[must_use]
    pub fn new(budget: usize, suppressed_bit: bool) -> Self {
        Self {
            budget,
            suppressed_bit,
        }
    }

    /// The alarm silencer: deletes up to `budget` *reject* bits per
    /// round, pushing every rule towards accept.
    #[must_use]
    pub fn alarm_silencer(budget: usize) -> Self {
        Self::new(budget, false)
    }

    /// Per-round deletion budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }
}

impl FaultPlan for TargetedLoss {
    fn label(&self) -> String {
        format!(
            "targeted(budget={},drop={})",
            self.budget,
            if self.suppressed_bit {
                "accepts"
            } else {
                "alarms"
            }
        )
    }

    fn deliver_round(&mut self, bits: &[Option<bool>], _rng: &mut StdRng) -> Vec<Option<bool>> {
        let mut remaining = self.budget;
        bits.iter()
            .map(|&bit| match bit {
                Some(v) if v == self.suppressed_bit && remaining > 0 => {
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
        let mut plan = ByzantinePlan::flippers(2);
        let mut bits = vec![Some(true), Some(false), Some(true), None];
        let flips = plan.corrupt(&mut bits, &mut rng(1));
        assert_eq!(flips, 2);
        assert_eq!(bits, vec![Some(false), Some(true), Some(true), None]);
    }

    #[test]
    fn fixers_count_only_real_changes() {
        let mut plan = ByzantinePlan::fixers(3, true);
        let mut bits = vec![Some(true), Some(false), None, Some(false)];
        let flips = plan.corrupt(&mut bits, &mut rng(2));
        // Player 0 already sent true; player 2 crashed.
        assert_eq!(flips, 1);
        assert_eq!(bits, vec![Some(true), Some(true), None, Some(false)]);
    }

    #[test]
    fn byzantine_channel_loss_applies() {
        let mut plan = ByzantinePlan::flippers(0).with_message_loss(1.0);
        let out = plan.deliver_round(&[Some(true), Some(false)], &mut rng(3));
        assert_eq!(out, vec![None, None]);
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
