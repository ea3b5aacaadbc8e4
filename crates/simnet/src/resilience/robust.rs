//! Byzantine tolerance of the referee's rules, in closed form.
//!
//! Every [`DecisionRule`] is a threshold rule on `k` one-bit players.
//! `Threshold { min_rejects: T }` survives `t` corrupted players iff
//! `t < min(T, k − T + 1)`: fewer than `T` fixed-reject players cannot
//! force a reject on their own, and fewer than `k − T + 1` fixed-accept
//! players cannot silence `T` honest alarms. The AND rule is `T = 1`,
//! so its tolerance is **zero** — one Byzantine player decides every
//! execution. This is the robustness price of the locality the paper
//! buys with AND.

use crate::rule::DecisionRule;

/// The reject threshold `T` equivalent to `rule` on `k` one-bit
/// players: the rule rejects iff at least `T` players reject.
#[must_use]
pub fn threshold_equivalent(rule: &DecisionRule, k: usize) -> usize {
    match rule {
        DecisionRule::And => 1,
        DecisionRule::Threshold { min_rejects } => *min_rejects,
        DecisionRule::Majority => k / 2 + 1,
    }
}

/// The number of Byzantine players `rule` tolerates on `k` players:
/// the largest `t` such that *no* choice of `t` corrupted bits can
/// single-handedly decide the verdict, i.e. `min(T − 1, k − T)` for
/// the equivalent threshold `T`.
///
/// The AND rule tolerates 0; `Majority` on `k` players tolerates
/// `⌈k/2⌉ − 1`, the maximum possible.
#[must_use]
pub fn byzantine_tolerance(rule: &DecisionRule, k: usize) -> usize {
    let t = threshold_equivalent(rule, k);
    t.saturating_sub(1).min(k.saturating_sub(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_equivalents() {
        assert_eq!(threshold_equivalent(&DecisionRule::And, 10), 1);
        assert_eq!(
            threshold_equivalent(&DecisionRule::Threshold { min_rejects: 4 }, 10),
            4
        );
        assert_eq!(threshold_equivalent(&DecisionRule::Majority, 10), 6);
        assert_eq!(threshold_equivalent(&DecisionRule::Majority, 9), 5);
    }

    #[test]
    fn byzantine_tolerance_values() {
        // AND breaks at t = 1.
        assert_eq!(byzantine_tolerance(&DecisionRule::And, 16), 0);
        // Threshold{T} tolerates min(T-1, k-T).
        assert_eq!(
            byzantine_tolerance(&DecisionRule::Threshold { min_rejects: 4 }, 16),
            3
        );
        assert_eq!(
            byzantine_tolerance(&DecisionRule::Threshold { min_rejects: 14 }, 16),
            2
        );
        // Majority maximizes tolerance.
        assert_eq!(byzantine_tolerance(&DecisionRule::Majority, 16), 7);
        assert_eq!(byzantine_tolerance(&DecisionRule::Majority, 17), 8);
    }
}
