//! Byzantine tolerance of the referee's rules, in closed form, and the
//! rule that reads a break point off measured errors.
//!
//! Every [`DecisionRule`] is a threshold rule on `k` one-bit players.
//! `DecisionRule { min_rejects: T }` survives `t` corrupted players iff
//! `t < min(T, k − T + 1)`: fewer than `T` fixed-reject players cannot
//! force a reject on their own, and fewer than `k − T + 1` fixed-accept
//! players cannot silence `T` honest alarms. The AND rule is `T = 1`,
//! so its tolerance is **zero** — one Byzantine player decides every
//! execution. This is the robustness price of the locality the paper
//! buys with AND.

use crate::rule::DecisionRule;

/// The number of Byzantine players `rule` tolerates on `k` players:
/// the largest `t` such that *no* choice of `t` corrupted bits can
/// single-handedly decide the verdict, i.e. `min(T − 1, k − T)` for
/// `T = min_rejects`.
///
/// The AND rule tolerates 0; the majority threshold `T = ⌊k/2⌋ + 1`
/// tolerates `⌈k/2⌉ − 1`, the maximum possible.
#[must_use]
pub fn byzantine_tolerance(rule: &DecisionRule, k: usize) -> usize {
    let t = rule.min_rejects;
    t.saturating_sub(1).min(k.saturating_sub(t))
}

/// The measured counterpart of [`byzantine_tolerance`]: given the
/// `(err_uniform, err_far)` measured with `t = 0, 1, …` bit-flippers,
/// the largest `t` before the first flipper count whose two-sided error
/// `max(err_uniform, err_far)` exceeds 1/3.
///
/// An error of exactly 1/3 is not a break. `None` means no measured
/// count broke the rule: it tolerates at least the last `t` measured.
/// A table whose error exceeds 1/3 already at `t = 0` gives `Some(0)`,
/// the same as a break at `t = 1`, since no flipper count precedes it;
/// its `t = 0` row tells the two apart.
#[must_use]
pub fn measured_byzantine_tolerance(errors: &[(f64, f64)]) -> Option<usize> {
    errors
        .iter()
        .position(|&(uniform, far)| uniform.max(far) > 1.0 / 3.0)
        .map(|first| first.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byzantine_tolerance_values() {
        // AND breaks at t = 1.
        assert_eq!(byzantine_tolerance(&DecisionRule { min_rejects: 1 }, 16), 0);
        // Threshold{T} tolerates min(T-1, k-T).
        assert_eq!(byzantine_tolerance(&DecisionRule { min_rejects: 4 }, 16), 3);
        assert_eq!(
            byzantine_tolerance(&DecisionRule { min_rejects: 14 }, 16),
            2
        );
        // The majority threshold k/2 + 1 maximizes tolerance.
        assert_eq!(byzantine_tolerance(&DecisionRule { min_rejects: 9 }, 16), 7);
        assert_eq!(byzantine_tolerance(&DecisionRule { min_rejects: 9 }, 17), 8);
    }

    #[test]
    fn measured_tolerance_on_the_uniform_side() {
        // E12's thr4 row: uniform errors 0.00, 0.05, 0.19, 0.50 with no
        // missed detection break at t = 3.
        let errors = [(0.0, 0.0), (0.05, 0.0), (0.19, 0.0), (0.50, 0.0)];
        assert_eq!(measured_byzantine_tolerance(&errors), Some(2));
        assert_eq!(measured_byzantine_tolerance(&errors[..3]), None);
    }

    #[test]
    fn measured_tolerance_on_the_far_side() {
        // Threshold{14} on 16 players: three fixed-accept flippers leave
        // at most 13 honest alarms, so the far side breaks first, at
        // t = 3, which is the predicted min(T - 1, k - T) + 1.
        let errors = [(0.0, 0.0), (0.0, 0.02), (0.0, 0.1), (0.0, 0.9)];
        let rule = DecisionRule { min_rejects: 14 };
        assert_eq!(measured_byzantine_tolerance(&errors), Some(2));
        assert_eq!(byzantine_tolerance(&rule, 16), 2);
    }

    #[test]
    fn an_error_of_exactly_one_third_is_not_a_break() {
        // 20 of 60 trials, as `rejection_rate` divides them, is the f64
        // nearest 1/3.
        let tie = 20.0 / 60.0;
        assert_eq!(f64::to_bits(tie), f64::to_bits(1.0 / 3.0));
        assert_eq!(
            measured_byzantine_tolerance(&[(0.0, 0.0), (tie, tie)]),
            None
        );
        assert_eq!(
            measured_byzantine_tolerance(&[(0.0, tie), (tie, 0.35)]),
            Some(0)
        );
    }

    #[test]
    fn a_break_without_flippers_reads_zero() {
        assert_eq!(measured_byzantine_tolerance(&[(0.5, 0.0)]), Some(0));
        assert_eq!(
            measured_byzantine_tolerance(&[(0.0, 0.4), (1.0, 1.0)]),
            Some(0)
        );
        assert_eq!(measured_byzantine_tolerance(&[]), None);
    }
}
