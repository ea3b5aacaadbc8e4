//! Fault-aware decision rules.
//!
//! Two questions, both answerable in closed form for threshold-type
//! rules:
//!
//! * **Byzantine tolerance.** `Threshold { min_rejects: T }` survives
//!   `t` corrupted players iff `t < min(T, k − T + 1)`: fewer than `T`
//!   fixed-reject players cannot force a reject on their own, and
//!   fewer than `k − T + 1` fixed-accept players cannot silence `T`
//!   honest alarms. The AND rule is `T = 1`, so its tolerance is
//!   **zero** — one Byzantine player decides every execution. This is
//!   the robustness price of the locality the paper buys with AND.
//!
//! * **Threshold recalibration.** Under benign faults at a known rate,
//!   the missing policy biases the reject count in a predictable
//!   direction; [`RobustRule`] shifts `T` to compensate and exposes the
//!   adjusted rule.

use crate::rule::DecisionRule;
use crate::MissingPolicy;
use dut_stats::convert::{ceil_to_usize, floor_to_usize, round_to_usize};

/// The reject threshold `T` equivalent to `rule` on `k` one-bit
/// players: the rule rejects iff at least `T` players reject. `None`
/// for [`DecisionRule::Custom`], which need not be a threshold
/// function.
#[must_use]
pub fn threshold_equivalent(rule: &DecisionRule, k: usize) -> Option<usize> {
    match rule {
        DecisionRule::And => Some(1),
        DecisionRule::Or => Some(k),
        DecisionRule::Threshold { min_rejects } => Some(*min_rejects),
        DecisionRule::Majority => Some(k / 2 + 1),
        DecisionRule::Custom(_) => None,
    }
}

/// The number of Byzantine players `rule` tolerates on `k` players:
/// the largest `t` such that *no* choice of `t` corrupted bits can
/// single-handedly decide the verdict, i.e. `min(T − 1, k − T)` for
/// the equivalent threshold `T`. `None` for custom rules.
///
/// The AND rule tolerates 0; `Majority` on `k` players tolerates
/// `⌈k/2⌉ − 1`, the maximum possible.
#[must_use]
pub fn byzantine_tolerance(rule: &DecisionRule, k: usize) -> Option<usize> {
    let t = threshold_equivalent(rule, k)?;
    Some(t.saturating_sub(1).min(k.saturating_sub(t)))
}

/// A threshold rule recalibrated for an estimated benign fault rate.
///
/// Given a base rule with equivalent threshold `T` and a per-player
/// probability `rate` of the referee not hearing an honest bit, the
/// wrapper shifts the threshold in the direction the missing policy
/// biases the vote:
///
/// * [`MissingPolicy::AssumeReject`] inflates the reject count by
///   about `rate · k` spurious rejects → `T' = T + ⌈rate · k⌉`
///   (capped at `k`);
/// * [`MissingPolicy::AssumeAccept`] erases about a `rate` fraction of
///   honest rejects → `T' = ⌊T · (1 − rate)⌋` (at least 1);
/// * [`MissingPolicy::Exclude`] shrinks the vote itself by a `rate`
///   fraction → `T' = round(T · (1 − rate))` (at least 1).
#[derive(Debug, Clone)]
pub struct RobustRule {
    base_threshold: usize,
    adjusted: DecisionRule,
    policy: MissingPolicy,
}

impl RobustRule {
    /// Recalibrates `rule` on `k` players for fault rate `rate` under
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `rule` is custom (no threshold structure to shift),
    /// if `rate` is outside `[0, 1)`, or if `k == 0`.
    #[must_use]
    pub fn calibrate(rule: &DecisionRule, k: usize, rate: f64, policy: MissingPolicy) -> Self {
        assert!(k > 0, "need at least one player");
        assert!(
            (0.0..1.0).contains(&rate),
            "fault rate must be in [0, 1), got {rate}"
        );
        let t = threshold_equivalent(rule, k)
            // dut-lint: allow(unwrap): documented `# Panics` contract — custom rules carry no threshold structure to shift
            .expect("cannot recalibrate a custom rule: no threshold structure");
        assert!(
            t >= 1 && t <= k,
            "base threshold {t} out of range for k={k}"
        );
        let adjusted_t = match policy {
            MissingPolicy::AssumeReject => (t + ceil_to_usize(rate * k as f64)).min(k),
            MissingPolicy::AssumeAccept => floor_to_usize(t as f64 * (1.0 - rate)).max(1),
            MissingPolicy::Exclude => round_to_usize(t as f64 * (1.0 - rate)).max(1),
        };
        Self {
            base_threshold: t,
            adjusted: DecisionRule::Threshold {
                min_rejects: adjusted_t,
            },
            policy,
        }
    }

    /// The recalibrated rule to hand to the referee.
    #[must_use]
    pub fn rule(&self) -> &DecisionRule {
        &self.adjusted
    }

    /// The threshold before recalibration.
    #[must_use]
    pub fn base_threshold(&self) -> usize {
        self.base_threshold
    }

    /// The threshold after recalibration.
    ///
    /// # Panics
    ///
    /// Never: the adjusted rule is a threshold by construction.
    #[must_use]
    pub fn adjusted_threshold(&self) -> usize {
        match self.adjusted {
            DecisionRule::Threshold { min_rejects } => min_rejects,
            _ => unreachable!("adjusted rule is a threshold by construction"),
        }
    }

    /// The missing policy the rule was calibrated for.
    #[must_use]
    pub fn policy(&self) -> MissingPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_equivalents() {
        assert_eq!(threshold_equivalent(&DecisionRule::And, 10), Some(1));
        assert_eq!(threshold_equivalent(&DecisionRule::Or, 10), Some(10));
        assert_eq!(
            threshold_equivalent(&DecisionRule::Threshold { min_rejects: 4 }, 10),
            Some(4)
        );
        assert_eq!(threshold_equivalent(&DecisionRule::Majority, 10), Some(6));
        assert_eq!(threshold_equivalent(&DecisionRule::Majority, 9), Some(5));
    }

    #[test]
    fn byzantine_tolerance_values() {
        // AND breaks at t = 1.
        assert_eq!(byzantine_tolerance(&DecisionRule::And, 16), Some(0));
        assert_eq!(byzantine_tolerance(&DecisionRule::Or, 16), Some(0));
        // Threshold{T} tolerates min(T-1, k-T).
        assert_eq!(
            byzantine_tolerance(&DecisionRule::Threshold { min_rejects: 4 }, 16),
            Some(3)
        );
        assert_eq!(
            byzantine_tolerance(&DecisionRule::Threshold { min_rejects: 14 }, 16),
            Some(2)
        );
        // Majority maximizes tolerance.
        assert_eq!(byzantine_tolerance(&DecisionRule::Majority, 16), Some(7));
        assert_eq!(byzantine_tolerance(&DecisionRule::Majority, 17), Some(8));
    }

    #[test]
    fn assume_reject_raises_threshold() {
        let r = RobustRule::calibrate(
            &DecisionRule::Threshold { min_rejects: 3 },
            16,
            0.2,
            MissingPolicy::AssumeReject,
        );
        // 3 + ceil(0.2 * 16) = 3 + 4 = 7.
        assert_eq!(r.adjusted_threshold(), 7);
        assert_eq!(r.base_threshold(), 3);
    }

    #[test]
    fn assume_accept_lowers_threshold() {
        let r = RobustRule::calibrate(
            &DecisionRule::Threshold { min_rejects: 8 },
            16,
            0.25,
            MissingPolicy::AssumeAccept,
        );
        // floor(8 * 0.75) = 6.
        assert_eq!(r.adjusted_threshold(), 6);
    }

    #[test]
    fn exclude_scales_threshold() {
        let r = RobustRule::calibrate(
            &DecisionRule::Threshold { min_rejects: 8 },
            16,
            0.25,
            MissingPolicy::Exclude,
        );
        assert_eq!(r.adjusted_threshold(), 6);
    }

    #[test]
    fn thresholds_stay_in_range() {
        // Never below 1...
        let low = RobustRule::calibrate(&DecisionRule::And, 8, 0.9, MissingPolicy::AssumeAccept);
        assert_eq!(low.adjusted_threshold(), 1);
        // ...never above k.
        let high = RobustRule::calibrate(&DecisionRule::Or, 8, 0.9, MissingPolicy::AssumeReject);
        assert_eq!(high.adjusted_threshold(), 8);
    }

    #[test]
    fn zero_rate_is_identity() {
        for policy in [
            MissingPolicy::AssumeAccept,
            MissingPolicy::AssumeReject,
            MissingPolicy::Exclude,
        ] {
            let r =
                RobustRule::calibrate(&DecisionRule::Threshold { min_rejects: 5 }, 12, 0.0, policy);
            assert_eq!(r.adjusted_threshold(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "custom rule")]
    fn custom_rules_rejected() {
        let custom = DecisionRule::Custom(std::sync::Arc::new(|bits: &[bool]| {
            let rejects = bits.iter().filter(|&&b| !b).count();
            crate::Verdict::from_accept_bit(rejects % 2 == 0)
        }));
        let _ = RobustRule::calibrate(&custom, 8, 0.1, MissingPolicy::Exclude);
    }
}
