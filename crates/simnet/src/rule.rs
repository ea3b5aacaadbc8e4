use crate::bits::PackedBits;
use std::fmt;
use std::sync::Arc;

/// A shared, thread-safe decision function over the players' accept
/// bits — the payload of [`DecisionRule::Custom`].
pub type CustomDecisionFn = Arc<dyn Fn(&[bool]) -> Verdict + Send + Sync>;

/// The referee's final decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The network declares the input distribution satisfies the property.
    Accept,
    /// The network raises an alarm.
    Reject,
}

impl Verdict {
    /// `true` for [`Verdict::Accept`].
    #[must_use]
    pub fn is_accept(self) -> bool {
        matches!(self, Verdict::Accept)
    }

    /// `true` for [`Verdict::Reject`].
    #[must_use]
    pub fn is_reject(self) -> bool {
        matches!(self, Verdict::Reject)
    }

    /// Builds a verdict from an accept bit.
    #[must_use]
    pub fn from_accept_bit(accept: bool) -> Self {
        if accept {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Accept => write!(f, "accept"),
            Verdict::Reject => write!(f, "reject"),
        }
    }
}

/// A decision rule `f : {0,1}^k → {0,1}` applied by the referee to the
/// players' accept bits.
///
/// The paper's hierarchy of locality:
///
/// * [`DecisionRule::And`] — the *local* rule: reject iff at least one
///   player rejects (Theorem 1.2 shows this is expensive);
/// * [`DecisionRule::Threshold`] — reject iff at least `min_rejects`
///   players reject (Theorem 1.3 for small thresholds; with a calibrated
///   threshold this achieves the optimal bound of Theorem 1.1);
/// * [`DecisionRule::Majority`] — reject iff more than half reject;
/// * [`DecisionRule::Or`] — reject iff *every* player rejects;
/// * [`DecisionRule::Custom`] — an arbitrary function of the bit vector.
#[derive(Clone)]
pub enum DecisionRule {
    /// Reject iff at least one player rejects (`f = AND` of accept bits).
    And,
    /// Reject iff every player rejects (`f = OR` of accept bits).
    Or,
    /// Reject iff at least `min_rejects` players reject.
    Threshold {
        /// Minimal number of rejecting players that triggers rejection.
        min_rejects: usize,
    },
    /// Reject iff strictly more than half of the players reject.
    Majority,
    /// An arbitrary decision function of the accept-bit vector.
    Custom(CustomDecisionFn),
}

impl DecisionRule {
    /// Applies the rule to a vector of accept bits (`true` = accept).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty, or for [`DecisionRule::Threshold`] with
    /// `min_rejects == 0` (which would reject unconditionally by
    /// convention and is almost certainly a configuration error).
    #[must_use]
    pub fn decide(&self, bits: &[bool]) -> Verdict {
        assert!(
            !bits.is_empty(),
            "decision rule needs at least one player bit"
        );
        if let DecisionRule::Custom(f) = self {
            return f(bits);
        }
        let rejects = bits.iter().filter(|&&b| !b).count();
        self.decide_from_rejects(rejects, bits.len())
    }

    /// Applies the rule to a bit-packed transcript. The built-in rules
    /// only need the rejection count, which packed words answer via
    /// `popcount`; [`DecisionRule::Custom`] unpacks to its slice form.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DecisionRule::decide`].
    #[must_use]
    pub fn decide_packed(&self, bits: &PackedBits) -> Verdict {
        assert!(
            !bits.is_empty(),
            "decision rule needs at least one player bit"
        );
        if let DecisionRule::Custom(f) = self {
            return f(&bits.to_bools());
        }
        self.decide_from_rejects(bits.count_zeros(), bits.len())
    }

    /// The built-in rules as a function of `(rejects, k)` alone.
    /// Callers have already dispatched [`DecisionRule::Custom`].
    fn decide_from_rejects(&self, rejects: usize, num_players: usize) -> Verdict {
        match self {
            DecisionRule::And => Verdict::from_accept_bit(rejects == 0),
            DecisionRule::Or => Verdict::from_accept_bit(rejects < num_players),
            DecisionRule::Threshold { min_rejects } => {
                assert!(*min_rejects > 0, "threshold rule needs min_rejects >= 1");
                Verdict::from_accept_bit(rejects < *min_rejects)
            }
            DecisionRule::Majority => Verdict::from_accept_bit(2 * rejects <= num_players),
            DecisionRule::Custom(_) => unreachable!("Custom is dispatched before counting"),
        }
    }

    /// A short identifier for tables and logs.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            DecisionRule::And => "and".to_owned(),
            DecisionRule::Or => "or".to_owned(),
            DecisionRule::Threshold { min_rejects } => format!("threshold({min_rejects})"),
            DecisionRule::Majority => "majority".to_owned(),
            DecisionRule::Custom(_) => "custom".to_owned(),
        }
    }
}

impl fmt::Debug for DecisionRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DecisionRule::{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_rejects_on_any_rejection() {
        assert_eq!(DecisionRule::And.decide(&[true, true]), Verdict::Accept);
        assert_eq!(DecisionRule::And.decide(&[true, false]), Verdict::Reject);
        assert_eq!(DecisionRule::And.decide(&[false, false]), Verdict::Reject);
    }

    #[test]
    fn or_rejects_only_unanimously() {
        assert_eq!(DecisionRule::Or.decide(&[false, true]), Verdict::Accept);
        assert_eq!(DecisionRule::Or.decide(&[false, false]), Verdict::Reject);
    }

    #[test]
    fn threshold_counts_rejections() {
        let rule = DecisionRule::Threshold { min_rejects: 2 };
        assert_eq!(rule.decide(&[false, true, true]), Verdict::Accept);
        assert_eq!(rule.decide(&[false, false, true]), Verdict::Reject);
        assert_eq!(rule.decide(&[false, false, false]), Verdict::Reject);
    }

    #[test]
    fn threshold_one_equals_and() {
        let rule = DecisionRule::Threshold { min_rejects: 1 };
        for bits in [[true, true], [true, false], [false, false]] {
            assert_eq!(rule.decide(&bits), DecisionRule::And.decide(&bits));
        }
    }

    #[test]
    fn majority_breaks_ties_towards_accept() {
        assert_eq!(
            DecisionRule::Majority.decide(&[true, false]),
            Verdict::Accept
        );
        assert_eq!(
            DecisionRule::Majority.decide(&[true, false, false]),
            Verdict::Reject
        );
    }

    #[test]
    fn custom_rule_applies_closure() {
        // Parity rule: reject iff an odd number of players reject.
        let rule = DecisionRule::Custom(Arc::new(|bits: &[bool]| {
            let rejects = bits.iter().filter(|&&b| !b).count();
            Verdict::from_accept_bit(rejects % 2 == 0)
        }));
        assert_eq!(rule.decide(&[false, true]), Verdict::Reject);
        assert_eq!(rule.decide(&[false, false]), Verdict::Accept);
        assert_eq!(rule.name(), "custom");
    }

    #[test]
    fn decide_packed_agrees_with_slice_form() {
        let rules = [
            DecisionRule::And,
            DecisionRule::Or,
            DecisionRule::Threshold { min_rejects: 2 },
            DecisionRule::Majority,
            DecisionRule::Custom(Arc::new(|bits: &[bool]| {
                let rejects = bits.iter().filter(|&&b| !b).count();
                Verdict::from_accept_bit(rejects % 2 == 0)
            })),
        ];
        // Every bit pattern over 5 players, plus a >64-player transcript
        // to cross the packed word boundary.
        for rule in &rules {
            for pattern in 0u32..32 {
                let bits: Vec<bool> = (0..5).map(|i| pattern & (1 << i) != 0).collect();
                let packed = PackedBits::from_bools(&bits);
                assert_eq!(
                    rule.decide(&bits),
                    rule.decide_packed(&packed),
                    "rule {} on {bits:?}",
                    rule.name()
                );
            }
            let long: Vec<bool> = (0..100).map(|i| i % 7 != 0).collect();
            assert_eq!(
                rule.decide(&long),
                rule.decide_packed(&PackedBits::from_bools(&long))
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn decide_packed_empty_panics() {
        let _ = DecisionRule::And.decide_packed(&PackedBits::new());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DecisionRule::And.name(), "and");
        assert_eq!(
            DecisionRule::Threshold { min_rejects: 7 }.name(),
            "threshold(7)"
        );
        assert_eq!(
            format!("{:?}", DecisionRule::Majority),
            "DecisionRule::majority"
        );
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Accept.is_accept());
        assert!(Verdict::Reject.is_reject());
        assert_eq!(Verdict::from_accept_bit(true), Verdict::Accept);
        assert_eq!(Verdict::Accept.to_string(), "accept");
        assert_eq!(Verdict::Reject.to_string(), "reject");
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn empty_bits_panics() {
        let _ = DecisionRule::And.decide(&[]);
    }

    #[test]
    #[should_panic(expected = "min_rejects >= 1")]
    fn zero_threshold_panics() {
        let _ = DecisionRule::Threshold { min_rejects: 0 }.decide(&[true]);
    }
}
