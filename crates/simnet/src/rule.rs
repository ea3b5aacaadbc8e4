use std::fmt;

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

    /// The verdict's name, `accept` or `reject`, as `Display` writes it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Accept => "accept",
            Verdict::Reject => "reject",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A decision rule `f : {0,1}^k → {0,1}` applied by the referee to the
/// players' accept bits.
///
/// The paper's hierarchy of locality:
///
/// * [`DecisionRule::Threshold`] — reject iff at least `min_rejects`
///   players reject. `min_rejects: 1` is the AND rule, the *local*
///   rule: reject iff at least one player rejects (Theorem 1.2 shows
///   this is expensive). Small thresholds are Theorem 1.3; with a
///   calibrated threshold this achieves the optimal bound of
///   Theorem 1.1;
/// * [`DecisionRule::Majority`] — reject iff more than half reject.
///   Unlike a fixed threshold it scales with the number of bits it is
///   given, so under [`MissingPolicy::Exclude`](crate::MissingPolicy::Exclude)
///   it votes on the bits the referee heard.
#[derive(Clone)]
pub enum DecisionRule {
    /// Reject iff at least `min_rejects` players reject (`min_rejects:
    /// 1` is `f = AND` of the accept bits).
    Threshold {
        /// Minimal number of rejecting players that triggers rejection.
        min_rejects: usize,
    },
    /// Reject iff strictly more than half of the players reject.
    Majority,
}

impl DecisionRule {
    /// Applies the rule to a vector of accept bits (`true` = accept),
    /// which it reads only through its rejection count.
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
        let rejects = bits.iter().filter(|&&b| !b).count();
        match self {
            DecisionRule::Threshold { min_rejects } => {
                assert!(*min_rejects > 0, "threshold rule needs min_rejects >= 1");
                Verdict::from_accept_bit(rejects < *min_rejects)
            }
            DecisionRule::Majority => Verdict::from_accept_bit(2 * rejects <= bits.len()),
        }
    }

    /// A short identifier for tables and logs.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            DecisionRule::Threshold { min_rejects } => format!("threshold({min_rejects})"),
            DecisionRule::Majority => "majority".to_owned(),
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
    fn threshold_one_rejects_on_any_rejection() {
        let and = DecisionRule::Threshold { min_rejects: 1 };
        assert_eq!(and.decide(&[true, true]), Verdict::Accept);
        assert_eq!(and.decide(&[true, false]), Verdict::Reject);
        assert_eq!(and.decide(&[false, false]), Verdict::Reject);
    }

    #[test]
    fn threshold_counts_rejections() {
        let rule = DecisionRule::Threshold { min_rejects: 2 };
        assert_eq!(rule.decide(&[false, true, true]), Verdict::Accept);
        assert_eq!(rule.decide(&[false, false, true]), Verdict::Reject);
        assert_eq!(rule.decide(&[false, false, false]), Verdict::Reject);
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
    fn names_are_stable() {
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
        let _ = DecisionRule::Majority.decide(&[]);
    }

    #[test]
    #[should_panic(expected = "min_rejects >= 1")]
    fn zero_threshold_panics() {
        let _ = DecisionRule::Threshold { min_rejects: 0 }.decide(&[true]);
    }
}
