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

/// The referee's decision rule `f : {0,1}^k → {0,1}` on the players'
/// accept bits: reject iff at least `min_rejects` players reject.
///
/// Every referee in the paper counts rejections. `min_rejects: 1` is
/// the AND rule, the *local* rule: reject iff at least one player
/// rejects (Theorem 1.2 shows this is expensive). Small thresholds are
/// Theorem 1.3; with a calibrated threshold this achieves the optimal
/// bound of Theorem 1.1; majority on `k` players is
/// `min_rejects: k / 2 + 1`.
#[derive(Debug, Clone)]
pub struct DecisionRule {
    /// Minimal number of rejecting players that triggers rejection.
    pub min_rejects: usize,
}

impl DecisionRule {
    /// The verdict once `rejects` players have rejected and `unheard`
    /// players are still to report, if their bits can no longer change
    /// it: [`Verdict::Reject`] once `rejects` reaches `min_rejects`,
    /// [`Verdict::Accept`] once `rejects + unheard` cannot, and `None`
    /// while both verdicts remain possible. With `unheard == 0` it is
    /// always `Some`, and it is [`Self::decide`].
    ///
    /// # Panics
    ///
    /// Panics if `min_rejects == 0` (which would reject unconditionally
    /// by convention and is almost certainly a configuration error).
    #[must_use]
    pub fn settled(&self, rejects: usize, unheard: usize) -> Option<Verdict> {
        assert!(
            self.min_rejects > 0,
            "threshold rule needs min_rejects >= 1"
        );
        if rejects >= self.min_rejects {
            Some(Verdict::Reject)
        } else if rejects + unheard < self.min_rejects {
            Some(Verdict::Accept)
        } else {
            None
        }
    }

    /// Applies the rule to a vector of accept bits (`true` = accept),
    /// which it reads only through its rejection count: the verdict
    /// [`Self::settled`] gives once every player is heard.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty, or if `min_rejects == 0`.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "with no player unheard, `settled` always returns a verdict"
    )]
    pub fn decide(&self, bits: &[bool]) -> Verdict {
        assert!(
            !bits.is_empty(),
            "decision rule needs at least one player bit"
        );
        let rejects = bits.iter().filter(|&&b| !b).count();
        self.settled(rejects, 0)
            .expect("a rule with every player heard is settled")
    }

    /// A short identifier for tables and logs.
    #[must_use]
    pub fn name(&self) -> String {
        format!("threshold({})", self.min_rejects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_one_rejects_on_any_rejection() {
        let and = DecisionRule { min_rejects: 1 };
        assert_eq!(and.decide(&[true, true]), Verdict::Accept);
        assert_eq!(and.decide(&[true, false]), Verdict::Reject);
        assert_eq!(and.decide(&[false, false]), Verdict::Reject);
    }

    #[test]
    fn threshold_counts_rejections() {
        let rule = DecisionRule { min_rejects: 2 };
        assert_eq!(rule.decide(&[false, true, true]), Verdict::Accept);
        assert_eq!(rule.decide(&[false, false, true]), Verdict::Reject);
        assert_eq!(rule.decide(&[false, false, false]), Verdict::Reject);
    }

    #[test]
    fn settles_once_the_unheard_bits_cannot_change_the_verdict() {
        let rule = DecisionRule { min_rejects: 2 };
        assert_eq!(rule.settled(0, 3), None);
        assert_eq!(rule.settled(1, 1), None);
        assert_eq!(rule.settled(2, 5), Some(Verdict::Reject));
        assert_eq!(rule.settled(1, 0), Some(Verdict::Accept));
        assert_eq!(rule.settled(0, 1), Some(Verdict::Accept));
        // A threshold above the player count accepts before anyone reports.
        assert_eq!(
            DecisionRule { min_rejects: 4 }.settled(0, 3),
            Some(Verdict::Accept)
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DecisionRule { min_rejects: 7 }.name(), "threshold(7)");
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
        let _ = DecisionRule { min_rejects: 1 }.decide(&[]);
    }

    #[test]
    #[should_panic(expected = "min_rejects >= 1")]
    fn zero_threshold_panics() {
        let _ = DecisionRule { min_rejects: 0 }.decide(&[true]);
    }
}
