use crate::tester::UniformityTester;
use std::error::Error;
use std::fmt;

/// The decision-rule hierarchy for distributed uniformity testing,
/// ordered from most to least local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The AND rule: reject iff any player rejects (Theorem 1.2 regime —
    /// expensive: `Ω(√n/(log²k·ε²))` samples per player).
    And,
    /// The `T`-threshold rule with a *small* fixed `T`: reject iff at
    /// least `t` players reject (Theorem 1.3 regime).
    TThreshold {
        /// The rejection threshold `T ≥ 1`.
        t: usize,
    },
    /// The calibrated balanced-threshold protocol: sample-optimal,
    /// matching Theorem 1.1 with `O(√(n/k)/ε²)` samples per player.
    Balanced,
    /// The centralized baseline: one machine draws all samples and runs
    /// the collision tester (`Θ(√n/ε²)`).
    Centralized,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::And => write!(f, "and"),
            Rule::TThreshold { t } => write!(f, "threshold({t})"),
            Rule::Balanced => write!(f, "balanced"),
            Rule::Centralized => write!(f, "centralized"),
        }
    }
}

/// Error constructing a [`UniformityTester`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The domain size was zero.
    EmptyDomain,
    /// The player count was zero.
    NoPlayers,
    /// `epsilon` outside `(0, 1]`.
    BadEpsilon(f64),
    /// A `T`-threshold rule with `t` outside `1..=k`.
    BadThreshold {
        /// The offending threshold.
        t: usize,
        /// The number of players.
        k: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyDomain => write!(f, "domain size must be positive"),
            ConfigError::NoPlayers => write!(f, "player count must be positive"),
            ConfigError::BadEpsilon(e) => write!(f, "epsilon must be in (0, 1], got {e}"),
            ConfigError::BadThreshold { t, k } => {
                write!(f, "threshold {t} outside 1..={k}")
            }
        }
    }
}

impl Error for ConfigError {}

/// Builder for [`UniformityTester`].
///
/// # Example
///
/// ```
/// use dut_core::{Rule, UniformityTester};
///
/// # fn main() -> Result<(), dut_core::ConfigError> {
/// let tester = UniformityTester::builder()
///     .domain_size(256)
///     .players(16)
///     .epsilon(0.25)
///     .rule(Rule::And)
///     .build()?;
/// assert_eq!(tester.players(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UniformityTesterBuilder {
    domain_size: usize,
    players: usize,
    epsilon: f64,
    rule: Rule,
}

impl Default for UniformityTesterBuilder {
    fn default() -> Self {
        Self {
            domain_size: 0,
            players: 1,
            epsilon: 0.5,
            rule: Rule::Balanced,
        }
    }
}

impl UniformityTesterBuilder {
    /// Starts a builder with defaults (`players = 1`, `ε = 0.5`,
    /// balanced rule).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the domain size `n` (required).
    #[must_use]
    pub fn domain_size(mut self, n: usize) -> Self {
        self.domain_size = n;
        self
    }

    /// Sets the number of players `k`.
    #[must_use]
    pub fn players(mut self, k: usize) -> Self {
        self.players = k;
        self
    }

    /// Sets the proximity parameter `ε`.
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the decision rule.
    #[must_use]
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rule = rule;
        self
    }

    /// Validates and builds the tester.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid field.
    pub fn build(self) -> Result<UniformityTester, ConfigError> {
        if self.domain_size == 0 {
            return Err(ConfigError::EmptyDomain);
        }
        if self.players == 0 {
            return Err(ConfigError::NoPlayers);
        }
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(ConfigError::BadEpsilon(self.epsilon));
        }
        if let Rule::TThreshold { t } = self.rule {
            if t == 0 || t > self.players {
                return Err(ConfigError::BadThreshold { t, k: self.players });
            }
        }
        Ok(UniformityTester::from_parts(
            self.domain_size,
            self.players,
            self.epsilon,
            self.rule,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_fields() {
        let base = || {
            UniformityTesterBuilder::new()
                .domain_size(16)
                .players(4)
                .epsilon(0.5)
        };
        assert!(base().build().is_ok());
        assert_eq!(
            UniformityTesterBuilder::new()
                .players(4)
                .build()
                .unwrap_err(),
            ConfigError::EmptyDomain
        );
        assert_eq!(
            base().players(0).build().unwrap_err(),
            ConfigError::NoPlayers
        );
        assert!(matches!(
            base().epsilon(0.0).build().unwrap_err(),
            ConfigError::BadEpsilon(_)
        ));
        assert!(matches!(
            base().rule(Rule::TThreshold { t: 5 }).build().unwrap_err(),
            ConfigError::BadThreshold { t: 5, k: 4 }
        ));
    }

    #[test]
    fn display_impls() {
        assert_eq!(Rule::And.to_string(), "and");
        assert_eq!(Rule::TThreshold { t: 3 }.to_string(), "threshold(3)");
        assert_eq!(Rule::Balanced.to_string(), "balanced");
        assert_eq!(Rule::Centralized.to_string(), "centralized");
        assert!(ConfigError::EmptyDomain.to_string().contains("domain"));
        assert!(ConfigError::BadEpsilon(2.0).to_string().contains('2'));
    }

    #[test]
    fn default_builder_is_balanced() {
        let t = UniformityTesterBuilder::new()
            .domain_size(64)
            .build()
            .unwrap();
        assert_eq!(t.rule(), Rule::Balanced);
        assert_eq!(t.players(), 1);
    }
}
