//! A simulated simultaneous-message network for distributed distribution
//! testing, realizing the model of *Can Distributed Uniformity Testing Be
//! Local?* (PODC 2019):
//!
//! * `k` **players** each draw `q` iid samples from an unknown
//!   distribution and send a single bit to a **referee** (the extended
//!   `r`-bit [`Message`] model runs in `dut_testers::QuantizedSumTester`,
//!   which experiment E6 uses);
//! * the referee applies a **decision rule** `f : {0,1}^k → {0,1}` and
//!   announces the verdict ([`Verdict::Accept`] / [`Verdict::Reject`]);
//! * the paper's special rules are first-class: [`DecisionRule::And`]
//!   (the local rule — reject if *any* player rejects), the `T`-threshold
//!   rule (reject if at least `T` players reject), majority, and
//!   arbitrary custom rules;
//! * players may share randomness through [`PlayerContext::shared_seed`],
//!   and the asymmetric-cost model of §6.2 (per-player sampling rates
//!   `q_i = T_i · τ`) is supported via [`RateVector`];
//! * [`resilience`] injects message loss, crashes and adversaries into
//!   the same star to study rule robustness.
//!
//! # Example
//!
//! ```
//! use dut_simnet::{DecisionRule, Network, Player, PlayerContext, Verdict};
//! use dut_probability::{families, Sampler};
//! use rand::SeedableRng;
//!
//! /// A player that rejects when it sees a repeated sample.
//! struct CollisionPlayer;
//! impl Player for CollisionPlayer {
//!     fn accepts(&self, _ctx: &PlayerContext, samples: &[usize]) -> bool {
//!         dut_probability::empirical::collision_count_of(samples) == 0
//!     }
//! }
//!
//! let network = Network::new(8);
//! let sampler = families::uniform(1 << 14).alias_sampler();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let outcome = network.run(&sampler, 4, &CollisionPlayer, &DecisionRule::And, &mut rng);
//! // 8 players, 4 samples each from a large uniform domain: collisions
//! // are rare, so the AND rule almost surely accepts.
//! assert_eq!(outcome.verdict, Verdict::Accept);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Tests assert exact constructed values and index with small literals.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]

mod bits;
mod message;
mod network;
mod player;
mod rates;
mod rule;

pub mod resilience;

pub use bits::PackedBits;
pub use message::Message;
pub use network::{record_run, Network, RunOutcome, Transcript};
pub use player::{Player, PlayerContext};
pub use rates::RateVector;
pub use resilience::{
    byzantine_tolerance, rejection_rate, ByzantineBehavior, ByzantinePlan, FaultPlan, FaultStats,
    GilbertElliott, IidFaults, MeasuredRates, MissingPolicy, PartialCrash, PreSample, Recovery,
    ReliablePlan, ResilientNetwork, ResilientOutcome, RobustRule, TargetedLoss,
};
pub use rule::{CustomDecisionFn, DecisionRule, Verdict};
