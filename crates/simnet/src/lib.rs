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
//! * every node is a closure `(ctx, q, rng) -> bool` that draws its own
//!   `q` samples from `rng` and returns its accept bit; the reliable
//!   star ([`Network::run_nodes`]) and the fault-injected one
//!   ([`ResilientNetwork::run`]) take the same closure;
//! * the referee's rules are the paper's: [`DecisionRule::And`] (the
//!   local rule — reject if *any* player rejects), the `T`-threshold
//!   rule (reject if at least `T` players reject), and majority;
//! * players may share randomness through [`PlayerContext::shared_seed`],
//!   and the asymmetric-cost model of §6.2 (per-player sampling rates
//!   `q_i = T_i · τ`) is supported via [`RateVector`];
//! * [`resilience`] injects message loss, crashes and adversaries into
//!   the same star to study rule robustness.
//!
//! # Example
//!
//! ```
//! use dut_simnet::{DecisionRule, Network, Verdict};
//! use dut_probability::{families, Sampler};
//! use rand::SeedableRng;
//!
//! let network = Network::new(8);
//! let sampler = families::uniform(1 << 14).alias_sampler();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // Each node draws 4 samples and rejects when it sees a repeat.
//! let outcome = network.run_nodes(vec![4; 8], &DecisionRule::And, &mut rng, |_ctx, q, rng| {
//!     sampler.collision_count(q, rng) == 0
//! });
//! // 8 players, 4 samples each from a large uniform domain: collisions
//! // are rare, so the AND rule almost surely accepts.
//! assert_eq!(outcome.verdict, Verdict::Accept);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Tests assert exact constructed values and index with small literals.
#![cfg_attr(test, allow(clippy::float_cmp, clippy::cast_possible_truncation))]

mod message;
mod network;
mod player;
mod rates;
mod rule;

pub mod resilience;

pub use message::Message;
pub use network::{record_run, Network, RunOutcome, Transcript};
pub use player::PlayerContext;
pub use rates::RateVector;
pub use resilience::{
    byzantine_tolerance, rejection_rate, ByzantineBehavior, ByzantinePlan, FaultPlan, FaultStats,
    GilbertElliott, IidFaults, MeasuredRates, MissingPolicy, PartialCrash, PreSample, Recovery,
    ReliablePlan, ResilientNetwork, ResilientOutcome, TargetedLoss,
};
pub use rule::{DecisionRule, Verdict};
