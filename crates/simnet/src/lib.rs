//! A simulated simultaneous-message network for distributed distribution
//! testing, realizing the model of *Can Distributed Uniformity Testing Be
//! Local?* (PODC 2019):
//!
//! * `k` **players** each draw `q` iid samples from an unknown
//!   distribution and send an `r`-bit message to a **referee**, which
//!   announces the verdict ([`Verdict::Accept`] / [`Verdict::Reject`]).
//!   The paper's main results use `r = 1`; the `r`-bit protocols of
//!   Theorem 6.4 and \[ACT18\] are `dut_testers::QuantizedSumTester`
//!   (experiment E6) and `dut_testers::SingleSampleProtocol` (E4);
//! * every node is a closure `(player, q, rng) -> M` that draws its own
//!   `q` samples from `rng` and returns its message, and the referee is
//!   a closure `&[M] -> Verdict`. [`Network::run_nodes`] runs them and
//!   counts the run once in the metrics registry; every protocol in the
//!   workspace runs its nodes through it;
//! * the one-bit referee rule is the paper's `T`-threshold rule
//!   [`DecisionRule`] (reject if at least `T` players reject), whose
//!   `T = 1` is the AND rule (the local rule — reject if *any* player
//!   rejects) and whose `T = ⌊k/2⌋ + 1` is majority. The
//!   fault-injected star ([`ResilientNetwork::run`]) takes the same
//!   one-bit node closure, and the threshold testers run their own
//!   node and referee on it
//!   (`dut_testers::PreparedThresholdTester::run_faulty`);
//! * the network draws no shared randomness: a protocol that uses it
//!   draws its own seed from the run's RNG before its nodes run (the
//!   single-sample protocol's shared partition);
//! * the asymmetric-cost model of §6.2 (per-player sampling rates
//!   `q_i = T_i · τ`) is supported via [`RateVector`];
//! * [`resilience`] injects message loss and adversaries into the same
//!   star to study rule robustness.
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
//! let outcome = network.run_nodes(
//!     vec![4; 8],
//!     1,
//!     &mut rng,
//!     |_player, q, rng| sampler.collision_count(q, rng) == 0,
//!     |bits| DecisionRule { min_rejects: 1 }.decide(bits),
//! );
//! // 8 players, 4 samples each from a large uniform domain: collisions
//! // are rare, so the AND rule almost surely accepts.
//! assert_eq!(outcome.verdict, Verdict::Accept);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact constructed values and index with small literals"
    )
)]

mod network;
mod rates;
mod rule;

pub mod resilience;

pub use network::{Network, RunOutcome, Transcript};
pub use rates::RateVector;
pub use resilience::{
    byzantine_tolerance, measured_byzantine_tolerance, rejection_rate, ByzantinePlan, FaultPlan,
    FaultStats, GilbertElliott, IidFaults, MeasuredRates, MissingPolicy, Recovery, ReliablePlan,
    ResilientNetwork, ResilientOutcome, TargetedLoss,
};
pub use rule::{DecisionRule, Verdict};
