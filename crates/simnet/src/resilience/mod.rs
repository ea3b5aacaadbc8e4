//! Fault injection, fault-aware protocols, and graceful degradation.
//!
//! This module runs the one-bit protocol under a pluggable
//! [`FaultPlan`] (the simplest being iid message loss,
//! [`IidFaults`]) and asks the robustness question behind the paper's
//! locality trade-off: the AND
//! rule buys locality (any single player can raise the alarm) at the
//! price of *maximal fragility* — one lost or corrupted message
//! decides the verdict — while threshold rules degrade gracefully.
//!
//! Three layers:
//!
//! * **Fault models** ([`plan`], [`channel`], [`adversary`]): iid
//!   loss ([`IidFaults`]), bursty Gilbert–Elliott loss with one fixed
//!   burst shape ([`GilbertElliott`]), bit-flipping Byzantine players
//!   ([`ByzantinePlan`]) and the alarm silencer, a transcript-aware
//!   dropper of reject bits ([`TargetedLoss`]). These are the faults
//!   E12 and `dut faults` run.
//! * **Recovery** ([`recovery`], [`robust`]): repetition coding and
//!   ack/retry retransmission ([`Recovery`]) with referee-side
//!   majority decoding, plus the closed-form Byzantine-tolerance bound
//!   ([`byzantine_tolerance`]) and the break-point rule that reads it
//!   off measured errors ([`measured_byzantine_tolerance`]).
//! * **Measurement** ([`network`], [`measure`]): [`ResilientNetwork`]
//!   runs the protocol under a plan with full fault accounting
//!   ([`FaultStats`], surfaced through `dut report`), and
//!   [`rejection_rate`] produces paired, per-trial-coupled degradation
//!   curves from one run closure per trial.
//!
//! Everything is deterministic given the caller's RNG; see the
//! [`plan`] module docs for the coupling discipline that makes
//! error-vs-fault-rate curves exactly monotone per seed.

pub mod adversary;
pub mod channel;
pub mod measure;
pub mod network;
pub mod plan;
pub mod recovery;
pub mod robust;

pub use adversary::{ByzantinePlan, TargetedLoss};
pub use channel::GilbertElliott;
pub use measure::{rejection_rate, MeasuredRates};
pub use network::{FaultStats, MissingPolicy, ResilientNetwork, ResilientOutcome};
pub use plan::{FaultPlan, IidFaults, ReliablePlan};
pub use recovery::Recovery;
pub use robust::{byzantine_tolerance, measured_byzantine_tolerance};
