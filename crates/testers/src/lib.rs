//! Uniformity testers: the upper bounds that the paper's lower bounds are
//! tight against.
//!
//! # Centralized testers ([`centralized`])
//!
//! * [`CollisionTester`] — the classic Goldreich–Ron collision tester,
//!   `Θ(√n/ε²)` samples,
//! * [`PaninskiTester`] — Paninski's coincidence tester,
//! * [`Chi2Tester`] — a χ²-style identity tester (against any reference),
//! * [`EmpiricalL1Tester`] — the learning baseline (`Θ(n/ε²)` samples).
//!
//! # Distributed testers ([`distributed`])
//!
//! * [`TThresholdTester`] — the Fischer–Meir–Oshman protocol family:
//!   every node runs a local collision test whose false-positive rate is
//!   calibrated to the decision rule; the referee rejects when at least
//!   `T` nodes reject. `T = 1` is the **AND rule** studied by
//!   Theorem 1.2; small `T` is the regime of Theorem 1.3.
//! * [`BalancedThresholdTester`] — the sample-optimal protocol matching
//!   Theorem 1.1: nodes send *balanced* bits (local collision statistic
//!   above/below its uniform mean) and the referee counts rejections
//!   against a Monte-Carlo-calibrated threshold; `O(√(n/k)/ε²)` samples
//!   per node.
//!
//!   Both prepare into one [`PreparedThresholdTester`]: a node rejects
//!   when its collision count exceeds an integer threshold, and the
//!   referee rejects once enough nodes do. The rules differ only in
//!   how `prepare` picks the two thresholds.
//! * [`SingleSampleProtocol`] — the Acharya–Canonne–Tyagi regime: one
//!   sample per node, `ℓ`-bit messages via a shared random partition.
//! * [`FourierLearner`] — distributed learning of the input distribution
//!   (the object of Theorem 1.4).
//!
//! # Supporting machinery
//!
//! * [`poisson`] — Poisson tail bounds used for per-node thresholds,
//! * [`reduction`] — Goldreich's reduction showing uniformity testing is
//!   complete for identity testing.
//!
//! # Example: centralized collision testing
//!
//! ```
//! use dut_testers::{centralized::CollisionTester, CentralizedTester};
//! use dut_probability::{families, Sampler};
//! use rand::SeedableRng;
//!
//! let n = 1 << 10;
//! let tester = CollisionTester::new(n, 0.5);
//! let q = tester.recommended_sample_count();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//!
//! let uniform = families::uniform(n).alias_sampler();
//! let samples = uniform.sample_many(q, &mut rng);
//! assert!(tester.test(&samples).is_accept());
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

pub mod centralized;
pub mod distributed;
pub mod poisson;
pub mod reduction;

pub use centralized::{
    CentralizedTester, Chi2Tester, CollisionTester, EmpiricalL1Tester, PaninskiTester,
    SequentialUniformityTester, UniqueElementsTester,
};
pub use distributed::{
    AsymmetricThresholdTester, BalancedThresholdTester, FourierLearner, PreparedThresholdTester,
    QuantizedSumTester, SingleSampleProtocol, TThresholdTester,
};
