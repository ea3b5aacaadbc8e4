//! # Distributed uniformity testing
//!
//! A comprehensive reproduction of *Can Distributed Uniformity Testing
//! Be Local?* (Meir, Minzer, Oshman — PODC 2019): the simultaneous-
//! message model, the tester protocols the paper's bounds are tight
//! against, and the lower-bound machinery itself, all executable.
//!
//! This crate is the high-level entry point:
//!
//! * [`UniformityTester`] — configure a distributed uniformity test
//!   (domain size, players, proximity, decision rule) and run it;
//! * [`Rule`] — the locality hierarchy: AND / T-threshold / calibrated
//!   balanced threshold / centralized;
//! * [`advisor`] — protocol selection and predicted sample counts from
//!   the paper's theorems;
//! * re-exports of every substrate crate under [`probability`],
//!   [`fourier`], [`simnet`], [`testers`], [`stats`], [`lowerbound`].
//!
//! # Quickstart
//!
//! ```
//! use dut_core::{Rule, UniformityTester};
//! use dut_core::probability::families;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), dut_core::ConfigError> {
//! let tester = UniformityTester::builder()
//!     .domain_size(1 << 10)
//!     .players(32)
//!     .epsilon(0.5)
//!     .rule(Rule::Balanced)
//!     .build()?;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let q = tester.predicted_sample_count();
//! let prepared = tester.prepare(q, &mut rng);
//!
//! let uniform = families::uniform(1 << 10).alias_sampler();
//! let verdict = prepared.run(&uniform, &mut rng);
//! println!("verdict on uniform input: {verdict}");
//! # Ok(())
//! # }
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

pub mod advisor;
mod config;
mod tester;

pub use config::{ConfigError, Rule, UniformityTesterBuilder};
pub use tester::{PreparedUniformityTester, UniformityTester};

/// Re-export: discrete distributions, samplers, distances, hard family.
pub use dut_probability as probability;

/// Re-export: Boolean Fourier analysis and even-cover combinatorics.
pub use dut_fourier as fourier;

/// Re-export: the simulated simultaneous-message network.
pub use dut_simnet as simnet;

/// Re-export: centralized and distributed testers.
pub use dut_testers as testers;

/// Re-export: the experiment harness.
pub use dut_stats as stats;

/// Re-export: the executable lower-bound machinery.
pub use dut_lowerbound as lowerbound;

/// Re-export: metrics and tracing (`DUT_TRACE`, `dut report`).
pub use dut_obs as obs;

pub use dut_simnet::Verdict;
