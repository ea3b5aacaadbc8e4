//! Experiment harness: deterministic seeding, parallel trial running,
//! Wilson confidence intervals, adaptive sample-complexity search, and
//! table output.
//!
//! Every experiment in this repository follows the same recipe:
//!
//! 1. derive independent per-trial seeds from a master seed
//!    ([`seed::derive_seed`]),
//! 2. run many trials in parallel: [`runner::decide_two_sided`] decides
//!    whether both sides of a test reach the paper's 2/3 success rate,
//!    running the trials of whichever side is losing and stopping as
//!    soon as the finished trials fix the answer, and
//!    [`runner::run_measurements`] collects one value per trial;
//!    success counts are summarized with Wilson intervals
//!    ([`SuccessEstimate`]),
//! 3. binary-search the minimal per-player sample count `q*` at which a
//!    tester reaches that guarantee ([`search::minimal_sufficient`]),
//! 4. fit log-log slopes over a parameter sweep ([`sweep`]) and render
//!    Markdown/CSV tables ([`table`]).
//!
//! # Example
//!
//! ```
//! use dut_stats::runner::{decide_two_sided, run_measurements};
//! use dut_stats::SuccessEstimate;
//!
//! // A "protocol" that succeeds iff its seed is even: succeeds ~half the time.
//! let outcomes = run_measurements(1000, 42, |seed| if seed % 2 == 0 { 1.0 } else { 0.0 });
//! let successes = outcomes.iter().filter(|&&v| v > 0.5).count() as u64;
//! let estimate = SuccessEstimate::new(successes, 1000);
//! assert!(estimate.point() > 0.4 && estimate.point() < 0.6);
//! assert!(estimate.wilson_lower(2.0) < estimate.point());
//!
//! // Half is short of 2/3, so the two-sided test fails (usually long
//! // before all 2 × 1000 trials have run).
//! assert!(!decide_two_sided(1000, [42, 43], |_side, seed| seed % 2 == 0));
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

pub mod bootstrap;
pub mod convert;
pub mod runner;
pub mod search;
pub mod seed;
pub mod sweep;
pub mod table;
mod wilson;

pub use wilson::SuccessEstimate;

/// The paper's required success probability for both sides of the test.
pub const REQUIRED_SUCCESS: f64 = 2.0 / 3.0;
