//! # distributed-uniformity
//!
//! Reproduction of *Can Distributed Uniformity Testing Be Local?*
//! (Meir, Minzer, Oshman — PODC 2019).
//!
//! This facade crate re-exports the full public API of
//! [`dut_core`] — the tester builder, the decision-rule hierarchy, the
//! protocol advisor, and the substrate crates (probability, Fourier
//! analysis, the simulated network, the tester library, the experiment
//! harness, and the executable lower-bound machinery).
//!
//! See the repository `README.md` for an architectural overview,
//! `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for the
//! reproduced results. Runnable examples live under `examples/`:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example sensor_network
//! cargo run --release --example rule_comparison
//! cargo run --release --example identity_testing
//! cargo run --release --example lower_bound_demo
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact constructed values and index with small literals"
    )
)]

pub use dut_core::*;
