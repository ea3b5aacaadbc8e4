//! Degradation measurement: estimate rejection/error rates of a
//! protocol under a fault plan, with per-trial seed derivation so that
//! sweeps over fault rates reuse identical trial randomness.

use super::network::ResilientOutcome;
use dut_stats::seed::derive_seed2;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measured verdict rates of one protocol arm over `trials` runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRates {
    /// Fraction of runs the referee rejected.
    pub rejection_rate: f64,
    /// Mean copies delivered to the referee per run (the communication
    /// cost actually paid, including redundancy).
    pub mean_delivered_bits: f64,
    /// Mean retransmission attempts per run.
    pub mean_retries: f64,
}

impl MeasuredRates {
    /// Error rate against a uniform (should-accept) input: the
    /// false-alarm probability.
    #[must_use]
    pub fn error_on_uniform(&self) -> f64 {
        self.rejection_rate
    }

    /// Error rate against an ε-far (should-reject) input: the
    /// missed-detection probability.
    #[must_use]
    pub fn error_on_far(&self) -> f64 {
        1.0 - self.rejection_rate
    }
}

/// Runs `trials` independent executions of the protocol, each one call
/// of `run` on its own RNG, and measures verdict and cost rates. `run`
/// is a prepared tester's `run_faulty`, or
/// [`ResilientNetwork::run`](super::ResilientNetwork::run) with a node
/// of the caller's.
///
/// Trial `t` runs with an RNG seeded by
/// `derive_seed2(master_seed, plan_stream, t)`: for a fixed
/// `master_seed` and `plan_stream`, trial `t` sees the *same* caller
/// randomness across different fault plans and rates, so measured
/// curves over a rate sweep are paired (and, for plans honoring the
/// coupling discipline, pointwise monotone — see the
/// [`plan`](super::plan) module docs).
///
/// `plan_stream` selects the fault-randomness universe; use one value
/// per sweep so arms differ only in the plan parameters.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn rejection_rate(
    trials: usize,
    master_seed: u64,
    plan_stream: u64,
    mut run: impl FnMut(&mut StdRng) -> ResilientOutcome,
) -> MeasuredRates {
    assert!(trials > 0, "need at least one trial");
    let mut rejects = 0usize;
    let mut delivered = 0u64;
    let mut retries = 0u64;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(derive_seed2(master_seed, plan_stream, t as u64));
        let out = run(&mut rng);
        if out.verdict.is_reject() {
            rejects += 1;
        }
        delivered += out.faults.delivered_bits;
        retries += out.faults.retries;
    }
    MeasuredRates {
        rejection_rate: rejects as f64 / trials as f64,
        mean_delivered_bits: delivered as f64 / trials as f64,
        mean_retries: retries as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::super::plan::{IidFaults, ReliablePlan};
    use super::*;
    use crate::{DecisionRule, MissingPolicy, ResilientNetwork};

    /// The AND rule: reject iff any player rejects.
    const AND: DecisionRule = DecisionRule { min_rejects: 1 };

    fn always_reject(_: usize, _: usize, _: &mut StdRng) -> bool {
        false
    }

    #[test]
    fn rates_on_extremes() {
        let net = ResilientNetwork::new(4, MissingPolicy::AssumeAccept);
        let m = rejection_rate(20, 7, 0, |rng| {
            net.run(1, &AND, &mut ReliablePlan, rng, always_reject)
        });
        assert!((m.rejection_rate - 1.0).abs() < f64::EPSILON);
        assert!((m.error_on_far() - 0.0).abs() < f64::EPSILON);
        assert!((m.mean_delivered_bits - 4.0).abs() < f64::EPSILON);
    }

    #[test]
    fn loss_sweep_is_monotone_per_trial() {
        // The coupling discipline end-to-end: AND + AssumeAccept on an
        // always-rejecting player can only lose alarms as the rate
        // grows, so the measured rejection rate is nonincreasing.
        let net = ResilientNetwork::new(6, MissingPolicy::AssumeAccept);
        let mut last = f64::INFINITY;
        for step in 0..=5 {
            let mut plan = IidFaults::loss_only(f64::from(step) * 0.2);
            let m = rejection_rate(40, 99, 3, |rng| {
                net.run(1, &AND, &mut plan, rng, always_reject)
            });
            assert!(
                m.rejection_rate <= last + f64::EPSILON,
                "rate rose from {last} to {} at step {step}",
                m.rejection_rate
            );
            last = m.rejection_rate;
        }
        assert!(
            (last - 0.0).abs() < f64::EPSILON,
            "full loss must silence all alarms"
        );
    }
}
