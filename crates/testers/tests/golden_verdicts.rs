//! Golden verdict checksums for the protocols that run on the star
//! network.
//!
//! Each protocol runs 1,000 seeded executions, alternating a uniform
//! and a far input, through `run` (alias sampler). Every outcome's
//! verdict and the statistic the referee decided on is folded into an
//! FNV-1a checksum. The collision-threshold pins were recorded before
//! the AND, `T`-threshold and balanced rules were merged into one
//! prepared type; the single-sample (E4), quantized-sum (E6) and
//! asymmetric (E7) pins before those protocols moved onto
//! `Network::run_nodes`. A change that moves any RNG call or any node
//! or referee decision of these protocols fails here.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test on a broken fixture"
)]

use dut_probability::empirical::collision_count_of;
use dut_probability::{families, AliasSampler};
use dut_simnet::{RateVector, RunOutcome};
use dut_stats::seed::derive_seed;
use dut_testers::{
    AsymmetricThresholdTester, BalancedThresholdTester, PreparedThresholdTester,
    QuantizedSumTester, SingleSampleProtocol, TThresholdTester,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 256;
const K: usize = 16;
const Q: usize = 40;
const EPS: f64 = 0.75;
const RUNS: u64 = 1000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

fn samplers() -> [AliasSampler; 2] {
    let far = families::two_level(N, EPS).expect("valid far instance");
    [families::uniform(N).alias_sampler(), far.alias_sampler()]
}

/// Runs `run(side, rng)` on fresh seeded RNGs, alternating the uniform
/// (`side == 0`) and far input.
fn runs<T>(seed: u64, mut run: impl FnMut(usize, &mut StdRng) -> T) -> impl Iterator<Item = T> {
    (0..RUNS).map(move |i| {
        let side = usize::from(i % 2 == 1);
        run(side, &mut StdRng::seed_from_u64(derive_seed(seed, i)))
    })
}

/// `(checksum, accepts)` over the threshold rule's runs, each folded as
/// one word: its reject count and verdict.
fn sums(prepared: &PreparedThresholdTester, seed: u64) -> (u64, u64) {
    let alias = samplers();
    runs(seed, |side, rng| prepared.run(&alias[side], rng)).fold(
        (FNV_OFFSET, 0),
        |(hash, accepts), out: RunOutcome<bool>| {
            let accept = u64::from(out.verdict.is_accept());
            let word = (out.transcript.reject_count() as u64) << 1 | accept;
            (fnv(hash, word), accepts + accept)
        },
    )
}

/// `(checksum, accepts)` over `(accept, statistic)` runs, each folded as
/// two words: the statistic, then the verdict.
fn statistic_sums(runs: impl Iterator<Item = (bool, u64)>) -> (u64, u64) {
    runs.fold((FNV_OFFSET, 0), |(hash, accepts), (accept, statistic)| {
        let accept = u64::from(accept);
        (fnv(fnv(hash, statistic), accept), accepts + accept)
    })
}

#[test]
fn and_rule_verdicts_are_pinned() {
    let prepared = TThresholdTester::new(N, K, 1).prepare(Q);
    assert_eq!(sums(&prepared, 11), (0x231f_6d08_37a8_18c7, 0x1d4));
}

#[test]
fn threshold_rule_with_overridden_budget_verdicts_are_pinned() {
    let prepared = TThresholdTester::new(N, K, 2)
        .with_node_false_positive_budget(0.05)
        .prepare(Q);
    assert_eq!(sums(&prepared, 12), (0x6c62_7d52_ef25_b636, 0x201));
}

#[test]
fn balanced_rule_verdicts_are_pinned() {
    let prepared =
        BalancedThresholdTester::new(N, K, EPS).prepare(Q, 800, &mut StdRng::seed_from_u64(13));
    assert_eq!(sums(&prepared, 14), (0xeee3_e762_e94d_5923, 0x1f0));
}

#[test]
fn single_sample_verdicts_and_statistics_are_pinned() {
    let proto = SingleSampleProtocol::new(N, 4, EPS);
    let k = proto.predicted_node_count();
    assert_eq!(k, 683);
    let alias = samplers();
    let got = statistic_sums(runs(15, |side, rng| {
        let out = proto.run(&alias[side], k, rng);
        let statistic = collision_count_of(&out.transcript.messages);
        (out.verdict.is_accept(), statistic)
    }));
    assert_eq!(got, (0x3015_0575_05c4_e3fa, 0x24b));
}

#[test]
fn quantized_sum_verdicts_and_statistics_are_pinned() {
    let prepared = QuantizedSumTester::new(N, K, 3).prepare(Q, 200, &mut StdRng::seed_from_u64(16));
    let alias = samplers();
    let got = statistic_sums(runs(17, |side, rng| {
        let out = prepared.run(&alias[side], rng);
        (
            out.verdict.is_accept(),
            out.transcript.messages.iter().sum(),
        )
    }));
    assert_eq!(got, (0xbce4_cbf7_b8d1_dcc2, 0x1d0));
}

#[test]
fn asymmetric_verdicts_and_statistics_are_pinned() {
    let mut rates = vec![2.0; 4];
    rates.extend(vec![0.5; 12]);
    let prepared = AsymmetricThresholdTester::new(N, RateVector::new(rates), EPS).prepare(
        40.0,
        200,
        &mut StdRng::seed_from_u64(18),
    );
    assert_eq!(prepared.sample_counts()[..5], [80, 80, 80, 80, 20]);
    let alias = samplers();
    let got = statistic_sums(runs(19, |side, rng| {
        let out = prepared.run(&alias[side], rng);
        let statistic = prepared.statistic(&out.transcript.messages);
        (out.verdict.is_accept(), statistic.to_bits())
    }));
    assert_eq!(got, (0x0ba3_560a_16f8_2150, 0x1c6));
}
