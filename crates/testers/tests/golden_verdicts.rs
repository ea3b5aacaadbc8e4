//! Golden verdict checksums for the collision-threshold protocols.
//!
//! Each rule runs 1,000 seeded executions, alternating a uniform and a
//! far input, through `run` (alias sampler). Every outcome's verdict
//! and reject count is folded into an FNV-1a checksum. The pinned
//! values were recorded before the AND, `T`-threshold and balanced
//! rules were merged into one prepared type, so a change that moves
//! any RNG call or any node or referee decision of these rules fails
//! here.

use dut_probability::families;
use dut_simnet::RunOutcome;
use dut_stats::seed::derive_seed;
use dut_testers::{BalancedThresholdTester, PreparedThresholdTester, TThresholdTester};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 256;
const K: usize = 16;
const Q: usize = 40;
const EPS: f64 = 0.75;
const RUNS: u64 = 1000;

fn fold((hash, accepts): (u64, u64), out: &RunOutcome) -> (u64, u64) {
    let accept = u64::from(out.verdict.is_accept());
    let word = (out.transcript.reject_count() as u64) << 1 | accept;
    (
        (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3),
        accepts + accept,
    )
}

/// `(checksum, accepts)` over the runs.
fn sums(prepared: &PreparedThresholdTester, seed: u64) -> (u64, u64) {
    let uniform = families::uniform(N);
    let far = families::two_level(N, EPS).expect("valid far instance");
    let alias = [uniform.alias_sampler(), far.alias_sampler()];
    let mut out = (0xcbf2_9ce4_8422_2325, 0);
    for i in 0..RUNS {
        let side = usize::from(i % 2 == 1);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, i));
        out = fold(out, &prepared.run(&alias[side], &mut rng));
    }
    out
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
