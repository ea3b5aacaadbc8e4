//! Golden verdict checksums for the collision-threshold protocols.
//!
//! Each rule runs 1,000 seeded executions, alternating a uniform and a
//! far input, through `run` (alias sampler) and through `run_counts` on
//! both sampling engines. Every outcome's verdict and reject count is
//! folded into an FNV-1a checksum. The pinned values were recorded
//! before the AND, `T`-threshold and balanced rules were merged into
//! one prepared type, so a change that moves any RNG call or any node
//! or referee decision of these rules fails here.

use dut_probability::{families, DualSampler, SampleBackend};
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

/// `(checksum, accepts)` for `run`, `run_counts` per-draw and
/// `run_counts` histogram, in that order.
type Sums = [(u64, u64); 3];

fn fold((hash, accepts): (u64, u64), out: &RunOutcome) -> (u64, u64) {
    let accept = u64::from(out.verdict.is_accept());
    let word = (out.transcript.reject_count() as u64) << 1 | accept;
    (
        (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3),
        accepts + accept,
    )
}

fn sums(prepared: &PreparedThresholdTester, seed: u64) -> Sums {
    let uniform = families::uniform(N);
    let far = families::two_level(N, EPS).expect("valid far instance");
    let alias = [uniform.alias_sampler(), far.alias_sampler()];
    let dual: [DualSampler; 2] = [uniform.dual_sampler(), far.dual_sampler()];
    let mut out = [(0xcbf2_9ce4_8422_2325, 0); 3];
    for i in 0..RUNS {
        let side = usize::from(i % 2 == 1);
        let rng = || StdRng::seed_from_u64(derive_seed(seed, i));
        out[0] = fold(out[0], &prepared.run(&alias[side], &mut rng()));
        for (slot, backend) in [SampleBackend::PerDraw, SampleBackend::Histogram]
            .into_iter()
            .enumerate()
        {
            let run = prepared.run_counts(&dual[side], backend, &mut rng());
            out[slot + 1] = fold(out[slot + 1], &run);
        }
    }
    out
}

#[test]
fn and_rule_verdicts_are_pinned() {
    let prepared = TThresholdTester::new(N, K, 1).prepare(Q);
    assert_eq!(
        sums(&prepared, 11),
        [
            (0x231f_6d08_37a8_18c7, 0x1d4),
            (0xd4c8_4d90_313b_52cd, 0x1dc),
            (0x6485_3eda_969d_b036, 0x1d5),
        ]
    );
}

#[test]
fn threshold_rule_with_overridden_budget_verdicts_are_pinned() {
    let prepared = TThresholdTester::new(N, K, 2)
        .with_node_false_positive_budget(0.05)
        .prepare(Q);
    assert_eq!(
        sums(&prepared, 12),
        [
            (0x6c62_7d52_ef25_b636, 0x201),
            (0x2f89_7126_f8c9_1dc3, 0x1f6),
            (0xd83a_a2ac_86d1_fc0f, 0x200),
        ]
    );
}

#[test]
fn balanced_rule_verdicts_are_pinned() {
    let prepared =
        BalancedThresholdTester::new(N, K, EPS).prepare(Q, 800, &mut StdRng::seed_from_u64(13));
    assert_eq!(
        sums(&prepared, 14),
        [
            (0xeee3_e762_e94d_5923, 0x1f0),
            (0x05c8_5dde_d4e5_c793, 0x1fe),
            (0x5363_9536_4a61_2b44, 0x1fb),
        ]
    );
}
