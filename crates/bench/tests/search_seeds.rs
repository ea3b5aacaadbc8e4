//! `Harness::search` and `Harness::search_calibrated` must seed every
//! probe exactly as the hand-written probes they replaced, since every
//! committed q* depends on those seeds. Each reference below is the
//! probe the experiment binaries used to carry, kept as the oracle.

use dut_bench::{q_star, two_sided_success, workload, Harness};
use dut_core::stats::search::SearchResult;
use dut_core::stats::seed::{derive_seed, derive_seed2};
use dut_core::testers::{BalancedThresholdTester, TThresholdTester};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::path::PathBuf;

const N: usize = 64;
const K: usize = 4;
const EPS: f64 = 1.0;
const MAX: usize = 1 << 12;

fn harness() -> Harness {
    Harness {
        // At 200 trials the AND search's verdicts all sit far from 2/3,
        // and moving its trials to another seed changed no verdict.
        trials: 60,
        seed: 20_190_729,
        results_dir: PathBuf::from("results"),
    }
}

fn assert_same(search: &SearchResult, reference: &SearchResult) {
    assert_eq!(
        (search.minimal, search.evaluations),
        (reference.minimal, reference.evaluations)
    );
    assert!(!search.saturated);
}

#[test]
fn calibrated_search_seeds_probes_like_the_hand_written_probe() {
    let harness = harness();
    let tester = BalancedThresholdTester::new(N, K, EPS);
    let (uniform, far) = workload(N, EPS);
    // Calibration can land on the same thresholds from another stream,
    // so each probe also records the word its stream yields next.
    let mut reference_words = Vec::new();
    let reference = q_star(2, MAX, |q| {
        let probe_seed = derive_seed2(harness.seed, 7, q as u64);
        let mut rng = StdRng::seed_from_u64(probe_seed);
        let prepared = tester.prepare(q, BalancedThresholdTester::CALIBRATION_TRIALS, &mut rng);
        reference_words.push(rng.next_u64());
        two_sided_success(
            harness.trials,
            derive_seed(probe_seed, 1),
            &uniform,
            &far,
            |s, r| prepared.run(s, r).verdict.is_accept(),
        )
    });
    let mut words = Vec::new();
    let search = harness.search_calibrated(N, EPS, 7, MAX, |q, rng| {
        let prepared = tester.prepare(q, BalancedThresholdTester::CALIBRATION_TRIALS, rng);
        words.push(rng.next_u64());
        move |s, r| prepared.run(s, r).verdict.is_accept()
    });
    assert_same(&search, &reference);
    assert_eq!(words, reference_words);
}

#[test]
fn uncalibrated_search_seeds_probes_like_the_hand_written_probe() {
    let harness = harness();
    let tester = TThresholdTester::new(N, K, 1);
    let (uniform, far) = workload(N, EPS);
    let reference = q_star(2, MAX, |q| {
        let probe_seed = derive_seed2(harness.seed, 8, q as u64);
        let prepared = tester.prepare(q);
        two_sided_success(harness.trials, probe_seed, &uniform, &far, |s, r| {
            prepared.run(s, r).verdict.is_accept()
        })
    });
    let search = harness.search(N, EPS, 8, MAX, |q| {
        let prepared = tester.prepare(q);
        move |s, r| prepared.run(s, r).verdict.is_accept()
    });
    assert_same(&search, &reference);
}
