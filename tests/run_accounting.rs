//! Every protocol run is counted once, in one place: one `run` of each
//! tester on the star network adds exactly 1 to `NetRuns`, the nodes'
//! summed sample counts `Σq` to `SamplesDrawn` and `k·r` (`k` nodes of
//! `r`-bit messages) to `BitsSent`; calibration counts nothing. A
//! threshold run stops at the node that settles its referee and counts
//! only the nodes that ran.
//!
//! The metrics registry is global, so this file holds a single test:
//! nothing else in its binary runs a protocol, and the deltas are
//! exact.

use distributed_uniformity::obs::metrics::{global, Counter};
use distributed_uniformity::probability::families;
use distributed_uniformity::simnet::RateVector;
use distributed_uniformity::testers::{
    AsymmetricThresholdTester, QuantizedSumTester, SingleSampleProtocol, TThresholdTester,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `[runs, samples, bits]` recorded while `f` ran.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, [u64; 3]) {
    let counters = [Counter::NetRuns, Counter::SamplesDrawn, Counter::BitsSent];
    let before = counters.map(|c| global().counter(c));
    let out = f();
    let mut delta = counters.map(|c| global().counter(c));
    for (d, b) in delta.iter_mut().zip(before) {
        *d -= b;
    }
    (out, delta)
}

#[test]
fn one_run_records_one_run_its_samples_and_its_bits() {
    let n = 64;
    let uniform = families::uniform(n).alias_sampler();
    let mut rng = StdRng::seed_from_u64(3);

    // AND rule on uniform: no node rejects, so all 4 nodes run, 16
    // samples and one bit each.
    let and = TThresholdTester::new(n, 4, 1).prepare(16);
    let (_, delta) = recorded(|| and.run(&uniform, &mut rng));
    assert_eq!(delta, [1, 4 * 16, 4], "threshold rule");

    // AND rule on a point mass: the first node rejects, which settles
    // the referee, so one node's 16 samples and one bit are counted.
    let point = families::point_mass(n, 0)
        .expect("valid point mass")
        .alias_sampler();
    let (out, delta) = recorded(|| and.run(&point, &mut rng));
    assert!(out.verdict.is_reject());
    assert_eq!(delta, [1, 16, 1], "settled threshold rule");

    // Single-sample protocol: 10 nodes x 1 sample, 3-bit bucket indices.
    let single = SingleSampleProtocol::new(n, 3, 0.5);
    let (_, delta) = recorded(|| single.run(&uniform, 10, &mut rng));
    assert_eq!(delta, [1, 10, 10 * 3], "single-sample protocol");

    // Quantized sum: 4 nodes x 16 samples, 3-bit codes.
    let (quantized, delta) = recorded(|| QuantizedSumTester::new(n, 4, 3).prepare(16, 4, &mut rng));
    assert_eq!(delta, [0; 3], "quantized-sum calibration");
    let (_, delta) = recorded(|| quantized.run(&uniform, &mut rng));
    assert_eq!(delta, [1, 4 * 16, 4 * 3], "quantized-sum protocol");

    // Asymmetric rates: 8 + 16 + 2 samples, one bit each.
    let rates = RateVector::new(vec![1.0, 2.0, 0.25]);
    let (asymmetric, delta) =
        recorded(|| AsymmetricThresholdTester::new(n, rates, 0.5).prepare(8.0, 4, &mut rng));
    assert_eq!(delta, [0; 3], "asymmetric calibration");
    assert_eq!(asymmetric.sample_counts(), &[8, 16, 2]);
    let (_, delta) = recorded(|| asymmetric.run(&uniform, &mut rng));
    assert_eq!(delta, [1, 8 + 16 + 2, 3], "asymmetric protocol");
}
