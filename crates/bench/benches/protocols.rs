//! Benchmarks for full distributed-protocol executions: one end-to-end
//! run (all players sample, bits are sent, the referee decides) per
//! iteration, at the paper-predicted sample counts.

#![allow(
    clippy::expect_used,
    reason = "a benchmark fixture that cannot be built ends the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dut_core::probability::families;
use dut_core::testers::{
    BalancedThresholdTester, FourierLearner, SingleSampleProtocol, TThresholdTester,
};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

/// Keep whole-suite wall time reasonable: criterion defaults (3s warmup,
/// 5s measurement, 100 samples) are overkill for these stable kernels.
fn fast(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_millis(1500))
        .sample_size(20);
}

fn bench_balanced(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_run");
    fast(&mut group);
    let n = 1 << 12;
    let eps = 0.5;
    let uniform = families::uniform(n).alias_sampler();
    for &k in &[16usize, 64, 256] {
        let tester = BalancedThresholdTester::new(n, k, eps);
        let q = tester.predicted_sample_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let prepared = tester.prepare(q, 500, &mut rng);
        group.bench_with_input(BenchmarkId::new("balanced", k), &k, |b, _| {
            b.iter(|| black_box(prepared.run(&uniform, &mut rng).verdict));
        });
        let and_rule = TThresholdTester::new(n, k, 1).prepare(q);
        group.bench_with_input(BenchmarkId::new("and_rule", k), &k, |b, _| {
            b.iter(|| black_box(and_rule.run(&uniform, &mut rng).verdict));
        });
    }
    group.finish();
}

fn bench_single_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_sample_protocol");
    fast(&mut group);
    let n = 1 << 10;
    let proto = SingleSampleProtocol::new(n, 4, 0.5);
    let uniform = families::uniform(n).alias_sampler();
    let k = proto.predicted_node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
        b.iter(|| black_box(proto.run(&uniform, k, &mut rng).verdict));
    });
    group.finish();
}

fn bench_learner(c: &mut Criterion) {
    let mut group = c.benchmark_group("fourier_learner");
    fast(&mut group);
    let n = 64;
    let target = families::zipf(n, 0.8).expect("valid zipf");
    let sampler = target.alias_sampler();
    for &k in &[512usize, 4096] {
        let learner = FourierLearner::new(n, k, 8, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(learner.learn(&sampler, &mut rng)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_balanced, bench_single_sample, bench_learner);
criterion_main!(benches);
