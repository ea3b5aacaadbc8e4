//! Benchmarks for single tester decisions: how long one verdict takes
//! for each centralized tester at its recommended sample count.

#![allow(
    clippy::expect_used,
    reason = "a benchmark fixture that cannot be built ends the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dut_core::probability::{families, Sampler};
use dut_core::testers::centralized::CentralizedTester;
use dut_core::testers::{Chi2Tester, CollisionTester, EmpiricalL1Tester, PaninskiTester};
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

fn bench_centralized(c: &mut Criterion) {
    let mut group = c.benchmark_group("centralized_verdict");
    fast(&mut group);
    let n = 1 << 12;
    let eps = 0.5;
    let dist = families::uniform(n);
    let sampler = dist.alias_sampler();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);

    let collision = CollisionTester::new(n, eps);
    let q = collision.recommended_sample_count();
    let samples = sampler.sample_many(q, &mut rng);
    group.bench_with_input(BenchmarkId::new("collision", q), &q, |b, _| {
        b.iter(|| black_box(collision.test(&samples)));
    });

    let paninski = PaninskiTester::new(n, eps);
    group.bench_with_input(BenchmarkId::new("paninski", q), &q, |b, _| {
        b.iter(|| black_box(paninski.test(&samples)));
    });

    let chi2 = Chi2Tester::uniform(n, eps);
    group.bench_with_input(BenchmarkId::new("chi2", q), &q, |b, _| {
        b.iter(|| black_box(chi2.test(&samples)));
    });

    let l1 = EmpiricalL1Tester::new(n, eps);
    group.bench_with_input(BenchmarkId::new("empirical_l1", q), &q, |b, _| {
        b.iter(|| black_box(l1.test(&samples)));
    });
    group.finish();
}

fn bench_reduction(c: &mut Criterion) {
    use dut_core::testers::reduction::IdentityToUniformityReduction;
    let mut group = c.benchmark_group("identity_reduction");
    fast(&mut group);
    let reference = families::zipf(256, 1.0).expect("valid zipf");
    let reduction = IdentityToUniformityReduction::new(reference.clone(), 0.5).expect("valid");
    let sampler = reference.alias_sampler();
    group.bench_function("transform_stream", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        b.iter(|| black_box(reduction.transform_stream(&sampler, &mut rng)));
    });
    group.finish();
}

criterion_group!(benches, bench_centralized, bench_reduction);
criterion_main!(benches);
