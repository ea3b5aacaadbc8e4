//! Microbenchmarks for the sampling substrate: alias vs CDF samplers,
//! hard-instance construction, histogram statistics, the collision
//! node's draw-and-count kernel, the histogram engine's calibration and
//! the alias samplers' construction.

#![allow(
    clippy::expect_used,
    reason = "a benchmark fixture that cannot be built ends the run"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dut_core::probability::{empirical, families, PairedDomain, PerturbationVector, Sampler};
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

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler_draw");
    fast(&mut group);
    for &n in &[1usize << 8, 1 << 12, 1 << 16] {
        let dist = families::zipf(n, 1.0).expect("valid zipf");
        let alias = dist.alias_sampler();
        let cdf = dist.cdf_sampler();
        group.bench_with_input(BenchmarkId::new("alias", n), &n, |b, _| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            b.iter(|| black_box(alias.sample(&mut rng)));
        });
        group.bench_with_input(BenchmarkId::new("cdf", n), &n, |b, _| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            b.iter(|| black_box(cdf.sample(&mut rng)));
        });
    }
    // E1's two tables: every uniform column keeps itself (a predictable
    // keep-or-alias choice), while half the two_level columns alias (a
    // coin flip per draw).
    let e1_tables = [
        ("alias_uniform", families::uniform(1 << 12)),
        (
            "alias_two_level",
            families::two_level(1 << 12, 0.5).expect("valid two_level"),
        ),
    ];
    for (name, dist) in e1_tables {
        let alias = dist.alias_sampler();
        group.bench_with_input(BenchmarkId::new(name, 1 << 12), &alias, |b, alias| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            b.iter(|| black_box(alias.sample(&mut rng)));
        });
    }
    group.finish();
}

fn bench_hard_instance(c: &mut Criterion) {
    let mut group = c.benchmark_group("hard_instance_build");
    fast(&mut group);
    for &ell in &[6u32, 10, 14] {
        group.bench_with_input(BenchmarkId::new("perturbed", ell), &ell, |b, &ell| {
            let dom = PairedDomain::new(ell);
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            b.iter(|| {
                let z = PerturbationVector::random(dom.cube_size(), &mut rng);
                black_box(dom.perturbed_distribution(&z, 0.5).expect("valid"))
            });
        });
    }
    group.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_statistics");
    fast(&mut group);
    for &q in &[64usize, 1024, 16384] {
        let dist = families::uniform(1 << 12);
        let sampler = dist.alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let samples = sampler.sample_many(q, &mut rng);
        group.bench_with_input(BenchmarkId::new("collision_count", q), &q, |b, _| {
            b.iter(|| black_box(empirical::collision_count_of(&samples)));
        });
        group.bench_with_input(BenchmarkId::new("coincidence_count", q), &q, |b, _| {
            b.iter(|| black_box(empirical::coincidence_count_of(&samples)));
        });
    }
    group.finish();
}

/// One collision node at E1's shapes (n = 4096, the ε = 0.5 far
/// instance): the fused `collision_count`, which tallies each draw as it
/// is made, against drawing a sample vector and counting it. Times are
/// per node; divide by `q` for ns per draw. `fused_uniform` is the fused
/// kernel on the uniform side of every q* probe, whose alias table is
/// the identity and is not stored.
fn bench_collision_node(c: &mut Criterion) {
    let mut group = c.benchmark_group("collision_node");
    fast(&mut group);
    let far = families::two_level(1 << 12, 0.5)
        .expect("valid two_level")
        .alias_sampler();
    let uniform = families::uniform(1 << 12).alias_sampler();
    for &q in &[40usize, 130, 775] {
        group.bench_with_input(BenchmarkId::new("fused", q), &q, |b, &q| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            b.iter(|| black_box(far.collision_count(q, &mut rng)));
        });
        group.bench_with_input(BenchmarkId::new("fused_uniform", q), &q, |b, &q| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            b.iter(|| black_box(uniform.collision_count(q, &mut rng)));
        });
        group.bench_with_input(BenchmarkId::new("sample_many", q), &q, |b, &q| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            b.iter(|| black_box(empirical::collision_count_of(&far.sample_many(q, &mut rng))));
        });
    }
    group.finish();
}

/// One balanced-rule calibration on the histogram engine: 800 uniform
/// nodes at `(n, q)`, counted by binning each node's histogram
/// (`draw(..).collision_count()`) against the allocation-free collision
/// walk, whose cutoff table is built inside the timed calibration.
/// The walk keeps a table while `n · q` is at most 2¹²: (256, 16) is
/// the largest n = 256 shape with one, and the last three walk without.
fn bench_histogram_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_calibration");
    fast(&mut group);
    for &(n, q) in &[
        (64usize, 8u64),
        (256, 16),
        (256, 32),
        (256, 128),
        (1000, 1000),
    ] {
        let sampler = families::uniform(n).histogram_sampler();
        let shape = format!("{n}x{q}");
        group.bench_with_input(BenchmarkId::new("draw", &shape), &q, |b, &q| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            b.iter(|| {
                (0..800)
                    .map(|_| sampler.draw(q, &mut rng).collision_count())
                    .sum::<u64>()
            });
        });
        group.bench_with_input(BenchmarkId::new("walk", &shape), &q, |b, &q| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            b.iter(|| {
                let mut walk = sampler.collision_walk(q);
                (0..800)
                    .map(|_| walk.collision_count(&mut rng))
                    .sum::<u64>()
            });
        });
    }
    group.finish();
}

/// The cold path every q* point, serve miss and fuzz case starts with:
/// E1's two samplers at `ε = 0.5`. Each id adds one stage to the one
/// before it, so the differences split the build into layers:
/// `fill` writes the `two_level` vector, `validate` is `two_level`
/// itself (fill, then the one-pass check), `alias` adds the Vose table.
/// `uniform` is the other sampler (its vector, the check that elides
/// its table, and the drop), so `uniform + alias` should match
/// `workload`, which is `dut_bench::workload` as E1 and perfbench call it.
fn bench_alias_build(c: &mut Criterion) {
    const EPS: f64 = 0.5;
    let mut group = c.benchmark_group("alias_build");
    fast(&mut group);
    for &n in &[1usize << 12, 1 << 14, 1 << 20] {
        group.bench_with_input(BenchmarkId::new("fill", n), &n, |b, &n| {
            b.iter(|| {
                let mut probs = Vec::with_capacity(n);
                probs.resize(n / 2, (1.0 + EPS) / n as f64);
                probs.resize(n, (1.0 - EPS) / n as f64);
                black_box(probs)
            });
        });
        group.bench_with_input(BenchmarkId::new("validate", n), &n, |b, &n| {
            b.iter(|| black_box(families::two_level(n, EPS).expect("valid two_level")));
        });
        group.bench_with_input(BenchmarkId::new("alias", n), &n, |b, &n| {
            b.iter(|| {
                black_box(
                    families::two_level(n, EPS)
                        .expect("valid two_level")
                        .alias_sampler(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("uniform", n), &n, |b, &n| {
            b.iter(|| black_box(families::uniform(n).alias_sampler()));
        });
        group.bench_with_input(BenchmarkId::new("workload", n), &n, |b, &n| {
            b.iter(|| black_box(dut_bench::workload(n, EPS)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_samplers,
    bench_hard_instance,
    bench_statistics,
    bench_collision_node,
    bench_histogram_calibration,
    bench_alias_build
);
criterion_main!(benches);
