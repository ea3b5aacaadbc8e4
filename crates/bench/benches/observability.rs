//! Cost of the dut-obs instrumentation primitives.
//!
//! The acceptance bar for the observability layer is <5% overhead on
//! the protocol benches when no sink is installed. The primitives
//! measured here are what every instrumented hot path pays: a handful
//! of relaxed atomic adds (metrics) plus one relaxed load (disabled
//! recorder check) — nanoseconds against protocol runs that take tens
//! of microseconds (see `protocols.rs`).
//!
//! The `json_codec` group times the one JSON codec on the serve wire's
//! shapes: a served cache hit parses its request line and renders its
//! reply line, so these two cases bound what the codec costs a hit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dut_obs::json::{self, Json};
use dut_obs::metrics::{Counter, HistogramId};

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    group.sample_size(30);

    group.bench_function("counter_add", |b| {
        let registry = dut_obs::metrics::global();
        b.iter(|| registry.add(black_box(Counter::SamplesDrawn), black_box(64)));
    });

    group.bench_function("histogram_observe", |b| {
        let registry = dut_obs::metrics::global();
        b.iter(|| registry.observe(black_box(HistogramId::RunSamples), black_box(1024)));
    });

    group.bench_function("disabled_emit_with", |b| {
        let recorder = dut_obs::global();
        b.iter(|| {
            recorder.emit_with(|| {
                // Never built: the recorder has no sinks in benches.
                dut_obs::Event::new("never").with("x", black_box(1u64))
            });
        });
    });

    group.bench_function("disabled_span", |b| {
        let recorder = dut_obs::global();
        b.iter(|| {
            let _span = recorder.span(black_box("bench.phase"));
        });
    });

    group.finish();
}

/// The four `loadgen::catalog()` requests as `dut loadgen` renders them
/// (seeds from its rotating pool).
const CATALOG_LINES: [&str; 4] = [
    r#"{"n":64,"k":8,"q":8,"eps":0.5,"rule":"balanced","samples":"uniform","seed":1000,"trials":1}"#,
    r#"{"n":128,"k":8,"q":10,"eps":0.5,"rule":"threshold:2","samples":"two-level","seed":1001,"trials":1}"#,
    r#"{"n":64,"k":4,"q":6,"eps":0.9,"rule":"and","samples":"alternating","seed":1002,"trials":1}"#,
    r#"{"n":256,"k":1,"q":32,"eps":0.5,"rule":"centralized","samples":"zipf","seed":1003,"trials":1}"#,
];

fn bench_json(c: &mut Criterion) {
    let mut group = c.benchmark_group("json_codec");
    group.sample_size(30);

    group.bench_function("parse_catalog_lines", |b| {
        b.iter(|| {
            for line in CATALOG_LINES {
                black_box(json::parse(black_box(line)).is_ok());
            }
        });
    });

    group.bench_function("render_reply", |b| {
        b.iter(|| {
            let reply = Json::obj([
                ("verdict", "accept".into()),
                ("p_hat", black_box(2.0 / 3.0).into()),
                ("wilson_lo", black_box(0.123_456_789_012_345_6).into()),
                ("wilson_hi", black_box(0.999_999_999_999_999_9).into()),
                ("cache", "hit".into()),
                ("micros", black_box(777u64).into()),
                ("rid", black_box(1_048_576u64).into()),
            ]);
            black_box(json::to_string(&reply))
        });
    });

    // A request line with one string member of 64 KiB, the server's
    // line cap.
    let long_line = format!(
        r#"{{"n":64,"k":8,"q":8,"eps":0.5,"pad":"{}"}}"#,
        "x".repeat(64 * 1024 - 40)
    );
    group.bench_function("parse_64k_string_line", |b| {
        b.iter(|| black_box(json::parse(black_box(&long_line)).is_ok()));
    });

    group.finish();
}

criterion_group!(benches, bench_obs, bench_json);
criterion_main!(benches);
