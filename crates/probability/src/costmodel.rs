//! Calibrated cost model behind [`SampleBackend::Auto`].
//!
//! The tables are frozen data that now choose only the engine of the
//! balanced rule's Monte-Carlo calibration: every protocol run draws
//! through [`crate::Sampler::collision_count`]. They are the values
//! measured into the committed `BENCH_perf.json` (per-draw meant the
//! inverse-CDF sampler then), kept as they are because the committed
//! q\* results depend on which engine calibration draws with.
//!
//! Neither sampling engine dominates: the histogram fast path is O(n + q)
//! per player while per-draw inversion is O(q log n), so the winner flips
//! along the q/n diagonal — the committed BENCH_perf.json grid measures
//! histogram at 57x for (n=100, q=10⁵) but 0.33x for (n=10⁴, q=10³).
//! `Auto` consults this module instead of guessing: the measured bench
//! grid is embedded as per-engine cost tables over (ln n, ln q), each
//! query bilinearly interpolates both tables (clamping to the nearest
//! edge outside the grid), and the cheaper engine wins. Interpolating
//! *per-engine costs* rather than a fitted crossover curve means every
//! calibration grid point reproduces its measured winner exactly.
//!
//! The tables are fixed data, so [`choose`] is a pure function of
//! `(n, q)`: every process on every host resolves `Auto` to the same
//! engine. That is what lets a served verdict equal the offline
//! reference computed in any other process. The tables were measured
//! on one host, so on another the pick near the crossover may be the
//! slightly slower engine. That costs time, not agreement: the pick,
//! and so every seeded stream, is the same everywhere.

use crate::occupancy::SampleBackend;

/// `ln n` grid coordinates of the embedded calibration (n = 100, 10³, 10⁴).
const GRID_N: [f64; 3] = [100.0, 1_000.0, 10_000.0];
/// `ln q` grid coordinates of the embedded calibration (q = 10³, 10⁴, 10⁵).
const GRID_Q: [f64; 3] = [1_000.0, 10_000.0, 100_000.0];

/// Measured per-draw nanoseconds per `q`-sample histogram, row-major
/// over [`GRID_N`] × [`GRID_Q`] (from BENCH_perf.json, uniform input).
const PER_DRAW_NS: [[f64; 3]; 3] = [
    [15_973.3, 145_547.7, 1_578_259.0],
    [24_258.1, 217_631.9, 2_266_153.9],
    [46_366.9, 373_852.0, 3_521_353.2],
];

/// Measured histogram-engine nanoseconds on the same grid.
const HISTOGRAM_NS: [[f64; 3]; 3] = [
    [6_151.8, 64_815.4, 27_482.0],
    [29_886.9, 60_163.6, 700_530.3],
    [141_405.4, 308_859.3, 590_339.9],
];

/// Fractional position of `x` between grid coordinates, clamped to
/// `[0, 1]` per segment; returns the lower index and the fraction.
fn grid_pos(grid: &[f64; 3], x: f64) -> (usize, f64) {
    let lx = x.max(1.0).ln();
    if lx <= grid[0].ln() {
        return (0, 0.0);
    }
    if lx >= grid[2].ln() {
        return (1, 1.0);
    }
    let segment = usize::from(lx > grid[1].ln());
    let lo = grid[segment].ln();
    let hi = grid[segment + 1].ln();
    (segment, (lx - lo) / (hi - lo))
}

/// Bilinear interpolation of `ln(cost)` over the (ln n, ln q) grid,
/// clamped to the nearest edge outside it. Working in log space keeps
/// the interpolation faithful to the power-law shape of both engines.
fn interpolate(table: &[[f64; 3]; 3], n: f64, q: f64) -> f64 {
    let (i, fi) = grid_pos(&GRID_N, n);
    let (j, fj) = grid_pos(&GRID_Q, q);
    let ln00 = table[i][j].ln();
    let ln01 = table[i][j + 1].ln();
    let ln10 = table[i + 1][j].ln();
    let ln11 = table[i + 1][j + 1].ln();
    let low = ln00 + fj * (ln01 - ln00);
    let high = ln10 + fj * (ln11 - ln10);
    (low + fi * (high - low)).exp()
}

/// Predicted nanoseconds for one `q`-sample draw on a size-`n` domain
/// with the given **concrete** engine.
///
/// # Panics
///
/// Panics if `backend` is [`SampleBackend::Auto`] — predict concrete
/// engines, then compare.
#[must_use]
fn predicted_draw_ns(backend: SampleBackend, n: usize, q: u64) -> f64 {
    let (nf, qf) = (n as f64, q as f64);
    match backend {
        SampleBackend::PerDraw => interpolate(&PER_DRAW_NS, nf, qf),
        SampleBackend::Histogram => interpolate(&HISTOGRAM_NS, nf, qf),
        SampleBackend::Auto => {
            panic!("predicted_draw_ns takes a concrete engine, not Auto")
        }
    }
}

/// The engine the cost model picks for one `q`-sample draw on a
/// size-`n` domain. Never returns [`SampleBackend::Auto`].
#[must_use]
pub fn choose(n: usize, q: u64) -> SampleBackend {
    let per_draw = predicted_draw_ns(SampleBackend::PerDraw, n, q);
    let histogram = predicted_draw_ns(SampleBackend::Histogram, n, q);
    if histogram <= per_draw {
        SampleBackend::Histogram
    } else {
        SampleBackend::PerDraw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_reproduce_measured_winners() {
        // The committed BENCH grid: histogram wins everywhere except
        // (10³, 10³) at 0.81x and (10⁴, 10³) at 0.33x.
        for (i, &n) in [100usize, 1_000, 10_000].iter().enumerate() {
            for (j, &q) in [1_000u64, 10_000, 100_000].iter().enumerate() {
                let expect = if PER_DRAW_NS[i][j] < HISTOGRAM_NS[i][j] {
                    SampleBackend::PerDraw
                } else {
                    SampleBackend::Histogram
                };
                assert_eq!(choose(n, q), expect, "grid point n={n} q={q}");
            }
        }
    }

    #[test]
    fn slow_path_points_pick_per_draw() {
        // The two losing points the serve slow-path bug hit.
        assert_eq!(choose(10_000, 1_000), SampleBackend::PerDraw);
        assert_eq!(choose(1_000, 1_000), SampleBackend::PerDraw);
        // And the flagship histogram win.
        assert_eq!(choose(100, 100_000), SampleBackend::Histogram);
        // Below the grid's q edge: per-draw at the serve herd key
        // (1024, 48), histogram at (256, 32). And the near-crossover
        // (10⁴, 10⁴) point, where histogram measured faster.
        assert_eq!(choose(1_024, 48), SampleBackend::PerDraw);
        assert_eq!(choose(256, 32), SampleBackend::Histogram);
        assert_eq!(choose(10_000, 10_000), SampleBackend::Histogram);
    }

    #[test]
    fn interpolation_matches_table_at_grid_points() {
        for (i, &n) in GRID_N.iter().enumerate() {
            for (j, &q) in GRID_Q.iter().enumerate() {
                let v = interpolate(&PER_DRAW_NS, n, q);
                assert!(
                    (v - PER_DRAW_NS[i][j]).abs() < 1e-6 * PER_DRAW_NS[i][j],
                    "n={n} q={q}: {v} vs {}",
                    PER_DRAW_NS[i][j]
                );
            }
        }
    }

    #[test]
    fn clamps_outside_the_grid() {
        // Tiny and huge coordinates clamp to the nearest edge rather
        // than extrapolating the power law off a cliff.
        let tiny = interpolate(&HISTOGRAM_NS, 2.0, 10.0);
        assert!((tiny - HISTOGRAM_NS[0][0]).abs() < 1e-6 * HISTOGRAM_NS[0][0]);
        let huge = interpolate(&HISTOGRAM_NS, 1e9, 1e9);
        assert!((huge - HISTOGRAM_NS[2][2]).abs() < 1e-6 * HISTOGRAM_NS[2][2]);
    }

    #[test]
    fn predictions_are_positive_and_finite_everywhere() {
        for n in [1usize, 7, 100, 5_000, 1 << 20] {
            for q in [1u64, 10, 999, 10_001, 1 << 30] {
                for backend in SampleBackend::ALL {
                    let ns = predicted_draw_ns(backend, n, q);
                    assert!(ns.is_finite() && ns > 0.0, "{backend} n={n} q={q}: {ns}");
                }
            }
        }
    }

    #[test]
    fn small_q_large_n_prefers_per_draw() {
        // The whole region below the crossover diagonal, not just the
        // measured points: scanning q at n=10⁴, per-draw must win at
        // small q and lose by q=10⁵.
        assert_eq!(choose(10_000, 100), SampleBackend::PerDraw);
        assert_eq!(choose(10_000, 100_000), SampleBackend::Histogram);
    }

    #[test]
    #[should_panic(expected = "concrete engine")]
    fn predicting_auto_panics() {
        let _ = predicted_draw_ns(SampleBackend::Auto, 100, 100);
    }
}
