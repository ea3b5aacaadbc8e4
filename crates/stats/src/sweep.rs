//! Scaling-law fits.
//!
//! The reproduction criterion for an asymptotic statement like
//! `q* = Θ(√(n/k)/ε²)` is the *slope* of `log q*` against `log k`,
//! `log n`, or `log ε`: we sweep a geometric grid and fit a line by least
//! squares.

/// Least-squares fit of `y = a + b·x`; returns `(a, b)`.
///
/// # Panics
///
/// Panics if fewer than two points or all `x` equal.
#[must_use]
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "x values are degenerate");
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    dut_obs::metrics::global().incr(dut_obs::metrics::Counter::SweepFits);
    dut_obs::global().emit_with(|| {
        dut_obs::Event::new("fit")
            .with("points", points.len())
            .with("intercept", a)
            .with("slope", b)
    });
    (a, b)
}

/// The slope of `log y` against `log x` — the empirical scaling exponent.
///
/// Points with non-positive coordinates are rejected.
///
/// # Panics
///
/// Panics if fewer than two valid points or any coordinate is
/// non-positive.
#[must_use]
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    linear_fit(&logs).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn log_log_slope_of_power_law() {
        // y = 5 x^{-0.5}
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| {
                let x = i as f64;
                (x, 5.0 * x.powf(-0.5))
            })
            .collect();
        assert!((log_log_slope(&pts) + 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn log_log_rejects_nonpositive() {
        let _ = log_log_slope(&[(1.0, 0.0), (2.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn fit_needs_two_points() {
        let _ = linear_fit(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn fit_rejects_constant_x() {
        let _ = linear_fit(&[(1.0, 1.0), (1.0, 2.0)]);
    }
}
