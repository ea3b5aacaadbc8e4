//! Parallel trial running with deterministic per-trial seeds.

use crate::seed::derive_seed;
use crate::{SuccessEstimate, REQUIRED_SUCCESS};
use dut_obs::metrics::{Counter, Gauge, HistogramId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Decides whether both sides of a two-sided test reach the paper's
/// success rate: for each `side` in `0..2`,
/// `SuccessEstimate::new(s, trials).point() >= REQUIRED_SUCCESS`, where
/// `s` counts the `i < trials` with `trial(side, derive_seed(side_seeds[side], i))`.
/// Returns exactly the verdict of running all `2·trials` trials and
/// counting, but usually runs far fewer.
///
/// The trials of both sides are interleaved (side 0 trial 0, side 1
/// trial 0, side 0 trial 1, …) and handed to
/// [`available_threads`] workers, which share atomic win and loss
/// counts per side. A side closes once its finished trials fix its
/// verdict: at `true` when its wins alone pass, at `false` when its
/// wins plus every unfinished trial would still fail. Work stops once
/// either side is fixed at `false` or both are fixed at `true`.
///
/// The result is exact and schedule-free: trial `i` of a side always
/// gets the same seed, so its outcome is fixed, and at every moment
/// `wins ≤ s ≤ trials − losses`. A side's verdict is monotone in `s`,
/// so a bound that passes (or fails) implies the final count does
/// too, whichever trials the threads happened to finish first. Only
/// the number of trials run depends on the schedule; the metrics
/// registry counts them as `trials_run`, and the ones the decision
/// made unnecessary as `trials_skipped`.
///
/// # Panics
///
/// Panics if `trials == 0`, or propagates a panic from `trial`.
pub fn decide_two_sided<F>(trials: u64, side_seeds: [u64; 2], trial: F) -> bool
where
    F: Fn(usize, u64) -> bool + Sync,
{
    decide_two_sided_with_threads(trials, side_seeds, available_threads(), trial)
}

/// [`decide_two_sided`] with an explicit thread budget instead of the
/// process-wide [`available_threads`]; the verdict is the same for
/// every `threads` value, which the tests assert.
fn decide_two_sided_with_threads<F>(
    trials: u64,
    side_seeds: [u64; 2],
    threads: usize,
    trial: F,
) -> bool
where
    F: Fn(usize, u64) -> bool + Sync,
{
    assert!(trials > 0, "need at least one trial");
    let work = 2 * trials;
    let threads = threads
        .min(crate::convert::saturating_usize_from_u64(work))
        .max(1);
    let start = Instant::now();
    let registry = dut_obs::metrics::global();
    registry.set_gauge(Gauge::RunnerThreads, threads as u64);
    let wins = [AtomicU64::new(0), AtomicU64::new(0)];
    let losses = [AtomicU64::new(0), AtomicU64::new(0)];
    let next = AtomicU64::new(0);
    let executed = AtomicU64::new(0);
    let fixed = |side: usize| {
        side_verdict(
            wins[side].load(Ordering::Relaxed),
            losses[side].load(Ordering::Relaxed),
            trials,
        )
    };
    let worker = || {
        let mut local = 0u64;
        loop {
            let sides = [fixed(0), fixed(1)];
            if two_sided_verdict(sides).is_some() {
                break;
            }
            let j = next.fetch_add(1, Ordering::Relaxed);
            if j >= work {
                break;
            }
            let side = usize::from(j % 2 == 1);
            if sides[side].is_some() {
                continue;
            }
            let tally = if trial(side, derive_seed(side_seeds[side], j / 2)) {
                &wins[side]
            } else {
                &losses[side]
            };
            tally.fetch_add(1, Ordering::Relaxed);
            local += 1;
        }
        executed.fetch_add(local, Ordering::Relaxed);
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    let verdict = two_sided_verdict([fixed(0), fixed(1)]);
    debug_assert!(
        verdict.is_some(),
        "every trial either ran or belongs to a side already fixed"
    );
    let verdict = verdict == Some(true);
    let executed = executed.into_inner();
    registry.add(Counter::TrialsRun, executed);
    registry.add(Counter::TrialsSkipped, work - executed);
    let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    registry.observe(HistogramId::TrialBatchMicros, elapsed_us);
    dut_obs::global().emit_verbose_with(|| {
        dut_obs::Event::new("trial_batch")
            .with("kind", "two_sided")
            .with("trials", work)
            .with("executed", executed)
            .with("threads", threads)
            .with("verdict", verdict)
            .with("elapsed_us", elapsed_us)
    });
    verdict
}

/// What one side's finished trials already fix about
/// `SuccessEstimate::new(s, trials).point() >= REQUIRED_SUCCESS`:
/// `Some(true)` once `wins` alone passes, `Some(false)` once
/// `trials − losses` (every unfinished trial a win) still fails,
/// `None` while the unfinished trials can still tip it.
fn side_verdict(wins: u64, losses: u64, trials: u64) -> Option<bool> {
    if SuccessEstimate::new(wins, trials).point() >= REQUIRED_SUCCESS {
        Some(true)
    } else if SuccessEstimate::new(trials - losses, trials).point() < REQUIRED_SUCCESS {
        Some(false)
    } else {
        None
    }
}

/// The two-sided verdict once the sides fix it: `false` as soon as one
/// side is fixed at `false`, `true` once both are fixed at `true`.
fn two_sided_verdict(sides: [Option<bool>; 2]) -> Option<bool> {
    match sides {
        [Some(false), _] | [_, Some(false)] => Some(false),
        [Some(true), Some(true)] => Some(true),
        _ => None,
    }
}

/// Runs `trials` executions of a real-valued experiment in parallel and
/// returns all values, ordered by trial index.
///
/// # Panics
///
/// Panics if `trials == 0`, or propagates a panic from `trial`.
pub fn run_measurements<F>(trials: u64, master_seed: u64, trial: F) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    assert!(trials > 0, "need at least one trial");
    let len = crate::convert::saturating_usize_from_u64(trials);
    let threads = available_threads().min(len).max(1);
    let start = Instant::now();
    let registry = dut_obs::metrics::global();
    registry.set_gauge(Gauge::RunnerThreads, threads as u64);
    let mut values = vec![0.0f64; len];
    if threads == 1 {
        for (i, v) in values.iter_mut().enumerate() {
            *v = trial(derive_seed(master_seed, i as u64));
        }
    } else {
        let chunk = len.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, slice) in values.chunks_mut(chunk).enumerate() {
                let trial = &trial;
                let base = (t * chunk) as u64;
                scope.spawn(move || {
                    for (off, v) in slice.iter_mut().enumerate() {
                        *v = trial(derive_seed(master_seed, base + off as u64));
                    }
                });
            }
        });
    }
    registry.add(Counter::TrialsRun, trials);
    let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    registry.observe(HistogramId::TrialBatchMicros, elapsed_us);
    dut_obs::global().emit_verbose_with(|| {
        dut_obs::Event::new("trial_batch")
            .with("kind", "measurements")
            .with("trials", trials)
            .with("threads", threads)
            .with("elapsed_us", elapsed_us)
    });
    values
}

/// Mean and sample standard deviation of a value slice.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn mean_and_sd(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "need at least one value");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() == 1 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Worker count for trial batches: the `DUT_THREADS` env var when set
/// to a positive integer (clamped to at least 1), otherwise the
/// machine's available parallelism.
///
/// The env var is read and parsed **once per process** — a long-lived
/// server calls this on every request batch, and re-reading the
/// environment each time both wastes a syscall on the hot path and, if
/// the value is unparseable, re-emits the `env_var_ignored` event once
/// per batch, spamming the trace. The memoized path emits the
/// ignored-value event at most once per process (library code never
/// writes to stderr directly).
#[must_use]
pub fn available_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(raw) = std::env::var("DUT_THREADS") {
            if let Some(n) = parse_thread_override(&raw) {
                return n;
            }
            // Inside get_or_init: runs exactly once per process.
            dut_obs::global().emit_with(|| {
                dut_obs::Event::new("env_var_ignored")
                    .with("name", "DUT_THREADS")
                    .with("value", raw)
                    .with("reason", "not a positive integer")
            });
        }
        default_parallelism()
    })
}

/// `DUT_THREADS` semantics, factored pure for tests: a parseable
/// integer is honored (clamped to at least 1); anything else is `None`.
fn parse_thread_override(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().map(|n| n.max(1))
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::HashMap;

    const SIDE_SEEDS: [u64; 2] = [0xA11CE, 0xB0B];

    /// One side's planted outcomes, keyed by the seed trial `i` gets,
    /// so a lookup also checks that the runner hands out those seeds.
    fn planted(side_seed: u64, outcomes: &[bool]) -> HashMap<u64, bool> {
        (0u64..)
            .zip(outcomes)
            .map(|(i, &ok)| (derive_seed(side_seed, i), ok))
            .collect()
    }

    /// `wins` successes out of `trials`, at positions shuffled by `order_seed`.
    fn outcomes(trials: u64, wins: u64, order_seed: u64) -> Vec<bool> {
        let mut v: Vec<bool> = (0..trials).map(|i| i < wins).collect();
        v.shuffle(&mut rand::rngs::StdRng::seed_from_u64(order_seed));
        v
    }

    /// The early decision at `threads` and the full-count reference
    /// for planted outcome vectors, as `(early, reference)`.
    fn decide_both_ways(sides: [&[bool]; 2], threads: usize) -> (bool, bool) {
        assert_eq!(sides[0].len(), sides[1].len());
        let trials = sides[0].len() as u64;
        let tables = [
            planted(SIDE_SEEDS[0], sides[0]),
            planted(SIDE_SEEDS[1], sides[1]),
        ];
        let early = decide_two_sided_with_threads(trials, SIDE_SEEDS, threads, |side, seed| {
            tables[side][&seed]
        });
        let passes = |side: usize| {
            let wins = sides[side].iter().filter(|&&ok| ok).count() as u64;
            SuccessEstimate::new(wins, trials).point() >= REQUIRED_SUCCESS
        };
        (early, passes(0) && passes(1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn early_decision_matches_full_counts(
            trials in 1u64..240,
            rates in (0.5f64..0.85, 0.5f64..0.85),
            order_seed in any::<u64>(),
        ) {
            // Rates straddle 2/3, so all four pass/fail combinations occur.
            let wins = |rate: f64| ((rate * trials as f64).round() as u64).min(trials);
            let uniform = outcomes(trials, wins(rates.0), order_seed);
            let far = outcomes(trials, wins(rates.1), order_seed ^ 1);
            for threads in 1..=4 {
                let (early, reference) = decide_both_ways([&uniform, &far], threads);
                prop_assert_eq!(early, reference);
            }
        }
    }

    #[test]
    fn early_decision_is_exact_at_the_boundary() {
        // 134/200 = 0.670 passes 2/3 and 133/200 = 0.665 fails;
        // 200/300 is exactly 2/3 and passes, 199/300 fails.
        for (trials, pass) in [(200, 134), (300, 200)] {
            let orders: [&dyn Fn(u64) -> Vec<bool>; 3] = [
                &|wins| (0..trials).map(|i| i < wins).collect(),
                &|wins| (0..trials).map(|i| i >= trials - wins).collect(),
                &|wins| outcomes(trials, wins, wins),
            ];
            for (uniform_wins, far_wins) in [(pass, pass), (pass, pass - 1), (pass - 1, pass)] {
                for order in orders {
                    let sides = [order(uniform_wins), order(far_wins)];
                    for threads in 1..=4 {
                        let (early, reference) = decide_both_ways([&sides[0], &sides[1]], threads);
                        assert_eq!(reference, uniform_wins == pass && far_wins == pass);
                        assert_eq!(
                            early, reference,
                            "{uniform_wins}/{far_wins} of {trials} wins at {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn early_decision_handles_a_single_trial() {
        for (uniform, far) in [(true, true), (true, false), (false, true), (false, false)] {
            for threads in 1..=4 {
                let (early, reference) = decide_both_ways([&[uniform], &[far]], threads);
                assert_eq!(reference, uniform && far);
                assert_eq!(early, reference, "{uniform}/{far} at {threads} threads");
            }
        }
    }

    #[test]
    fn measurements_are_ordered_and_deterministic() {
        let v = run_measurements(64, 5, |seed| (seed % 100) as f64);
        let w = run_measurements(64, 5, |seed| (seed % 100) as f64);
        assert_eq!(v, w);
        assert_eq!(v.len(), 64);
        // Spot check ordering: value i must equal trial(derive_seed(5, i)).
        assert_eq!(v[10], (crate::seed::derive_seed(5, 10) % 100) as f64);
    }

    #[test]
    fn mean_and_sd_basic() {
        let (m, s) = mean_and_sd(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m1, s1) = mean_and_sd(&[5.0]);
        assert_eq!((m1, s1), (5.0, 0.0));
    }

    #[test]
    fn single_trial_works() {
        assert_eq!(run_measurements(1, 3, |_| 1.0), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = run_measurements(0, 0, |_| 1.0);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn thread_count_is_memoized() {
        // The env var is parsed once per process: mutating it after
        // the first call must not change the answer (and therefore
        // cannot re-emit the env_var_ignored event).
        let first = available_threads();
        std::env::set_var("DUT_THREADS", "not-a-number");
        let second = available_threads();
        std::env::remove_var("DUT_THREADS");
        assert_eq!(first, second);
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 12 "), Some(12));
        // Zero is clamped to one worker, not treated as garbage.
        assert_eq!(parse_thread_override("0"), Some(1));
        assert_eq!(parse_thread_override("not-a-number"), None);
        assert_eq!(parse_thread_override("-3"), None);
        assert_eq!(parse_thread_override(""), None);
    }

    #[test]
    fn measurements_repeat_runs_agree() {
        // Determinism is thread-count independent by construction
        // (per-trial derived seeds); repeated runs must be identical.
        let a = run_measurements(48, 9, |seed| (seed % 7) as f64);
        let b = run_measurements(48, 9, |seed| (seed % 7) as f64);
        assert_eq!(a, b);
    }
}
