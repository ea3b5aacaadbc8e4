//! Shared experiment plumbing for the E1–E12 and A1 reproduction
//! binaries.
//!
//! Every binary follows the same pattern:
//!
//! 1. read the harness configuration from the environment
//!    ([`Harness::from_env`]: `DUT_TRIALS`, `DUT_SEED`, `DUT_RESULTS`),
//! 2. measure — usually the minimal per-player sample count `q*` at
//!    which a protocol reaches the paper's two-sided 2/3 guarantee
//!    ([`Harness::search`], [`Harness::search_calibrated`]),
//! 3. print a Markdown table next to the paper's prediction and write
//!    the same rows as CSV under the results directory
//!    ([`Harness::save`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact constructed values and index with small literals"
    )
)]
#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::expect_used,
    reason = "the harness prints each experiment's tables and warnings, and a results CSV it cannot write ends the run"
)]

use dut_core::probability::AliasSampler;
use dut_core::stats::runner::decide_two_sided;
use dut_core::stats::search::{minimal_sufficient, SearchResult};
use dut_core::stats::seed::{derive_seed, derive_seed2};
use dut_core::stats::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Experiment configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Trials per success-probability estimate (`DUT_TRIALS`, default 200).
    pub trials: u64,
    /// Master seed (`DUT_SEED`, default 20190729 — the paper's first day).
    pub seed: u64,
    /// Output directory for CSV tables (`DUT_RESULTS`, default `results`).
    pub results_dir: PathBuf,
}

impl Harness {
    /// Reads the configuration from the environment and, when
    /// `DUT_TRACE` names a file, installs the JSONL trace sink.
    ///
    /// A `DUT_TRIALS` or `DUT_SEED` that is set but is not a positive
    /// integer ends the process: falling back to the default would
    /// rerun the committed experiment under a mistyped seed and look
    /// like a perfect replication.
    #[must_use]
    pub fn from_env() -> Self {
        let trials = positive_env("DUT_TRIALS", 200);
        let seed = positive_env("DUT_SEED", 20_190_729);
        dut_obs::init_from_env();
        let results_dir = std::env::var("DUT_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        Self {
            trials,
            seed,
            results_dir,
        }
    }

    /// Emits the run manifest (experiment name, seed, trials, build
    /// description) to the trace. Call once at the top of a binary.
    pub fn emit_manifest(&self, experiment: &str) {
        let experiment = experiment.to_owned();
        let trials = self.trials;
        let seed = self.seed;
        dut_obs::global().emit_with(move || {
            dut_obs::Event::new("manifest")
                .with("experiment", experiment)
                .with("seed", seed)
                .with("trials", trials)
                .with("build", git_describe())
                .with("threads", dut_core::stats::runner::available_threads())
        });
    }

    /// Emits the final metrics snapshot and an `"elapsed"` span-free
    /// summary, then flushes every sink. Call once before exiting.
    pub fn finish(&self) {
        let recorder = dut_obs::global();
        recorder.emit_metrics_snapshot();
        recorder.emit_with(|| {
            dut_obs::Event::new("run_done").with("elapsed_us", recorder.now_micros())
        });
        recorder.flush();
    }

    /// Prints the table as Markdown and writes `<name>.csv` to the
    /// results directory.
    ///
    /// # Panics
    ///
    /// Panics if the CSV cannot be written.
    pub fn save(&self, name: &str, table: &Table) {
        println!("{}", table.to_markdown());
        let path = self.results_dir.join(format!("{name}.csv"));
        table.write_csv(&path).expect("failed to write results CSV");
        println!("[csv written to {}]", path.display());
    }

    /// Finds the minimal resource value `r` in `[2, max]` (a sample
    /// count, a node count or a time budget) at which a protocol passes
    /// [`two_sided_success`] on [`workload`]`(n, epsilon)`. `at(r)`
    /// prepares the protocol, drawing no randomness, and returns its
    /// `accepts(sampler, rng)`, which runs it once.
    ///
    /// The probe at `r` has seed `derive_seed2(self.seed, stream, r)`,
    /// and its trials take that probe seed.
    pub fn search<A: Fn(&AliasSampler, &mut StdRng) -> bool + Sync>(
        &self,
        n: usize,
        epsilon: f64,
        stream: u64,
        max: usize,
        mut at: impl FnMut(usize) -> A,
    ) -> SearchResult {
        self.probe_search(n, epsilon, stream, max, false, |r, _| at(r))
    }

    /// [`Harness::search`] for a protocol whose preparation draws
    /// randomness, such as a Monte-Carlo-calibrated referee threshold:
    /// `at(r, rng)` prepares on `StdRng::seed_from_u64(probe_seed)`,
    /// and the trials take `derive_seed(probe_seed, 1)`.
    ///
    /// Why two seed rules: here the probe seed already drives the
    /// calibration stream, so the trials take a seed one step away. A
    /// protocol that draws nothing while preparing has no such stream,
    /// and its searches were recorded with the probe seed itself.
    /// Every committed q\* depends on its search's rule.
    pub fn search_calibrated<A: Fn(&AliasSampler, &mut StdRng) -> bool + Sync>(
        &self,
        n: usize,
        epsilon: f64,
        stream: u64,
        max: usize,
        at: impl FnMut(usize, &mut StdRng) -> A,
    ) -> SearchResult {
        self.probe_search(n, epsilon, stream, max, true, at)
    }

    /// The one q\* probe behind [`Harness::search`] and
    /// [`Harness::search_calibrated`].
    fn probe_search<A: Fn(&AliasSampler, &mut StdRng) -> bool + Sync>(
        &self,
        n: usize,
        epsilon: f64,
        stream: u64,
        max: usize,
        calibrated: bool,
        mut at: impl FnMut(usize, &mut StdRng) -> A,
    ) -> SearchResult {
        let (uniform, far) = workload(n, epsilon);
        q_star(2, max, |r| {
            let probe_seed = derive_seed2(self.seed, stream, r as u64);
            let accepts = at(r, &mut StdRng::seed_from_u64(probe_seed));
            let trial_seed = if calibrated {
                derive_seed(probe_seed, 1)
            } else {
                probe_seed
            };
            two_sided_success(self.trials, trial_seed, &uniform, &far, accepts)
        })
    }
}

/// Reads `name` from the environment as a positive decimal integer,
/// or `default` when it is unset. Any other value ends the process
/// with status 2 and a message naming the variable and the value.
fn positive_env(name: &str, default: u64) -> u64 {
    let Some(value) = std::env::var_os(name) else {
        return default;
    };
    match value.to_str().and_then(|v| v.parse().ok()) {
        Some(v) if v > 0 => v,
        _ => {
            let value = value.to_string_lossy();
            eprintln!("error: {name}={value} is not a positive integer");
            std::process::exit(2)
        }
    }
}

/// Decides, in parallel, whether a protocol achieves the two-sided
/// 2/3 guarantee: accepts the uniform sampler and rejects the far
/// sampler, each with probability ≥ 2/3 over `trials` executions.
///
/// `accepts(sampler, rng)` runs the protocol once and reports whether
/// it accepted. Uniform trial `i` is seeded with
/// `derive_seed(derive_seed(seed, 0), i)` and far trial `i` with
/// `derive_seed(derive_seed(seed, 1), i)`.
///
/// The answer is exactly `p̂_uniform ≥ 2/3 && p̂_far ≥ 2/3` over all
/// `2·trials` of those executions, but the work stops as soon as the
/// finished trials fix it ([`decide_two_sided`]): when one side can no
/// longer reach 2/3, or both already have. Each next trial goes to the
/// side that is losing, so a failing probe spends its trials on the
/// side that fails it. Each side runs its trials in index order and
/// its verdict is a threshold of a fixed vector of seeded outcomes, so
/// the bool does not depend on the thread count or schedule.
pub fn two_sided_success<F>(
    trials: u64,
    seed: u64,
    uniform: &AliasSampler,
    far: &AliasSampler,
    accepts: F,
) -> bool
where
    F: Fn(&AliasSampler, &mut StdRng) -> bool + Sync,
{
    let samplers = [uniform, far];
    let side_seeds = [derive_seed(seed, 0), derive_seed(seed, 1)];
    decide_two_sided(trials, side_seeds, |side, s| {
        let mut rng = StdRng::seed_from_u64(s);
        // Side 0 succeeds by accepting uniform, side 1 by rejecting far.
        accepts(samplers[side], &mut rng) == (side == 0)
    })
}

/// Binary-searches the minimal `q` (or `k`, or `τ` — any monotone
/// integer resource) at which `succeeds_at` holds.
pub fn q_star<F>(min: usize, max: usize, succeeds_at: F) -> SearchResult
where
    F: FnMut(usize) -> bool,
{
    minimal_sufficient(min, max, succeeds_at)
}

/// Builds the standard workload pair for `(n, ε)`: the uniform sampler
/// and the canonical extremal far instance.
///
/// # Panics
///
/// Panics if `n` is odd or `ε ∉ [0, 1]`.
#[must_use]
pub fn workload(n: usize, epsilon: f64) -> (AliasSampler, AliasSampler) {
    let uniform = dut_core::probability::families::uniform(n).alias_sampler();
    let far = dut_core::probability::families::two_level(n, epsilon)
        .expect("valid far instance")
        .alias_sampler();
    (uniform, far)
}

/// Mean of a statistic over parallel trials.
pub fn mean_of<F>(trials: u64, seed: u64, f: F) -> f64
where
    F: Fn(&mut StdRng) -> f64 + Sync,
{
    let values = dut_core::stats::runner::run_measurements(trials, seed, |s| {
        let mut rng = StdRng::seed_from_u64(s);
        f(&mut rng)
    });
    values.iter().sum::<f64>() / values.len() as f64
}

/// The output of `git describe --always --dirty`, or `"unknown"` when
/// git (or the repository) is unavailable.
#[must_use]
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Re-exported for binaries.
pub use dut_core::stats::sweep::log_log_slope;

#[cfg(test)]
mod tests {
    use super::*;
    use dut_core::probability::Sampler as _;

    #[test]
    fn two_sided_success_separates() {
        let (uniform, far) = workload(64, 1.0);
        // A "protocol" with 12 samples and a collision test.
        let tester = dut_core::testers::CollisionTester::new(64, 1.0);
        use dut_core::testers::centralized::CentralizedTester as _;
        let ok = two_sided_success(200, 7, &uniform, &far, |sampler, rng| {
            let samples = sampler.sample_many(60, rng);
            tester.test(&samples).is_accept()
        });
        assert!(ok, "collision tester with generous q should pass");
        let weak = two_sided_success(200, 9, &uniform, &far, |sampler, rng| {
            let samples = sampler.sample_many(2, rng);
            tester.test(&samples).is_accept()
        });
        assert!(!weak, "two samples cannot test eps=1 on n=64 reliably");
    }

    #[test]
    fn q_star_monotone_search() {
        let r = q_star(1, 1024, |q| q >= 37);
        assert_eq!(r.minimal, 37);
    }

    #[test]
    fn workload_distances() {
        let (u, f) = workload(32, 0.5);
        assert_eq!(u.support_size(), 32);
        assert_eq!(f.support_size(), 32);
    }
}
