//! Differential execution: one configuration, every evaluation path.
//!
//! The serve stack promises that a request's answer is a pure
//! function of `(n, k, q, ε, rule, family, seed, trials)` — the
//! offline reference, a fresh engine's miss path, a warm engine's hit
//! path, and a served TCP round trip must all produce bit-identical
//! `(verdict, p̂, Wilson bounds)`. This plane hammers that contract
//! with random configurations and bit-compares the paths.
//!
//! The per-draw and histogram sampling backends are a deliberate
//! exception: they agree **in distribution**, not draw-for-draw (see
//! `dut_probability::occupancy`), so cross-backend comparison uses a
//! seeded acceptance-frequency tolerance instead of bit equality —
//! deterministic under fixed seeds, so it can never flake. `Auto` is
//! *not* such an exception: it is a choice between those two engines,
//! so the auto lane ([`auto_matches_resolved`]) demands bit-identity
//! with whatever the cost model resolved.
//!
//! A failing configuration is *shrunk* (halving n, q, k, trials while
//! the failure persists) and persisted as a replayable corpus entry;
//! findings must outlive the run that found them.

use crate::corpus::{self, Entry};
use dut_serve::chaos::probe_request;
use dut_serve::client::{check_served, Served};
use dut_serve::engine::{self, CacheKey};
use dut_serve::protocol::{self, Request};
use dut_stats::seed::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Trials per backend in the cross-backend tolerance check.
pub const CROSS_BACKEND_TRIALS: u64 = 64;

/// Maximum allowed acceptance-frequency gap between backends over
/// [`CROSS_BACKEND_TRIALS`] trials. Both backends sample the same
/// distribution, so their acceptance probabilities are equal; over 64
/// trials the observed gap concentrates well below this. Under fixed
/// seeds the check is deterministic — it either always passes or
/// always fails for a given configuration.
pub const CROSS_BACKEND_MARGIN: f64 = 0.45;

/// Differential-plane configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Random configurations to test.
    pub iters: u64,
    /// Master seed for configuration generation.
    pub seed: u64,
    /// A live server to include in the comparison (`None` skips the
    /// served path and compares local paths only).
    pub addr: Option<String>,
    /// Where to persist shrunk failing configurations (`None`
    /// disables persistence).
    pub corpus_dir: Option<PathBuf>,
    /// Check the cross-backend tolerance on one configuration in
    /// this many (0 disables; the check rebuilds the tester, so it
    /// is the expensive part of an iteration).
    pub cross_backend_every: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            iters: 32,
            seed: 1,
            addr: None,
            corpus_dir: None,
            cross_backend_every: 4,
        }
    }
}

/// One disagreement between evaluation paths.
#[derive(Debug, Clone)]
pub struct DiffFailure {
    /// The (shrunk) configuration that disagrees.
    pub request: Request,
    /// Which paths disagreed and how.
    pub what: String,
    /// Corpus file the shrunk configuration was written to, if
    /// persistence was on and the write succeeded.
    pub corpus_file: Option<PathBuf>,
}

/// What a differential run covered and found.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Configurations tested.
    pub iterations: u64,
    /// Cross-backend tolerance checks performed.
    pub cross_backend_checked: u64,
    /// Auto-vs-resolved bit-identity checks performed.
    pub auto_checked: u64,
    /// Configurations that included the served-TCP path.
    pub served_checked: u64,
    /// Path disagreements (empty = the contract held).
    pub failures: Vec<DiffFailure>,
}

impl DiffReport {
    /// Whether every configuration agreed on every path.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Seeded random request-configuration generator, kept within the
/// served limits so failures are always about *agreement*, not
/// validation.
#[derive(Debug)]
pub struct ConfigGen {
    rng: StdRng,
}

impl ConfigGen {
    /// A generator whose output sequence is a function of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> ConfigGen {
        ConfigGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next random configuration.
    pub fn request(&mut self) -> Request {
        let n = 1usize << self.rng.random_range(1..9); // 2..=256
        let k = self.rng.random_range(1..=6);
        let q = self.rng.random_range(1..=32);
        let eps_choices = [0.25, 0.5, 0.75, 0.9, 1.0];
        let eps = eps_choices[self.rng.random_range(0..eps_choices.len())];
        let rule = match self.rng.random_range(0..4u32) {
            0 => dut_core::Rule::And,
            1 => dut_core::Rule::Balanced,
            2 => dut_core::Rule::Centralized,
            _ => dut_core::Rule::TThreshold {
                t: self.rng.random_range(1..=k),
            },
        };
        let family = protocol::Family::ALL[self.rng.random_range(0..protocol::Family::ALL.len())];
        Request {
            n,
            k,
            q,
            eps,
            rule,
            family,
            seed: self.rng.random(),
            trials: self.rng.random_range(1..=4),
        }
    }
}

/// Bit-compares the local paths (offline, fresh-engine miss,
/// cached-engine hit) for one configuration.
///
/// # Errors
///
/// Returns a description of the first disagreement.
pub fn compare_local_paths(request: &Request) -> Result<(), String> {
    corpus::bit_identity(request)
}

/// Bit-compares one configuration across every requested path.
///
/// # Errors
///
/// Returns a description of the first disagreement.
pub fn compare_all_paths(request: &Request, addr: Option<&str>) -> Result<(), String> {
    compare_local_paths(request)?;
    if let Some(addr) = addr {
        // A shed is not a disagreement.
        check_served(addr, request)?;
    }
    Ok(())
}

/// The cross-backend tolerance check: per-draw vs histogram
/// acceptance frequency over [`CROSS_BACKEND_TRIALS`] seeded trials.
///
/// # Errors
///
/// Returns a description when the gap exceeds
/// [`CROSS_BACKEND_MARGIN`] (or the tester cannot be built).
pub fn cross_backend_agreement(request: &Request) -> Result<(), String> {
    use dut_core::probability::SampleBackend;
    let entry = engine::build_entry(&CacheKey::of(request)).map_err(|e| e.message.clone())?;
    let freq = |backend: SampleBackend| -> f64 {
        let mut accepts = 0u64;
        for i in 0..CROSS_BACKEND_TRIALS {
            let mut rng = StdRng::seed_from_u64(derive_seed(request.seed, i));
            if entry
                .prepared
                .run_dual(&entry.sampler, backend, &mut rng)
                .is_accept()
            {
                accepts += 1;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        {
            accepts as f64 / CROSS_BACKEND_TRIALS as f64
        }
    };
    let per_draw = freq(SampleBackend::PerDraw);
    let histogram = freq(SampleBackend::Histogram);
    let gap = (per_draw - histogram).abs();
    if gap > CROSS_BACKEND_MARGIN {
        return Err(format!(
            "backends disagree in distribution: per-draw {per_draw:.3} vs histogram \
             {histogram:.3} (gap {gap:.3} > {CROSS_BACKEND_MARGIN})"
        ));
    }
    Ok(())
}

/// The auto-resolution lane: `Auto` is a *choice*, not a third
/// sampling law, so running with `Auto` must be bit-identical — same
/// seed, same verdict, trial for trial — to running with the concrete
/// engine the cost model resolves it to.
///
/// # Errors
///
/// Returns a description of the first diverging trial (or a tester
/// build failure, or a leaked `Auto` from `resolve`).
pub fn auto_matches_resolved(request: &Request) -> Result<(), String> {
    use dut_core::probability::SampleBackend;
    let entry = engine::build_entry(&CacheKey::of(request)).map_err(|e| e.message.clone())?;
    let q = request.q as u64;
    let resolved = entry.sampler.resolve(SampleBackend::Auto, q);
    if resolved == SampleBackend::Auto {
        return Err("resolve() returned Auto instead of a concrete engine".into());
    }
    for i in 0..CROSS_BACKEND_TRIALS {
        let mut auto_rng = StdRng::seed_from_u64(derive_seed(request.seed, i));
        let mut fixed_rng = StdRng::seed_from_u64(derive_seed(request.seed, i));
        let auto = entry
            .prepared
            .run_dual(&entry.sampler, SampleBackend::Auto, &mut auto_rng);
        let fixed = entry
            .prepared
            .run_dual(&entry.sampler, resolved, &mut fixed_rng);
        if auto != fixed {
            return Err(format!(
                "auto diverged from its resolved engine ({}) on trial {i}: \
                 {auto:?} vs {fixed:?}",
                resolved.name()
            ));
        }
    }
    Ok(())
}

/// Shrinks a failing configuration: repeatedly halves `n`, `q`, `k`,
/// and `trials` (respecting validity: a threshold rule's `t` is
/// clamped into `1..=k`) while the failure reproduces, so the corpus
/// holds the smallest configuration that still disagrees.
fn shrink(request: &Request, addr: Option<&str>) -> Request {
    let mut current = *request;
    for _ in 0..32 {
        let mut reduced = false;
        let candidates = [
            Request {
                n: (current.n / 2).max(2),
                ..current
            },
            Request {
                q: (current.q / 2).max(1),
                ..current
            },
            Request {
                k: (current.k / 2).max(1),
                rule: match current.rule {
                    dut_core::Rule::TThreshold { t } => dut_core::Rule::TThreshold {
                        t: t.min((current.k / 2).max(1)),
                    },
                    other => other,
                },
                ..current
            },
            Request {
                trials: (current.trials / 2).max(1),
                ..current
            },
        ];
        for candidate in candidates {
            if candidate != current && compare_all_paths(&candidate, addr).is_err() {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    current
}

/// Persists a shrunk failing configuration as a corpus entry.
fn persist(dir: &Path, index: u64, request: &Request) -> Option<PathBuf> {
    let name = format!("diff-mismatch-{index}");
    let entry = Entry::differential(&name, request);
    let path = dir.join(format!("{name}.json"));
    std::fs::create_dir_all(dir).ok()?;
    std::fs::write(&path, entry.render()).ok()?;
    Some(path)
}

/// Runs the differential plane.
///
/// # Errors
///
/// Returns an error only for harness failures (e.g. the server at
/// `addr` is unreachable); contract violations land in the report.
pub fn run(config: &DiffConfig) -> Result<DiffReport, String> {
    if let Some(addr) = &config.addr {
        // Fail fast on a dead server rather than attributing connect
        // errors to every configuration.
        check_served(addr, &probe_request())
            .and_then(Served::answered)
            .map_err(|e| format!("server not healthy before differential run: {e}"))?;
    }
    let mut gen = ConfigGen::new(config.seed);
    let mut report = DiffReport::default();
    for i in 0..config.iters {
        let request = gen.request();
        report.iterations += 1;
        let addr = config.addr.as_deref();
        if addr.is_some() {
            report.served_checked += 1;
        }
        let mut verdicts: Vec<String> = Vec::new();
        if let Err(e) = compare_all_paths(&request, addr) {
            verdicts.push(e);
        }
        if config.cross_backend_every > 0 && i % config.cross_backend_every == 0 {
            report.cross_backend_checked += 1;
            if let Err(e) = cross_backend_agreement(&request) {
                verdicts.push(e);
            }
            report.auto_checked += 1;
            if let Err(e) = auto_matches_resolved(&request) {
                verdicts.push(e);
            }
        }
        for what in verdicts {
            let shrunk = shrink(&request, addr);
            let corpus_file = config
                .corpus_dir
                .as_deref()
                .and_then(|dir| persist(dir, i, &shrunk));
            report.failures.push(DiffFailure {
                request: shrunk,
                what,
                corpus_file,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_gen_is_deterministic() {
        let mut a = ConfigGen::new(9);
        let mut b = ConfigGen::new(9);
        for _ in 0..20 {
            assert_eq!(a.request(), b.request());
        }
    }

    #[test]
    fn generated_configs_are_servable() {
        let mut gen = ConfigGen::new(4);
        for _ in 0..20 {
            let request = gen.request();
            let line = protocol::render_request(&request);
            match protocol::parse_command(&line) {
                Ok(protocol::Command::Run(parsed)) => {
                    assert_eq!(parsed.n, request.n);
                    assert_eq!(parsed.rule, request.rule);
                }
                other => panic!("generated config does not parse: {other:?} from {line}"),
            }
        }
    }

    #[test]
    fn local_paths_agree_on_random_configs() {
        // A miniature differential run with no server and no corpus:
        // the bit-identity contract on a handful of random configs.
        let report = run(&DiffConfig {
            iters: 4,
            seed: 5,
            cross_backend_every: 2,
            ..DiffConfig::default()
        })
        .expect("run completes");
        assert_eq!(report.iterations, 4);
        assert_eq!(report.cross_backend_checked, 2);
        assert_eq!(report.auto_checked, 2);
        assert!(
            report.passed(),
            "differential failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn auto_lane_bit_identity_on_fixed_config() {
        let request = Request {
            n: 64,
            k: 3,
            q: 8,
            eps: 0.5,
            rule: dut_core::Rule::Balanced,
            family: protocol::Family::Uniform,
            seed: 11,
            trials: 2,
        };
        auto_matches_resolved(&request).expect("auto runs bit-identical to its resolved engine");
    }

    #[test]
    fn shrink_respects_threshold_validity() {
        let request = Request {
            n: 256,
            k: 6,
            q: 32,
            eps: 0.5,
            rule: dut_core::Rule::TThreshold { t: 6 },
            family: protocol::Family::Uniform,
            seed: 1,
            trials: 4,
        };
        // Nothing actually fails here, so shrink returns the input
        // unchanged — but it must not panic on the threshold clamp.
        let shrunk = shrink(&request, None);
        assert_eq!(shrunk, request);
    }
}
