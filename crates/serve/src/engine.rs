//! Request evaluation: cache resolution, trial runs, reply assembly.
//!
//! Every request takes one lookup in the single-flight tester cache
//! (the only place requests share a prepared tester), then its own
//! trials and its own service-time clock. A worker looks up through
//! [`Engine::handle_queued`], which builds on a miss; a shard answering
//! a small cached hit inline looks up through [`Engine::handle_cached`],
//! which never builds. Both finish in the same code.
//!
//! The engine is deliberately separable from the TCP server — the
//! load generator instantiates a second engine locally and requires
//! its replies to match the served ones bit-for-bit, which is the
//! strongest cheap check that caching never changes answers.
//!
//! # Determinism contract
//!
//! Preparing a tester consumes randomness (the balanced rule
//! calibrates its referee threshold by Monte Carlo). If that
//! randomness came from the request's `seed`, the first request to
//! touch a configuration would imprint its seed on every later cache
//! hit and verdicts would depend on arrival order. Instead the
//! calibration RNG is seeded from the *cache key* ([`CacheKey::
//! calibration_seed`]), making the prepared tester a pure function of
//! the configuration. Trial randomness then comes from
//! `derive_seed(request.seed, trial_index)` exactly as the offline
//! runner derives it.

use crate::cache::{BuildResult, Lookup, ShardedTesterCache};
use crate::protocol::{Family, Reply, Request};
use dut_core::{PreparedUniformityTester, Rule, UniformityTester};
use dut_obs::metrics::{Counter, HistogramId};
use dut_probability::{AliasSampler, SampleBackend};
use dut_simnet::Verdict;
use dut_stats::seed::derive_seed2;
use dut_stats::{seed::derive_seed, SuccessEstimate};
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The z-score of the Wilson interval in replies (95% two-sided).
pub const WILSON_Z: f64 = 1.96;

/// A failed tester build, classified for the cache.
///
/// * **Permanent** errors are deterministic functions of the cache
///   key (an unsatisfiable configuration): re-validating on every
///   request would let a hostile client bypass the cache, so they are
///   cached like successes.
/// * **Transient** errors are not properties of the key — a build
///   that panicked, or a future backend's resource exhaustion. The
///   cache evicts them immediately after serving, so one bad
///   calibration never pins a configuration to failure forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError {
    /// The message sent back to the client as `{"error":...}`.
    pub message: String,
    /// Whether the cache should retry this key on the next request.
    pub transient: bool,
}

impl BuildError {
    /// A deterministic validation failure (cached with the key).
    #[must_use]
    pub fn permanent(message: impl Into<String>) -> BuildError {
        BuildError {
            message: message.into(),
            transient: false,
        }
    }

    /// A retryable failure (evicted from the cache after serving).
    #[must_use]
    pub fn transient(message: impl Into<String>) -> BuildError {
        BuildError {
            message: message.into(),
            transient: true,
        }
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Identity of a prepared tester: every field that influences
/// preparation or sampling. Epsilon enters by IEEE-754 bit pattern —
/// two requests either share a tester exactly or not at all. The
/// calibration engine is not a field: it is [`CacheKey::backend`], a
/// fixed function of `(n, q)`, so it is the same in every process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Domain size.
    pub n: usize,
    /// Player count.
    pub k: usize,
    /// Samples per player.
    pub q: usize,
    /// `ε` bit pattern.
    pub eps_bits: u64,
    /// Rule discriminant (0=and, 1=threshold, 2=balanced, 3=centralized).
    pub rule_tag: u8,
    /// Threshold `T` for the threshold rule, 0 otherwise.
    pub rule_t: usize,
    /// Input family.
    pub family: Family,
}

impl CacheKey {
    /// The key for a request.
    #[must_use]
    pub fn of(req: &Request) -> CacheKey {
        let (rule_tag, rule_t) = match req.rule {
            Rule::And => (0, 0),
            Rule::TThreshold { t } => (1, t),
            Rule::Balanced => (2, 0),
            Rule::Centralized => (3, 0),
        };
        CacheKey {
            n: req.n,
            k: req.k,
            q: req.q,
            eps_bits: req.eps.to_bits(),
            rule_tag,
            rule_t,
            family: req.family,
        }
    }

    /// The concrete engine the balanced rule's calibration draws on for
    /// this key: the frozen cost tables' pick for the key's `(n, q)`,
    /// never `Auto`. Trials do not use it; every trial draws through
    /// the alias sampler's fused kernel.
    #[must_use]
    pub fn backend(&self) -> SampleBackend {
        SampleBackend::Auto.resolve(self.n, self.q as u64)
    }

    /// The rule this key encodes.
    #[must_use]
    pub fn rule(&self) -> Rule {
        match self.rule_tag {
            0 => Rule::And,
            1 => Rule::TThreshold { t: self.rule_t },
            2 => Rule::Balanced,
            _ => Rule::Centralized,
        }
    }

    /// A split-mix chain over every key field: stable across runs and
    /// well mixed. The sharded cache routes by it, so a lookup never
    /// runs the cost model.
    #[must_use]
    pub fn fields_hash(&self) -> u64 {
        // Domain-separation constant: ASCII "dutserve" truncated.
        let mut s = derive_seed2(0x6475_7473_6572_7665, self.n as u64, self.k as u64);
        s = derive_seed2(s, self.q as u64, self.eps_bits);
        derive_seed2(
            s,
            u64::from(self.rule_tag) << 32 | self.rule_t as u64,
            self.family as u64,
        )
    }

    /// Seed for the preparation/calibration RNG: a pure function of
    /// the key and its calibration engine's code, so every build of
    /// this configuration — cached, fresh, offline, in any process —
    /// prepares the bit-identical tester.
    #[must_use]
    pub fn calibration_seed(&self) -> u64 {
        derive_seed2(self.fields_hash(), self.backend().gauge_code(), 0)
    }
}

/// A tester prepared for one [`CacheKey`], plus its input sampler.
#[derive(Debug)]
pub struct PreparedEntry {
    /// The calibrated tester.
    pub prepared: PreparedUniformityTester,
    /// Alias sampler for the key's input family.
    pub sampler: AliasSampler,
}

/// Builds the entry for a key from scratch (the cache-miss path and
/// the offline reference path both land here).
///
/// # Errors
///
/// Returns the family or tester-builder validation message as a
/// permanent [`BuildError`].
pub fn build_entry(key: &CacheKey) -> Result<Arc<PreparedEntry>, BuildError> {
    let eps = f64::from_bits(key.eps_bits);
    // Builder first: it validates n, k, ε before the family
    // constructors (which assert rather than return errors) run.
    let tester = UniformityTester::builder()
        .domain_size(key.n)
        .players(key.k)
        .epsilon(eps)
        .rule(key.rule())
        .build()
        .map_err(|e| BuildError::permanent(e.to_string()))?;
    let distribution = key
        .family
        .build(key.n, eps)
        .map_err(BuildError::permanent)?;
    // `prepare` calibrates on the engine `Auto` resolves to, which is
    // `key.backend()`: the engine the calibration seed names.
    let mut rng = rand::rngs::StdRng::seed_from_u64(key.calibration_seed());
    let prepared = tester.prepare(key.q, &mut rng);
    Ok(Arc::new(PreparedEntry {
        prepared,
        sampler: distribution.alias_sampler(),
    }))
}

/// [`build_entry`] with a panic boundary: a build that panics becomes
/// a *transient* [`BuildError`] instead of unwinding through the
/// worker (killing it) or wedging the entry's single-flight cell.
/// Every caught panic increments `serve_panics_caught`.
pub fn build_entry_caught(key: &CacheKey) -> Result<Arc<PreparedEntry>, BuildError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build_entry(key))).unwrap_or_else(
        |panic| {
            dut_obs::metrics::global().incr(Counter::ServePanicsCaught);
            Err(BuildError::transient(format!(
                "internal: tester build panicked: {}",
                panic_message(&panic)
            )))
        },
    )
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Runs the request's trials against a prepared entry, one after
/// another on the calling worker: each is one protocol run whose nodes
/// draw through the alias sampler's fused kernel. Trial `i` uses
/// `derive_seed(req.seed, i)`; the reply verdict is trial 0's.
fn run_trials(entry: &PreparedEntry, req: &Request) -> (Verdict, SuccessEstimate) {
    let mut accepts = 0u64;
    let mut first = Verdict::Reject;
    for i in 0..req.trials {
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(req.seed, i));
        let verdict = entry.prepared.run(&entry.sampler, &mut rng);
        if i == 0 {
            first = verdict;
        }
        if verdict.is_accept() {
            accepts += 1;
        }
    }
    (first, SuccessEstimate::new(accepts, req.trials))
}

fn assemble(
    verdict: Verdict,
    estimate: &SuccessEstimate,
    cache_hit: bool,
    start: Instant,
    rid: u64,
) -> Reply {
    Reply {
        verdict,
        p_hat: estimate.point(),
        wilson_lo: estimate.wilson_lower(WILSON_Z),
        wilson_hi: estimate.wilson_upper(WILSON_Z),
        cache_hit,
        micros: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
        rid,
    }
}

/// The reference path: evaluate a request with no cache at all.
/// Identical verdict law to [`Engine::handle`] by construction; the
/// stress tests and `dut loadgen --smoke` compare served replies
/// against this. (`micros` and `cache_hit` will naturally differ —
/// agreement is on `verdict`, `p_hat`, and the Wilson bounds.)
///
/// # Errors
///
/// Same conditions as [`build_entry`].
pub fn offline_reply(req: &Request) -> Result<Reply, String> {
    let start = Instant::now();
    let entry = build_entry(&CacheKey::of(req)).map_err(|e| e.message)?;
    let (verdict, estimate) = run_trials(&entry, req);
    Ok(assemble(verdict, &estimate, false, start, 0))
}

/// Default trace sampling rate: one request in this many emits a
/// `serve_trace` event at normal (non-verbose) level, so a sink sees
/// a steady per-request sample under heavy traffic without recording
/// every request.
pub const DEFAULT_TRACE_SAMPLE: u64 = 64;

/// Default shard count for the prepared-tester cache: enough to keep
/// unrelated keys off one mutex at the request-level scheduling rates
/// the shard loops sustain, small enough that tiny `cache_cap`
/// settings still get sensible per-shard capacity.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// A request evaluator with a sharded bounded LRU of prepared testers.
#[derive(Debug)]
pub struct Engine {
    cache: ShardedTesterCache,
    trace_sample: u64,
    next_rid: AtomicU64,
}

impl Engine {
    /// Creates an engine whose cache holds at most `cache_cap`
    /// prepared testers (clamped to at least 1) across
    /// [`DEFAULT_CACHE_SHARDS`] shards, tracing one request in
    /// [`DEFAULT_TRACE_SAMPLE`].
    #[must_use]
    pub fn new(cache_cap: usize) -> Engine {
        Engine::with_options(cache_cap, DEFAULT_TRACE_SAMPLE, DEFAULT_CACHE_SHARDS)
    }

    /// Fully explicit constructor: cache capacity, trace sampling
    /// rate (one request in `trace_sample` emits a `serve_trace`
    /// event; 0 disables sampled traces), and how many independent
    /// shards the tester cache splits into (clamped to at least 1;
    /// 1 recovers the single-mutex behavior).
    #[must_use]
    pub fn with_options(cache_cap: usize, trace_sample: u64, cache_shards: usize) -> Engine {
        Engine {
            cache: ShardedTesterCache::new(cache_cap, cache_shards),
            trace_sample,
            next_rid: AtomicU64::new(0),
        }
    }

    /// Number of prepared testers currently resident.
    #[must_use]
    pub fn cached_testers(&self) -> usize {
        self.cache.len()
    }

    /// Evaluates one request with zero queue wait (the form used by
    /// tests and the offline verifier); see [`Engine::handle_queued`].
    ///
    /// # Errors
    ///
    /// Returns the validation message for unsatisfiable
    /// configurations (sent back to the client as `{"error":...}`).
    pub fn handle(&self, req: &Request) -> Result<Reply, String> {
        self.handle_queued(req, 0)
    }

    /// Evaluates one request that waited `queue_wait_micros` for a
    /// worker. The prepared tester comes from the single-flight cache,
    /// the only place one is shared between requests: a miss builds it
    /// (`calibrate_micros` observed inside the build), a hit reuses it,
    /// and a hit that found the build still in flight for another
    /// request also ticks `serve_coalesced`, so
    /// `hits + misses == requests` stays exact. Everything after the
    /// lookup is shared with [`Engine::handle_cached`].
    ///
    /// Trials run with the request's own seed on a tester that is a
    /// pure function of its key, so the reply is bit-identical to
    /// [`offline_reply`] however the lookup went.
    ///
    /// # Errors
    ///
    /// Returns the validation message for unsatisfiable
    /// configurations (sent back to the client as `{"error":...}`).
    pub fn handle_queued(&self, req: &Request, queue_wait_micros: u64) -> Result<Reply, String> {
        let start = Instant::now();
        let registry = dut_obs::metrics::global();
        let mut calibrate_micros = 0u64;
        let (entry, lookup) = self.cache.get_or_build(&CacheKey::of(req), |k| {
            let build_start = Instant::now();
            let built = build_entry_caught(k);
            calibrate_micros = u64::try_from(build_start.elapsed().as_micros()).unwrap_or(u64::MAX);
            registry.observe(HistogramId::CalibrateMicros, calibrate_micros);
            built
        });
        self.answer(
            req,
            entry,
            lookup,
            start,
            queue_wait_micros,
            calibrate_micros,
        )
    }

    /// Answers a request whose key already has a finished build in
    /// the cache (a prepared tester or a cached permanent error), or
    /// returns `None` and leaves the cache as it was. This is the
    /// shard's inline path: it never builds, never waits on a build
    /// in flight, and never queued, so it observes no queue wait. It
    /// counts as a cache hit and then ticks `serve_inline`, so
    /// `inline <= hits`.
    pub fn handle_cached(&self, req: &Request) -> Option<Result<Reply, String>> {
        let start = Instant::now();
        let entry = self.cache.get_ready(&CacheKey::of(req))?;
        let answer = self.answer(req, entry, Lookup::Hit, start, 0, 0);
        dut_obs::metrics::global().incr(Counter::ServeInline);
        Some(answer)
    }

    /// Everything after the cache lookup, shared by the worker and
    /// the inline path: the `requests`, hit/miss and coalesced
    /// counters, the trials, the reply with its service time in
    /// `request_micros` (and the reply's `micros`) and its trial time
    /// in `compute_micros`, a process-unique `rid`, the
    /// windowed-metrics tick, and the sampled `serve_trace` event with
    /// the phases the lookup already spent. `start` is when the
    /// request's service began, before its lookup.
    fn answer(
        &self,
        req: &Request,
        entry: BuildResult,
        lookup: Lookup,
        start: Instant,
        queue_wait_micros: u64,
        calibrate_micros: u64,
    ) -> Result<Reply, String> {
        let registry = dut_obs::metrics::global();
        let rid = self.next_rid.fetch_add(1, Ordering::Relaxed) + 1;
        registry.incr(Counter::ServeRequests);
        let cache_hit = lookup.is_hit();
        registry.incr(if cache_hit {
            Counter::ServeCacheHits
        } else {
            Counter::ServeCacheMisses
        });
        if lookup == Lookup::Joined {
            registry.incr(Counter::ServeCoalesced);
        }
        let entry = entry.map_err(|e| e.message)?;
        registry.incr(Counter::ServeBackendPerDraw);
        let compute_start = Instant::now();
        let (verdict, estimate) = run_trials(&entry, req);
        let compute_micros = u64::try_from(compute_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        registry.observe(HistogramId::ComputeMicros, compute_micros);
        let reply = assemble(verdict, &estimate, cache_hit, start, rid);
        registry.observe(HistogramId::RequestMicros, reply.micros);
        // Tick the windowed-metrics ring; at most one snapshot per
        // epoch actually captures, so this is a relaxed load + compare
        // on the hot path.
        dut_obs::window::global().maybe_capture(registry, dut_obs::global().now_micros());
        if self.trace_sample > 0 && rid.is_multiple_of(self.trace_sample) {
            dut_obs::global().emit_with(|| {
                dut_obs::Event::new("serve_trace")
                    .with("rid", rid)
                    .with("queue_us", queue_wait_micros)
                    .with("calibrate_us", calibrate_micros)
                    .with("compute_us", compute_micros)
                    .with("total_us", reply.micros)
                    .with("cache", if cache_hit { "hit" } else { "miss" })
                    .with("verdict", verdict.to_string())
            });
        }
        dut_obs::global().emit_verbose_with(|| {
            dut_obs::Event::new("serve_request")
                .with("rid", rid)
                .with("n", req.n)
                .with("k", req.k)
                .with("q", req.q)
                .with("rule", crate::protocol::rule_wire_name(req.rule))
                .with("samples", req.family.name())
                .with("seed", req.seed)
                .with("trials", req.trials)
                .with("verdict", verdict.to_string())
                .with("cache", if cache_hit { "hit" } else { "miss" })
                .with("micros", reply.micros)
        });
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Family;

    fn request(seed: u64) -> Request {
        Request {
            n: 128,
            k: 8,
            q: 10,
            eps: 0.5,
            rule: Rule::Balanced,
            family: Family::Uniform,
            seed,
            trials: 4,
        }
    }

    #[test]
    fn served_replies_match_offline_bit_for_bit() {
        let engine = Engine::new(4);
        for seed in [1u64, 2, 3] {
            let req = request(seed);
            let served = engine.handle(&req).unwrap();
            let offline = offline_reply(&req).unwrap();
            assert_eq!(served.verdict, offline.verdict, "seed {seed}");
            assert_eq!(served.p_hat.to_bits(), offline.p_hat.to_bits());
            assert_eq!(served.wilson_lo.to_bits(), offline.wilson_lo.to_bits());
            assert_eq!(served.wilson_hi.to_bits(), offline.wilson_hi.to_bits());
        }
    }

    #[test]
    fn rids_are_unique_and_increasing() {
        let engine = Engine::new(4);
        let a = engine.handle(&request(1)).unwrap();
        let b = engine.handle(&request(2)).unwrap();
        assert!(a.rid > 0, "served replies carry a nonzero rid");
        assert_eq!(b.rid, a.rid + 1);
        assert_eq!(offline_reply(&request(1)).unwrap().rid, 0);
    }

    #[test]
    fn phase_histograms_move_on_handle() {
        let registry = dut_obs::metrics::global();
        let calibrate_before = registry.histogram(HistogramId::CalibrateMicros).count();
        let compute_before = registry.histogram(HistogramId::ComputeMicros).count();
        let engine = Engine::new(4);
        let mut req = request(77);
        req.n = 96; // distinct config → guaranteed cache miss
        engine.handle(&req).unwrap();
        engine.handle(&req).unwrap();
        // The registry is process-global and other tests run in
        // parallel, so assert growth, not exact counts: one miss →
        // at least one calibrate observation, two handles → at least
        // two computes.
        assert!(registry.histogram(HistogramId::CalibrateMicros).count() > calibrate_before);
        assert!(registry.histogram(HistogramId::ComputeMicros).count() >= compute_before + 2);
    }

    #[test]
    fn cache_hit_reported_on_second_request() {
        let engine = Engine::new(4);
        let first = engine.handle(&request(9)).unwrap();
        let second = engine.handle(&request(10)).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(engine.cached_testers(), 1);
    }

    #[test]
    fn hit_order_does_not_change_verdicts() {
        // Same configuration through two engines with opposite arrival
        // orders: verdicts must agree because calibration randomness
        // is key-derived, not request-derived.
        let a = Engine::new(4);
        let b = Engine::new(4);
        let r1 = request(100);
        let r2 = request(200);
        let a1 = a.handle(&r1).unwrap();
        let a2 = a.handle(&r2).unwrap();
        let b2 = b.handle(&r2).unwrap();
        let b1 = b.handle(&r1).unwrap();
        assert_eq!(a1.verdict, b1.verdict);
        assert_eq!(a2.verdict, b2.verdict);
        assert_eq!(a1.p_hat.to_bits(), b1.p_hat.to_bits());
        assert_eq!(a2.p_hat.to_bits(), b2.p_hat.to_bits());
    }

    #[test]
    fn far_inputs_reject_and_uniform_accepts() {
        let engine = Engine::new(4);
        let mut accept = request(7);
        accept.trials = 20;
        accept.q = 120;
        let mut reject = accept;
        reject.family = Family::TwoLevel;
        let ok = engine.handle(&accept).unwrap();
        let far = engine.handle(&reject).unwrap();
        assert!(ok.p_hat > 2.0 / 3.0, "uniform p_hat {}", ok.p_hat);
        assert!(far.p_hat < 1.0 / 3.0, "two-level p_hat {}", far.p_hat);
        assert!(ok.wilson_lo <= ok.p_hat && ok.p_hat <= ok.wilson_hi);
    }

    #[test]
    fn invalid_configuration_is_an_error() {
        let engine = Engine::new(4);
        let mut req = request(1);
        req.n = 0;
        assert!(engine.handle(&req).is_err());
    }

    #[test]
    fn calibration_seed_is_key_pure() {
        let key = CacheKey::of(&request(1));
        let same = CacheKey::of(&request(999));
        assert_eq!(key, same, "seed must not enter the key");
        assert_eq!(key.calibration_seed(), same.calibration_seed());
        let mut other = request(1);
        other.q = 11;
        assert_ne!(
            key.calibration_seed(),
            CacheKey::of(&other).calibration_seed()
        );
    }

    #[test]
    fn every_computed_request_counts_as_per_draw() {
        // The calibration engine still follows the cost tables, but
        // trials always draw through the alias kernel, so a key that
        // calibrates on the histogram engine ticks the per-draw counter.
        let registry = dut_obs::metrics::global();
        let before = registry.counter(Counter::ServeBackendPerDraw);
        let mut hist_req = request(5);
        hist_req.n = 64;
        hist_req.rule = Rule::And; // calibration-free build
        assert_eq!(CacheKey::of(&hist_req).backend(), SampleBackend::Histogram);
        Engine::new(4).handle(&hist_req).unwrap();
        assert!(registry.counter(Counter::ServeBackendPerDraw) > before);
    }

    #[test]
    fn calibration_seeds_are_pinned() {
        // Recorded when the engine code was still a stored key field:
        // deriving it from (n, q) must keep every calibration stream,
        // and so every served answer, unchanged.
        let herd = Request {
            n: 1024,
            k: 64,
            q: 48,
            eps: 0.5,
            rule: Rule::Balanced,
            family: Family::Uniform,
            seed: 5,
            trials: 1,
        };
        let small = Request {
            n: 64,
            k: 8,
            q: 8,
            seed: 7,
            ..herd
        };
        let crossover = Request {
            n: 10_000,
            k: 1,
            q: 10_000,
            eps: 0.1,
            rule: Rule::Centralized,
            family: Family::TwoLevel,
            seed: 1,
            trials: 50,
        };
        for (req, backend, seed) in [
            (herd, SampleBackend::PerDraw, 0x3f51_0152_e2d0_549e),
            (small, SampleBackend::Histogram, 0xccbc_df03_507f_a56a),
            (crossover, SampleBackend::Histogram, 0x5d8e_72d8_c486_ffee),
        ] {
            let key = CacheKey::of(&req);
            assert_eq!(key.backend(), backend, "{req:?}");
            assert_eq!(key.calibration_seed(), seed, "{req:?}");
        }
    }

    #[test]
    fn cache_key_round_trips_rules() {
        for rule in [
            Rule::And,
            Rule::TThreshold { t: 3 },
            Rule::Balanced,
            Rule::Centralized,
        ] {
            let mut req = request(1);
            req.rule = rule;
            req.k = 8;
            assert_eq!(CacheKey::of(&req).rule(), rule);
        }
    }
}
