//! Bounded single-flight LRU of prepared testers.
//!
//! Preparing a tester is the expensive part of a request (the
//! balanced rule runs an 800-trial Monte-Carlo calibration; the AND
//! and threshold rules invert a Poisson tail in O(λ₀), bounded by
//! [`MAX_LAMBDA`](crate::protocol::MAX_LAMBDA)), so the
//! server keeps prepared testers resident, keyed by
//! [`CacheKey`]. Two properties matter under
//! concurrency:
//!
//! * **Single flight.** When N workers race on the same absent key,
//!   exactly one builds; the rest block on the entry's `OnceLock`
//!   and reuse the result. The map lock is *not* held during the
//!   build, so a slow calibration never stalls requests for other
//!   keys.
//! * **Exact accounting.** Every lookup is classified at the moment
//!   the map is consulted under the lock, so `hits + misses == calls`
//!   under any interleaving. A lookup that finds an entry still being
//!   built is a [`Lookup::Joined`]: it counts as a hit (the work is
//!   shared, not repeated) and is reported apart so the server can
//!   count how often single flight saved a build.
//!
//! This is the only place the server shares a prepared tester between
//! requests: each request takes one lookup. A worker takes it through
//! [`ShardedTesterCache::get_or_build`]; a shard answering a small
//! hit inline takes it through [`ShardedTesterCache::get_ready`],
//! which never inserts, builds or waits.
//!
//! Eviction is least-recently-used by a monotonic touch tick. Evicted
//! entries stay alive for whoever still holds their `Arc`; builds
//! whose slot was evicted mid-flight simply complete unobserved.

use crate::engine::{BuildError, CacheKey, PreparedEntry};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The build outcome stored per entry. *Permanent* errors are cached
/// too: they are deterministic functions of the key, and
/// re-validating a bad configuration on every request would let a
/// hostile client bypass the cache entirely. *Transient* errors (a
/// panicked build, a shed-era failure) are evicted right after they
/// are served, so the next request for the key retries the build —
/// one bad calibration must not pin a configuration to failure for
/// the key's whole cache lifetime.
pub(crate) type BuildResult = Result<Arc<PreparedEntry>, BuildError>;

/// How one lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// No entry: this lookup ran the build.
    Miss,
    /// The entry was resident with its build finished.
    Hit,
    /// The entry was resident but still being built by an earlier
    /// lookup; this one waited for that build instead of repeating it.
    Joined,
}

impl Lookup {
    /// Whether the lookup reused an entry (a hit or a join).
    #[must_use]
    pub fn is_hit(self) -> bool {
        self != Lookup::Miss
    }
}

#[derive(Debug, Default)]
struct EntryCell {
    once: OnceLock<BuildResult>,
}

#[derive(Debug)]
struct Slot {
    cell: Arc<EntryCell>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    // dut-lint: guarded_by(state)
    map: BTreeMap<CacheKey, Slot>,
    // dut-lint: guarded_by(state)
    tick: u64,
}

/// A bounded single-flight LRU keyed by tester configuration.
#[derive(Debug)]
pub struct TesterCache {
    cap: usize,
    state: Mutex<CacheState>,
}

impl TesterCache {
    /// A cache holding at most `cap` entries (clamped to at least 1).
    #[must_use]
    pub fn new(cap: usize) -> TesterCache {
        TesterCache {
            cap: cap.max(1),
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Entries currently resident (including in-flight builds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves `key`, building via `build` on a miss. Returns the
    /// build result and how the lookup was answered. The build runs
    /// without the map lock held; concurrent callers for the same key
    /// block on the entry cell instead of re-building.
    pub fn get_or_build<F>(&self, key: &CacheKey, build: F) -> (BuildResult, Lookup)
    where
        F: FnOnce(&CacheKey) -> BuildResult,
    {
        let (cell, lookup) = {
            let mut state = self.state.lock();
            state.tick += 1;
            let tick = state.tick;
            if let Some(slot) = state.map.get_mut(key) {
                slot.last_used = tick;
                let lookup = if slot.cell.once.get().is_some() {
                    Lookup::Hit
                } else {
                    Lookup::Joined
                };
                (Arc::clone(&slot.cell), lookup)
            } else {
                if state.map.len() >= self.cap {
                    // Evict the least-recently-touched key.
                    let coldest = state
                        .map
                        .iter()
                        .min_by_key(|(_, slot)| slot.last_used)
                        .map(|(k, _)| *k);
                    if let Some(coldest) = coldest {
                        state.map.remove(&coldest);
                    }
                }
                let cell = Arc::new(EntryCell::default());
                state.map.insert(
                    *key,
                    Slot {
                        cell: Arc::clone(&cell),
                        last_used: tick,
                    },
                );
                (cell, Lookup::Miss)
            }
        };
        let result = cell.once.get_or_init(|| build(key)).clone();
        if matches!(&result, Err(e) if e.transient) {
            // Poison recovery: drop the slot so the next lookup
            // rebuilds, but only if it still holds *this* cell — a
            // concurrent eviction + re-insert may already have a
            // fresh build in flight that must not be torn down. The
            // re-check and the removal happen under one lock
            // acquisition.
            let mut state = self.state.lock();
            if let Some(slot) = state.map.get(key) {
                if Arc::ptr_eq(&slot.cell, &cell) {
                    state.map.remove(key);
                }
            }
        }
        (result, lookup)
    }

    /// The finished build for `key`, if it is resident: a prepared
    /// entry or a cached permanent error. One lock and one LRU touch.
    /// An absent key, a build still in flight and a transient error
    /// (about to be evicted for a retry) all return `None` and leave
    /// the map as it was. A `Some` counts as a [`Lookup::Hit`].
    pub fn get_ready(&self, key: &CacheKey) -> Option<BuildResult> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let slot = state.map.get_mut(key)?;
        let result = slot.cell.once.get()?;
        if matches!(result, Err(e) if e.transient) {
            return None;
        }
        state.tick += 1;
        slot.last_used = state.tick;
        Some(result.clone())
    }
}

/// N independent single-flight LRU shards behind one facade.
///
/// The single `Mutex<CacheState>` in [`TesterCache`] serializes every
/// lookup in the process; at request-level scheduling rates that lock
/// becomes the hottest line in the server. Sharding by `CacheKey` hash
/// splits the key space across `shards` independent caches, so lookups
/// for unrelated testers never contend. Routing uses
/// [`CacheKey::fields_hash`](crate::engine::CacheKey::fields_hash):
/// a pure split-mix chain over every key field, so it is stable across
/// runs (deterministic routing) and well mixed (balanced shards).
///
/// Each shard keeps the full single-flight and exact hit/miss
/// accounting contract of [`TesterCache`]; the facade adds nothing but
/// routing, so `hits + misses == calls` still holds globally.
#[derive(Debug)]
pub struct ShardedTesterCache {
    shards: Vec<TesterCache>,
}

impl ShardedTesterCache {
    /// A cache of `shards` independent LRUs (clamped to at least 1)
    /// holding at most `cap` entries in total: each shard gets
    /// `ceil(cap / shards)` slots so the aggregate bound is respected
    /// up to rounding and no shard is starved to zero.
    #[must_use]
    pub fn new(cap: usize, shards: usize) -> ShardedTesterCache {
        let shards = shards.max(1);
        let per_shard = cap.max(1).div_ceil(shards);
        ShardedTesterCache {
            shards: (0..shards).map(|_| TesterCache::new(per_shard)).collect(),
        }
    }

    /// How many shards the key space is split across.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Entries resident across every shard (including in-flight
    /// builds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(TesterCache::len).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard responsible for `key`.
    fn shard(&self, key: &CacheKey) -> &TesterCache {
        let route = key.fields_hash() % self.shards.len() as u64;
        #[allow(
            clippy::cast_possible_truncation,
            reason = "route is below shards.len(), so it fits a usize"
        )]
        &self.shards[route as usize]
    }

    /// Resolves `key` on its shard; see [`TesterCache::get_or_build`].
    pub fn get_or_build<F>(&self, key: &CacheKey, build: F) -> (BuildResult, Lookup)
    where
        F: FnOnce(&CacheKey) -> BuildResult,
    {
        self.shard(key).get_or_build(key, build)
    }

    /// Peeks `key` on its shard; see [`TesterCache::get_ready`].
    pub fn get_ready(&self, key: &CacheKey) -> Option<BuildResult> {
        self.shard(key).get_ready(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_entry;
    use crate::protocol::{Family, Request};
    use dut_core::Rule;

    fn key(n: usize, q: usize) -> CacheKey {
        CacheKey::of(&Request {
            n,
            k: 4,
            q,
            eps: 0.5,
            rule: Rule::Balanced,
            family: Family::Uniform,
            seed: 0,
            trials: 1,
        })
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = TesterCache::new(4);
        let (first, hit1) = cache.get_or_build(&key(64, 4), build_entry);
        let (second, hit2) = cache.get_or_build(&key(64, 4), build_entry);
        assert!(first.is_ok() && second.is_ok());
        assert_eq!(hit1, Lookup::Miss);
        assert_eq!(hit2, Lookup::Hit, "the build had finished");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn herd_on_one_key_builds_once() {
        let cache = TesterCache::new(4);
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let threads = 8;
        let mut outcomes = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let (result, hit) = cache.get_or_build(&key(64, 8), |k| {
                            builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            build_entry(k)
                        });
                        (result.is_ok(), hit.is_hit())
                    })
                })
                .collect();
            for handle in handles {
                outcomes.push(handle.join().expect("no panic"));
            }
        });
        assert_eq!(builds.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(outcomes.iter().all(|&(ok, _)| ok));
        let misses = outcomes.iter().filter(|&&(_, hit)| !hit).count();
        assert_eq!(misses, 1, "hits + misses == calls: {outcomes:?}");
    }

    #[test]
    fn lookup_during_a_build_joins_it() {
        let cache = TesterCache::new(4);
        let k = key(64, 6);
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (cache, k, builds) = (&cache, &k, &builds);
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                cache.get_or_build(k, |kk| {
                    builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    started_tx.send(()).expect("test is listening");
                    release_rx.recv().expect("test releases the build");
                    build_entry(kk)
                })
            });
            started_rx.recv().expect("first build started");
            let second = scope.spawn(|| {
                cache.get_or_build(k, |kk| {
                    builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    build_entry(kk)
                })
            });
            // Every lookup ticks the clock under the map lock, so tick 2
            // means the second lookup has classified itself while the
            // first build is still held open.
            while cache.state.lock().tick < 2 {
                std::thread::yield_now();
            }
            release_tx.send(()).expect("first build is waiting");
            let (first_built, first_lookup) = first.join().expect("no panic");
            let (second_built, second_lookup) = second.join().expect("no panic");
            assert!(first_built.is_ok() && second_built.is_ok());
            assert_eq!(first_lookup, Lookup::Miss);
            assert_eq!(second_lookup, Lookup::Joined);
            assert!(second_lookup.is_hit(), "a join counts as a hit");
        });
        assert_eq!(builds.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn get_ready_serves_finished_builds_and_never_inserts() {
        let cache = TesterCache::new(4);
        let good = key(64, 1);
        let bad = key(0, 1);
        assert!(cache.get_ready(&good).is_none());
        assert!(cache.is_empty(), "a peek at an absent key inserts nothing");
        let _ = cache.get_or_build(&good, build_entry);
        let _ = cache.get_or_build(&bad, build_entry);
        assert!(matches!(cache.get_ready(&good), Some(Ok(_))));
        assert!(
            matches!(cache.get_ready(&bad), Some(Err(e)) if !e.transient),
            "a cached permanent error is a finished build"
        );
        // A transient error still resident (its evicting lookup has not
        // taken the lock yet) is about to be retried, not served.
        let flaky = key(64, 2);
        let cell = Arc::new(EntryCell::default());
        let _ = cell.once.set(Err(BuildError::transient("fell over")));
        cache
            .state
            .lock()
            .map
            .insert(flaky, Slot { cell, last_used: 0 });
        assert!(cache.get_ready(&flaky).is_none());
    }

    #[test]
    fn get_ready_skips_a_build_in_flight() {
        let cache = TesterCache::new(4);
        let k = key(64, 7);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (cache, k) = (&cache, &k);
        std::thread::scope(|scope| {
            let build = scope.spawn(move || {
                cache.get_or_build(k, |kk| {
                    started_tx.send(()).expect("test is listening");
                    release_rx.recv().expect("test releases the build");
                    build_entry(kk)
                })
            });
            started_rx.recv().expect("build started");
            assert!(cache.get_ready(k).is_none(), "no waiting on a build");
            release_tx.send(()).expect("build is waiting");
            let (built, lookup) = build.join().expect("no panic");
            assert!(built.is_ok());
            assert_eq!(lookup, Lookup::Miss);
        });
        assert!(cache.get_ready(k).is_some());
    }

    #[test]
    fn get_ready_touches_the_lru() {
        let cache = TesterCache::new(2);
        let (a, b, c) = (key(64, 1), key(64, 2), key(64, 3));
        let _ = cache.get_or_build(&a, build_entry);
        let _ = cache.get_or_build(&b, build_entry);
        assert!(cache.get_ready(&a).is_some());
        let _ = cache.get_or_build(&c, build_entry);
        assert!(cache.get_ready(&b).is_none(), "b was the coldest");
        assert!(cache.get_ready(&a).is_some(), "the peek kept a warm");
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = TesterCache::new(2);
        let a = key(64, 1);
        let b = key(64, 2);
        let c = key(64, 3);
        let _ = cache.get_or_build(&a, build_entry);
        let _ = cache.get_or_build(&b, build_entry);
        // Touch `a` so `b` is coldest, then insert `c`.
        let (_, hit_a) = cache.get_or_build(&a, build_entry);
        assert!(hit_a.is_hit());
        let _ = cache.get_or_build(&c, build_entry);
        assert_eq!(cache.len(), 2);
        let (_, hit_b) = cache.get_or_build(&b, build_entry);
        assert!(!hit_b.is_hit(), "b was evicted");
        let (_, hit_c) = cache.get_or_build(&c, build_entry);
        // `b`'s reinsertion evicted someone; `a` was colder than `c`.
        assert!(hit_c.is_hit(), "c stayed resident");
    }

    #[test]
    fn errors_are_cached() {
        let cache = TesterCache::new(2);
        let bad = key(0, 1); // n = 0 fails the builder
        let (first, hit1) = cache.get_or_build(&bad, build_entry);
        let (second, hit2) = cache.get_or_build(&bad, build_entry);
        assert!(first.is_err() && second.is_err());
        assert!(!hit1.is_hit());
        assert!(hit2.is_hit(), "the cached error serves the second call");
    }

    #[test]
    fn transient_errors_are_retried() {
        use crate::engine::BuildError;
        let cache = TesterCache::new(2);
        let k = key(64, 9);
        let builds = std::sync::atomic::AtomicUsize::new(0);
        // First build fails transiently (as a panicked calibration
        // would); the error must be served but not pinned.
        let (first, hit1) = cache.get_or_build(&k, |_| {
            builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Err(BuildError::transient("calibration fell over"))
        });
        assert!(matches!(&first, Err(e) if e.transient));
        assert!(!hit1.is_hit());
        assert_eq!(cache.len(), 0, "transient failure was evicted");
        // Second lookup is a fresh miss and the real build succeeds.
        let (second, hit2) = cache.get_or_build(&k, |kk| {
            builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            build_entry(kk)
        });
        assert!(second.is_ok());
        assert!(!hit2.is_hit(), "recovery is a miss, not a poisoned hit");
        assert_eq!(builds.load(std::sync::atomic::Ordering::Relaxed), 2);
        // And the recovered entry is now resident.
        let (third, hit3) = cache.get_or_build(&k, build_entry);
        assert!(third.is_ok());
        assert!(hit3.is_hit());
    }

    #[test]
    fn permanent_errors_stay_resident() {
        let cache = TesterCache::new(2);
        let bad = key(0, 1);
        let _ = cache.get_or_build(&bad, build_entry);
        assert_eq!(
            cache.len(),
            1,
            "permanent errors are kept to stop re-validation storms"
        );
    }

    #[test]
    fn cap_is_clamped() {
        let cache = TesterCache::new(0);
        let (built, _) = cache.get_or_build(&key(64, 5), build_entry);
        assert!(built.is_ok());
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn sharded_routing_is_stable_and_accounting_stays_exact() {
        let cache = ShardedTesterCache::new(16, 4);
        assert_eq!(cache.shard_count(), 4);
        assert!(cache.is_empty());
        let keys: Vec<CacheKey> = (1..=8).map(|q| key(64, q)).collect();
        for k in &keys {
            let (built, hit) = cache.get_or_build(k, build_entry);
            assert!(built.is_ok());
            assert!(!hit.is_hit(), "first lookup is a miss");
        }
        assert_eq!(cache.len(), keys.len());
        for k in &keys {
            let (built, hit) = cache.get_or_build(k, build_entry);
            assert!(built.is_ok());
            assert!(hit.is_hit(), "same key routes to the same shard");
        }
    }

    #[test]
    fn sharded_herd_across_keys_builds_each_once() {
        // Capacity comfortably above the key count on every possible
        // routing, so no shard evicts mid-herd and single flight is
        // the only thing under test.
        let cache = ShardedTesterCache::new(16, 4);
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let keys: Vec<CacheKey> = (1..=4).map(|q| key(64, q)).collect();
        let mut misses = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|i| {
                    let keys = &keys;
                    let cache = &cache;
                    let builds = &builds;
                    scope.spawn(move || {
                        let (result, hit) = cache.get_or_build(&keys[i % keys.len()], |k| {
                            builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            build_entry(k)
                        });
                        (result.is_ok(), hit.is_hit())
                    })
                })
                .collect();
            for handle in handles {
                let (ok, hit) = handle.join().expect("no panic");
                assert!(ok);
                if !hit {
                    misses += 1;
                }
            }
        });
        assert_eq!(
            builds.load(std::sync::atomic::Ordering::Relaxed),
            keys.len()
        );
        assert_eq!(misses, keys.len(), "hits + misses == calls per shard");
    }

    #[test]
    fn sharded_cap_divides_across_shards() {
        // cap 2 over 2 shards -> 1 slot per shard; shard clamp keeps
        // at least one slot even for cap 0.
        let tiny = ShardedTesterCache::new(0, 3);
        let (built, _) = tiny.get_or_build(&key(64, 5), build_entry);
        assert!(built.is_ok());
        assert_eq!(tiny.len(), 1);
    }
}
