//! `dut serve` — a long-lived concurrent uniformity-testing service.
//!
//! Everything the workspace builds elsewhere runs one experiment and
//! exits; this crate keeps the calibrated testers resident. A
//! multi-threaded TCP server accepts newline-delimited JSON requests
//! (`{"n":..,"k":..,"q":..,"eps":..,"rule":..,"seed":..}`), resolves
//! each against a bounded LRU of prepared testers (preparing fixes a
//! rule's thresholds once: the balanced rule's Monte-Carlo
//! calibration, or the AND and threshold rules' Poisson tail
//! inversion, so both are paid once per configuration), runs the
//! request's trials through the alias sampler's fused collision
//! kernel, and replies with the verdict, the
//! acceptance estimate with its Wilson interval, whether the tester
//! was cached, and the service time.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** A served verdict must be bit-identical to the
//!    offline run of the same `(n, k, q, ε, rule, input, seed)`.
//!    Calibration randomness is therefore derived from the cache key —
//!    never from the request seed or a global RNG — so a cache hit, a
//!    cache miss, and a fresh offline evaluation all prepare the
//!    identical tester. [`engine::offline_reply`] is that reference
//!    path; [`client::check_served`], the stress tests and
//!    `dut loadgen --smoke` hold the server to it.
//! 2. **Bounded overload.** The dispatch queue holds *requests*, not
//!    connections, and is bounded; beyond the bound the server sheds
//!    the request with an explicit `overloaded` reply (the connection
//!    stays parked) instead of queueing without limit or silently
//!    dropping connections. Per-tenant token buckets shed over-quota
//!    tenants before the queue, and a higher-priority arrival may
//!    evict a queued lower-priority request at the cap. The tenant
//!    table holds one row per configured quota (tenant names must be
//!    distinct) and never grows on client input, so the stats reply
//!    lists only configured tenants.
//! 3. **Observability.** Requests, cache hits/misses (and the hits
//!    that joined a build in flight), shed requests (global and per
//!    tenant), parked connections, queue depth, live workers, and
//!    per-request phase timings all land in the [`dut_obs`] registry
//!    and are surfaced by `{"cmd":"stats"}`, `dut top`, and
//!    `dut report`.
//!
//! The serving path is request-multiplexed: shard event loops park
//! persistent connections on nonblocking sockets and dispatch framed
//! request lines to the worker pool; shard 0 also accepts, from the
//! listener in its own poll set. The pool starts with one worker and
//! starts another only when a request is queued while no idle worker
//! is left to take it, up to the configured cap, so a started server
//! runs its shards and one worker. A worker answers one request at a
//! time; requests for one configuration share its prepared tester
//! through the single-flight tester cache. An idle shard blocks in
//! `poll(2)` until a socket, a timer, or a cross-thread wake needs
//! it.
//! The crate is std-only on the network path: `std::net` sockets and
//! `std::thread` shards/workers, no async runtime. The one `poll(2)`
//! binding lives in a private module, the only place `unsafe` is
//! allowed.

#![deny(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod engine;
pub mod loadgen;
mod poll;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod top;
pub mod trace;

pub use chaos::{ChaosConfig, ChaosReport};
pub use engine::Engine;
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{Command, Reply, Request};
pub use server::{ServeConfig, ServerHandle, TenantQuota};
pub use stats::Stats;
pub use trace::{Trace, TraceConfig};
