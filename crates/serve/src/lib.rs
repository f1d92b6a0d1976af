//! Solver-as-a-service: the `aovd` daemon and its resilient client.
//!
//! This crate turns the batch pipeline into a long-lived service
//! without importing anything: a hand-rolled thread-pool TCP server
//! speaking newline-delimited `aov-serve/1` JSON frames. Five legs
//! carry the robustness story:
//!
//! 1. **Admission control** ([`server`]) — a bounded request queue and
//!    a pivot-denominated admission pool; excess load is shed with a
//!    structured `overloaded` error carrying `retry_after_ms`, and
//!    requests whose deadline expired while queued are dropped before
//!    any solver work is spent on them.
//! 2. **Worker supervision** ([`server`]) — every solve runs under
//!    `catch_unwind` under a work budget; a panicking or
//!    budget-tripped solve degrades to the pipeline's ladder semantics,
//!    writes an `aov-diag/1` bundle, and the supervisor restarts the
//!    poisoned worker so the daemon keeps serving.
//! 3. **Shared memo tier** ([`aov_lp::memo`]) — canonically-keyed LP
//!    solves are cached across requests in a sharded, LRU-bounded
//!    single-flight cache; responses report hit/miss/eviction counts.
//! 4. **Client resilience** ([`client`]) — retry with
//!    decorrelated-jitter exponential backoff that honors the server's
//!    `retry_after_ms` hint; solves are idempotent so retries are safe.
//! 5. **Chaos coverage** ([`protocol`], [`server`]) — `serve.accept`,
//!    `serve.request` and `serve.memo` fault probes; every injection
//!    surfaces as a clean structured error while the daemon keeps
//!    serving subsequent requests bit-identically.

pub mod client;
pub mod protocol;
pub mod server;
