//! Hermetic runtime substrate for the `aov` workspace.
//!
//! The crates-io registry is not available in every environment this
//! repository builds in, so everything the workspace previously pulled
//! from external crates lives here instead, with no dependencies beyond
//! `std`:
//!
//! * [`rng`] — deterministic SplitMix64 / xoshiro256\*\* PRNG (replaces
//!   `rand` for seeded test-input generation),
//! * [`json`] — a minimal JSON value with a compact/pretty writer and
//!   a parser (replaces `serde`/`serde_json` for report dumps and
//!   read-back),
//! * [`bench`](mod@bench) — a wall-clock micro-benchmark harness with warmup and
//!   per-iteration statistics (replaces `criterion`),
//! * [`prop`] + [`props!`] — a seeded property-test runner (replaces
//!   `proptest`): failures report the case index and per-case seed so
//!   they reproduce exactly,
//! * [`context`] — run-scoped telemetry: each pipeline run (and stage)
//!   charges its own counters, allocation totals and trace spans, and
//!   folds them into its parent when it finishes,
//! * [`counters`] + [`static_counter!`] / [`static_max_counter!`] —
//!   named counters used by the solver stack (simplex pivots,
//!   branch-and-bound nodes, Fourier–Motzkin eliminations, …), charged
//!   to the installed [`context`] and read back by `aov-engine` reports,
//! * [`schema`] — a structural checker for versioned JSON artifacts
//!   (reports, profiles, diagnostic bundles) with path-annotated
//!   mismatch reports,
//! * [`digest`] — FNV-1a content digests that fingerprint programs and
//!   flame tables inside those artifacts,
//! * [`alloc`] — a counting `#[global_allocator]` wrapper with
//!   per-scope (per-span) attribution, the memory axis of the
//!   observability layer.

pub mod alloc;
pub mod bench;
pub mod context;
pub mod counters;
pub mod digest;
pub mod json;
pub mod prop;
pub mod rng;
pub mod schema;

pub use json::{Json, JsonParseError, ToJson};
pub use rng::Rng;
pub use schema::Schema;
