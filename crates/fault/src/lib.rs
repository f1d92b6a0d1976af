//! Fault-tolerance runtime for the `aov` workspace.
//!
//! The solver stack (exact-rational simplex, branch-and-bound ILP, the
//! per-orthant ILPs of Problems 1 and 3) can run for a long time on adversarial
//! inputs and used to abort the whole process on internal failures.
//! This crate provides the three primitives the rest of the workspace
//! builds its degradation ladder on:
//!
//! * [`error::AovError`] — the unified error taxonomy. Every
//!   recoverable solver-stack failure is one of a small set of variants
//!   (`Infeasible`, `Unbounded`, `BudgetExceeded`, `WorkerPanic`,
//!   `Unschedulable`, `InvalidInput`, `Internal`), so the engine can
//!   classify any failure into its `StageOutcome` ladder without
//!   string-matching.
//! * [`budget::Budget`] — the work limits of one run (simplex pivots,
//!   ILP nodes, a wall-clock deadline) and the work ticked against
//!   them. Solvers call [`budget::Budget::tick_pivot`] /
//!   [`budget::Budget::tick_node`] at pivot/node granularity.
//! * [`chaos`] — a deterministic fault-injection layer. A single
//!   process-global spec (parsed from `AOV_CHAOS` or `--chaos`) arms
//!   exactly one fault — an injected solver error, a worker panic, or
//!   forced budget exhaustion — at the n-th visit of a named site, with
//!   `n` derived from the seeded `aov-support` PRNG when not given
//!   explicitly. Disarmed, every probe is a single relaxed atomic load,
//!   so fault-free runs stay bit-identical to un-instrumented ones.

pub mod budget;
pub mod chaos;
pub mod error;

pub use budget::{Budget, BudgetExceeded, Resource};
pub use error::AovError;
