//! # aov — unified schedule and storage optimization
//!
//! An implementation of *"A Unified Framework for Schedule and Storage
//! Optimization"* (Thies, Vivien, Sheldon, Amarasinghe; PLDI 2001).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`numeric`] — arbitrary-precision integers and exact rationals.
//! * [`linalg`] — vectors/matrices over rationals and lattice tools.
//! * [`polyhedra`] — convex polyhedra, generators, projection.
//! * [`lp`] — exact simplex and branch-and-bound ILP.
//! * [`ir`] — affine loop-nest programs and dependence analysis.
//! * [`schedule`] — one-dimensional affine scheduling (Feautrier-style).
//! * [`core`] — occupancy vectors: the paper's three problems, the UOV
//!   baseline, the storage transformation and code generation.
//! * [`interp`] — dynamic semantic validation of storage mappings.
//! * [`machine`] — a simulated multiprocessor reproducing the paper's
//!   speedup experiments.
//! * [`engine`] — the instrumented end-to-end pipeline (stages, solver
//!   counters, degradation ladder) behind the `aov` CLI.
//! * [`support`] — the zero-dependency runtime substrate (PRNG, JSON,
//!   bench harness, property-test runner, counter registry).
//! * [`trace`] — hierarchical tracing and solver profiling (spans,
//!   Chrome-trace export, flame tables, metrics snapshots).
//! * [`lang`] — the `.aov` textual frontend: lexer, parser, lowering to
//!   the IR with caret diagnostics, and a canonical pretty-printer.
//! * [`serve`] — solver-as-a-service: the `aovd` daemon (admission
//!   control, worker supervision, shared memo tier, chaos probes) and
//!   its backoff-retrying client.
//! * [`gen`] — the seeded program generator and shrinker behind
//!   `aov fuzz`.
//! * [`fuzz`] — the differential fuzz harness (`aov fuzz`): generated
//!   programs through the pipeline, reports schema-checked, healthy
//!   runs re-validated by an interpreter-based oracle.
//!
//! ## Quickstart
//!
//! ```
//! use aov::ir::examples::example1;
//! use aov::core::problems;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = example1();
//! let solution = problems::aov_with(&program, 1)?;
//! let v = &solution.vector_for("A").unwrap();
//! assert_eq!(v.components(), [1, 2]); // the paper's Figure 5 AOV
//! # Ok(())
//! # }
//! ```

pub mod fuzz;

pub use aov_core as core;
pub use aov_engine as engine;
pub use aov_gen as gen;
pub use aov_interp as interp;
pub use aov_ir as ir;
pub use aov_lang as lang;
pub use aov_linalg as linalg;
pub use aov_lp as lp;
pub use aov_machine as machine;
pub use aov_numeric as numeric;
pub use aov_polyhedra as polyhedra;
pub use aov_schedule as schedule;
pub use aov_serve as serve;
pub use aov_support as support;
pub use aov_trace as trace;
