//! Instrumented end-to-end pipeline engine.
//!
//! Runs a program through the paper's tool chain (dependences →
//! legal-schedule polyhedron → Problems 1/2/3 → storage transform →
//! codegen → dynamic equivalence) as named, timed, counter-instrumented
//! stages whose reports do not depend on the worker count. The `aov`
//! binary exposes the same pipeline on the command
//! line and emits a JSON report.

pub mod diag;
pub mod pipeline;
pub mod profile;

pub use pipeline::{
    report_schema, run_example, BudgetSpec, EngineError, Health, Pipeline, Report, RunTiming,
    StageOutcome, StageReport, Stat,
};
