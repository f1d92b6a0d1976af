//! The unified schedule/storage optimization framework of Thies, Vivien,
//! Sheldon & Amarasinghe (PLDI 2001).
//!
//! Occupancy vectors (§3.2) define storage reuse: transforming array `A`
//! under `v` stores iterations `i` and `i + k·v` in the same cell. This
//! crate implements the paper's three problems:
//!
//! 1. [`problems::ov_for_schedule_budgeted`] — the shortest occupancy
//!    vector valid for a *given* affine schedule (§4.5.1),
//! 2. [`problems::schedules_for_ov`] /
//!    [`problems::best_schedule_for_ov_budgeted`] — the affine schedules
//!    valid for *given* occupancy vectors (§4.5.2),
//! 3. [`problems::aov_budgeted`] — the shortest *Affine Occupancy
//!    Vector*, valid for every legal one-dimensional affine schedule.
//!    The paper states the condition with the affine form of Farkas'
//!    lemma (§4.5.3); the solver uses its generator form, one row in
//!    `v` per vertex, ray and line of ℛ (Theorem 1), and keeps
//!    [`aov_schedule::farkas`] as the paper's method and test oracle.
//!
//! Problems 1 and 3 solve each array on its own — a storage row involves
//! only its source array's vector and the objective is a sum over arrays
//! — with one ILP per sign orthant of that array's vector, in a single
//! sequential loop that visits orthants by a lower bound on their
//! objective and stops once none can beat the incumbent, so answers
//! and work are the same for any worker count.
//!
//! All three borrow one [`aov_schedule::Analysis`] — the dependences and
//! the legal-schedule polyhedron ℛ, computed once per program. Each
//! problem also has one `&Program` convenience form that builds the
//! analysis itself ([`problems::ov_for_schedule_with`],
//! [`problems::best_schedule_for_ov`], [`problems::aov_with`]).
//!
//! Each LP-based solver has an independent exact cross-check
//! ([`check`] + the `_search` variants in [`problems`]) that enumerates
//! integer candidate vectors by increasing objective and decides validity
//! per candidate. The [`uov`] module implements Strout et al.'s
//! schedule-independent Universal Occupancy Vector as the baseline the
//! paper compares against, and [`transform`]/[`codegen`] implement the
//! storage transformation (projection onto the hyperplane perpendicular
//! to `v`, with modulation) and the transformed pseudo-code of the
//! paper's Figures 2, 6, 9, 11 and 14.
//!
//! # Examples
//!
//! ```
//! use aov_ir::examples::example1;
//! use aov_core::problems;
//!
//! # fn main() -> Result<(), aov_core::CoreError> {
//! let program = example1();
//! let solution = problems::aov_with(&program, 1)?;
//! let v = solution.vector_for("A").unwrap();
//! assert_eq!(v.components(), [1, 2]); // the paper's Figure 5 AOV
//! # Ok(())
//! # }
//! ```

pub mod check;
pub mod codegen;
pub mod multi_ov;
mod objective;
mod ov;
pub mod problems;
pub mod storage;
pub mod tiling;
pub mod transform;
pub mod uov;

pub use objective::{evenness, objective_value, LENGTH_WEIGHT};
pub use ov::OccupancyVector;
#[cfg(test)]
pub(crate) use ov::OvSpace;

use aov_fault::AovError;
use aov_polyhedra::PolyhedraError;
use aov_schedule::scheduler::ScheduleError;

/// Errors from the schedule/storage solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Polyhedral machinery failed (an unbounded iteration domain).
    Polyhedra(PolyhedraError),
    /// No legal one-dimensional affine schedule exists, so occupancy
    /// vector problems over "all legal schedules" are vacuous.
    Unschedulable,
    /// No valid occupancy vector was found within the search bounds.
    NoVectorFound,
    /// The given schedule is not legal for the program.
    IllegalSchedule,
    /// The program violates the single-assignment structural invariants.
    InvalidProgram(String),
    /// The request is outside the implemented fragment (e.g. storage
    /// offsets that would be piecewise in the parameters).
    Unsupported(String),
    /// A runtime fault (budget trip, cancellation, worker panic,
    /// injected fault) interrupted the solve before a verdict.
    Fault(AovError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Polyhedra(e) => write!(f, "polyhedral failure: {e}"),
            CoreError::Unschedulable => {
                write!(f, "no one-dimensional affine schedule exists")
            }
            CoreError::NoVectorFound => {
                write!(f, "no valid occupancy vector within search bounds")
            }
            CoreError::IllegalSchedule => write!(f, "schedule violates dependences"),
            CoreError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
            CoreError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            CoreError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    /// Exposes the wrapped layer error so diagnostic bundles can walk
    /// the full `source()` chain (engine → core → fault → budget).
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Polyhedra(e) => Some(e),
            CoreError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

/// The differential oracles' corpus: the paper examples, then 300
/// generated programs (seeds `mix(42, i)`, default generator profile).
#[cfg(test)]
pub(crate) fn oracle_corpus() -> Vec<aov_ir::Program> {
    use aov_ir::examples::{example1, example2, example3, example4};
    let mut programs = vec![example1(), example2(), example3(), example4()];
    let cfg = aov_gen::GenConfig::default();
    programs
        .extend((0..300).map(|i| aov_gen::generate(aov_support::rng::mix(42, i), &cfg).program));
    programs
}

impl From<PolyhedraError> for CoreError {
    fn from(e: PolyhedraError) -> Self {
        CoreError::Polyhedra(e)
    }
}

impl From<AovError> for CoreError {
    fn from(e: AovError) -> Self {
        CoreError::Fault(e)
    }
}

impl From<ScheduleError> for CoreError {
    fn from(e: ScheduleError) -> Self {
        match e {
            ScheduleError::Infeasible => CoreError::Unschedulable,
            ScheduleError::Polyhedra(p) => CoreError::Polyhedra(p),
            ScheduleError::Fault(e) => CoreError::Fault(e),
        }
    }
}
