//! One-dimensional affine scheduling for the `aov` workspace.
//!
//! Implements the schedule half of Thies et al. (PLDI 2001):
//!
//! * [`ScheduleSpace`] — the coordinate space `ℰ` of all scheduling
//!   parameters `Θ_S(i, N) = a_S·i + b_S·N + c_S` (§4.1),
//! * [`Schedule`] — a concrete point of `ℰ`, i.e. one affine schedule
//!   per statement,
//! * [`BilinearForm`] and [`linearize::eliminate_to_linear`] — the
//!   vertex-based linearization of §4.4.2–4.4.3 (Theorem 1): eliminate
//!   the iteration vector at parameterized domain vertices, then the
//!   structural parameters at the vertices/rays of the parameter domain,
//! * [`Analysis`] — everything the problems share for one program: the
//!   dependences, `ℰ`, the linearized causality constraints (Eq. 2 /
//!   Eq. 11) and the polyhedron `ℛ` of legal schedules, built once,
//! * [`legal`] — causality forms, legality of a concrete schedule and
//!   the unschedulability diagnostic,
//! * [`farkas`] — the affine form of Farkas' lemma (Theorem 2), the
//!   paper's form of Problem 3; `aov-core` solves Problem 3 over ℛ's
//!   generators and keeps this form as its test oracle,
//! * [`scheduler::find_schedule_with_budgeted`] — a Feautrier-style LP
//!   scheduler picking a shortest-coefficient legal schedule.
//!
//! # Examples
//!
//! ```
//! use aov_fault::Budget;
//! use aov_ir::examples::example1;
//! use aov_schedule::{scheduler, Analysis};
//!
//! let p = example1();
//! let a = Analysis::new(&p).expect("example1 linearizes");
//! let sched = scheduler::find_schedule_with_budgeted(&a, &[], &Budget::unlimited())
//!     .expect("example1 is schedulable");
//! assert!(a.is_legal(&sched));
//! ```

// Library code must surface failures as values (see `aov-fault`);
// `unwrap`/`expect` are reserved for tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod analysis;
mod bilinear;
pub mod farkas;
pub mod legal;
pub mod linearize;
pub mod scheduler;
mod space;

pub use analysis::{sign_patterns, Analysis, Orthant};
pub use bilinear::BilinearForm;
pub use space::{Schedule, ScheduleSpace};
