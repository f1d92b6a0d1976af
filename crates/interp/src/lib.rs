//! Dynamic semantics for the `aov` workspace: execute programs over
//! concrete inputs, under affine schedules, with original or
//! occupancy-vector-transformed storage — and compare.
//!
//! This is the ground truth behind the static analyses: an occupancy
//! vector is valid for a schedule iff the transformed execution computes
//! the same value for *every statement instance* as the original
//! (paper §3.2: "transforming A under v everywhere in the program does
//! not change the semantics"). Uninterpreted function symbols are given
//! deterministic hash-mixing semantics so that any mis-ordered or
//! clobbered read almost surely changes an observable value.
//!
//! * [`funcs::apply`] — function-symbol semantics (`add`, `min`, `max`
//!   exact; everything else hash-mixed),
//! * [`exec::Instances`] — a program's statement instances at one
//!   parameter point, enumerated once; [`exec::Instances::run`] is the
//!   two-phase (reads before writes, §4.3) time-stepped execution under
//!   a schedule, and [`exec::run_scheduled`] one such run on its own,
//! * [`exec::reference_values`] — per-instance reference values
//!   (original storage, any legal schedule — single assignment makes the
//!   result schedule-independent),
//! * [`validate::semantics_preserved`] — the equivalence oracle used by
//!   the test-suite to confirm/refute occupancy vectors dynamically.
//!
//! # Examples
//!
//! ```
//! use aov_ir::examples::example1;
//! use aov_core::{transform::StorageTransform, OccupancyVector};
//! use aov_schedule::{Schedule};
//! use aov_linalg::AffineExpr;
//!
//! let p = example1();
//! let row = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
//! let a = p.array_by_name("A").unwrap();
//! let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![0, 1])).unwrap();
//! // Figure 3: v = (0,1) is valid for the row schedule — semantics hold.
//! assert!(aov_interp::validate::semantics_preserved(&p, &[6, 6], &row, &[t]));
//! ```

pub mod domain;
pub mod exec;
pub mod funcs;
pub mod store;
pub mod validate;
