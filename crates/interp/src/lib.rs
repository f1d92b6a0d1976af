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
//! * [`exec::Instances`] — a program lowered at one parameter point:
//!   domains, accesses and bodies as integer rows and postfix code, the
//!   instances enumerated over each domain's bounding box (found by a
//!   small Fourier–Motzkin projection, no LP) and every read resolved to
//!   the instance that writes its cell,
//! * [`exec::Instances::reference`] — per-instance reference values,
//!   evaluated on demand in dataflow order with no schedule (single
//!   assignment makes these the values of every legal schedule),
//! * [`exec::Instances::run`] — the two-phase (reads before writes, §4.3)
//!   time-stepped execution under a schedule, with flat stores: an
//!   original array over its written box, a transformed one over its
//!   image's box,
//! * [`validate::semantics_preserved`] — the equivalence oracle used by
//!   the test-suite to confirm/refute occupancy vectors dynamically.
//!
//! Lowered arithmetic is checked: an index, bound, time key or cell that
//! leaves `i64` is an [`InterpError::Overflow`], never a wrapped value.
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
#[cfg(test)]
mod oracle;
pub mod validate;

use std::fmt;

/// Why a program cannot be interpreted at a parameter point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// An index, bound, time key, cell or box size leaves `i64` (or
    /// `usize`): lowered arithmetic is checked and never wraps.
    Overflow(String),
    /// The named instance depends on its own value, so no execution
    /// order exists.
    Cycle(String),
    /// The program, schedule or transform is outside what the
    /// interpreter executes (an unbounded domain, a non-integer index, a
    /// cell written twice, a symbol of the wrong arity, a mismatched
    /// space).
    Unsupported(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Overflow(m) => write!(f, "integer overflow: {m}"),
            InterpError::Cycle(m) => {
                write!(f, "dataflow cycle through {m}: it depends on its own value")
            }
            InterpError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}
