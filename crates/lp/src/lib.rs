//! Exact linear programming for the `aov` workspace.
//!
//! Thies et al. (PLDI 2001, §4.5) reduce all three schedule/storage
//! problems to linear programs and note they "can be efficiently solved
//! with standard techniques". This crate is that standard technique:
//!
//! * [`Model`] — a named-variable LP/ILP model builder,
//! * a two-phase primal simplex over exact rationals with Bland's rule
//!   (no cycling, no rounding),
//! * depth-first branch-and-bound for integer variables (occupancy
//!   vectors are integer vectors),
//! * `|x|` cost terms for the paper's Manhattan-length objective
//!   (`|x| = w + z` with `x = w − z`, §4.5.1), priced on the simplex's
//!   own split columns,
//! * a tie rule: among optimal points, the lexicographic minimum of a
//!   chosen variable order, found in the same tableau.
//!
//! # Examples
//!
//! ```
//! use aov_lp::{Model, Cmp, LpOutcome};
//! use aov_linalg::AffineExpr;
//!
//! let mut m = Model::new();
//! let x = m.add_var("x");
//! let y = m.add_var("y");
//! // x + y >= 2, x - y >= -1, minimize 2x + y
//! m.constrain(AffineExpr::from_i64(&[1, 1], -2), Cmp::Ge);
//! m.constrain(AffineExpr::from_i64(&[1, -1], 1), Cmp::Ge);
//! m.set_lower_bound(x, 0.into());
//! m.set_lower_bound(y, 0.into());
//! m.minimize(AffineExpr::from_i64(&[2, 1], 0));
//! let sol = match m.solve_lp() {
//!     LpOutcome::Optimal(sol) => sol,
//!     other => panic!("unexpected {other:?}"),
//! };
//! assert_eq!(sol.objective, aov_numeric::Rational::new(5, 2));
//! # let _ = (x, y);
//! ```

// Library code must surface failures as values (see `aov-fault`);
// `unwrap`/`expect` are reserved for tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod branch_bound;
pub mod memo;
mod model;
#[cfg(test)]
mod reference;
mod simplex;

pub use model::{Cmp, LpOutcome, Model, Solution, VarId};
