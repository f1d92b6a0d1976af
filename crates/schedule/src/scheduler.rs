//! A Feautrier-style one-dimensional LP scheduler.
//!
//! Searches the legal-schedule polyhedron ℛ for a "small" schedule: the
//! integer point minimizing a weighted Manhattan norm, `|x|` cost terms
//! of weight 100 on iteration coefficients, 10 on parameter
//! coefficients and 1 on constants. This favors maximally parallel
//! schedules like the paper's `Θ = j` for Example 1. The answer among
//! points of equal norm is their lexicographic minimum in
//! `ScheduleSpace` variable order (the convention of PIP and isl), so
//! it does not depend on the simplex's pivot rule: the ILP carries that
//! tie order ([`aov_lp::Model::set_tie_order`]). Problem 2's fallback
//! ILP is this function with extra rows and inherits the rule.

use crate::{Analysis, Schedule};
use aov_fault::{AovError, Budget};
use aov_ir::Program;
use aov_linalg::AffineExpr;
use aov_lp::{Cmp, Model, VarId};
use aov_polyhedra::{Constraint, PolyhedraError};

/// Outcome of scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No one-dimensional affine schedule satisfies the dependences
    /// (a multi-dimensional schedule would be required; see Feautrier,
    /// part II).
    Infeasible,
    /// Polyhedral machinery failed.
    Polyhedra(PolyhedraError),
    /// A runtime fault (budget trip, injected fault)
    /// interrupted the search before a verdict.
    Fault(AovError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Infeasible => {
                write!(f, "no one-dimensional affine schedule exists")
            }
            ScheduleError::Polyhedra(e) => write!(f, "polyhedral failure: {e}"),
            ScheduleError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<PolyhedraError> for ScheduleError {
    fn from(e: PolyhedraError) -> Self {
        ScheduleError::Polyhedra(e)
    }
}

impl From<AovError> for ScheduleError {
    fn from(e: AovError) -> Self {
        ScheduleError::Fault(e)
    }
}

/// Finds a legal schedule with small integer coefficients that also
/// satisfies the `extra` affine constraints over the schedule space.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] when no schedule satisfies the combined
/// constraints; [`ScheduleError::Polyhedra`] when the causality
/// constraints cannot be linearized.
pub fn find_schedule_with(p: &Program, extra: &[Constraint]) -> Result<Schedule, ScheduleError> {
    let extra: Vec<(AffineExpr, Cmp)> = extra
        .iter()
        .map(|c| {
            let cmp = if c.is_equality() { Cmp::Eq } else { Cmp::Ge };
            (c.expr().clone(), cmp)
        })
        .collect();
    find_schedule_with_budgeted(&Analysis::new(p)?, &extra, &Budget::unlimited())
}

/// Searches ℛ for a small schedule under a [`Budget`] checked at LP
/// pivot / ILP node granularity. The ILP holds the causality rows of
/// `a` (`>= 0`), then each `extra` row `expr cmp 0` in order (Problem 2
/// passes its storage rows here).
///
/// # Errors
///
/// [`ScheduleError::Fault`] when the budget trips or a fault is
/// injected; [`ScheduleError::Infeasible`] when no schedule satisfies
/// the combined constraints.
///
/// # Panics
///
/// Panics when an `extra` row's dimension disagrees with the schedule
/// space (caller invariant).
pub fn find_schedule_with_budgeted(
    a: &Analysis,
    extra: &[(AffineExpr, Cmp)],
    budget: &Budget,
) -> Result<Schedule, ScheduleError> {
    let (p, space) = (a.program(), a.space());
    aov_fault::chaos::tick("schedule.solve").map_err(ScheduleError::Fault)?;
    let mut m = Model::new();
    for name in space.vars().names() {
        let v = m.add_var(name.clone());
        m.set_integer(v);
    }
    for r in a.rows() {
        m.constrain(r.clone(), Cmp::Ge);
    }
    for (e, cmp) in extra {
        assert_eq!(e.dim(), space.dim(), "extra constraint dimension");
        m.constrain(e.clone(), *cmp);
    }
    // Objective: a weighted Manhattan norm, one `|x|` term per
    // coefficient — iteration coefficients weigh most, then parameter
    // coefficients, then constants; ties go to the lexicographically
    // smallest point in `ScheduleSpace` order.
    for s in p.stmt_ids() {
        for k in 0..p.statement(s).depth() {
            m.add_abs_cost(VarId::from_index(space.iter_coeff(s, k)), 100.into());
        }
        for j in 0..p.num_params() {
            m.add_abs_cost(VarId::from_index(space.param_coeff(s, j)), 10.into());
        }
        m.add_abs_cost(VarId::from_index(space.const_coeff(s)), 1.into());
    }
    m.set_tie_order(m.var_ids().collect());
    match m.solve_ilp_budgeted(budget)? {
        aov_lp::LpOutcome::Optimal(sol) => Ok(space.schedule_at(&sol.values)),
        aov_lp::LpOutcome::Infeasible => Err(ScheduleError::Infeasible),
        aov_lp::LpOutcome::Unbounded => {
            unreachable!("objective is a weighted norm over every variable")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleSpace;
    use aov_ir::examples::{example1, example2, example3, example4, prefix_sum, wavefront2d};
    use aov_ir::{Program, StmtId};

    fn find_schedule(p: &Program) -> Result<Schedule, ScheduleError> {
        find_schedule_with(p, &[])
    }

    fn is_legal(p: &Program, sched: &Schedule) -> bool {
        Analysis::new(p).unwrap().is_legal(sched)
    }

    #[test]
    fn example1_scheduler_finds_row_schedule() {
        let p = example1();
        let s = find_schedule(&p).unwrap();
        assert!(is_legal(&p, &s));
        // The minimal-coefficient legal schedule is Θ = j (+ const 0).
        let th = s.theta(StmtId(0));
        assert_eq!(th.coeff(0).to_i64(), Some(0));
        assert_eq!(th.coeff(1).to_i64(), Some(1));
    }

    #[test]
    fn example2_schedule_found_and_legal() {
        let p = example2();
        let s = find_schedule(&p).unwrap();
        assert!(is_legal(&p, &s));
    }

    #[test]
    fn example3_schedule_found_and_legal() {
        let p = example3();
        let s = find_schedule(&p).unwrap();
        assert!(is_legal(&p, &s));
    }

    #[test]
    fn example4_schedule_found_and_legal() {
        let p = example4();
        let s = find_schedule(&p).unwrap();
        assert!(is_legal(&p, &s));
    }

    #[test]
    fn auxiliary_programs_schedulable() {
        for p in [prefix_sum(), wavefront2d()] {
            let s = find_schedule(&p).unwrap();
            assert!(is_legal(&p, &s), "{}", p.name());
        }
    }

    #[test]
    fn extra_constraints_respected() {
        let p = example1();
        let space = ScheduleSpace::new(&p);
        // Force a_i = 1 via an extra equality.
        let dim = space.dim();
        let c = Constraint::eq0(
            &AffineExpr::var(dim, space.iter_coeff(StmtId(0), 0))
                - &AffineExpr::constant(dim, 1.into()),
        );
        let s = find_schedule_with(&p, &[c]).unwrap();
        assert!(is_legal(&p, &s));
        assert_eq!(s.theta(StmtId(0)).coeff(0).to_i64(), Some(1));
    }

    #[test]
    fn contradictory_extras_infeasible() {
        let p = example1();
        let space = ScheduleSpace::new(&p);
        let dim = space.dim();
        // a_j = 0 contradicts b - 1 >= 0 (paper constraint b >= 1).
        let c = Constraint::eq0(AffineExpr::var(dim, space.iter_coeff(StmtId(0), 1)));
        assert_eq!(
            find_schedule_with(&p, &[c]).unwrap_err(),
            ScheduleError::Infeasible
        );
    }
}
