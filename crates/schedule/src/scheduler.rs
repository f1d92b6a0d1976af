//! A Feautrier-style one-dimensional LP scheduler.
//!
//! Searches the legal-schedule polyhedron ℛ for a "small" schedule:
//! integer coefficients minimizing (lexicographically, via weights) the
//! total magnitude of iteration coefficients, then parameter
//! coefficients, then constants. This favors maximally parallel
//! schedules like the paper's `Θ = j` for Example 1.

use crate::{Analysis, Schedule};
use aov_fault::{AovError, Budget};
use aov_ir::Program;
use aov_linalg::AffineExpr;
use aov_lp::{Cmp, Model};
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
    // Objective: weighted Manhattan norms — iteration coefficients
    // dominate, then parameter coefficients, then constants.
    let mut abs_terms: Vec<(aov_lp::VarId, i64)> = Vec::new();
    for s in p.stmt_ids() {
        let st = p.statement(s);
        for k in 0..st.depth() {
            abs_terms.push((aov_lp::VarId::from_index(space.iter_coeff(s, k)), 100));
        }
        for j in 0..p.num_params() {
            abs_terms.push((aov_lp::VarId::from_index(space.param_coeff(s, j)), 10));
        }
        abs_terms.push((aov_lp::VarId::from_index(space.const_coeff(s)), 1));
    }
    let mut obj_terms: Vec<(usize, i64)> = Vec::new();
    for (var, weight) in abs_terms {
        let a = m.add_abs_bound(var, format!("abs_{}", var.index()));
        obj_terms.push((a.index(), weight));
    }
    let total = m.num_vars();
    let mut obj = AffineExpr::zero(total);
    for (idx, w) in obj_terms {
        obj = &obj + &AffineExpr::var(total, idx).scale(&w.into());
    }
    m.minimize(obj);
    match m.solve_ilp_budgeted(budget)? {
        aov_lp::LpOutcome::Optimal(sol) => {
            let point: aov_linalg::QVector = (0..space.dim())
                .map(|k| sol.values.as_slice()[k].clone())
                .collect();
            Ok(space.schedule_at(&point))
        }
        aov_lp::LpOutcome::Infeasible => Err(ScheduleError::Infeasible),
        aov_lp::LpOutcome::Unbounded => {
            unreachable!("objective is a nonnegative weighted norm")
        }
        // The node-limit backstop: no verdict, which for schedule
        // existence is indistinguishable from "none found".
        aov_lp::LpOutcome::LimitReached => Err(ScheduleError::Infeasible),
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
