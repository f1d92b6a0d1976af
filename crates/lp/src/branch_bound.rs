//! Depth-first branch-and-bound over the exact simplex for integer
//! variables.

use crate::model::{Cmp, LpOutcome, Model, Solution};
use aov_fault::{AovError, Budget, BudgetExceeded, Resource};
use aov_linalg::AffineExpr;
use aov_numeric::Rational;

/// Backstop on explored nodes under any budget; the paper's problems
/// need a handful. Exceeding it is a node-budget error (site `lp.ilp`):
/// an unfinished search proves neither an incumbent optimal nor the
/// problem infeasible.
const NODE_LIMIT: usize = 100_000;

pub(crate) fn solve(model: &Model, budget: &Budget) -> Result<LpOutcome, AovError> {
    solve_within(model, budget, NODE_LIMIT)
}

fn solve_within(model: &Model, budget: &Budget, node_limit: usize) -> Result<LpOutcome, AovError> {
    let marks = model.integer_marks().to_vec();
    if !marks.iter().any(|&b| b) {
        return model.solve_lp_budgeted(budget);
    }
    let _span = aov_trace::span!("lp.ilp", vars = model.num_vars());
    let mut best: Option<Solution> = None;
    let mut nodes = 0usize;
    let mut stack = vec![model.clone()];
    while let Some(node) = stack.pop() {
        nodes += 1;
        budget.tick_node("lp.ilp")?;
        aov_fault::chaos::tick("lp.ilp.node")?;
        aov_support::static_counter!("lp.bb.nodes").add(1);
        if nodes > node_limit {
            return Err(BudgetExceeded {
                resource: Resource::Nodes,
                limit: node_limit as u64,
                site: "lp.ilp",
            }
            .into());
        }
        match node.solve_lp_budgeted(budget)? {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                // An unbounded relaxation at the root means the ILP is
                // unbounded or infeasible; report unbounded (documented).
                if nodes == 1 {
                    return Ok(LpOutcome::Unbounded);
                }
                continue;
            }
            LpOutcome::Optimal(sol) => {
                if let Some(b) = &best {
                    if sol.objective >= b.objective {
                        continue; // bound: cannot improve
                    }
                }
                // Find a fractional integer variable.
                let frac = marks
                    .iter()
                    .enumerate()
                    .find(|(i, &m)| m && !sol.values.as_slice()[*i].is_integer());
                match frac {
                    None => {
                        let better = best.as_ref().is_none_or(|b| sol.objective < b.objective);
                        if better {
                            best = Some(sol);
                        }
                    }
                    Some((i, _)) => {
                        let v = &sol.values.as_slice()[i];
                        let floor = Rational::from(v.floor());
                        let ceil = Rational::from(v.ceil());
                        let n = node.num_vars();
                        // x_i <= floor
                        let mut lo = node.clone();
                        lo.constrain(
                            &AffineExpr::var(n, i) - &AffineExpr::constant(n, floor),
                            Cmp::Le,
                        );
                        // x_i >= ceil, reusing the parent (pushed last,
                        // so the DFS order is unchanged)
                        let mut hi = node;
                        hi.constrain(
                            &AffineExpr::var(n, i) - &AffineExpr::constant(n, ceil),
                            Cmp::Ge,
                        );
                        stack.push(lo);
                        stack.push(hi);
                    }
                }
            }
        }
    }
    Ok(best.map_or(LpOutcome::Infeasible, LpOutcome::Optimal))
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LpOutcome, Model};
    use aov_fault::{AovError, Budget, BudgetExceeded, Resource};
    use aov_linalg::AffineExpr;
    use aov_numeric::Rational;

    #[test]
    fn knapsack_style_ilp() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6, x,y >= 0 integer.
        // ILP optimum is 20 at (4, 0): 6*4 = 24 <= 24 and 4 <= 6.
        let mut m = Model::new();
        let x = m.add_nonneg_var("x");
        let y = m.add_nonneg_var("y");
        m.set_integer(x);
        m.set_integer(y);
        m.constrain(AffineExpr::from_i64(&[6, 4], -24), Cmp::Le);
        m.constrain(AffineExpr::from_i64(&[1, 2], -6), Cmp::Le);
        m.minimize(AffineExpr::from_i64(&[-5, -4], 0));
        let sol = m.solve_ilp().optimal().expect("feasible ILP");
        assert_eq!(sol.objective, Rational::from(-20));
        assert_eq!(sol.value(x), &Rational::from(4));
        assert_eq!(sol.value(y), &Rational::from(0));
    }

    #[test]
    fn integrality_gap_detected() {
        // 2x == 1 has an LP solution but no integer one.
        let mut m = Model::new();
        let x = m.add_nonneg_var("x");
        m.set_integer(x);
        m.constrain(AffineExpr::from_i64(&[2], -1), Cmp::Eq);
        assert_eq!(m.solve_ilp(), LpOutcome::Infeasible);
    }

    #[test]
    fn already_integral_relaxation() {
        let mut m = Model::new();
        let x = m.add_nonneg_var("x");
        m.set_integer(x);
        m.constrain(AffineExpr::from_i64(&[1], -3), Cmp::Ge);
        m.minimize(AffineExpr::from_i64(&[1], 0));
        let sol = m.solve_ilp().optimal().unwrap();
        assert_eq!(sol.value(x), &Rational::from(3));
    }

    #[test]
    fn negative_integers_with_free_vars() {
        // min |x| with x integer, x <= -3/2  ->  x = -2.
        let mut m = Model::new();
        let x = m.add_var("x");
        m.set_integer(x);
        m.constrain(
            &AffineExpr::var(1, 0) + &AffineExpr::constant(1, Rational::new(3, 2)),
            Cmp::Le,
        );
        let a = m.add_abs_bound(x, "abs");
        m.minimize(AffineExpr::var(2, a.index()));
        let sol = m.solve_ilp().optimal().unwrap();
        assert_eq!(sol.value(x), &Rational::from(-2));
        assert_eq!(sol.objective, Rational::from(2));
    }

    #[test]
    fn mixed_integer() {
        // x integer, y continuous: min x + y s.t. x + y >= 5/2, x >= y.
        // Continuous optimum x=y=5/4; with x integer, options x=2,y=1/2 (2.5)
        // or x=1,y=3/2 but x>=y fails; so optimum 5/2 at (2,1/2).
        let mut m = Model::new();
        let x = m.add_nonneg_var("x");
        let y = m.add_nonneg_var("y");
        m.set_integer(x);
        m.constrain(
            &AffineExpr::from_i64(&[1, 1], 0) - &AffineExpr::constant(2, Rational::new(5, 2)),
            Cmp::Ge,
        );
        m.constrain(AffineExpr::from_i64(&[1, -1], 0), Cmp::Ge);
        m.minimize(AffineExpr::from_i64(&[1, 1], 0));
        let sol = m.solve_ilp().optimal().unwrap();
        assert_eq!(sol.objective, Rational::new(5, 2));
        assert_eq!(sol.value(x), &Rational::from(2));
        assert_eq!(sol.value(y), &Rational::new(1, 2));
    }

    /// Below the nodes an ILP needs, the backstop is a node-budget
    /// error, never an unproven incumbent or an "infeasible" verdict.
    /// The knapsack's second node is integral, (2, 2) at −18, so a
    /// limit of 1 trips with no incumbent and every limit from 2 on
    /// trips holding one, until the search proves (4, 0) at −20.
    #[test]
    fn node_backstop_is_an_error() {
        let mut m = Model::new();
        let x = m.add_nonneg_var("x");
        let y = m.add_nonneg_var("y");
        m.set_integer(x);
        m.set_integer(y);
        m.constrain(AffineExpr::from_i64(&[6, 4], -24), Cmp::Le);
        m.constrain(AffineExpr::from_i64(&[1, 2], -6), Cmp::Le);
        m.minimize(AffineExpr::from_i64(&[-5, -4], 0));
        let optimum = m.solve_ilp();
        // The root relaxation is (3, 3/2); its `y >= 2` branch, searched
        // first, is integral.
        let mut branch = m.clone();
        branch.constrain(AffineExpr::from_i64(&[0, 1], -2), Cmp::Ge);
        let second = branch.solve_lp().optimal().expect("feasible branch");
        assert_eq!(second.values.as_slice(), [2.into(), 2.into()]);
        let budget = Budget::unlimited();
        let mut limit = 1;
        loop {
            match super::solve_within(&m, &budget, limit) {
                Ok(outcome) => break assert_eq!(outcome, optimum),
                Err(AovError::BudgetExceeded(trip)) => assert_eq!(
                    trip,
                    BudgetExceeded {
                        resource: Resource::Nodes,
                        limit: limit as u64,
                        site: "lp.ilp"
                    }
                ),
                Err(e) => panic!("unexpected fault {e}"),
            }
            limit += 1;
        }
        assert!(limit > 2, "the ILP branches: {limit} nodes");
    }

    #[test]
    fn unbounded_root_reported() {
        let mut m = Model::new();
        let x = m.add_var("x");
        m.set_integer(x);
        m.minimize(AffineExpr::from_i64(&[1], 0));
        assert_eq!(m.solve_ilp(), LpOutcome::Unbounded);
    }
}
