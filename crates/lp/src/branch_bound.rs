//! Depth-first branch-and-bound over the exact simplex for integer
//! variables.
//!
//! Nodes and incumbents are ranked by `(objective, values of the tie
//! order)`, compared lexicographically ([`Model::set_tie_order`]): a
//! relaxation's answer is the lexicographic minimum of its region, so it
//! bounds every integer point below the node in that order too. A
//! branch on a variable with a `|x|` term tightens its bound rather than
//! adding a row, so once the bound fixes the sign, standardization
//! prices `|x|` as `±x` on one column; other branches add a row.

use crate::model::{Cmp, LpOutcome, Model, Solution, VarId};
use aov_fault::{AovError, Budget, BudgetExceeded, Resource};
use aov_linalg::AffineExpr;
use aov_numeric::Rational;
use std::cmp::Ordering;

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
    let ties = model.tie_order().to_vec();
    // `a` ranks before `b`: smaller objective, then smaller tie values.
    let precedes = |a: &Solution, b: &Solution| match a.objective.cmp(&b.objective) {
        Ordering::Equal => {
            let (x, y) = (&a.values, &b.values);
            (ties.iter().map(|v| &x[v.index()])).lt(ties.iter().map(|v| &y[v.index()]))
        }
        order => order == Ordering::Less,
    };
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
                if best.as_ref().is_some_and(|b| !precedes(&sol, b)) {
                    continue; // bound: cannot improve
                }
                // Find a fractional integer variable.
                let frac = marks
                    .iter()
                    .enumerate()
                    .find(|(i, &m)| m && !sol.values.as_slice()[*i].is_integer());
                match frac {
                    None => best = Some(sol),
                    Some((i, _)) => {
                        let v = &sol.values.as_slice()[i];
                        let floor = Rational::from(v.floor());
                        let ceil = Rational::from(v.ceil());
                        let n = node.num_vars();
                        // x_i <= floor, then x_i >= ceil reusing the
                        // parent (pushed last, so the DFS order is
                        // unchanged)
                        let mut lo = node.clone();
                        let mut hi = node;
                        if model.abs_costs()[i].is_zero() {
                            let var = AffineExpr::var(n, i);
                            lo.constrain(&var - &AffineExpr::constant(n, floor), Cmp::Le);
                            hi.constrain(&var - &AffineExpr::constant(n, ceil), Cmp::Ge);
                        } else {
                            lo.set_upper_bound(VarId::from_index(i), floor);
                            hi.set_lower_bound(VarId::from_index(i), ceil);
                        }
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
        m.add_abs_cost(x, 1.into());
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

    /// `min 2|x|` over integers with `x` fractional at the root: the
    /// branch tightens `x`'s bound, to `>= 0`, to `<= 0` or across zero,
    /// and the ILP answer is the integer point nearest zero.
    #[test]
    fn abs_cost_branches_on_the_variable() {
        let solve = |row: (i64, i64), lower: Option<i64>| {
            let mut m = Model::new();
            let x = m.add_var("x");
            m.set_integer(x);
            if let Some(l) = lower {
                m.set_lower_bound(x, l.into());
            }
            m.constrain(AffineExpr::from_i64(&[2], row.0), Cmp::Ge);
            m.constrain(AffineExpr::from_i64(&[-2], row.1), Cmp::Ge);
            m.add_abs_cost(x, 2.into());
            let sol = m.solve_ilp().optimal().expect("feasible");
            (sol.value(x).to_i64(), sol.objective.to_i64())
        };
        // 3/2 <= x <= 9/2: `x >= 2` fixes the sign (shifted).
        assert_eq!(solve((-3, 9), None), (Some(2), Some(4)));
        // -9/2 <= x <= -3/2: `x <= -2` fixes it (mirrored).
        assert_eq!(solve((9, -3), None), (Some(-2), Some(4)));
        // -5/2 <= x <= -1/2 with x >= -3: the root is at -1/2, then
        // `x <= -1` with the lower bound still negative (split).
        assert_eq!(solve((5, -1), Some(-3)), (Some(-1), Some(2)));
        // 1/2 <= x <= 3/2 with x >= -3: `x <= 0` is infeasible and
        // `x >= 1` fixes the sign.
        assert_eq!(solve((-1, 3), Some(-3)), (Some(1), Some(2)));
        // -1/2 <= x <= 1/2: zero without a branch.
        assert_eq!(solve((1, 1), None), (Some(0), Some(0)));
    }

    /// `min |x| + |y|` over integers with `x + y == 1`: `(1, 0)` and
    /// `(0, 1)` tie (as does the relaxation's whole segment between
    /// them), and the tie order picks the smaller one.
    #[test]
    fn tie_order_picks_the_smaller_integer_point() {
        let solve = |order: [usize; 2]| {
            let mut m = Model::new();
            let x = m.add_var("x");
            let y = m.add_var("y");
            m.set_integer(x);
            m.set_integer(y);
            m.constrain(AffineExpr::from_i64(&[2, 2], -2), Cmp::Eq);
            m.add_abs_cost(x, 1.into());
            m.add_abs_cost(y, 1.into());
            m.set_tie_order(order.iter().map(|&i| crate::VarId::from_index(i)).collect());
            let sol = m.solve_ilp().optimal().expect("feasible");
            (
                sol.value(x).to_i64(),
                sol.value(y).to_i64(),
                sol.objective.to_i64(),
            )
        };
        assert_eq!(solve([0, 1]), (Some(0), Some(1), Some(1)));
        assert_eq!(solve([1, 0]), (Some(1), Some(0), Some(1)));
    }

    /// Random small ILPs with `|x|` terms and a tie order against
    /// enumeration of the integer box `[-4, 4]^n`: the answer is the
    /// lexicographic minimum of `(objective, tie values)`.
    #[test]
    fn abs_ilps_match_enumeration() {
        let mut g = aov_support::Rng::new(36);
        let (mut optimal, mut infeasible) = (0, 0);
        for case in 0..300 {
            let n = g.usize_in(1, 3);
            let mut m = Model::new();
            let vars: Vec<_> = (0..n).map(|i| m.add_var(format!("x{i}"))).collect();
            let mut lo = vec![-4i64; n];
            let mut hi = vec![4i64; n];
            for (i, &v) in vars.iter().enumerate() {
                m.set_integer(v);
                // Each end is a bound or a row, so the box holds either
                // way and every map gets exercised.
                let l = g.i64_in(-4, 2);
                let u = g.i64_in(l, 4);
                (lo[i], hi[i]) = (l, u);
                let unit = |c: i64, k: i64| {
                    let mut coeffs = vec![0; n];
                    coeffs[i] = c;
                    AffineExpr::from_i64(&coeffs, k)
                };
                if g.bool() {
                    m.set_lower_bound(v, l.into());
                } else {
                    m.constrain(unit(1, -l), Cmp::Ge);
                }
                if g.bool() {
                    m.set_upper_bound(v, u.into());
                } else {
                    m.constrain(unit(-1, u), Cmp::Ge);
                }
                m.add_abs_cost(v, g.i64_in(1, 3).into());
            }
            for _ in 0..g.usize_in(0, 2) {
                let coeffs: Vec<i64> = (0..n).map(|_| g.i64_in(-3, 3)).collect();
                m.constrain(AffineExpr::from_i64(&coeffs, g.i64_in(-4, 4)), Cmp::Ge);
            }
            let objective: Vec<i64> = (0..n).map(|_| g.i64_in(-1, 1)).collect();
            m.minimize(AffineExpr::from_i64(&objective, 0));
            let mut order = vars.clone();
            if g.bool() {
                order.reverse();
            }
            m.set_tie_order(order.clone());
            // Enumerate the box.
            let mut best: Option<(Rational, Vec<i64>, Vec<i64>)> = None;
            let mut point = lo.clone();
            loop {
                let x: aov_linalg::QVector = point.iter().map(|&v| Rational::from(v)).collect();
                let feasible = m.constraints().iter().all(|(e, cmp)| {
                    let v = e.eval(&x.iter().take(e.dim()).cloned().collect());
                    match cmp {
                        Cmp::Ge => !v.is_negative(),
                        Cmp::Le => !v.is_positive(),
                        Cmp::Eq => v.is_zero(),
                    }
                });
                if feasible {
                    let value = m.objective_at(&x);
                    let tie: Vec<i64> = order.iter().map(|v| point[v.index()]).collect();
                    if best
                        .as_ref()
                        .is_none_or(|(b, t, _)| (&value, &tie) < (b, t))
                    {
                        best = Some((value, tie, point.clone()));
                    }
                }
                let Some(k) = (0..n).find(|&k| point[k] < hi[k]) else {
                    break;
                };
                point[k] += 1;
                point[..k].copy_from_slice(&lo[..k]);
            }
            match (m.solve_ilp(), best) {
                (LpOutcome::Optimal(sol), Some((value, _, point))) => {
                    optimal += 1;
                    assert_eq!(sol.objective, value, "case {case}: {m:?}");
                    let got: Vec<i64> = sol.values.iter().map(|v| v.to_i64().unwrap()).collect();
                    assert_eq!(got, point, "case {case}: {m:?}");
                }
                (LpOutcome::Infeasible, None) => infeasible += 1,
                (got, want) => panic!("case {case}: {got:?} vs {want:?}\n{m:?}"),
            }
        }
        assert!(
            optimal >= 150 && infeasible >= 10,
            "{optimal} optimal, {infeasible} infeasible"
        );
    }
}
