//! Exact two-phase primal simplex with Bland's rule.
//!
//! The model is standardized (free variables split, lower bounds shifted,
//! slacks/surpluses and artificials added) into `A y = b, y >= 0, b >= 0`,
//! then solved in two phases over exact rationals. Bland's smallest-index
//! pivoting rule guarantees termination without cycling.

use crate::model::{Cmp, LpOutcome, Model, Solution};
use aov_fault::{AovError, Budget, BudgetExceeded};
use aov_linalg::QVector;
use aov_numeric::Rational;

/// How each original model variable maps into standardized columns.
#[derive(Debug, Clone)]
enum VarMap {
    /// `x = lower + y[col]`
    Shifted { col: usize, lower: Rational },
    /// `x = y[pos] - y[neg]`
    Split { pos: usize, neg: usize },
}

pub(crate) struct Standardized {
    /// Rows: coefficients over standardized columns; parallel `rhs`.
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
    /// Cost of each standardized column (phase-2 objective).
    costs: Vec<Rational>,
    /// Objective constant (added to the tableau objective at the end).
    obj_constant: Rational,
    maps: Vec<VarMap>,
    num_cols: usize,
}

pub(crate) fn standardize(model: &Model) -> Standardized {
    let n = model.num_vars();
    let (lower, upper) = model.bounds();
    let mut num_cols = 0usize;
    let mut maps = Vec::with_capacity(n);
    for lo in lower.iter().take(n) {
        match lo {
            Some(l) => {
                maps.push(VarMap::Shifted {
                    col: num_cols,
                    lower: l.clone(),
                });
                num_cols += 1;
            }
            None => {
                maps.push(VarMap::Split {
                    pos: num_cols,
                    neg: num_cols + 1,
                });
                num_cols += 2;
            }
        }
    }

    let constraints = model.padded_constraints();
    let upper_bounds = upper.iter().take(n).filter(|u| u.is_some()).count();
    let inequalities = upper_bounds
        + constraints
            .iter()
            .filter(|(_, cmp)| !matches!(cmp, Cmp::Eq))
            .count();
    // One slack/surplus column per inequality, after the variable
    // columns and in row order, so rows are allocated at their final
    // width.
    let width = num_cols + inequalities;
    let mut rows: Vec<Vec<Rational>> = Vec::with_capacity(constraints.len() + upper_bounds);
    let mut rhs: Vec<Rational> = Vec::with_capacity(rows.capacity());
    let mut next_slack = num_cols;

    // Affine constraint `e cmp 0` becomes `coeffs·x cmp -const`.
    let mut push_constraint = |coeffs: &[(usize, Rational)], constant: &Rational, cmp: Cmp| {
        let mut row = vec![Rational::zero(); width];
        let mut b = -constant;
        for (var, c) in coeffs {
            if c.is_zero() {
                continue;
            }
            match &maps[*var] {
                VarMap::Shifted { col, lower } => {
                    row[*col] = &row[*col] + c;
                    b = &b - &(c * lower);
                }
                VarMap::Split { pos, neg } => {
                    row[*pos] = &row[*pos] + c;
                    row[*neg] = &row[*neg] - c;
                }
            }
        }
        let slack = match cmp {
            Cmp::Eq => None,
            Cmp::Le => Some(Rational::one()),
            Cmp::Ge => Some(-Rational::one()),
        };
        if let Some(slack) = slack {
            row[next_slack] = slack;
            next_slack += 1;
        }
        rows.push(row);
        rhs.push(b);
    };

    for (e, cmp) in constraints {
        let coeffs: Vec<(usize, Rational)> = e
            .coeffs()
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.clone()))
            .collect();
        push_constraint(&coeffs, e.constant_term(), cmp);
    }
    // Upper bounds as `x <= u`.
    for (i, u) in upper.iter().enumerate().take(n) {
        if let Some(u) = u {
            push_constraint(&[(i, Rational::one())], &-u, Cmp::Le);
        }
    }

    // Make all rhs nonnegative.
    for (r, b) in rhs.iter_mut().enumerate() {
        if b.is_negative() {
            *b = -&*b;
            for v in rows[r].iter_mut() {
                *v = -&*v;
            }
        }
    }

    // Phase-2 costs over standardized columns.
    let obj = model.padded_objective();
    let mut costs = vec![Rational::zero(); width];
    let mut obj_constant = obj.constant_term().clone();
    for (i, c) in obj.coeffs().iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        match &maps[i] {
            VarMap::Shifted { col, lower } => {
                costs[*col] = &costs[*col] + c;
                obj_constant = &obj_constant + &(c * lower);
            }
            VarMap::Split { pos, neg } => {
                costs[*pos] = &costs[*pos] + c;
                costs[*neg] = &costs[*neg] - c;
            }
        }
    }

    Standardized {
        rows,
        rhs,
        costs,
        obj_constant,
        maps,
        num_cols: width,
    }
}

/// Dense simplex tableau. `rows[r]` has `num_cols` coefficients; `rhs[r]`
/// is the current basic value of `basis[r]`. The objective row holds
/// reduced costs and `obj_rhs == -(current objective)`.
struct Tableau {
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
    basis: Vec<usize>,
    obj: Vec<Rational>,
    obj_rhs: Rational,
}

/// Per-pivot numeric-growth accumulator: limb totals and the widest
/// coefficient written, gathered locally in the update loops and
/// flushed with two atomic ops per pivot so the hot loops stay free of
/// shared-memory traffic.
#[derive(Default)]
struct GrowthMeter {
    limbs: u64,
    bits: u64,
}

impl GrowthMeter {
    #[inline]
    fn note(&mut self, v: &Rational) {
        self.limbs += (v.numer().limbs() + v.denom().limbs()) as u64;
        self.bits = self.bits.max(v.numer().bits().max(v.denom().bits()) as u64);
    }

    fn flush(self) {
        aov_support::static_counter!("lp.simplex.coeff_limbs_total")
            .fetch_add(self.limbs, std::sync::atomic::Ordering::Relaxed);
        aov_support::counters::record_max("lp.simplex.coeff_bits_max", self.bits);
        // Feed the same width into the span-scoped telemetry so the
        // flame table's max_bits column names the span that grew.
        aov_support::alloc::record_bits(self.bits);
    }
}

/// `row -= f · pivot_row` for `f = row[c]`, and the same on `rhs`.
/// Entries facing a zero in the pivot row are left as they are (but
/// still metered, as every entry of an updated row is).
fn eliminate(
    row: &mut [Rational],
    rhs: &mut Rational,
    pivot_row: &[Rational],
    pivot_rhs: &Rational,
    c: usize,
    growth: &mut GrowthMeter,
) {
    let f = row[c].clone();
    for (v, p) in row.iter_mut().zip(pivot_row) {
        if !p.is_zero() {
            *v -= &(&f * p);
        }
        growth.note(v);
    }
    *rhs -= &(&f * pivot_rhs);
}

impl Tableau {
    fn pivot(&mut self, r: usize, c: usize) {
        let mut growth = GrowthMeter::default();
        let inv = self.rows[r][c].recip();
        for v in self.rows[r].iter_mut() {
            if !v.is_zero() {
                *v *= &inv;
            }
            growth.note(v);
        }
        self.rhs[r] = &self.rhs[r] * &inv;
        let (above, rest) = self.rows.split_at_mut(r);
        let (pivot_row, below) = rest.split_at_mut(1);
        let pivot_row = &pivot_row[0];
        let (rhs_above, rhs_rest) = self.rhs.split_at_mut(r);
        let (pivot_rhs, rhs_below) = rhs_rest.split_at_mut(1);
        let pivot_rhs = &pivot_rhs[0];
        let others = above.iter_mut().chain(below.iter_mut());
        let other_rhs = rhs_above.iter_mut().chain(rhs_below.iter_mut());
        for (row, rhs) in others.zip(other_rhs) {
            if row[c].is_zero() {
                continue;
            }
            eliminate(row, rhs, pivot_row, pivot_rhs, c, &mut growth);
            growth.note(rhs);
        }
        if !self.obj[c].is_zero() {
            eliminate(
                &mut self.obj,
                &mut self.obj_rhs,
                pivot_row,
                pivot_rhs,
                c,
                &mut growth,
            );
        }
        self.basis[r] = c;
        growth.flush();
    }

    /// Runs simplex iterations with Bland's rule on the columns in
    /// `0..active_cols`. Returns `false` when unbounded.
    fn run(&mut self, active_cols: usize, budget: &Budget) -> Result<bool, BudgetExceeded> {
        loop {
            // Bland: entering column = smallest index with negative
            // reduced cost.
            let Some(c) = (0..active_cols).find(|&j| self.obj[j].is_negative()) else {
                return Ok(true); // optimal
            };
            // Ratio test; Bland tie-break on smallest basis variable.
            let mut best: Option<(Rational, usize)> = None;
            for r in 0..self.rows.len() {
                if self.rows[r][c].is_positive() {
                    let ratio = &self.rhs[r] / &self.rows[r][c];
                    let better = match &best {
                        None => true,
                        Some((bratio, brow)) => {
                            ratio < *bratio
                                || (ratio == *bratio && self.basis[r] < self.basis[*brow])
                        }
                    };
                    if better {
                        best = Some((ratio, r));
                    }
                }
            }
            match best {
                None => return Ok(false), // unbounded
                Some((ratio, r)) => {
                    budget.tick_pivot("lp.simplex")?;
                    aov_support::static_counter!("lp.simplex.pivots")
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if ratio.is_zero() {
                        aov_support::static_counter!("lp.simplex.degenerate_pivots")
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    self.pivot(r, c);
                }
            }
        }
    }

    /// Re-derives the objective row for costs `c` given the current basis
    /// (price-out).
    fn install_objective(&mut self, costs: &[Rational], constant: &Rational) {
        let n = self.obj.len();
        self.obj = costs.to_vec();
        self.obj.resize(n, Rational::zero());
        self.obj_rhs = -constant;
        for r in 0..self.rows.len() {
            let b = self.basis[r];
            if !self.obj[b].is_zero() {
                let f = self.obj[b].clone();
                for (v, p) in self.obj.iter_mut().zip(&self.rows[r]) {
                    *v = &*v - &(&f * p);
                }
                self.obj_rhs = &self.obj_rhs - &(&f * &self.rhs[r]);
            }
        }
    }
}

pub(crate) fn solve(model: &Model, budget: &Budget) -> Result<LpOutcome, AovError> {
    aov_fault::chaos::tick("lp.simplex")?;
    let std = standardize(model);
    Ok(match solve_standardized(&std, budget)? {
        StdOutcome::Optimal(y, objective) => {
            let values = destandardize(&std, &y);
            #[cfg(debug_assertions)]
            check_optimal_answer(model, &values, &objective);
            LpOutcome::Optimal(Solution { values, objective })
        }
        StdOutcome::Infeasible => LpOutcome::Infeasible,
        StdOutcome::Unbounded => LpOutcome::Unbounded,
    })
}

/// Debug-build check of an `Optimal` answer against the model it claims
/// to solve: the values satisfy every constraint and bound exactly, and
/// the objective is the objective expression evaluated at them.
#[cfg(debug_assertions)]
fn check_optimal_answer(model: &Model, values: &QVector, objective: &Rational) {
    for (i, (e, cmp)) in model.padded_constraints().iter().enumerate() {
        let v = e.eval(values);
        let holds = match cmp {
            Cmp::Ge => !v.is_negative(),
            Cmp::Le => !v.is_positive(),
            Cmp::Eq => v.is_zero(),
        };
        assert!(
            holds,
            "simplex answer violates constraint #{i}: {v} {cmp:?} 0"
        );
    }
    let (lower, upper) = model.bounds();
    for (i, x) in values.iter().enumerate() {
        if let Some(Some(l)) = lower.get(i) {
            assert!(
                x >= l,
                "simplex answer x{i} = {x} is below its lower bound {l}"
            );
        }
        if let Some(Some(u)) = upper.get(i) {
            assert!(
                x <= u,
                "simplex answer x{i} = {x} is above its upper bound {u}"
            );
        }
    }
    let expected = model.padded_objective().eval(values);
    assert_eq!(
        objective, &expected,
        "simplex objective differs from the objective at its values"
    );
}

enum StdOutcome {
    Optimal(Vec<Rational>, Rational),
    Infeasible,
    Unbounded,
}

fn destandardize(std: &Standardized, y: &[Rational]) -> QVector {
    std.maps
        .iter()
        .map(|m| match m {
            VarMap::Shifted { col, lower } => lower + &y[*col],
            VarMap::Split { pos, neg } => &y[*pos] - &y[*neg],
        })
        .collect()
}

fn solve_standardized(std: &Standardized, budget: &Budget) -> Result<StdOutcome, BudgetExceeded> {
    let m = std.rows.len();
    let n = std.num_cols;
    // Add one artificial per row.
    let total = n + m;
    let mut rows = Vec::with_capacity(m);
    for (r, row) in std.rows.iter().enumerate() {
        let mut full = row.clone();
        full.resize(total, Rational::zero());
        full[n + r] = Rational::one();
        rows.push(full);
    }
    let mut t = Tableau {
        rows,
        rhs: std.rhs.clone(),
        basis: (n..n + m).collect(),
        obj: vec![Rational::zero(); total],
        obj_rhs: Rational::zero(),
    };
    // Phase 1: minimize sum of artificials.
    let mut phase1 = vec![Rational::zero(); total];
    for c in phase1.iter_mut().skip(n) {
        *c = Rational::one();
    }
    t.install_objective(&phase1, &Rational::zero());
    let bounded = t.run(total, budget)?;
    debug_assert!(bounded, "phase 1 is always bounded below by 0");
    // Optimal phase-1 objective is -obj_rhs.
    if !t.obj_rhs.is_zero() {
        return Ok(StdOutcome::Infeasible);
    }
    // Drive remaining artificials out of the basis.
    let mut r = 0;
    while r < t.rows.len() {
        if t.basis[r] >= n {
            if let Some(c) = (0..n).find(|&c| !t.rows[r][c].is_zero()) {
                t.pivot(r, c);
            } else {
                // Redundant row: drop it.
                t.rows.remove(r);
                t.rhs.remove(r);
                t.basis.remove(r);
                continue;
            }
        }
        r += 1;
    }
    // Phase 2 on original costs; artificial columns are excluded from
    // pricing by passing `active_cols = n`.
    t.install_objective(&std.costs, &std.obj_constant);
    if !t.run(n, budget)? {
        return Ok(StdOutcome::Unbounded);
    }
    let mut y = vec![Rational::zero(); n];
    for (r, &b) in t.basis.iter().enumerate() {
        if b < n {
            y[b] = t.rhs[r].clone();
        }
    }
    let objective = -&t.obj_rhs;
    Ok(StdOutcome::Optimal(y, objective))
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LpOutcome, Model};
    use aov_linalg::AffineExpr;
    use aov_numeric::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn simple_minimization() {
        // min 2x + y s.t. x + y >= 2, x - y >= -1, x,y >= 0 -> (1/2, 3/2), obj 5/2?
        // Check: vertices of feasible region: (2,0): obj 4; (1/2,3/2): obj 5/2; unbounded dir increases obj.
        let mut m = Model::new();
        let _x = m.add_nonneg_var("x");
        let _y = m.add_nonneg_var("y");
        m.constrain(AffineExpr::from_i64(&[1, 1], -2), Cmp::Ge);
        m.constrain(AffineExpr::from_i64(&[1, -1], 1), Cmp::Ge);
        m.minimize(AffineExpr::from_i64(&[2, 1], 0));
        let sol = m.solve_lp().optimal().expect("feasible");
        assert_eq!(sol.objective, r(5, 2));
        assert_eq!(sol.values.as_slice()[0], r(1, 2));
        assert_eq!(sol.values.as_slice()[1], r(3, 2));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 4, x >= 0, y >= 0 -> (0, 2) obj 2.
        let mut m = Model::new();
        m.add_nonneg_var("x");
        m.add_nonneg_var("y");
        m.constrain(AffineExpr::from_i64(&[1, 2], -4), Cmp::Eq);
        m.minimize(AffineExpr::from_i64(&[1, 1], 0));
        let sol = m.solve_lp().optimal().unwrap();
        assert_eq!(sol.objective, Rational::from(2));
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        m.add_nonneg_var("x");
        m.constrain(AffineExpr::from_i64(&[1], -3), Cmp::Ge); // x >= 3
        m.constrain(AffineExpr::from_i64(&[1], -1), Cmp::Le); // x <= 1
        assert_eq!(m.solve_lp(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        m.add_nonneg_var("x");
        m.minimize(AffineExpr::from_i64(&[-1], 0)); // min -x, x unbounded above
        assert_eq!(m.solve_lp(), LpOutcome::Unbounded);
    }

    #[test]
    fn free_variables_split() {
        // min |shape|: x free, minimize x s.t. x >= -5.
        let mut m = Model::new();
        let x = m.add_var("x");
        m.constrain(AffineExpr::from_i64(&[1], 5), Cmp::Ge); // x + 5 >= 0
        m.minimize(AffineExpr::from_i64(&[1], 0));
        let sol = m.solve_lp().optimal().unwrap();
        assert_eq!(sol.value(x), &Rational::from(-5));
    }

    #[test]
    fn upper_bounds_respected() {
        let mut m = Model::new();
        let x = m.add_nonneg_var("x");
        m.set_upper_bound(x, Rational::from(7));
        m.minimize(AffineExpr::from_i64(&[-1], 0)); // max x
        let sol = m.solve_lp().optimal().unwrap();
        assert_eq!(sol.value(x), &Rational::from(7));
    }

    #[test]
    fn objective_constant_carried() {
        let mut m = Model::new();
        let x = m.add_nonneg_var("x");
        m.minimize(AffineExpr::from_i64(&[1], 10));
        let sol = m.solve_lp().optimal().unwrap();
        assert_eq!(sol.objective, Rational::from(10));
        assert_eq!(sol.value(x), &Rational::zero());
    }

    #[test]
    fn shifted_lower_bounds() {
        // x >= 3 via bound, min x -> 3 with objective including shift.
        let mut m = Model::new();
        let x = m.add_var("x");
        m.set_lower_bound(x, Rational::from(3));
        m.minimize(AffineExpr::from_i64(&[2], 1));
        let sol = m.solve_lp().optimal().unwrap();
        assert_eq!(sol.value(x), &Rational::from(3));
        assert_eq!(sol.objective, Rational::from(7));
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic Beale-style degeneracy; Bland's rule must terminate.
        let mut m = Model::new();
        for name in ["x1", "x2", "x3", "x4"] {
            m.add_nonneg_var(name);
        }
        m.constrain(
            AffineExpr::from_parts(
                aov_linalg::QVector::from_vec(vec![r(1, 4), r(-60, 1), r(-1, 25), r(9, 1)]),
                Rational::zero(),
            ),
            Cmp::Le,
        );
        m.constrain(
            AffineExpr::from_parts(
                aov_linalg::QVector::from_vec(vec![r(1, 2), r(-90, 1), r(-1, 50), r(3, 1)]),
                Rational::zero(),
            ),
            Cmp::Le,
        );
        m.constrain(AffineExpr::from_i64(&[0, 0, 1, 0], -1), Cmp::Le);
        m.minimize(AffineExpr::from_parts(
            aov_linalg::QVector::from_vec(vec![r(-3, 4), r(150, 1), r(-1, 50), r(6, 1)]),
            Rational::zero(),
        ));
        let sol = m.solve_lp().optimal().expect("Beale LP is feasible");
        assert_eq!(sol.objective, r(-1, 20));
    }

    #[test]
    fn abs_bound_helper() {
        // min |x| s.t. x <= -2  ->  2 at x = -2.
        let mut m = Model::new();
        let x = m.add_var("x");
        m.constrain(AffineExpr::from_i64(&[1], 2), Cmp::Le);
        let a = m.add_abs_bound(x, "abs_x");
        m.minimize(AffineExpr::var(2, a.index()));
        let sol = m.solve_lp().optimal().unwrap();
        assert_eq!(sol.value(a), &Rational::from(2));
        assert_eq!(sol.value(x), &Rational::from(-2));
    }
}
