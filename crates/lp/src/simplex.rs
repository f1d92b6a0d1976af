//! Exact two-phase primal simplex with Bland's rule.
//!
//! The model is standardized (free variables split, lower bounds shifted,
//! one slack/surplus per inequality) into `A y = b`, `y >= 0`, `b >= 0`,
//! then solved in two phases over exact rationals. Bland's
//! smallest-index pivoting rule guarantees termination without cycling.
//!
//! **Slack start.** Each row starts with a basic column whose entry is
//! +1 and zero in every other row. A row whose slack has coefficient +1
//! once its rhs is made nonnegative uses that slack: a `≤` row with a
//! nonnegative rhs, a `≥` row with a negative one, and a `≥` row with a
//! zero rhs, which is negated for this. Only the other rows (equalities,
//! `≥` rows with a positive rhs and `≤` rows with a negative one) get
//! an artificial column. So the form is `A y + E a = b` with one column
//! of `E` per such row, and phase 1 minimizes the sum of those
//! artificials only, stopping as soon as that sum reaches zero. The
//! paper's homogeneous storage and generator rows, and the `|x|` and
//! evenness rows, all start on their slacks.
//!
//! **Row layout.** `standardize` reads the model's stored (unpadded)
//! expressions and allocates each row once at its final width `n + k`
//! (`k` artificials): variable columns in model order, one slack/surplus
//! per inequality in row order, then the artificials in row order, the
//! row's own already set. The tableau takes the rows by move.
//!
//! **Nonzero-driven work.** Paper tableaux are sparse (~6 % dense on
//! the Farkas models), so a pivot gathers the pivot row's nonzero
//! columns once and updates only those; the phase-1 price-out and the
//! rhs sign flip skip zeros; the ratio test cross-multiplies instead of
//! dividing. No value changes, so the pivots are the dense ones, pivot
//! for pivot (checked against the test-only dense `reference.rs`).
//!
//! **Growth meter.** Each pivot adds to `lp.simplex.coeff_limbs_total`
//! the limbs of every entry of every row it updates (a zero counts its
//! denominator's one limb) and of each eliminated row's rhs, and raises
//! `lp.simplex.coeff_bits_max` to the widest entry. A row's limb total
//! is summed by one full scan on its first update and kept from the
//! touched entries' deltas after that, so both equal a dense scan.
//!
//! **Certificates.** Debug builds check every answer: an `Optimal` one
//! against the model and against its dual read off the final tableau,
//! an `Infeasible` one against a Farkas ray read off phase 1.

use crate::model::{Cmp, LpOutcome, Model, Solution};
use aov_fault::{AovError, Budget, BudgetExceeded};
use aov_linalg::QVector;
use aov_numeric::Rational;
use std::cmp::Ordering;

/// How each original model variable maps into standardized columns.
#[derive(Debug, Clone)]
enum VarMap {
    /// `x = lower + y[col]`
    Shifted { col: usize, lower: Rational },
    /// `x = y[pos] - y[neg]`
    Split { pos: usize, neg: usize },
}

pub(crate) struct Standardized {
    /// Rows over the `num_cols` standardized columns followed by the
    /// artificial columns, one per row that needs one (see the module
    /// doc); parallel `rhs`, all nonnegative.
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
    /// Each row's starting basic column: its slack, or its artificial.
    start: Vec<usize>,
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

    // Every row as `coeffs·x cmp −constant`: the constraints, then the
    // upper bounds as `x <= u`.
    let constraints = model.constraints();
    let units: Vec<(Vec<Rational>, Rational)> = upper
        .iter()
        .take(n)
        .enumerate()
        .filter_map(|(i, u)| {
            let u = u.as_ref()?;
            let mut unit = vec![Rational::zero(); i + 1];
            unit[i] = Rational::one();
            Some((unit, -u))
        })
        .collect();
    let sources = || {
        constraints
            .iter()
            .map(|(e, cmp)| (e.coeffs().as_slice(), e.constant_term(), *cmp))
            .chain(units.iter().map(|(u, c)| (u.as_slice(), c, Cmp::Le)))
    };
    let num_rows = constraints.len() + units.len();
    // One slack/surplus column per inequality, after the variable
    // columns and in row order; then the artificials.
    let width = num_cols + sources().filter(|(.., cmp)| *cmp != Cmp::Eq).count();

    // First pass: each row's rhs with the lower bounds shifted out, and
    // its orientation. A row is negated when its rhs is negative, or
    // zero on a `≥` row, so that every rhs is nonnegative and every
    // slack that can start basic has coefficient +1.
    let mut rhs: Vec<Rational> = Vec::with_capacity(num_rows);
    let mut negated: Vec<bool> = Vec::with_capacity(num_rows);
    let mut artificials = 0usize;
    for (coeffs, constant, cmp) in sources() {
        let mut b = -constant;
        for (var, c) in coeffs.iter().enumerate() {
            if let VarMap::Shifted { lower, .. } = &maps[var] {
                if !c.is_zero() && !lower.is_zero() {
                    b -= &(c * lower);
                }
            }
        }
        let negate = b.is_negative() || (b.is_zero() && cmp == Cmp::Ge);
        if negate {
            b = -b;
        }
        artificials += usize::from(match cmp {
            Cmp::Eq => true,
            Cmp::Le => negate,
            Cmp::Ge => !negate,
        });
        rhs.push(b);
        negated.push(negate);
    }

    // Second pass: the rows at their final width.
    let mut rows: Vec<Vec<Rational>> = Vec::with_capacity(num_rows);
    let mut start: Vec<usize> = Vec::with_capacity(num_rows);
    let (mut next_slack, mut next_artificial) = (num_cols, width);
    for ((coeffs, _, cmp), negate) in sources().zip(negated) {
        let mut row = vec![Rational::zero(); width + artificials];
        for (var, c) in coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            match &maps[var] {
                VarMap::Shifted { col, .. } => row[*col] += c,
                VarMap::Split { pos, neg } => {
                    row[*pos] += c;
                    row[*neg] -= c;
                }
            }
        }
        let mut slack = None;
        if cmp != Cmp::Eq {
            row[next_slack] = Rational::from(if cmp == Cmp::Le { 1 } else { -1 });
            slack = Some(next_slack);
            next_slack += 1;
        }
        if negate {
            for v in row[..width].iter_mut().filter(|v| !v.is_zero()) {
                *v = -std::mem::take(v);
            }
        }
        match slack.filter(|&s| row[s].is_positive()) {
            Some(s) => start.push(s),
            None => {
                row[next_artificial] = Rational::one();
                start.push(next_artificial);
                next_artificial += 1;
            }
        }
        rows.push(row);
    }
    debug_assert_eq!(next_artificial, width + artificials);

    // Phase-2 costs over standardized columns.
    let mut costs = vec![Rational::zero(); width];
    let mut obj_constant = Rational::zero();
    if let Some(obj) = model.objective() {
        obj_constant = obj.constant_term().clone();
        for (i, c) in obj.coeffs().iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            match &maps[i] {
                VarMap::Shifted { col, lower } => {
                    costs[*col] += c;
                    obj_constant += &(c * lower);
                }
                VarMap::Split { pos, neg } => {
                    costs[*pos] += c;
                    costs[*neg] -= c;
                }
            }
        }
    }

    Standardized {
        rows,
        rhs,
        start,
        costs,
        obj_constant,
        maps,
        num_cols: width,
    }
}

/// Simplex tableau over the `n` standardized and `k` artificial columns.
/// `rhs[r]` is the current basic value of `basis[r]`. The objective row
/// holds reduced costs and `obj_rhs == -(current objective)`.
struct Tableau {
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
    basis: Vec<usize>,
    /// Running limb total of each row's entries; `None` until the row's
    /// first update (see the module doc's growth meter).
    row_limbs: Vec<Option<u64>>,
    obj: Vec<Rational>,
    obj_rhs: Rational,
    obj_limbs: Option<u64>,
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

fn limbs(v: &Rational) -> u64 {
    (v.numer().limbs() + v.denom().limbs()) as u64
}

fn bits(v: &Rational) -> u64 {
    v.numer().bits().max(v.denom().bits()) as u64
}

impl GrowthMeter {
    /// Applies `op` to `row[j]` for each `j` in `cols` and meters the
    /// whole row through its running limb total `total`. On the row's
    /// first update every entry's width is noted too; after that the
    /// untouched entries are unchanged and already noted.
    fn update_row(
        &mut self,
        row: &mut [Rational],
        total: &mut Option<u64>,
        cols: &[usize],
        mut op: impl FnMut(usize, &mut Rational),
    ) {
        let first = total.is_none();
        let t = total.get_or_insert_with(|| row.iter().map(limbs).sum());
        for &j in cols {
            let before = limbs(&row[j]);
            op(j, &mut row[j]);
            *t = *t - before + limbs(&row[j]);
            self.bits = self.bits.max(bits(&row[j]));
        }
        if first {
            self.bits = row.iter().map(bits).fold(self.bits, u64::max);
        }
        self.limbs += *t;
    }

    fn flush(self) {
        aov_support::static_counter!("lp.simplex.coeff_limbs_total").add(self.limbs);
        aov_support::static_max_counter!("lp.simplex.coeff_bits_max").record(self.bits);
        // Feed the same width into the span-scoped telemetry so the
        // flame table's max_bits column names the span that grew.
        aov_support::alloc::record_bits(self.bits);
    }
}

impl Tableau {
    /// The phase-1 tableau: each row's `start` column is basic, and the
    /// objective row is the sum of the artificials (the columns from `n`
    /// on) priced out: `d_j = −Σ a_rj` on the standardized columns, the
    /// sum over the rows that start on an artificial, and zero elsewhere.
    fn phase1(
        rows: Vec<Vec<Rational>>,
        rhs: Vec<Rational>,
        start: Vec<usize>,
        n: usize,
    ) -> Tableau {
        let m = rows.len();
        let width = rows.first().map_or(n, Vec::len);
        let mut obj = vec![Rational::zero(); width];
        let mut obj_rhs = Rational::zero();
        for ((row, b), _) in rows.iter().zip(&rhs).zip(&start).filter(|(_, s)| **s >= n) {
            for (d, a) in obj.iter_mut().zip(&row[..n]) {
                if !a.is_zero() {
                    *d -= a;
                }
            }
            obj_rhs -= b;
        }
        Tableau {
            rows,
            rhs,
            basis: start,
            row_limbs: vec![None; m],
            obj,
            obj_rhs,
            obj_limbs: None,
        }
    }

    fn pivot(&mut self, r: usize, c: usize) {
        let mut growth = GrowthMeter::default();
        let mut pivot_row = std::mem::take(&mut self.rows[r]);
        let nonzero: Vec<usize> = (0..pivot_row.len())
            .filter(|&j| !pivot_row[j].is_zero())
            .collect();
        let inv = pivot_row[c].recip();
        let pivot_limbs = &mut self.row_limbs[r];
        growth.update_row(&mut pivot_row, pivot_limbs, &nonzero, |_, v| *v *= &inv);
        self.rhs[r] *= &inv;
        let pivot_rhs = self.rhs[r].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i == r || row[c].is_zero() {
                continue;
            }
            let f = row[c].clone();
            let total = &mut self.row_limbs[i];
            growth.update_row(row, total, &nonzero, |j, v| *v -= &(&f * &pivot_row[j]));
            let rhs = &mut self.rhs[i];
            *rhs -= &(&f * &pivot_rhs);
            growth.limbs += limbs(rhs);
            growth.bits = growth.bits.max(bits(rhs));
        }
        if !self.obj[c].is_zero() {
            let f = self.obj[c].clone();
            growth.update_row(&mut self.obj, &mut self.obj_limbs, &nonzero, |j, v| {
                *v -= &(&f * &pivot_row[j])
            });
            self.obj_rhs -= &(&f * &pivot_rhs);
        }
        self.rows[r] = pivot_row;
        self.basis[r] = c;
        #[cfg(test)]
        crate::reference::log_pivot((r, c, growth.limbs, growth.bits));
        growth.flush();
    }

    /// Runs simplex iterations with Bland's rule on the columns in
    /// `0..active_cols`; with `until_zero`, stops as soon as the
    /// objective reaches zero (phase 1: the start is then feasible).
    /// Returns `false` when unbounded.
    fn run(
        &mut self,
        active_cols: usize,
        until_zero: bool,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        loop {
            if until_zero && self.obj_rhs.is_zero() {
                return Ok(true);
            }
            // Bland: entering column = smallest index with negative
            // reduced cost.
            let Some(c) = (0..active_cols).find(|&j| self.obj[j].is_negative()) else {
                return Ok(true); // optimal
            };
            // Ratio test; Bland tie-break on smallest basis variable.
            // With both pivots positive, rhs_r/a_r < rhs_b/a_b exactly
            // when rhs_r·a_b < rhs_b·a_r.
            let mut best: Option<usize> = None;
            for r in 0..self.rows.len() {
                let a = &self.rows[r][c];
                if !a.is_positive() {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let lhs = &self.rhs[r] * &self.rows[b][c];
                        match lhs.cmp(&(&self.rhs[b] * a)) {
                            Ordering::Less => true,
                            Ordering::Equal => self.basis[r] < self.basis[b],
                            Ordering::Greater => false,
                        }
                    }
                };
                if better {
                    best = Some(r);
                }
            }
            let Some(r) = best else {
                return Ok(false); // unbounded
            };
            budget.tick_pivot("lp.simplex")?;
            aov_support::static_counter!("lp.simplex.pivots").add(1);
            if self.rhs[r].is_zero() {
                aov_support::static_counter!("lp.simplex.degenerate_pivots").add(1);
            }
            self.pivot(r, c);
        }
    }

    /// Re-derives the objective row for costs `costs` (zero past their
    /// end) given the current basis (price-out).
    fn install_objective(&mut self, costs: &[Rational], constant: &Rational) {
        let n = self.obj.len();
        self.obj.clear();
        self.obj.extend_from_slice(costs);
        self.obj.resize(n, Rational::zero());
        self.obj_rhs = -constant;
        self.obj_limbs = None;
        for (r, row) in self.rows.iter().enumerate() {
            let b = self.basis[r];
            if self.obj[b].is_zero() {
                continue;
            }
            let f = self.obj[b].clone();
            for (v, p) in self.obj.iter_mut().zip(row) {
                if !p.is_zero() {
                    *v -= &(&f * p);
                }
            }
            self.obj_rhs -= &(&f * &self.rhs[r]);
        }
    }
}

pub(crate) fn solve(model: &Model, budget: &Budget) -> Result<LpOutcome, AovError> {
    aov_fault::chaos::tick("lp.simplex")?;
    let std = standardize(model);
    let n = std.num_cols;
    #[cfg(debug_assertions)]
    let start = std.start.clone();
    let mut t = Tableau::phase1(std.rows, std.rhs, std.start, n);
    // Phase 1: minimize the sum of the artificials.
    let total = t.obj.len();
    let bounded = t.run(total, true, budget)?;
    debug_assert!(bounded, "phase 1 is always bounded below by 0");
    // Optimal phase-1 objective is -obj_rhs.
    if !t.obj_rhs.is_zero() {
        #[cfg(debug_assertions)]
        check_infeasibility_certificate(model, &duals(&t.obj, &start, n, true));
        return Ok(LpOutcome::Infeasible);
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
                t.row_limbs.remove(r);
                continue;
            }
        }
        r += 1;
    }
    // Phase 2 on original costs; artificial columns are excluded from
    // pricing by passing `active_cols = n`.
    t.install_objective(&std.costs, &std.obj_constant);
    if !t.run(n, false, budget)? {
        return Ok(LpOutcome::Unbounded);
    }
    let mut y = vec![Rational::zero(); n];
    for (r, &b) in t.basis.iter().enumerate() {
        if b < n {
            y[b] = std::mem::take(&mut t.rhs[r]);
        }
    }
    let values: QVector = std
        .maps
        .iter()
        .map(|m| match m {
            VarMap::Shifted { col, lower } => lower + &y[*col],
            VarMap::Split { pos, neg } => &y[*pos] - &y[*neg],
        })
        .collect();
    let objective = -&t.obj_rhs;
    #[cfg(debug_assertions)]
    {
        check_optimal_answer(model, &values, &objective);
        check_dual_certificate(model, &duals(&t.obj, &start, n, false), &objective);
    }
    Ok(LpOutcome::Optimal(Solution { values, objective }))
}

/// The duals `y` of the standardized rows, read off an objective row
/// `d_j = c_j − yᵀA_j`: each row's start column is a unit column of the
/// starting tableau, so `y_r = c_start − d_start`. Slacks cost nothing;
/// artificials cost one in phase 1 and nothing in phase 2. A row that
/// drive-out dropped as redundant keeps its reading (its artificial was
/// basic at cost zero there), which is a valid dual of the full system.
#[cfg(debug_assertions)]
fn duals(obj: &[Rational], start: &[usize], n: usize, phase1: bool) -> Vec<Rational> {
    start
        .iter()
        .map(|&s| {
            if phase1 && s >= n {
                &Rational::one() - &obj[s]
            } else {
                -&obj[s]
            }
        })
        .collect()
}

/// Debug-build check of an `Optimal` answer against the model it claims
/// to solve: the values satisfy every constraint and bound exactly, and
/// the objective is the objective expression evaluated at them.
#[cfg(debug_assertions)]
fn check_optimal_answer(model: &Model, values: &QVector, objective: &Rational) {
    for (i, (e, cmp)) in model.constraints().iter().enumerate() {
        let v = e.eval(&values.iter().take(e.dim()).cloned().collect());
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
    let expected = model.objective().map_or_else(Rational::zero, |e| {
        e.eval(&values.iter().take(e.dim()).cloned().collect())
    });
    assert_eq!(
        objective, &expected,
        "simplex objective differs from the objective at its values"
    );
}

/// Debug-build check of an `Infeasible` verdict: `y` is a Farkas
/// certificate for the standardized system `A y' = b, y' >= 0`, i.e.
/// `yᵀA_j <= 0` for every standardized column `j` and `yᵀb > 0` (then
/// `0 >= yᵀA y' = yᵀb > 0` for any feasible `y'`, a contradiction).
#[cfg(debug_assertions)]
fn check_infeasibility_certificate(model: &Model, y: &[Rational]) {
    let std = standardize(model);
    assert_eq!(y.len(), std.rows.len(), "certificate has one entry per row");
    for j in 0..std.num_cols {
        let yaj: Rational = y.iter().zip(&std.rows).map(|(yr, row)| yr * &row[j]).sum();
        assert!(
            !yaj.is_positive(),
            "infeasibility certificate fails on column {j}: yᵀA_j = {yaj} > 0"
        );
    }
    let yb: Rational = y.iter().zip(&std.rhs).map(|(yr, b)| yr * b).sum();
    assert!(
        yb.is_positive(),
        "infeasibility certificate fails: yᵀb = {yb} is not positive"
    );
}

/// Debug-build check of an `Optimal` answer's dual: `y` is feasible for
/// the dual of `min cᵀy' : A y' = b, y' >= 0`, i.e. `yᵀA_j <= c_j` for
/// every standardized column `j`, and `yᵀb` plus the objective constant
/// is the objective (then no feasible `y'` costs less, by weak duality).
#[cfg(debug_assertions)]
fn check_dual_certificate(model: &Model, y: &[Rational], objective: &Rational) {
    let std = standardize(model);
    assert_eq!(y.len(), std.rows.len(), "dual has one entry per row");
    for (j, c) in std.costs.iter().enumerate() {
        let yaj: Rational = y.iter().zip(&std.rows).map(|(yr, row)| yr * &row[j]).sum();
        assert!(
            yaj <= *c,
            "dual certificate fails on column {j}: yᵀA_j = {yaj} > c_j = {c}"
        );
    }
    let yb: Rational = y.iter().zip(&std.rhs).map(|(yr, b)| yr * b).sum();
    assert_eq!(
        &(&yb + &std.obj_constant),
        objective,
        "dual certificate fails: yᵀb + constant differs from the objective"
    );
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
