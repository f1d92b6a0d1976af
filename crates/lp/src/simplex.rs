//! Exact two-phase primal simplex with Bland's rule.
//!
//! The model is standardized (free variables split, lower bounds shifted,
//! one slack/surplus per inequality) into `A y = b`, `y >= 0`, `b >= 0`,
//! then solved in two phases over exact rationals. Bland's
//! smallest-index pivoting rule guarantees termination without cycling.
//!
//! **`|x|` terms.** A weight `w` on `|x|` costs `w` on both split
//! columns of a free `x`: at an optimum one of them is zero, so their
//! sum is `|x|`, with no row or auxiliary column. When `x`'s bounds fix
//! its sign it takes one column: shifted above a lower bound `>= 0`
//! (cost `w·x`), or mirrored below an upper bound `<= 0` as
//! `x = u − y` (cost `−w·x`). A variable with a `|x|` term and a
//! negative lower bound is split, and that bound becomes a row.
//!
//! **Tie phases.** With a tie order, phase 2 is followed by one phase
//! per tie variable that minimizes it, entering only columns with zero
//! reduced cost in phase 2 and in every earlier tie phase. Those pivots
//! keep every earlier objective row as it is, so the point stays on the
//! optimal face and ends at the lexicographic minimum of the tie order
//! there. The objective and the dual certificate are read after phase 2.
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
//! paper's homogeneous storage and generator rows, and the evenness
//! rows, all start on their slacks.
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
//! against the model and against its dual read off the tableau at the
//! end of phase 2, an `Infeasible` one against a Farkas ray read off
//! phase 1.

use crate::model::{Cmp, LpOutcome, Model, Solution, VarId};
use aov_fault::{AovError, Budget, BudgetExceeded};
use aov_linalg::QVector;
use aov_numeric::Rational;
use std::cmp::Ordering;

/// How each original model variable maps into standardized columns.
#[derive(Debug, Clone)]
enum VarMap {
    /// `x = lower + y[col]`
    Shifted { col: usize, lower: Rational },
    /// `x = upper − y[col]`, for a `|x|` term below an upper bound `<= 0`
    Mirrored { col: usize, upper: Rational },
    /// `x = y[pos] - y[neg]`
    Split { pos: usize, neg: usize },
}

impl VarMap {
    /// Variable `i`'s map (see the module doc's `|x|` terms).
    fn of(i: usize, model: &Model, next_col: &mut usize) -> VarMap {
        let (lower, upper) = model.bounds();
        let abs = !model.abs_costs()[i].is_zero();
        let col = *next_col;
        *next_col += 1;
        match (&lower[i], &upper[i]) {
            (Some(l), _) if !abs || !l.is_negative() => VarMap::Shifted {
                col,
                lower: l.clone(),
            },
            (_, Some(u)) if abs && !u.is_positive() => VarMap::Mirrored {
                col,
                upper: u.clone(),
            },
            _ => {
                *next_col += 1;
                VarMap::Split {
                    pos: col,
                    neg: col + 1,
                }
            }
        }
    }

    /// The constant part of `x`.
    fn offset(&self) -> Option<&Rational> {
        match self {
            VarMap::Shifted { lower: o, .. } | VarMap::Mirrored { upper: o, .. } => Some(o),
            VarMap::Split { .. } => None,
        }
    }

    /// Adds the column part of `c·x` to `row`.
    fn put(&self, c: &Rational, row: &mut [Rational]) {
        match self {
            VarMap::Shifted { col, .. } => row[*col] += c,
            VarMap::Mirrored { col, .. } => row[*col] -= c,
            VarMap::Split { pos, neg } => {
                row[*pos] += c;
                row[*neg] -= c;
            }
        }
    }

    /// Adds `c·x` to `costs` and its constant part to `constant`.
    fn price(&self, c: &Rational, costs: &mut [Rational], constant: &mut Rational) {
        self.put(c, costs);
        if let Some(o) = self.offset() {
            *constant += &(c * o);
        }
    }

    /// Adds `w·|x|`, `w >= 0`.
    fn price_abs(&self, w: &Rational, costs: &mut [Rational], constant: &mut Rational) {
        match self {
            VarMap::Shifted { .. } => self.price(w, costs, constant),
            VarMap::Mirrored { .. } => self.price(&-w, costs, constant),
            VarMap::Split { pos, neg } => {
                costs[*pos] += w;
                costs[*neg] += w;
            }
        }
    }

    fn value(&self, y: &[Rational]) -> Rational {
        match self {
            VarMap::Shifted { col, lower } => lower + &y[*col],
            VarMap::Mirrored { col, upper } => upper - &y[*col],
            VarMap::Split { pos, neg } => &y[*pos] - &y[*neg],
        }
    }
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
    let maps: Vec<VarMap> = (0..n)
        .map(|i| VarMap::of(i, model, &mut num_cols))
        .collect();

    // Every row as `coeffs·x cmp −constant`: the constraints, then the
    // bounds the maps do not encode, per variable `x >= l` before
    // `x <= u`.
    let constraints = model.constraints();
    let unit = |i: usize, bound: &Rational, cmp: Cmp| {
        let mut unit = vec![Rational::zero(); i + 1];
        unit[i] = Rational::one();
        (unit, -bound, cmp)
    };
    let units: Vec<(Vec<Rational>, Rational, Cmp)> = maps
        .iter()
        .enumerate()
        .flat_map(|(i, map)| {
            let lo = lower[i]
                .as_ref()
                .filter(|_| !matches!(map, VarMap::Shifted { .. }))
                .map(|l| unit(i, l, Cmp::Ge));
            let hi = upper[i]
                .as_ref()
                .filter(|_| !matches!(map, VarMap::Mirrored { .. }))
                .map(|u| unit(i, u, Cmp::Le));
            lo.into_iter().chain(hi)
        })
        .collect();
    let sources = || {
        constraints
            .iter()
            .map(|(e, cmp)| (e.coeffs().as_slice(), e.constant_term(), *cmp))
            .chain(units.iter().map(|(u, c, cmp)| (u.as_slice(), c, *cmp)))
    };
    let num_rows = constraints.len() + units.len();
    // One slack/surplus column per inequality, after the variable
    // columns and in row order; then the artificials.
    let width = num_cols + sources().filter(|(.., cmp)| *cmp != Cmp::Eq).count();

    // First pass: each row's rhs with the bounds shifted out, and its
    // orientation. A row is negated when its rhs is negative, or zero
    // on a `≥` row, so that every rhs is nonnegative and every slack
    // that can start basic has coefficient +1.
    let mut rhs: Vec<Rational> = Vec::with_capacity(num_rows);
    let mut negated: Vec<bool> = Vec::with_capacity(num_rows);
    let mut artificials = 0usize;
    for (coeffs, constant, cmp) in sources() {
        let mut b = -constant;
        for (var, c) in coeffs.iter().enumerate() {
            if let Some(offset) = maps[var].offset() {
                if !c.is_zero() && !offset.is_zero() {
                    b -= &(c * offset);
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
            if !c.is_zero() {
                maps[var].put(c, &mut row);
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

    // Phase-2 costs over standardized columns: the affine part, then
    // the `|x|` terms.
    let mut costs = vec![Rational::zero(); width];
    let mut obj_constant = Rational::zero();
    if let Some(obj) = model.objective() {
        obj_constant = obj.constant_term().clone();
        for (i, c) in obj.coeffs().iter().enumerate() {
            if !c.is_zero() {
                maps[i].price(c, &mut costs, &mut obj_constant);
            }
        }
    }
    for (map, w) in maps.iter().zip(model.abs_costs()) {
        if !w.is_zero() {
            map.price_abs(w, &mut costs, &mut obj_constant);
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
    /// objective is the sum of the artificials (the columns from `n` on).
    fn phase1(
        rows: Vec<Vec<Rational>>,
        rhs: Vec<Rational>,
        start: Vec<usize>,
        n: usize,
    ) -> Tableau {
        let width = rows.first().map_or(n, Vec::len);
        let mut t = Tableau {
            row_limbs: vec![None; rows.len()],
            rows,
            rhs,
            basis: start,
            obj: vec![Rational::zero(); width],
            obj_rhs: Rational::zero(),
            obj_limbs: None,
        };
        let costs: Vec<Rational> = (0..width)
            .map(|j| Rational::from(i64::from(j >= n)))
            .collect();
        t.install_objective(&costs, &Rational::zero());
        t
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

    /// Runs simplex iterations with Bland's rule on the columns
    /// `may_enter` accepts; with `until_zero`, stops as soon as the
    /// objective reaches zero (phase 1: the start is then feasible).
    /// Returns `false` when unbounded.
    fn run(
        &mut self,
        may_enter: impl Fn(usize) -> bool,
        until_zero: bool,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        loop {
            if until_zero && self.obj_rhs.is_zero() {
                return Ok(true);
            }
            // Bland: entering column = smallest index with negative
            // reduced cost.
            let columns = 0..self.obj.len();
            let Some(c) = columns
                .into_iter()
                .find(|&j| may_enter(j) && self.obj[j].is_negative())
            else {
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
    /// The tie phases (see the module doc). Returns `false` when a tie
    /// variable is unbounded below on the optimal face.
    fn break_ties(
        &mut self,
        ties: &[VarId],
        maps: &[VarMap],
        n: usize,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        let mut allowed: Vec<bool> = self.obj[..n].iter().map(Rational::is_zero).collect();
        for v in ties {
            // Basic columns are always allowed; once no other column
            // is, the optimal face is one point.
            if allowed.iter().filter(|&&a| a).count() == self.rows.len() {
                break;
            }
            let (mut costs, mut constant) = (vec![Rational::zero(); n], Rational::zero());
            maps[v.index()].price(&Rational::one(), &mut costs, &mut constant);
            self.install_objective(&costs, &constant);
            if !self.run(|j| j < n && allowed[j], false, budget)? {
                return Ok(false);
            }
            for (a, d) in allowed.iter_mut().zip(&self.obj) {
                *a &= d.is_zero();
            }
        }
        Ok(true)
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
    let bounded = t.run(|_| true, true, budget)?;
    debug_assert!(bounded, "phase 1 is always bounded below by 0");
    // Optimal phase-1 objective is -obj_rhs.
    if !t.obj_rhs.is_zero() {
        #[cfg(debug_assertions)]
        check_certificate(model, &duals(&t.obj, &start, n, true), None);
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
    // Phase 2 on original costs; artificial columns may not enter.
    t.install_objective(&std.costs, &std.obj_constant);
    if !t.run(|j| j < n, false, budget)? {
        return Ok(LpOutcome::Unbounded);
    }
    let objective = -&t.obj_rhs;
    #[cfg(debug_assertions)]
    let dual = duals(&t.obj, &start, n, false);
    if !t.break_ties(model.tie_order(), &std.maps, n, budget)? {
        return Ok(LpOutcome::Unbounded);
    }
    let mut y = vec![Rational::zero(); n];
    for (r, &b) in t.basis.iter().enumerate() {
        if b < n {
            y[b] = std::mem::take(&mut t.rhs[r]);
        }
    }
    let values: QVector = std.maps.iter().map(|m| m.value(&y)).collect();
    #[cfg(debug_assertions)]
    {
        check_optimal_answer(model, &values, &objective);
        check_certificate(model, &dual, Some(&objective));
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
/// the objective is the objective, `|x|` terms included, evaluated at
/// them.
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
        let (lo, hi) = (&lower[i], &upper[i]);
        let inside = lo.as_ref().is_none_or(|l| x >= l) && hi.as_ref().is_none_or(|u| x <= u);
        assert!(
            inside,
            "simplex answer x{i} = {x} is outside its bounds {lo:?}, {hi:?}"
        );
    }
    assert_eq!(
        objective,
        &model.objective_at(values),
        "simplex objective differs from the objective at its values"
    );
}

/// Debug-build check of a certificate `y` for the standardized system
/// `A y' = b, y' >= 0`: `yᵀA_j <= c_j` on every column `j`. For an
/// `Optimal` answer `c` is the phase-2 costs and `yᵀb` plus the
/// objective constant is the objective, so no feasible `y'` costs less
/// (weak duality). For an `Infeasible` verdict (`objective` `None`) `c`
/// is zero and `yᵀb > 0`, a Farkas ray: `0 >= yᵀA y' = yᵀb > 0` for any
/// feasible `y'`, a contradiction.
#[cfg(debug_assertions)]
fn check_certificate(model: &Model, y: &[Rational], objective: Option<&Rational>) {
    let std = standardize(model);
    assert_eq!(y.len(), std.rows.len(), "certificate has one entry per row");
    let zero = Rational::zero();
    for j in 0..std.num_cols {
        let c = objective.map_or(&zero, |_| &std.costs[j]);
        let yaj: Rational = y.iter().zip(&std.rows).map(|(yr, row)| yr * &row[j]).sum();
        assert!(
            yaj <= *c,
            "certificate fails on column {j}: yᵀA_j = {yaj} > c_j = {c}"
        );
    }
    let yb: Rational = y.iter().zip(&std.rhs).map(|(yr, b)| yr * b).sum();
    match objective {
        Some(objective) => assert_eq!(
            &(&yb + &std.obj_constant),
            objective,
            "dual certificate fails: yᵀb + constant differs from the objective"
        ),
        None => assert!(
            yb.is_positive(),
            "infeasibility certificate fails: yᵀb = {yb} <= 0"
        ),
    }
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

    /// `min w·|x|` over `x` in `[lo, hi]` (either end open), as an LP:
    /// the bounds pick the map (free: split, `lo >= 0`: shifted,
    /// `hi <= 0` without such a `lo`: mirrored, a negative `lo`: split
    /// with a bound row), and the answer is the point nearest zero.
    fn abs_lp(
        lo: Option<Rational>,
        hi: Option<Rational>,
        row: Option<(i64, i64)>,
    ) -> (Rational, Rational) {
        let mut m = Model::new();
        let x = m.add_var("x");
        if let Some(l) = lo {
            m.set_lower_bound(x, l);
        }
        if let Some(u) = hi {
            m.set_upper_bound(x, u);
        }
        if let Some((a, b)) = row {
            m.constrain(AffineExpr::from_i64(&[a], b), Cmp::Ge);
        }
        m.add_abs_cost(x, 3.into());
        let sol = m.solve_lp().optimal().expect("feasible");
        (sol.value(x).clone(), sol.objective)
    }

    #[test]
    fn abs_cost_on_a_free_variable() {
        // min 3|x| s.t. x <= -2 (a row): -2 at 6, on the split columns.
        assert_eq!(abs_lp(None, None, Some((-1, -2))), (r(-2, 1), r(6, 1)));
        // x >= 5/2 (a row) and no bound: 5/2 at 15/2.
        assert_eq!(abs_lp(None, None, Some((2, -5))), (r(5, 2), r(15, 2)));
        // Unconstrained: zero.
        assert_eq!(abs_lp(None, None, None), (r(0, 1), r(0, 1)));
    }

    #[test]
    fn abs_cost_once_the_bounds_fix_the_sign() {
        // x >= 0 and x >= 3/2: shifted, |x| = x.
        assert_eq!(
            abs_lp(Some(r(0, 1)), None, Some((2, -3))),
            (r(3, 2), r(9, 2))
        );
        assert_eq!(
            abs_lp(Some(r(2, 1)), Some(r(5, 1)), None),
            (r(2, 1), r(6, 1))
        );
        // x <= 0 and x <= -7/3: mirrored, |x| = -x.
        assert_eq!(
            abs_lp(None, Some(r(0, 1)), Some((-3, -7))),
            (r(-7, 3), r(7, 1))
        );
        assert_eq!(
            abs_lp(Some(r(-9, 1)), Some(r(-4, 1)), None),
            (r(-4, 1), r(12, 1))
        );
        assert_eq!(abs_lp(None, Some(r(-1, 2)), None), (r(-1, 2), r(3, 2)));
    }

    #[test]
    fn abs_cost_on_bounds_across_zero() {
        // -2 <= x <= 5 holds zero: split, with the lower bound as a row.
        assert_eq!(
            abs_lp(Some(r(-2, 1)), Some(r(5, 1)), None),
            (r(0, 1), r(0, 1))
        );
        // -2 <= x and x >= -1 (a row): still zero.
        assert_eq!(
            abs_lp(Some(r(-2, 1)), None, Some((1, 1))),
            (r(0, 1), r(0, 1))
        );
        // -2 <= x <= 5 but x <= -1 (a row): -1 at 3.
        assert_eq!(
            abs_lp(Some(r(-2, 1)), Some(r(5, 1)), Some((-1, -1))),
            (r(-1, 1), r(3, 1))
        );
        // x <= 4 and x >= 1 (a row): 1 at 3.
        assert_eq!(
            abs_lp(None, Some(r(4, 1)), Some((1, -1))),
            (r(1, 1), r(3, 1))
        );
    }

    /// `min |x| + |y|` s.t. `x + y == 1`: every point of the segment from
    /// `(1, 0)` to `(0, 1)` is optimal; the tie order picks its end.
    #[test]
    fn tie_order_picks_the_lexicographic_minimum() {
        let solve = |order: &[usize]| {
            let mut m = Model::new();
            let x = m.add_var("x");
            let y = m.add_var("y");
            m.constrain(AffineExpr::from_i64(&[1, 1], -1), Cmp::Eq);
            m.add_abs_cost(x, 1.into());
            m.add_abs_cost(y, 1.into());
            m.set_tie_order(order.iter().map(|&i| crate::VarId::from_index(i)).collect());
            let sol = m.solve_lp().optimal().expect("feasible");
            assert_eq!(sol.objective, r(1, 1));
            (sol.value(x).clone(), sol.value(y).clone())
        };
        assert_eq!(solve(&[0, 1]), (r(0, 1), r(1, 1)));
        assert_eq!(solve(&[1, 0]), (r(1, 1), r(0, 1)));
        assert_eq!(solve(&[1]), (r(1, 1), r(0, 1)));
    }

    /// A tie variable unbounded below on the optimal face leaves no
    /// lexicographic minimum.
    #[test]
    fn unbounded_tie_variable_is_unbounded() {
        let mut m = Model::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_abs_cost(x, 1.into());
        m.set_tie_order(vec![x, y]);
        assert_eq!(m.solve_lp(), LpOutcome::Unbounded);
        m.set_tie_order(vec![x]);
        assert_eq!(m.solve_lp().optimal().unwrap().value(x), &Rational::zero());
    }
}
