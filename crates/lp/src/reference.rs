//! Dense reference for the exact LP path, for the differential tests
//! below.
//!
//! The same two-phase Bland simplex done densely: every constraint
//! padded to full width, rows standardized and then copied into a wider
//! tableau for the artificials, the phase-1 objective priced out over
//! every cell, pivots that update and meter every entry of each updated
//! row, and a ratio test that builds each quotient. Branch-and-bound
//! clones the parent for both children. It starts phase 1 in one of two
//! ways ([`Start`]): from the slack basis the production path uses, or
//! from the all-artificial basis that path used before. The tests drive
//! it and the production path over seeded random LPs and ILPs: from the
//! slack start they require the same outcome, the same `(row, col)`
//! pivot sequence and the same growth-meter readings; from the
//! all-artificial start, the same outcome class and objective.

use crate::model::{Cmp, LpOutcome, Model, Solution};
use aov_linalg::{AffineExpr, QVector};
use aov_numeric::Rational;

/// One pivot: `(row, col, limbs metered, widest entry metered)`.
pub(crate) type Pivot = (usize, usize, u64, u64);

thread_local! {
    /// Every pivot the production simplex made on this thread.
    static PIVOT_LOG: std::cell::RefCell<Vec<Pivot>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Degenerate (zero-ratio) pivots the reference made on this thread.
    static DEGENERATE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How phase 1 starts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Start {
    /// Each row whose slack has coefficient +1 (a zero-rhs `≥` row
    /// negated for it) starts on that slack; only the other rows get an
    /// artificial, and phase 1 stops once their sum is zero.
    Slack,
    /// Every row gets an artificial, and phase 1 runs to optimality.
    AllArtificial,
}

/// Records a pivot of the production simplex.
pub(crate) fn log_pivot(p: Pivot) {
    PIVOT_LOG.with(|log| log.borrow_mut().push(p));
}

#[derive(Clone)]
enum VarMap {
    Shifted { col: usize, lower: Rational },
    Split { pos: usize, neg: usize },
}

struct Standardized {
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
    /// Each row's slack column, `None` on equalities.
    slacks: Vec<Option<usize>>,
    costs: Vec<Rational>,
    obj_constant: Rational,
    maps: Vec<VarMap>,
    num_cols: usize,
}

fn pad(model: &Model, e: &AffineExpr) -> AffineExpr {
    let map: Vec<usize> = (0..e.dim()).collect();
    e.embed(model.num_vars(), &map)
}

fn standardize(model: &Model, start: Start) -> Standardized {
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
    let constraints: Vec<(AffineExpr, Cmp)> = model
        .constraints()
        .iter()
        .map(|(e, c)| (pad(model, e), *c))
        .collect();
    let upper_bounds = upper.iter().take(n).filter(|u| u.is_some()).count();
    let inequalities = upper_bounds
        + constraints
            .iter()
            .filter(|(_, cmp)| !matches!(cmp, Cmp::Eq))
            .count();
    let width = num_cols + inequalities;
    let mut rows: Vec<Vec<Rational>> = Vec::new();
    let mut rhs: Vec<Rational> = Vec::new();
    let mut slacks: Vec<Option<usize>> = Vec::new();
    let mut geq: Vec<bool> = Vec::new();
    let mut next_slack = num_cols;
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
        slacks.push(slack.is_some().then_some(next_slack));
        if let Some(slack) = slack {
            row[next_slack] = slack;
            next_slack += 1;
        }
        geq.push(cmp == Cmp::Ge);
        rows.push(row);
        rhs.push(b);
    };
    for (e, cmp) in constraints {
        let coeffs: Vec<(usize, Rational)> = e.coeffs().iter().cloned().enumerate().collect();
        push_constraint(&coeffs, e.constant_term(), cmp);
    }
    for (i, u) in upper.iter().enumerate().take(n) {
        if let Some(u) = u {
            push_constraint(&[(i, Rational::one())], &-u, Cmp::Le);
        }
    }
    for (r, b) in rhs.iter_mut().enumerate() {
        if b.is_negative() || (start == Start::Slack && b.is_zero() && geq[r]) {
            *b = -&*b;
            for v in rows[r].iter_mut() {
                *v = -&*v;
            }
        }
    }
    let obj = match model.objective() {
        Some(e) => pad(model, e),
        None => AffineExpr::zero(n),
    };
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
        slacks,
        costs,
        obj_constant,
        maps,
        num_cols: width,
    }
}

struct Tableau {
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
    basis: Vec<usize>,
    obj: Vec<Rational>,
    obj_rhs: Rational,
    log: Vec<Pivot>,
}

fn meter(limbs: &mut u64, bits: &mut u64, v: &Rational) {
    *limbs += (v.numer().limbs() + v.denom().limbs()) as u64;
    *bits = (*bits).max(v.numer().bits().max(v.denom().bits()) as u64);
}

fn eliminate(
    row: &mut [Rational],
    rhs: &mut Rational,
    pivot_row: &[Rational],
    pivot_rhs: &Rational,
    c: usize,
    limbs: &mut u64,
    bits: &mut u64,
) {
    let f = row[c].clone();
    for (v, p) in row.iter_mut().zip(pivot_row) {
        *v = &*v - &(&f * p);
        meter(limbs, bits, v);
    }
    *rhs = &*rhs - &(&f * pivot_rhs);
}

impl Tableau {
    fn pivot(&mut self, r: usize, c: usize) {
        let (mut limbs, mut bits) = (0, 0);
        let inv = self.rows[r][c].recip();
        for v in self.rows[r].iter_mut() {
            *v = &*v * &inv;
            meter(&mut limbs, &mut bits, v);
        }
        self.rhs[r] = &self.rhs[r] * &inv;
        let pivot_row = self.rows[r].clone();
        let pivot_rhs = self.rhs[r].clone();
        for i in 0..self.rows.len() {
            if i == r || self.rows[i][c].is_zero() {
                continue;
            }
            let (row, rhs) = (&mut self.rows[i], &mut self.rhs[i]);
            eliminate(row, rhs, &pivot_row, &pivot_rhs, c, &mut limbs, &mut bits);
            meter(&mut limbs, &mut bits, rhs);
        }
        if !self.obj[c].is_zero() {
            let mut obj_rhs = self.obj_rhs.clone();
            eliminate(
                &mut self.obj,
                &mut obj_rhs,
                &pivot_row,
                &pivot_rhs,
                c,
                &mut limbs,
                &mut bits,
            );
            self.obj_rhs = obj_rhs;
        }
        self.basis[r] = c;
        self.log.push((r, c, limbs, bits));
    }

    fn run(&mut self, active_cols: usize, until_zero: bool) -> bool {
        loop {
            if until_zero && self.obj_rhs.is_zero() {
                return true;
            }
            let Some(c) = (0..active_cols).find(|&j| self.obj[j].is_negative()) else {
                return true;
            };
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
                None => return false,
                Some((ratio, r)) => {
                    if ratio.is_zero() {
                        DEGENERATE.with(|d| d.set(d.get() + 1));
                    }
                    self.pivot(r, c);
                }
            }
        }
    }

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

/// Solves the LP relaxation densely from `start`; returns the outcome
/// and the pivots it made.
pub(crate) fn solve_lp(model: &Model, start: Start) -> (LpOutcome, Vec<Pivot>) {
    let std = standardize(model, start);
    let m = std.rows.len();
    let n = std.num_cols;
    // Each row's starting basic column: a slack with coefficient +1, or
    // the next artificial.
    let mut total = n;
    let basis: Vec<usize> = (std.slacks.iter().zip(&std.rows))
        .map(|(slack, row)| match slack {
            Some(s) if start == Start::Slack && row[*s].is_positive() => *s,
            _ => {
                total += 1;
                total - 1
            }
        })
        .collect();
    let mut rows = Vec::with_capacity(m);
    for (row, &b) in std.rows.iter().zip(&basis) {
        let mut full = row.clone();
        full.resize(total, Rational::zero());
        full[b] = Rational::one();
        rows.push(full);
    }
    let mut t = Tableau {
        rows,
        rhs: std.rhs.clone(),
        basis,
        obj: vec![Rational::zero(); total],
        obj_rhs: Rational::zero(),
        log: Vec::new(),
    };
    let mut phase1 = vec![Rational::zero(); total];
    for c in phase1.iter_mut().skip(n) {
        *c = Rational::one();
    }
    t.install_objective(&phase1, &Rational::zero());
    assert!(
        t.run(total, start == Start::Slack),
        "phase 1 is always bounded below by 0"
    );
    if !t.obj_rhs.is_zero() {
        return (LpOutcome::Infeasible, t.log);
    }
    let mut r = 0;
    while r < t.rows.len() {
        if t.basis[r] >= n {
            if let Some(c) = (0..n).find(|&c| !t.rows[r][c].is_zero()) {
                t.pivot(r, c);
            } else {
                t.rows.remove(r);
                t.rhs.remove(r);
                t.basis.remove(r);
                continue;
            }
        }
        r += 1;
    }
    t.install_objective(&std.costs, &std.obj_constant);
    if !t.run(n, false) {
        return (LpOutcome::Unbounded, t.log);
    }
    let mut y = vec![Rational::zero(); n];
    for (r, &b) in t.basis.iter().enumerate() {
        if b < n {
            y[b] = t.rhs[r].clone();
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
    (LpOutcome::Optimal(Solution { values, objective }), t.log)
}

/// Depth-first branch-and-bound over [`solve_lp`] from `start`, cloning
/// the parent into both children; returns the outcome and every
/// relaxation's pivots in solve order.
pub(crate) fn solve_ilp(model: &Model, start: Start) -> (LpOutcome, Vec<Pivot>) {
    let marks = model.integer_marks().to_vec();
    let mut log = Vec::new();
    let mut best: Option<Solution> = None;
    let mut nodes = 0usize;
    let mut stack = vec![model.clone()];
    while let Some(node) = stack.pop() {
        nodes += 1;
        let (outcome, pivots) = solve_lp(&node, start);
        log.extend(pivots);
        match outcome {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded if nodes == 1 => return (LpOutcome::Unbounded, log),
            LpOutcome::Unbounded => continue,
            LpOutcome::Optimal(sol) => {
                if best.as_ref().is_some_and(|b| sol.objective >= b.objective) {
                    continue;
                }
                let frac = (0..marks.len()).find(|&i| marks[i] && !sol.values[i].is_integer());
                let Some(i) = frac else {
                    best = Some(sol);
                    continue;
                };
                let v = &sol.values[i];
                let n = node.num_vars();
                let mut lo = node.clone();
                lo.constrain(
                    &AffineExpr::var(n, i) - &AffineExpr::constant(n, Rational::from(v.floor())),
                    Cmp::Le,
                );
                let mut hi = node.clone();
                hi.constrain(
                    &AffineExpr::var(n, i) - &AffineExpr::constant(n, Rational::from(v.ceil())),
                    Cmp::Ge,
                );
                stack.push(lo);
                stack.push(hi);
            }
        }
    }
    let outcome = best.map_or(LpOutcome::Infeasible, LpOutcome::Optimal);
    (outcome, log)
}

#[cfg(test)]
mod tests {
    use super::{Pivot, Start, DEGENERATE, PIVOT_LOG};
    use crate::{Cmp, LpOutcome, Model};
    use aov_linalg::{AffineExpr, QVector};
    use aov_numeric::Rational;
    use aov_support::Rng;

    /// A small sparse coefficient: zero with probability ~0.6, else a
    /// nonzero integer or (one time in four) a fraction.
    fn coeff(g: &mut Rng) -> Rational {
        if g.u64_below(5) < 3 {
            return Rational::zero();
        }
        let num = *g.choose(&[-3, -2, -1, 1, 2, 3]);
        let den = if g.u64_below(4) == 0 {
            g.i64_in(2, 3)
        } else {
            1
        };
        Rational::new(num, den)
    }

    /// A constant that is zero half the time (degenerate vertices).
    fn constant(g: &mut Rng) -> Rational {
        if g.bool() {
            Rational::zero()
        } else {
            Rational::from(g.i64_in(-6, 6))
        }
    }

    /// An expression over the first `dim` variables — shorter than the
    /// model when `dim` is, as the Farkas build and `add_abs_bound`
    /// produce.
    fn expr(g: &mut Rng, dim: usize) -> AffineExpr {
        let coeffs: QVector = (0..dim).map(|_| coeff(g)).collect();
        AffineExpr::from_parts(coeffs, constant(g))
    }

    /// A random LP: free, nonnegative, shifted and upper-bounded
    /// variables; an Eq/Le/Ge mix over variable prefixes; sometimes no
    /// objective. With `integer`, each variable is, with probability
    /// 2/3, marked integer and boxed to `[-4, 4]`, so branch-and-bound
    /// stays small while continuous variables can still be unbounded.
    fn general(g: &mut Rng, integer: bool) -> Model {
        let mut m = Model::new();
        let nv = g.usize_in(1, 6);
        for i in 0..nv {
            let v = m.add_var(format!("x{i}"));
            match g.u64_below(4) {
                0 => {}
                1 => m.set_lower_bound(v, Rational::zero()),
                _ => m.set_lower_bound(v, Rational::from(g.i64_in(-3, 3))),
            }
            if g.u64_below(4) == 0 {
                m.set_upper_bound(v, Rational::from(g.i64_in(-1, 6)));
            }
            if integer && g.u64_below(3) != 0 {
                m.set_lower_bound(v, Rational::from(-4));
                m.set_upper_bound(v, Rational::from(4));
                m.set_integer(v);
            }
        }
        for _ in 0..g.usize_in(0, 6) {
            let cmp = *g.choose(&[Cmp::Eq, Cmp::Le, Cmp::Ge, Cmp::Ge]);
            let dim = g.usize_in(0, nv);
            m.constrain(expr(g, dim), cmp);
        }
        if g.u64_below(5) != 0 {
            let dim = g.usize_in(0, nv);
            m.minimize(expr(g, dim));
        }
        m
    }

    /// The shape of a Problem 3 orthant model: free integer unknowns
    /// `v` with sign-pattern rows, then per storage row a block of
    /// nonnegative multipliers `λ` tied to `v` by equalities
    /// `lhs(v) − Σ_j mult_j λ_j == 0`, each written before later blocks'
    /// multipliers exist; objective `Σ |v_k|` through the pattern.
    fn farkas_shaped(g: &mut Rng, integer: bool) -> Model {
        let mut m = Model::new();
        let nv = g.usize_in(1, 3);
        let mut signs = Vec::with_capacity(nv);
        for k in 0..nv {
            let v = m.add_var(format!("v{k}"));
            if integer {
                m.set_integer(v);
            }
            signs.push(g.i64_in(-1, 1));
        }
        for block in 0..g.usize_in(1, 3) {
            let base = m.num_vars();
            let mults = g.usize_in(2, 5);
            for j in 0..mults {
                m.add_nonneg_var(format!("lam_{block}_{j}"));
            }
            let total = m.num_vars();
            for _ in 0..g.usize_in(1, 3) {
                let mut row = QVector::zeros(total);
                for k in 0..nv {
                    row[k] = coeff(g);
                }
                for j in 0..mults {
                    row[base + j] = Rational::from(*g.choose(&[-2, -1, 0, 1, 1, 2]));
                }
                m.constrain(AffineExpr::from_parts(row, constant(g)), Cmp::Eq);
            }
        }
        let n = m.num_vars();
        let mut obj = QVector::zeros(nv);
        for (k, &s) in signs.iter().enumerate() {
            let v = AffineExpr::var(n, k);
            match s {
                0 => m.constrain(v, Cmp::Eq),
                1 => m.constrain(&v - &AffineExpr::constant(n, Rational::one()), Cmp::Ge),
                _ => m.constrain(&v + &AffineExpr::constant(n, Rational::one()), Cmp::Le),
            }
            obj[k] = Rational::from(s);
        }
        m.minimize(AffineExpr::from_parts(obj, Rational::zero()));
        m
    }

    fn take_log() -> Vec<Pivot> {
        PIVOT_LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
    }

    /// Same `(row, col)` sequence and limbs per pivot; widths agree as
    /// running maxima (a pivot meters the widths of the entries it
    /// writes plus, on a row's first update, the rest of the row).
    fn assert_same_pivots(case: usize, got: &[Pivot], want: &[Pivot]) {
        let key = |p: &[Pivot]| -> Vec<(usize, usize, u64)> {
            p.iter().map(|&(r, c, l, _)| (r, c, l)).collect()
        };
        assert_eq!(key(got), key(want), "case {case}: pivot sequence");
        let running = |p: &[Pivot]| -> Vec<u64> {
            p.iter()
                .scan(0, |m, &(.., b)| {
                    *m = b.max(*m);
                    Some(*m)
                })
                .collect()
        };
        assert_eq!(running(got), running(want), "case {case}: widths");
    }

    #[test]
    fn sparse_path_matches_dense_reference_pivot_for_pivot() {
        let mut g = Rng::new(0x5EED_D1FF);
        let (mut lp, mut ilp) = ([0usize; 3], [0usize; 3]);
        let mut pivots = 0;
        for case in 0..1000 {
            let integer = case % 2 == 1;
            let m = if case % 4 < 2 {
                general(&mut g, integer)
            } else {
                farkas_shaped(&mut g, integer)
            };
            take_log();
            let (got, want) = if integer {
                (m.solve_ilp(), super::solve_ilp(&m, Start::Slack))
            } else {
                (m.solve_lp(), super::solve_lp(&m, Start::Slack))
            };
            let got_log = take_log();
            assert_eq!(got, want.0, "case {case}: outcome of\n{m}");
            assert_same_pivots(case, &got_log, &want.1);
            pivots += got_log.len();
            let tally = if integer { &mut ilp } else { &mut lp };
            tally[match got {
                LpOutcome::Optimal(_) => 0,
                LpOutcome::Infeasible => 1,
                _ => 2,
            }] += 1;
        }
        // The corpus reaches every outcome, LP and ILP alike.
        for (kind, tally) in [("lp", lp), ("ilp", ilp)] {
            assert!(
                tally.iter().all(|&n| n >= 10),
                "{kind} outcomes (optimal, infeasible, unbounded): {tally:?}"
            );
        }
        assert!(pivots > 2000, "only {pivots} pivots compared");
        let degenerate = DEGENERATE.with(|d| d.get());
        assert!(degenerate >= 100, "only {degenerate} degenerate pivots");
    }

    /// The outcome class and, when optimal, the objective.
    fn class(o: &LpOutcome) -> (usize, Option<Rational>) {
        match o {
            LpOutcome::Optimal(sol) => (0, Some(sol.objective.clone())),
            LpOutcome::Infeasible => (1, None),
            LpOutcome::Unbounded => (2, None),
        }
    }

    /// The slack start is a different route to the same optimum: on the
    /// same seeded LPs and ILPs as above, the production path and the
    /// all-artificial start reach the same outcome class and objective
    /// (the optimal vertex itself may differ when the optimum is not
    /// unique), and over the corpus the slack start pivots less.
    #[test]
    fn slack_start_matches_all_artificial_start() {
        let mut g = Rng::new(0x5EED_D1FF);
        let mut tally = [0usize; 3];
        let (mut slack_pivots, mut artificial_pivots) = (0, 0);
        for case in 0..1000 {
            let integer = case % 2 == 1;
            let m = if case % 4 < 2 {
                general(&mut g, integer)
            } else {
                farkas_shaped(&mut g, integer)
            };
            take_log();
            let (got, want) = if integer {
                (m.solve_ilp(), super::solve_ilp(&m, Start::AllArtificial))
            } else {
                (m.solve_lp(), super::solve_lp(&m, Start::AllArtificial))
            };
            slack_pivots += take_log().len();
            artificial_pivots += want.1.len();
            assert_eq!(class(&got), class(&want.0), "case {case}: outcome of\n{m}");
            tally[class(&got).0.min(2)] += 1;
        }
        assert!(
            tally.iter().all(|&n| n >= 20),
            "outcomes (optimal, infeasible, unbounded): {tally:?}"
        );
        assert!(
            slack_pivots < artificial_pivots,
            "slack start {slack_pivots} pivots, all-artificial {artificial_pivots}"
        );
    }
}
