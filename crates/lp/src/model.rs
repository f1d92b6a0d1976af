//! LP/ILP model builder.

use crate::branch_bound;
use crate::simplex;
use aov_fault::{AovError, Budget};
use aov_linalg::{AffineExpr, QVector, VarSet};
use aov_numeric::Rational;

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of this variable in the model's variable space (the
    /// coefficient position in [`AffineExpr`]s passed to
    /// [`Model::constrain`]).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from an index previously obtained via
    /// [`VarId::index`] (or from a parallel variable layout like a
    /// schedule space). The index must refer to an existing variable of
    /// the model it is used with.
    pub fn from_index(index: usize) -> VarId {
        VarId(index)
    }
}

/// Relation of a constraint expression to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr >= 0`
    Ge,
    /// `expr <= 0`
    Le,
    /// `expr == 0`
    Eq,
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Value of each model variable, indexed by [`VarId::index`].
    pub values: QVector,
    /// Objective value at `values`.
    pub objective: Rational,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, v: VarId) -> &Rational {
        &self.values[v.0]
    }
}

/// Outcome of an LP/ILP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(Solution),
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// The solution, if optimal.
    pub fn optimal(self) -> Option<Solution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// A linear (or mixed-integer) program: minimize `c·x + Σ w_i·|x_i|`
/// (`w_i >= 0`) subject to affine constraints, bounds and optional
/// integrality marks, with ties among optima broken by an optional
/// lexicographic order ([`Model::set_tie_order`]).
///
/// Variables are unbounded (free) by default. Constraint expressions are
/// affine forms over the model variables in creation order; expressions of
/// smaller dimension (built before later variables were added) are stored
/// as given and read as zero on the missing variables.
///
/// # Examples
///
/// ```
/// use aov_lp::{Model, Cmp};
/// use aov_linalg::AffineExpr;
///
/// let mut m = Model::new();
/// let _x = m.add_var("x");
/// m.set_lower_bound(_x, 1.into());
/// m.minimize(AffineExpr::from_i64(&[3], 0));
/// let sol = m.solve_lp().optimal().unwrap();
/// assert_eq!(sol.objective, 3.into());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Model {
    vars: VarSet,
    lower: Vec<Option<Rational>>,
    upper: Vec<Option<Rational>>,
    integer: Vec<bool>,
    /// Each variable's `|x|` weight in the objective (zero: none).
    abs_costs: Vec<Rational>,
    constraints: Vec<(AffineExpr, Cmp)>,
    objective: Option<AffineExpr>,
    /// Variables minimized in turn among the optimal points.
    tie_order: Vec<VarId>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a free continuous variable.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn add_var<S: Into<String>>(&mut self, name: S) -> VarId {
        let idx = self.vars.add(name);
        self.lower.push(None);
        self.upper.push(None);
        self.integer.push(false);
        self.abs_costs.push(Rational::zero());
        VarId(idx)
    }

    /// Adds a nonnegative continuous variable.
    pub fn add_nonneg_var<S: Into<String>>(&mut self, name: S) -> VarId {
        let v = self.add_var(name);
        self.set_lower_bound(v, Rational::zero());
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Iterator over all variable handles, in creation order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.num_vars()).map(VarId)
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets a lower bound.
    pub fn set_lower_bound(&mut self, v: VarId, bound: Rational) {
        self.lower[v.0] = Some(bound);
    }

    /// Sets an upper bound.
    pub fn set_upper_bound(&mut self, v: VarId, bound: Rational) {
        self.upper[v.0] = Some(bound);
    }

    /// Marks a variable as integer for [`Model::solve_ilp`].
    pub fn set_integer(&mut self, v: VarId) {
        self.integer[v.0] = true;
    }

    /// Adds the constraint `expr cmp 0`.
    ///
    /// # Panics
    ///
    /// Panics if `expr` has more coefficients than the model has
    /// variables.
    pub fn constrain(&mut self, expr: AffineExpr, cmp: Cmp) {
        assert!(
            expr.dim() <= self.num_vars(),
            "constraint over {} vars but model has {}",
            expr.dim(),
            self.num_vars()
        );
        self.constraints.push((expr, cmp));
    }

    /// Sets the affine part of the objective to minimize; the `|x|`
    /// terms of [`Model::add_abs_cost`] add to it.
    ///
    /// # Panics
    ///
    /// Panics if `expr` has more coefficients than the model has
    /// variables.
    pub fn minimize(&mut self, expr: AffineExpr) {
        assert!(
            expr.dim() <= self.num_vars(),
            "objective dimension mismatch"
        );
        self.objective = Some(expr);
    }

    /// Adds `weight·|x|` to the objective, priced on the simplex's own
    /// columns for `x` (§4.5.1's `x = w − z` split): no row, no variable.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative: `|x|` may only be pressed down.
    pub fn add_abs_cost(&mut self, x: VarId, weight: Rational) {
        assert!(!weight.is_negative(), "|x| weight {weight} is negative");
        self.abs_costs[x.0] += &weight;
    }

    /// Defines the answer among tied optima: the one whose values of
    /// `order` are lexicographically smallest. Each variable of `order`
    /// must be bounded below on the optimal face (a `|x|` term makes
    /// sure of that), or the solve is [`LpOutcome::Unbounded`].
    pub fn set_tie_order(&mut self, order: Vec<VarId>) {
        self.tie_order = order;
    }

    /// The stored constraints, each over a prefix of the variables
    /// (missing trailing coefficients are zero).
    pub(crate) fn constraints(&self) -> &[(AffineExpr, Cmp)] {
        &self.constraints
    }

    /// The stored objective, over a prefix of the variables; `None`
    /// means the zero objective.
    pub(crate) fn objective(&self) -> Option<&AffineExpr> {
        self.objective.as_ref()
    }

    pub(crate) fn bounds(&self) -> (&[Option<Rational>], &[Option<Rational>]) {
        (&self.lower, &self.upper)
    }

    pub(crate) fn integer_marks(&self) -> &[bool] {
        &self.integer
    }

    pub(crate) fn abs_costs(&self) -> &[Rational] {
        &self.abs_costs
    }

    pub(crate) fn tie_order(&self) -> &[VarId] {
        &self.tie_order
    }

    /// The objective at `values`: the affine part plus every `|x|` term.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn objective_at(&self, values: &QVector) -> Rational {
        let mut total = self.objective.as_ref().map_or_else(Rational::zero, |e| {
            e.eval(&values.iter().take(e.dim()).cloned().collect())
        });
        for (w, x) in self.abs_costs.iter().zip(values.iter()) {
            if !w.is_zero() {
                total += &(w * &x.abs());
            }
        }
        total
    }

    /// A memoization key (see [`memo`](crate::memo)): the model rendered
    /// with every variable alpha-renamed to its positional index
    /// (`x0`, `x1`, …), so structurally identical models key equal
    /// regardless of variable naming. This is sound because LP outcomes
    /// are positional too ([`Solution::values`] is indexed by
    /// [`VarId::index`], never by name).
    pub fn canonical_key(&self) -> String {
        use std::fmt::Write;
        fn push_expr(out: &mut String, e: &AffineExpr) {
            for (k, c) in e.coeffs().iter().enumerate() {
                if !c.is_zero() {
                    let _ = write!(out, "{c}*x{k}+");
                }
            }
            let _ = write!(out, "{}", e.constant_term());
        }
        let mut out = String::with_capacity(64 * (1 + self.constraints.len()));
        out.push_str("min ");
        push_expr(
            &mut out,
            self.objective.as_ref().unwrap_or(&AffineExpr::default()),
        );
        for (k, w) in self.abs_costs.iter().enumerate() {
            if !w.is_zero() {
                let _ = write!(out, "+{w}*|x{k}|");
            }
        }
        if !self.tie_order.is_empty() {
            out.push_str("\nlex");
            for v in &self.tie_order {
                let _ = write!(out, " x{}", v.0);
            }
        }
        for (e, c) in &self.constraints {
            out.push('\n');
            out.push_str(match c {
                Cmp::Ge => ">=0 ",
                Cmp::Le => "<=0 ",
                Cmp::Eq => "==0 ",
            });
            push_expr(&mut out, e);
        }
        for (i, (lo, hi)) in self.lower.iter().zip(&self.upper).enumerate() {
            if lo.is_some() || hi.is_some() || self.integer[i] {
                let _ = write!(out, "\nx{i}");
                if let Some(l) = lo {
                    let _ = write!(out, " >= {l}");
                }
                if let Some(u) = hi {
                    let _ = write!(out, " <= {u}");
                }
                if self.integer[i] {
                    out.push_str(" int");
                }
            }
        }
        out
    }

    /// Solves the continuous relaxation with exact two-phase simplex.
    ///
    /// Infallible entry point: runs with an unlimited [`Budget`], so
    /// only an injected fault interrupts it.
    ///
    /// # Panics
    ///
    /// On an injected fault; budget-aware callers use
    /// [`Model::solve_lp_budgeted`].
    pub fn solve_lp(&self) -> LpOutcome {
        unfailing(self.solve_lp_budgeted(&Budget::unlimited()))
    }

    /// Solves the continuous relaxation under `budget`, checked at
    /// pivot granularity.
    ///
    /// When [`memo::enabled`](crate::memo::enabled) holds, the solve
    /// first looks up the model's [canonical key](Model::canonical_key)
    /// in the [`memo`](crate::memo); on a miss it runs the simplex and
    /// caches the outcome only if the simplex finishes.
    ///
    /// # Errors
    ///
    /// [`AovError::BudgetExceeded`] when a pivot/deadline limit trips;
    /// injected chaos faults otherwise.
    pub fn solve_lp_budgeted(&self, budget: &Budget) -> Result<LpOutcome, AovError> {
        // Hot: with tracing off the ring already shows each solve as
        // its `lp.simplex` span (or, under the memo, its lookup).
        let _span = aov_trace::hot_span!(
            "lp.solve",
            vars = self.num_vars(),
            constraints = self.num_constraints()
        );
        self.record_coeff_bits();
        if !crate::memo::enabled() {
            let _s = aov_trace::span!("lp.simplex");
            return simplex::solve(self, budget);
        }
        let key = {
            let _s = aov_trace::span!("lp.canonicalize");
            self.canonical_key()
        };
        let cached = {
            let _s = aov_trace::span!("lp.memo.lookup");
            crate::memo::lookup(&key)
        };
        if let Some(outcome) = cached {
            return Ok(outcome);
        }
        let outcome = {
            let _s = aov_trace::span!("lp.simplex");
            simplex::solve(self, budget)?
        };
        crate::memo::insert(key, outcome.clone());
        Ok(outcome)
    }

    /// One pass over the model's input coefficients per solve, raising
    /// `lp.solve.coeff_bits_max` to the widest numerator or denominator:
    /// how wide the *inputs* were, where `lp.simplex.coeff_bits_max`
    /// (updated per pivot) says how wide the tableau *grew*.
    fn record_coeff_bits(&self) {
        let bits = |v: &Rational| v.numer().bits().max(v.denom().bits()) as u64;
        let rows = (self.constraints.iter())
            .flat_map(|(e, _)| e.coeffs().iter().chain([e.constant_term()]));
        let objective = self.objective.iter().flat_map(|e| e.coeffs().iter());
        let abs = self.abs_costs.iter().filter(|w| !w.is_zero());
        let widest = rows
            .chain(objective)
            .chain(abs)
            .map(bits)
            .max()
            .unwrap_or(0);
        aov_support::static_max_counter!("lp.solve.coeff_bits_max").record(widest);
        aov_support::alloc::record_bits(widest);
    }

    /// Solves with integrality on variables marked by
    /// [`Model::set_integer`], via branch-and-bound on the exact simplex.
    ///
    /// Infallible entry point with an unlimited [`Budget`].
    ///
    /// # Panics
    ///
    /// On an injected fault or when branch-and-bound exceeds its node
    /// backstop; budget-aware callers use
    /// [`Model::solve_ilp_budgeted`].
    pub fn solve_ilp(&self) -> LpOutcome {
        unfailing(self.solve_ilp_budgeted(&Budget::unlimited()))
    }

    /// Branch-and-bound under `budget`: nodes charge
    /// [`Budget::tick_node`], every relaxation charges pivots.
    ///
    /// # Errors
    ///
    /// [`AovError::BudgetExceeded`] when a node/pivot/deadline limit
    /// trips, or when branch-and-bound exceeds its node backstop
    /// (site `lp.ilp`) under any budget; injected chaos faults
    /// otherwise.
    pub fn solve_ilp_budgeted(&self, budget: &Budget) -> Result<LpOutcome, AovError> {
        branch_bound::solve(self, budget)
    }
}

/// Exact queries over the region a list of affine rows cuts out of
/// `Q^dim`: the one model builder behind every emptiness, implication
/// and extremum LP outside the solvers. Each query goes through
/// [`Model::solve_lp`], which panics on a fault instead of guessing a
/// verdict.
impl Model {
    /// The region `{x ∈ Q^dim | e cmp 0 for each (e, cmp) of rows}` as a
    /// model over the free variables `x0, x1, …`, without an objective.
    pub fn over_rows<'a>(
        dim: usize,
        rows: impl IntoIterator<Item = (&'a AffineExpr, Cmp)>,
    ) -> Model {
        let mut m = Model::new();
        for k in 0..dim {
            m.add_var(format!("x{k}"));
        }
        for (e, cmp) in rows {
            m.constrain(e.clone(), cmp);
        }
        m
    }

    /// Whether no point satisfies the constraints (phase-1 simplex).
    pub fn is_infeasible(&self) -> bool {
        self.solve_lp() == LpOutcome::Infeasible
    }

    /// Whether `e >= 0` holds on the whole feasible region (vacuously
    /// when it is empty).
    pub fn implies_nonneg(&self, e: &AffineExpr) -> bool {
        match self.minimizing(e) {
            LpOutcome::Optimal(sol) => !sol.objective.is_negative(),
            outcome => outcome == LpOutcome::Infeasible,
        }
    }

    /// The minimum of `e` over the feasible region: `Some` when
    /// attained, `None` when the region is empty or `e` is unbounded
    /// below on it.
    pub fn minimum(&self, e: &AffineExpr) -> Option<Rational> {
        self.minimizing(e).optimal().map(|sol| sol.objective)
    }

    /// The maximum of `e` (see [`Model::minimum`]).
    pub fn maximum(&self, e: &AffineExpr) -> Option<Rational> {
        self.minimum(&-e).map(|v| -v)
    }

    fn minimizing(&self, e: &AffineExpr) -> LpOutcome {
        let mut m = self.clone();
        m.minimize(e.clone());
        m.solve_lp()
    }
}

/// The outcome of an unbudgeted solve, which only a fault interrupts:
/// a guessed verdict would corrupt the caller's result, so it panics.
fn unfailing(result: Result<LpOutcome, AovError>) -> LpOutcome {
    match result {
        Ok(outcome) => outcome,
        Err(e) => panic!("solver fault during an unbudgeted LP solve: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expressions written before later variables existed, as the
    /// Farkas build writes them, plus bounds and integer marks.
    fn short_model() -> Model {
        let mut m = Model::new();
        let x = m.add_var("x");
        m.constrain(
            AffineExpr::from_parts(QVector::from_vec(vec![Rational::new(1, 2)]), (-3).into()),
            Cmp::Ge,
        );
        let y = m.add_nonneg_var("y");
        m.set_integer(y);
        m.constrain(AffineExpr::from_i64(&[1, 0], -4), Cmp::Eq);
        let z = m.add_var("z");
        m.set_lower_bound(z, (-1).into());
        m.set_upper_bound(z, Rational::new(7, 3));
        m.set_integer(x);
        m.constrain(AffineExpr::from_i64(&[0, 2, -1], 0), Cmp::Le);
        m.minimize(AffineExpr::from_i64(&[0, 1], 5));
        m
    }

    #[test]
    fn region_queries() {
        let ge = |coeffs: &[i64], c: i64| (AffineExpr::from_i64(coeffs, c), Cmp::Ge);
        let region = |rows: &[(AffineExpr, Cmp)]| {
            let dim = rows.first().map_or(1, |(e, _)| e.dim());
            Model::over_rows(dim, rows.iter().map(|(e, cmp)| (e, *cmp)))
        };
        // x in [1, 5] implies x + 10 >= 0 but not x - 2 >= 0.
        let unit = region(&[ge(&[1], -1), ge(&[-1], 5)]);
        assert!(unit.implies_nonneg(&AffineExpr::from_i64(&[1], 10)));
        assert!(!unit.implies_nonneg(&AffineExpr::from_i64(&[1], -2)));
        let x = AffineExpr::var(1, 0);
        assert_eq!(unit.minimum(&x), Some(Rational::from(1)));
        assert_eq!(unit.maximum(&x), Some(Rational::from(5)));
        // An empty region implies everything and has no extremum.
        let empty = region(&[ge(&[1], -3), ge(&[-1], 1)]);
        assert!(empty.is_infeasible() && !unit.is_infeasible());
        assert!(empty.implies_nonneg(&AffineExpr::from_i64(&[-1], -100)));
        assert_eq!(empty.minimum(&x), None);
        // An unbounded direction is neither implied nor attained.
        let line = region(&[]);
        assert!(!line.is_infeasible());
        assert!(!line.implies_nonneg(&x));
        assert_eq!(line.minimum(&x), None);
        // Equalities hold both ways: x == y, x >= 0 implies y >= 0.
        let diagonal = region(&[(AffineExpr::from_i64(&[1, -1], 0), Cmp::Eq), ge(&[1, 0], 0)]);
        assert!(diagonal.implies_nonneg(&AffineExpr::from_i64(&[0, 1], 0)));
    }

    #[test]
    fn canonical_key_is_pinned_and_padding_free() {
        let m = short_model();
        let key = m.canonical_key();
        assert_eq!(
            key,
            "min 1*x1+5\n\
             >=0 1/2*x0+-3\n\
             ==0 1*x0+-4\n\
             <=0 2*x1+-1*x2+0\n\
             x0 int\n\
             x1 >= 0 int\n\
             x2 >= -1 <= 7/3"
        );
        // The same model with every expression padded to full width.
        let n = m.num_vars();
        let pad = |e: &AffineExpr| e.embed(n, &(0..e.dim()).collect::<Vec<_>>());
        let mut padded = m.clone();
        padded.constraints = m.constraints.iter().map(|(e, c)| (pad(e), *c)).collect();
        padded.objective = m.objective.as_ref().map(pad);
        assert_eq!(padded.canonical_key(), key);
        // Heap values render through the same digits as inline ones.
        let mut wide = Model::new();
        wide.add_var("w");
        let big: aov_numeric::BigInt = "-18446744073709551616".parse().unwrap();
        wide.constrain(
            AffineExpr::from_parts(
                vec![Rational::from(big)].into_iter().collect(),
                Rational::new(i64::MIN, 1),
            ),
            Cmp::Ge,
        );
        assert_eq!(
            wide.canonical_key(),
            "min 0\n>=0 -18446744073709551616*x0+-9223372036854775808"
        );
    }
}
