//! H-representation polyhedra with exact emptiness and redundancy tests.

use crate::dd::{self, GeneratorSet};
use crate::fm;
use crate::{Constraint, ConstraintKind};
use aov_linalg::{AffineExpr, QVector, VarSet};
use aov_lp::{Cmp, LpOutcome, Model};
use aov_numeric::Rational;
use std::fmt;

/// A convex polyhedron `{x ∈ Q^dim | A x + b >= 0, E x + f = 0}`.
///
/// Stored as a list of [`Constraint`]s over an anonymous `dim`-dimensional
/// space. All predicates are exact (rational LP / double description).
///
/// # Examples
///
/// ```
/// use aov_polyhedra::{Constraint, Polyhedron};
/// use aov_linalg::AffineExpr;
///
/// // 1 <= i <= 10
/// let p = Polyhedron::from_constraints(1, vec![
///     Constraint::ge0(AffineExpr::from_i64(&[1], -1)),
///     Constraint::ge0(AffineExpr::from_i64(&[-1], 10)),
/// ]);
/// assert!(!p.is_empty());
/// assert!(p.intersect(&Polyhedron::from_constraints(1, vec![
///     Constraint::ge0(AffineExpr::from_i64(&[1], -11)),
/// ])).is_empty());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Polyhedron {
    dim: usize,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// The whole space `Q^dim`.
    pub fn universe(dim: usize) -> Self {
        Polyhedron {
            dim,
            constraints: Vec::new(),
        }
    }

    /// An empty polyhedron in `Q^dim`.
    pub fn empty(dim: usize) -> Self {
        Polyhedron {
            dim,
            constraints: vec![Constraint::ge0(AffineExpr::constant(dim, (-1).into()))],
        }
    }

    /// Builds from constraints.
    ///
    /// # Panics
    ///
    /// Panics if any constraint has a dimension other than `dim`.
    pub fn from_constraints(dim: usize, constraints: Vec<Constraint>) -> Self {
        for c in &constraints {
            assert_eq!(c.dim(), dim, "constraint dimension mismatch");
        }
        let constraints = constraints
            .into_iter()
            .filter(|c| !c.is_trivially_true())
            .collect();
        Polyhedron { dim, constraints }
    }

    /// An axis-aligned box `lo[k] <= x_k <= hi[k]` (inclusive). Bounds are
    /// given as affine expressions over the same space, enabling symbolic
    /// bounds like `1 <= i <= n` when the space includes `n`.
    pub fn from_bounds(dim: usize, bounds: &[(usize, AffineExpr, AffineExpr)]) -> Self {
        let mut cs = Vec::new();
        for (k, lo, hi) in bounds {
            let xk = AffineExpr::var(dim, *k);
            cs.push(Constraint::ge(xk.clone(), lo.clone()));
            cs.push(Constraint::le(xk, hi.clone()));
        }
        Polyhedron::from_constraints(dim, cs)
    }

    /// Dimension of the ambient space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds one constraint.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_constraint(&mut self, c: Constraint) {
        assert_eq!(c.dim(), self.dim, "constraint dimension mismatch");
        if !c.is_trivially_true() {
            self.constraints.push(c);
        }
    }

    /// Intersection with another polyhedron of the same dimension.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "intersect dimension mismatch");
        let mut p = self.clone();
        for c in &other.constraints {
            p.add_constraint(c.clone());
        }
        p
    }

    /// Whether `x` satisfies every constraint.
    pub fn contains(&self, x: &QVector) -> bool {
        self.constraints.iter().all(|c| c.satisfied_by(x))
    }

    /// Exact rational emptiness test (phase-1 simplex).
    pub fn is_empty(&self) -> bool {
        if self.constraints.iter().any(Constraint::is_trivially_false) {
            return true;
        }
        let mut m = Model::new();
        for k in 0..self.dim {
            m.add_var(format!("x{k}"));
        }
        for c in &self.constraints {
            m.constrain(
                c.expr().clone(),
                match c.kind() {
                    ConstraintKind::Ineq => Cmp::Ge,
                    ConstraintKind::Eq => Cmp::Eq,
                },
            );
        }
        match m.solve_lp() {
            LpOutcome::Infeasible => true,
            LpOutcome::Optimal(_) | LpOutcome::Unbounded => false,
            // Unlimited budgets cannot trip; only an injected fault
            // lands here. Panic instead of guessing an answer — the
            // engine's stage isolation turns this into a degraded
            // report, a wrong emptiness verdict would corrupt it.
            LpOutcome::LimitReached => panic!("solver fault during emptiness check"),
        }
    }

    /// Whether the affine form `e >= 0` holds everywhere on the
    /// polyhedron (exact; an empty polyhedron implies everything).
    pub fn implies_nonneg(&self, e: &AffineExpr) -> bool {
        assert_eq!(e.dim(), self.dim, "expression dimension mismatch");
        let mut m = Model::new();
        for k in 0..self.dim {
            m.add_var(format!("x{k}"));
        }
        for c in &self.constraints {
            m.constrain(
                c.expr().clone(),
                match c.kind() {
                    ConstraintKind::Ineq => Cmp::Ge,
                    ConstraintKind::Eq => Cmp::Eq,
                },
            );
        }
        m.minimize(e.clone());
        match m.solve_lp() {
            LpOutcome::Optimal(sol) => !sol.objective.is_negative(),
            LpOutcome::Infeasible => true,
            LpOutcome::Unbounded => false,
            // See `is_empty`: reachable only via an injected fault.
            LpOutcome::LimitReached => panic!("solver fault during implication check"),
        }
    }

    /// Minimum of `e` over the polyhedron: `Some(v)` when attained,
    /// `None` when unbounded below or the polyhedron is empty.
    pub fn minimum(&self, e: &AffineExpr) -> Option<Rational> {
        let mut m = Model::new();
        for k in 0..self.dim {
            m.add_var(format!("x{k}"));
        }
        for c in &self.constraints {
            m.constrain(
                c.expr().clone(),
                match c.kind() {
                    ConstraintKind::Ineq => Cmp::Ge,
                    ConstraintKind::Eq => Cmp::Eq,
                },
            );
        }
        m.minimize(e.clone());
        match m.solve_lp() {
            LpOutcome::Optimal(sol) => Some(sol.objective),
            // See `is_empty`: reachable only via an injected fault.
            LpOutcome::LimitReached => panic!("solver fault during minimization"),
            _ => None,
        }
    }

    /// Maximum of `e` over the polyhedron (see [`Polyhedron::minimum`]).
    pub fn maximum(&self, e: &AffineExpr) -> Option<Rational> {
        self.minimum(&-e).map(|v| -v)
    }

    /// The same set described by an irredundant subset of its
    /// constraints, or `None` when it is empty: the crate's one
    /// redundancy test, read off the saturation sets of one DD on
    /// integer rows, without an LP. An inequality stays when the
    /// generators saturating it span a facet, the first of several on
    /// one facet. Inequalities that hold with equality on the whole set
    /// become equalities, and of the equalities a linearly independent
    /// subset stays, earlier ones first. Kept constraints keep their
    /// order. A system of at most one constraint needs no DD.
    ///
    /// # Examples
    ///
    /// ```
    /// use aov_polyhedra::{Constraint, Polyhedron};
    /// use aov_linalg::AffineExpr;
    ///
    /// // x >= 0, x >= -5, x <= 10: the middle row is implied.
    /// let p = Polyhedron::from_constraints(1, vec![
    ///     Constraint::ge0(AffineExpr::from_i64(&[1], 0)),
    ///     Constraint::ge0(AffineExpr::from_i64(&[1], 5)),
    ///     Constraint::ge0(AffineExpr::from_i64(&[-1], 10)),
    /// ]);
    /// let r = p.irredundant().expect("nonempty");
    /// assert_eq!(r.constraints(), [p.constraints()[0].clone(), p.constraints()[2].clone()]);
    /// // x >= 3 and x <= 1 hold nowhere.
    /// let empty = Polyhedron::from_constraints(1, vec![
    ///     Constraint::ge0(AffineExpr::from_i64(&[1], -3)),
    ///     Constraint::ge0(AffineExpr::from_i64(&[-1], 1)),
    /// ]);
    /// assert!(empty.irredundant().is_none());
    /// ```
    pub fn irredundant(&self) -> Option<Polyhedron> {
        if self.constraints.iter().any(Constraint::is_trivially_false) {
            return None;
        }
        if self.constraints.len() <= 1 {
            return Some(self.clone());
        }
        let kept = dd::irredundant(self)?;
        let constraints = kept.into_iter().map(|(pos, kind)| {
            let c = &self.constraints[pos];
            if c.kind() == kind {
                c.clone()
            } else {
                Constraint::from_primitive(c.expr().clone(), kind)
            }
        });
        Some(Polyhedron {
            dim: self.dim,
            constraints: constraints.collect(),
        })
    }

    /// Vertices, rays and lines via Chernikova's double-description
    /// method.
    pub fn generators(&self) -> GeneratorSet {
        dd::generators(self)
    }

    /// Fourier–Motzkin elimination of dimension `k`; the result lives in
    /// `dim - 1` dimensions (indices above `k` shift down).
    ///
    /// # Panics
    ///
    /// Panics if `k >= dim`.
    pub fn eliminate_dim(&self, k: usize) -> Polyhedron {
        fm::eliminate_dims(self, &[k])
    }

    /// Eliminates several dimensions (descending index order internally);
    /// the result keeps the remaining dimensions in their original
    /// relative order.
    pub fn eliminate_dims(&self, dims: &[usize]) -> Polyhedron {
        let mut sorted: Vec<usize> = dims.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.dedup();
        fm::eliminate_dims(self, &sorted)
    }

    /// Whether `self ⊆ other` (exact).
    pub fn is_subset_of(&self, other: &Polyhedron) -> bool {
        assert_eq!(self.dim, other.dim, "subset dimension mismatch");
        other.constraints.iter().all(|c| match c.kind() {
            ConstraintKind::Ineq => self.implies_nonneg(c.expr()),
            ConstraintKind::Eq => self.implies_nonneg(c.expr()) && self.implies_nonneg(&-c.expr()),
        })
    }

    /// Renders the constraint system with variable names.
    pub fn display<'a>(&'a self, vars: &'a VarSet) -> impl fmt::Display + 'a {
        DisplayPoly { p: self, vars }
    }
}

struct DisplayPoly<'a> {
    p: &'a Polyhedron,
    vars: &'a VarSet,
}

impl fmt::Display for DisplayPoly<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for c in &self.p.constraints {
            writeln!(f, "  {}", c.display(self.vars))?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polyhedron(dim={}, {:?})", self.dim, self.constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ge(coeffs: &[i64], c: i64) -> Constraint {
        Constraint::ge0(AffineExpr::from_i64(coeffs, c))
    }

    #[test]
    fn emptiness() {
        let p = Polyhedron::from_constraints(1, vec![ge(&[1], -3), ge(&[-1], 1)]);
        assert!(p.is_empty()); // x >= 3 and x <= 1
        let q = Polyhedron::from_constraints(1, vec![ge(&[1], -3), ge(&[-1], 10)]);
        assert!(!q.is_empty());
        assert!(Polyhedron::empty(4).is_empty());
        assert!(!Polyhedron::universe(0).is_empty());
        assert!(!Polyhedron::universe(3).is_empty());
    }

    #[test]
    fn contains_points() {
        let square = Polyhedron::from_bounds(
            2,
            &[
                (
                    0,
                    AffineExpr::constant(2, 0.into()),
                    AffineExpr::constant(2, 2.into()),
                ),
                (
                    1,
                    AffineExpr::constant(2, 0.into()),
                    AffineExpr::constant(2, 2.into()),
                ),
            ],
        );
        assert!(square.contains(&QVector::from_i64(&[1, 1])));
        assert!(square.contains(&QVector::from_i64(&[0, 2])));
        assert!(!square.contains(&QVector::from_i64(&[3, 0])));
    }

    #[test]
    fn implication() {
        // x in [1, 5] implies x + 10 >= 0 but not x - 2 >= 0.
        let p = Polyhedron::from_constraints(1, vec![ge(&[1], -1), ge(&[-1], 5)]);
        assert!(p.implies_nonneg(&AffineExpr::from_i64(&[1], 10)));
        assert!(!p.implies_nonneg(&AffineExpr::from_i64(&[1], -2)));
        // Empty implies anything.
        assert!(Polyhedron::empty(1).implies_nonneg(&AffineExpr::from_i64(&[-1], -100)));
        // Unbounded direction is not implied.
        assert!(!Polyhedron::universe(1).implies_nonneg(&AffineExpr::from_i64(&[1], 0)));
    }

    #[test]
    fn extrema() {
        let p = Polyhedron::from_constraints(1, vec![ge(&[1], -1), ge(&[-1], 5)]);
        let x = AffineExpr::var(1, 0);
        assert_eq!(p.minimum(&x), Some(Rational::from(1)));
        assert_eq!(p.maximum(&x), Some(Rational::from(5)));
        assert_eq!(Polyhedron::universe(1).minimum(&x), None);
    }

    #[test]
    fn redundancy_removal() {
        // x >= 0, x >= -5 (redundant), x <= 10, x <= 20 (redundant).
        let p = Polyhedron::from_constraints(
            1,
            vec![ge(&[1], 0), ge(&[1], 5), ge(&[-1], 10), ge(&[-1], 20)],
        );
        let r = p.irredundant().unwrap();
        assert_eq!(r.constraints(), [ge(&[1], 0), ge(&[-1], 10)]);
        assert!(r.is_subset_of(&p) && p.is_subset_of(&r));
    }

    #[test]
    fn redundancy_removal_keeps_the_first_row_of_a_facet_and_finds_equalities() {
        // x + y >= 0 and x + y <= 0 hold with equality everywhere: the
        // first stays as an equality, the second depends on it. y >= 0
        // is a facet and y >= -3 is implied.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[1, 1], 0),
                ge(&[0, 1], 0),
                ge(&[-1, -1], 0),
                ge(&[0, 1], 3),
            ],
        );
        let r = p.irredundant().unwrap();
        assert_eq!(
            r.constraints(),
            [
                Constraint::eq0(AffineExpr::from_i64(&[1, 1], 0)),
                ge(&[0, 1], 0)
            ]
        );
        // The unit square with a repeated side and a cut through a
        // corner only: four facets.
        let square = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[0, 1], 0),
                ge(&[1, 0], 0),
                ge(&[-1, 0], 1),
                ge(&[-1, -1], 2),
                ge(&[0, -1], 1),
            ],
        );
        let kept = square.irredundant().unwrap();
        let c = square.constraints();
        assert_eq!(
            kept.constraints(),
            [c[0].clone(), c[1].clone(), c[3].clone(), c[5].clone()]
        );
        assert!(Polyhedron::empty(2).irredundant().is_none());
        let universe = Polyhedron::universe(2);
        assert_eq!(universe.irredundant(), Some(universe));
    }

    #[test]
    fn subset() {
        let small = Polyhedron::from_constraints(1, vec![ge(&[1], -2), ge(&[-1], 4)]); // [2,4]
        let big = Polyhedron::from_constraints(1, vec![ge(&[1], 0), ge(&[-1], 10)]); // [0,10]
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
    }

    #[test]
    fn equality_constraints_respected() {
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::eq0(AffineExpr::from_i64(&[1, -1], 0)), // x == y
                ge(&[1, 0], 0),
            ],
        );
        assert!(p.contains(&QVector::from_i64(&[2, 2])));
        assert!(!p.contains(&QVector::from_i64(&[2, 3])));
        assert!(p.implies_nonneg(&AffineExpr::from_i64(&[0, 1], 0))); // y >= 0 follows
    }
}
