//! H-representation polyhedra with exact emptiness, sign-orthant and
//! redundancy tests, each read off double descriptions.

use crate::dd;
use crate::fm;
use crate::int;
use crate::{Constraint, ConstraintKind};
use aov_linalg::{AffineExpr, QVector, VarSet};
use aov_numeric::BigInt;
use std::fmt;

/// A convex polyhedron `{x ∈ Q^dim | A x + b >= 0, E x + f = 0}`.
///
/// Stored as a list of [`Constraint`]s over an anonymous `dim`-dimensional
/// space. All predicates are exact: emptiness, sign orthants, redundancy
/// and generators come from Chernikova's double description on integer
/// rows, without an LP.
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

    /// Whether no point satisfies the constraints, decided by one DD on
    /// integer rows: a nonempty polyhedron has a vertex.
    pub fn is_empty(&self) -> bool {
        if self.constraints.iter().any(Constraint::is_trivially_false) {
            return true;
        }
        !self.constraints.is_empty() && dd::saturated_of(self).gens.is_empty()
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

    /// Per sign pattern of `patterns`, whether the polyhedron meets its
    /// orthant. A pattern has one digit per dimension: `+1` for
    /// `v_k >= 1`, `0` for `v_k == 0` and `−1` for `v_k <= −1`. The rows
    /// are converted to integers once; each pattern rewrites its sign
    /// rows after them, in place, and is decided by one DD over the
    /// buffer, as [`Polyhedron::is_empty`] decides emptiness. A
    /// polyhedron with no rows is all of `Q^d` and meets every orthant
    /// without a DD.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's length is not the dimension.
    pub fn meets_orthants(&self, patterns: &[Vec<i8>]) -> Vec<bool> {
        let d = self.dim;
        if self.constraints.is_empty() {
            assert!(
                patterns.iter().all(|p| p.len() == d),
                "sign pattern dimension"
            );
            return vec![true; patterns.len()];
        }
        let mut rows: Vec<(int::Row, ConstraintKind)> = self
            .constraints
            .iter()
            .map(|c| (int::of_constraint(c), c.kind()))
            .collect();
        let n = rows.len();
        rows.resize(n + d, (vec![BigInt::zero(); d + 1], ConstraintKind::Eq));
        let met = patterns.iter().map(|pattern| {
            assert_eq!(pattern.len(), d, "sign pattern dimension");
            for (k, s) in pattern.iter().map(|s| i64::from(s.signum())).enumerate() {
                // `s·v_k − 1 >= 0`, or `v_k == 0` for `s = 0`.
                let (row, kind) = &mut rows[n + k];
                row[0] = (-s.abs()).into();
                row[k + 1] = if s == 0 { 1.into() } else { s.into() };
                *kind = if s == 0 {
                    ConstraintKind::Eq
                } else {
                    ConstraintKind::Ineq
                };
            }
            let refs: Vec<_> = rows.iter().map(|(row, kind)| (&row[..], *kind)).collect();
            !dd::saturated(d, &refs).gens.is_empty()
        });
        met.collect()
    }

    /// Vertices, rays and lines via Chernikova's double-description
    /// method, as the DD computes them: primitive homogenized integer
    /// rows ([`int::Generators`]), each vertex `(λ, λ·x)` and each ray or
    /// line `(0, r)`.
    pub fn generator_rows(&self) -> int::Generators {
        dd::saturated_of(self).gens
    }

    /// Fourier–Motzkin projection, the crate's one projection: eliminates
    /// the dimensions `dims` (descending index order internally); the
    /// result keeps the remaining dimensions in their original relative
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is out of range.
    pub fn eliminate_dims(&self, dims: &[usize]) -> Polyhedron {
        let mut sorted: Vec<usize> = dims.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.dedup();
        fm::eliminate_dims(self, &sorted)
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

/// The LP reference the DD's verdicts are held to: emptiness by the
/// phase-1 LP [`Polyhedron::is_empty`] replaced, and inclusion by one
/// implication LP per row; and the rational generators the test oracles
/// compare against.
#[cfg(test)]
impl Polyhedron {
    /// Vertices, rays and lines as rational vectors.
    pub(crate) fn generators(&self) -> dd::GeneratorSet {
        dd::generators(self)
    }

    /// This polyhedron as an LP model ([`aov_lp::Model::over_rows`]).
    pub(crate) fn lp(&self) -> aov_lp::Model {
        let rows = self.constraints.iter().map(|c| {
            let cmp = if c.is_equality() {
                aov_lp::Cmp::Eq
            } else {
                aov_lp::Cmp::Ge
            };
            (c.expr(), cmp)
        });
        aov_lp::Model::over_rows(self.dim, rows)
    }

    /// Whether `self ⊆ other`, by implication LPs over `self`.
    pub(crate) fn is_subset_lp(&self, other: &Polyhedron) -> bool {
        let m = self.lp();
        other.constraints.iter().all(|c| {
            m.implies_nonneg(c.expr()) && (!c.is_equality() || m.implies_nonneg(&-c.expr()))
        })
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
        let cases = [
            Polyhedron::from_constraints(1, vec![ge(&[1], -3), ge(&[-1], 1)]), // x >= 3, x <= 1
            Polyhedron::from_constraints(1, vec![ge(&[1], -3), ge(&[-1], 10)]),
            Polyhedron::from_constraints(2, vec![ge(&[1, 1], -1), ge(&[-1, -1], 0)]),
            Polyhedron::from_constraints(2, vec![ge(&[1, -1], 0), ge(&[0, 1], 0)]),
            Polyhedron::empty(4),
            Polyhedron::universe(0),
            Polyhedron::universe(3),
        ];
        let verdicts: Vec<bool> = cases.iter().map(Polyhedron::is_empty).collect();
        assert_eq!(verdicts, [true, false, true, false, true, false, false]);
        for p in &cases {
            assert_eq!(p.is_empty(), p.lp().is_infeasible(), "{p:?}");
        }
    }

    /// Every sign pattern of `p`'s dimension, with whether its orthant
    /// meets `p` by the phase-1 LP over `p` and the pattern's rows.
    fn orthants_by_lp(p: &Polyhedron) -> (Vec<Vec<i8>>, Vec<bool>) {
        let d = p.dim();
        let mut patterns = vec![Vec::new()];
        for _ in 0..d {
            patterns = patterns
                .iter()
                .flat_map(|pat: &Vec<i8>| {
                    [1, 0, -1].map(|s| pat.iter().copied().chain([s]).collect())
                })
                .collect();
        }
        let verdicts = patterns
            .iter()
            .map(|pattern| {
                let mut cut = p.clone();
                for (k, &s) in pattern.iter().enumerate() {
                    let v = AffineExpr::var(d, k);
                    cut.add_constraint(if s == 0 {
                        Constraint::eq0(v)
                    } else {
                        let one = AffineExpr::constant(d, 1.into());
                        Constraint::ge0(&v.scale(&i64::from(s).into()) - &one)
                    });
                }
                !cut.lp().is_infeasible()
            })
            .collect();
        (patterns, verdicts)
    }

    /// The DD's orthant verdicts against the LP: an empty polyhedron,
    /// dimension 0, equality rows, orthants touched only at `v_k = ±1`,
    /// and random systems in up to 3 dimensions.
    #[test]
    fn orthants_match_lp() {
        let eq = |coeffs: &[i64], c: i64| Constraint::eq0(AffineExpr::from_i64(coeffs, c));
        let mut cases = vec![
            Polyhedron::empty(2),
            Polyhedron::from_constraints(2, vec![ge(&[1, 0], -3), ge(&[-1, 0], 1)]),
            Polyhedron::universe(0),
            Polyhedron::universe(2),
            Polyhedron::universe(3),
            // x == y, and x + y == 0: the origin and two diagonal lines.
            Polyhedron::from_constraints(2, vec![eq(&[1, -1], 0)]),
            Polyhedron::from_constraints(2, vec![eq(&[1, 1], 0), ge(&[1, 0], 5)]),
            // -1 <= x <= 1, y == 1: the orthants x = ±1 only at the ends.
            Polyhedron::from_constraints(2, vec![ge(&[1, 0], 1), ge(&[-1, 0], 1), eq(&[0, 1], -1)]),
            // 1/2 <= x <= 1 and -1 <= y <= -1/2: one point of each sign.
            Polyhedron::from_constraints(
                2,
                vec![
                    ge(&[2, 0], -1),
                    ge(&[-1, 0], 1),
                    ge(&[0, 1], 1),
                    ge(&[0, -2], -1),
                ],
            ),
            // x + y + z == 3/2 with every coordinate in (-1, 1).
            Polyhedron::from_constraints(
                3,
                vec![
                    eq(&[2, 2, 2], -3),
                    ge(&[2, 0, 0], 1),
                    ge(&[-2, 0, 0], 1),
                    ge(&[0, 2, 0], 1),
                    ge(&[0, -2, 0], 1),
                ],
            ),
        ];
        let mut rng = aov_support::Rng::new(29);
        for _ in 0..120 {
            let d = rng.usize_in(1, 3);
            let cs = (0..rng.usize_in(1, 5))
                .map(|r| {
                    let e = AffineExpr::from_i64(&rng.vec_i64(-3, 3, d), rng.i64_in(-4, 4));
                    if r == 0 && rng.u64_below(4) == 0 {
                        Constraint::eq0(e)
                    } else {
                        Constraint::ge0(e)
                    }
                })
                .collect();
            cases.push(Polyhedron::from_constraints(d, cs));
        }
        let (mut met, mut missed) = (0, 0);
        for p in &cases {
            let (patterns, want) = orthants_by_lp(p);
            let got = p.meets_orthants(&patterns);
            assert_eq!(got, want, "{p:?}");
            met += want.iter().filter(|&&m| m).count();
            missed += want.iter().filter(|&&m| !m).count();
        }
        assert_eq!(
            cases[0].meets_orthants(&[vec![1, 1], vec![0, 0]]),
            [false, false]
        );
        assert_eq!(cases[2].meets_orthants(&[vec![]]), [true]);
        assert!(met >= 300 && missed >= 1_000, "{met} met, {missed} missed");
    }

    #[test]
    fn contains_points() {
        // 0 <= x, y <= 2
        let square = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[-1, 0], 2),
                ge(&[0, 1], 0),
                ge(&[0, -1], 2),
            ],
        );
        assert!(square.contains(&QVector::from_i64(&[1, 1])));
        assert!(square.contains(&QVector::from_i64(&[0, 2])));
        assert!(!square.contains(&QVector::from_i64(&[3, 0])));
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
        assert!(r.is_subset_lp(&p) && p.is_subset_lp(&r));
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
    }
}
