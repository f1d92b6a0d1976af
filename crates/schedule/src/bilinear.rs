//! Forms linear in a set of unknowns with coefficients affine in a
//! domain space.
//!
//! Both the schedule constraints (Eq. 2, linear in the scheduling
//! parameters with coefficients affine in `(i, N)`) and the storage
//! constraints (Eq. 3, additionally involving the occupancy vector) are
//! instances of this shape. The linearization of §4.4 turns such a form,
//! quantified over a polyhedral domain, into finitely many affine
//! constraints over the unknowns.
//!
//! A form is one integer matrix over a common denominator: a row per
//! unknown plus a row for the constant, each the homogenized integer
//! row of an affine form over the domain (see [`aov_polyhedra::int`]).
//! Substituting a parameterized vertex is one matrix product, and so is
//! evaluating at a homogenized domain point or along a direction; values
//! become rationals only at the crate boundary ([`BilinearForm::at_point`],
//! [`BilinearForm::coeff`], …).

use aov_linalg::{AffineExpr, QVector};
use aov_numeric::{BigInt, Rational};
use aov_polyhedra::int::{self, Row};
use aov_polyhedra::param::ParamVertex;

/// A form `F(u, x) = Σ_e coeffs[e](x) · u_e + constant(x)` — linear in
/// the unknowns `u`, affine in the domain point `x`.
///
/// # Examples
///
/// ```
/// use aov_schedule::BilinearForm;
/// use aov_linalg::{AffineExpr, QVector};
///
/// // F(u, x) = (x0 + 1)·u0 − 2, over 1 unknown and 1 domain dim.
/// let f = BilinearForm::new(
///     vec![AffineExpr::from_i64(&[1], 1)],
///     AffineExpr::from_i64(&[0], -2),
/// );
/// let at3 = f.at_point(&QVector::from_i64(&[3]));
/// assert_eq!(at3, AffineExpr::from_i64(&[4], -2)); // 4·u0 − 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BilinearForm {
    /// Row-major numerators, `unknowns + 1` rows of `cols` entries: row
    /// `e < unknowns` is the coefficient form of unknown `e`, the last
    /// row the constant form, each homogenized over the domain (constant
    /// first).
    m: Vec<BigInt>,
    /// The common denominator: positive, and in lowest terms with `m`,
    /// so that equal forms have equal representations.
    den: BigInt,
    unknowns: usize,
    /// `domain_dim + 1`.
    cols: usize,
}

impl BilinearForm {
    /// Builds from per-unknown coefficient forms and a constant form
    /// (all over the same domain space).
    ///
    /// # Panics
    ///
    /// Panics if the forms disagree on the domain dimension.
    pub fn new(coeffs: Vec<AffineExpr>, constant: AffineExpr) -> Self {
        for c in &coeffs {
            assert_eq!(c.dim(), constant.dim(), "mixed domain dimensions");
        }
        let forms: Vec<&AffineExpr> = coeffs.iter().chain([&constant]).collect();
        let entries = || {
            forms
                .iter()
                .flat_map(|f| std::iter::once(f.constant_term()).chain(f.coeffs().iter()))
        };
        let den = int::common_denominator(entries());
        let m = entries().map(|q| int::scaled(q, &den)).collect();
        BilinearForm::from_parts(m, den, coeffs.len(), constant.dim() + 1)
    }

    /// The form of numerators `m` (laid out as the field) over `den > 0`,
    /// brought to lowest terms.
    pub(crate) fn from_parts(
        mut m: Vec<BigInt>,
        mut den: BigInt,
        unknowns: usize,
        cols: usize,
    ) -> Self {
        debug_assert_eq!(m.len(), (unknowns + 1) * cols, "form shape");
        debug_assert!(den.is_positive(), "form denominator");
        int::reduce(&mut m, &mut den);
        BilinearForm {
            m,
            den,
            unknowns,
            cols,
        }
    }

    /// Number of unknowns.
    pub fn num_unknowns(&self) -> usize {
        self.unknowns
    }

    /// Dimension of the domain space.
    pub fn domain_dim(&self) -> usize {
        self.cols - 1
    }

    /// The common denominator of every entry (positive).
    pub(crate) fn denominator(&self) -> &BigInt {
        &self.den
    }

    /// The numerators of unknown `e`'s coefficient form (`e ==
    /// num_unknowns()` for the constant form), homogenized over the
    /// domain: constant first.
    fn numerators(&self, e: usize) -> &[BigInt] {
        &self.m[e * self.cols..(e + 1) * self.cols]
    }

    /// Coefficient form of unknown `e`.
    pub fn coeff(&self, e: usize) -> AffineExpr {
        assert!(e < self.unknowns, "unknown out of range");
        int::to_affine(self.numerators(e), &self.den)
    }

    /// Constant form.
    pub fn constant(&self) -> AffineExpr {
        int::to_affine(self.numerators(self.unknowns), &self.den)
    }

    /// The negated form `−F` (used to flip between the causality
    /// orientation `Θ_R − Θ_T` and the storage orientation `Θ_T − Θ_R`).
    #[must_use]
    pub fn negated(mut self) -> BilinearForm {
        for x in &mut self.m {
            *x = -&*x;
        }
        self
    }

    /// The form over the parameters `N` that `vertex` leaves when it
    /// substitutes the leading domain dimensions, `i := c(N)`: with
    /// `c = C·(1, N) / det`, each row `r` becomes
    /// `det·r_N + Σ_k r_{i_k}·C_k` over the denominator `den·det`.
    ///
    /// # Panics
    ///
    /// Panics if the domain is not the vertex's eliminated dimensions
    /// followed by its parameters.
    pub fn at_vertex(&self, vertex: &ParamVertex) -> BilinearForm {
        let n_elim = vertex.numerators.len();
        let cols = vertex.n_params + 1;
        assert_eq!(self.cols, n_elim + cols, "form/vertex domain mismatch");
        let det = &vertex.denom;
        let mut m = Vec::with_capacity((self.unknowns + 1) * cols);
        for e in 0..=self.unknowns {
            let r = self.numerators(e);
            let start = m.len();
            // det·(constant, parameter part), then the i-part through C.
            m.extend(std::iter::once(&r[0]).chain(&r[n_elim + 1..]).map(|x| {
                if det.is_one() {
                    x.clone()
                } else {
                    det * x
                }
            }));
            for (a, c) in r[1..=n_elim].iter().zip(&vertex.numerators) {
                if !a.is_zero() {
                    for (x, y) in m[start..].iter_mut().zip(c) {
                        if !y.is_zero() {
                            *x += &(a * y);
                        }
                    }
                }
            }
        }
        BilinearForm::from_parts(m, &self.den * det, self.unknowns, cols)
    }

    /// `F(u, x)` at the homogenized domain point `x = (d, d·x)`, written
    /// to `out` as a homogenized integer row over the unknowns (constant
    /// first): the exact row times the positive `d · denominator()`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `domain_dim() + 1` long.
    pub fn row_at(&self, x: &[BigInt], out: &mut Row) {
        assert_eq!(x.len(), self.cols, "domain point dimension");
        self.product(x, out);
    }

    /// `F`'s linear part along the domain direction `r`, written to `out`
    /// as a homogenized integer row over the unknowns (constant first):
    /// the exact row times the positive `denominator()`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not `domain_dim()` long.
    pub fn row_along(&self, r: &[BigInt], out: &mut Row) {
        assert_eq!(r.len() + 1, self.cols, "domain direction dimension");
        self.product(r, out);
    }

    /// Each row of the matrix times `v` (aligned to the end of the rows,
    /// so a direction skips the constant column), constant row first,
    /// into `out`.
    fn product(&self, v: &[BigInt], out: &mut Row) {
        let skip = self.cols - v.len();
        let dot = |e: usize| int::dot(&self.numerators(e)[skip..], v);
        out.clear();
        out.extend(
            std::iter::once(self.unknowns)
                .chain(0..self.unknowns)
                .map(dot),
        );
    }

    /// Instantiates the domain point, yielding an affine form over the
    /// unknowns alone.
    pub fn at_point(&self, x: &QVector) -> AffineExpr {
        let x = int::homogenize(x);
        let mut row = Row::new();
        self.row_at(&x, &mut row);
        int::to_affine(&row, &(&self.den * &x[0]))
    }

    /// Fixes the unknowns to concrete values, yielding an affine form over
    /// the domain space.
    pub fn fix_unknowns(&self, u: &QVector) -> AffineExpr {
        assert_eq!(u.dim(), self.unknowns, "unknown count mismatch");
        let u = int::homogenize(u);
        let mut acc: Row = self
            .numerators(self.unknowns)
            .iter()
            .map(|x| x * &u[0])
            .collect();
        for (e, ue) in u[1..].iter().enumerate() {
            if !ue.is_zero() {
                for (x, y) in acc.iter_mut().zip(self.numerators(e)) {
                    *x += &(ue * y);
                }
            }
        }
        int::to_affine(&acc, &(&self.den * &u[0]))
    }

    /// Evaluates fully.
    pub fn eval(&self, u: &QVector, x: &QVector) -> Rational {
        self.at_point(x).eval(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_polyhedra::{Constraint, Polyhedron};

    fn sample() -> BilinearForm {
        // F(u, (x, y)) = (x + y)·u0 + (2x − 1)·u1 + (y + 3)
        BilinearForm::new(
            vec![
                AffineExpr::from_i64(&[1, 1], 0),
                AffineExpr::from_i64(&[2, 0], -1),
            ],
            AffineExpr::from_i64(&[0, 1], 3),
        )
    }

    #[test]
    fn at_point_and_eval() {
        let f = sample();
        let at = f.at_point(&QVector::from_i64(&[1, 2]));
        assert_eq!(at, AffineExpr::from_i64(&[3, 1], 5));
        assert_eq!(
            f.eval(&QVector::from_i64(&[10, 100]), &QVector::from_i64(&[1, 2])),
            Rational::from(3 * 10 + 100 + 5)
        );
    }

    /// Substituting a parameterized vertex is the rational substitution:
    /// the vertex `x := t / 2, y := (t + 1) / 3` of a 2-d system over one
    /// parameter, compared at a few parameter values.
    #[test]
    fn at_vertex_substitutes_the_coordinates() {
        // F(u, (x, y, t)) = (x + y)·u0 + (2x − t)·u1 + (y + 3)
        let f = BilinearForm::new(
            vec![
                AffineExpr::from_i64(&[1, 1, 0], 0),
                AffineExpr::from_i64(&[2, 0, -1], 0),
            ],
            AffineExpr::from_i64(&[0, 1, 0], 3),
        );
        let ge = |c: &[i64], k| Constraint::ge0(AffineExpr::from_i64(c, k));
        // 2x = t, 3y = t + 1, t >= 1.
        let system = Polyhedron::from_constraints(
            3,
            vec![
                Constraint::eq0(AffineExpr::from_i64(&[2, 0, -1], 0)),
                Constraint::eq0(AffineExpr::from_i64(&[0, 3, -1], -1)),
            ],
        );
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1)]);
        let vertices = aov_polyhedra::param::parameterized_vertices(&system, 2, &params).unwrap();
        assert_eq!(vertices.len(), 1);
        assert_eq!(vertices[0].denom, BigInt::from(6));
        let g = f.at_vertex(&vertices[0]);
        assert_eq!(g.domain_dim(), 1);
        for t in 1..6 {
            let (x, y) = (Rational::new(t, 2), Rational::new(t + 1, 3));
            let at = f.at_point(&QVector::from_vec(vec![x, y, t.into()]));
            assert_eq!(g.at_point(&QVector::from_i64(&[t])), at, "t = {t}");
        }
    }

    #[test]
    fn rational_entries_share_one_denominator() {
        let half = AffineExpr::from_parts(QVector::from_vec(vec![Rational::new(1, 2)]), 0.into());
        let f = BilinearForm::new(vec![half.clone()], AffineExpr::from_i64(&[0], 3));
        assert_eq!(f.denominator(), &BigInt::from(2));
        assert_eq!(f.coeff(0), half);
        assert_eq!(f.constant(), AffineExpr::from_i64(&[0], 3));
        // Equal forms, however built, compare equal.
        let doubled = BilinearForm::from_parts(
            f.m.iter().map(|x| x * &BigInt::from(2)).collect(),
            BigInt::from(4),
            1,
            2,
        );
        assert_eq!(doubled, f);
    }

    #[test]
    fn linear_part_drops_constants() {
        let f = sample();
        let ints = |v: &[i64]| -> Row { v.iter().map(|&x| BigInt::from(x)).collect() };
        let mut row = Row::new();
        // Constant first: along x, u0 grows by 1 and u1 by 2, the
        // constant by 0; along y, u0 and the constant grow by 1.
        f.row_along(&ints(&[1, 0]), &mut row);
        assert_eq!(row, ints(&[0, 1, 2]));
        f.row_along(&ints(&[0, 1]), &mut row);
        assert_eq!(row, ints(&[1, 1, 0]));
    }

    #[test]
    fn fix_unknowns_gives_domain_form() {
        let f = sample();
        let g = f.fix_unknowns(&QVector::from_i64(&[1, 1]));
        // (x+y) + (2x−1) + (y+3) = 3x + 2y + 2.
        assert_eq!(g, AffineExpr::from_i64(&[3, 2], 2));
        assert_eq!(f.negated().fix_unknowns(&QVector::from_i64(&[1, 1])), -&g);
    }
}
