//! Integer rows: the representation the DD, Fourier–Motzkin and
//! parameterized-vertex kernels compute on, and that the bilinear forms
//! of `aov-schedule` are linearized in.
//!
//! A row `(c, a_0, …, a_{d-1})` is either the homogenized form of the
//! affine constraint `c + a·x >= 0` (or `== 0`), or a generator `(λ, x)`
//! of a homogenized cone. Constraints are stored with integer
//! coefficients of gcd 1 (see [`Constraint`]), so a constraint's row is
//! its coefficients; every row a kernel builds is made primitive again
//! before it is kept. The entries are [`BigInt`]s, whose inline `i64`
//! form is the word-size fast path, and rows are updated in place:
//! values become [`Rational`]s only when a result leaves the kernel.

#[cfg(test)]
use crate::GeneratorSet;
use crate::{Constraint, ConstraintKind};
use aov_linalg::{AffineExpr, QVector};
use aov_numeric::{BigInt, Rational};

/// One integer row; see the module docs for its layout.
pub type Row = Vec<BigInt>;

/// Generators of a polyhedron as primitive homogenized integer rows, the
/// form the DD computes them in: a vertex `x` is `(λ, λ·x)` with the
/// least `λ > 0` that makes it integral (the row [`homogenize`] gives),
/// and a ray or line is `(0, r)` with `r` its primitive integer
/// direction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Generators {
    /// Extreme points, `(λ, λ·x)` with `λ > 0`.
    pub vertices: Vec<Row>,
    /// Extreme unidirectional rays, `(0, r)`.
    pub rays: Vec<Row>,
    /// Basis of the lineality space, `(0, l)`.
    pub lines: Vec<Row>,
}

impl Generators {
    /// Whether the polyhedron is empty (it has no vertex).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Whether the polyhedron is a bounded polytope.
    pub(crate) fn is_bounded(&self) -> bool {
        self.rays.is_empty() && self.lines.is_empty()
    }

    /// Whether `e >= 0` holds on the whole polyhedron these rows
    /// generate, exactly and without an LP (Theorem 1): `e` is `>= 0` at
    /// every vertex, its linear part is `>= 0` along every ray and `= 0`
    /// along every line. `e` is scaled once to an integer row, which is
    /// then dotted with the generator rows. Holds vacuously when the
    /// polyhedron is empty, which may still have rays and lines.
    pub fn implies_nonneg(&self, e: &AffineExpr) -> bool {
        let terms = || std::iter::once(e.constant_term()).chain(e.coeffs().iter());
        let den = common_denominator(terms());
        let row: Row = terms().map(|q| scaled(q, &den)).collect();
        self.is_empty()
            || self
                .vertices
                .iter()
                .chain(&self.rays)
                .all(|g| !dot(&row, g).is_negative())
                && self.lines.iter().all(|l| dot(&row, l).is_zero())
    }

    /// The same generators as rational vectors: each vertex `x/λ`, each
    /// direction its integer entries.
    #[cfg(test)]
    pub(crate) fn to_rational(&self) -> GeneratorSet {
        let point = |v: &Row| -> QVector {
            let (lambda, x) = v.split_first().expect("homogenized");
            x.iter()
                .map(|x| Rational::from_big(x.clone(), lambda.clone()))
                .collect()
        };
        let direction = |v: &Row| to_qvector(&v[1..]);
        GeneratorSet {
            vertices: self.vertices.iter().map(point).collect(),
            rays: self.rays.iter().map(direction).collect(),
            lines: self.lines.iter().map(direction).collect(),
        }
    }

    /// The rows of rational generators: each vertex homogenized, each
    /// direction `(0, r)` scaled to integers (the inverse of
    /// [`Generators::to_rational`] on primitive directions).
    #[cfg(test)]
    pub(crate) fn of_rational(g: &GeneratorSet) -> Generators {
        let direction = |r: &QVector| -> Row {
            let mut row = homogenize(r);
            row[0] = BigInt::zero();
            row
        };
        Generators {
            vertices: g.vertices.iter().map(homogenize).collect(),
            rays: g.rays.iter().map(direction).collect(),
            lines: g.lines.iter().map(direction).collect(),
        }
    }
}

/// The homogenized row of `c`: its constant term, then its coefficients.
pub(crate) fn of_constraint(c: &Constraint) -> Row {
    let e = c.expr();
    std::iter::once(e.constant_term())
        .chain(e.coeffs().iter())
        .map(|q| {
            debug_assert!(q.is_integer(), "constraints are stored integral");
            q.numer().clone()
        })
        .collect()
}

/// The constraint `row >= 0` (or `== 0`) of a primitive homogenized row
/// (see [`make_primitive`]).
pub fn to_constraint(row: &[BigInt], kind: ConstraintKind) -> Constraint {
    let expr = AffineExpr::from_parts(to_qvector(&row[1..]), Rational::from(row[0].clone()));
    Constraint::from_primitive(expr, kind)
}

/// The constraint `row >= 0` (or `== 0`) of any homogenized row, made
/// primitive in place first.
pub fn primitive_constraint(row: &mut [BigInt], kind: ConstraintKind) -> Constraint {
    make_primitive(row);
    to_constraint(row, kind)
}

/// Whether the homogenized row's constraint holds at every point: its
/// linear part is zero and its constant satisfies `kind` (the row-level
/// [`Constraint::is_trivially_true`]).
pub fn is_trivially_true(row: &[BigInt], kind: ConstraintKind) -> bool {
    is_zero(&row[1..])
        && match kind {
            ConstraintKind::Ineq => !row[0].is_negative(),
            ConstraintKind::Eq => row[0].is_zero(),
        }
}

/// The row as a vector of (integer) rationals.
pub(crate) fn to_qvector(v: &[BigInt]) -> QVector {
    v.iter().cloned().map(Rational::from).collect()
}

/// `a · b`.
pub fn dot(a: &[BigInt], b: &[BigInt]) -> BigInt {
    let mut acc = BigInt::zero();
    for (x, y) in a.iter().zip(b) {
        if !x.is_zero() && !y.is_zero() {
            acc += &(x * y);
        }
    }
    acc
}

/// Whether every entry is zero.
pub fn is_zero(v: &[BigInt]) -> bool {
    v.iter().all(BigInt::is_zero)
}

/// Divides `v` by the gcd of its entries, keeping its sign (a zero row
/// stays zero).
pub fn make_primitive(v: &mut [BigInt]) {
    let mut g = BigInt::zero();
    for x in v.iter() {
        g = aov_numeric::gcd_big(&g, x);
        if g.is_one() {
            return;
        }
    }
    if !g.is_zero() {
        for x in v.iter_mut() {
            *x = &*x / &g;
        }
    }
}

/// Divides `v` and the positive denominator `den` by their common gcd,
/// so that the value `v / den` has one representation.
pub fn reduce(v: &mut [BigInt], den: &mut BigInt) {
    if den.is_one() {
        return;
    }
    let mut g = den.clone();
    for x in v.iter() {
        g = aov_numeric::gcd_big(&g, x);
        if g.is_one() {
            return;
        }
    }
    for x in v.iter_mut() {
        *x = &*x / &g;
    }
    *den = &*den / &g;
}

/// The least common denominator of `qs` (positive).
pub fn common_denominator<'a>(qs: impl IntoIterator<Item = &'a Rational>) -> BigInt {
    qs.into_iter().fold(BigInt::one(), |d, q| {
        if q.denom().is_one() {
            d
        } else {
            &d * &(q.denom() / &aov_numeric::gcd_big(&d, q.denom()))
        }
    })
}

/// `d · q`, for `d` a multiple of `q`'s denominator.
pub fn scaled(q: &Rational, d: &BigInt) -> BigInt {
    if q.denom().is_one() {
        q.numer() * d
    } else {
        q.numer() * &(d / q.denom())
    }
}

/// The homogenized row `(d, d·x)` of the point `x`, with `d` the least
/// common denominator of its entries; read as a direction, its tail is
/// `x` scaled by `d`.
pub fn homogenize(x: &QVector) -> Row {
    let d = common_denominator(x.iter());
    let mut out = Row::with_capacity(x.dim() + 1);
    out.push(d.clone());
    out.extend(x.iter().map(|q| scaled(q, &d)));
    out
}

/// The affine expression `row / den`, exactly: constant first, as in a
/// homogenized row.
pub fn to_affine(row: &[BigInt], den: &BigInt) -> AffineExpr {
    let q = |x: &BigInt| {
        if den.is_one() {
            Rational::from(x.clone())
        } else {
            Rational::from_big(x.clone(), den.clone())
        }
    };
    AffineExpr::from_parts(row[1..].iter().map(q).collect(), q(&row[0]))
}

/// `fa·a + fb·b`, made primitive.
pub(crate) fn combine(fa: &BigInt, a: &[BigInt], fb: &BigInt, b: &[BigInt]) -> Row {
    let mut out: Row = a
        .iter()
        .zip(b)
        .map(|(x, y)| &(fa * x) + &(fb * y))
        .collect();
    make_primitive(&mut out);
    out
}

/// `a ← fa·a + fb·b`, made primitive, in place.
pub(crate) fn combine_into(fa: &BigInt, a: &mut [BigInt], fb: &BigInt, b: &[BigInt]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = &(fa * &*x) + &(fb * y);
    }
    make_primitive(a);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: &[i64]) -> Row {
        v.iter().map(|&x| BigInt::from(x)).collect()
    }

    #[test]
    fn primitive_keeps_sign_and_zero() {
        let mut v = row(&[-4, 6, 0, 2]);
        make_primitive(&mut v);
        assert_eq!(v, row(&[-2, 3, 0, 1]));
        let mut z = row(&[0, 0]);
        make_primitive(&mut z);
        assert_eq!(z, row(&[0, 0]));
        // A gcd of 2^63 leaves the inline range.
        let mut m = row(&[i64::MIN, i64::MIN]);
        make_primitive(&mut m);
        assert_eq!(m, row(&[-1, -1]));
    }

    #[test]
    fn combinations() {
        let (a, b) = (row(&[1, 2, 0]), row(&[0, 1, 3]));
        assert_eq!(combine(&2.into(), &a, &(-4).into(), &b), row(&[1, 0, -6]));
        let mut c = a.clone();
        combine_into(&3.into(), &mut c, &3.into(), &b);
        assert_eq!(c, row(&[1, 3, 3]));
        assert_eq!(dot(&a, &b), BigInt::from(2));
    }

    #[test]
    fn reduce_and_homogenize() {
        let (mut v, mut den) = (row(&[4, -6, 0]), BigInt::from(10));
        reduce(&mut v, &mut den);
        assert_eq!((v, den), (row(&[2, -3, 0]), BigInt::from(5)));
        let x = QVector::from_vec(vec![Rational::new(1, 2), Rational::new(-2, 3), 5.into()]);
        let h = homogenize(&x);
        assert_eq!(h, row(&[6, 3, -4, 30]));
        assert_eq!(
            to_affine(&h, &BigInt::from(6)),
            AffineExpr::from_parts(x.clone(), Rational::one())
        );
        assert_eq!(homogenize(&QVector::from_i64(&[2, -1])), row(&[1, 2, -1]));
    }

    #[test]
    fn constraint_round_trip() {
        let c = Constraint::ge0(AffineExpr::from_i64(&[2, -3], 5));
        let r = of_constraint(&c);
        assert_eq!(r, row(&[5, 2, -3]));
        assert_eq!(to_constraint(&r, ConstraintKind::Ineq), c);
    }
}
