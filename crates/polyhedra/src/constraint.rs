//! Affine constraints (`expr >= 0` or `expr == 0`).

use aov_linalg::{AffineExpr, QVector, VarSet};
use aov_numeric::Rational;
use std::fmt;

/// Kind of constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `expr >= 0`
    Ineq,
    /// `expr == 0`
    Eq,
}

/// An affine constraint over an implicit variable space.
///
/// # Examples
///
/// ```
/// use aov_polyhedra::Constraint;
/// use aov_linalg::{AffineExpr, QVector};
///
/// let c = Constraint::ge0(AffineExpr::from_i64(&[1, -1], 0)); // x >= y
/// assert!(c.satisfied_by(&QVector::from_i64(&[3, 2])));
/// assert!(!c.satisfied_by(&QVector::from_i64(&[2, 3])));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    expr: AffineExpr,
    kind: ConstraintKind,
}

impl Constraint {
    /// The constraint `expr >= 0`.
    pub fn ge0(expr: AffineExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Ineq,
        }
        .normalized()
    }

    /// The constraint `expr == 0`.
    pub fn eq0(expr: AffineExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Eq,
        }
        .normalized()
    }

    /// The constraint `lhs >= rhs`.
    pub fn ge(lhs: AffineExpr, rhs: AffineExpr) -> Self {
        Constraint::ge0(&lhs - &rhs)
    }

    /// The constraint `lhs <= rhs`.
    pub fn le(lhs: AffineExpr, rhs: AffineExpr) -> Self {
        Constraint::ge0(&rhs - &lhs)
    }

    /// The underlying affine expression.
    pub fn expr(&self) -> &AffineExpr {
        &self.expr
    }

    /// The relation kind.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// `true` for equality constraints.
    pub fn is_equality(&self) -> bool {
        self.kind == ConstraintKind::Eq
    }

    /// Dimension of the variable space.
    pub fn dim(&self) -> usize {
        self.expr.dim()
    }

    /// Whether the point satisfies the constraint.
    pub fn satisfied_by(&self, x: &QVector) -> bool {
        let v = self.expr.eval(x);
        match self.kind {
            ConstraintKind::Ineq => !v.is_negative(),
            ConstraintKind::Eq => v.is_zero(),
        }
    }

    /// Whether the constraint is trivially true for all points
    /// (a constant, satisfied expression).
    pub fn is_trivially_true(&self) -> bool {
        self.expr.is_constant()
            && match self.kind {
                ConstraintKind::Ineq => !self.expr.constant_term().is_negative(),
                ConstraintKind::Eq => self.expr.constant_term().is_zero(),
            }
    }

    /// Whether the constraint is unsatisfiable for all points.
    pub fn is_trivially_false(&self) -> bool {
        self.expr.is_constant()
            && match self.kind {
                ConstraintKind::Ineq => self.expr.constant_term().is_negative(),
                ConstraintKind::Eq => !self.expr.constant_term().is_zero(),
            }
    }

    /// The constraint of an expression already in canonical form (integer
    /// coefficients of gcd 1, or all zero), without normalizing it again.
    pub(crate) fn from_primitive(expr: AffineExpr, kind: ConstraintKind) -> Self {
        let c = Constraint { expr, kind };
        debug_assert_eq!(c.clone().normalized(), c, "not primitive");
        c
    }

    /// Canonical form: integer coefficients divided by their gcd (keeps
    /// the sign, so the constraint is unchanged as a set).
    fn normalized(self) -> Self {
        // Integer rows in machine words, the common case: divide by their
        // gcd without scaling (a gcd of 2^63 reads negative and falls
        // through).
        let parts = self.expr.coeffs().iter().chain([self.expr.constant_term()]);
        if let Some(ints) = parts.map(Rational::to_i64).collect::<Option<Vec<i64>>>() {
            let g = ints.iter().fold(0, |g, &x| aov_numeric::gcd(g, x));
            if (0..=1).contains(&g) {
                return self;
            }
            if g > 1 {
                let (constant, coeffs) = ints.split_last().expect("constant term");
                let expr = AffineExpr::from_parts(
                    coeffs.iter().map(|&x| Rational::from_int(x / g)).collect(),
                    Rational::from_int(constant / g),
                );
                return Constraint {
                    expr,
                    kind: self.kind,
                };
            }
        }
        let cleared = self.expr.clear_denominators();
        // Divide by gcd of all integer coefficients.
        let mut g = aov_numeric::BigInt::zero();
        for c in cleared
            .coeffs()
            .iter()
            .chain(std::iter::once(cleared.constant_term()))
        {
            debug_assert!(c.is_integer());
            g = aov_numeric::gcd_big(&g, c.numer());
        }
        let expr = if g > aov_numeric::BigInt::one() {
            cleared.scale(&Rational::from_big(aov_numeric::BigInt::one(), g))
        } else {
            cleared
        };
        Constraint {
            expr,
            kind: self.kind,
        }
    }

    /// Renders with variable names.
    pub fn display<'a>(&'a self, vars: &'a VarSet) -> impl fmt::Display + 'a {
        DisplayConstraint { c: self, vars }
    }
}

struct DisplayConstraint<'a> {
    c: &'a Constraint,
    vars: &'a VarSet,
}

impl fmt::Display for DisplayConstraint<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rel = match self.c.kind {
            ConstraintKind::Ineq => ">=",
            ConstraintKind::Eq => "==",
        };
        write!(f, "{} {rel} 0", self.c.expr.display(self.vars))
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rel = match self.kind {
            ConstraintKind::Ineq => ">=",
            ConstraintKind::Eq => "==",
        };
        write!(f, "Constraint({:?} {rel} 0)", self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfaction() {
        let ge = Constraint::ge0(AffineExpr::from_i64(&[1, -2], 1)); // x - 2y + 1 >= 0
        assert!(ge.satisfied_by(&QVector::from_i64(&[1, 1])));
        assert!(ge.satisfied_by(&QVector::from_i64(&[3, 2])));
        assert!(!ge.satisfied_by(&QVector::from_i64(&[0, 1])));
        let eq = Constraint::eq0(AffineExpr::from_i64(&[1, -1], 0));
        assert!(eq.satisfied_by(&QVector::from_i64(&[4, 4])));
        assert!(!eq.satisfied_by(&QVector::from_i64(&[4, 5])));
    }

    #[test]
    fn normalization_divides_gcd() {
        let c = Constraint::ge0(AffineExpr::from_i64(&[2, 4], 6));
        assert_eq!(c.expr(), &AffineExpr::from_i64(&[1, 2], 3));
        // Rational inputs get cleared to integers.
        let c2 = Constraint::ge0(AffineExpr::from_parts(
            QVector::from_vec(vec![Rational::new(1, 2), Rational::new(1, 3)]),
            Rational::zero(),
        ));
        assert_eq!(c2.expr(), &AffineExpr::from_i64(&[3, 2], 0));
    }

    #[test]
    fn triviality() {
        assert!(Constraint::ge0(AffineExpr::constant(2, 5.into())).is_trivially_true());
        assert!(Constraint::ge0(AffineExpr::constant(2, (-1).into())).is_trivially_false());
        assert!(Constraint::eq0(AffineExpr::zero(2)).is_trivially_true());
        assert!(Constraint::eq0(AffineExpr::constant(2, 3.into())).is_trivially_false());
        assert!(!Constraint::ge0(AffineExpr::var(2, 0)).is_trivially_true());
    }

    #[test]
    fn ge_le_builders() {
        let x = AffineExpr::var(1, 0);
        let two = AffineExpr::constant(1, 2.into());
        let c = Constraint::ge(x.clone(), two.clone()); // x >= 2
        assert!(c.satisfied_by(&QVector::from_i64(&[2])));
        assert!(!c.satisfied_by(&QVector::from_i64(&[1])));
        let c = Constraint::le(x, two); // x <= 2
        assert!(c.satisfied_by(&QVector::from_i64(&[2])));
        assert!(!c.satisfied_by(&QVector::from_i64(&[3])));
    }

    #[test]
    fn display() {
        let vars = VarSet::from_names(["i", "j"]);
        let c = Constraint::ge0(AffineExpr::from_i64(&[1, -1], 2));
        assert_eq!(c.display(&vars).to_string(), "i - j + 2 >= 0");
    }
}
