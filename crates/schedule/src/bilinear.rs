//! Forms linear in a set of unknowns with coefficients affine in a
//! domain space.
//!
//! Both the schedule constraints (Eq. 2, linear in the scheduling
//! parameters with coefficients affine in `(i, N)`) and the storage
//! constraints (Eq. 3, additionally involving the occupancy vector) are
//! instances of this shape. The linearization of §4.4 turns such a form,
//! quantified over a polyhedral domain, into finitely many affine
//! constraints over the unknowns.

use aov_linalg::{AffineExpr, QVector};
use aov_numeric::Rational;

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
    coeffs: Vec<AffineExpr>,
    constant: AffineExpr,
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
        BilinearForm { coeffs, constant }
    }

    /// The zero form with `n_unknowns` unknowns over `domain_dim` dims.
    pub fn zero(n_unknowns: usize, domain_dim: usize) -> Self {
        BilinearForm {
            coeffs: vec![AffineExpr::zero(domain_dim); n_unknowns],
            constant: AffineExpr::zero(domain_dim),
        }
    }

    /// Number of unknowns.
    pub fn num_unknowns(&self) -> usize {
        self.coeffs.len()
    }

    /// Dimension of the domain space.
    pub fn domain_dim(&self) -> usize {
        self.constant.dim()
    }

    /// Coefficient form of unknown `e`.
    pub fn coeff(&self, e: usize) -> &AffineExpr {
        &self.coeffs[e]
    }

    /// Constant form.
    pub fn constant(&self) -> &AffineExpr {
        &self.constant
    }

    /// Adds `w(x) · u_e` to the form.
    pub fn add_to_coeff(&mut self, e: usize, w: &AffineExpr) {
        self.coeffs[e] = &self.coeffs[e] + w;
    }

    /// Adds `w(x)` to the constant part.
    pub fn add_to_constant(&mut self, w: &AffineExpr) {
        self.constant = &self.constant + w;
    }

    /// The negated form `−F` (used to flip between the causality
    /// orientation `Θ_R − Θ_T` and the storage orientation `Θ_T − Θ_R`).
    pub fn negated(&self) -> BilinearForm {
        BilinearForm {
            coeffs: self.coeffs.iter().map(|c| -c).collect(),
            constant: -&self.constant,
        }
    }

    /// Substitutes the domain variables: `x_k := subs[k](y)`, producing a
    /// form over the new domain space `y`.
    ///
    /// # Panics
    ///
    /// Panics if `subs.len() != self.domain_dim()`.
    pub fn substitute_domain(&self, subs: &[AffineExpr]) -> BilinearForm {
        BilinearForm {
            coeffs: self.coeffs.iter().map(|c| c.substitute(subs)).collect(),
            constant: self.constant.substitute(subs),
        }
    }

    /// Instantiates the domain point, yielding an affine form over the
    /// unknowns alone.
    pub fn at_point(&self, x: &QVector) -> AffineExpr {
        let coeffs: QVector = self.coeffs.iter().map(|c| c.eval(x)).collect();
        AffineExpr::from_parts(coeffs, self.constant.eval(x))
    }

    /// The linear part along a domain direction `r`: the affine form (over
    /// the unknowns) `F(u, x + t·r) − F(u, x)` divided by `t`. Used for
    /// the ray conditions of Theorem 1 on unbounded parameter domains.
    pub fn linear_part_along(&self, r: &QVector) -> AffineExpr {
        let coeffs: QVector = self.coeffs.iter().map(|c| c.coeffs().dot(r)).collect();
        AffineExpr::from_parts(coeffs, self.constant.coeffs().dot(r))
    }

    /// Fixes the unknowns to concrete values, yielding an affine form over
    /// the domain space.
    pub fn fix_unknowns(&self, u: &QVector) -> AffineExpr {
        assert_eq!(u.dim(), self.coeffs.len(), "unknown count mismatch");
        let mut acc = self.constant.clone();
        for (c, uv) in self.coeffs.iter().zip(u.iter()) {
            if !uv.is_zero() {
                acc = &acc + &c.scale(uv);
            }
        }
        acc
    }

    /// Evaluates fully.
    pub fn eval(&self, u: &QVector, x: &QVector) -> Rational {
        self.at_point(x).eval(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn substitute_domain_composes() {
        let f = sample();
        // x := t, y := 2t + 1 (new domain is 1-d).
        let g =
            f.substitute_domain(&[AffineExpr::from_i64(&[1], 0), AffineExpr::from_i64(&[2], 1)]);
        assert_eq!(g.domain_dim(), 1);
        // At t = 2 ⇒ (x, y) = (2, 5).
        assert_eq!(
            g.at_point(&QVector::from_i64(&[2])),
            f.at_point(&QVector::from_i64(&[2, 5]))
        );
    }

    #[test]
    fn linear_part_drops_constants() {
        let f = sample();
        let lp = f.linear_part_along(&QVector::from_i64(&[1, 0]));
        // Coefficient of u0 grows by 1 per unit x, u1 by 2, constant by 0.
        assert_eq!(lp, AffineExpr::from_i64(&[1, 2], 0));
        let lp_y = f.linear_part_along(&QVector::from_i64(&[0, 1]));
        assert_eq!(lp_y, AffineExpr::from_i64(&[1, 0], 1));
    }

    #[test]
    fn fix_unknowns_gives_domain_form() {
        let f = sample();
        let g = f.fix_unknowns(&QVector::from_i64(&[1, 1]));
        // (x+y) + (2x−1) + (y+3) = 3x + 2y + 2.
        assert_eq!(g, AffineExpr::from_i64(&[3, 2], 2));
    }
}
