//! Fourier–Motzkin variable elimination (exact projection).

use crate::{Constraint, ConstraintKind, Polyhedron};
use aov_linalg::AffineExpr;
use aov_numeric::Rational;

/// Eliminates dimension `k`; see [`Polyhedron::eliminate_dim`].
pub(crate) fn eliminate_dim(p: &Polyhedron, k: usize) -> Polyhedron {
    assert!(k < p.dim(), "eliminating dimension {k} of {}", p.dim());
    let _span = aov_trace::hot_span!("p2.fm.project", dim = k, rows = p.constraints().len());
    aov_support::static_counter!("polyhedra.fm.eliminations").add(1);
    let dim = p.dim();

    // If an equality mentions x_k, substitute it away.
    if let Some(eq_pos) = p
        .constraints()
        .iter()
        .position(|c| c.is_equality() && !c.expr().coeff(k).is_zero())
    {
        let eq = &p.constraints()[eq_pos];
        // From a·x + b = 0 with a_k != 0: x_k = -(rest)/a_k.
        let ak = eq.expr().coeff(k).clone();
        let mut out = Vec::new();
        for (i, c) in p.constraints().iter().enumerate() {
            if i == eq_pos {
                continue;
            }
            let ck = c.expr().coeff(k).clone();
            let expr = if ck.is_zero() {
                c.expr().clone()
            } else {
                // c - (ck/ak) * eq has zero coefficient on x_k.
                &(c.expr().clone()) - &eq.expr().scale(&(&ck / &ak))
            };
            let expr = drop_dim(&expr, k);
            match c.kind() {
                ConstraintKind::Ineq => out.push(Constraint::ge0(expr)),
                ConstraintKind::Eq => out.push(Constraint::eq0(expr)),
            }
        }
        return Polyhedron::from_constraints(dim - 1, simplify(out, dim - 1));
    }

    // Pure inequality elimination.
    let mut lower: Vec<&Constraint> = Vec::new(); // coeff_k > 0 (x_k >= ...)
    let mut upper: Vec<&Constraint> = Vec::new(); // coeff_k < 0 (x_k <= ...)
    let mut keep: Vec<Constraint> = Vec::new();
    for c in p.constraints() {
        let ck = c.expr().coeff(k);
        if ck.is_zero() {
            let expr = drop_dim(c.expr(), k);
            keep.push(match c.kind() {
                ConstraintKind::Ineq => Constraint::ge0(expr),
                ConstraintKind::Eq => Constraint::eq0(expr),
            });
        } else if ck.is_positive() {
            lower.push(c);
        } else {
            upper.push(c);
        }
    }
    for lo in &lower {
        for hi in &upper {
            let cl = lo.expr().coeff(k).clone(); // > 0
            let cu = hi.expr().coeff(k).clone(); // < 0
                                                 // (-cu)·lo + cl·hi eliminates x_k and stays >= 0.
            let combined = &lo.expr().scale(&-&cu) + &hi.expr().scale(&cl);
            debug_assert!(combined.coeff(k).is_zero());
            keep.push(Constraint::ge0(drop_dim(&combined, k)));
        }
    }
    Polyhedron::from_constraints(dim - 1, simplify(keep, dim - 1))
}

/// Removes coordinate `k` (its coefficient must be zero).
fn drop_dim(e: &AffineExpr, k: usize) -> AffineExpr {
    debug_assert!(e.coeff(k).is_zero());
    let coeffs: Vec<Rational> = e
        .coeffs()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != k)
        .map(|(_, c)| c.clone())
        .collect();
    AffineExpr::from_parts(coeffs.into_iter().collect(), e.constant_term().clone())
}

/// Drops duplicates and trivially-true rows; keeps a trivially-false row
/// (marking emptiness) if one appears.
fn simplify(cs: Vec<Constraint>, dim: usize) -> Vec<Constraint> {
    let mut out: Vec<Constraint> = Vec::new();
    for c in cs {
        if c.is_trivially_true() {
            continue;
        }
        if c.is_trivially_false() {
            return vec![Constraint::ge0(AffineExpr::constant(dim, (-1).into()))];
        }
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_linalg::QVector;

    fn ge(coeffs: &[i64], c: i64) -> Constraint {
        Constraint::ge0(AffineExpr::from_i64(coeffs, c))
    }

    #[test]
    fn project_square_to_interval() {
        // 0 <= x <= 2, 1 <= y <= 3; eliminate y -> 0 <= x <= 2.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[-1, 0], 2),
                ge(&[0, 1], -1),
                ge(&[0, -1], 3),
            ],
        );
        let q = p.eliminate_dim(1);
        assert_eq!(q.dim(), 1);
        assert!(q.contains(&QVector::from_i64(&[0])));
        assert!(q.contains(&QVector::from_i64(&[2])));
        assert!(!q.contains(&QVector::from_i64(&[3])));
        assert!(!q.contains(&QVector::from_i64(&[-1])));
    }

    #[test]
    fn projection_of_diagonal_strip() {
        // y <= x <= y + 1, 0 <= y <= 5; eliminate y -> 0 <= x <= 6.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[1, -1], 0), // x - y >= 0
                ge(&[-1, 1], 1), // y + 1 - x >= 0
                ge(&[0, 1], 0),
                ge(&[0, -1], 5),
            ],
        );
        let q = p.eliminate_dim(1);
        assert!(q.contains(&QVector::from_i64(&[0])));
        assert!(q.contains(&QVector::from_i64(&[6])));
        assert!(!q.contains(&QVector::from_i64(&[7])));
    }

    #[test]
    fn equality_substitution() {
        // x == 2y, 1 <= x <= 4; eliminate x -> 1/2 <= y <= 2.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::eq0(AffineExpr::from_i64(&[1, -2], 0)),
                ge(&[1, 0], -1),
                ge(&[-1, 0], 4),
            ],
        );
        let q = p.eliminate_dim(0);
        assert!(q.contains(&QVector::from_vec(vec![Rational::new(1, 2)])));
        assert!(q.contains(&QVector::from_i64(&[2])));
        assert!(!q.contains(&QVector::from_i64(&[3])));
    }

    #[test]
    fn empty_detected_through_projection() {
        // x >= 3, x <= 1 -> eliminating x leaves an infeasible constant row.
        let p = Polyhedron::from_constraints(1, vec![ge(&[1], -3), ge(&[-1], 1)]);
        let q = p.eliminate_dim(0);
        assert_eq!(q.dim(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn eliminate_multiple_dims() {
        // Box in 3D; eliminate y and z.
        let p = Polyhedron::from_constraints(
            3,
            vec![
                ge(&[1, 0, 0], 0),
                ge(&[-1, 0, 0], 7),
                ge(&[0, 1, 0], 0),
                ge(&[0, -1, 0], 1),
                ge(&[0, 0, 1], 0),
                ge(&[0, 0, -1], 1),
            ],
        );
        let q = p.eliminate_dims(&[1, 2]);
        assert_eq!(q.dim(), 1);
        assert!(q.contains(&QVector::from_i64(&[7])));
        assert!(!q.contains(&QVector::from_i64(&[8])));
    }

    #[test]
    fn projection_preserves_feasibility_of_shadows() {
        // For points in P, their projection must lie in the shadow.
        let p = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[2, 1], -2),
                ge(&[-1, 1], 3),
                ge(&[0, -1], 4),
                ge(&[1, 0], 5),
            ],
        );
        let q = p.eliminate_dim(1);
        for x in -10..=10 {
            for y in -10..=10 {
                if p.contains(&QVector::from_i64(&[x, y])) {
                    assert!(
                        q.contains(&QVector::from_i64(&[x])),
                        "projection lost ({x},{y})"
                    );
                }
            }
        }
    }
}
