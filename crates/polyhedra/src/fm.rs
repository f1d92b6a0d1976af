//! Fourier–Motzkin variable elimination (exact projection).
//!
//! The kernel works on the constraints' homogenized integer rows (see
//! [`crate::int`]): a row is converted once on the way in and once on the
//! way out of [`eliminate_dims`], however many dimensions it eliminates,
//! and each combination is one new primitive row. Every step keeps the
//! rows a rational elimination of one dimension followed by
//! [`Constraint`](crate::Constraint) normalization would keep, in the
//! same order.

use crate::int::{self, Row};
use crate::param::dedup_in_order;
use crate::{ConstraintKind, Polyhedron};
use aov_numeric::BigInt;

/// Eliminates the dimensions `dims`, given in descending order, one after
/// the other; see [`Polyhedron::eliminate_dims`].
pub(crate) fn eliminate_dims(p: &Polyhedron, dims: &[usize]) -> Polyhedron {
    debug_assert!(dims.windows(2).all(|w| w[0] > w[1]), "descending dims");
    let mut rows: Vec<(Row, ConstraintKind)> = p
        .constraints()
        .iter()
        .map(|c| (int::of_constraint(c), c.kind()))
        .collect();
    let mut dim = p.dim();
    for &k in dims {
        assert!(k < dim, "eliminating dimension {k} of {dim}");
        rows = eliminate(rows, k);
        dim -= 1;
    }
    let constraints = rows
        .iter()
        .map(|(row, kind)| int::to_constraint(row, *kind))
        .collect();
    Polyhedron::from_constraints(dim, constraints)
}

/// One elimination step: the rows without dimension `k` (row column
/// `k + 1`), simplified.
fn eliminate(mut rows: Vec<(Row, ConstraintKind)>, k: usize) -> Vec<(Row, ConstraintKind)> {
    let _span = aov_trace::hot_span!("p2.fm.project", dim = k, rows = rows.len());
    aov_support::static_counter!("polyhedra.fm.eliminations").add(1);
    let col = k + 1;

    // If an equality mentions x_k, substitute it away.
    if let Some(eq_pos) = rows
        .iter()
        .position(|(row, kind)| *kind == ConstraintKind::Eq && !row[col].is_zero())
    {
        // From e·x = 0 with e_k != 0, each other row c becomes
        // |e_k|·c − sgn(e_k)·c_k·e: zero at x_k, and a positive multiple
        // of the rational substitution c − (c_k/e_k)·e.
        let (eq, _) = rows.remove(eq_pos);
        let scale = eq[col].abs();
        let mut out = Vec::with_capacity(rows.len());
        for (mut row, kind) in rows {
            let ck = &row[col];
            if !ck.is_zero() {
                let factor = if eq[col].is_negative() {
                    ck.clone()
                } else {
                    -ck
                };
                int::combine_into(&scale, &mut row, &factor, &eq);
            }
            row.remove(col);
            out.push((row, kind));
        }
        return simplify(out);
    }

    // Pure inequality elimination.
    let mut lower: Vec<Row> = Vec::new(); // coeff_k > 0 (x_k >= ...)
    let mut upper: Vec<Row> = Vec::new(); // coeff_k < 0 (x_k <= ...)
    let mut keep: Vec<(Row, ConstraintKind)> = Vec::new();
    for (mut row, kind) in rows {
        let ck = &row[col];
        if ck.is_zero() {
            row.remove(col);
            keep.push((row, kind));
        } else if ck.is_positive() {
            lower.push(row);
        } else {
            upper.push(row);
        }
    }
    for lo in &lower {
        for hi in &upper {
            // (-cu)·lo + cl·hi eliminates x_k and stays >= 0.
            let mut combined = int::combine(&-&hi[col], lo, &lo[col], hi);
            debug_assert!(combined[col].is_zero());
            combined.remove(col);
            keep.push((combined, ConstraintKind::Ineq));
        }
    }
    simplify(keep)
}

/// Drops duplicates (first occurrences kept in place) and trivially-true
/// rows; a trivially-false row (marking emptiness) replaces them all.
fn simplify(rows: Vec<(Row, ConstraintKind)>) -> Vec<(Row, ConstraintKind)> {
    let mut out = Vec::with_capacity(rows.len());
    for (row, kind) in rows {
        if int::is_zero(&row[1..]) {
            let holds = match kind {
                ConstraintKind::Ineq => !row[0].is_negative(),
                ConstraintKind::Eq => row[0].is_zero(),
            };
            if holds {
                continue;
            }
            let mut empty = vec![BigInt::zero(); row.len()];
            empty[0] = BigInt::from(-1);
            return vec![(empty, ConstraintKind::Ineq)];
        }
        out.push((row, kind));
    }
    dedup_in_order(out)
}

/// Test oracle: the elimination over rational constraints that
/// [`eliminate_dims`] replaced, one dimension per call, normalizing each
/// new row and dropping repeats with a linear scan.
#[cfg(test)]
pub(crate) mod reference {
    use crate::{Constraint, ConstraintKind, Polyhedron};
    use aov_linalg::AffineExpr;
    use aov_numeric::Rational;

    /// `p` with dimension `k` eliminated.
    pub fn eliminate_dim(p: &Polyhedron, k: usize) -> Polyhedron {
        let dim = p.dim();
        if let Some(eq_pos) = p
            .constraints()
            .iter()
            .position(|c| c.is_equality() && !c.expr().coeff(k).is_zero())
        {
            let eq = &p.constraints()[eq_pos];
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
        let mut lower: Vec<&Constraint> = Vec::new();
        let mut upper: Vec<&Constraint> = Vec::new();
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
                let cl = lo.expr().coeff(k).clone();
                let cu = hi.expr().coeff(k).clone();
                let combined = &lo.expr().scale(&-&cu) + &hi.expr().scale(&cl);
                keep.push(Constraint::ge0(drop_dim(&combined, k)));
            }
        }
        Polyhedron::from_constraints(dim - 1, simplify(keep, dim - 1))
    }

    fn drop_dim(e: &AffineExpr, k: usize) -> AffineExpr {
        let coeffs: Vec<Rational> = e
            .coeffs()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != k)
            .map(|(_, c)| c.clone())
            .collect();
        AffineExpr::from_parts(coeffs.into_iter().collect(), e.constant_term().clone())
    }

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constraint;
    use aov_linalg::{AffineExpr, QVector};
    use aov_numeric::Rational;

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
        let q = p.eliminate_dims(&[1]);
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
        let q = p.eliminate_dims(&[1]);
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
        let q = p.eliminate_dims(&[0]);
        assert!(q.contains(&QVector::from_vec(vec![Rational::new(1, 2)])));
        assert!(q.contains(&QVector::from_i64(&[2])));
        assert!(!q.contains(&QVector::from_i64(&[3])));
    }

    #[test]
    fn empty_detected_through_projection() {
        // x >= 3, x <= 1 -> eliminating x leaves an infeasible constant row.
        let p = Polyhedron::from_constraints(1, vec![ge(&[1], -3), ge(&[-1], 1)]);
        let q = p.eliminate_dims(&[0]);
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

    /// The integer kernel against the rational reference, one dimension
    /// at a time down to none, on random systems with equalities whose
    /// eliminated coefficient has either sign.
    #[test]
    fn matches_rational_reference_on_random_systems() {
        let mut rng = aov_support::Rng::new(5);
        let mut substitutions = 0;
        for _case in 0..300 {
            let d = rng.usize_in(2, 4);
            let cs = (0..rng.usize_in(2, 6))
                .map(|r| {
                    let e = AffineExpr::from_i64(&rng.vec_i64(-3, 3, d), rng.i64_in(-4, 4));
                    if r < 2 && rng.u64_below(2) == 0 {
                        Constraint::eq0(e)
                    } else {
                        Constraint::ge0(e)
                    }
                })
                .collect();
            let mut p = Polyhedron::from_constraints(d, cs);
            while p.dim() > 0 {
                let k = rng.usize_in(0, p.dim() - 1);
                substitutions += usize::from(
                    p.constraints()
                        .iter()
                        .any(|c| c.is_equality() && c.expr().coeff(k).is_negative()),
                );
                let next = p.eliminate_dims(&[k]);
                assert_eq!(next, reference::eliminate_dim(&p, k), "{p:?} at {k}");
                p = next;
            }
        }
        assert!(substitutions >= 50, "{substitutions} negative pivots");
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
        let q = p.eliminate_dims(&[1]);
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
