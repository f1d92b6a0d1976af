//! Vertex-based constraint linearization (§4.4 of the paper).
//!
//! Given a [`BilinearForm`] `F(u, (i, N))` that must be nonnegative for
//! all `i` in a (parameterized) polytope and all `N` in the parameter
//! domain, produce finitely many affine constraints over `u`:
//!
//! 1. eliminate `i` at the parameterized vertices of the domain
//!    (§4.4.2); each vertex comes with the generators of its validity
//!    domain, the parameters at which it is a vertex, as integer rows,
//! 2. eliminate `N` at the vertices and rays of each validity domain
//!    (§4.4.3; rays contribute "linear part nonnegative" constraints per
//!    Theorem 1, lines contribute equalities encoded as two
//!    inequalities).
//!
//! This is exact: at every `N`, the vertices of the polytope are the
//! values of the vertices valid at `N`, so the form is `>= 0` on every
//! polytope iff each vertex's substituted form, affine in `N`, is `>= 0`
//! on its validity domain, which Theorem 1 decides at that domain's
//! generators.

use crate::BilinearForm;
use aov_linalg::AffineExpr;
use aov_numeric::BigInt;
use aov_polyhedra::int::{self, Row};
use aov_polyhedra::param::{self, dedup_in_order, ParamVertex};
use aov_polyhedra::{Constraint, ConstraintKind, PolyhedraError, Polyhedron};

/// Linearizes `F(u, (i, N)) >= 0  ∀ (i, N) ∈ system, N ∈ param_domain`
/// into affine constraints `g(u) >= 0`.
///
/// * `form` — over domain space `(i, N)` (`n_elim` iteration dims
///   followed by the parameter dims).
/// * `system` — polyhedron over the same space (the constraint's
///   domain `Z` or `P_j`).
/// * `param_domain` — polyhedron over the parameter dims only.
///
/// # Errors
///
/// Propagates [`PolyhedraError`] from the parameterized-vertex
/// computation (unbounded iteration domains).
pub fn eliminate_to_linear(
    form: &BilinearForm,
    system: &Polyhedron,
    n_elim: usize,
    param_domain: &Polyhedron,
) -> Result<Vec<AffineExpr>, PolyhedraError> {
    assert_eq!(
        form.domain_dim(),
        system.dim(),
        "form/system domain mismatch"
    );
    let vertices = param::parameterized_vertices(system, n_elim, param_domain)?;
    Ok(linearize_at_vertices(form, &vertices)
        .iter()
        .map(|(row, _)| row.to_affine())
        .collect())
}

/// Where a linearized row came from — a parameter-domain vertex (the form
/// evaluated at a point) or a ray/line (the form's linear part along a
/// direction). The storage solvers need the distinction: point rows carry
/// the `v·Θ` coupling of the occupancy vector, direction rows do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKind {
    /// Evaluated at a concrete `(i, N)` point.
    Point,
    /// Linear part along an unbounded parameter direction.
    Direction,
}

/// One linearized row `row / den >= 0` over the unknowns: homogenized
/// integer numerators (constant first) over a positive denominator, in
/// lowest terms with it, so that equal rows have equal representations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinearRow {
    row: Row,
    den: BigInt,
}

impl LinearRow {
    /// The row `row / den`, brought to lowest terms.
    fn new(mut row: Row, mut den: BigInt) -> Self {
        int::reduce(&mut row, &mut den);
        LinearRow { row, den }
    }

    /// The numerators, homogenized (constant first).
    pub(crate) fn numerators(&self) -> &[BigInt] {
        &self.row
    }

    /// The common denominator (positive).
    pub(crate) fn denominator(&self) -> &BigInt {
        &self.den
    }

    /// The row as an exact affine expression over the unknowns.
    pub fn to_affine(&self) -> AffineExpr {
        int::to_affine(&self.row, &self.den)
    }

    /// The constraint `row >= 0`: the numerators made primitive.
    pub fn to_constraint(&self) -> Constraint {
        int::primitive_constraint(&mut self.row.clone(), ConstraintKind::Ineq)
    }
}

/// The linearization of [`eliminate_to_linear`] over parameterized
/// vertices already computed for the form's domain, each row tagged with
/// its [`RowKind`]. Per vertex, the form at the vertex is one matrix
/// product ([`BilinearForm::at_vertex`]), and each row one product of
/// that with an integer generator row `(λ, N)` of the vertex's validity
/// domain.
/// Trivially true constant rows are dropped (a negative constant is
/// kept: the LP reports the contradiction), and repeated `(row, kind)`
/// pairs keep their first occurrence.
///
/// # Panics
///
/// Panics if `form`'s domain is not the vertices' eliminated dims
/// followed by their parameter dims.
pub fn linearize_at_vertices(
    form: &BilinearForm,
    vertices: &[ParamVertex],
) -> Vec<(LinearRow, RowKind)> {
    let mut out = Vec::new();
    let mut row = Row::new();
    for vertex in vertices {
        // Substitute i := c(N): the domain space becomes N alone.
        let over_params = form.at_vertex(vertex);
        let den = over_params.denominator();
        // A constant >= 0 requirement is either trivially true (dropped)
        // or a contradiction (kept — the LP will report infeasibility).
        let mut push = |row: &Row, den: BigInt, kind: RowKind| {
            if !int::is_trivially_true(row, ConstraintKind::Ineq) {
                out.push((LinearRow::new(row.clone(), den), kind));
            }
        };
        // A point row `(λ, λ·N)` scales the form's value by `λ`; a
        // direction `(0, r)` is read along `r`.
        let gens = &vertex.generators;
        for w in &gens.vertices {
            over_params.row_at(w, &mut row);
            push(&row, den * &w[0], RowKind::Point);
        }
        for r in &gens.rays {
            over_params.row_along(&r[1..], &mut row);
            push(&row, den.clone(), RowKind::Direction);
        }
        for l in &gens.lines {
            over_params.row_along(&l[1..], &mut row);
            push(&row, den.clone(), RowKind::Direction);
            row.iter_mut().for_each(|x| *x = -&*x);
            push(&row, den.clone(), RowKind::Direction);
        }
    }
    dedup_in_order(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_linalg::QVector;
    use aov_polyhedra::Constraint;

    fn ge(coeffs: &[i64], c: i64) -> Constraint {
        Constraint::ge0(AffineExpr::from_i64(coeffs, c))
    }

    /// Paper §5.1.1: for uniform dependences, the iteration vector drops
    /// out and a single constraint per dependence remains.
    #[test]
    fn uniform_form_yields_single_constraint() {
        // F(u, (i, j, n, m)) = 2·u0 + u1 − 1 (no domain dependence at all):
        // mimics Θ(i,j) − Θ(i−2, j−1) − 1 with Θ = a·i + b·j.
        let form = BilinearForm::new(
            vec![
                AffineExpr::constant(4, 2.into()),
                AffineExpr::constant(4, 1.into()),
            ],
            AffineExpr::constant(4, (-1).into()),
        );
        // Domain: rectangle 1<=i<=n, 1<=j<=m; params n,m >= 1.
        let system = Polyhedron::from_constraints(
            4,
            vec![
                ge(&[1, 0, 0, 0], -1),
                ge(&[-1, 0, 1, 0], 0),
                ge(&[0, 1, 0, 0], -1),
                ge(&[0, -1, 0, 1], 0),
            ],
        );
        let params = Polyhedron::from_constraints(2, vec![ge(&[1, 0], -1), ge(&[0, 1], -1)]);
        let cs = eliminate_to_linear(&form, &system, 2, &params).unwrap();
        // All vertices and rays give the same constraint 2u0 + u1 - 1 >= 0.
        assert_eq!(cs, vec![AffineExpr::from_i64(&[2, 1], -1)]);
    }

    /// When coefficients genuinely depend on (i, N), distinct constraints
    /// appear for distinct vertices, and parameter rays add linear-part
    /// constraints (§5.2's 24-constraint expansion, in miniature).
    #[test]
    fn vertex_and_ray_constraints() {
        // F(u, (i, n)) = i·u0 − n: requires i·u0 >= n on 0 <= i <= n,
        // n >= 1 (unbounded).
        let form = BilinearForm::new(
            vec![AffineExpr::from_i64(&[1, 0], 0)],
            AffineExpr::from_i64(&[0, -1], 0),
        );
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0), ge(&[-1, 1], 0)]);
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1)]);
        let cs = eliminate_to_linear(&form, &system, 1, &params).unwrap();
        // Vertices i=0 and i=n; param vertex n=1 and ray n→∞:
        //   i=0: −n >= 0 at n=1 → constant −1 (kept as contradiction);
        //        ray: −1 >= 0 → constant (kept as contradiction).
        // Infeasibility must be visible in the constraint set: some
        // constraint is constant-negative.
        assert!(
            cs.iter()
                .any(|c| c.is_constant() && c.constant_term().is_negative()),
            "expected an infeasible constant constraint, got {cs:?}"
        );
        // And the i=n vertex yields n-dependent rows like u0 − 1 >= 0
        // (vertex n=1) plus ray row u0 − ... — check u0-involving row
        // exists.
        assert!(cs.iter().any(|c| !c.coeff(0).is_zero()));
    }

    /// The constraint domain `Z` can be empty (paper Example 3): no
    /// constraints are produced.
    #[test]
    fn empty_system_produces_nothing() {
        let form = BilinearForm::new(vec![AffineExpr::from_i64(&[1, 0], 0)], AffineExpr::zero(2));
        let system = Polyhedron::from_constraints(
            2,
            vec![ge(&[1, 0], -2), ge(&[-1, 0], 1)], // 2 <= i <= 1: empty
        );
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1)]);
        let cs = eliminate_to_linear(&form, &system, 1, &params).unwrap();
        assert!(cs.is_empty());
    }

    /// Correctness spot check: every produced constraint is implied by
    /// the original quantified statement, and conversely the produced
    /// set forces nonnegativity at sampled domain points.
    #[test]
    fn linearization_sound_on_samples() {
        // F(u, (i, n)) = (n − i)·u0 + i·u1 − n over 0<=i<=n, 1<=n<=6.
        let form = BilinearForm::new(
            vec![
                AffineExpr::from_i64(&[-1, 1], 0),
                AffineExpr::from_i64(&[1, 0], 0),
            ],
            AffineExpr::from_i64(&[0, -1], 0),
        );
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0), ge(&[-1, 1], 0)]);
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1), ge(&[-1], 6)]);
        let cs = eliminate_to_linear(&form, &system, 1, &params).unwrap();
        // For a grid of u values: u satisfies all linearized constraints
        // ⇔ F(u, ·) >= 0 on all integer domain points.
        for u0 in -2i64..=3 {
            for u1 in -2i64..=3 {
                let u = QVector::from_i64(&[u0, u1]);
                let lin_ok = cs.iter().all(|c| !c.eval(&u).is_negative());
                let mut true_ok = true;
                for n in 1i64..=6 {
                    for i in 0..=n {
                        let x = QVector::from_i64(&[i, n]);
                        if form.eval(&u, &x).is_negative() {
                            true_ok = false;
                        }
                    }
                }
                assert_eq!(lin_ok, true_ok, "u = ({u0}, {u1})");
            }
        }
    }
}
