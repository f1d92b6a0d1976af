//! Parameterized vertices (Loechner–Wilde-style) with chamber splitting.
//!
//! The linearization of §4.4.2 of the paper replaces an iteration vector
//! by the vertices of its (parameterized) domain. When the domain's
//! right-hand sides depend on symbolic parameters — loop bounds `N`, or
//! the unknown occupancy vector `v` — the vertices are affine functions of
//! those parameters, and *which* candidate intersections are actual
//! vertices can change across the parameter space. Following [13]
//! (Loechner & Wilde), we enumerate candidate bases (the matrix of
//! eliminated-variable coefficients is constant, so each candidate is an
//! affine function of the parameters) and recursively split the parameter
//! domain into *chambers* on which the vertex set is uniform.

use crate::{Constraint, ConstraintKind, PolyhedraError, Polyhedron};
use aov_linalg::{AffineExpr, QMatrix, QVector};
use aov_numeric::Rational;

/// A vertex of the eliminated-variable polytope, as affine functions of
/// the parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamVertex {
    /// One affine expression (over the parameter space) per eliminated
    /// dimension.
    pub coords: Vec<AffineExpr>,
}

impl ParamVertex {
    /// Evaluates the vertex at a concrete parameter point.
    pub fn eval(&self, params: &QVector) -> QVector {
        self.coords.iter().map(|c| c.eval(params)).collect()
    }
}

/// A region of parameter space with a uniform vertex set.
#[derive(Debug, Clone)]
pub struct Chamber {
    /// Sub-polyhedron of the parameter domain.
    pub domain: Polyhedron,
    /// Vertices valid throughout `domain`.
    pub vertices: Vec<ParamVertex>,
}

/// Maximum recursion depth of chamber splitting. Depth grows by one per
/// sign split and per candidate exclusion, so it scales with the number
/// of candidate bases rather than the dimension.
const MAX_DEPTH: usize = 512;

/// Computes the parameterized vertices of the polytope obtained by fixing
/// the parameters in `system`.
///
/// `system` is a polyhedron over `n_elim + n_params` dimensions: the
/// first `n_elim` are the polytope variables (e.g. the iteration vector),
/// the remaining ones are symbolic parameters. `param_domain` constrains
/// the parameters (dimension `system.dim() - n_elim`).
///
/// Returns chambers covering `param_domain` (boundaries may be shared);
/// on each chamber the vertex set of the polytope is the given list
/// (empty when the polytope is empty there).
///
/// # Errors
///
/// * [`PolyhedraError::UnboundedDirection`] — the polytope has a
///   recession direction, so it is unbounded whenever nonempty and vertex
///   evaluation does not capture it.
/// * [`PolyhedraError::ChamberDepthExceeded`] — pathological splitting.
pub fn parameterized_vertices(
    system: &Polyhedron,
    n_elim: usize,
    param_domain: &Polyhedron,
) -> Result<Vec<Chamber>, PolyhedraError> {
    let _span = aov_trace::span!(
        "p2.vertex_enum",
        n_elim = n_elim,
        rows = system.constraints().len(),
    );
    aov_support::static_counter!("polyhedra.param.vertex_enums").add(1);
    let n_params = system
        .dim()
        .checked_sub(n_elim)
        .expect("n_elim exceeds system dimension");
    assert_eq!(
        param_domain.dim(),
        n_params,
        "parameter domain dimension mismatch"
    );

    // Split equalities into inequality pairs; collect (i-part, param-part).
    let mut rows: Vec<(QVector, AffineExpr)> = Vec::new();
    for c in system.constraints() {
        let ipart: QVector = (0..n_elim).map(|k| c.expr().coeff(k).clone()).collect();
        let ppart = AffineExpr::from_parts(
            (n_elim..system.dim())
                .map(|k| c.expr().coeff(k).clone())
                .collect(),
            c.expr().constant_term().clone(),
        );
        match c.kind() {
            ConstraintKind::Ineq => rows.push((ipart, ppart)),
            ConstraintKind::Eq => {
                rows.push((ipart.clone(), ppart.clone()));
                rows.push((-&ipart, -&ppart));
            }
        }
    }

    // Dedup identical rows — overlapping target/source bounds are common
    // and inflate the candidate-basis count combinatorially.
    let mut deduped: Vec<(QVector, AffineExpr)> = Vec::with_capacity(rows.len());
    for r in rows {
        if !deduped.contains(&r) {
            deduped.push(r);
        }
    }
    let rows = deduped;

    // Boundedness: the recession cone {i | a_i · i >= 0 ∀rows} must be {0}.
    let recession = Polyhedron::from_constraints(
        n_elim,
        rows.iter()
            .map(|(ipart, _)| {
                Constraint::ge0(AffineExpr::from_parts(ipart.clone(), Rational::zero()))
            })
            .collect(),
    );
    let rec_gens = recession.generators();
    if !rec_gens.rays.is_empty() || !rec_gens.lines.is_empty() {
        return Err(PolyhedraError::UnboundedDirection);
    }

    // Candidate vertices: invertible n_elim-subsets of rows.
    let mut candidates: Vec<Candidate> = Vec::new();
    let m = rows.len();
    let mut subset: Vec<usize> = (0..n_elim).collect();
    if m < n_elim {
        return Ok(vec![Chamber {
            domain: param_domain.clone(),
            vertices: Vec::new(),
        }]);
    }
    loop {
        if let Some(cand) = build_candidate(&rows, &subset, n_elim, n_params) {
            candidates.push(cand);
        }
        // Next n_elim-combination of 0..m.
        let mut k = n_elim;
        let done = loop {
            if k == 0 {
                break true;
            }
            k -= 1;
            if subset[k] + (n_elim - k) < m {
                subset[k] += 1;
                for j in k + 1..n_elim {
                    subset[j] = subset[j - 1] + 1;
                }
                break false;
            }
        };
        if done {
            break;
        }
    }

    let mut out = Vec::new();
    let active: Vec<usize> = (0..candidates.len()).collect();
    split(&candidates, &active, param_domain.clone(), 0, &mut out)?;
    Ok(out)
}

struct Candidate {
    coords: Vec<AffineExpr>,
    /// Feasibility conditions (affine over params, each must be >= 0).
    conditions: Vec<AffineExpr>,
}

fn build_candidate(
    rows: &[(QVector, AffineExpr)],
    subset: &[usize],
    n_elim: usize,
    n_params: usize,
) -> Option<Candidate> {
    let m = QMatrix::from_rows(subset.iter().map(|&i| rows[i].0.clone()).collect());
    let inv = m.inverse()?;
    // Solve M · i = -g(p): i_k = Σ_j inv[k][j] · (-g_j(p)).
    let coords: Vec<AffineExpr> = (0..n_elim)
        .map(|k| {
            let mut acc = AffineExpr::zero(n_params);
            for (j, &row) in subset.iter().enumerate() {
                let w = -&inv[(k, j)];
                if !w.is_zero() {
                    acc = &acc + &rows[row].1.scale(&w);
                }
            }
            acc
        })
        .collect();
    // Conditions: every non-basis row evaluated at the candidate.
    let mut conditions = Vec::new();
    for (i, (ipart, ppart)) in rows.iter().enumerate() {
        if subset.contains(&i) {
            continue;
        }
        let mut acc = ppart.clone();
        for (k, c) in ipart.iter().enumerate() {
            if !c.is_zero() {
                acc = &acc + &coords[k].scale(c);
            }
        }
        conditions.push(acc);
    }
    Some(Candidate { coords, conditions })
}

#[derive(PartialEq)]
enum Status {
    Always,
    Never,
    /// Condition changes sign on the domain's interior — split on it.
    SplitAt(AffineExpr),
    /// Condition holds only on the face `cond == 0` — reconsider the
    /// candidate there, exclude it elsewhere.
    BoundaryOnly(AffineExpr),
}

/// Sign behaviour of one affine condition over a region given by its
/// generators (Theorem 1: check vertices, the linear part on rays, and
/// both directions on lines). Much cheaper than per-condition LPs.
fn condition_status(cond: &AffineExpr, gens: &crate::GeneratorSet) -> Status {
    let mut min_nonneg = true; // min over region >= 0
    let mut max_neg = true; // max over region < 0
    let mut max_pos = false; // max over region > 0
    for v in &gens.vertices {
        let val = cond.eval(v);
        if val.is_negative() {
            min_nonneg = false;
        } else {
            max_neg = false;
            if val.is_positive() {
                max_pos = true;
            }
        }
    }
    for r in &gens.rays {
        let lin = cond.coeffs().dot(r);
        if lin.is_negative() {
            min_nonneg = false;
        } else if lin.is_positive() {
            max_neg = false;
            max_pos = true;
        }
    }
    for l in &gens.lines {
        let lin = cond.coeffs().dot(l);
        if !lin.is_zero() {
            min_nonneg = false;
            max_neg = false;
            max_pos = true;
        }
    }
    if min_nonneg {
        Status::Always
    } else if max_neg {
        Status::Never
    } else if max_pos {
        Status::SplitAt(cond.clone())
    } else {
        // max <= 0 but attained 0 somewhere: boundary-only.
        Status::BoundaryOnly(cond.clone())
    }
}

fn classify(cand: &Candidate, gens: &crate::GeneratorSet) -> Status {
    for cond in &cand.conditions {
        match condition_status(cond, gens) {
            Status::Always => continue,
            other => return other,
        }
    }
    Status::Always
}

fn split(
    candidates: &[Candidate],
    active: &[usize],
    domain: Polyhedron,
    depth: usize,
    out: &mut Vec<Chamber>,
) -> Result<(), PolyhedraError> {
    // Hot span: chamber splitting recurses thousands of times per
    // vertex enumeration — lite-mode ring events here would flood the
    // flight recorder (see `hot_span!`).
    let _span = aov_trace::hot_span!("p2.chamber", depth = depth, active = active.len());
    let gens = domain.generators();
    if gens.is_empty() {
        return Ok(());
    }
    if depth > MAX_DEPTH {
        return Err(PolyhedraError::ChamberDepthExceeded);
    }
    let mut vertices: Vec<ParamVertex> = Vec::new();
    for (pos, &ci) in active.iter().enumerate() {
        let cand = &candidates[ci];
        match classify(cand, &gens) {
            Status::Always => {
                let v = ParamVertex {
                    coords: cand.coords.clone(),
                };
                if !vertices.contains(&v) {
                    vertices.push(v);
                }
            }
            Status::Never => {}
            Status::SplitAt(cond) => {
                // Both halves are strictly smaller (the condition changes
                // sign on the interior), and in each half this condition
                // resolves to Always / Never / BoundaryOnly.
                aov_support::static_counter!("polyhedra.param.chamber_splits").add(1);
                let mut lo = domain.clone();
                lo.add_constraint(Constraint::ge0(cond.clone()));
                let mut hi = domain;
                hi.add_constraint(Constraint::ge0(-&cond));
                split(candidates, active, lo, depth + 1, out)?;
                split(candidates, active, hi, depth + 1, out)?;
                return Ok(());
            }
            Status::BoundaryOnly(cond) => {
                // The candidate is a vertex only on the face `cond == 0`;
                // recurse there with all candidates, and on the full
                // domain with this candidate removed (progress: the
                // active set shrinks).
                let mut face = domain.clone();
                face.add_constraint(Constraint::eq0(cond));
                split(candidates, active, face, depth + 1, out)?;
                let remaining: Vec<usize> = active
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| *p != pos)
                    .map(|(_, &c)| c)
                    .collect();
                split(candidates, &remaining, domain, depth + 1, out)?;
                return Ok(());
            }
        }
    }
    aov_support::static_counter!("polyhedra.param.chambers").add(1);
    out.push(Chamber { domain, vertices });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ge(coeffs: &[i64], c: i64) -> Constraint {
        Constraint::ge0(AffineExpr::from_i64(coeffs, c))
    }

    /// Rectangle 1 <= i <= n, 1 <= j <= m over params (n, m) >= 1: one
    /// chamber with the four symbolic corners of §5.2.
    #[test]
    fn rectangle_vertices_affine_in_bounds() {
        // Dims: (i, j, n, m).
        let system = Polyhedron::from_constraints(
            4,
            vec![
                ge(&[1, 0, 0, 0], -1), // i >= 1
                ge(&[-1, 0, 1, 0], 0), // i <= n
                ge(&[0, 1, 0, 0], -1), // j >= 1
                ge(&[0, -1, 0, 1], 0), // j <= m
            ],
        );
        let params = Polyhedron::from_constraints(2, vec![ge(&[1, 0], -1), ge(&[0, 1], -1)]);
        let chambers = parameterized_vertices(&system, 2, &params).unwrap();
        assert_eq!(chambers.len(), 1);
        let ch = &chambers[0];
        assert_eq!(ch.vertices.len(), 4);
        // Evaluate at (n, m) = (5, 7): corners (1,1), (5,1), (1,7), (5,7).
        let p = QVector::from_i64(&[5, 7]);
        let mut pts: Vec<String> = ch.vertices.iter().map(|v| v.eval(&p).to_string()).collect();
        pts.sort();
        assert_eq!(pts, vec!["(1, 1)", "(1, 7)", "(5, 1)", "(5, 7)"]);
    }

    /// Triangle {1 <= i <= j <= n}: three symbolic vertices.
    #[test]
    fn triangle_vertices() {
        // Dims: (i, j, n).
        let system = Polyhedron::from_constraints(
            3,
            vec![
                ge(&[1, 0, 0], -1), // i >= 1
                ge(&[-1, 1, 0], 0), // j >= i
                ge(&[0, -1, 1], 0), // j <= n
            ],
        );
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], -1)]);
        let chambers = parameterized_vertices(&system, 2, &params).unwrap();
        assert_eq!(chambers.len(), 1);
        let p = QVector::from_i64(&[4]);
        let mut pts: Vec<String> = chambers[0]
            .vertices
            .iter()
            .map(|v| v.eval(&p).to_string())
            .collect();
        pts.sort();
        assert_eq!(pts, vec!["(1, 1)", "(1, 4)", "(4, 4)"]);
    }

    /// A domain whose vertex structure changes: {0 <= i <= p, i <= 3}
    /// over p >= 0 splits at p = 3.
    #[test]
    fn chamber_split_on_structure_change() {
        // Dims: (i, p).
        let system = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),  // i >= 0
                ge(&[-1, 1], 0), // i <= p
                ge(&[-1, 0], 3), // i <= 3
            ],
        );
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], 0)]);
        let chambers = parameterized_vertices(&system, 1, &params).unwrap();
        assert!(chambers.len() >= 2, "expected a split, got {chambers:?}");
        // In every chamber, evaluating vertices at an interior point must
        // give the true endpoints {0, min(p, 3)}.
        for ch in &chambers {
            for p in 0..=6 {
                let pt = QVector::from_i64(&[p]);
                if !ch.domain.contains(&pt) {
                    continue;
                }
                let upper = p.min(3);
                let mut got: Vec<Rational> =
                    ch.vertices.iter().map(|v| v.eval(&pt)[0].clone()).collect();
                got.sort();
                got.dedup();
                let mut want = vec![Rational::from(0), Rational::from(upper)];
                want.sort();
                want.dedup();
                assert_eq!(got, want, "p = {p}");
            }
        }
    }

    #[test]
    fn unbounded_polytope_rejected() {
        // i >= 0 with no upper bound.
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0)]);
        let params = Polyhedron::universe(1);
        assert!(matches!(
            parameterized_vertices(&system, 1, &params),
            Err(PolyhedraError::UnboundedDirection)
        ));
    }

    #[test]
    fn empty_polytope_yields_empty_vertex_set() {
        // 1 <= i <= 0: empty for every parameter value.
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, 0], -1), ge(&[-1, 0], 0)]);
        let params = Polyhedron::universe(1);
        let chambers = parameterized_vertices(&system, 1, &params).unwrap();
        for ch in &chambers {
            assert!(ch.vertices.is_empty());
        }
    }

    /// Vertices from a candidate with equality constraints.
    #[test]
    fn equality_rows_supported() {
        // i == p, 0 <= i <= 10 over p in [0, 10].
        let system = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::eq0(AffineExpr::from_i64(&[1, -1], 0)),
                ge(&[1, 0], 0),
                ge(&[-1, 0], 10),
            ],
        );
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], 0), ge(&[-1], 10)]);
        let chambers = parameterized_vertices(&system, 1, &params).unwrap();
        // In every chamber the polytope is the single point {p}: distinct
        // vertex *expressions* may coincide as points, so compare values.
        for ch in &chambers {
            for p in 0..=10 {
                let pt = QVector::from_i64(&[p]);
                if !ch.domain.contains(&pt) {
                    continue;
                }
                let mut got: Vec<QVector> = ch.vertices.iter().map(|v| v.eval(&pt)).collect();
                got.dedup();
                assert_eq!(got, vec![QVector::from_i64(&[p])], "p = {p}");
            }
        }
    }
}
