//! Parameterized vertices (Loechner–Wilde-style) with validity domains.
//!
//! The linearization of §4.4.2 of the paper replaces an iteration vector
//! by the vertices of its (parameterized) domain. When the domain's
//! right-hand sides depend on symbolic parameters — loop bounds `N`, or
//! the unknown occupancy vector `v` — the vertices are affine functions of
//! those parameters, and *which* candidate intersections are actual
//! vertices can change across the parameter space. Following [13]
//! (Loechner & Wilde), we enumerate candidate bases (the matrix of
//! eliminated-variable coefficients is constant, so each candidate is an
//! affine function of the parameters) and give each distinct candidate
//! its *validity domain*: the parameters at which it satisfies every
//! row. No chamber decomposition is formed; each domain costs one DD.

use crate::{Constraint, ConstraintKind, GeneratorSet, PolyhedraError, Polyhedron};
use aov_linalg::{AffineExpr, QMatrix, QVector};
use aov_numeric::Rational;
use std::collections::HashSet;
use std::hash::Hash;

/// A vertex of the eliminated-variable polytope, as affine functions of
/// the parameters, with the parameter region where it is valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamVertex {
    /// One affine expression (over the parameter space) per eliminated
    /// dimension.
    pub coords: Vec<AffineExpr>,
    /// Validity domain: the points of the parameter domain at which
    /// `coords` lies in the polytope (nonempty).
    pub domain: Polyhedron,
    /// Generators of `domain`.
    pub generators: GeneratorSet,
}

impl ParamVertex {
    /// Evaluates the vertex at a concrete parameter point.
    pub fn eval(&self, params: &QVector) -> QVector {
        self.coords.iter().map(|c| c.eval(params)).collect()
    }
}

/// Computes the parameterized vertices of the polytope obtained by fixing
/// the parameters in `system`.
///
/// `system` is a polyhedron over `n_elim + n_params` dimensions: the
/// first `n_elim` are the polytope variables (e.g. the iteration vector),
/// the remaining ones are symbolic parameters. `param_domain` constrains
/// the parameters (dimension `system.dim() - n_elim`).
///
/// Returns each distinct candidate vertex whose validity domain is
/// nonempty, in first-enumeration order. At every parameter point `N`
/// of `param_domain`, the vertices of the polytope are exactly the
/// values at `N` of the returned vertices whose domain contains `N`
/// (an affine form is therefore `>= 0` on every polytope iff, for each
/// returned vertex, it is `>= 0` after substitution at that vertex's
/// domain generators). The list is empty when the polytope is empty for
/// every parameter value.
///
/// # Errors
///
/// [`PolyhedraError::UnboundedDirection`] — the polytope has a recession
/// direction, so it is unbounded whenever nonempty and vertex evaluation
/// does not capture it.
pub fn parameterized_vertices(
    system: &Polyhedron,
    n_elim: usize,
    param_domain: &Polyhedron,
) -> Result<Vec<ParamVertex>, PolyhedraError> {
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

    // Identical rows are common (overlapping target/source bounds) and
    // inflate the candidate-basis count combinatorially.
    let rows = dedup_in_order(split_rows(system, n_elim));
    if !bounded(&rows, n_elim) {
        return Err(PolyhedraError::UnboundedDirection);
    }

    // Candidate vertices: basic solutions of invertible n_elim-subsets of
    // rows, one per distinct expression.
    let mut candidates = Vec::new();
    let mut subset: Vec<usize> = (0..n_elim).collect();
    if rows.len() >= n_elim {
        loop {
            if let Some(coords) = basic_solution(&rows, &subset, n_params) {
                candidates.push(coords);
            }
            if !next_combination(&mut subset, rows.len()) {
                break;
            }
        }
    }

    let mut out = Vec::new();
    'candidates: for coords in dedup_in_order(candidates) {
        // Every row evaluated at the candidate must be >= 0. Constant
        // rows (the basis rows among them) are decided here.
        let mut conditions = Vec::with_capacity(rows.len());
        for row in &rows {
            let cond = row_at(row, &coords);
            if !cond.is_constant() {
                conditions.push(cond);
            } else if cond.constant_term().is_negative() {
                continue 'candidates;
            }
        }
        let mut domain = param_domain.clone();
        for cond in dedup_in_order(conditions) {
            domain.add_constraint(Constraint::ge0(cond));
        }
        let generators = domain.generators();
        if generators.is_empty() {
            continue;
        }
        // Counts validity domains kept; the name predates them and stays
        // so per-layer series remain comparable.
        aov_support::static_counter!("polyhedra.param.chambers").add(1);
        out.push(ParamVertex {
            coords,
            domain,
            generators,
        });
    }
    Ok(out)
}

/// One row of `system`, split into its eliminated-variable coefficients
/// and its affine parameter part; the row reads `ipart · i + ppart >= 0`.
type Row = (QVector, AffineExpr);

/// The rows of `system` with equalities as two opposite inequalities.
fn split_rows(system: &Polyhedron, n_elim: usize) -> Vec<Row> {
    let mut rows = Vec::with_capacity(system.constraints().len());
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
                let negated = (-&ipart, -&ppart);
                rows.push((ipart, ppart));
                rows.push(negated);
            }
        }
    }
    rows
}

/// Whether the polytope is bounded: its recession cone
/// `{i | ipart · i >= 0 for every row}` is `{0}`.
fn bounded(rows: &[Row], n_elim: usize) -> bool {
    let recession = Polyhedron::from_constraints(
        n_elim,
        rows.iter()
            .map(|(ipart, _)| {
                Constraint::ge0(AffineExpr::from_parts(ipart.clone(), Rational::zero()))
            })
            .collect(),
    );
    recession.generators().is_bounded()
}

/// The basic solution `i(p)` of the rows in `subset` held at equality,
/// or `None` when those rows are linearly dependent.
fn basic_solution(rows: &[Row], subset: &[usize], n_params: usize) -> Option<Vec<AffineExpr>> {
    let m = QMatrix::from_rows(subset.iter().map(|&i| rows[i].0.clone()).collect());
    let inv = m.inverse()?;
    // Solve M · i = -g(p): i_k = Σ_j inv[k][j] · (-g_j(p)).
    let coords = (0..subset.len())
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
    Some(coords)
}

/// `row` evaluated at the vertex `coords`, affine over the parameters.
fn row_at((ipart, ppart): &Row, coords: &[AffineExpr]) -> AffineExpr {
    let mut acc = ppart.clone();
    for (k, c) in ipart.iter().enumerate() {
        if !c.is_zero() {
            acc = &acc + &coords[k].scale(c);
        }
    }
    acc
}

/// Advances `subset` to the next `subset.len()`-combination of `0..m`
/// in lexicographic order; `false` after the last one.
fn next_combination(subset: &mut [usize], m: usize) -> bool {
    let n = subset.len();
    for k in (0..n).rev() {
        if subset[k] + (n - k) < m {
            subset[k] += 1;
            for j in k + 1..n {
                subset[j] = subset[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Drops repeated items, keeping each first occurrence in its place
/// (one hash-set pass, so row lists keep their order at linear cost).
pub fn dedup_in_order<T: Eq + Hash>(items: Vec<T>) -> Vec<T> {
    let keep: Vec<bool> = {
        let mut seen = HashSet::with_capacity(items.len());
        items.iter().map(|x| seen.insert(x)).collect()
    };
    items
        .into_iter()
        .zip(keep)
        .filter_map(|(x, k)| k.then_some(x))
        .collect()
}

/// Test oracle: the chamber recursion of Loechner–Wilde-style vertex
/// enumeration without validity domains. It splits the parameter domain
/// into chambers on which the vertex set is uniform, with one DD
/// conversion per recursive call.
#[cfg(test)]
mod reference {
    use super::{basic_solution, next_combination, row_at, split_rows, Row};
    use crate::{Constraint, GeneratorSet, PolyhedraError, Polyhedron};
    use aov_linalg::{AffineExpr, QVector};
    use aov_numeric::Rational;

    /// A region of parameter space with a uniform vertex set.
    pub struct Chamber {
        /// Sub-polyhedron of the parameter domain.
        pub domain: Polyhedron,
        /// Vertices valid throughout `domain`.
        pub vertices: Vec<Vec<AffineExpr>>,
    }

    /// Maximum recursion depth of chamber splitting.
    const MAX_DEPTH: usize = 512;

    struct Candidate {
        coords: Vec<AffineExpr>,
        /// Feasibility conditions (affine over params, each must be >= 0).
        conditions: Vec<AffineExpr>,
    }

    /// Chambers covering `param_domain` (boundaries may be shared); on
    /// each one the polytope's vertex set is the given list.
    pub fn chambers(
        system: &Polyhedron,
        n_elim: usize,
        param_domain: &Polyhedron,
    ) -> Result<Vec<Chamber>, PolyhedraError> {
        let n_params = system.dim() - n_elim;
        let mut rows: Vec<Row> = Vec::new();
        for r in split_rows(system, n_elim) {
            if !rows.contains(&r) {
                rows.push(r);
            }
        }
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
        if rows.len() < n_elim {
            return Ok(vec![Chamber {
                domain: param_domain.clone(),
                vertices: Vec::new(),
            }]);
        }
        let mut candidates = Vec::new();
        let mut subset: Vec<usize> = (0..n_elim).collect();
        loop {
            if let Some(coords) = basic_solution(&rows, &subset, n_params) {
                let conditions = (0..rows.len())
                    .filter(|i| !subset.contains(i))
                    .map(|i| row_at(&rows[i], &coords))
                    .collect();
                candidates.push(Candidate { coords, conditions });
            }
            if !next_combination(&mut subset, rows.len()) {
                break;
            }
        }
        let mut out = Vec::new();
        let active: Vec<usize> = (0..candidates.len()).collect();
        split(&candidates, &active, param_domain.clone(), 0, &mut out);
        Ok(out)
    }

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
    /// generators (Theorem 1).
    fn condition_status(cond: &AffineExpr, gens: &GeneratorSet) -> Status {
        let mut min_nonneg = true;
        let mut max_neg = true;
        let mut max_pos = false;
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
            if !cond.coeffs().dot(l).is_zero() {
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
            Status::BoundaryOnly(cond.clone())
        }
    }

    fn classify(cand: &Candidate, gens: &GeneratorSet) -> Status {
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
    ) {
        let gens = domain.generators();
        if gens.is_empty() {
            return;
        }
        assert!(depth <= MAX_DEPTH, "chamber recursion too deep");
        let mut vertices: Vec<Vec<AffineExpr>> = Vec::new();
        for (pos, &ci) in active.iter().enumerate() {
            let cand = &candidates[ci];
            match classify(cand, &gens) {
                Status::Always => {
                    if !vertices.contains(&cand.coords) {
                        vertices.push(cand.coords.clone());
                    }
                }
                Status::Never => {}
                Status::SplitAt(cond) => {
                    let mut lo = domain.clone();
                    lo.add_constraint(Constraint::ge0(cond.clone()));
                    let mut hi = domain;
                    hi.add_constraint(Constraint::ge0(-&cond));
                    split(candidates, active, lo, depth + 1, out);
                    split(candidates, active, hi, depth + 1, out);
                    return;
                }
                Status::BoundaryOnly(cond) => {
                    let mut face = domain.clone();
                    face.add_constraint(Constraint::eq0(cond));
                    split(candidates, active, face, depth + 1, out);
                    let remaining: Vec<usize> = active
                        .iter()
                        .enumerate()
                        .filter(|(p, _)| *p != pos)
                        .map(|(_, &c)| c)
                        .collect();
                    split(candidates, &remaining, domain, depth + 1, out);
                    return;
                }
            }
        }
        out.push(Chamber { domain, vertices });
    }

    /// The chambers' vertices valid at `params`.
    pub fn vertices_at(chambers: &[Chamber], params: &QVector) -> Vec<QVector> {
        let mut out: Vec<QVector> = Vec::new();
        for ch in chambers.iter().filter(|ch| ch.domain.contains(params)) {
            for v in &ch.vertices {
                let x: QVector = v.iter().map(|c| c.eval(params)).collect();
                if !out.contains(&x) {
                    out.push(x);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ge(coeffs: &[i64], c: i64) -> Constraint {
        Constraint::ge0(AffineExpr::from_i64(coeffs, c))
    }

    fn same_set(a: &Polyhedron, b: &Polyhedron) -> bool {
        a.is_subset_of(b) && b.is_subset_of(a)
    }

    /// The vertices' values at `params`, sorted, for those whose validity
    /// domain contains `params`.
    fn values_at(vertices: &[ParamVertex], params: &QVector) -> Vec<String> {
        let mut pts: Vec<String> = vertices
            .iter()
            .filter(|v| v.domain.contains(params))
            .map(|v| v.eval(params).to_string())
            .collect();
        pts.sort();
        pts.dedup();
        pts
    }

    /// Rectangle 1 <= i <= n, 1 <= j <= m over params (n, m) >= 1: the
    /// four symbolic corners of §5.2, each valid on the whole parameter
    /// domain.
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
        let vertices = parameterized_vertices(&system, 2, &params).unwrap();
        assert_eq!(vertices.len(), 4);
        for v in &vertices {
            assert!(same_set(&v.domain, &params), "{v:?}");
            assert_eq!(v.generators, v.domain.generators());
        }
        // Evaluate at (n, m) = (5, 7): corners (1,1), (5,1), (1,7), (5,7).
        let p = QVector::from_i64(&[5, 7]);
        assert_eq!(
            values_at(&vertices, &p),
            vec!["(1, 1)", "(1, 7)", "(5, 1)", "(5, 7)"]
        );
    }

    /// Triangle {1 <= i <= j <= n}: three symbolic vertices, each valid
    /// on the whole parameter domain.
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
        let vertices = parameterized_vertices(&system, 2, &params).unwrap();
        assert_eq!(vertices.len(), 3);
        for v in &vertices {
            assert!(same_set(&v.domain, &params), "{v:?}");
        }
        let p = QVector::from_i64(&[4]);
        assert_eq!(values_at(&vertices, &p), vec!["(1, 1)", "(1, 4)", "(4, 4)"]);
    }

    /// A domain whose vertex structure changes at p = 3: {0 <= i <= p,
    /// i <= 3} over p >= 0 has the vertex `0` everywhere, `p` on p <= 3
    /// and `3` on p >= 3.
    #[test]
    fn validity_domains_follow_structure_change() {
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
        let vertices = parameterized_vertices(&system, 1, &params).unwrap();
        let up_to_3 = Polyhedron::from_constraints(1, vec![ge(&[1], 0), ge(&[-1], 3)]);
        let from_3 = Polyhedron::from_constraints(1, vec![ge(&[1], -3)]);
        let want = [
            (AffineExpr::from_i64(&[0], 0), &params),
            (AffineExpr::from_i64(&[1], 0), &up_to_3),
            (AffineExpr::from_i64(&[0], 3), &from_3),
        ];
        assert_eq!(vertices.len(), want.len(), "{vertices:?}");
        for (v, (coord, domain)) in vertices.iter().zip(&want) {
            assert_eq!(v.coords, vec![coord.clone()]);
            assert!(same_set(&v.domain, domain), "{v:?}");
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
        assert!(parameterized_vertices(&system, 1, &params)
            .unwrap()
            .is_empty());
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
        let vertices = parameterized_vertices(&system, 1, &params).unwrap();
        // The polytope is the single point {p}: the candidates 0 and 10
        // are valid only at p = 0 and p = 10, where they equal p.
        for p in 0..=10 {
            let pt = QVector::from_i64(&[p]);
            assert_eq!(values_at(&vertices, &pt), vec![format!("({p})")]);
        }
    }

    /// `P(N)` at a concrete parameter point, over the eliminated dims.
    fn instantiate(system: &Polyhedron, n_elim: usize, params: &QVector) -> Polyhedron {
        let mut subs: Vec<AffineExpr> = (0..n_elim).map(|k| AffineExpr::var(n_elim, k)).collect();
        subs.extend(
            params
                .iter()
                .map(|x| AffineExpr::constant(n_elim, x.clone())),
        );
        Polyhedron::from_constraints(
            n_elim,
            system
                .constraints()
                .iter()
                .map(|c| {
                    let e = c.expr().substitute(&subs);
                    if c.is_equality() {
                        Constraint::eq0(e)
                    } else {
                        Constraint::ge0(e)
                    }
                })
                .collect(),
        )
    }

    /// Oracle on random small parametric polytopes: at every integer
    /// point of the parameter box, the DD vertices of the instantiated
    /// `P(N)` are exactly the values of the candidates valid at `N`,
    /// every valid candidate lies in `P(N)`, and the chamber recursion
    /// gives the same vertex set.
    #[test]
    fn valid_candidates_are_the_instantiated_vertices() {
        let mut rng = aov_support::rng::Rng::new(7);
        let (mut checked, mut nonempty) = (0, 0);
        while checked < 120 {
            let n_elim = 1 + rng.u64_below(2) as usize;
            let n_params = 1 + rng.u64_below(2) as usize;
            let dim = n_elim + n_params;
            // Every eliminated dim gets a lower bound and a shared upper
            // bound, then random rows (one of them sometimes an equality).
            let mut cs = Vec::new();
            for k in 0..n_elim {
                let mut lo = vec![0; dim];
                lo[k] = 1;
                cs.push(ge(&lo, rng.i64_in(0, 2)));
            }
            let mut hi: Vec<i64> = (0..dim)
                .map(|k| if k < n_elim { -1 } else { rng.i64_in(0, 2) })
                .collect();
            hi[n_elim] = hi[n_elim].max(1);
            cs.push(ge(&hi, rng.i64_in(0, 3)));
            for r in 0..rng.u64_below(4) {
                let coeffs: Vec<i64> = (0..dim).map(|_| rng.i64_in(-2, 2)).collect();
                let e = AffineExpr::from_i64(&coeffs, rng.i64_in(-3, 6));
                cs.push(if r == 0 && rng.u64_below(4) == 0 {
                    Constraint::eq0(e)
                } else {
                    Constraint::ge0(e)
                });
            }
            let system = Polyhedron::from_constraints(dim, cs);
            let mut pcs = Vec::new();
            for j in 0..n_params {
                let mut lo = vec![0; n_params];
                lo[j] = 1;
                pcs.push(ge(&lo, 0));
                lo[j] = -1;
                pcs.push(ge(&lo, 4));
            }
            let param_domain = Polyhedron::from_constraints(n_params, pcs);
            let Ok(vertices) = parameterized_vertices(&system, n_elim, &param_domain) else {
                continue;
            };
            let chambers = reference::chambers(&system, n_elim, &param_domain).unwrap();
            checked += 1;
            let points: Vec<Vec<i64>> = if n_params == 1 {
                (0..=4).map(|a| vec![a]).collect()
            } else {
                (0..25).map(|a| vec![a / 5, a % 5]).collect()
            };
            for pt in points {
                let n = QVector::from_i64(&pt);
                let polytope = instantiate(&system, n_elim, &n);
                let mut valid: Vec<QVector> = Vec::new();
                for v in vertices.iter().filter(|v| v.domain.contains(&n)) {
                    let x = v.eval(&n);
                    assert!(polytope.contains(&x), "{x:?} outside P({pt:?}): {system:?}");
                    if !valid.contains(&x) {
                        valid.push(x);
                    }
                }
                let mut dd = polytope.generators().vertices;
                nonempty += usize::from(!dd.is_empty());
                let mut by_chamber = reference::vertices_at(&chambers, &n);
                for set in [&mut valid, &mut dd, &mut by_chamber] {
                    set.sort_by_key(|x| x.to_string());
                }
                assert_eq!(valid, dd, "P({pt:?}) of {system:?}");
                assert_eq!(by_chamber, dd, "chambers at {pt:?} of {system:?}");
            }
        }
        assert!(nonempty >= 500, "{nonempty} nonempty instances");
    }

    /// The pipeline crates link the library build of this crate, whose
    /// types differ from this test build's: polyhedra cross over as
    /// constraint lists.
    macro_rules! local {
        ($p:expr) => {
            Polyhedron::from_constraints(
                $p.dim(),
                $p.constraints()
                    .iter()
                    .map(|c| {
                        let e = c.expr().clone();
                        if c.is_equality() {
                            Constraint::eq0(e)
                        } else {
                            Constraint::ge0(e)
                        }
                    })
                    .collect(),
            )
        };
    }

    /// `form >= 0` linearized over the reference chambers: each chamber
    /// vertex's substituted form at the vertices of the chamber's
    /// parameter region, along its rays, and both signs along its lines.
    fn reference_rows(
        form: &aov_schedule::BilinearForm,
        system: &Polyhedron,
        n_elim: usize,
        param_domain: &Polyhedron,
    ) -> Result<Vec<AffineExpr>, PolyhedraError> {
        let n_params = system.dim() - n_elim;
        let mut out = Vec::new();
        for chamber in reference::chambers(system, n_elim, param_domain)? {
            let gens = chamber.domain.generators();
            for coords in &chamber.vertices {
                let mut subs = coords.clone();
                subs.extend((0..n_params).map(|j| AffineExpr::var(n_params, j)));
                let over_params = form.substitute_domain(&subs);
                out.extend(gens.vertices.iter().map(|w| over_params.at_point(w)));
                out.extend(gens.rays.iter().map(|r| over_params.linear_part_along(r)));
                for l in &gens.lines {
                    let lin = over_params.linear_part_along(l);
                    out.push(-&lin);
                    out.push(lin);
                }
            }
        }
        // Trivially true rows say nothing; repeats are common across
        // chambers.
        out.retain(|r| !r.is_constant() || r.constant_term().is_negative());
        Ok(dedup_in_order(out))
    }

    /// Both row sets describe the same polyhedron over `dim` schedule
    /// coefficients, or both fail with the same error.
    fn assert_equivalent<E: std::fmt::Display>(
        dim: usize,
        rows: Result<Vec<AffineExpr>, E>,
        reference: Result<Vec<AffineExpr>, PolyhedraError>,
        what: &str,
    ) {
        let (rows, reference) = match (rows, reference) {
            (Ok(rows), Ok(reference)) => (rows, reference),
            (rows, reference) => {
                assert_eq!(
                    rows.err().map(|e| e.to_string()),
                    reference.err().map(|e| e.to_string()),
                    "{what}"
                );
                return;
            }
        };
        let poly = |rs: &[AffineExpr]| {
            Polyhedron::from_constraints(dim, rs.iter().cloned().map(Constraint::ge0).collect())
        };
        let (new, old) = (poly(&rows), poly(&reference));
        for r in &reference {
            assert!(new.implies_nonneg(r), "{what}: new rows miss {r:?}");
        }
        for r in &rows {
            assert!(old.implies_nonneg(r), "{what}: reference rows miss {r:?}");
        }
    }

    /// Oracle for validity domains against the chamber recursion, on the
    /// paper examples and 300 generated programs (seeds `mix(42, i)`,
    /// default generator profile). Per dependence, the causality rows
    /// that make up ℛ, and the Problem 2 storage rows for the program's
    /// AOV, imply the rows linearized over reference chambers and are
    /// implied by them; or both sides fail with the same error.
    #[test]
    fn validity_domains_match_chamber_recursion() {
        use aov_schedule::{legal, linearize::eliminate_to_linear, ScheduleSpace};
        let mut programs = vec![
            aov_ir::examples::example1(),
            aov_ir::examples::example2(),
            aov_ir::examples::example3(),
            aov_ir::examples::example4(),
        ];
        let cfg = aov_gen::GenConfig::default();
        programs.extend(
            (0..300).map(|i| aov_gen::generate(aov_support::rng::mix(42, i), &cfg).program),
        );
        let (mut causality, mut storage) = (0, 0);
        for p in &programs {
            let deps = aov_ir::analysis::dependences(p);
            let space = ScheduleSpace::new(p);
            let param_domain = local!(p.param_domain());
            for dep in &deps {
                let depth = p.statement(dep.target).depth();
                let form = legal::causality_form(p, &space, dep);
                assert_equivalent(
                    space.dim(),
                    eliminate_to_linear(&form, &dep.domain, depth, p.param_domain()),
                    reference_rows(&form, &local!(dep.domain), depth, &param_domain),
                    &format!("{} causality", p.name()),
                );
                causality += 1;
            }
            let Ok(aov) = aov_core::problems::aov_with(p, 1) else {
                continue;
            };
            for dep in &deps {
                let depth = p.statement(dep.target).depth();
                let v = aov.vectors()[p.statement(dep.source).writes().0].components();
                let z = aov_core::storage::exact_z(p, dep, v);
                let dim = depth + p.num_params();
                let h_plus_v: Vec<AffineExpr> = dep
                    .h
                    .iter()
                    .zip(v)
                    .map(|(hk, &vk)| hk + &AffineExpr::constant(dim, vk.into()))
                    .collect();
                let form = legal::difference_form(p, &space, dep, &h_plus_v, 0).negated();
                assert_equivalent(
                    space.dim(),
                    eliminate_to_linear(&form, &z, depth, p.param_domain()),
                    reference_rows(&form, &local!(z), depth, &param_domain),
                    &format!("{} storage", p.name()),
                );
                storage += 1;
            }
        }
        assert!(
            causality >= 600 && storage >= 300,
            "{causality} causality and {storage} storage row sets compared"
        );
    }
}
