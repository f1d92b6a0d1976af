//! Chernikova's double-description method.
//!
//! Computes the generator representation (vertices, rays, lines) of a
//! polyhedron given by constraints — the decomposition `D = P + C` of the
//! paper's Theorem 1. The polyhedron is homogenized into a cone over
//! `(λ, x)` with `λ >= 0` processed first; bidirectional rays (lines) are
//! kept separately and "consumed" by the first constraint they are not
//! orthogonal to, exactly as in Le Verge's presentation of Chernikova's
//! algorithm.
//!
//! Like Le Verge's, the kernel works on homogeneous integer rows (see
//! [`crate::int`]): constraint rows are the constraints' integer
//! coefficients, and every generator is a primitive integer vector,
//! updated in place (`|f(b0)|·v − sgn f(b0)·f(v)·b0` when a line is
//! consumed) or built as one new row (`−f(n)·p + f(p)·n` for an adjacent
//! pair) and divided by its gcd. The generators leave [`saturated`] as
//! those rows ([`int::Generators`]), and no result of the kernel becomes
//! rational. The rational kernel it replaced is kept as the test oracle
//! `reference`, which it must match exactly, with its rational
//! `GeneratorSet`.

use crate::bits::Bits;
use crate::int::{self, Generators, Row};
use crate::{Constraint, ConstraintKind, Polyhedron};
#[cfg(test)]
use aov_linalg::QVector;
use aov_numeric::BigInt;

/// Generators of a polyhedron as rational vectors:
/// `conv(vertices) + cone(rays) + span(lines)`, the form the test
/// oracles compare against.
///
/// An empty `vertices` list means the polyhedron is empty (a nonempty
/// polyhedron always has at least one generator with positive
/// homogenizing coordinate).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct GeneratorSet {
    /// Extreme points (dimension = ambient dimension).
    pub vertices: Vec<QVector>,
    /// Extreme unidirectional rays (primitive integer directions).
    pub rays: Vec<QVector>,
    /// Basis of the lineality space (primitive integer directions).
    pub lines: Vec<QVector>,
}

#[cfg(test)]
impl GeneratorSet {
    /// Whether the polyhedron is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Whether the polyhedron is a bounded polytope.
    pub fn is_bounded(&self) -> bool {
        self.rays.is_empty() && self.lines.is_empty()
    }
}

/// One generator of the homogenized cone plus its tight set over the
/// inequality constraints processed so far.
#[derive(Clone, Debug)]
struct Gen {
    /// Homogenized coordinates `(λ, x_0, …, x_{d-1})`, primitive integer.
    v: Row,
    /// The inequalities that hold with equality on this ray: the `r`-th
    /// inequality of the constraint list is bit `r`, and `λ >= 0` is the
    /// bit after the last one.
    tight: Bits,
}

/// Generators together with the inequality rows each vertex and ray
/// saturates ([`saturated`]). Lines saturate every row.
#[derive(Debug, PartialEq)]
pub(crate) struct Saturated {
    /// The generators, as primitive homogenized integer rows.
    pub gens: Generators,
    /// Per vertex, the inequalities of the constraint list (equalities
    /// not counted) that hold with equality there: bit `r` for the
    /// `r`-th one (the bit after the last is the homogenizing row).
    pub vertex_tight: Vec<Bits>,
    /// The same for each ray.
    pub ray_tight: Vec<Bits>,
}

/// Computes the generators of `p` as rational vectors.
#[cfg(test)]
pub(crate) fn generators(p: &Polyhedron) -> GeneratorSet {
    saturated_of(p).gens.to_rational()
}

/// [`saturated`] on the rows of `p`'s constraints.
pub(crate) fn saturated_of(p: &Polyhedron) -> Saturated {
    let rows: Vec<Row> = p.constraints().iter().map(int::of_constraint).collect();
    let kinds = p.constraints().iter().map(Constraint::kind);
    let rows: Vec<(&[BigInt], ConstraintKind)> = rows.iter().map(|r| &r[..]).zip(kinds).collect();
    saturated(p.dim(), &rows)
}

/// Computes the generators of the polyhedron over `Q^d` whose
/// constraints are the homogenized integer `rows` (constant term first,
/// see [`crate::int`]), with each vertex's and ray's saturated inequality
/// rows. Every row takes part, trivially true ones included, so
/// tight-set positions are the rows' positions among the list's
/// inequalities.
pub(crate) fn saturated(d: usize, rows: &[(&[BigInt], ConstraintKind)]) -> Saturated {
    // One span per constraint-to-generator conversion step. A hot span
    // (example3 performs ~186k conversions): untraced runs pay nothing
    // and the flight-recorder ring keeps its low-rate evidence; it is
    // also deliberately field-free, since every byte on this record is
    // multiplied heavily in traced runs.
    let _span = aov_trace::hot_span!("p2.dd.step");
    let hdim = d + 1;
    debug_assert!(rows.iter().all(|(row, _)| row.len() == hdim));
    // λ >= 0 goes first.
    let lambda = unit(hdim, 0);
    let all_rows = std::iter::once((&lambda[..], ConstraintKind::Ineq)).chain(rows.iter().copied());
    // Tight-set bit of each inequality, in processing order: λ >= 0 is
    // bit `n_ineqs`, the constraints' inequalities bits 0, 1, ….
    let n_ineqs = rows
        .iter()
        .filter(|(_, kind)| *kind == ConstraintKind::Ineq)
        .count();
    let mut bit_of = std::iter::once(n_ineqs).chain(0..n_ineqs);
    let width = n_ineqs + 1;

    // Initial cone: all of Q^{d+1} — lines along every axis.
    let mut bi: Vec<Row> = (0..hdim).map(|k| unit(hdim, k)).collect();
    let mut uni: Vec<Gen> = Vec::new();
    // The inequalities processed so far.
    let mut done = Bits::empty(width);
    let mut values: Vec<BigInt> = Vec::new();

    for (row, kind) in all_rows {
        let f = |v: &[BigInt]| int::dot(row, v);
        let bit = (kind == ConstraintKind::Ineq).then(|| bit_of.next().expect("one bit per row"));
        // Case 1: some line is non-orthogonal to the constraint.
        let pivot = bi.iter().enumerate().find_map(|(pos, b)| {
            let fb = f(b);
            (!fb.is_zero()).then_some((pos, fb))
        });
        if let Some((pos, fb0)) = pivot {
            let mut b0 = bi.remove(pos);
            // `v - (f(v)/f(b0))·b0` scaled by `|f(b0)|`: zero on the row,
            // and a positive multiple of the rational combination.
            let scale = fb0.abs();
            let eliminate = |v: &mut Row| {
                let fv = f(v);
                if !fv.is_zero() {
                    let factor = if fb0.is_negative() { fv } else { -fv };
                    int::combine_into(&scale, v, &factor, &b0);
                }
            };
            bi.iter_mut().for_each(&eliminate);
            for g in uni.iter_mut() {
                // Previously processed constraints are unaffected (b0
                // was orthogonal to all of them); the current one now
                // holds with equality.
                eliminate(&mut g.v);
                if let Some(bit) = bit {
                    g.tight.insert(bit);
                }
            }
            // An equality's line is simply removed. An inequality's
            // becomes a unidirectional ray, oriented so f > 0; tight on
            // all previous inequalities, not the current.
            if let Some(bit) = bit {
                if fb0.is_negative() {
                    b0.iter_mut().for_each(|x| *x = -&*x);
                }
                uni.push(Gen {
                    v: b0,
                    tight: done.clone(),
                });
                done.insert(bit);
            }
            continue;
        }
        // Case 2: all lines orthogonal — combine unidirectional rays.
        values.clear();
        values.extend(uni.iter().map(|g| f(&g.v)));
        // Adjacent (+,−) pairs produce new rays on the hyperplane.
        let mut combos: Vec<Gen> = Vec::new();
        for (ip, vp) in values.iter().enumerate() {
            if !vp.is_positive() {
                continue;
            }
            for (in_, vn) in values.iter().enumerate() {
                if !vn.is_negative() {
                    continue;
                }
                if !adjacent(&uni, ip, in_) {
                    continue;
                }
                let combo = int::combine(&-vn, &uni[ip].v, vp, &uni[in_].v);
                if int::is_zero(&combo) {
                    continue;
                }
                let mut tight = uni[ip].tight.and(&uni[in_].tight);
                if let Some(bit) = bit {
                    tight.insert(bit);
                }
                combos.push(Gen { v: combo, tight });
            }
        }
        // The kept generators, then the combinations.
        let mut next: Vec<Gen> = Vec::with_capacity(uni.len() + combos.len());
        for (mut g, val) in uni.into_iter().zip(&values) {
            let keep = match kind {
                ConstraintKind::Ineq => !val.is_negative(),
                ConstraintKind::Eq => val.is_zero(),
            };
            if keep {
                if let Some(bit) = bit.filter(|_| val.is_zero()) {
                    g.tight.insert(bit);
                }
                next.push(g);
            }
        }
        next.extend(combos);
        if let Some(bit) = bit {
            done.insert(bit);
        }
        uni = dedup_gens(next);
    }
    debug_assert_eq!(done, Bits::full(width));

    // Extract polyhedron generators from the cone: every row is already
    // primitive.
    let mut out = Saturated {
        gens: Generators::default(),
        vertex_tight: Vec::new(),
        ray_tight: Vec::new(),
    };
    for b in bi {
        debug_assert!(b[0].is_zero(), "line with nonzero homogenizing coord");
        out.gens.lines.push(b);
    }
    for g in uni {
        if g.v[0].is_positive() {
            out.gens.vertices.push(g.v);
            out.vertex_tight.push(g.tight);
        } else {
            debug_assert!(g.v[0].is_zero());
            if !int::is_zero(&g.v) {
                out.gens.rays.push(g.v);
                out.ray_tight.push(g.tight);
            }
        }
    }
    aov_support::static_counter!("polyhedra.dd.conversions").add(1);
    aov_support::static_counter!("polyhedra.dd.vertices").add(out.gens.vertices.len() as u64);
    aov_support::static_counter!("polyhedra.dd.rays").add(out.gens.rays.len() as u64);
    out
}

/// An irredundant description of `p`, read off one DD: `None` when it
/// is empty, else the positions of the constraints kept, in order, each
/// with the kind it is kept as.
///
/// A face holds exactly the generators that saturate its rows, so the
/// face where inequality `r` is tight is its saturation set `S_r` over
/// the vertices and rays (lines saturate every row). An inequality
/// tight at every generator holds with equality on the whole set: it
/// joins the equalities, of which a linearly independent subset is
/// kept, earlier rows first. Any other inequality stays when its face
/// is a facet: `S_r` holds a vertex (a face without one is empty) and no
/// other proper face `S_r'` strictly contains it (a facet is a maximal
/// proper face, and every facet is some row's face). Of several rows on
/// one facet, the first stays.
pub(crate) fn irredundant(p: &Polyhedron) -> Option<Vec<(usize, ConstraintKind)>> {
    let sat = saturated_of(p);
    if sat.gens.is_empty() {
        return None;
    }
    let nv = sat.vertex_tight.len();
    let n = nv + sat.ray_tight.len();
    let n_ineqs = p.constraints().iter().filter(|c| !c.is_equality()).count();
    let mut faces = vec![Bits::empty(n); n_ineqs];
    for (g, tight) in sat.vertex_tight.iter().chain(&sat.ray_tight).enumerate() {
        for r in tight.iter().take_while(|&r| r < n_ineqs) {
            faces[r].insert(g);
        }
    }
    let whole = Bits::full(n);
    let proper = |f: &Bits| f != &whole;
    let mut equalities = Echelon::default();
    let mut kept = Vec::new();
    let mut ineq = 0;
    for (pos, c) in p.constraints().iter().enumerate() {
        if !c.is_equality() {
            let (r, face) = (ineq, &faces[ineq]);
            ineq += 1;
            if proper(face) {
                // Vertices are the generators `0..nv`, so the least
                // element tells whether the face holds one.
                let nonempty = face.iter().next().is_some_and(|g| g < nv);
                let maximal = faces.iter().all(|other| {
                    !proper(other) || other == face || !face.meet_is_subset_of(face, other)
                });
                let first = !faces[..r].contains(face);
                if nonempty && maximal && first {
                    kept.push((pos, ConstraintKind::Ineq));
                }
                continue;
            }
        }
        if equalities.insert(int::of_constraint(c)) {
            kept.push((pos, ConstraintKind::Eq));
        }
    }
    Some(kept)
}

/// Homogenized rows in echelon form: each row is zero at the pivot (its
/// first nonzero entry) of every row before it.
#[derive(Default)]
struct Echelon(Vec<Row>);

impl Echelon {
    /// Adds `r` when it is linearly independent of the rows so far;
    /// returns whether it was.
    fn insert(&mut self, mut r: Row) -> bool {
        for b in &self.0 {
            let p = b.iter().position(|x| !x.is_zero()).expect("nonzero row");
            if !r[p].is_zero() {
                let factor = -&r[p];
                int::combine_into(&b[p], &mut r, &factor, b);
            }
        }
        let independent = !int::is_zero(&r);
        if independent {
            self.0.push(r);
        }
        independent
    }
}

/// The `k`-th unit row of length `n`.
fn unit(n: usize, k: usize) -> Row {
    let mut v = vec![BigInt::zero(); n];
    v[k] = BigInt::one();
    v
}

/// Combinatorial adjacency: `p` and `n` are adjacent iff no *other* ray's
/// tight set contains `tight(p) ∩ tight(n)`.
fn adjacent(uni: &[Gen], p: usize, n: usize) -> bool {
    let (tp, tn) = (&uni[p].tight, &uni[n].tight);
    uni.iter()
        .enumerate()
        .all(|(i, g)| i == p || i == n || !tp.meet_is_subset_of(tn, &g.tight))
}

fn dedup_gens(gens: Vec<Gen>) -> Vec<Gen> {
    let mut out: Vec<Gen> = Vec::with_capacity(gens.len());
    for g in gens {
        if !out.iter().any(|h| h.v == g.v) {
            out.push(g);
        }
    }
    out
}

/// Test oracle: the double description over rational vectors that
/// [`saturated`] replaced, with its rational normalization (lcm of the
/// denominators, then gcd). Same algorithm and processing order, so the
/// integer kernel must reproduce its generators and tight sets exactly.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Bits, GeneratorSet, Generators, Saturated};
    use crate::{Constraint, ConstraintKind};
    use aov_linalg::QVector;
    use aov_numeric::{BigInt, Rational};

    struct Gen {
        v: QVector,
        tight: Bits,
    }

    /// Scales to a primitive integer vector (direction preserved).
    pub fn normalize(v: &QVector) -> QVector {
        let mut l = BigInt::one();
        for c in v.iter() {
            let d = c.denom();
            let g = aov_numeric::gcd_big(&l, d);
            l = &l * &(d / &g);
        }
        let ints: Vec<BigInt> = v
            .iter()
            .map(|c| {
                (c * &Rational::from(l.clone()))
                    .to_integer()
                    .expect("cleared")
            })
            .collect();
        let mut g = BigInt::zero();
        for x in &ints {
            g = aov_numeric::gcd_big(&g, x);
        }
        if g.is_zero() {
            return v.clone();
        }
        ints.into_iter().map(|x| Rational::from(&x / &g)).collect()
    }

    /// The generators and tight sets of the polyhedron `constraints`
    /// over `Q^d`.
    pub fn saturated(d: usize, constraints: &[Constraint]) -> Saturated {
        let hdim = d + 1;
        let mut rows: Vec<(QVector, ConstraintKind)> = Vec::with_capacity(constraints.len() + 1);
        rows.push((QVector::unit(hdim, 0), ConstraintKind::Ineq));
        for c in constraints {
            let mut row = QVector::zeros(hdim);
            row[0] = c.expr().constant_term().clone();
            for (k, coeff) in c.expr().coeffs().iter().enumerate() {
                row[k + 1] = coeff.clone();
            }
            rows.push((row, c.kind()));
        }
        let n_ineqs = constraints.iter().filter(|c| !c.is_equality()).count();
        let mut bit_of = std::iter::once(n_ineqs).chain(0..n_ineqs);
        let mut bi: Vec<QVector> = (0..hdim).map(|k| QVector::unit(hdim, k)).collect();
        let mut uni: Vec<Gen> = Vec::new();
        let mut done = Bits::empty(n_ineqs + 1);
        for (row, kind) in rows {
            let f = |v: &QVector| row.dot(v);
            let bit =
                (kind == ConstraintKind::Ineq).then(|| bit_of.next().expect("one bit per row"));
            if let Some(pos) = bi.iter().position(|b| !f(b).is_zero()) {
                let b0 = bi.remove(pos);
                let fb0 = f(&b0);
                for b in bi.iter_mut() {
                    let fb = f(b);
                    if !fb.is_zero() {
                        *b = normalize(&(&*b - &b0.scale(&(&fb / &fb0))));
                    }
                }
                for g in uni.iter_mut() {
                    let fg = f(&g.v);
                    if !fg.is_zero() {
                        g.v = normalize(&(&g.v - &b0.scale(&(&fg / &fb0))));
                    }
                    if let Some(bit) = bit {
                        g.tight.insert(bit);
                    }
                }
                if let Some(bit) = bit {
                    let oriented = if fb0.is_negative() { -&b0 } else { b0 };
                    uni.push(Gen {
                        v: normalize(&oriented),
                        tight: done.clone(),
                    });
                    done.insert(bit);
                }
                continue;
            }
            let values: Vec<Rational> = uni.iter().map(|g| f(&g.v)).collect();
            let mut combos: Vec<Gen> = Vec::new();
            for (ip, vp) in values.iter().enumerate() {
                if !vp.is_positive() {
                    continue;
                }
                for (in_, vn) in values.iter().enumerate() {
                    if !vn.is_negative() {
                        continue;
                    }
                    let common = uni[ip].tight.and(&uni[in_].tight);
                    let (tp, tn) = (&uni[ip].tight, &uni[in_].tight);
                    let adjacent = uni
                        .iter()
                        .enumerate()
                        .all(|(i, g)| i == ip || i == in_ || !tp.meet_is_subset_of(tn, &g.tight));
                    if !adjacent {
                        continue;
                    }
                    let combo = normalize(&(&uni[ip].v.scale(&-vn) + &uni[in_].v.scale(vp)));
                    if combo.is_zero() {
                        continue;
                    }
                    let mut tight = common;
                    if let Some(bit) = bit {
                        tight.insert(bit);
                    }
                    combos.push(Gen { v: combo, tight });
                }
            }
            let mut next: Vec<Gen> = Vec::with_capacity(uni.len() + combos.len());
            for (mut g, val) in uni.into_iter().zip(&values) {
                let keep = match kind {
                    ConstraintKind::Ineq => !val.is_negative(),
                    ConstraintKind::Eq => val.is_zero(),
                };
                if keep {
                    if let Some(bit) = bit.filter(|_| val.is_zero()) {
                        g.tight.insert(bit);
                    }
                    next.push(g);
                }
            }
            next.extend(combos);
            if let Some(bit) = bit {
                done.insert(bit);
            }
            uni = Vec::with_capacity(next.len());
            for g in next {
                if !uni.iter().any(|h| h.v == g.v) {
                    uni.push(g);
                }
            }
        }
        let drop_lambda = |v: &QVector| -> QVector { v.iter().skip(1).cloned().collect() };
        let mut gens = GeneratorSet::default();
        let (mut vertex_tight, mut ray_tight) = (Vec::new(), Vec::new());
        for b in bi {
            gens.lines.push(normalize(&drop_lambda(&b)));
        }
        for g in uni {
            let lambda = &g.v[0];
            if lambda.is_positive() {
                let x = drop_lambda(&g.v).scale(&lambda.recip());
                gens.vertices.push(x);
                vertex_tight.push(g.tight);
            } else {
                let dir = drop_lambda(&g.v);
                if !dir.is_zero() {
                    gens.rays.push(normalize(&dir));
                    ray_tight.push(g.tight);
                }
            }
        }
        Saturated {
            gens: Generators::of_rational(&gens),
            vertex_tight,
            ray_tight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_linalg::AffineExpr;

    fn ge(coeffs: &[i64], c: i64) -> Constraint {
        Constraint::ge0(AffineExpr::from_i64(coeffs, c))
    }

    fn sorted(vs: &[QVector]) -> Vec<String> {
        let mut out: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
        out.sort();
        out
    }

    #[test]
    fn unit_square() {
        let p = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[0, 1], 0),
                ge(&[-1, 0], 1),
                ge(&[0, -1], 1),
            ],
        );
        let g = p.generators();
        assert!(g.is_bounded());
        assert_eq!(
            sorted(&g.vertices),
            vec!["(0, 0)", "(0, 1)", "(1, 0)", "(1, 1)"]
        );
    }

    #[test]
    fn triangle_with_rational_vertex() {
        // x >= 0, y >= 0, 2x + 3y <= 1 -> vertices (0,0), (1/2,0), (0,1/3).
        let p =
            Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0), ge(&[0, 1], 0), ge(&[-2, -3], 1)]);
        let g = p.generators();
        assert_eq!(sorted(&g.vertices), vec!["(0, 0)", "(0, 1/3)", "(1/2, 0)"]);
    }

    #[test]
    fn halfplane_has_vertex_ray_line() {
        let p = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0)]); // x >= 0
        let g = p.generators();
        assert_eq!(g.vertices.len(), 1);
        assert_eq!(g.rays.len(), 1);
        assert_eq!(g.lines.len(), 1);
        assert_eq!(g.rays[0], QVector::from_i64(&[1, 0]));
        assert!(
            g.lines[0] == QVector::from_i64(&[0, 1]) || g.lines[0] == QVector::from_i64(&[0, -1])
        );
    }

    #[test]
    fn positive_quadrant() {
        let p = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0), ge(&[0, 1], 0)]);
        let g = p.generators();
        assert_eq!(sorted(&g.vertices), vec!["(0, 0)"]);
        assert_eq!(sorted(&g.rays), vec!["(0, 1)", "(1, 0)"]);
        assert!(g.lines.is_empty());
    }

    #[test]
    fn empty_polyhedron_has_no_vertices() {
        let p = Polyhedron::from_constraints(1, vec![ge(&[1], -3), ge(&[-1], 1)]);
        assert!(p.generators().is_empty());
    }

    #[test]
    fn single_point_from_equalities() {
        let p = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::eq0(AffineExpr::from_i64(&[1, 0], -2)),
                Constraint::eq0(AffineExpr::from_i64(&[0, 1], -3)),
            ],
        );
        let g = p.generators();
        assert_eq!(g.vertices, vec![QVector::from_i64(&[2, 3])]);
        assert!(g.is_bounded());
    }

    #[test]
    fn paper_parameter_domain_vertex_and_rays() {
        // N = {(n, m) | n >= 1, m >= 1}: vertex (1,1), rays (1,0), (0,1)
        // (§5.2 of the paper).
        let p = Polyhedron::from_constraints(2, vec![ge(&[1, 0], -1), ge(&[0, 1], -1)]);
        let g = p.generators();
        assert_eq!(sorted(&g.vertices), vec!["(1, 1)"]);
        assert_eq!(sorted(&g.rays), vec!["(0, 1)", "(1, 0)"]);
        assert!(g.lines.is_empty());
    }

    #[test]
    fn line_from_unconstrained_direction() {
        // {(x, y) | 0 <= x <= 1}: y is a lineality direction.
        let p = Polyhedron::from_constraints(2, vec![ge(&[1, 0], 0), ge(&[-1, 0], 1)]);
        let g = p.generators();
        assert_eq!(g.lines.len(), 1);
        assert_eq!(g.vertices.len(), 2);
        assert!(g.rays.is_empty());
    }

    #[test]
    fn degenerate_vertex_square_with_cut() {
        // Unit square cut by x + y <= 1: triangle (0,0),(1,0),(0,1).
        let p = Polyhedron::from_constraints(
            2,
            vec![
                ge(&[1, 0], 0),
                ge(&[0, 1], 0),
                ge(&[-1, 0], 1),
                ge(&[0, -1], 1),
                ge(&[-1, -1], 1),
            ],
        );
        let g = p.generators();
        assert_eq!(sorted(&g.vertices), vec!["(0, 0)", "(0, 1)", "(1, 0)"]);
    }

    /// Brute-force vertex enumeration for bounded polytopes: solve every
    /// d-subset of tight constraints and keep feasible solutions.
    fn brute_force_vertices(p: &Polyhedron) -> Vec<QVector> {
        use aov_linalg::QMatrix;
        let d = p.dim();
        let cs = p.constraints();
        let n = cs.len();
        let mut found: Vec<QVector> = Vec::new();
        let mut idx: Vec<usize> = (0..d).collect();
        loop {
            // Solve the subset `idx`.
            let rows: Vec<QVector> = idx.iter().map(|&i| cs[i].expr().coeffs().clone()).collect();
            let m = QMatrix::from_rows(rows);
            let b: QVector = idx.iter().map(|&i| -cs[i].expr().constant_term()).collect();
            if let Some(x) = m.solve(&b) {
                if p.contains(&x) && !found.contains(&x) {
                    found.push(x);
                }
            }
            // Next combination.
            let mut k = d;
            loop {
                if k == 0 {
                    return found;
                }
                k -= 1;
                if idx[k] + (d - k) < n {
                    idx[k] += 1;
                    for j in k + 1..d {
                        idx[j] = idx[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    /// Rays and lines come out as primitive integer vectors, so equal
    /// directions compare equal (the parameterized-vertex projection and
    /// the linearized rows rely on it).
    #[test]
    fn rays_and_lines_are_primitive() {
        let mut rng = aov_support::Rng::new(11);
        let mut directions = 0;
        for _case in 0..60 {
            let d = rng.usize_in(2, 3);
            let cs = (0..rng.usize_in(1, 4))
                .map(|_| ge(&rng.vec_i64(-3, 3, d), rng.i64_in(-4, 4)))
                .collect();
            let g = Polyhedron::from_constraints(d, cs).generators();
            for r in g.rays.iter().chain(&g.lines) {
                let ints = r.to_i64().expect("integer direction");
                let gcd = ints.iter().fold(0, |a, &x| aov_numeric::gcd(a, x));
                assert_eq!(gcd, 1, "{r:?} is not primitive");
                directions += 1;
            }
        }
        assert!(directions >= 60, "{directions} directions");
    }

    /// The integer kernel against the rational reference on random
    /// systems, some unbounded and some with equalities: the same
    /// generators in the same order, with the same tight sets.
    #[test]
    fn matches_rational_reference_on_random_systems() {
        let mut rng = aov_support::Rng::new(13);
        for _case in 0..200 {
            let d = rng.usize_in(1, 4);
            let cs: Vec<Constraint> = (0..rng.usize_in(1, 6))
                .map(|r| {
                    let e = AffineExpr::from_i64(&rng.vec_i64(-3, 3, d), rng.i64_in(-4, 4));
                    if r == 0 && rng.u64_below(3) == 0 {
                        Constraint::eq0(e)
                    } else {
                        Constraint::ge0(e)
                    }
                })
                .collect();
            let rows: Vec<Row> = cs.iter().map(int::of_constraint).collect();
            let rows: Vec<(&[BigInt], ConstraintKind)> = rows
                .iter()
                .map(|r| &r[..])
                .zip(cs.iter().map(Constraint::kind))
                .collect();
            assert_eq!(saturated(d, &rows), reference::saturated(d, &cs), "{cs:?}");
        }
    }

    #[test]
    fn dd_matches_brute_force_on_random_polytopes() {
        let mut rng = aov_support::Rng::new(7);
        for _case in 0..40 {
            let d = rng.usize_in(2, 3);
            // Random cuts plus a bounding box to keep it a polytope.
            let mut cs = Vec::new();
            for k in 0..d {
                let mut lo = vec![0i64; d];
                lo[k] = 1;
                cs.push(ge(&lo.clone(), 5));
                let mut hi = vec![0i64; d];
                hi[k] = -1;
                cs.push(ge(&hi, 5));
            }
            for _ in 0..rng.usize_in(1, 3) {
                let coeffs = rng.vec_i64(-3, 3, d);
                let c = rng.i64_in(-4, 6);
                cs.push(ge(&coeffs, c));
            }
            let p = Polyhedron::from_constraints(d, cs);
            let dd = p.generators();
            assert!(dd.is_bounded(), "boxed polytope must be bounded");
            let bf = brute_force_vertices(&p);
            assert_eq!(
                sorted(&dd.vertices),
                sorted(&bf),
                "vertex mismatch on {p:?}"
            );
        }
    }
}
