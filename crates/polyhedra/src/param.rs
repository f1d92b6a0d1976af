//! Parameterized vertices (Loechner–Wilde) with validity domains.
//!
//! The linearization of §4.4.2 of the paper replaces an iteration vector
//! by the vertices of its (parameterized) domain. When the domain's
//! right-hand sides depend on symbolic parameters — loop bounds `N`, or
//! the unknown occupancy vector `v` — the vertices are affine functions of
//! those parameters, and *which* affine functions are vertices can change
//! across the parameter space. Following \[13\] (Loechner & Wilde), the
//! vertices are read off the faces of the lifted polyhedron
//! `L = {(i, N) | system, N ∈ param domain}`: on a face whose tight rows
//! fix `i` (their `i`-parts have full rank), `i` is an affine function
//! `c(N)`, and at every `N` the vertices of the polytope are the values of
//! the faces whose projection holds `N`. One DD of `L` gives its
//! generators and the rows each one saturates; the faces, their `c` and
//! the generators of their validity domains (the faces' projections onto
//! `N`) follow from those tight sets and the generators' integer rows,
//! without a DD, an LP or a polyhedron per domain. No chamber
//! decomposition is formed.
//!
//! The system's rows are homogeneous integer rows `(constant, i-part,
//! parameter part)` (see [`crate::int`]), which are also the rows of `L`'s
//! DD. A face's first basis is chosen on the rows' `i`-parts alone; the
//! vertex of each face kept comes from one fraction-free (Bareiss)
//! elimination, which gives `det·c(N)` over the single denominator `det`,
//! and leaves reduced to lowest terms ([`ParamVertex`]), which is what the
//! linearization multiplies forms by. A validity domain's generators are
//! the face's generator rows with their `i`-part dropped. The rational
//! path, kept as a test oracle, must match every vertex exactly, and its
//! validity domains must equal the ones the test-only
//! `validity_domain` builds from the vertex.

use crate::bits::Bits;
use crate::dd;
use crate::int::{self, Generators, Row};
use crate::{ConstraintKind, PolyhedraError, Polyhedron};
use aov_linalg::AffineExpr;
use aov_numeric::BigInt;
use std::collections::HashSet;
use std::hash::Hash;

/// A vertex of the eliminated-variable polytope, as affine functions of
/// the parameters, with the generators of the parameter region where it
/// is valid.
///
/// The coordinates are integer numerators over one positive denominator,
/// as the fraction-free elimination computes them: coordinate `k` is
/// `numerators[k] · (1, N) / denom`. The pair is in lowest terms (the
/// gcd of `denom` and every numerator entry is 1), so equal vertices
/// have equal representations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamVertex {
    /// The common denominator of the coordinates (positive).
    pub denom: BigInt,
    /// `denom · c_k(N)` for each eliminated dimension `k`, as a
    /// homogenized integer row over the parameters (constant first).
    pub numerators: Vec<Row>,
    /// The number of parameters.
    pub n_params: usize,
    /// Generators of the validity domain (the points of the parameter
    /// domain at which the vertex lies in the polytope): the projections
    /// onto the parameters of the lifted polyhedron's generators on the
    /// vertex's face, as rows `(λ, N)` (a DD of the domain when that
    /// polyhedron has lines).
    pub generators: Generators,
}

impl ParamVertex {
    /// The coordinates, one affine expression over the parameters per
    /// eliminated dimension.
    pub fn coords(&self) -> Vec<AffineExpr> {
        self.numerators
            .iter()
            .map(|row| int::to_affine(row, &self.denom))
            .collect()
    }

    /// The vertex with rational coordinates `coords`, over their least
    /// common denominator.
    #[cfg(test)]
    fn from_coords(coords: &[AffineExpr], n_params: usize, generators: Generators) -> Self {
        let entries = coords
            .iter()
            .flat_map(|c| c.coeffs().iter().chain([c.constant_term()]));
        let denom = int::common_denominator(entries);
        let numerators = coords
            .iter()
            .map(|c| {
                let hom = std::iter::once(c.constant_term()).chain(c.coeffs().iter());
                hom.map(|q| int::scaled(q, &denom)).collect()
            })
            .collect();
        ParamVertex {
            denom,
            numerators,
            n_params,
            generators,
        }
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
/// Returns one vertex per face `F` of the lifted polyhedron `L` (system
/// and parameter domain) that is `L ∩ graph(c)` for an affine `c`: its
/// coordinates are the basic solution of the lexicographically first
/// invertible `n_elim`-subset of `F`'s tight rows, and the vertices come
/// in the order of those subsets. At every parameter point `N` of
/// `param_domain`, the vertices of the polytope are exactly the values at
/// `N` of the returned vertices whose validity domain contains `N` (an
/// affine form is therefore `>= 0` on every polytope iff, for each
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

    // Identical rows are common (overlapping target/source bounds); one
    // copy of each keeps the tight sets and the bases small.
    let rows = dedup_in_order(split_rows(system));
    // L's extreme rays cannot tell whether every P(N) is bounded: a
    // recession direction of P(N) need not be extreme in L.
    if !bounded(&rows, n_elim) {
        return Err(PolyhedraError::UnboundedDirection);
    }
    let lifted = Lifted::from_saturated(lifted_dd(&rows, n_elim, param_domain), rows.len());

    // Each face with `i` fixed is named by the first basis among its
    // tight rows; `L ∩ {basis rows = 0}` is the largest face with that
    // basis's vertex expression.
    let mut scratch = Vec::new();
    let mut bases = lifted.fixed_face_bases(n_elim, |tight| {
        first_basis(&rows, tight, n_elim, &mut scratch)
    });
    bases.sort_unstable();
    bases.dedup();
    let mut faces_seen = HashSet::with_capacity(bases.len());
    let mut out = Vec::with_capacity(bases.len());
    for basis in bases {
        let face = lifted.face_of_rows(basis.iter().copied());
        if !faces_seen.insert(face.clone()) {
            // A lower-dimensional face that two bases describe: their
            // expressions agree on its projection, so one is enough.
            continue;
        }
        let (denom, numerators) = Basis::solve(&rows, &basis, n_elim).vertex();
        let generators = if lifted.gens.lines.is_empty() {
            lifted.project(&face, n_elim)
        } else {
            // The vertices of a polyhedron with lines are not unique;
            // the DD of the domain keeps the representation it always
            // had.
            let domain = domain_of_rows(&rows, n_elim, param_domain, &denom, &numerators);
            dd::saturated_of(&domain).gens
        };
        // Counts the vertices returned, one per validity domain; the name
        // predates them and stays so per-layer series remain comparable.
        aov_support::static_counter!("polyhedra.param.chambers").add(1);
        out.push(ParamVertex {
            denom,
            numerators,
            n_params,
            generators,
        });
    }
    Ok(out)
}

/// The validity domain of `vertex`, one of the parameterized vertices of
/// `system` over `param_domain`: the points of the parameter domain at
/// which the vertex lies in the polytope. The pipeline reads only its
/// generators ([`ParamVertex::generators`]); the oracles read the
/// polyhedron through this.
#[cfg(test)]
pub(crate) fn validity_domain(
    system: &Polyhedron,
    n_elim: usize,
    param_domain: &Polyhedron,
    vertex: &ParamVertex,
) -> Polyhedron {
    let rows = dedup_in_order(split_rows(system));
    domain_of_rows(
        &rows,
        n_elim,
        param_domain,
        &vertex.denom,
        &vertex.numerators,
    )
}

/// The validity domain of the vertex `c = numerators · (1, N) / denom`
/// over the system's deduplicated `rows`: the parameter domain and every
/// row at the vertex, `denom · (ppart + ipart · c) = denom·ppart + ipart ·
/// numerators >= 0`, made primitive, with the rows that are constant
/// there dropped (they hold on the vertex's nonempty face; the basis rows
/// are among them) and repeats dropped in first-occurrence order.
fn domain_of_rows(
    rows: &[Row],
    n_elim: usize,
    param_domain: &Polyhedron,
    denom: &BigInt,
    numerators: &[Row],
) -> Polyhedron {
    let conditions = rows.iter().map(|row| {
        let mut cond: Row = ppart(row, n_elim).map(|x| denom * x).collect();
        for (a, c) in ipart(row, n_elim).iter().zip(numerators) {
            if !a.is_zero() {
                for (x, y) in cond.iter_mut().zip(c) {
                    *x += &(a * y);
                }
            }
        }
        cond
    });
    let mut domain = param_domain.clone();
    for mut cond in dedup_in_order(conditions.filter(|c| !int::is_zero(&c[1..])).collect()) {
        domain.add_constraint(int::primitive_constraint(&mut cond, ConstraintKind::Ineq));
    }
    domain
}

/// The rows of `system` as homogenized integer rows `(constant, i-part,
/// parameter coefficients)`, equalities as two opposite inequalities:
/// row `r` reads `ipart · i + ppart(N) >= 0`. These are also the rows of
/// the lifted polyhedron over `(i, N)`.
fn split_rows(system: &Polyhedron) -> Vec<Row> {
    let mut rows = Vec::with_capacity(system.constraints().len());
    for c in system.constraints() {
        let row = int::of_constraint(c);
        if c.is_equality() {
            let negated = row.iter().map(|x| -x).collect();
            rows.push(row);
            rows.push(negated);
        } else {
            rows.push(row);
        }
    }
    rows
}

/// The `i`-part of a row.
fn ipart(row: &[BigInt], n_elim: usize) -> &[BigInt] {
    &row[1..=n_elim]
}

/// The parameter part of a row, homogenized: its constant, then its
/// parameter coefficients.
fn ppart(row: &[BigInt], n_elim: usize) -> impl Iterator<Item = &BigInt> {
    std::iter::once(&row[0]).chain(&row[n_elim + 1..])
}

/// Whether the polytope is bounded: its recession cone
/// `{i | ipart · i >= 0 for every row}` is `{0}`.
fn bounded(rows: &[Row], n_elim: usize) -> bool {
    recession(rows, n_elim).gens.is_bounded()
}

/// The DD of the polytope's recession cone. Rows of one `i`-part bound
/// the cone alike, so each distinct nonzero one is a row once.
fn recession(rows: &[Row], n_elim: usize) -> dd::Saturated {
    let iparts = rows
        .iter()
        .map(|row| ipart(row, n_elim))
        .filter(|v| !int::is_zero(v));
    let cone: Vec<Row> = dedup_in_order(iparts.collect())
        .into_iter()
        .map(|ipart| {
            let mut row: Row = std::iter::once(&BigInt::zero())
                .chain(ipart)
                .cloned()
                .collect();
            int::make_primitive(&mut row);
            row
        })
        .collect();
    let cone: Vec<(&[BigInt], ConstraintKind)> = cone
        .iter()
        .map(|row| (&row[..], ConstraintKind::Ineq))
        .collect();
    dd::saturated(n_elim, &cone)
}

/// The DD of the lifted polyhedron: `rows` as inequalities, in order,
/// so that row `r` is tight-set bit `r`, then the parameter domain
/// embedded after the eliminated dimensions.
fn lifted_dd(rows: &[Row], n_elim: usize, param_domain: &Polyhedron) -> dd::Saturated {
    let dim = n_elim + param_domain.dim();
    let embedded: Vec<Row> = param_domain
        .constraints()
        .iter()
        .map(|c| {
            let row = int::of_constraint(c);
            let mut lifted = vec![BigInt::zero(); dim + 1];
            lifted[0] = row[0].clone();
            lifted[n_elim + 1..].clone_from_slice(&row[1..]);
            lifted
        })
        .collect();
    let kinds = param_domain.constraints().iter().map(|c| c.kind());
    let dd_rows: Vec<(&[BigInt], ConstraintKind)> = rows
        .iter()
        .map(|row| (&row[..], ConstraintKind::Ineq))
        .chain(embedded.iter().map(|row| &row[..]).zip(kinds))
        .collect();
    dd::saturated(dim, &dd_rows)
}

/// The lifted polyhedron `L` after its one DD: its generators, and which
/// rows of the system each one saturates. Generator sets index the
/// vertices first, then the rays.
struct Lifted {
    gens: Generators,
    /// `rows_at[g]`: the system's rows that are zero at generator `g`.
    rows_at: Vec<Bits>,
    /// `on_row[r]`: the generators at which row `r` is zero.
    on_row: Vec<Bits>,
}

impl Lifted {
    /// `L` from its DD, whose first `n_rows` inequalities are the
    /// system's rows.
    fn from_saturated(sat: dd::Saturated, n_rows: usize) -> Self {
        let n = sat.gens.vertices.len() + sat.gens.rays.len();
        let mut rows_at = Vec::with_capacity(n);
        let mut on_row = vec![Bits::empty(n); n_rows];
        for (g, tight) in sat.vertex_tight.iter().chain(&sat.ray_tight).enumerate() {
            let mut at = Bits::empty(n_rows);
            for r in tight.iter().take_while(|&r| r < n_rows) {
                at.insert(r);
                on_row[r].insert(g);
            }
            rows_at.push(at);
        }
        Lifted {
            gens: sat.gens,
            rows_at,
            on_row,
        }
    }

    /// The face where every row of `rows` is zero, as its generators.
    fn face_of_rows(&self, rows: impl IntoIterator<Item = usize>) -> Bits {
        let mut face = Bits::empty(self.rows_at.len());
        self.face_of_rows_into(rows, &mut face);
        face
    }

    /// [`Lifted::face_of_rows`], written into `face`.
    fn face_of_rows_into(&self, rows: impl IntoIterator<Item = usize>, face: &mut Bits) {
        face.fill(self.rows_at.len());
        for r in rows {
            face.intersect_with(&self.on_row[r]);
        }
    }

    /// The first bases (`first_basis` of a face's tight rows, see
    /// [`first_basis`]) of every face of `L` on which the tight rows of
    /// the system fix the `n_elim` coordinates of `i`. Faces are taken
    /// closed under the system's rows: `L ∩ {rows tight on F = 0}` has
    /// `F`'s tight rows, so nothing is lost. Such faces are closed under
    /// taking subfaces, and every nonempty face holds a vertex, so they
    /// are reached from the vertices by joining one generator at a time;
    /// a face with fewer than `n_elim` tight rows fixes nothing and is
    /// not visited. A larger face keeps its subface's first basis when it
    /// keeps all of that basis's rows (a subset holding the first basis
    /// has no earlier one).
    fn fixed_face_bases(
        &self,
        n_elim: usize,
        mut first_basis: impl FnMut(&Bits) -> Option<Vec<usize>>,
    ) -> Vec<Vec<usize>> {
        let n = self.rows_at.len();
        let mut seen: HashSet<Bits> = HashSet::with_capacity(4 * n);
        // Faces to grow, each with its tight rows and the position of its
        // subface's basis in `bases`.
        let mut stack: Vec<(Bits, Bits, Option<usize>)> = Vec::with_capacity(n);
        let mut bases: Vec<Vec<usize>> = Vec::with_capacity(n);
        // Scratch sets for the faces one generator larger.
        let (mut joined, mut bigger) = (Bits::empty(self.on_row.len()), Bits::empty(n));
        for w in 0..self.gens.vertices.len() {
            let tight = self.rows_at[w].clone();
            let face = self.face_of_rows(tight.iter());
            if seen.insert(face.clone()) {
                stack.push((face, tight, None));
            }
        }
        while let Some((face, tight, inherited)) = stack.pop() {
            let kept = inherited.filter(|&b| bases[b].iter().all(|&r| tight.contains(r)));
            let basis = match kept {
                Some(b) => b,
                None => match first_basis(&tight) {
                    Some(b) => {
                        bases.push(b);
                        bases.len() - 1
                    }
                    None => continue,
                },
            };
            for g in (0..n).filter(|&g| !face.contains(g)) {
                joined.assign_and(&tight, &self.rows_at[g]);
                if joined.len() < n_elim {
                    continue;
                }
                self.face_of_rows_into(joined.iter(), &mut bigger);
                if !seen.contains(&bigger) {
                    seen.insert(bigger.clone());
                    stack.push((bigger.clone(), joined.clone(), Some(basis)));
                }
            }
        }
        bases
    }

    /// The generators of `face`'s projection onto the parameters, as
    /// primitive rows `(λ, N)`: each generator's row with its `i`-part
    /// dropped. The projection is one to one on a face where `i = c(N)`,
    /// so extreme points and rays stay extreme.
    fn project(&self, face: &Bits, n_elim: usize) -> Generators {
        let gens = &self.gens;
        let nv = gens.vertices.len();
        let drop_i = |row: &Row| -> Row {
            let mut out: Row = ppart(row, n_elim).cloned().collect();
            int::make_primitive(&mut out);
            out
        };
        Generators {
            vertices: (0..nv)
                .filter(|&k| face.contains(k))
                .map(|k| drop_i(&gens.vertices[k]))
                .collect(),
            rays: (0..gens.rays.len())
                .filter(|&k| face.contains(nv + k))
                .map(|k| drop_i(&gens.rays[k]))
                .collect(),
            lines: Vec::new(),
        }
    }
}

/// The lexicographically first `n_elim`-subset of `tight` (ascending row
/// indices) whose `i`-parts are independent, or `None` when they have
/// lower rank. Taking each row that is independent of those already
/// taken finds it (a matroid's greedy basis). Only the `i`-parts take
/// part: the taken ones are kept in echelon form, each zero at the pivot
/// (first nonzero entry) of every one before it, so a new `i`-part
/// reduced against them in turn is zero exactly when it depends on them.
/// `echelon` is scratch space, reused across calls.
fn first_basis(
    rows: &[Row],
    tight: &Bits,
    n_elim: usize,
    echelon: &mut Vec<BigInt>,
) -> Option<Vec<usize>> {
    let pivot = |e: &[BigInt]| e.iter().position(|x| !x.is_zero());
    let mut basis = Vec::with_capacity(n_elim);
    // The taken i-parts, back to back.
    echelon.clear();
    for r in tight.iter() {
        if basis.len() == n_elim {
            break;
        }
        let start = echelon.len();
        echelon.extend_from_slice(ipart(&rows[r], n_elim));
        let (taken, new) = echelon.split_at_mut(start);
        for e in taken.chunks_exact(n_elim) {
            let p = pivot(e).expect("taken rows are nonzero");
            if !new[p].is_zero() {
                let factor = -&new[p];
                int::combine_into(&e[p], new, &factor, e);
            }
        }
        if pivot(new).is_some() {
            basis.push(r);
        } else {
            echelon.truncate(start);
        }
    }
    (basis.len() == n_elim).then_some(basis)
}

/// The vertex that a basis fixes, from one fraction-free (Bareiss)
/// Gauss–Jordan elimination over the basis rows.
struct Basis {
    /// `|det|` of the basis rows' `i`-parts: the vertex's common
    /// denominator (positive).
    det: BigInt,
    /// `det · c_k(N)` for each coordinate `k`, as a homogenized row over
    /// the parameters (constant first).
    coords: Vec<Row>,
}

impl Basis {
    /// The basic solution of `basis` (`n_elim` rows whose `i`-parts are
    /// independent, see [`first_basis`]) held at equality.
    ///
    /// The rows are taken in turn and kept in Gauss–Jordan form over one
    /// common denominator `d`: each is `d` at its own pivot column (an
    /// `i` column) and zero at the others'. A new row is reduced to
    /// `d·row − Σ row[p_s]·E_s` (`d` times its rational reduction); its
    /// `i`-part is nonzero, at a first column `q`, so it joins with pivot
    /// `q` and `d' = reduced[q]`, and every earlier row becomes
    /// `(d'·E_s − E_s[q]·reduced) / d`. By Sylvester's identity each
    /// entry is a minor of the taken rows, so the divisions are exact and
    /// `d` ends as `±det`. Row `s` then reads `d·i_{p_s} + E_s[ppart] = 0`.
    ///
    /// # Panics
    ///
    /// Panics if the basis rows' `i`-parts are dependent.
    fn solve(rows: &[Row], basis: &[usize], n_elim: usize) -> Basis {
        let mut echelon: Vec<(usize, Row)> = Vec::with_capacity(n_elim);
        let mut d = BigInt::one();
        for &r in basis {
            let row = &rows[r];
            let mut reduced: Row = row.iter().map(|x| &d * x).collect();
            for (p, e) in &echelon {
                let f = &row[*p];
                if !f.is_zero() {
                    for (x, y) in reduced.iter_mut().zip(e) {
                        if !y.is_zero() {
                            *x -= &(f * y);
                        }
                    }
                }
            }
            let q = (1..=n_elim)
                .find(|&k| !reduced[k].is_zero())
                .expect("basis rows are independent");
            let pivot = reduced[q].clone();
            for (_, e) in echelon.iter_mut() {
                let eq = e[q].clone();
                for (x, y) in e.iter_mut().zip(&reduced) {
                    let mut num = &pivot * &*x;
                    if !eq.is_zero() && !y.is_zero() {
                        num -= &(&eq * y);
                    }
                    debug_assert!((&num % &d).is_zero(), "inexact Bareiss step");
                    *x = &num / &d;
                }
            }
            echelon.push((q, reduced));
            d = pivot;
        }
        assert_eq!(echelon.len(), n_elim, "one basis row per coordinate");
        // d·c_{p_s} = −E_s[ppart]; made positive over |d|.
        let sign = if d.is_negative() {
            BigInt::one()
        } else {
            -BigInt::one()
        };
        let mut coords = vec![Row::new(); n_elim];
        for (p, e) in echelon {
            coords[p - 1] = ppart(&e, n_elim).map(|x| &sign * x).collect();
        }
        Basis {
            det: d.abs(),
            coords,
        }
    }

    /// The vertex's coordinate numerators and their denominator, in
    /// lowest terms.
    fn vertex(self) -> (BigInt, Vec<Row>) {
        let mut g = self.det.clone();
        for x in self.coords.iter().flatten() {
            if g.is_one() {
                break;
            }
            g = aov_numeric::gcd_big(&g, x);
        }
        if g.is_one() {
            return (self.det, self.coords);
        }
        let divide = |row: Row| row.iter().map(|x| x / &g).collect();
        (
            &self.det / &g,
            self.coords.into_iter().map(divide).collect(),
        )
    }
}

/// Advances `subset` to the next `subset.len()`-combination of `0..m`
/// in lexicographic order; `false` after the last one.
#[cfg(test)]
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

/// Test oracle: the rational vertex path the integer kernels replaced —
/// rows as `(QVector, AffineExpr)`, the lifted polyhedron through the
/// rational DD ([`dd::reference`]), the first basis by rational
/// elimination, each vertex from a `QMatrix` inverse, its domain rows
/// from `AffineExpr` sums and its domain generators projected as
/// rational vectors. Same faces and order, so
/// [`parameterized_vertices`] must reproduce its vertices exactly, and
/// [`validity_domain`] each vertex's domain.
#[cfg(test)]
mod rational {
    use super::{dedup_in_order, Lifted, ParamVertex};
    use crate::bits::Bits;
    use crate::dd;
    use crate::int::Generators;
    use crate::{Constraint, ConstraintKind, GeneratorSet, PolyhedraError, Polyhedron};
    use aov_linalg::{AffineExpr, QMatrix, QVector};
    use aov_numeric::Rational;
    use std::collections::HashSet;

    /// One row of `system`, split into its eliminated-variable
    /// coefficients and its affine parameter part; the row reads
    /// `ipart · i + ppart >= 0`.
    pub type Row = (QVector, AffineExpr);

    /// The rows of `system` with equalities as two opposite inequalities.
    pub fn split_rows(system: &Polyhedron, n_elim: usize) -> Vec<Row> {
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

    /// The recession cone's constraints: each distinct nonzero `i`-part.
    pub fn recession_cone(rows: &[Row], n_elim: usize) -> Polyhedron {
        let iparts = rows.iter().map(|(ipart, _)| ipart).filter(|v| !v.is_zero());
        Polyhedron::from_constraints(
            n_elim,
            dedup_in_order(iparts.collect())
                .into_iter()
                .map(|ipart| {
                    Constraint::ge0(AffineExpr::from_parts(ipart.clone(), Rational::zero()))
                })
                .collect(),
        )
    }

    /// Whether the polytope is bounded (its recession cone is `{0}`).
    pub fn bounded(rows: &[Row], n_elim: usize) -> bool {
        let cone = recession_cone(rows, n_elim);
        dd::reference::saturated(n_elim, cone.constraints())
            .gens
            .is_bounded()
    }

    /// The lifted polyhedron's constraints: the rows as inequalities,
    /// then the parameter domain embedded after the eliminated dims.
    pub fn lifted_constraints(
        rows: &[Row],
        n_elim: usize,
        param_domain: &Polyhedron,
    ) -> Vec<Constraint> {
        let dim = n_elim + param_domain.dim();
        let params: Vec<usize> = (n_elim..dim).collect();
        let mut constraints: Vec<Constraint> = rows
            .iter()
            .map(|(ipart, ppart)| {
                let coeffs = ipart.iter().chain(ppart.coeffs().iter()).cloned();
                Constraint::ge0(AffineExpr::from_parts(
                    coeffs.collect(),
                    ppart.constant_term().clone(),
                ))
            })
            .collect();
        for c in param_domain.constraints() {
            let e = c.expr().embed(dim, &params);
            constraints.push(match c.kind() {
                ConstraintKind::Ineq => Constraint::ge0(e),
                ConstraintKind::Eq => Constraint::eq0(e),
            });
        }
        constraints
    }

    /// The first basis of `tight` by rational elimination.
    pub fn first_basis(
        rows: &[Row],
        tight: impl IntoIterator<Item = usize>,
        n_elim: usize,
    ) -> Option<Vec<usize>> {
        let mut basis = Vec::with_capacity(n_elim);
        let mut echelon: Vec<(usize, QVector)> = Vec::with_capacity(n_elim);
        for r in tight {
            if basis.len() == n_elim {
                break;
            }
            let mut v = rows[r].0.clone();
            for (col, e) in &echelon {
                if !v[*col].is_zero() {
                    let f = &v[*col] / &e[*col];
                    v = &v - &e.scale(&f);
                }
            }
            if let Some(col) = (0..n_elim).find(|&k| !v[k].is_zero()) {
                echelon.push((col, v));
                basis.push(r);
            }
        }
        (basis.len() == n_elim).then_some(basis)
    }

    /// The basic solution `i(p)` of the rows in `subset` held at
    /// equality, or `None` when those rows are linearly dependent.
    pub fn basic_solution(
        rows: &[Row],
        subset: &[usize],
        n_params: usize,
    ) -> Option<Vec<AffineExpr>> {
        let m = QMatrix::from_rows(subset.iter().map(|&i| rows[i].0.clone()).collect());
        let inv = m.inverse()?;
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

    /// `row` evaluated at the vertex `coords`, affine over the
    /// parameters.
    pub fn row_at((ipart, ppart): &Row, coords: &[AffineExpr]) -> AffineExpr {
        let mut acc = ppart.clone();
        for (k, c) in ipart.iter().enumerate() {
            if !c.is_zero() {
                acc = &acc + &coords[k].scale(c);
            }
        }
        acc
    }

    /// The generators of `face`'s projection onto the parameters, by
    /// rational vectors: each vertex without its `i`-part, each ray's
    /// parameter part normalized.
    fn project(gens: &GeneratorSet, face: &Bits, n_elim: usize) -> Generators {
        let nv = gens.vertices.len();
        let drop_i = |x: &QVector| -> QVector { x.iter().skip(n_elim).cloned().collect() };
        Generators::of_rational(&GeneratorSet {
            vertices: (0..nv)
                .filter(|&k| face.contains(k))
                .map(|k| drop_i(&gens.vertices[k]))
                .collect(),
            rays: (0..gens.rays.len())
                .filter(|&k| face.contains(nv + k))
                .map(|k| dd::reference::normalize(&drop_i(&gens.rays[k])))
                .collect(),
            lines: Vec::new(),
        })
    }

    /// The vertices, each with its validity domain.
    pub fn parameterized_vertices(
        system: &Polyhedron,
        n_elim: usize,
        param_domain: &Polyhedron,
    ) -> Result<Vec<(ParamVertex, Polyhedron)>, PolyhedraError> {
        let n_params = system.dim() - n_elim;
        let rows = dedup_in_order(split_rows(system, n_elim));
        if !bounded(&rows, n_elim) {
            return Err(PolyhedraError::UnboundedDirection);
        }
        let constraints = lifted_constraints(&rows, n_elim, param_domain);
        let sat = dd::reference::saturated(n_elim + n_params, &constraints);
        let lifted = Lifted::from_saturated(sat, rows.len());
        let mut bases =
            lifted.fixed_face_bases(n_elim, |tight| first_basis(&rows, tight.iter(), n_elim));
        bases.sort_unstable();
        bases.dedup();
        let mut faces_seen = HashSet::with_capacity(bases.len());
        let mut out = Vec::with_capacity(bases.len());
        for basis in bases {
            let face = lifted.face_of_rows(basis.iter().copied());
            if !faces_seen.insert(face.clone()) {
                continue;
            }
            let coords = basic_solution(&rows, &basis, n_params).expect("invertible");
            let conditions = rows
                .iter()
                .map(|row| row_at(row, &coords))
                .filter(|cond| !cond.is_constant());
            let mut domain = param_domain.clone();
            for cond in dedup_in_order(conditions.collect()) {
                domain.add_constraint(Constraint::ge0(cond));
            }
            let generators = if lifted.gens.lines.is_empty() {
                project(&lifted.gens.to_rational(), &face, n_elim)
            } else {
                dd::reference::saturated(domain.dim(), domain.constraints()).gens
            };
            out.push((
                ParamVertex::from_coords(&coords, n_params, generators),
                domain,
            ));
        }
        Ok(out)
    }
}

/// Test oracle: the basis enumeration this module used before the lifted
/// polyhedron's faces. Every invertible `n_elim`-subset of rows gives a
/// candidate vertex; each distinct one, in first-enumeration order, is
/// kept with its validity domain (one DD per domain) when that domain is
/// nonempty.
#[cfg(test)]
mod basis_reference {
    use super::rational::{basic_solution, bounded, row_at, split_rows};
    use super::{dedup_in_order, next_combination, ParamVertex};
    use crate::int::Generators;
    use crate::{Constraint, PolyhedraError, Polyhedron};

    /// The vertices, each with its validity domain.
    pub fn parameterized_vertices(
        system: &Polyhedron,
        n_elim: usize,
        param_domain: &Polyhedron,
    ) -> Result<Vec<(ParamVertex, Polyhedron)>, PolyhedraError> {
        let n_params = system.dim() - n_elim;
        let rows = dedup_in_order(split_rows(system, n_elim));
        if !bounded(&rows, n_elim) {
            return Err(PolyhedraError::UnboundedDirection);
        }
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
            let generators = Generators::of_rational(&generators);
            out.push((
                ParamVertex::from_coords(&coords, n_params, generators),
                domain,
            ));
        }
        Ok(out)
    }
}

/// Test oracle: the chamber recursion of Loechner–Wilde-style vertex
/// enumeration without validity domains. It splits the parameter domain
/// into chambers on which the vertex set is uniform, with one DD
/// conversion per recursive call.
#[cfg(test)]
mod reference {
    use super::next_combination;
    use super::rational::{basic_solution, row_at, split_rows, Row};
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
    use crate::forms_reference::{self, Form};
    use crate::Constraint;
    use aov_linalg::QVector;
    use aov_numeric::Rational;

    fn ge(coeffs: &[i64], c: i64) -> Constraint {
        Constraint::ge0(AffineExpr::from_i64(coeffs, c))
    }

    fn same_set(a: &Polyhedron, b: &Polyhedron) -> bool {
        a.is_subset_lp(b) && b.is_subset_lp(a)
    }

    /// The parameterized vertices, each with its validity domain.
    fn with_domains(
        system: &Polyhedron,
        n_elim: usize,
        param_domain: &Polyhedron,
    ) -> Result<Vec<(ParamVertex, Polyhedron)>, PolyhedraError> {
        let vertices = parameterized_vertices(system, n_elim, param_domain)?;
        Ok(vertices
            .into_iter()
            .map(|v| {
                let domain = validity_domain(system, n_elim, param_domain, &v);
                (v, domain)
            })
            .collect())
    }

    /// The vertex's value at `params`.
    fn eval(v: &ParamVertex, params: &QVector) -> QVector {
        v.coords().iter().map(|c| c.eval(params)).collect()
    }

    /// The vertices' values at `params`, sorted, for those whose validity
    /// domain contains `params`.
    fn values_at(vertices: &[(ParamVertex, Polyhedron)], params: &QVector) -> Vec<String> {
        let mut pts: Vec<String> = vertices
            .iter()
            .filter(|(_, domain)| domain.contains(params))
            .map(|(v, _)| eval(v, params).to_string())
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
        let vertices = with_domains(&system, 2, &params).unwrap();
        assert_eq!(vertices.len(), 4);
        for (v, domain) in &vertices {
            assert!(same_set(domain, &params), "{v:?}");
            assert_eq!(v.generators.to_rational(), domain.generators());
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
        let vertices = with_domains(&system, 2, &params).unwrap();
        assert_eq!(vertices.len(), 3);
        for (v, domain) in &vertices {
            assert!(same_set(domain, &params), "{v:?}");
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
        let vertices = with_domains(&system, 1, &params).unwrap();
        let up_to_3 = Polyhedron::from_constraints(1, vec![ge(&[1], 0), ge(&[-1], 3)]);
        let from_3 = Polyhedron::from_constraints(1, vec![ge(&[1], -3)]);
        let want = [
            (AffineExpr::from_i64(&[0], 0), &params),
            (AffineExpr::from_i64(&[1], 0), &up_to_3),
            (AffineExpr::from_i64(&[0], 3), &from_3),
        ];
        assert_eq!(vertices.len(), want.len(), "{vertices:?}");
        for ((v, got), (coord, domain)) in vertices.iter().zip(&want) {
            assert_eq!(v.coords(), vec![coord.clone()]);
            assert!(same_set(got, domain), "{v:?}");
        }
    }

    /// A lifted polyhedron with a line: `p <= i <= p + 1` over a free
    /// parameter. Both vertices hold everywhere, and their domains'
    /// generators are the DD's (a line, no unique vertex).
    #[test]
    fn lifted_polyhedron_with_lines() {
        // Dims: (i, p).
        let system = Polyhedron::from_constraints(2, vec![ge(&[1, -1], 0), ge(&[-1, 1], 1)]);
        let params = Polyhedron::universe(1);
        let vertices = with_domains(&system, 1, &params).unwrap();
        let coords: Vec<_> = vertices.iter().map(|(v, _)| v.coords()).collect();
        assert_eq!(
            coords,
            vec![
                vec![AffineExpr::from_i64(&[1], 0)],
                vec![AffineExpr::from_i64(&[1], 1)]
            ]
        );
        for (v, domain) in &vertices {
            assert!(same_set(domain, &params), "{v:?}");
            assert_eq!(v.generators, dd::saturated_of(domain).gens);
            assert_eq!(v.generators.lines.len(), 1);
        }
        assert_eq!(
            values_at(&vertices, &QVector::from_i64(&[-3])),
            vec!["(-2)", "(-3)"]
        );
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
        let vertices = with_domains(&system, 1, &params).unwrap();
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
            let Ok(vertices) = with_domains(&system, n_elim, &param_domain) else {
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
                for (v, _) in vertices.iter().filter(|(_, domain)| domain.contains(&n)) {
                    let x = eval(v, &n);
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
                let over_params = Form::of(form).substitute_domain(&subs);
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
        let (new, old) = (poly(&rows).lp(), poly(&reference).lp());
        for r in &reference {
            assert!(new.implies_nonneg(r), "{what}: new rows miss {r:?}");
        }
        for r in &rows {
            assert!(old.implies_nonneg(r), "{what}: reference rows miss {r:?}");
        }
    }

    /// `form >= 0` linearized over `vertices` the way
    /// `aov_schedule::linearize::linearize_at_vertices` does it, each row
    /// tagged `true` for a point row, as a set.
    fn rows_over(
        form: &aov_schedule::BilinearForm,
        vertices: &[ParamVertex],
    ) -> HashSet<(AffineExpr, bool)> {
        let mut out = HashSet::new();
        for vertex in vertices {
            let n_params = vertex.n_params;
            let mut subs = vertex.coords();
            subs.extend((0..n_params).map(|j| AffineExpr::var(n_params, j)));
            let over_params = Form::of(form).substitute_domain(&subs);
            let gens = vertex.generators.to_rational();
            out.extend(
                gens.vertices
                    .iter()
                    .map(|w| (over_params.at_point(w), true)),
            );
            for r in gens.rays.iter().chain(&gens.lines) {
                out.insert((over_params.linear_part_along(r), false));
            }
            for l in &gens.lines {
                out.insert((-&over_params.linear_part_along(l), false));
            }
        }
        out.retain(|(e, _)| !e.is_constant() || e.constant_term().is_negative());
        out
    }

    /// Every integer point of the box `[-1, 3]^n_params`.
    fn param_box(n_params: usize) -> Vec<QVector> {
        let mut points = vec![Vec::new()];
        for _ in 0..n_params {
            points = points
                .into_iter()
                .flat_map(|pt: Vec<i64>| {
                    (-1..=3).map(move |x| {
                        let mut pt = pt.clone();
                        pt.push(x);
                        pt
                    })
                })
                .collect();
        }
        points.iter().map(|pt| QVector::from_i64(pt)).collect()
    }

    /// Both vertex lists of `system` give the same vertex values at every
    /// point of the parameter box, or both fail with the same error.
    /// Returns the pair of lists when both succeed.
    fn assert_same_values(
        system: &Polyhedron,
        n_elim: usize,
        param_domain: &Polyhedron,
        what: &str,
    ) -> Option<(Vec<ParamVertex>, Vec<ParamVertex>)> {
        let new = with_domains(system, n_elim, param_domain);
        let old = basis_reference::parameterized_vertices(system, n_elim, param_domain);
        let (new, old) = match (new, old) {
            (Ok(new), Ok(old)) => (new, old),
            (new, old) => {
                assert_eq!(new.err(), old.err(), "{what}");
                return None;
            }
        };
        assert!(new.len() <= old.len(), "{what}: more vertices than bases");
        for pt in param_box(param_domain.dim()) {
            assert_eq!(
                values_at(&new, &pt),
                values_at(&old, &pt),
                "{what} at {pt:?}"
            );
        }
        let vertices = |list: Vec<(ParamVertex, Polyhedron)>| list.into_iter().map(|(v, _)| v);
        Some((vertices(new).collect(), vertices(old).collect()))
    }

    /// The paper examples and 300 generated programs (seeds `mix(42, i)`,
    /// default generator profile).
    fn corpus() -> Vec<aov_ir::Program> {
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
        programs
    }

    /// Where the pipeline enumerates a system's parameterized vertices.
    enum Site {
        /// A statement domain (the storage transform).
        Statement,
        /// Dependence `d`'s domain (the causality rows of ℛ).
        Dependence(usize),
        /// Problem 2's `Z` of dependence `d` at the occupancy vector `v`.
        Z(usize, Vec<i64>),
    }

    /// One vertex enumeration the pipeline performs.
    struct Enumeration {
        what: String,
        system: Polyhedron,
        n_elim: usize,
        site: Site,
    }

    /// What the pipeline hands the polyhedra kernels for one program.
    struct Systems<'p> {
        /// The program's analysis, when it has one.
        analysis: Option<aov_schedule::Analysis<'p>>,
        param_domain: Polyhedron,
        /// Statement domains, dependence domains and, when the program
        /// has an AOV, Problem 2's `Z` at it.
        enumerations: Vec<Enumeration>,
        /// DDs outside the enumerations: the parameter domain and ℛ.
        dds: Vec<(String, Polyhedron)>,
        /// FM projections, each with the dimensions it eliminates: every
        /// dependence's overwriter system onto `v`, the image's cut by
        /// every sign pattern onto nothing, and ℛ onto its iteration
        /// coefficients.
        projections: Vec<(String, Polyhedron, Vec<usize>)>,
    }

    /// The systems of `p`.
    fn systems(p: &aov_ir::Program) -> Systems<'_> {
        use aov_schedule::{legal, sign_patterns, Analysis};
        let param_domain = local!(p.param_domain());
        let mut out = Systems {
            analysis: None,
            param_domain: param_domain.clone(),
            enumerations: Vec::new(),
            dds: vec![(format!("{} parameter domain", p.name()), param_domain)],
            projections: Vec::new(),
        };
        for st in p.statements() {
            out.enumerations.push(Enumeration {
                what: format!("{} statement {}", p.name(), st.name()),
                system: local!(st.domain()),
                n_elim: st.depth(),
                site: Site::Statement,
            });
        }
        let Ok(a) = Analysis::new(p) else {
            return out;
        };
        for (d, dep) in a.deps().iter().enumerate() {
            let what = format!("{} dependence {d}", p.name());
            out.enumerations.push(Enumeration {
                what: what.clone(),
                system: local!(dep.domain),
                n_elim: p.statement(dep.target).depth(),
                site: Site::Dependence(d),
            });
            let joint = local!(legal::overwriter_system(p, dep));
            let outer = p.statement(dep.target).depth() + p.num_params();
            let image = joint.eliminate_dims(&(0..outer).collect::<Vec<_>>());
            out.projections
                .push((format!("{what} overwriter"), joint, (0..outer).collect()));
            let d_v = image.dim();
            for pattern in sign_patterns(d_v) {
                let mut cut = image.clone();
                for (k, &s) in pattern.iter().enumerate() {
                    let v = AffineExpr::var(d_v, k);
                    cut.add_constraint(if s == 0 {
                        Constraint::eq0(v)
                    } else {
                        let one = AffineExpr::constant(d_v, 1.into());
                        Constraint::ge0(&v.scale(&i64::from(s).into()) - &one)
                    });
                }
                let what = format!("{what} orthant {pattern:?}");
                out.projections.push((what, cut, (0..d_v).collect()));
            }
        }
        let space = a.space();
        let legal = local!(a.legal());
        let mut drop: Vec<usize> = Vec::new();
        for s in 0..space.num_statements() {
            let s = aov_ir::StmtId(s);
            drop.extend((0..p.params().len()).map(|j| space.param_coeff(s, j)));
            drop.push(space.const_coeff(s));
        }
        out.dds.push((format!("{} ℛ", p.name()), legal.clone()));
        out.projections
            .push((format!("{} ℛ cone", p.name()), legal, drop));
        if let Ok(aov) = aov_core::problems::aov_with(p, 1) {
            for (d, dep) in a.deps().iter().enumerate() {
                let v = aov.vectors()[p.statement(dep.source).writes().0].components();
                out.enumerations.push(Enumeration {
                    what: format!("{} dependence {d} Z({v:?})", p.name()),
                    system: local!(aov_core::storage::exact_z(p, dep, v)),
                    n_elim: p.statement(dep.target).depth(),
                    site: Site::Z(d, v.to_vec()),
                });
            }
        }
        out.analysis = Some(a);
        out
    }

    /// Oracle for the face enumeration against the basis enumeration it
    /// replaced, on every system the pipeline enumerates for the corpus
    /// ([`systems`]). For each, both vertex lists give the same vertex
    /// values at every integer point of a small parameter box, and the
    /// causality, storage and Problem 2 rows linearized over either list
    /// are equal as sets (the production rows, through `Analysis` and
    /// `eliminate_to_linear`, against the basis list's).
    #[test]
    fn faces_match_basis_enumeration() {
        use aov_schedule::{legal, linearize::eliminate_to_linear};
        let (mut statements, mut domains, mut zs, mut fewer) = (0, 0, 0, 0);
        for p in &corpus() {
            let s = systems(p);
            for e in &s.enumerations {
                let what = &e.what;
                let compared = assert_same_values(&e.system, e.n_elim, &s.param_domain, what);
                let a = || {
                    s.analysis
                        .as_ref()
                        .expect("dependences come from an analysis")
                };
                match &e.site {
                    Site::Statement => statements += 1,
                    Site::Dependence(d) => {
                        let (a, d) = (a(), *d);
                        let (p, space, dep) = (a.program(), a.space(), &a.deps()[d]);
                        let (new, old) = compared.expect("the analysis linearized this domain");
                        fewer += usize::from(new.len() < old.len());
                        domains += 1;
                        let causality = legal::causality_form(p, space, dep);
                        let rows: HashSet<(AffineExpr, bool)> = rows_over(&causality, &old);
                        let production: HashSet<AffineExpr> =
                            a.causality_rows()[d].iter().cloned().collect();
                        let reference: HashSet<AffineExpr> =
                            rows.into_iter().map(|(r, _)| r).collect();
                        assert_eq!(production, reference, "{what} causality rows");
                        let f0 = legal::difference_form(p, space, dep, &dep.h, 0).negated();
                        assert_eq!(rows_over(&f0, &new), rows_over(&f0, &old), "{what} storage");
                    }
                    Site::Z(d, v) => {
                        let Some((_, old)) = compared else { continue };
                        let a = a();
                        let (p, space, dep) = (a.program(), a.space(), &a.deps()[*d]);
                        let dim = e.n_elim + p.num_params();
                        let h_plus_v: Vec<AffineExpr> = dep
                            .h
                            .iter()
                            .zip(v)
                            .map(|(hk, &vk)| hk + &AffineExpr::constant(dim, vk.into()))
                            .collect();
                        let form = legal::difference_form(p, space, dep, &h_plus_v, 0).negated();
                        zs += 1;
                        let z = aov_core::storage::exact_z(p, dep, v);
                        let production: HashSet<AffineExpr> =
                            eliminate_to_linear(&form, &z, e.n_elim, p.param_domain())
                                .expect("same verdict as the reference")
                                .into_iter()
                                .collect();
                        let reference: HashSet<AffineExpr> =
                            rows_over(&form, &old).into_iter().map(|(r, _)| r).collect();
                        assert_eq!(production, reference, "{what} rows");
                    }
                }
            }
        }
        assert!(
            statements >= 450 && domains >= 700 && zs >= 350,
            "{statements} statement domains, {domains} dependence domains, {zs} Z compared"
        );
        assert!(fewer > 0, "no degenerate face met");
    }

    /// The integer DD of `rows` and the rational reference DD of
    /// `constraints` (the same rows) agree exactly: generators in order
    /// and every tight set.
    fn assert_same_dd(d: usize, constraints: &[Constraint], what: &str) {
        let rows: Vec<Row> = constraints.iter().map(int::of_constraint).collect();
        let rows: Vec<(&[BigInt], ConstraintKind)> = rows
            .iter()
            .map(|r| &r[..])
            .zip(constraints.iter().map(Constraint::kind))
            .collect();
        assert_eq!(
            dd::saturated(d, &rows),
            dd::reference::saturated(d, constraints),
            "{what}"
        );
    }

    /// Eliminates `dims` from `p` one dimension at a time, requiring the
    /// integer kernel's constraint list to equal the rational reference's
    /// after every step, and the one-call projection to equal the last.
    fn assert_same_projection(p: &Polyhedron, dims: &[usize], what: &str) {
        let mut sorted = dims.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.dedup();
        let mut cur = p.clone();
        for &k in &sorted {
            let next = cur.eliminate_dim(k);
            assert_eq!(
                next,
                crate::fm::reference::eliminate_dim(&cur, k),
                "{what} at {k}"
            );
            cur = next;
        }
        assert_eq!(p.eliminate_dims(dims), cur, "{what}");
    }

    /// The integer kernels against their rational references on every
    /// DD, FM projection and vertex enumeration the pipeline performs for
    /// the corpus ([`systems`]): generators with their tight sets (the
    /// standalone DDs, and each enumeration's recession-cone and lifted
    /// DDs), FM constraint lists after every step, the vertex lists
    /// (coordinates and domain generators, and each validity domain's
    /// constraint list through [`validity_domain`]), and the integer form
    /// layer over those vertices ([`assert_same_forms`]), all equal and in
    /// the same order.
    #[test]
    fn integer_kernels_match_rational_reference() {
        let (mut dds, mut steps, mut enumerations, mut linearized) = (0, 0, 0, 0);
        for p in &corpus() {
            let s = systems(p);
            for (what, poly) in &s.dds {
                assert_same_dd(poly.dim(), poly.constraints(), what);
                dds += 1;
            }
            for (what, poly, dims) in &s.projections {
                assert_same_projection(poly, dims, what);
                steps += dims.len();
            }
            for e in &s.enumerations {
                let (what, pd) = (&e.what, &s.param_domain);
                let rows = dedup_in_order(split_rows(&e.system));
                let qrows = dedup_in_order(rational::split_rows(&e.system, e.n_elim));
                let cone = rational::recession_cone(&qrows, e.n_elim);
                assert_eq!(
                    recession(&rows, e.n_elim),
                    dd::reference::saturated(e.n_elim, cone.constraints()),
                    "{what} recession cone"
                );
                if bounded(&rows, e.n_elim) {
                    let lifted = rational::lifted_constraints(&qrows, e.n_elim, pd);
                    assert_eq!(
                        lifted_dd(&rows, e.n_elim, pd),
                        dd::reference::saturated(e.system.dim(), &lifted),
                        "{what} lifted"
                    );
                    dds += 1;
                }
                let old = rational::parameterized_vertices(&e.system, e.n_elim, pd);
                let new = parameterized_vertices(&e.system, e.n_elim, pd);
                dds += 1;
                enumerations += 1;
                let (new, old) = match (new, old) {
                    (Ok(new), Ok(old)) => (new, old),
                    (new, old) => {
                        assert_eq!(new.err(), old.err(), "{what}");
                        continue;
                    }
                };
                let (old, domains): (Vec<ParamVertex>, Vec<Polyhedron>) = old.into_iter().unzip();
                assert_eq!(new, old, "{what}");
                for (v, domain) in new.iter().zip(&domains) {
                    let built = validity_domain(&e.system, e.n_elim, pd, v);
                    assert_eq!(&built, domain, "{what} validity domain");
                }
                if let Some(a) = &s.analysis {
                    linearized += assert_same_forms(a, &e.site, &old, what);
                }
            }
        }
        assert!(
            dds >= 3_000 && steps >= 10_000 && enumerations >= 1_500 && linearized >= 1_000,
            "{dds} DDs, {steps} FM steps, {enumerations} vertex enumerations, \
             {linearized} linearizations compared"
        );
    }

    /// The integer form layer against its rational reference
    /// ([`forms_reference`]) over the vertices `old` of one enumeration
    /// site: at a dependence domain, the causality rows of ℛ and the
    /// storage forms; at Problem 2's `Z`, the storage rows. All equal and
    /// in the same order. Returns the number of row lists compared.
    fn assert_same_forms(
        a: &aov_schedule::Analysis,
        site: &Site,
        old: &[ParamVertex],
        what: &str,
    ) -> usize {
        use aov_schedule::{legal, linearize::eliminate_to_linear};
        let (p, space) = (a.program(), a.space());
        match site {
            Site::Statement => 0,
            Site::Dependence(d) => {
                let dep = &a.deps()[*d];
                let causality = forms_reference::difference_form(p, space, dep, &dep.h, 1);
                let rows: Vec<AffineExpr> = forms_reference::linearize_at_vertices(&causality, old)
                    .into_iter()
                    .map(|(row, _)| row)
                    .collect();
                assert_eq!(a.causality_rows()[*d], rows, "{what} causality rows");
                let forms: Vec<Form> = a.storage_forms(*d).iter().map(Form::of).collect();
                let reference = forms_reference::storage_forms(p, space, dep, old);
                assert_eq!(forms, reference, "{what} storage forms");
                2
            }
            Site::Z(d, v) => {
                let dep = &a.deps()[*d];
                let depth = p.statement(dep.target).depth();
                let dim = depth + p.num_params();
                let h_plus_v: Vec<AffineExpr> = dep
                    .h
                    .iter()
                    .zip(v)
                    .map(|(hk, &vk)| hk + &AffineExpr::constant(dim, vk.into()))
                    .collect();
                let form = legal::difference_form(p, space, dep, &h_plus_v, 0).negated();
                let z = aov_core::storage::exact_z(p, dep, v);
                let rows = eliminate_to_linear(&form, &z, depth, p.param_domain())
                    .expect("same verdict as the reference");
                let reference = forms_reference::difference_form(p, space, dep, &h_plus_v, 0);
                let reference: Vec<AffineExpr> =
                    forms_reference::linearize_at_vertices(&reference.negated(), old)
                        .into_iter()
                        .map(|(row, _)| row)
                        .collect();
                assert_eq!(rows, reference, "{what} rows");
                1
            }
        }
    }

    /// Whether `q` needs heap limbs (numerator or denominator beyond
    /// `i64`).
    fn beyond_words(q: &Rational) -> bool {
        q.numer().to_i64().is_none() || q.denom().to_i64().is_none()
    }

    /// Rows with coefficients near 2^62 over `(i, j, n)`: the DD's
    /// combinations, the Bareiss determinant of two such rows (about
    /// 2^125) and the FM combinations leave `BigInt`'s inline range, and
    /// every kernel still equals its rational reference exactly.
    #[test]
    fn kernels_match_reference_beyond_machine_words() {
        let b = 1i64 << 62;
        let system = Polyhedron::from_constraints(
            3,
            vec![
                ge(&[1, 0, 0], 0),                      // i >= 0
                ge(&[0, 1, 0], 0),                      // j >= 0
                ge(&[-(b - 1), -(b - 3), 1], b - 5),    // (b-1)i + (b-3)j <= n + b - 5
                ge(&[b - 11, -(b - 17), 1], 7),         // (b-17)j <= (b-11)i + n + 7
                ge(&[-(b - 23), b - 29, 3], b / 2 - 1), // a third large cut
            ],
        );
        let params = Polyhedron::from_constraints(1, vec![ge(&[1], 0), ge(&[-1], b - 31)]);

        assert_same_dd(3, system.constraints(), "system");
        let gens = system.generators();
        assert!(
            gens.vertices.iter().flatten().any(beyond_words),
            "no DD vertex beyond machine words: {gens:?}"
        );

        for dims in [vec![0], vec![1], vec![0, 1], vec![1, 2], vec![0, 1, 2]] {
            assert_same_projection(&system, &dims, &format!("eliminating {dims:?}"));
        }
        let projected = system.eliminate_dim(0);
        assert!(
            projected
                .constraints()
                .iter()
                .flat_map(|c| c.expr().coeffs().iter().chain([c.expr().constant_term()]))
                .any(beyond_words),
            "no FM row beyond machine words: {projected:?}"
        );

        let rows = dedup_in_order(split_rows(&system));
        let basis = Basis::solve(&rows, &[2, 3], 2);
        assert!(basis.det.to_i64().is_none(), "determinant {:?}", basis.det);
        let vertices = with_domains(&system, 2, &params).unwrap();
        assert_eq!(
            vertices,
            rational::parameterized_vertices(&system, 2, &params).unwrap()
        );
        assert!(
            vertices.iter().flat_map(|(v, _)| v.coords()).any(|c| c
                .coeffs()
                .iter()
                .chain([c.constant_term()])
                .any(beyond_words)),
            "no vertex coordinate beyond machine words: {vertices:?}"
        );
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
