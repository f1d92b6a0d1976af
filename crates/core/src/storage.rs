//! Storage-constraint generation (Eq. 3 and its linearization, Eq. 10).
//!
//! For a dependence `P = (R, T, h, P)` on array `A = A(T)` with occupancy
//! vector `v_A`, the value read by `R(i)` is overwritten by
//! `T(h(i, N) + v_A)`, so any schedule must satisfy
//!
//! `Θ_T(h(i, N) + v_A, N) − Θ_R(i, N) >= 0` for all
//! `i ∈ Z = {i ∈ P | h(i, N) + v_A ∈ D_T}`.
//!
//! [`storage_rows_concrete`] gives the rows for a known `v` over the exact
//! `Z`, for the validity checkers and for Problem 2 when the storage forms
//! fail its certificate. The forms themselves, for unknown `v` over the
//! paper's conservative `Z' = P` with exact activity pruning per sign
//! orthant (§5.3), are the [`Analysis`]'s ([`Analysis::storage_forms`],
//! [`Analysis::active_in_orthant`]), shared by Problems 1–3.

use aov_ir::{Dependence, Program};
use aov_linalg::{AffineExpr, QVector};
use aov_polyhedra::param::dedup_in_order;
use aov_polyhedra::{Constraint, PolyhedraError, Polyhedron};
use aov_schedule::linearize::eliminate_to_linear;
use aov_schedule::{legal, Analysis, ScheduleSpace};

/// The exact domain `Z` of a storage constraint for a concrete `v`:
/// `dep.domain ∩ {i | h(i, N) + v ∈ D_T}`, over the target space.
///
/// Note the sign subtlety: the storage mapping identifies `A[x]` with
/// `A[x + kv]` for *every* integer `k`, so `v` and `-v` induce the same
/// storage. Callers deciding legality must therefore also consider the
/// mirror region `exact_z(p, dep, -v)` (the `h - v` overwriter): on a
/// bounded domain the `h + v` point can fall outside `D_T` while the
/// `h - v` write exists, and a schedule with `a_T·v < 0` then clobbers
/// the live value from the mirror side. Whenever the mirror region is
/// nonempty, the single guard row `a_T·v >= 1` ([`mirror_guard_row`])
/// restores soundness: for affine `Θ`, `Θ_T(h+v) − Θ_T(h) = a_T·v`, so
/// the guard makes every `k <= -1` class member write *strictly before*
/// the value's own write (harmless — the value overwrites it), while
/// `k >= 2` overwriters are covered by the `k = 1` rows plus convexity
/// of `D_T` (`h + v` is the integral midpoint of `h` and `h + 2v`).
pub fn exact_z(p: &Program, dep: &Dependence, v: &[i64]) -> Polyhedron {
    let r = p.statement(dep.target);
    let t = p.statement(dep.source);
    let dim = r.depth() + p.num_params();
    assert_eq!(v.len(), t.depth(), "occupancy vector dimension");
    // Substitution source_iter_k -> h_k + v_k, param_j -> param_j.
    let mut subs: Vec<AffineExpr> = dep
        .h
        .iter()
        .zip(v)
        .map(|(hk, &vk)| hk.clone().plus_constant(&vk.into()))
        .collect();
    for j in 0..p.num_params() {
        subs.push(AffineExpr::var(dim, r.depth() + j));
    }
    let mut z = dep.domain.clone();
    for c in t.domain().constraints() {
        let e = c.expr().substitute(&subs);
        z.add_constraint(if c.is_equality() {
            Constraint::eq0(e)
        } else {
            Constraint::ge0(e)
        });
    }
    z
}

/// Linearized storage rows for concrete occupancy vectors over the exact
/// `Z(v)`: affine forms over the schedule space of `a`, each required
/// `>= 0` (the instantiated Eq. 10). Problem 2 builds them only when the
/// storage forms at `v` fail its certificate: they cost one vertex
/// enumeration per dependence whose `h + v` overwriter exists.
///
/// `vectors[a]` is the vector of array `a` (one per program array, in
/// array order). Whether a dependence's `Z(v)`, or its mirror `Z(−v)`,
/// is empty for every parameter value is read off the analysis's
/// overwriter images ([`Analysis::overwriter_exists`]), not an LP.
///
/// # Errors
///
/// Propagates [`PolyhedraError`] from vertex elimination.
pub fn storage_rows_concrete(
    a: &Analysis,
    vectors: &[crate::OccupancyVector],
) -> Result<Vec<AffineExpr>, PolyhedraError> {
    let (p, space) = (a.program(), a.space());
    assert_eq!(vectors.len(), p.arrays().len(), "one vector per array");
    let mut out: Vec<AffineExpr> = Vec::new();
    for (didx, dep) in a.deps().iter().enumerate() {
        let _span = aov_trace::span!("p2.storage_dep", dep = didx);
        let t = p.statement(dep.source);
        let v = vectors[t.writes().0].components();
        let r = p.statement(dep.target);
        // Skip constraints whose Z is empty for every parameter value.
        if a.overwriter_exists(didx, v) {
            let z = exact_z(p, dep, v);
            let h_plus_v: Vec<AffineExpr> = dep
                .h
                .iter()
                .zip(v)
                .map(|(hk, &vk)| hk.clone().plus_constant(&vk.into()))
                .collect();
            let form = legal::difference_form(p, space, dep, &h_plus_v, 0).negated();
            out.extend(eliminate_to_linear(&form, &z, r.depth(), p.param_domain())?);
        }
        // Storage classes {x + kv} are sign-symmetric: wherever the
        // mirror overwriter h - v exists, guard with a_T·v >= 1 (see
        // `exact_z`).
        let neg_v: Vec<i64> = v.iter().map(|&c| -c).collect();
        if a.overwriter_exists(didx, &neg_v) {
            out.push(mirror_guard_row(space, dep, v));
        }
    }
    Ok(dedup_in_order(out))
}

/// The mirror-overwriter guard `a_T·v - 1 >= 0` as a row over the
/// schedule space, for the writer statement of `dep` (see `exact_z`).
pub fn mirror_guard_row(space: &ScheduleSpace, dep: &Dependence, v: &[i64]) -> AffineExpr {
    let mut coeffs = QVector::zeros(space.dim());
    for (k, &vk) in v.iter().enumerate() {
        coeffs[space.iter_coeff(dep.source, k)] += &vk.into();
    }
    AffineExpr::from_parts(coeffs, (-1i64).into())
}

/// Test oracle of `Analysis::active_in_orthant`: whether a
/// dependence's storage constraint can be active for *some* occupancy
/// vector in the given orthant (and some parameters), by one emptiness
/// LP per direction: the joint polyhedron over `(i, N, v_A)` is nonempty
/// for the `h + v` overwriter *or* its sign-symmetric mirror `h - v`
/// (storage classes `{x + kv}` contain both, see `exact_z`).
#[cfg(test)]
pub(crate) fn dependence_active_in_orthant(
    p: &Program,
    dep: &Dependence,
    orthant_for_array: &[i8],
) -> bool {
    overwriter_reachable(p, dep, orthant_for_array, 1)
        || overwriter_reachable(p, dep, orthant_for_array, -1)
}

/// One direction of the activity test: the joint `(i, N, v_A)`
/// polyhedron with `D_T` imposed at `h(i, N) + sign·v` is nonempty.
#[cfg(test)]
fn overwriter_reachable(
    p: &Program,
    dep: &Dependence,
    orthant_for_array: &[i8],
    sign: i64,
) -> bool {
    let r = p.statement(dep.target);
    let t = p.statement(dep.source);
    let d_i = r.depth();
    let np = p.num_params();
    let d_v = t.depth();
    assert_eq!(orthant_for_array.len(), d_v, "orthant slice dimension");
    let dim = d_i + np + d_v;
    let mut cs: Vec<Constraint> = Vec::new();
    // dep.domain over (i, N) embedded.
    let embed_in: Vec<usize> = (0..d_i + np).collect();
    for c in dep.domain.constraints() {
        let e = c.expr().embed(dim, &embed_in);
        cs.push(if c.is_equality() {
            Constraint::eq0(e)
        } else {
            Constraint::ge0(e)
        });
    }
    // D_T at h(i, N) + sign·v.
    let mut subs: Vec<AffineExpr> = Vec::with_capacity(d_v + np);
    for (k, hk) in dep.h.iter().enumerate() {
        let mut e = hk.embed(dim, &embed_in);
        e = &e + &AffineExpr::var(dim, d_i + np + k).scale(&sign.into());
        subs.push(e);
    }
    for j in 0..np {
        subs.push(AffineExpr::var(dim, d_i + j));
    }
    for c in t.domain().constraints() {
        let e = c.expr().substitute(&subs);
        cs.push(if c.is_equality() {
            Constraint::eq0(e)
        } else {
            Constraint::ge0(e)
        });
    }
    // Parameter domain.
    let embed_params: Vec<usize> = (d_i..d_i + np).collect();
    for c in p.param_domain().constraints() {
        cs.push(Constraint::ge0(c.expr().embed(dim, &embed_params)));
    }
    // Sign pattern on v: v_k >= 1, v_k <= -1, or v_k == 0.
    for (k, &s) in orthant_for_array.iter().enumerate() {
        let var = AffineExpr::var(dim, d_i + np + k);
        if s == 0 {
            cs.push(Constraint::eq0(var));
        } else {
            let e = &var.scale(&i64::from(s).into()) - &AffineExpr::constant(dim, 1.into());
            cs.push(Constraint::ge0(e));
        }
    }
    !crate::check::lp_model(&Polyhedron::from_constraints(dim, cs)).is_infeasible()
}

/// Test oracles: the storage forms linearized anew from each dependence
/// domain, over the joint occupancy-vector space of every array — the
/// path before [`Analysis`] kept the domain vertices — and Problem 2's
/// rows with each overwriter decided by an emptiness LP.
#[cfg(test)]
pub(crate) mod reference {
    use super::{exact_z, mirror_guard_row};
    use crate::check::lp_model;
    use crate::OvSpace;
    use aov_ir::{Dependence, Program};
    use aov_linalg::AffineExpr;
    use aov_polyhedra::param::dedup_in_order;
    use aov_polyhedra::{param, PolyhedraError};
    use aov_schedule::linearize::{eliminate_to_linear, linearize_at_vertices, RowKind};
    use aov_schedule::{legal, BilinearForm, ScheduleSpace};

    /// [`super::storage_rows_concrete`] as it was before the overwriter
    /// images: `Z(v)` and the mirror `Z(−v)` tested by emptiness LPs.
    pub fn storage_rows_concrete(
        p: &Program,
        space: &ScheduleSpace,
        deps: &[Dependence],
        vectors: &[crate::OccupancyVector],
    ) -> Result<Vec<AffineExpr>, PolyhedraError> {
        let mut out: Vec<AffineExpr> = Vec::new();
        for dep in deps {
            let t = p.statement(dep.source);
            let v = &vectors[t.writes().0];
            let r = p.statement(dep.target);
            let dim = r.depth() + p.num_params();
            let z = exact_z(p, dep, v.components());
            if !lp_model(&z.intersect(&p.embed_param_domain(r.depth()))).is_infeasible() {
                let h_plus_v: Vec<AffineExpr> = dep
                    .h
                    .iter()
                    .zip(v.components())
                    .map(|(hk, &vk)| hk + &AffineExpr::constant(dim, vk.into()))
                    .collect();
                let form = legal::difference_form(p, space, dep, &h_plus_v, 0).negated();
                out.extend(eliminate_to_linear(&form, &z, r.depth(), p.param_domain())?);
            }
            let neg_v: Vec<i64> = v.components().iter().map(|&c| -c).collect();
            let z_minus = exact_z(p, dep, &neg_v);
            if !lp_model(&z_minus.intersect(&p.embed_param_domain(r.depth()))).is_infeasible() {
                out.push(mirror_guard_row(space, dep, v.components()));
            }
        }
        Ok(dedup_in_order(out))
    }

    /// The symbolic storage forms of `dep` over the joint space `ov_space`.
    pub fn storage_forms_for_dep(
        p: &Program,
        space: &ScheduleSpace,
        ov_space: &OvSpace,
        dep: &Dependence,
    ) -> Result<Vec<BilinearForm>, PolyhedraError> {
        let t = p.statement(dep.source);
        let array = t.writes();
        let r = p.statement(dep.target);
        // F0 = Θ_T(h(i), N) − Θ_R(i, N): slack 0, v added separately.
        let f0 = legal::difference_form(p, space, dep, &dep.h, 0).negated();
        let vertices = param::parameterized_vertices(&dep.domain, r.depth(), p.param_domain())?;
        let tagged = linearize_at_vertices(&f0, &vertices);
        let mut out = Vec::with_capacity(tagged.len());
        for (row, kind) in tagged {
            let mut coeffs = vec![AffineExpr::zero(space.dim()); ov_space.dim()];
            if kind == RowKind::Point {
                // Θ_T(h + v) − Θ_T(h) = Σ_k v_k · a_{T,k}.
                for k in 0..t.depth() {
                    coeffs[ov_space.component(array, k)] =
                        AffineExpr::var(space.dim(), space.iter_coeff(dep.source, k));
                }
            }
            let bf = BilinearForm::new(coeffs, row.to_affine());
            if !out.contains(&bf) {
                out.push(bf);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OccupancyVector, OvSpace};
    use aov_ir::{analysis, examples::example1, examples::example3, StmtId};
    use aov_linalg::QVector;
    use aov_schedule::{sign_patterns, Analysis, BilinearForm};

    /// Example 1's storage forms in the orthant `v >= (1, 1)`, over the
    /// dependences active there, duplicates dropped.
    fn example1_forms_in_positive_orthant(a: &Analysis) -> Vec<BilinearForm> {
        let forms = (0..a.deps().len())
            .filter(|&d| a.active_in_orthant(d, &[1, 1]))
            .flat_map(|d| a.storage_forms(d).to_vec())
            .collect();
        dedup_in_order(forms)
    }

    /// §5.1.1: Example 1's linearized storage constraints for unknown v
    /// are a·v_i + b·v_j − 2a − b, a·v_i + b·v_j − b, a·v_i + b·v_j + a − b.
    #[test]
    fn example1_symbolic_storage_matches_paper() {
        let p = example1();
        let a = Analysis::new(&p).unwrap();
        let space = a.space();
        let forms = example1_forms_in_positive_orthant(&a);
        assert_eq!(forms.len(), 3, "one row per uniform dependence");
        let ai = space.iter_coeff(StmtId(0), 0);
        let aj = space.iter_coeff(StmtId(0), 1);
        // Each form: coeff of v_i = a, coeff of v_j = b; constant part is
        // −2a−b / −b / a−b.
        let mut consts: Vec<(i64, i64)> = Vec::new();
        for f in &forms {
            assert_eq!(
                f.coeff(0),
                AffineExpr::var(space.dim(), ai),
                "coeff of v_i is a"
            );
            assert_eq!(
                f.coeff(1),
                AffineExpr::var(space.dim(), aj),
                "coeff of v_j is b"
            );
            let c = f.constant();
            for (k, cf) in c.coeffs().iter().enumerate() {
                assert!(k == ai || k == aj || cf.is_zero(), "stray coefficient");
            }
            consts.push((c.coeff(ai).to_i64().unwrap(), c.coeff(aj).to_i64().unwrap()));
        }
        consts.sort_unstable();
        assert_eq!(consts, vec![(-2, -1), (0, -1), (1, -1)]);
    }

    /// §5.1.2: substituting Θ = j and v = (0, 1) satisfies all rows;
    /// v = (0, 0) does not.
    #[test]
    fn example1_rows_at_row_schedule() {
        let p = example1();
        let a = Analysis::new(&p).unwrap();
        let space = a.space();
        let forms = example1_forms_in_positive_orthant(&a);
        // Θ = j: a = 0, b = 1, rest 0.
        let mut theta = QVector::zeros(space.dim());
        theta[space.iter_coeff(StmtId(0), 1)] = 1.into();
        for f in &forms {
            let over_v = f.at_point(&theta);
            assert!(!over_v.eval(&QVector::from_i64(&[0, 1])).is_negative());
            assert!(!over_v.eval(&QVector::from_i64(&[0, 2])).is_negative());
            let _ = over_v;
        }
        // v = (0,0) violates every row (b·0 − b < 0 for the (0,-1) row).
        let violated = forms.iter().any(|f| {
            f.at_point(&theta)
                .eval(&QVector::from_i64(&[0, 0]))
                .is_negative()
        });
        assert!(violated);
    }

    /// §5.3: for Example 3, the S2-on-boundary storage constraints have
    /// empty Z in the positive orthant and must be pruned — in the
    /// analysis's activity table and by the per-pattern LP oracle.
    #[test]
    fn example3_boundary_constraints_pruned_in_positive_orthant() {
        let p = example3();
        let a = Analysis::new(&p).unwrap();
        let active = |d: usize, pattern: &[i8]| {
            let table = a.active_in_orthant(d, pattern);
            assert_eq!(
                table,
                dependence_active_in_orthant(&p, &a.deps()[d], pattern)
            );
            table
        };
        let s2 = p.stmt_by_name("S2").unwrap();
        let pos = vec![1i8, 1, 1]; // v >= (1,1,1) componentwise
        let with_zero = vec![0i8, 1, 1]; // v_i == 0
        for (d, dep) in a.deps().iter().enumerate() {
            if dep.source == s2 {
                assert!(active(d, &pos), "interior deps stay active");
            } else {
                // Boundary writers: h + v can land back on the boundary
                // plane only if the plane's v component is nonpositive.
                assert!(
                    !active(d, &pos),
                    "boundary storage constraint must be pruned for v >= 1"
                );
            }
        }
        // With v_i pinned to 0, the i == 1 boundary writer becomes
        // reachable again for reads with offset o_i == -1… from i == 2:
        // h_i + v_i = 2 - 1 + 0 = 1.
        let s1a = p.stmt_by_name("S1a").unwrap();
        assert!((0..a.deps().len())
            .filter(|&d| a.deps()[d].source == s1a)
            .any(|d| active(d, &with_zero)));
    }

    /// Oracle for the activity table: on ex1–4 and every corpus program,
    /// each dependence's activity in each sign pattern of its source
    /// array, the all-zero one included, is the verdict of the emptiness
    /// LPs over the joint `(i, N, v)` polyhedron. The projected images
    /// stay small: their largest row count is pinned.
    #[test]
    fn activity_table_matches_emptiness_lps() {
        let (mut pairs, mut active, mut max_rows) = (0, 0, 0);
        for p in crate::oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            for (didx, dep) in a.deps().iter().enumerate() {
                let image = legal::overwriter_image(&p, dep);
                max_rows = max_rows.max(image.constraints().len());
                for pattern in sign_patterns(p.statement(dep.source).depth()) {
                    let table = a.active_in_orthant(didx, &pattern);
                    let oracle = dependence_active_in_orthant(&p, dep, &pattern);
                    assert_eq!(table, oracle, "{} dep {didx} {pattern:?}", p.name());
                    pairs += 1;
                    active += usize::from(table);
                }
            }
        }
        assert_eq!(max_rows, 8, "largest projected image");
        assert!(
            pairs >= 4_800 && active > 0 && active < pairs,
            "{pairs} pairs, {active} active"
        );
    }

    /// Oracle for Problem 2's overwriter tests: on ex1–4 and every corpus
    /// program, for every dependence, membership in the overwriter image
    /// gives the verdict of the emptiness LP over `Z(w) ∩` parameter
    /// domain, at the program's AOV, its negation and every `w` in
    /// `[-2, 2]^d`.
    #[test]
    fn overwriter_membership_matches_emptiness_lps() {
        let (mut checked, mut reachable) = (0, 0);
        for p in crate::oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let aov = crate::problems::aov_with(&p, 1).ok();
            for (didx, dep) in a.deps().iter().enumerate() {
                let t = p.statement(dep.source);
                let r = p.statement(dep.target);
                let mut vectors: Vec<Vec<i64>> = vec![Vec::new()];
                for _ in 0..t.depth() {
                    vectors = vectors
                        .into_iter()
                        .flat_map(|w| {
                            (-2..=2).map(move |x| {
                                let mut w = w.clone();
                                w.push(x);
                                w
                            })
                        })
                        .collect();
                }
                if let Some(aov) = &aov {
                    let v = aov.vectors()[t.writes().0].components();
                    vectors.push(v.to_vec());
                    vectors.push(v.iter().map(|&c| -c).collect());
                }
                for w in vectors {
                    let z = exact_z(&p, dep, &w);
                    let region = z.intersect(&p.embed_param_domain(r.depth()));
                    let lp = !crate::check::lp_model(&region).is_infeasible();
                    assert_eq!(
                        a.overwriter_exists(didx, &w),
                        lp,
                        "{} dep {didx} at {w:?}",
                        p.name()
                    );
                    checked += 1;
                    reachable += usize::from(lp);
                }
            }
        }
        assert!(
            checked >= 14_000 && reachable > 0 && reachable < checked,
            "{checked} vectors, {reachable} with an overwriter"
        );
    }

    /// Oracle for Problem 2's rows: on ex1–4 and every corpus program,
    /// at its AOV and at the AOV's negation, the rows equal, in order,
    /// the rows whose overwriters are decided by emptiness LPs.
    #[test]
    fn concrete_rows_match_emptiness_lp_path() {
        let mut compared = 0;
        for p in crate::oracle_corpus() {
            let Ok(aov) = crate::problems::aov_with(&p, 1) else {
                continue;
            };
            let a = Analysis::new(&p).unwrap();
            let negated: Vec<OccupancyVector> = aov
                .vectors()
                .iter()
                .map(|v| OccupancyVector::new(v.components().iter().map(|&c| -c).collect()))
                .collect();
            for vectors in [aov.vectors(), &negated[..]] {
                let lp = reference::storage_rows_concrete(&p, a.space(), a.deps(), vectors);
                assert_eq!(
                    storage_rows_concrete(&a, vectors),
                    lp,
                    "{} at {vectors:?}",
                    p.name()
                );
                compared += 1;
            }
        }
        assert!(compared >= 390, "{compared} row sets compared");
    }

    #[test]
    fn exact_z_clips_by_producer_domain() {
        let p = example1();
        let deps = analysis::dependences(&p);
        // Dependence via A[i-2][j-1] with v = (0,1): overwrite point is
        // (i-2, j): in-domain for i >= 3. Z also requires i <= n etc.
        let dep = deps
            .iter()
            .find(|d| d.uniform_distance() == Some(vec![2, 1]))
            .unwrap();
        let z = exact_z(&p, dep, &[0, 1]);
        // (i, j, n, m) = (3, 2, 5, 5) ∈ Z; (2, 2, 5, 5) has h+v = (0, 2)
        // outside A's data space → excluded by Z.
        assert!(z.contains(&QVector::from_i64(&[3, 2, 5, 5])));
        assert!(!z.contains(&QVector::from_i64(&[2, 2, 5, 5])));
    }

    #[test]
    fn concrete_rows_for_valid_vector_are_satisfiable() {
        let p = example1();
        let a = Analysis::new(&p).unwrap();
        let space = a.space();
        let rows = storage_rows_concrete(&a, &[OccupancyVector::new(vec![1, 2])]).unwrap();
        assert!(!rows.is_empty());
        // Θ = j satisfies all rows for v = (1,2): a·1 + b·2 − … ≥ 0 with
        // a=0, b=1: 2 − 1 = 1 >= 0 etc.
        let mut theta = QVector::zeros(space.dim());
        theta[space.iter_coeff(StmtId(0), 1)] = 1.into();
        for r in &rows {
            assert!(!r.eval(&theta).is_negative(), "row {r:?} violated");
        }
    }

    /// Oracle for linearizing each dependence domain once: on every
    /// corpus program, each dependence's forms over the analysis's kept
    /// vertices, placed in the joint occupancy-vector space, are the forms
    /// a fresh linearization of its domain gives, in the same order.
    #[test]
    fn storage_forms_match_fresh_linearization() {
        let (mut programs, mut deps) = (0, 0);
        for p in crate::oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let ov = OvSpace::new(&p);
            for (didx, dep) in a.deps().iter().enumerate() {
                let array = p.statement(dep.source).writes();
                let joint: Vec<BilinearForm> = a
                    .storage_forms(didx)
                    .iter()
                    .map(|f| {
                        let mut coeffs = vec![AffineExpr::zero(a.space().dim()); ov.dim()];
                        for k in 0..f.num_unknowns() {
                            coeffs[ov.component(array, k)] = f.coeff(k);
                        }
                        BilinearForm::new(coeffs, f.constant())
                    })
                    .collect();
                let fresh = reference::storage_forms_for_dep(&p, a.space(), &ov, dep).unwrap();
                assert_eq!(joint, fresh, "{} dependence {didx}", p.name());
                deps += 1;
            }
            programs += 1;
        }
        assert!(
            programs >= 300 && deps >= 600,
            "{programs} programs, {deps} deps"
        );
    }
}
