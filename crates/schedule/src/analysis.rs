//! The per-program analysis every schedule/storage problem shares.

use crate::linearize::{linearize_at_vertices, LinearRow, RowKind};
use crate::scheduler::{self, ScheduleError};
use crate::{legal, BilinearForm, Schedule, ScheduleSpace};
use aov_fault::Budget;
use aov_ir::{analysis, Dependence, Program};
use aov_linalg::{AffineExpr, QVector};
use aov_numeric::BigInt;
use aov_polyhedra::int::Generators;
use aov_polyhedra::param::{self, dedup_in_order, ParamVertex};
use aov_polyhedra::{PolyhedraError, Polyhedron};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Dependences, schedule space, the parameterized vertices of every
/// dependence domain, linearized causality rows (Eq. 11) and the
/// legal-schedule polyhedron ℛ of one program, computed once.
///
/// Problems 1–3 all work over these objects; building them is the
/// parameterized-vertex work of §4.4, so every stage of a solve borrows
/// one `Analysis` instead of rebuilding it. Any form over a dependence
/// domain — the causality form here, the storage forms of Problems 1
/// and 3 — is linearized over the same kept vertices
/// ([`Analysis::linearize`]). The storage forms and their activity per
/// sign orthant depend on the program alone; they are built on first use
/// and shared by both problems ([`Analysis::storage_forms`],
/// [`Analysis::active_in_orthant`], one DD per sign pattern on each
/// dependence's overwriter image). Problem 2 asks of the same
/// projections whether a concrete vector's overwriters exist
/// ([`Analysis::overwriter_exists`]). ℛ's generators
/// ([`Analysis::generators`]), which decide Theorem 1's "holds on all
/// of ℛ" ([`Analysis::holds_on_legal`]), and the scheduler's answer over
/// ℛ ([`Analysis::schedule`]) are also computed once, on first use.
///
/// # Examples
///
/// ```
/// use aov_ir::examples::example1;
/// use aov_schedule::Analysis;
///
/// let p = example1();
/// let a = Analysis::new(&p).expect("example1 linearizes");
/// // §5.1.1: three distinct causality rows, and ℛ is nonempty.
/// assert_eq!(a.rows().len(), 3);
/// assert!(!a.legal().is_empty());
/// ```
#[derive(Debug)]
pub struct Analysis<'p> {
    p: &'p Program,
    deps: Cow<'p, [Dependence]>,
    space: ScheduleSpace,
    vertices: Vec<Vec<ParamVertex>>,
    causality: Vec<Vec<AffineExpr>>,
    rows: Vec<AffineExpr>,
    legal: Polyhedron,
    /// ℛ's generators as integer rows, computed on first use.
    generators: OnceLock<Generators>,
    /// The scheduler's finished answer over ℛ alone, kept on first use.
    schedule: OnceLock<Result<Schedule, ScheduleError>>,
    /// Each dependence's storage forms, built on first use.
    storage_forms: OnceLock<Vec<Vec<BilinearForm>>>,
    /// Each dependence's [`legal::overwriter_image`], built on first use.
    images: OnceLock<Vec<Polyhedron>>,
    /// Each dependence's activity per sign pattern of its source array,
    /// in [`sign_patterns`] order, built on first use.
    activity: OnceLock<Vec<Vec<bool>>>,
}

impl<'p> Analysis<'p> {
    /// Computes the dependences of `p`, then the rest of the analysis.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyhedraError`] from domain-vertex elimination.
    pub fn new(p: &'p Program) -> Result<Self, PolyhedraError> {
        Self::build(p, Cow::Owned(analysis::dependences(p)))
    }

    /// The analysis over dependences the caller already computed (they
    /// must be `analysis::dependences(p)`).
    ///
    /// # Errors
    ///
    /// Propagates [`PolyhedraError`] from domain-vertex elimination.
    pub fn with_deps(p: &'p Program, deps: &'p [Dependence]) -> Result<Self, PolyhedraError> {
        Self::build(p, Cow::Borrowed(deps))
    }

    fn build(p: &'p Program, deps: Cow<'p, [Dependence]>) -> Result<Self, PolyhedraError> {
        let _span = aov_trace::span!("schedule.analysis", deps = deps.len());
        let space = ScheduleSpace::new(p);
        let mut vertices = Vec::with_capacity(deps.len());
        let mut causality = Vec::with_capacity(deps.len());
        // ℛ's rows: every dependence's rows in order, repeats dropped,
        // each also as its primitive constraint.
        let (mut seen, mut rows, mut legal_rows) = (HashSet::new(), Vec::new(), Vec::new());
        for dep in deps.iter() {
            let depth = p.statement(dep.target).depth();
            let dep_vertices = param::parameterized_vertices(&dep.domain, depth, p.param_domain())?;
            let form = legal::causality_form(p, &space, dep);
            let mut dep_rows = Vec::new();
            for (row, _) in linearize_at_vertices(&form, &dep_vertices) {
                let expr = row.to_affine();
                if seen.insert(row.clone()) {
                    legal_rows.push(row.to_constraint());
                    rows.push(expr.clone());
                }
                dep_rows.push(expr);
            }
            causality.push(dep_rows);
            vertices.push(dep_vertices);
        }
        let legal = Polyhedron::from_constraints(space.dim(), legal_rows);
        Ok(Analysis {
            p,
            deps,
            space,
            vertices,
            causality,
            rows,
            legal,
            generators: OnceLock::new(),
            schedule: OnceLock::new(),
            storage_forms: OnceLock::new(),
            images: OnceLock::new(),
            activity: OnceLock::new(),
        })
    }

    /// The analyzed program.
    pub fn program(&self) -> &'p Program {
        self.p
    }

    /// The program's dependences, in `analysis::dependences` order.
    pub fn deps(&self) -> &[Dependence] {
        &self.deps
    }

    /// The schedule space ℰ.
    pub fn space(&self) -> &ScheduleSpace {
        &self.space
    }

    /// Linearizes `form`, over dependence `dep`'s domain `(i, N)`, at that
    /// domain's parameterized vertices kept from construction: the rows
    /// of [`linearize::eliminate_to_linear`](crate::linearize::eliminate_to_linear)
    /// over `deps()[dep].domain`, tagged with their [`RowKind`], without
    /// enumerating the vertices again.
    ///
    /// # Panics
    ///
    /// Panics if `dep` is out of range or `form`'s domain is not the
    /// target statement's space.
    pub fn linearize(&self, dep: usize, form: &BilinearForm) -> Vec<(LinearRow, RowKind)> {
        linearize_at_vertices(form, &self.vertices[dep])
    }

    /// The storage forms of dependence `dep`: the form
    /// `Θ_T(h(i, N) + v) − Θ_R(i, N)` with `Z' = P` (the paper's practical
    /// recipe: conservative, exact for uniform self-dependences),
    /// linearized at the dependence domain's kept vertices, with the `v·Θ`
    /// coupling `Σ_k v_k · a_{T,k}` on point rows. The unknowns are the
    /// components of the source statement's array, in order; each form
    /// `G(v, Θ)` must be `>= 0` wherever the dependence is active
    /// ([`Analysis::active_in_orthant`]). Every dependence's forms are
    /// built on the first call.
    ///
    /// # Panics
    ///
    /// Panics if `dep` is out of range.
    pub fn storage_forms(&self, dep: usize) -> &[BilinearForm] {
        let forms = self.storage_forms.get_or_init(|| {
            (0..self.deps.len())
                .map(|d| self.build_storage_forms(d))
                .collect()
        });
        &forms[dep]
    }

    fn build_storage_forms(&self, dep: usize) -> Vec<BilinearForm> {
        let _span = aov_trace::span!("core.storage_forms_for_dep", dep = dep);
        let (p, space) = (self.p, &self.space);
        let d = &self.deps[dep];
        let source_depth = p.statement(d.source).depth();
        let cols = space.dim() + 1;
        // F0 = Θ_T(h(i), N) − Θ_R(i, N): slack 0, v added separately.
        let f0 = legal::difference_form(p, space, d, &d.h, 0).negated();
        let forms = self.linearize(dep, &f0).into_iter().map(|(row, kind)| {
            // Unknown k's row: Θ_T(h + v) − Θ_T(h) = Σ_k v_k · a_{T,k} on
            // point rows, over the row's denominator; the constant row is
            // the linearized row itself.
            let mut m = vec![BigInt::zero(); source_depth * cols];
            if kind == RowKind::Point {
                for k in 0..source_depth {
                    m[k * cols + 1 + space.iter_coeff(d.source, k)] = row.denominator().clone();
                }
            }
            m.extend_from_slice(row.numerators());
            BilinearForm::from_parts(m, row.denominator().clone(), source_depth, cols)
        });
        dedup_in_order(forms.collect())
    }

    /// Whether dependence `dep`'s storage constraint can be active for
    /// some occupancy vector in the sign orthant `pattern` of its source
    /// array (`+1`: `v_k >= 1`, `-1`: `v_k <= -1`, `0`: `v_k == 0`) and
    /// some parameters: whether the `h + v` overwriter or its mirror
    /// `h − v` exists there (storage classes `{x + kv}` contain both).
    /// A dependence inactive in an orthant contributes no storage
    /// constraint there (§5.3). Integer vectors fall in exactly one
    /// pattern, so the pruning is exact.
    ///
    /// The first call decides every dependence and pattern at once,
    /// without an LP: each dependence's [`legal::overwriter_image`]
    /// (projected once per run) is asked which orthants it meets
    /// ([`Polyhedron::meets_orthants`], one DD per pattern on integer
    /// rows). The mirror's image is its reflection.
    ///
    /// # Panics
    ///
    /// Panics if `dep` is out of range or `pattern` is not as long as the
    /// source array's dimension.
    pub fn active_in_orthant(&self, dep: usize, pattern: &[i8]) -> bool {
        let source_depth = self.p.statement(self.deps[dep].source).depth();
        assert_eq!(pattern.len(), source_depth, "orthant dimension");
        let table = self.activity.get_or_init(|| {
            self.overwriter_images()
                .iter()
                .map(activity_table)
                .collect()
        });
        table[dep][pattern_index(pattern)]
    }

    /// Whether dependence `dep`'s `h + v` overwriter exists for some
    /// iteration and parameters: whether the storage domain
    /// `Z(v) = {i ∈ P | h(i, N) + v ∈ D_T}` meets the parameter domain.
    /// It does exactly when `v` lies in the dependence's
    /// [`legal::overwriter_image`], a projection that is exact over ℚ, so
    /// membership gives the verdict of an emptiness LP over `Z(v)`. The
    /// mirror `h − v` overwriter exists iff `overwriter_exists(dep, −v)`.
    ///
    /// # Panics
    ///
    /// Panics if `dep` is out of range or `v` is not as long as the
    /// source array's dimension.
    pub fn overwriter_exists(&self, dep: usize, v: &[i64]) -> bool {
        self.overwriter_images()[dep].contains(&QVector::from_i64(v))
    }

    /// Every dependence's overwriter image, projected on the first call.
    fn overwriter_images(&self) -> &[Polyhedron] {
        self.images.get_or_init(|| {
            let _span = aov_trace::span!("schedule.overwriter_images", deps = self.deps.len());
            let p = self.p;
            self.deps
                .iter()
                .map(|d| legal::overwriter_image(p, d))
                .collect()
        })
    }

    /// Linearized causality rows of each dependence (parallel to
    /// [`Analysis::deps`]), each required `>= 0`.
    pub fn causality_rows(&self) -> &[Vec<AffineExpr>] {
        &self.causality
    }

    /// The causality constraints of Eq. 11: every dependence's rows in
    /// dependence order, duplicates dropped.
    pub fn rows(&self) -> &[AffineExpr] {
        &self.rows
    }

    /// The polyhedron ℛ of legal one-dimensional affine schedules.
    pub fn legal(&self) -> &Polyhedron {
        &self.legal
    }

    /// ℛ's vertices, rays and lines as primitive homogenized integer
    /// rows ([`Polyhedron::generator_rows`]), from one DD on the first
    /// call. ℛ is empty exactly when there is no vertex.
    pub fn generators(&self) -> &Generators {
        self.generators.get_or_init(|| self.legal.generator_rows())
    }

    /// Whether every row `r >= 0` holds on all of ℛ, decided exactly at
    /// ℛ's [`generators`](Analysis::generators) without an LP (Theorem 1,
    /// [`Generators::implies_nonneg`]). Holds vacuously when ℛ is empty.
    ///
    /// # Panics
    ///
    /// Panics if a row's dimension is not the schedule space's.
    pub fn holds_on_legal(&self, rows: &[AffineExpr]) -> bool {
        let gens = self.generators();
        rows.iter().all(|r| {
            assert_eq!(r.dim(), self.space.dim(), "row dimension");
            gens.implies_nonneg(r)
        })
    }

    /// The scheduler's answer over ℛ with no extra rows
    /// ([`scheduler::find_schedule_with_budgeted`] with none), solved
    /// on the first call and shared by every later one. Only a finished
    /// answer — a schedule, or [`ScheduleError::Infeasible`] — is kept: a
    /// budget trip or an injected fault keeps nothing, so a later call
    /// solves again under its own budget.
    ///
    /// # Errors
    ///
    /// As for [`scheduler::find_schedule_with_budgeted`].
    pub fn schedule(&self, budget: &Budget) -> Result<Schedule, ScheduleError> {
        if let Some(done) = self.schedule.get() {
            return done.clone();
        }
        let outcome = scheduler::find_schedule_with_budgeted(self, &[], budget);
        if !matches!(outcome, Err(ScheduleError::Fault(_))) {
            // A concurrent caller may have kept the same answer first.
            let _ = self.schedule.set(outcome.clone());
        }
        outcome
    }

    /// Exact legality check of a concrete schedule: every dependence's
    /// causality form must be nonnegative over its domain (jointly with
    /// the parameter domain). ℛ's rows are those forms linearized exactly
    /// at the domains' parameterized vertices (Theorem 1), so membership
    /// of the schedule's point in ℛ decides it without an LP.
    pub fn is_legal(&self, sched: &Schedule) -> bool {
        self.legal
            .contains(&legal::point_of(self.p, &self.space, sched))
    }
}

/// A sign assumption per occupancy-vector component: `+1` for
/// `v_k >= 1`, `-1` for `v_k <= -1`, `0` for `v_k == 0`. Integer vectors
/// fall in exactly one pattern, which makes the paper's "Z empty for
/// positive components" pruning (§5.3) exact.
pub type Orthant = Vec<i8>;

/// All `3^dim` sign patterns, lexicographic over the digits `+1, 0, −1`.
pub fn sign_patterns(dim: usize) -> Vec<Orthant> {
    let mut out = vec![Vec::with_capacity(dim)];
    for _ in 0..dim {
        let mut next = Vec::with_capacity(out.len() * 3);
        for pat in &out {
            for s in [1i8, 0, -1] {
                let mut p = pat.clone();
                p.push(s);
                next.push(p);
            }
        }
        out = next;
    }
    out
}

/// The position of `pattern` in [`sign_patterns`]`(pattern.len())`.
fn pattern_index(pattern: &[i8]) -> usize {
    pattern
        .iter()
        .fold(0, |acc, &s| 3 * acc + (1 - s.signum()) as usize)
}

/// One dependence's activity per sign pattern of its source array, in
/// [`sign_patterns`] order, from its overwriter image over the array's
/// `d_v` dimensions (see [`Analysis::active_in_orthant`]). The mirror
/// `h − v`'s image is the reflection `v ↦ −v` of the `h + v`
/// overwriter's, so a pattern is active iff that one image meets its
/// orthant or the reflected one. Reflection maps pattern index `i` to
/// `3^d − 1 − i`: it swaps the digits `+1` and `−1`.
fn activity_table(image: &Polyhedron) -> Vec<bool> {
    let _span = aov_trace::span!("schedule.activity", depth = image.dim());
    let meets = image.meets_orthants(&sign_patterns(image.dim()));
    let last = meets.len() - 1;
    (0..meets.len())
        .map(|i| meets[i] || meets[last - i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_pattern_enumeration() {
        assert_eq!(sign_patterns(2).len(), 9);
        assert_eq!(sign_patterns(0).len(), 1);
        assert!(sign_patterns(3).iter().any(|o| o == &vec![1, 0, -1]));
        // No duplicates.
        let mut pats = sign_patterns(3);
        let n = pats.len();
        pats.sort();
        pats.dedup();
        assert_eq!(pats.len(), n);
    }

    /// The certificate accepts ℛ's own rows and rejects a row that cuts
    /// ℛ: on example1, each causality row holds on ℛ, and no row
    /// `−r − 1` does.
    #[test]
    fn causality_rows_hold_on_legal_and_their_negations_do_not() {
        let p = aov_ir::examples::example1();
        let a = Analysis::new(&p).unwrap();
        assert!(a.holds_on_legal(a.rows()));
        let minus_one = aov_numeric::Rational::from(-1);
        for r in a.rows() {
            let cut = r.scale(&minus_one).plus_constant(&minus_one);
            assert!(!a.holds_on_legal(&[cut]), "{r:?}");
        }
    }

    /// An empty ℛ can still have rays and lines (the DD's `λ = 0`
    /// generators: the unschedulable example has one ray and three
    /// lines), yet every row holds on it vacuously.
    #[test]
    fn every_row_holds_on_an_empty_legal_polyhedron() {
        let p = aov_ir::examples::unschedulable();
        let a = Analysis::new(&p).unwrap();
        assert!(a.generators().is_empty() && !a.generators().lines.is_empty());
        let dim = a.space().dim();
        for k in 0..dim {
            let e = AffineExpr::var(dim, k);
            assert!(a.holds_on_legal(&[e.clone(), -&e]), "{k}");
        }
    }

    #[test]
    fn pattern_index_is_the_enumeration_order() {
        for dim in 0..=3 {
            let patterns = sign_patterns(dim);
            for (i, pattern) in patterns.iter().enumerate() {
                assert_eq!(pattern_index(pattern), i);
                let mirror: Orthant = pattern.iter().map(|&s| -s).collect();
                assert_eq!(pattern_index(&mirror), patterns.len() - 1 - i);
            }
        }
    }
}
