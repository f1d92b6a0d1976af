//! The per-program analysis every schedule/storage problem shares.

use crate::linearize::{linearize_at_vertices, RowKind};
use crate::{legal, BilinearForm, Schedule, ScheduleSpace};
use aov_ir::{analysis, Dependence, Program};
use aov_linalg::AffineExpr;
use aov_polyhedra::param::{self, dedup_in_order, ParamVertex};
use aov_polyhedra::{Constraint, PolyhedraError, Polyhedron};
use std::borrow::Cow;

/// Dependences, schedule space, the parameterized vertices of every
/// dependence domain, linearized causality rows (Eq. 11) and the
/// legal-schedule polyhedron ℛ of one program, computed once.
///
/// Problems 1–3 all work over these objects; building them is the
/// parameterized-vertex work of §4.4, so every stage of a solve borrows
/// one `Analysis` instead of rebuilding it. Any form over a dependence
/// domain — the causality form here, the storage forms of Problems 1
/// and 3 — is linearized over the same kept vertices
/// ([`Analysis::linearize`]).
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
        for dep in deps.iter() {
            let depth = p.statement(dep.target).depth();
            let dep_vertices = param::parameterized_vertices(&dep.domain, depth, p.param_domain())?;
            let form = legal::causality_form(p, &space, dep);
            let dep_rows: Vec<AffineExpr> = linearize_at_vertices(&form, &dep_vertices)
                .into_iter()
                .map(|(row, _)| row)
                .collect();
            causality.push(dep_rows);
            vertices.push(dep_vertices);
        }
        let rows = dedup_in_order(causality.iter().flatten().cloned().collect());
        let legal = Polyhedron::from_constraints(
            space.dim(),
            rows.iter().cloned().map(Constraint::ge0).collect(),
        );
        Ok(Analysis {
            p,
            deps,
            space,
            vertices,
            causality,
            rows,
            legal,
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
    pub fn linearize(&self, dep: usize, form: &BilinearForm) -> Vec<(AffineExpr, RowKind)> {
        linearize_at_vertices(form, &self.vertices[dep])
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

    /// Exact legality check of a concrete schedule: every dependence's
    /// causality form must be nonnegative over its domain (jointly with
    /// the parameter domain).
    pub fn is_legal(&self, sched: &Schedule) -> bool {
        let p = self.p;
        let point = legal::point_of(p, &self.space, sched);
        self.deps.iter().all(|dep| {
            let form = legal::causality_form(p, &self.space, dep);
            let over_domain = form.fix_unknowns(&point);
            let depth = p.statement(dep.target).depth();
            let region = dep.domain.intersect(&p.embed_param_domain(depth));
            region.implies_nonneg(&over_domain)
        })
    }
}
