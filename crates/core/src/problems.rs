//! The paper's three schedule/storage problems (§4.5).

use crate::check::Checker;
use crate::objective::{evenness, objective_value, LENGTH_WEIGHT};
use crate::storage::storage_rows_concrete;
use crate::{CoreError, OccupancyVector};
use aov_fault::{AovError, Budget};
use aov_ir::{ArrayId, Program};
use aov_linalg::AffineExpr;
use aov_lp::{Cmp, LpOutcome, Model};
use aov_numeric::BigInt;
use aov_polyhedra::int::{self, Generators, Row};
use aov_polyhedra::param::dedup_in_order;
use aov_polyhedra::{Constraint, ConstraintKind, Polyhedron};
use aov_schedule::{legal, scheduler, sign_patterns, Analysis, BilinearForm, Orthant, Schedule};
use std::cell::OnceCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default search radius (max Manhattan length) for the exact
/// candidate-enumeration solvers.
pub const DEFAULT_SEARCH_RADIUS: i64 = 8;

/// An orthant's optimum: its exact objective and what attains it.
type OrthantSolution<T> = (i64, T);

/// Builds dependence `d`'s rows over its source array's vector
/// components.
type RowsOf<'r> = &'r dyn Fn(usize) -> Vec<Constraint>;

/// Lower bound on the objective inside a sign pattern: every nonzero
/// component adds at least `LENGTH_WEIGHT` to the length term, and the
/// evenness term is nonnegative.
fn pattern_bound(pattern: &Orthant) -> i64 {
    LENGTH_WEIGHT * pattern.iter().filter(|&&s| s != 0).count() as i64
}

/// Solves the per-orthant subproblems of one array in Problems 1 and 3
/// in one sequential loop (`solve(i)` solves `patterns[i]`) and returns
/// the minimum under the key `(objective, pattern index)`.
///
/// The loop visits patterns by `(bound, index)` ([`pattern_bound`]) and
/// stops at the first whose key exceeds the incumbent's
/// `(objective, index)`: every later pattern has a larger key, so none
/// can win. The answer is the index-order minimum by construction, and
/// the work done, budgeted or not, is a function of the input alone.
///
/// Fault behaviour: the budget is checked and the chaos site ticked
/// before each orthant, and each solve runs under `catch_unwind`, so a
/// panicking orthant surfaces as [`AovError::WorkerPanic`]. The first
/// failure ends the loop.
///
/// [`search_arrays`] runs it once per array, over that array's own
/// nonzero sign patterns.
fn solve_patterns<T>(
    patterns: &[Orthant],
    budget: &Budget,
    site: &'static str,
    solve: impl Fn(usize) -> Result<Option<OrthantSolution<T>>, AovError>,
) -> Result<Option<OrthantSolution<T>>, AovError> {
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by_key(|&i| (pattern_bound(&patterns[i]), i));
    let mut best: Option<(i64, usize, T)> = None;
    for i in order {
        if best
            .as_ref()
            .is_some_and(|(obj, bi, _)| (pattern_bound(&patterns[i]), i) > (*obj, *bi))
        {
            break;
        }
        let solved = catch_unwind(AssertUnwindSafe(|| -> Result<_, AovError> {
            budget.check(site)?;
            aov_fault::chaos::tick(site)?;
            solve(i)
        }))
        .unwrap_or_else(|payload| Err(AovError::from_panic(site, payload.as_ref())))?;
        if let Some((obj, vs)) = solved {
            if best.as_ref().is_none_or(|(b, bi, _)| (obj, i) < (*b, *bi)) {
                best = Some((obj, i, vs));
            }
        }
    }
    Ok(best.map(|(obj, _, vs)| (obj, vs)))
}

/// The shortest occupancy vector of every array of `a`'s program, one
/// array at a time. Per array, [`solve_patterns`] searches the `3^d − 1`
/// nonzero sign patterns of its `d` components ([`ArrayOrthants`]); each
/// pattern is decided in `v`-space first and, when it can hold a vector,
/// solved as one ILP by `solve_ilp` ([`ArrayOrthants::solve`]) over the
/// irredundant rows of every dependence whose source writes the array and
/// is `active` in the pattern, the pattern's sign rows and the array's
/// two-term objective. Each dependence's rows `dep_rows(dep)` are built
/// and reduced when an orthant first reads them, at most once per call
/// ([`ReducedRows`]). `site` names the per-orthant span,
/// budget checkpoint and chaos site. Problems 1 and 3 pass the analysis's
/// activity table ([`Analysis::active_in_orthant`]) and the budgeted
/// branch and bound.
///
/// It returns what one search over every array's components at once
/// returns: a dependence's rows involve only its source array's vector,
/// and the objective is a sum over arrays, so the joint ILP of a pattern
/// is the direct sum of the per-array ILPs of its slices. `sign_patterns`
/// is lexicographic over the array-contiguous components, so the joint
/// `(objective, index)` minimum is the tuple of the per-array minima.
fn shortest_per_array(
    a: &Analysis,
    budget: &Budget,
    site: &'static str,
    dep_rows: RowsOf,
    active: impl Fn(usize, &Orthant) -> bool,
    solve_ilp: impl Fn(&Model) -> Result<LpOutcome, AovError>,
) -> Result<OvResult, CoreError> {
    let reduced = ReducedRows::new(a.deps().len(), dep_rows);
    search_arrays(a, budget, site, active, |o, i| {
        o.solve(i, &reduced, &solve_ilp)
    })
}

/// The loop of [`shortest_per_array`], with `solve(orthants, i)` deciding
/// pattern `i` of one array's orthants. Each visited pattern gets a
/// `site` span.
fn search_arrays(
    a: &Analysis,
    budget: &Budget,
    site: &'static str,
    active: impl Fn(usize, &Orthant) -> bool,
    solve: impl Fn(&ArrayOrthants, usize) -> OrthantResult,
) -> Result<OvResult, CoreError> {
    let p = a.program();
    let mut vectors = Vec::with_capacity(p.arrays().len());
    for aidx in 0..p.arrays().len() {
        let orthants = ArrayOrthants::new(a, aidx, &active);
        let solve = |i: usize| {
            let _span = aov_trace::span!(site, pattern = pattern_label(&orthants.patterns[i]));
            solve(&orthants, i)
        };
        let (_, v) = solve_patterns(&orthants.patterns, budget, site, solve)?
            .ok_or(CoreError::NoVectorFound)?;
        vectors.push(v);
    }
    Ok(OvResult::new(p, vectors))
}

/// One orthant's optimum, `None` when it holds no valid vector.
type OrthantResult = Result<Option<OrthantSolution<OccupancyVector>>, AovError>;

/// One array's sign orthants: its nonzero sign patterns and, per
/// pattern, the dependences writing the array that are active there,
/// decided before the loop so that an orthant's span times its own work.
struct ArrayOrthants<'p> {
    name: &'p str,
    dim: usize,
    patterns: Vec<Orthant>,
    active_writers: Vec<Vec<usize>>,
}

impl<'p> ArrayOrthants<'p> {
    fn new(a: &Analysis<'p>, aidx: usize, active: impl Fn(usize, &Orthant) -> bool) -> Self {
        let p = a.program();
        let array = &p.arrays()[aidx];
        let writers: Vec<usize> = (0..a.deps().len())
            .filter(|&d| p.statement(a.deps()[d].source).writes() == ArrayId(aidx))
            .collect();
        let patterns: Vec<Orthant> = sign_patterns(array.dim())
            .into_iter()
            .filter(|pat| pat.iter().any(|&s| s != 0))
            .collect();
        let active_writers = patterns
            .iter()
            .map(|pat| {
                writers
                    .iter()
                    .copied()
                    .filter(|&d| active(d, pat))
                    .collect()
            })
            .collect();
        ArrayOrthants {
            name: array.name(),
            dim: array.dim(),
            patterns,
            active_writers,
        }
    }

    /// Pattern `i`'s optimum, decided in `v`-space before any ILP: the
    /// orthant holds no vector when some active writer's reduced rows
    /// hold nowhere, or when one DD of the active writers' reduced rows
    /// and the sign rows finds them empty. Otherwise one ILP over the
    /// rows that DD keeps minimizes the two-term objective. The counters
    /// `core.orthant.pruned` and `core.orthant.ilps` split the visited
    /// orthants between the two.
    fn solve(
        &self,
        i: usize,
        reduced: &ReducedRows,
        solve_ilp: impl Fn(&Model) -> Result<LpOutcome, AovError>,
    ) -> OrthantResult {
        let Some(rows) = self.orthant_rows(i, reduced) else {
            aov_support::static_counter!("core.orthant.pruned").add(1);
            return Ok(None);
        };
        aov_support::static_counter!("core.orthant.ilps").add(1);
        self.solve_ilp_over(i, rows.constraints(), solve_ilp)
    }

    /// The rows of pattern `i`'s ILP: its sign rows, then each active
    /// writer's reduced rows, reduced together by one DD; `None` when no
    /// vector of the orthant satisfies them. With no active writer the
    /// sign rows, one per component, are already irredundant.
    fn orthant_rows(&self, i: usize, reduced: &ReducedRows) -> Option<Polyhedron> {
        let mut rows = sign_rows(&self.patterns[i]);
        let writers = &self.active_writers[i];
        if writers.is_empty() {
            return Some(Polyhedron::from_constraints(self.dim, rows));
        }
        for &d in writers {
            rows.extend_from_slice(reduced.get(d, self.dim)?.constraints());
        }
        Polyhedron::from_constraints(self.dim, rows).irredundant()
    }

    /// Pattern `i`'s ILP over `rows`, which must confine the vector to
    /// the pattern's orthant, with the array's two-term objective.
    fn solve_ilp_over<'c>(
        &self,
        i: usize,
        rows: impl IntoIterator<Item = &'c Constraint>,
        solve_ilp: impl Fn(&Model) -> Result<LpOutcome, AovError>,
    ) -> OrthantResult {
        let mut m = Model::new();
        for k in 0..self.dim {
            let v = m.add_var(format!("v_{}_{k}", self.name));
            m.set_integer(v);
        }
        for c in rows {
            constrain(&mut m, c);
        }
        let obj = install_objective(&mut m, self.name, &self.patterns[i]);
        m.minimize(obj);
        Ok(candidate_of(self.dim, solve_ilp(&m)?))
    }
}

/// Each dependence's rows, built on first use and reduced to an
/// irredundant list by one DD ([`Polyhedron::irredundant`]), so at most
/// once per [`shortest_per_array`] call: `None` when no vector satisfies
/// them, and then no orthant where the dependence is active holds a
/// vector. A dependence no visited orthant reads costs nothing.
struct ReducedRows<'r> {
    rows: RowsOf<'r>,
    reduced: Vec<OnceCell<Option<Polyhedron>>>,
}

impl<'r> ReducedRows<'r> {
    fn new(deps: usize, rows: RowsOf<'r>) -> Self {
        ReducedRows {
            rows,
            reduced: (0..deps).map(|_| OnceCell::new()).collect(),
        }
    }

    /// Dependence `dep`'s reduced rows over its source array's `dim`
    /// components.
    fn get(&self, dep: usize, dim: usize) -> Option<&Polyhedron> {
        self.reduced[dep]
            .get_or_init(|| Polyhedron::from_constraints(dim, (self.rows)(dep)).irredundant())
            .as_ref()
    }
}

/// The sign rows of a pattern over its array's components: `v_k >= 1`,
/// `v_k <= -1` or `v_k == 0`. Within the orthant `|v_k| = sign_k · v_k`
/// exactly.
fn sign_rows(pattern: &Orthant) -> Vec<Constraint> {
    let dim = pattern.len();
    let rows = pattern.iter().enumerate().map(|(k, &sign)| {
        let var = AffineExpr::var(dim, k);
        if sign == 0 {
            Constraint::eq0(var)
        } else {
            Constraint::ge0(
                &var.scale(&i64::from(sign).into()) - &AffineExpr::constant(dim, 1.into()),
            )
        }
    });
    rows.collect()
}

/// Adds the constraint `c` to `m`.
fn constrain(m: &mut Model, c: &Constraint) {
    let cmp = match c.kind() {
        ConstraintKind::Ineq => Cmp::Ge,
        ConstraintKind::Eq => Cmp::Eq,
    };
    m.constrain(c.expr().clone(), cmp);
}

/// Extracts an integral candidate and its exact objective from one
/// array's ILP outcome (the reduction key of [`solve_patterns`]).
fn candidate_of(dim: usize, outcome: LpOutcome) -> Option<OrthantSolution<OccupancyVector>> {
    if let LpOutcome::Optimal(sol) = outcome {
        let v: Option<Vec<i64>> = (0..dim)
            .map(|k| sol.values.as_slice()[k].to_i64())
            .collect();
        let v = v?;
        Some((objective_value(&v), OccupancyVector::new(v)))
    } else {
        None
    }
}

/// Occupancy vectors per array (array order of the program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OvResult {
    names: Vec<String>,
    vectors: Vec<OccupancyVector>,
}

impl OvResult {
    pub(crate) fn new(p: &Program, vectors: Vec<OccupancyVector>) -> Self {
        OvResult {
            names: p.arrays().iter().map(|a| a.name().to_string()).collect(),
            vectors,
        }
    }

    /// Vector of the array with the given name.
    pub fn vector_for(&self, array: &str) -> Option<&OccupancyVector> {
        self.names
            .iter()
            .position(|n| n == array)
            .map(|k| &self.vectors[k])
    }

    /// All vectors in array order.
    pub fn vectors(&self) -> &[OccupancyVector] {
        &self.vectors
    }

    /// Total objective (sum over arrays).
    pub fn objective(&self) -> i64 {
        self.vectors
            .iter()
            .map(|v| objective_value(v.components()))
            .sum()
    }
}

impl std::fmt::Display for OvResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (n, v) in self.names.iter().zip(&self.vectors) {
            writeln!(f, "v_{n} = {v}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Problem 1: an occupancy vector for a given schedule (§4.5.1)
// ---------------------------------------------------------------------

/// Shortest occupancy vectors valid for the given schedule (Problem 1);
/// see [`ov_for_schedule_budgeted`]. `workers` is unused: the orthants
/// are solved in one sequential loop, so the answer and the work done
/// do not depend on it.
///
/// # Errors
///
/// As for [`ov_for_schedule_budgeted`], plus [`CoreError::Polyhedra`]
/// when the program's causality constraints cannot be linearized.
pub fn ov_for_schedule_with(
    p: &Program,
    sched: &Schedule,
    _workers: usize,
) -> Result<OvResult, CoreError> {
    ov_for_schedule_budgeted(&Analysis::new(p)?, sched, &Budget::unlimited())
}

/// Shortest occupancy vectors valid for the given schedule, by the
/// paper's LP method: substitute the schedule into the linearized
/// storage constraints and minimize the two-term objective. The storage
/// forms are `a`'s ([`Analysis::storage_forms`]), and each array is
/// solved on its own (`shortest_per_array`): per sign orthant of its
/// vector, over the dependences active there
/// ([`Analysis::active_in_orthant`]: exact `Z`-emptiness pruning, decided
/// once per analysis), a DD in `v`-space decides whether the orthant
/// holds a vector, and only then one ILP over the irredundant rows
/// minimizes. These ILPs are the only LPs it solves; every simplex pivot
/// and branch-and-bound node charges `budget`.
///
/// # Errors
///
/// * [`CoreError::IllegalSchedule`] — the schedule violates dependences.
/// * [`CoreError::NoVectorFound`] — no orthant of some array admits a
///   valid vector.
/// * [`CoreError::Fault`] — budget exhaustion or an
///   isolated orthant panic.
pub fn ov_for_schedule_budgeted(
    a: &Analysis,
    sched: &Schedule,
    budget: &Budget,
) -> Result<OvResult, CoreError> {
    let theta = legal::point_of(a.program(), a.space(), sched);
    // ℛ's rows are the causality forms linearized exactly (Theorem 1),
    // so membership decides legality without an LP.
    if !a.legal().contains(&theta) {
        return Err(CoreError::IllegalSchedule);
    }
    let theta = int::homogenize(&theta);
    shortest_per_array(
        a,
        budget,
        "p1.orthant",
        &|d| schedule_rows(a.storage_forms(d), &theta),
        |d, pattern| a.active_in_orthant(d, pattern),
        |m| m.solve_ilp_budgeted(budget),
    )
}

/// Problem 1's rows for one dependence: each storage form at the
/// homogenized schedule point `theta`, one matrix product per form, as a
/// primitive constraint.
fn schedule_rows(forms: &[BilinearForm], theta: &[BigInt]) -> Vec<Constraint> {
    let mut row = Row::new();
    let at_theta = |f: &BilinearForm| {
        f.row_at(theta, &mut row);
        int::primitive_constraint(&mut row, ConstraintKind::Ineq)
    };
    forms.iter().map(at_theta).collect()
}

/// Compact trace label for a sign pattern, e.g. `+0-`.
fn pattern_label(pattern: &Orthant) -> String {
    pattern
        .iter()
        .map(|&s| match s.cmp(&0) {
            std::cmp::Ordering::Greater => '+',
            std::cmp::Ordering::Equal => '0',
            std::cmp::Ordering::Less => '-',
        })
        .collect()
}

/// Exact cross-check for Problem 1: enumerate integer candidates per
/// array by increasing objective and validate each with the exact
/// checker.
///
/// # Errors
///
/// * [`CoreError::IllegalSchedule`] — the schedule violates dependences.
/// * [`CoreError::NoVectorFound`] — nothing within `max_radius`.
pub fn ov_for_schedule_search(
    a: &Analysis,
    sched: &Schedule,
    max_radius: i64,
) -> Result<OvResult, CoreError> {
    if !a.is_legal(sched) {
        return Err(CoreError::IllegalSchedule);
    }
    let checker = Checker::new(a);
    search_per_array(a.program(), max_radius, "p1.search_array", |aid, v| {
        Ok(checker.valid_for_schedule(aid, v, sched))
    })
}

// ---------------------------------------------------------------------
// Problem 2: schedules for given occupancy vectors (§4.5.2)
// ---------------------------------------------------------------------

/// The instantiated storage constraints (Eq. 10) for `vectors` that are
/// not already causality rows of `a`, in dependence order, each
/// required `>= 0`. Problem 2 intersects ℛ with exactly these rows.
fn storage_rows(a: &Analysis, vectors: &[OccupancyVector]) -> Result<Vec<AffineExpr>, CoreError> {
    let _s = aov_trace::span!("p2.storage_rows", deps = a.deps().len());
    let causality: HashSet<&AffineExpr> = a.rows().iter().collect();
    let mut extra = storage_rows_concrete(a, vectors)?;
    extra.retain(|r| !causality.contains(r));
    Ok(dedup_in_order(extra))
}

/// The polyhedron of affine schedules valid for the given occupancy
/// vectors: causality constraints (Eq. 11) plus instantiated storage
/// constraints (Eq. 10), in the schedule space of `a`.
///
/// # Errors
///
/// Propagates polyhedral failures.
pub fn schedules_for_ov(
    a: &Analysis,
    vectors: &[OccupancyVector],
) -> Result<Polyhedron, CoreError> {
    let extra = storage_rows(a, vectors)?;
    let rows = a.rows().iter().chain(&extra).cloned();
    Ok(Polyhedron::from_constraints(
        a.space().dim(),
        rows.map(Constraint::ge0).collect(),
    ))
}

/// A best (smallest-coefficient) schedule valid for the given occupancy
/// vectors; see [`best_schedule_for_ov_budgeted`].
///
/// # Errors
///
/// As for [`best_schedule_for_ov_budgeted`], plus
/// [`CoreError::Polyhedra`] when the program's causality constraints
/// cannot be linearized.
pub fn best_schedule_for_ov(
    p: &Program,
    vectors: &[OccupancyVector],
) -> Result<Schedule, CoreError> {
    best_schedule_for_ov_budgeted(&Analysis::new(p)?, vectors, &Budget::unlimited())
}

/// A best (smallest-coefficient) schedule valid for the given occupancy
/// vectors: the scheduler's ILP over ℛ with the storage rows added.
///
/// When every storage row already holds on all of ℛ
/// ([`Analysis::holds_on_legal`]), as it does for a vector valid for every
/// legal schedule (an AOV or a UOV), the added rows are redundant and the
/// answer is the scheduler's own over ℛ alone ([`Analysis::schedule`]),
/// solved at most once per analysis. Otherwise the ILP with the rows is
/// solved. Either ILP charges `budget` per pivot and per
/// branch-and-bound node.
///
/// # Errors
///
/// * [`CoreError::Unschedulable`] — no schedule respects both the
///   dependences and the storage constraints (the vectors are too
///   short for any affine schedule).
/// * [`CoreError::Fault`] — budget exhaustion.
pub fn best_schedule_for_ov_budgeted(
    a: &Analysis,
    vectors: &[OccupancyVector],
    budget: &Budget,
) -> Result<Schedule, CoreError> {
    let rows = storage_rows(a, vectors)?;
    let certified = {
        let _s = aov_trace::span!("p2.certify", rows = rows.len());
        a.holds_on_legal(&rows)
    };
    if certified {
        return Ok(a.schedule(budget)?);
    }
    let extra: Vec<(AffineExpr, Cmp)> = rows.into_iter().map(|r| (r, Cmp::Ge)).collect();
    let _s = aov_trace::span!("p2.solve", rows = a.rows().len() + extra.len());
    Ok(scheduler::find_schedule_with_budgeted(a, &extra, budget)?)
}

// ---------------------------------------------------------------------
// Problem 3: the AOV (§4.5.3)
// ---------------------------------------------------------------------

/// Shortest Affine Occupancy Vectors (Problem 3); see [`aov_budgeted`].
/// `workers` is unused: the orthants are solved in one sequential loop,
/// so the answer and the work done do not depend on it.
///
/// # Errors
///
/// As for [`aov_budgeted`], plus [`CoreError::Polyhedra`] when the
/// program's causality constraints cannot be linearized.
pub fn aov_with(p: &Program, _workers: usize) -> Result<OvResult, CoreError> {
    aov_budgeted(&Analysis::new(p)?, &Budget::unlimited())
}

/// Shortest Affine Occupancy Vectors: each linearized storage constraint
/// `G(v, Θ)`, affine in Θ with coefficients affine in `v`, must hold for
/// every legal schedule Θ ∈ ℛ.
///
/// The paper linearizes that condition with the affine form of Farkas'
/// lemma (§4.5.3; kept as the test-only `farkas_reference`). This solver uses the
/// equivalent generator form, the paper's Theorem 1 (Minkowski–Weyl)
/// applied to ℛ = conv(vertices) + cone(rays) + span(lines): `G ≥ 0` on
/// ℛ exactly when `G(v, x) ≥ 0` at every vertex `x`, `G`'s linear part
/// is `≥ 0` along every ray and `= 0` along every line. Each generator
/// gives one row linear in `v` alone, with no multipliers. The storage
/// forms and their activity per orthant are `a`'s, shared with Problem 1
/// ([`Analysis::storage_forms`], [`Analysis::active_in_orthant`]), and a
/// row of a dependence involves only its source array's vector, so each
/// array is solved on its own (`shortest_per_array`): per sign orthant
/// of its vector, a DD in `v`-space decides whether the orthant holds a
/// vector, and only then one ILP over the irredundant rows minimizes its
/// two-term objective. These ILPs are the only LPs it solves; every
/// simplex pivot and branch-and-bound node charges `budget`.
///
/// The generator count of ℛ can grow exponentially with its dimension.
/// The counters `core.aov.generators` and `core.aov.generator_rows` (one
/// row per storage form and generator, counted before trivially true rows
/// and repeats are dropped) record it, against
/// `core.aov.farkas_multipliers`: the multipliers the Farkas form would
/// introduce, one per row of ℛ plus one per storage form, counted before
/// its redundancy pass. Both counts cover every dependence, whichever
/// orthants the search visits.
///
/// # Errors
///
/// * [`CoreError::Unschedulable`] — the program has no one-dimensional
///   affine schedule, so "valid for all legal schedules" is vacuous.
/// * [`CoreError::NoVectorFound`] — no orthant of some array admits a
///   vector.
/// * [`CoreError::Fault`] — budget exhaustion or an
///   isolated orthant panic.
pub fn aov_budgeted(a: &Analysis, budget: &Budget) -> Result<OvResult, CoreError> {
    let gens = a.generators();
    if gens.is_empty() {
        return Err(CoreError::Unschedulable);
    }
    let forms_total: usize = (0..a.deps().len()).map(|d| a.storage_forms(d).len()).sum();
    let generators = gens.vertices.len() + gens.rays.len() + gens.lines.len();
    aov_support::static_counter!("core.aov.generators").add(generators as u64);
    aov_support::static_counter!("core.aov.farkas_multipliers")
        .add((forms_total * (a.rows().len() + 1)) as u64);
    aov_support::static_counter!("core.aov.generator_rows").add((forms_total * generators) as u64);
    shortest_per_array(
        a,
        budget,
        "aov.orthant",
        &|d| generator_rows(a.storage_forms(d), gens),
        |d, pattern| a.active_in_orthant(d, pattern),
        |m| m.solve_ilp_budgeted(budget),
    )
}

/// Problem 3's rows for one dependence, in `v` alone (see
/// [`aov_budgeted`]): the stacked storage-form matrices times ℛ's
/// generator matrix ([`Analysis::generators`]) — each form at each
/// vertex of ℛ (`>= 0`), along each ray (`>= 0`) and along each line
/// (`== 0`) — as primitive integer constraints, with trivially true rows
/// dropped and repeats dropped in first-occurrence order.
fn generator_rows(forms: &[BilinearForm], gens: &Generators) -> Vec<Constraint> {
    let _span = aov_trace::span!("aov.generator_rows", forms = forms.len());
    let n_gens = gens.vertices.len() + gens.rays.len() + gens.lines.len();
    let mut out = Vec::with_capacity(forms.len() * n_gens);
    let mut row = Row::new();
    let mut push = |row: &mut Row, kind: ConstraintKind| {
        if !int::is_trivially_true(row, kind) {
            out.push(int::primitive_constraint(row, kind));
        }
    };
    for f in forms {
        for x in &gens.vertices {
            f.row_at(x, &mut row);
            push(&mut row, ConstraintKind::Ineq);
        }
        for r in &gens.rays {
            f.row_along(&r[1..], &mut row);
            push(&mut row, ConstraintKind::Ineq);
        }
        for l in &gens.lines {
            f.row_along(&l[1..], &mut row);
            push(&mut row, ConstraintKind::Eq);
        }
    }
    dedup_in_order(out)
}

/// Exact cross-check for Problem 3: enumerate integer candidates per
/// array and validate each against every legal schedule via the exact
/// checker; see [`aov_search_with`].
///
/// # Errors
///
/// As for [`aov_search_with`], plus [`CoreError::Polyhedra`] when the
/// program's causality constraints cannot be linearized.
pub fn aov_search(p: &Program, max_radius: i64) -> Result<OvResult, CoreError> {
    aov_search_with(&Analysis::new(p)?, max_radius)
}

/// Exact cross-check for Problem 3 over a built analysis: per array,
/// the first candidate valid for every legal schedule.
///
/// # Errors
///
/// * [`CoreError::Unschedulable`] / [`CoreError::NoVectorFound`] as for
///   [`aov_budgeted`].
/// * [`CoreError::Polyhedra`] when a validity check fails.
pub fn aov_search_with(a: &Analysis, max_radius: i64) -> Result<OvResult, CoreError> {
    if a.legal().is_empty() {
        return Err(CoreError::Unschedulable);
    }
    let checker = Checker::new(a);
    search_per_array(a.program(), max_radius, "aov.search_array", |aid, v| {
        checker
            .valid_for_all_schedules(aid, v)
            .map_err(CoreError::Polyhedra)
    })
}

// ---------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------

/// Adds the two-term objective of one array's vector, whose components
/// are the model's first `pattern.len()` variables and lie in the
/// pattern's orthant, so that `|v_k| = sign_k · v_k`; returns the
/// objective expression.
fn install_objective(m: &mut Model, array: &str, pattern: &Orthant) -> AffineExpr {
    let dim = pattern.len();
    let abs_exprs: Vec<AffineExpr> = pattern
        .iter()
        .enumerate()
        .map(|(k, &sign)| AffineExpr::var(dim, k).scale(&i64::from(sign).into()))
        .collect();
    // Length term.
    let sum = abs_exprs
        .iter()
        .fold(AffineExpr::zero(dim), |acc, e| &acc + e);
    let mut objective_parts = vec![sum.scale(&LENGTH_WEIGHT.into())];
    // Evenness term: d_{kl} >= ±(|v_k| − |v_l|).
    for k in 0..dim {
        for l in k + 1..dim {
            let d = m.add_nonneg_var(format!("d_{array}_{k}_{l}"));
            let total = m.num_vars();
            let map: Vec<usize> = (0..dim).collect();
            let tk = abs_exprs[k].embed(total, &map);
            let tl = abs_exprs[l].embed(total, &map);
            let dv = AffineExpr::var(total, d.index());
            m.constrain(&dv - &(&tk - &tl), Cmp::Ge);
            m.constrain(&dv - &(&tl - &tk), Cmp::Ge);
            objective_parts.push(dv);
        }
    }
    // Pad and sum.
    let total = m.num_vars();
    let mut obj = AffineExpr::zero(total);
    for part in objective_parts {
        let map: Vec<usize> = (0..part.dim()).collect();
        obj = &obj + &part.embed(total, &map);
    }
    obj
}

/// The exact searches of Problems 1 and 3: per array, under a `site`
/// span, the first vector of [`search_shells`] that `valid` accepts.
///
/// # Errors
///
/// [`CoreError::NoVectorFound`] when some array has none within
/// `max_radius`; the first error `valid` returns.
fn search_per_array(
    p: &Program,
    max_radius: i64,
    site: &'static str,
    valid: impl Fn(ArrayId, &[i64]) -> Result<bool, CoreError>,
) -> Result<OvResult, CoreError> {
    let mut vectors = Vec::with_capacity(p.arrays().len());
    for (aidx, array) in p.arrays().iter().enumerate() {
        let _span = aov_trace::span!(site, array = aidx);
        let found = search_shells(array.dim(), max_radius, |v| valid(ArrayId(aidx), v))?;
        vectors.push(OccupancyVector::new(found.ok_or(CoreError::NoVectorFound)?));
    }
    Ok(OvResult::new(p, vectors))
}

/// Enumerates integer vectors by increasing Manhattan length, breaking
/// ties by the evenness term, and returns the first (hence objective-
/// minimal) vector accepted by `valid`.
pub(crate) fn search_shells(
    dim: usize,
    max_radius: i64,
    mut valid: impl FnMut(&[i64]) -> Result<bool, CoreError>,
) -> Result<Option<Vec<i64>>, CoreError> {
    for r in 1..=max_radius {
        let mut shell = enumerate_shell(dim, r);
        shell.sort_by_key(|v| {
            (
                evenness(v),
                // Deterministic final order: prefer nonnegative, then lex.
                v.iter().filter(|&&c| c < 0).count(),
                v.clone(),
            )
        });
        for v in shell {
            if valid(&v)? {
                return Ok(Some(v));
            }
        }
    }
    Ok(None)
}

/// All integer vectors with Manhattan length exactly `r`.
pub(crate) fn enumerate_shell(dim: usize, r: i64) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut cur = vec![0i64; dim];
    fn rec(k: usize, remaining: i64, cur: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        if k + 1 == cur.len() {
            for s in [remaining, -remaining] {
                cur[k] = s;
                out.push(cur.clone());
                if remaining == 0 {
                    break;
                }
            }
            return;
        }
        for mag in 0..=remaining {
            for s in [mag, -mag] {
                cur[k] = s;
                rec(k + 1, remaining - mag, cur, out);
                if mag == 0 {
                    break;
                }
            }
        }
    }
    rec(0, r, &mut cur, &mut out);
    out
}

/// Test oracle: the orthant ILP before the `v`-space pre-pass, one per
/// visited orthant over every row of every active writer, unreduced, and
/// the pattern's sign rows.
#[cfg(test)]
mod unreduced {
    use super::{search_arrays, sign_rows, ArrayOrthants, CoreError, OrthantResult, OvResult};
    use aov_fault::{AovError, Budget};
    use aov_lp::{LpOutcome, Model};
    use aov_polyhedra::Constraint;
    use aov_schedule::{Analysis, Orthant};

    /// Each dependence's rows, parallel to [`Analysis::deps`].
    pub type DepRows = Vec<Vec<Constraint>>;

    /// Every dependence's rows, built up front.
    pub fn all_rows(a: &Analysis, rows: super::RowsOf) -> DepRows {
        (0..a.deps().len()).map(rows).collect()
    }

    /// Pattern `i`'s unreduced ILP.
    pub fn solve(
        o: &ArrayOrthants,
        i: usize,
        dep_rows: &DepRows,
        solve_ilp: impl Fn(&Model) -> Result<LpOutcome, AovError>,
    ) -> OrthantResult {
        let writers = o.active_writers[i].iter().flat_map(|&d| &dep_rows[d]);
        let signs = sign_rows(&o.patterns[i]);
        o.solve_ilp_over(i, writers.chain(&signs), solve_ilp)
    }

    /// [`super::shortest_per_array`] with every orthant solved unreduced.
    pub fn shortest_per_array(
        a: &Analysis,
        budget: &Budget,
        site: &'static str,
        dep_rows: &DepRows,
        solve_ilp: impl Fn(&Model) -> Result<LpOutcome, AovError>,
    ) -> Result<OvResult, CoreError> {
        let active = |d, pattern: &Orthant| a.active_in_orthant(d, pattern);
        search_arrays(a, budget, site, active, |o, i| {
            solve(o, i, dep_rows, &solve_ilp)
        })
    }
}

/// Test oracle: the joint search over every array's vector components
/// at once, one ILP per joint sign pattern, over storage forms linearized
/// anew from each dependence domain — the search before it was split per
/// array.
#[cfg(test)]
mod joint {
    use super::{pattern_label, solve_patterns, OrthantSolution, OvResult};
    use crate::objective::{objective_value, LENGTH_WEIGHT};
    use crate::storage::{dependence_active_in_orthant, reference};
    use crate::{CoreError, OccupancyVector, OvSpace};
    use aov_fault::Budget;
    use aov_ir::{Dependence, Program};
    use aov_linalg::AffineExpr;
    use aov_lp::{Cmp, LpOutcome, Model};
    use aov_polyhedra::Constraint;
    use aov_schedule::{legal, sign_patterns, Analysis, BilinearForm, Orthant, Schedule};

    /// Problem 1 by the joint search.
    pub fn ov_for_schedule(a: &Analysis, sched: &Schedule) -> Result<OvResult, CoreError> {
        if !a.is_legal(sched) {
            return Err(CoreError::IllegalSchedule);
        }
        let theta = legal::point_of(a.program(), a.space(), sched);
        let dep_rows: Vec<Vec<AffineExpr>> = joint_forms(a)?
            .iter()
            .map(|forms| forms.iter().map(|f| f.at_point(&theta)).collect())
            .collect();
        shortest_over_patterns(a, &Budget::unlimited(), "p1.orthant", |m, didx| {
            for r in &dep_rows[didx] {
                m.constrain(r.clone(), Cmp::Ge);
            }
        })
    }

    /// Problem 3 by the joint search, with the generator rows of ℛ.
    pub fn aov(a: &Analysis) -> Result<OvResult, CoreError> {
        let gens = a.generators();
        if gens.is_empty() {
            return Err(CoreError::Unschedulable);
        }
        let dep_rows: Vec<Vec<Constraint>> = joint_forms(a)?
            .iter()
            .map(|forms| super::generator_rows(forms, gens))
            .collect();
        shortest_over_patterns(a, &Budget::unlimited(), "aov.orthant", |m, didx| {
            for c in &dep_rows[didx] {
                super::constrain(m, c);
            }
        })
    }

    /// Each dependence's storage forms over the joint vector space.
    pub fn joint_forms(a: &Analysis) -> Result<Vec<Vec<BilinearForm>>, CoreError> {
        let (p, space) = (a.program(), a.space());
        let ov_space = OvSpace::new(p);
        let forms = a.deps().iter().map(|dep| {
            reference::storage_forms_for_dep(p, space, &ov_space, dep).map_err(CoreError::from)
        });
        forms.collect()
    }

    /// The shortest occupancy vectors over every joint sign pattern: per
    /// pattern, one ILP over the joint vector `v` with the rows
    /// `add_rows(model, dep)` adds for each dependence active in the
    /// pattern, plus the pattern's sign rows and two-term objective.
    pub fn shortest_over_patterns(
        a: &Analysis,
        budget: &Budget,
        site: &'static str,
        add_rows: impl Fn(&mut Model, usize),
    ) -> Result<OvResult, CoreError> {
        let p = a.program();
        let ov_space = OvSpace::new(p);
        let patterns: Vec<Orthant> = sign_patterns(ov_space.dim())
            .into_iter()
            .filter(|pat| !pattern_has_zero_array(p, &ov_space, pat))
            .collect();
        let solve = |i: usize| {
            let pattern = &patterns[i];
            let _span = aov_trace::span!(site, pattern = pattern_label(pattern));
            let mut m = Model::new();
            for name in ov_space.vars().names() {
                let v = m.add_var(name.clone());
                m.set_integer(v);
            }
            for (didx, dep) in a.deps().iter().enumerate() {
                if dependence_active_in_pattern(p, &ov_space, dep, pattern) {
                    add_rows(&mut m, didx);
                }
            }
            let obj = install_pattern_objective(&mut m, p, &ov_space, pattern);
            m.minimize(obj);
            Ok(candidate_of(&ov_space, m.solve_ilp_budgeted(budget)?))
        };
        solve_patterns(&patterns, budget, site, solve)?
            .map(|(_, vs)| OvResult::new(p, vs))
            .ok_or(CoreError::NoVectorFound)
    }

    /// Extracts an integral candidate and its exact objective from an ILP
    /// outcome.
    fn candidate_of(
        ov_space: &OvSpace,
        outcome: LpOutcome,
    ) -> Option<OrthantSolution<Vec<OccupancyVector>>> {
        if let LpOutcome::Optimal(sol) = outcome {
            let point: Option<Vec<i64>> = (0..ov_space.dim())
                .map(|k| sol.values.as_slice()[k].to_i64())
                .collect();
            let point = point?;
            let vectors = ov_space.split(&point);
            let obj: i64 = vectors
                .iter()
                .map(|v| objective_value(v.components()))
                .sum();
            Some((obj, vectors))
        } else {
            None
        }
    }

    /// A pattern whose slice for some array is all zeros encodes the zero
    /// vector for that array — never a realizable occupancy vector.
    fn pattern_has_zero_array(p: &Program, ov_space: &OvSpace, pattern: &Orthant) -> bool {
        p.arrays().iter().enumerate().any(|(aidx, a)| {
            (0..a.dim()).all(|k| pattern[ov_space.component(aov_ir::ArrayId(aidx), k)] == 0)
        })
    }

    /// Activity of a dependence under a joint sign pattern (extracts the
    /// array's slice of the pattern).
    fn dependence_active_in_pattern(
        p: &Program,
        ov_space: &OvSpace,
        dep: &Dependence,
        pattern: &Orthant,
    ) -> bool {
        let t = p.statement(dep.source);
        let array = t.writes();
        let slice: Vec<i8> = (0..t.depth())
            .map(|k| pattern[ov_space.component(array, k)])
            .collect();
        dependence_active_in_orthant(p, dep, &slice)
    }

    /// Adds the sign-pattern constraints and the two-term objective of
    /// every array; returns the objective expression.
    fn install_pattern_objective(
        m: &mut Model,
        p: &Program,
        ov_space: &OvSpace,
        pattern: &Orthant,
    ) -> AffineExpr {
        let vdim = ov_space.dim();
        for (k, &sign) in pattern.iter().enumerate().take(vdim) {
            let var = AffineExpr::var(vdim, k);
            if sign == 0 {
                m.constrain(var, Cmp::Eq);
            } else {
                let e = &var.scale(&i64::from(sign).into()) - &AffineExpr::constant(vdim, 1.into());
                m.constrain(e, Cmp::Ge);
            }
        }
        let mut objective_parts: Vec<AffineExpr> = Vec::new();
        for (aidx, a) in p.arrays().iter().enumerate() {
            let aid = aov_ir::ArrayId(aidx);
            let abs_exprs: Vec<AffineExpr> = (0..a.dim())
                .map(|k| {
                    let idx = ov_space.component(aid, k);
                    AffineExpr::var(vdim, idx).scale(&i64::from(pattern[idx]).into())
                })
                .collect();
            // Length term.
            let sum = abs_exprs
                .iter()
                .fold(AffineExpr::zero(vdim), |acc, e| &acc + e);
            objective_parts.push(sum.scale(&LENGTH_WEIGHT.into()));
            // Evenness term: d_{kl} >= ±(|v_k| − |v_l|).
            for k in 0..a.dim() {
                for l in k + 1..a.dim() {
                    let d = m.add_nonneg_var(format!("d_{}_{k}_{l}", a.name()));
                    let total = m.num_vars();
                    let map: Vec<usize> = (0..vdim).collect();
                    let tk = abs_exprs[k].embed(total, &map);
                    let tl = abs_exprs[l].embed(total, &map);
                    let dv = AffineExpr::var(total, d.index());
                    m.constrain(&dv - &(&tk - &tl), Cmp::Ge);
                    m.constrain(&dv - &(&tl - &tk), Cmp::Ge);
                    objective_parts.push(dv);
                }
            }
        }
        // Pad and sum.
        let total = m.num_vars();
        let mut obj = AffineExpr::zero(total);
        for part in objective_parts {
            let map: Vec<usize> = (0..part.dim()).collect();
            obj = &obj + &part.embed(total, &map);
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle_corpus;
    use aov_ir::examples::{example1, example2, example4, prefix_sum, wavefront2d};
    use aov_linalg::QVector;
    use aov_numeric::Rational;

    #[test]
    fn shell_enumeration_counts() {
        // |{v ∈ Z^2 : |v|_1 = 1}| = 4; r = 2 -> 8.
        assert_eq!(enumerate_shell(2, 1).len(), 4);
        assert_eq!(enumerate_shell(2, 2).len(), 8);
        assert_eq!(enumerate_shell(1, 3).len(), 2);
        assert_eq!(enumerate_shell(3, 1).len(), 6);
        // No duplicates.
        let mut s = enumerate_shell(3, 2);
        let n = s.len();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), n);
    }

    #[test]
    fn fig3_problem1_lp_and_search_agree() {
        let p = example1();
        let row = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
        let lp = ov_for_schedule_with(&p, &row, 1).unwrap();
        let search = ov_for_schedule_search(&Analysis::new(&p).unwrap(), &row, 6).unwrap();
        // Figure 3: shortest OV for the row-parallel schedule is (0, 1).
        assert_eq!(lp.vector_for("A").unwrap().components(), [0, 1]);
        assert_eq!(search.vector_for("A").unwrap().components(), [0, 1]);
    }

    #[test]
    fn problem1_rejects_illegal_schedule() {
        let p = example1();
        let col = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 0, 0, 0], 0)]);
        assert!(matches!(
            ov_for_schedule_with(&p, &col, 1),
            Err(CoreError::IllegalSchedule)
        ));
    }

    #[test]
    fn fig5_aov_example1() {
        let p = example1();
        let r = aov_with(&p, 1).unwrap();
        assert_eq!(r.vector_for("A").unwrap().components(), [1, 2]);
        let s = aov_search(&p, 6).unwrap();
        assert_eq!(s.vector_for("A").unwrap().components(), [1, 2]);
    }

    #[test]
    fn fig9_aov_example2() {
        let p = example2();
        let r = aov_with(&p, 1).unwrap();
        assert_eq!(r.vector_for("A").unwrap().components(), [1, 1]);
        assert_eq!(r.vector_for("B").unwrap().components(), [1, 1]);
    }

    /// Figure 11: Example 3's AOV is (1,1,1). This is the heaviest
    /// analysis in the suite (19 dependences, 3 parameters, 27 sign
    /// patterns); it doubles as a stress test of the Farkas path.
    #[test]
    fn fig11_aov_example3() {
        let p = aov_ir::examples::example3();
        let r = aov_with(&p, 1).unwrap();
        assert_eq!(r.vector_for("D").unwrap().components(), [1, 1, 1]);
    }

    #[test]
    fn fig14_aov_example4() {
        let p = example4();
        let r = aov_with(&p, 1).unwrap();
        // The paper reports v_A = (1,1); our exact dependence domains
        // (S2 reads A[i][n-i] only for i <= n-1) admit the strictly
        // shorter (1,0), which causality alone protects:
        // Θ1(i+1, ·) >= Θ2(i) + 1 for every legal schedule. The exact
        // checker confirms both; see EXPERIMENTS.md.
        assert_eq!(r.vector_for("A").unwrap().components(), [1, 0]);
        assert_eq!(r.vector_for("B").unwrap().components(), [1]);
        let an = Analysis::new(&p).unwrap();
        let checker = Checker::new(&an);
        let a = p.array_by_name("A").unwrap();
        assert!(checker.valid_for_all_schedules(a, &[1, 0]).unwrap());
        assert!(checker.valid_for_all_schedules(a, &[1, 1]).unwrap());
        let s = aov_search(&p, 6).unwrap();
        assert_eq!(s.vector_for("A").unwrap().components(), [1, 0]);
    }

    #[test]
    fn aov_auxiliary_programs() {
        let p = prefix_sum();
        let r = aov_with(&p, 1).unwrap();
        assert_eq!(r.vector_for("P").unwrap().components(), [1]);
        let p = wavefront2d();
        let r = aov_with(&p, 1).unwrap();
        // Dependences (1,0) and (0,1): storage rows a·vi + b·vj − a and
        // … − b over R = {a,b >= 1}: (1,1) works, length-2; (0,2)/(2,0)
        // fail one row; so (1,1).
        assert_eq!(r.vector_for("A").unwrap().components(), [1, 1]);
    }

    #[test]
    fn fig4_problem2_schedule_range() {
        let p = example1();
        // Given OV (0, 2), the legal schedules satisfy b >= 2a, b >= 1+a,
        // b >= 1−2a (paper §5.1.3): slope a/b ∈ (−1/2, 1/2).
        let an = Analysis::new(&p).unwrap();
        let space = an.space();
        let poly = schedules_for_ov(&an, &[OccupancyVector::new(vec![0, 2])]).unwrap();
        let sid = aov_ir::StmtId(0);
        let mk = |a: i64, b: i64| {
            let mut pt = QVector::zeros(space.dim());
            pt[space.iter_coeff(sid, 0)] = a.into();
            pt[space.iter_coeff(sid, 1)] = b.into();
            pt
        };
        assert!(poly.contains(&mk(0, 1))); // Θ = j
        assert!(poly.contains(&mk(1, 3))); // slope 1/3
        assert!(poly.contains(&mk(-1, 3))); // slope -1/3
        assert!(poly.contains(&mk(1, 2))); // slope 1/2 attained at b = 2a
        assert!(!poly.contains(&mk(2, 3))); // slope 2/3 violates b >= 2a
        assert!(!poly.contains(&mk(-2, 3))); // slope -2/3 violates 2a+b >= 1
        assert!(!poly.contains(&mk(1, 0))); // columns
    }

    #[test]
    fn problem2_best_schedule_exists_and_respects_storage() {
        let p = example1();
        let v = OccupancyVector::new(vec![0, 2]);
        let s = best_schedule_for_ov(&p, std::slice::from_ref(&v)).unwrap();
        let an = Analysis::new(&p).unwrap();
        assert!(an.is_legal(&s));
        let checker = Checker::new(&an);
        assert!(checker.valid_for_schedule(aov_ir::ArrayId(0), v.components(), &s));
    }

    /// Problem 2 by the ILP the certificate replaces: the scheduler's ILP
    /// over ℛ with the storage rows of `vectors` added.
    fn problem2_by_ilp(a: &Analysis, vectors: &[OccupancyVector]) -> Result<Schedule, CoreError> {
        let extra: Vec<(AffineExpr, Cmp)> = storage_rows(a, vectors)
            .unwrap()
            .into_iter()
            .map(|r| (r, Cmp::Ge))
            .collect();
        Ok(scheduler::find_schedule_with_budgeted(
            a,
            &extra,
            &Budget::unlimited(),
        )?)
    }

    /// Whether Problem 2's storage rows for `vectors` hold on all of ℛ.
    fn certified(a: &Analysis, vectors: &[OccupancyVector]) -> bool {
        a.holds_on_legal(&storage_rows(a, vectors).unwrap())
    }

    /// Oracle for Problem 2's certificate: at every corpus AOV and at
    /// example1's UOV fallback `(0, 3)`, the storage rows hold on all of
    /// ℛ, and the certified answer is the schedule of the ILP with those
    /// rows (no tie resolves differently).
    #[test]
    fn certified_problem2_matches_its_ilp() {
        let budget = Budget::unlimited();
        let mut checked = 0;
        for p in oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let Ok(aov) = aov_budgeted(&a, &budget) else {
                continue;
            };
            assert!(certified(&a, aov.vectors()), "{}", p.name());
            assert_eq!(
                best_schedule_for_ov_budgeted(&a, aov.vectors(), &budget).unwrap(),
                problem2_by_ilp(&a, aov.vectors()).unwrap(),
                "{}",
                p.name()
            );
            checked += 1;
        }
        assert_eq!(checked, 198, "corpus programs with an AOV");
        let p = example1();
        let a = Analysis::new(&p).unwrap();
        let uov = [OccupancyVector::new(vec![0, 3])];
        assert!(certified(&a, &uov));
        assert_eq!(
            best_schedule_for_ov_budgeted(&a, &uov, &budget).unwrap(),
            problem2_by_ilp(&a, &uov).unwrap()
        );
    }

    /// The certificate is not vacuous: example1's `(0, 1)` and `(0, 2)`
    /// are valid for some legal schedules only, so their rows fail it.
    #[test]
    fn certificate_rejects_vectors_below_the_aov() {
        let p = example1();
        let a = Analysis::new(&p).unwrap();
        for v in [vec![0, 1], vec![0, 2]] {
            assert!(!certified(&a, &[OccupancyVector::new(v.clone())]), "{v:?}");
        }
    }

    /// The paper's Farkas form of Problem 3 (§4.5.3): each storage form
    /// is equated to a nonnegative combination of ℛ's irredundant rows,
    /// with fresh multipliers per form. Kept as the oracle of the
    /// generator form [`aov_budgeted`] uses.
    fn aov_farkas(a: &Analysis) -> Result<OvResult, CoreError> {
        if a.legal().is_empty() {
            return Err(CoreError::Unschedulable);
        }
        // ℛ's irredundant rows, each equality as two inequalities.
        let sched_rows: Vec<AffineExpr> = a
            .legal()
            .irredundant()
            .expect("nonempty")
            .constraints()
            .iter()
            .flat_map(|c| {
                let e = c.expr();
                std::iter::once(e.clone()).chain(c.is_equality().then(|| -e))
            })
            .collect();
        let dep_systems: Vec<Vec<_>> = joint::joint_forms(a)?
            .iter()
            .map(|forms| {
                forms
                    .iter()
                    .map(|f| crate::farkas_reference::farkas_system(f, &sched_rows))
                    .collect()
            })
            .collect();
        let budget = Budget::unlimited();
        joint::shortest_over_patterns(a, &budget, "aov.orthant", |m, didx| {
            for sys in &dep_systems[didx] {
                let lambda_base = m.num_vars();
                for j in 0..sys.num_multipliers {
                    m.add_nonneg_var(format!("lam_{lambda_base}_{j}"));
                }
                let total = m.num_vars();
                for eq in &sys.equations {
                    // lhs(v) − Σ_j mult_j λ_j == 0, as one row.
                    let mut row = eq.lhs.coeffs().as_slice().to_vec();
                    row.resize(total, aov_numeric::Rational::zero());
                    for (j, c) in eq.multipliers.iter().enumerate() {
                        row[lambda_base + j] = -c;
                    }
                    let e = AffineExpr::from_parts(row.into(), eq.lhs.constant_term().clone());
                    m.constrain(e, Cmp::Eq);
                }
            }
        })
    }

    /// Problem 3's rows of every dependence over ℛ's generators.
    fn all_generator_rows(a: &Analysis) -> unreduced::DepRows {
        unreduced::all_rows(a, &|d| generator_rows(a.storage_forms(d), a.generators()))
    }

    /// Problem 1's rows of every dependence at the schedule point `theta`.
    fn all_schedule_rows(a: &Analysis, theta: &QVector) -> unreduced::DepRows {
        let theta = int::homogenize(theta);
        unreduced::all_rows(a, &|d| schedule_rows(a.storage_forms(d), &theta))
    }

    /// What a differential oracle compares: the objective and vectors,
    /// or the error class.
    fn verdict(r: Result<OvResult, CoreError>) -> Result<(i64, Vec<OccupancyVector>), String> {
        match r {
            Ok(ov) => Ok((ov.objective(), ov.vectors().to_vec())),
            Err(e) => Err(format!("{:?}", std::mem::discriminant(&e))),
        }
    }

    /// Oracle for the per-array search: on every corpus program, Problem
    /// 1 at the scheduler's schedule and Problem 3 return the objective,
    /// vectors and error class of the joint search over every array at
    /// once, whose storage forms are linearized anew per dependence.
    #[test]
    fn per_array_search_matches_joint_search() {
        let (mut p1_solved, mut p3_solved, mut multi_array) = (0, 0, 0);
        for p in oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let per_array = verdict(aov_budgeted(&a, &Budget::unlimited()));
            assert_eq!(per_array, verdict(joint::aov(&a)), "{}", p.name());
            p3_solved += usize::from(per_array.is_ok());
            multi_array += usize::from(p.arrays().len() > 1);
            let Ok(sched) = scheduler::find_schedule_with_budgeted(&a, &[], &Budget::unlimited())
            else {
                continue;
            };
            let per_array = verdict(ov_for_schedule_budgeted(&a, &sched, &Budget::unlimited()));
            let joint = verdict(joint::ov_for_schedule(&a, &sched));
            assert_eq!(per_array, joint, "{}", p.name());
            p1_solved += usize::from(per_array.is_ok());
        }
        assert!(
            p1_solved >= 150 && p3_solved >= 150 && multi_array >= 100,
            "{p1_solved} / {p3_solved} solved, {multi_array} multi-array"
        );
    }

    /// Oracle for the generator form: on every corpus program it returns
    /// the same AOVs, objective and error class as the Farkas form.
    #[test]
    fn generator_form_matches_farkas_form() {
        let (mut solved, mut compared) = (0, 0);
        for p in oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let generator = verdict(aov_budgeted(&a, &Budget::unlimited()));
            let farkas = verdict(aov_farkas(&a));
            assert_eq!(generator, farkas, "{}", p.name());
            compared += 1;
            solved += usize::from(generator.is_ok());
        }
        assert!(
            compared >= 300 && solved >= 150,
            "{compared} compared, {solved} solved"
        );
    }

    /// Oracle for the `v`-space pre-pass of Problems 1 (at the scheduler's
    /// schedule) and 3: on ex1–4 and every corpus program, each orthant
    /// of each array gets the verdict, optimum objective and vector of its
    /// unreduced ILP (no tie resolves differently), and each search
    /// returns the vectors, objective and error class of the unreduced
    /// search.
    #[test]
    fn v_space_orthants_match_unreduced_ilps() {
        let budget = Budget::unlimited();
        let solve_ilp = |m: &Model| m.solve_ilp_budgeted(&budget);
        let (mut orthants, mut pruned, mut solved) = (0, 0, 0);
        for p in oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let active = |d, pattern: &Orthant| a.active_in_orthant(d, pattern);
            let mut problems = vec![("aov.orthant", all_generator_rows(&a))];
            if let Ok(sched) = scheduler::find_schedule_with_budgeted(&a, &[], &budget) {
                let theta = legal::point_of(&p, a.space(), &sched);
                problems.push(("p1.orthant", all_schedule_rows(&a, &theta)));
            }
            for (site, dep_rows) in &problems {
                let rows_of = |d: usize| dep_rows[d].clone();
                let reduced = ReducedRows::new(dep_rows.len(), &rows_of);
                for aidx in 0..p.arrays().len() {
                    let o = ArrayOrthants::new(&a, aidx, active);
                    for (i, pattern) in o.patterns.iter().enumerate() {
                        assert_eq!(
                            o.solve(i, &reduced, solve_ilp).unwrap(),
                            unreduced::solve(&o, i, dep_rows, solve_ilp).unwrap(),
                            "{} {site} array {aidx} pattern {pattern:?}",
                            p.name()
                        );
                        orthants += 1;
                        pruned += usize::from(o.orthant_rows(i, &reduced).is_none());
                    }
                }
                let got = verdict(shortest_per_array(
                    &a, &budget, site, &rows_of, active, solve_ilp,
                ));
                let want = verdict(unreduced::shortest_per_array(
                    &a, &budget, site, dep_rows, solve_ilp,
                ));
                assert_eq!(got, want, "{} {site}", p.name());
                solved += usize::from(got.is_ok());
            }
        }
        assert!(
            orthants >= 4_000 && pruned * 2 >= orthants && pruned < orthants && solved >= 400,
            "{orthants} orthants, {pruned} pruned, {solved} solved"
        );
    }

    /// A storage form at the point `x`, by the rational evaluation of its
    /// coefficient forms that the matrix products replaced.
    fn rational_at(f: &BilinearForm, x: &QVector) -> AffineExpr {
        let coeffs = (0..f.num_unknowns()).map(|e| f.coeff(e).eval(x));
        AffineExpr::from_parts(coeffs.collect(), f.constant().eval(x))
    }

    /// A storage form's linear part along `r`, rationally.
    fn rational_along(f: &BilinearForm, r: &QVector) -> AffineExpr {
        let coeffs = (0..f.num_unknowns()).map(|e| f.coeff(e).coeffs().dot(r));
        AffineExpr::from_parts(coeffs.collect(), f.constant().coeffs().dot(r))
    }

    /// The point `x/λ` of a homogenized vertex row `(λ, x)`.
    fn point_of_row(v: &[BigInt]) -> QVector {
        let (lambda, x) = v.split_first().expect("homogenized");
        x.iter()
            .map(|x| Rational::from_big(x.clone(), lambda.clone()))
            .collect()
    }

    /// The direction `r` of a homogenized ray or line row `(0, r)`.
    fn direction_of_row(r: &[BigInt]) -> QVector {
        r[1..].iter().cloned().map(Rational::from).collect()
    }

    /// Oracle for the form matrices in Problems 1 and 3: on every corpus
    /// program, each dependence's generator rows over ℛ and its rows at
    /// the scheduler's schedule equal, in order, the rows the rational
    /// evaluation of its storage forms gives.
    #[test]
    fn form_products_match_rational_evaluation() {
        let (mut generator_lists, mut schedule_lists) = (0, 0);
        for p in oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let gens = a.generators();
            let theta = scheduler::find_schedule_with_budgeted(&a, &[], &Budget::unlimited())
                .ok()
                .map(|sched| legal::point_of(&p, a.space(), &sched));
            for d in 0..a.deps().len() {
                let forms = a.storage_forms(d);
                if !gens.is_empty() {
                    let mut want = Vec::new();
                    for f in forms {
                        let at = gens
                            .vertices
                            .iter()
                            .map(|x| Constraint::ge0(rational_at(f, &point_of_row(x))));
                        let rays = gens
                            .rays
                            .iter()
                            .map(|r| Constraint::ge0(rational_along(f, &direction_of_row(r))));
                        let lines = gens
                            .lines
                            .iter()
                            .map(|l| Constraint::eq0(rational_along(f, &direction_of_row(l))));
                        want.extend(
                            at.chain(rays)
                                .chain(lines)
                                .filter(|c| !c.is_trivially_true()),
                        );
                    }
                    let want = dedup_in_order(want);
                    assert_eq!(
                        generator_rows(forms, a.generators()),
                        want,
                        "{} dep {d}",
                        p.name()
                    );
                    generator_lists += 1;
                }
                if let Some(theta) = &theta {
                    let want: Vec<Constraint> = forms
                        .iter()
                        .map(|f| Constraint::ge0(rational_at(f, theta)))
                        .collect();
                    let got = schedule_rows(forms, &int::homogenize(theta));
                    assert_eq!(got, want, "{} dep {d}", p.name());
                    schedule_lists += 1;
                }
            }
        }
        assert!(
            generator_lists >= 550 && schedule_lists >= 550,
            "{generator_lists} generator and {schedule_lists} schedule row lists compared"
        );
    }

    /// Problem 3 builds a dependence's generator rows when an orthant
    /// first reads them, once: example3's loop reads 10 of its 19
    /// dependences.
    #[test]
    fn generator_rows_are_built_on_first_read() {
        let p = aov_ir::examples::example3();
        let a = Analysis::new(&p).unwrap();
        let budget = Budget::unlimited();
        let reads = std::cell::RefCell::new(Vec::new());
        let rows_of = |d: usize| {
            reads.borrow_mut().push(d);
            generator_rows(a.storage_forms(d), a.generators())
        };
        shortest_per_array(
            &a,
            &budget,
            "aov.orthant",
            &rows_of,
            |d, pattern| a.active_in_orthant(d, pattern),
            |m| m.solve_ilp_budgeted(&budget),
        )
        .unwrap();
        let mut reads = reads.into_inner();
        let calls = reads.len();
        reads.sort_unstable();
        reads.dedup();
        assert_eq!((calls, reads.len(), a.deps().len()), (10, 10, 19));
    }

    /// Oracle for the activity table in the orthant loops: on ex1–4,
    /// Problems 1 (at the scheduler's schedule) and 3 solve the same
    /// orthant ILPs in the same order, byte for byte by `canonical_key`,
    /// and reach the same verdict, with the analysis's activity table as
    /// with the per-pattern emptiness LPs.
    #[test]
    fn orthant_ilps_match_oracle_activity() {
        use crate::storage::dependence_active_in_orthant;
        use aov_ir::examples::example3;
        let budget = Budget::unlimited();
        for p in [example1(), example2(), example3(), example4()] {
            let a = Analysis::new(&p).unwrap();
            let sched = scheduler::find_schedule_with_budgeted(&a, &[], &budget).unwrap();
            let theta = legal::point_of(&p, a.space(), &sched);
            let problems = [
                ("p1.orthant", all_schedule_rows(&a, &theta)),
                ("aov.orthant", all_generator_rows(&a)),
            ];
            for (site, dep_rows) in &problems {
                let rows_of = |d: usize| dep_rows[d].clone();
                let solve = |active: &dyn Fn(usize, &Orthant) -> bool| {
                    let keys = std::cell::RefCell::new(Vec::new());
                    let ov = shortest_per_array(&a, &budget, site, &rows_of, active, |m| {
                        keys.borrow_mut().push(m.canonical_key());
                        m.solve_ilp_budgeted(&budget)
                    });
                    (verdict(ov), keys.into_inner())
                };
                let table = solve(&|d, pattern| a.active_in_orthant(d, pattern));
                let oracle =
                    solve(&|d, pattern| dependence_active_in_orthant(&p, &a.deps()[d], pattern));
                assert!(
                    table.0.is_ok() && !table.1.is_empty(),
                    "{} {site}",
                    p.name()
                );
                assert_eq!(table, oracle, "{} {site}", p.name());
            }
        }
    }

    /// Legality by one implication LP per dependence: the causality form
    /// at the schedule is nonnegative over the dependence domain jointly
    /// with the parameter domain.
    fn is_legal_by_lp(a: &Analysis, sched: &Schedule) -> bool {
        let p = a.program();
        let point = legal::point_of(p, a.space(), sched);
        a.deps().iter().all(|dep| {
            let form = legal::causality_form(p, a.space(), dep);
            let depth = p.statement(dep.target).depth();
            let region = dep.domain.intersect(&p.embed_param_domain(depth));
            crate::check::lp_model(&region).implies_nonneg(&form.fix_unknowns(&point))
        })
    }

    /// Oracle for the legality check of Problem 1 and
    /// [`Analysis::is_legal`]: on every corpus program, membership in ℛ
    /// agrees with one implication LP per dependence ([`is_legal_by_lp`])
    /// at the scheduler's schedule and at each of its neighbours one unit
    /// away along an iteration coefficient.
    #[test]
    fn membership_in_legal_polyhedron_is_legality() {
        let (mut schedules, mut illegal) = (0, 0);
        for p in oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let Ok(sched) = scheduler::find_schedule_with_budgeted(&a, &[], &Budget::unlimited())
            else {
                continue;
            };
            let theta = legal::point_of(&p, a.space(), &sched);
            let mut points = vec![theta.clone()];
            for s in p.stmt_ids() {
                for k in 0..p.statement(s).depth() {
                    for step in [1, -1] {
                        let mut q = theta.clone();
                        q[a.space().iter_coeff(s, k)] += &aov_numeric::Rational::from(step);
                        points.push(q);
                    }
                }
            }
            for q in points {
                let sched = a.space().schedule_at(&q);
                let legal = is_legal_by_lp(&a, &sched);
                assert_eq!(a.legal().contains(&q), legal, "{} at {q:?}", p.name());
                assert_eq!(a.is_legal(&sched), legal, "{} at {q:?}", p.name());
                schedules += 1;
                illegal += usize::from(!legal);
            }
        }
        assert!(
            schedules >= 1_000 && illegal > 0 && illegal < schedules,
            "{schedules} schedules, {illegal} illegal"
        );
    }

    /// Reference for [`solve_patterns`]: every pattern solved, in index
    /// order, with no pruning; the minimum under `(objective, pattern
    /// index)`. The first failure ends the scan.
    fn index_order_scan<T>(
        patterns: usize,
        solve: impl Fn(usize) -> Result<Option<OrthantSolution<T>>, AovError>,
    ) -> Result<Option<OrthantSolution<T>>, AovError> {
        let mut best: Option<(i64, usize, T)> = None;
        for i in 0..patterns {
            if let Some((obj, vs)) = solve(i)? {
                if best.as_ref().is_none_or(|(b, bi, _)| (obj, i) < (*b, *bi)) {
                    best = Some((obj, i, vs));
                }
            }
        }
        Ok(best.map(|(obj, _, vs)| (obj, vs)))
    }

    /// [`shortest_per_array`] over `dep_rows` with the analysis's
    /// activity table, each array's orthants solved by
    /// [`index_order_scan`] instead of the bound-ordered loop.
    fn scan_per_array(a: &Analysis, dep_rows: &unreduced::DepRows) -> Result<OvResult, CoreError> {
        let budget = Budget::unlimited();
        let rows_of = |d: usize| dep_rows[d].clone();
        let reduced = ReducedRows::new(a.deps().len(), &rows_of);
        let p = a.program();
        let mut vectors = Vec::with_capacity(p.arrays().len());
        for aidx in 0..p.arrays().len() {
            let o = ArrayOrthants::new(a, aidx, |d, pattern| a.active_in_orthant(d, pattern));
            let (_, v) = index_order_scan(o.patterns.len(), |i| {
                o.solve(i, &reduced, |m| m.solve_ilp_budgeted(&budget))
            })?
            .ok_or(CoreError::NoVectorFound)?;
            vectors.push(v);
        }
        Ok(OvResult::new(p, vectors))
    }

    /// Oracle for the bound-ordered orthant loop: Problems 1 (at the
    /// scheduler's schedule) and 3 return what the unpruned index-order
    /// scan over the same orthants returns ([`scan_per_array`]).
    #[test]
    fn ordered_loop_matches_index_order_scan() {
        let (mut p1_solved, mut p3_solved) = (0, 0);
        for p in oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let ordered = verdict(aov_budgeted(&a, &Budget::unlimited()));
            let index_order = if a.generators().is_empty() {
                Err(CoreError::Unschedulable)
            } else {
                scan_per_array(&a, &all_generator_rows(&a))
            };
            assert_eq!(ordered, verdict(index_order), "{}", p.name());
            p3_solved += usize::from(ordered.is_ok());
            let Ok(sched) = scheduler::find_schedule_with_budgeted(&a, &[], &Budget::unlimited())
            else {
                continue;
            };
            let theta = legal::point_of(&p, a.space(), &sched);
            let ordered = verdict(ov_for_schedule_budgeted(&a, &sched, &Budget::unlimited()));
            let index_order = verdict(scan_per_array(&a, &all_schedule_rows(&a, &theta)));
            assert_eq!(ordered, index_order, "{}", p.name());
            p1_solved += usize::from(ordered.is_ok());
        }
        assert!(
            p1_solved >= 150 && p3_solved >= 150,
            "{p1_solved} / {p3_solved}"
        );
    }

    /// Oracle for the loop itself, on synthetic orthant optima with
    /// many cross-pattern ties: the bound-ordered, pruned loop returns
    /// the minimum of `(objective, pattern index)` that
    /// [`index_order_scan`] finds, and it prunes.
    #[test]
    fn ordered_loop_matches_index_order_scan_on_synthetic_optima() {
        let patterns: Vec<Orthant> = sign_patterns(3)
            .into_iter()
            .filter(|pat| pat.iter().any(|&s| s != 0))
            .collect();
        let mut rng = aov_support::rng::Rng::new(42);
        let solves = std::cell::Cell::new(0);
        let trials = 2000;
        for _ in 0..trials {
            // Each orthant is infeasible, or its optimum has a length of
            // its nonzero count or one more, and an evenness of 0..=3.
            let optima: Vec<Option<i64>> = patterns
                .iter()
                .map(|pat| {
                    let nonzeros = pat.iter().filter(|&&s| s != 0).count() as i64;
                    let length = nonzeros + rng.i64_in(0, 1);
                    (rng.u64_below(3) != 0).then(|| LENGTH_WEIGHT * length + rng.i64_in(0, 3))
                })
                .collect();
            let optimum =
                |i: usize| optima[i].map(|obj| (obj, OccupancyVector::new(vec![i as i64])));
            let scan = index_order_scan(patterns.len(), |i| Ok(optimum(i)));
            let solve = |i: usize| {
                solves.set(solves.get() + 1);
                Ok(optimum(i))
            };
            let ordered = solve_patterns(&patterns, &Budget::unlimited(), "aov.orthant", solve);
            assert_eq!(ordered.unwrap(), scan.unwrap(), "optima {optima:?}");
        }
        assert!(
            solves.get() < trials * patterns.len(),
            "the loop must prune"
        );
    }

    #[test]
    fn problem2_too_short_vector_unschedulable() {
        let p = example1();
        // v = (0, 0): values overwritten as produced; no affine schedule
        // can satisfy read-before-overwrite together with causality.
        let r = best_schedule_for_ov(&p, &[OccupancyVector::new(vec![0, 0])]);
        assert!(matches!(r, Err(CoreError::Unschedulable)));
    }
}
