//! The paper's three schedule/storage problems (§4.5).

use crate::check::Checker;
use crate::objective::{evenness, objective_value, LENGTH_WEIGHT};
use crate::storage::{
    dependence_active_in_orthant, sign_patterns, storage_forms_for_dep, storage_rows_concrete,
    Orthant,
};
use crate::{CoreError, OccupancyVector};
use aov_fault::{AovError, Budget};
use aov_ir::{ArrayId, Program};
use aov_linalg::AffineExpr;
use aov_lp::{Cmp, LpOutcome, Model};
use aov_polyhedra::param::dedup_in_order;
use aov_polyhedra::{Constraint, GeneratorSet, Polyhedron};
use aov_schedule::{legal, scheduler, Analysis, BilinearForm, Schedule};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::PoisonError;

/// Default search radius (max Manhattan length) for the exact
/// candidate-enumeration solvers.
pub const DEFAULT_SEARCH_RADIUS: i64 = 8;

/// An orthant's optimum: its exact objective and what attains it.
type OrthantSolution<T> = (i64, T);

/// Each dependence's rows over its source array's vector components,
/// parallel to [`Analysis::deps`].
type DepRows = Vec<Vec<(AffineExpr, Cmp)>>;

/// Lower bound on the objective inside a sign pattern: every nonzero
/// component adds at least `LENGTH_WEIGHT` to the length term, and the
/// evenness term is nonnegative.
fn pattern_bound(pattern: &Orthant) -> i64 {
    LENGTH_WEIGHT * pattern.iter().filter(|&&s| s != 0).count() as i64
}

/// Solves the per-orthant subproblems of one array in Problems 1 and 3
/// in one sequential loop and returns the minimum under the key
/// `(objective, pattern index)`.
///
/// Under an unlimited budget the loop visits patterns by
/// `(bound, index)` ([`pattern_bound`]) and stops at the first whose key
/// exceeds the incumbent's `(objective, index)`: every later pattern
/// has a larger key, so none can win. The answer is the index-order
/// minimum by construction, and the work done is a function of the
/// input alone. Under a finite budget every pattern is solved, in index
/// order, so where the budget trips does not depend on incumbents.
///
/// Fault behaviour: the budget is checked and the chaos site ticked
/// before each orthant, and each solve runs under `catch_unwind`, so a
/// panicking orthant surfaces as [`AovError::WorkerPanic`]. The first
/// failure ends the loop.
///
/// [`shortest_per_array`] runs it once per array, over that array's own
/// nonzero sign patterns.
fn solve_patterns<T>(
    patterns: &[Orthant],
    budget: &Budget,
    site: &'static str,
    solve: impl Fn(&Orthant) -> Result<Option<OrthantSolution<T>>, AovError>,
) -> Result<Option<OrthantSolution<T>>, AovError> {
    let pruning = budget.is_unlimited();
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    if pruning {
        order.sort_by_key(|&i| (pattern_bound(&patterns[i]), i));
    }
    let mut best: Option<(i64, usize, T)> = None;
    for i in order {
        let pat = &patterns[i];
        if pruning
            && best
                .as_ref()
                .is_some_and(|(obj, bi, _)| (pattern_bound(pat), i) > (*obj, *bi))
        {
            break;
        }
        let solved = catch_unwind(AssertUnwindSafe(|| -> Result<_, AovError> {
            budget.check(site)?;
            aov_fault::chaos::tick(site)?;
            solve(pat)
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
/// nonzero sign patterns of its `d` components; each pattern is one ILP
/// over those components with the rows `dep_rows[dep]` of every
/// dependence whose source writes the array and is active in the
/// pattern, the pattern's sign rows and the array's two-term objective.
/// `site` names the per-orthant span, budget checkpoint and chaos site.
///
/// It returns what one search over every array's components at once
/// returns: a dependence's rows involve only its source array's vector,
/// and the objective is a sum over arrays, so the joint ILP of a pattern
/// is the direct sum of the per-array ILPs of its slices. `sign_patterns` is lexicographic over the array-contiguous
/// components, so the joint `(objective, index)` minimum is the tuple
/// of the per-array minima.
fn shortest_per_array(
    a: &Analysis,
    budget: &Budget,
    site: &'static str,
    dep_rows: &DepRows,
) -> Result<OvResult, CoreError> {
    let p = a.program();
    let mut vectors = Vec::with_capacity(p.arrays().len());
    for (aidx, array) in p.arrays().iter().enumerate() {
        let writers: Vec<usize> = (0..a.deps().len())
            .filter(|&d| p.statement(a.deps()[d].source).writes() == ArrayId(aidx))
            .collect();
        let patterns: Vec<Orthant> = sign_patterns(array.dim())
            .into_iter()
            .filter(|pat| pat.iter().any(|&s| s != 0))
            .collect();
        let solve = |pattern: &Orthant| {
            let _span = aov_trace::span!(site, pattern = pattern_label(pattern));
            let mut m = Model::new();
            for k in 0..array.dim() {
                let v = m.add_var(format!("v_{}_{k}", array.name()));
                m.set_integer(v);
            }
            for &didx in &writers {
                if dependence_active_in_orthant(p, &a.deps()[didx], pattern) {
                    for (r, cmp) in &dep_rows[didx] {
                        m.constrain(r.clone(), *cmp);
                    }
                }
            }
            let obj = install_pattern_objective(&mut m, array.name(), pattern);
            m.minimize(obj);
            Ok(candidate_of(array.dim(), m.solve_ilp_budgeted(budget)?))
        };
        let (_, v) =
            solve_patterns(&patterns, budget, site, solve)?.ok_or(CoreError::NoVectorFound)?;
        vectors.push(v);
    }
    Ok(OvResult::new(p, vectors))
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
/// forms are linearized at the dependence-domain vertices `a` kept, and
/// each array is solved on its own ([`shortest_per_array`]): one ILP per
/// sign orthant of its vector (closed orthants; exact `Z`-emptiness
/// pruning per orthant). Every simplex pivot and branch-and-bound node
/// charges `budget`.
///
/// # Errors
///
/// * [`CoreError::IllegalSchedule`] — the schedule violates dependences.
/// * [`CoreError::NoVectorFound`] — no orthant of some array admits a
///   valid vector.
/// * [`CoreError::Fault`] — budget exhaustion, cancellation, or an
///   isolated orthant panic.
pub fn ov_for_schedule_budgeted(
    a: &Analysis,
    sched: &Schedule,
    budget: &Budget,
) -> Result<OvResult, CoreError> {
    if !a.is_legal(sched) {
        return Err(CoreError::IllegalSchedule);
    }
    let theta = legal::point_of(a.program(), a.space(), sched);
    // Pattern-independent rows, instantiated at the schedule point.
    let mut dep_rows: DepRows = Vec::with_capacity(a.deps().len());
    for didx in 0..a.deps().len() {
        let _span = aov_trace::span!("core.storage_forms_for_dep", dep = didx);
        let forms = storage_forms_for_dep(a, didx);
        dep_rows.push(
            forms
                .iter()
                .map(|f| (f.at_point(&theta), Cmp::Ge))
                .collect(),
        );
    }
    shortest_per_array(a, budget, "p1.orthant", &dep_rows)
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
    let p = a.program();
    let checker = Checker::new(a);
    let mut vectors = Vec::new();
    for (aidx, a) in p.arrays().iter().enumerate() {
        let aid = aov_ir::ArrayId(aidx);
        let found = search_shells(a.dim(), max_radius, |v| {
            checker.valid_for_schedule(aid, v, sched)
        });
        match found {
            Some(v) => vectors.push(OccupancyVector::new(v)),
            None => return Err(CoreError::NoVectorFound),
        }
    }
    Ok(OvResult::new(p, vectors))
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
    let mut extra = storage_rows_concrete(a.program(), a.space(), a.deps(), vectors)?;
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
/// vectors. The scheduling ILP charges `budget` per pivot and per
/// branch-and-bound node.
///
/// # Errors
///
/// * [`CoreError::Unschedulable`] — no schedule respects both the
///   dependences and the storage constraints (the vectors are too
///   short for any affine schedule).
/// * [`CoreError::Fault`] — budget exhaustion or cancellation.
pub fn best_schedule_for_ov_budgeted(
    a: &Analysis,
    vectors: &[OccupancyVector],
    budget: &Budget,
) -> Result<Schedule, CoreError> {
    let extra: Vec<(AffineExpr, Cmp)> = storage_rows(a, vectors)?
        .into_iter()
        .map(|r| (r, Cmp::Ge))
        .collect();
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
/// lemma (§4.5.3; [`aov_schedule::farkas`]). This solver uses the
/// equivalent generator form, the paper's Theorem 1 (Minkowski–Weyl)
/// applied to ℛ = conv(vertices) + cone(rays) + span(lines): `G ≥ 0` on
/// ℛ exactly when `G(v, x) ≥ 0` at every vertex `x`, `G`'s linear part
/// is `≥ 0` along every ray and `= 0` along every line. Each generator
/// gives one row linear in `v` alone, with no multipliers. The storage
/// forms come from the dependence-domain vertices `a` kept, and a row of
/// a dependence involves only its source array's vector, so each array
/// is solved on its own ([`shortest_per_array`]): one ILP per sign
/// orthant of its vector minimizes its two-term objective. Every simplex
/// pivot and branch-and-bound node charges `budget`.
///
/// The generator count of ℛ can grow exponentially with its dimension.
/// The counters `core.aov.generators` and `core.aov.generator_rows`
/// record it, against `core.aov.farkas_multipliers`: the multipliers the
/// Farkas form would introduce, one per row of ℛ plus one per storage
/// form, counted before its redundancy pass.
///
/// # Errors
///
/// * [`CoreError::Unschedulable`] — the program has no one-dimensional
///   affine schedule, so "valid for all legal schedules" is vacuous.
/// * [`CoreError::NoVectorFound`] — no orthant of some array admits a
///   vector.
/// * [`CoreError::Fault`] — budget exhaustion, cancellation, or an
///   isolated orthant panic.
pub fn aov_budgeted(a: &Analysis, budget: &Budget) -> Result<OvResult, CoreError> {
    let gens = a.legal().generators();
    if gens.is_empty() {
        return Err(CoreError::Unschedulable);
    }
    let mut dep_rows: DepRows = Vec::with_capacity(a.deps().len());
    let mut forms_total = 0;
    for didx in 0..a.deps().len() {
        let _span = aov_trace::span!("core.storage_forms_for_dep", dep = didx);
        let forms = storage_forms_for_dep(a, didx);
        forms_total += forms.len();
        dep_rows.push(generator_rows(&forms, &gens));
    }
    let generators = gens.vertices.len() + gens.rays.len() + gens.lines.len();
    aov_support::static_counter!("core.aov.generators").add(generators as u64);
    aov_support::static_counter!("core.aov.generator_rows")
        .add(dep_rows.iter().map(Vec::len).sum::<usize>() as u64);
    aov_support::static_counter!("core.aov.farkas_multipliers")
        .add((forms_total * (a.rows().len() + 1)) as u64);
    shortest_per_array(a, budget, "aov.orthant", &dep_rows)
}

/// Problem 3's rows for one dependence, in `v` alone (see
/// [`aov_budgeted`]): each storage form at each vertex of ℛ (`>= 0`),
/// along each ray (`>= 0`) and along each line (`== 0`), cleared of
/// denominators, with duplicates and trivially true rows dropped.
fn generator_rows(forms: &[BilinearForm], gens: &GeneratorSet) -> Vec<(AffineExpr, Cmp)> {
    let _span = aov_trace::span!("aov.generator_rows", forms = forms.len());
    let mut out = Vec::new();
    for f in forms {
        let at_vertices = gens.vertices.iter().map(|x| (f.at_point(x), Cmp::Ge));
        let along_rays = gens.rays.iter().map(|r| (f.linear_part_along(r), Cmp::Ge));
        let along_lines = gens.lines.iter().map(|l| (f.linear_part_along(l), Cmp::Eq));
        for (row, cmp) in at_vertices.chain(along_rays).chain(along_lines) {
            let trivial = row.is_constant()
                && match cmp {
                    Cmp::Eq => row.constant_term().is_zero(),
                    _ => !row.constant_term().is_negative(),
                };
            if !trivial {
                out.push((row.clear_denominators(), cmp));
            }
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
    aov_search_with(&Analysis::new(p)?, max_radius, 1)
}

/// Exact cross-check for Problem 3 with the per-array searches fanned
/// out over `workers` threads (`<= 1` means sequential). Arrays are
/// independent and the workers share one checker, so the result is
/// bit-identical to the sequential search.
///
/// # Errors
///
/// * [`CoreError::Unschedulable`] / [`CoreError::NoVectorFound`] as for
///   [`aov_budgeted`].
pub fn aov_search_with(
    a: &Analysis,
    max_radius: i64,
    workers: usize,
) -> Result<OvResult, CoreError> {
    if a.legal().is_empty() {
        return Err(CoreError::Unschedulable);
    }
    let p = a.program();
    let checker = Checker::new(a);
    let narrays = p.arrays().len();
    let search_one = |aidx: usize| -> Result<OccupancyVector, CoreError> {
        let _span = aov_trace::span!("aov.search_array", array = aidx);
        let aid = aov_ir::ArrayId(aidx);
        let dim = p.arrays()[aidx].dim();
        let mut err: Option<CoreError> = None;
        let found = {
            let e = &mut err;
            search_shells(dim, max_radius, |v| {
                match checker.valid_for_all_schedules(aid, v) {
                    Ok(ok) => ok,
                    Err(pe) => {
                        *e = Some(CoreError::Polyhedra(pe));
                        false
                    }
                }
            })
        };
        if let Some(e) = err {
            return Err(e);
        }
        found
            .map(OccupancyVector::new)
            .ok_or(CoreError::NoVectorFound)
    };
    if workers <= 1 || narrays <= 1 {
        let mut vectors = Vec::with_capacity(narrays);
        for aidx in 0..narrays {
            vectors.push(search_one(aidx)?);
        }
        return Ok(OvResult::new(p, vectors));
    }
    // Results land in array order. Each per-array search runs under
    // `catch_unwind` so a panicking worker surfaces as a structured
    // `WorkerPanic` for its slot instead of aborting the scope.
    let mut slots: Vec<Option<Result<OccupancyVector, CoreError>>> = Vec::new();
    slots.resize_with(narrays, || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slot_refs: Vec<std::sync::Mutex<&mut Option<Result<OccupancyVector, CoreError>>>> =
        slots.iter_mut().map(std::sync::Mutex::new).collect();
    let ctx = aov_trace::current_context();
    std::thread::scope(|s| {
        for _ in 0..workers.min(narrays) {
            s.spawn(|| {
                let _adopt = aov_trace::adopt(&ctx);
                loop {
                    let aidx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if aidx >= narrays {
                        break;
                    }
                    let r = catch_unwind(AssertUnwindSafe(|| search_one(aidx))).unwrap_or_else(
                        |payload| {
                            Err(CoreError::Fault(AovError::from_panic(
                                "aov.search_array",
                                payload.as_ref(),
                            )))
                        },
                    );
                    **slot_refs[aidx]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(r);
                }
            });
        }
    });
    drop(slot_refs);
    let mut vectors = Vec::with_capacity(narrays);
    for slot in slots {
        match slot {
            Some(r) => vectors.push(r?),
            None => {
                return Err(CoreError::Fault(AovError::Internal {
                    detail: "array search slot left unfilled".to_string(),
                }))
            }
        }
    }
    Ok(OvResult::new(p, vectors))
}

// ---------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------

/// Adds the sign-pattern constraints (`v_k >= 1`, `v_k <= -1` or
/// `v_k == 0`) and the two-term objective of one array's vector, whose
/// components are the model's first `pattern.len()` variables; returns
/// the objective expression. Within a pattern `|v_k| = sign_k · v_k`
/// exactly.
fn install_pattern_objective(m: &mut Model, array: &str, pattern: &Orthant) -> AffineExpr {
    let dim = pattern.len();
    for (k, &sign) in pattern.iter().enumerate() {
        let var = AffineExpr::var(dim, k);
        if sign == 0 {
            m.constrain(var, Cmp::Eq);
        } else {
            let e = &var.scale(&i64::from(sign).into()) - &AffineExpr::constant(dim, 1.into());
            m.constrain(e, Cmp::Ge);
        }
    }
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

/// Enumerates integer vectors by increasing Manhattan length, breaking
/// ties by the evenness term, and returns the first (hence objective-
/// minimal) vector accepted by `valid`.
fn search_shells(
    dim: usize,
    max_radius: i64,
    mut valid: impl FnMut(&[i64]) -> bool,
) -> Option<Vec<i64>> {
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
            if valid(&v) {
                return Some(v);
            }
        }
    }
    None
}

/// Crate-internal re-export of the shell enumerator (used by the UOV
/// baseline search).
pub(crate) fn enumerate_shell_for_tests(dim: usize, r: i64) -> Vec<Vec<i64>> {
    enumerate_shell(dim, r)
}

/// All integer vectors with Manhattan length exactly `r`.
fn enumerate_shell(dim: usize, r: i64) -> Vec<Vec<i64>> {
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

/// Test oracle: the joint search over every array's vector components
/// at once, one ILP per joint sign pattern, over storage forms linearized
/// anew from each dependence domain — the search before it was split per
/// array.
#[cfg(test)]
mod joint {
    use super::{pattern_label, solve_patterns, OrthantSolution, OvResult};
    use crate::objective::{objective_value, LENGTH_WEIGHT};
    use crate::storage::{dependence_active_in_orthant, reference, sign_patterns, Orthant};
    use crate::{CoreError, OccupancyVector, OvSpace};
    use aov_fault::Budget;
    use aov_ir::{Dependence, Program};
    use aov_linalg::AffineExpr;
    use aov_lp::{Cmp, LpOutcome, Model};
    use aov_schedule::{legal, Analysis, BilinearForm, Schedule};

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
        let gens = a.legal().generators();
        if gens.is_empty() {
            return Err(CoreError::Unschedulable);
        }
        let dep_rows: Vec<Vec<(AffineExpr, Cmp)>> = joint_forms(a)?
            .iter()
            .map(|forms| super::generator_rows(forms, &gens))
            .collect();
        shortest_over_patterns(a, &Budget::unlimited(), "aov.orthant", |m, didx| {
            for (r, cmp) in &dep_rows[didx] {
                m.constrain(r.clone(), *cmp);
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
        let solve = |pattern: &Orthant| {
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

    /// The paper's Farkas form of Problem 3 (§4.5.3): each storage form
    /// is equated to a nonnegative combination of ℛ's irredundant rows,
    /// with fresh multipliers per form. Kept as the oracle of the
    /// generator form [`aov_budgeted`] uses.
    fn aov_farkas(a: &Analysis) -> Result<OvResult, CoreError> {
        if a.legal().is_empty() {
            return Err(CoreError::Unschedulable);
        }
        let sched_rows: Vec<AffineExpr> = a
            .legal()
            .remove_redundant()
            .constraints()
            .iter()
            .map(|c| c.expr().clone())
            .collect();
        let dep_systems: Vec<Vec<_>> = joint::joint_forms(a)?
            .iter()
            .map(|forms| {
                forms
                    .iter()
                    .map(|f| aov_schedule::farkas::farkas_system(f, &sched_rows))
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

    /// Oracle for the bound-ordered orthant loop: under an unlimited
    /// budget it returns what the unpruned index-order scan returns. A
    /// finite budget turns pruning off and visits patterns in index
    /// order, so a limit no solve reaches gives that scan.
    #[test]
    fn ordered_loop_matches_index_order_scan() {
        let scan = || Budget::new(Some(u64::MAX - 1), None, None);
        let (mut p1_solved, mut p3_solved) = (0, 0);
        for p in oracle_corpus() {
            let Ok(a) = Analysis::new(&p) else { continue };
            let ordered = verdict(aov_budgeted(&a, &Budget::unlimited()));
            assert_eq!(ordered, verdict(aov_budgeted(&a, &scan())), "{}", p.name());
            p3_solved += usize::from(ordered.is_ok());
            let Ok(sched) = scheduler::find_schedule_with_budgeted(&a, &[], &Budget::unlimited())
            else {
                continue;
            };
            let ordered = verdict(ov_for_schedule_budgeted(&a, &sched, &Budget::unlimited()));
            let index_order = verdict(ov_for_schedule_budgeted(&a, &sched, &scan()));
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
    /// the minimum of `(objective, pattern index)` that an unpruned
    /// index-order scan finds, and it prunes.
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
            let scan = optima
                .iter()
                .enumerate()
                .filter_map(|(i, o)| o.map(|obj| (obj, i)))
                .min()
                .map(|(obj, i)| (obj, OccupancyVector::new(vec![i as i64])));
            let solve = |pat: &Orthant| {
                solves.set(solves.get() + 1);
                let i = patterns.iter().position(|q| q == pat).unwrap();
                Ok(optima[i].map(|obj| (obj, OccupancyVector::new(vec![i as i64]))))
            };
            let ordered = solve_patterns(&patterns, &Budget::unlimited(), "aov.orthant", solve);
            assert_eq!(ordered.unwrap(), scan, "optima {optima:?}");
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
