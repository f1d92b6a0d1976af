//! The paper's three schedule/storage problems (§4.5).

use crate::check::Checker;
use crate::objective::{evenness, objective_value, LENGTH_WEIGHT};
use crate::storage::{
    dependence_active_in_pattern, sign_patterns, storage_forms_for_dep, storage_rows_concrete,
    Orthant,
};
use crate::{CoreError, OccupancyVector, OvSpace};
use aov_fault::{AovError, Budget};
use aov_ir::Program;
use aov_linalg::AffineExpr;
use aov_lp::{Cmp, LpOutcome, Model};
use aov_polyhedra::{Constraint, Polyhedron};
use aov_schedule::farkas::farkas_system;
use aov_schedule::{legal, scheduler, Analysis, Schedule};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::PoisonError;

/// Default search radius (max Manhattan length) for the exact
/// candidate-enumeration solvers.
pub const DEFAULT_SEARCH_RADIUS: i64 = 8;

/// Solves the per-orthant subproblems with a deterministic reduction.
///
/// The sequential scan keeps the first pattern achieving a strictly
/// smaller objective, which is exactly the minimum under the key
/// `(objective, pattern index)`. The parallel branch distributes
/// patterns over `std::thread::scope` workers and reduces by the same
/// key, so both modes return bit-identical results. The incumbent bound
/// is shared for pruning; the parallel branch prunes strictly (`>`
/// instead of `>=`) so equal-objective patterns with smaller indices are
/// never lost to a later-indexed pattern that merely finished first.
///
/// Fault behaviour: each orthant solve runs under `catch_unwind`, so a
/// panicking worker surfaces as [`AovError::WorkerPanic`] instead of
/// poisoning the whole `std::thread::scope`. The fan-out runs under a
/// [`Budget::child`] scope: the first failure cancels the child, so
/// losing siblings stop pivoting, while the caller's budget — and any
/// later pipeline stage sharing it — stays live. Sibling cancellation
/// errors are ranked below the primary cause in the error reduction,
/// keeping the reported failure deterministic. Under a *finite* budget,
/// incumbent pruning is disabled: pruning makes the per-pattern work
/// depend on completion order, and solving every pattern is what makes
/// the budget trip point worker-count-invariant.
type OrthantSolution = (i64, Vec<OccupancyVector>);
type OrthantSolver<'a> =
    &'a (dyn Fn(&Orthant, &Budget) -> Result<Option<OrthantSolution>, AovError> + Sync);

fn fan_out_patterns(
    patterns: &[Orthant],
    workers: usize,
    budget: &Budget,
    site: &'static str,
    prune: &(dyn Fn(&Orthant) -> i64 + Sync),
    solve: OrthantSolver<'_>,
) -> Result<Option<OrthantSolution>, AovError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let pruning = budget.is_unlimited();
    // Child scope: shares the work counters (limits stay global) but
    // owns the cancel flag, so first-failure cancellation of this
    // fan-out cannot poison later stages using the parent budget.
    let scoped = budget.child();
    let run_one = |pat: &Orthant| -> Result<Option<OrthantSolution>, AovError> {
        match catch_unwind(AssertUnwindSafe(|| -> Result<_, AovError> {
            scoped.check(site)?;
            aov_fault::chaos::tick(site)?;
            solve(pat, &scoped)
        })) {
            Ok(r) => r,
            Err(payload) => Err(AovError::from_panic(site, payload.as_ref())),
        }
    };
    if workers <= 1 || patterns.len() <= 1 {
        let mut best: Option<(i64, Vec<OccupancyVector>)> = None;
        for pat in patterns {
            if pruning {
                if let Some((bound, _)) = &best {
                    if prune(pat) >= *bound {
                        continue;
                    }
                }
            }
            if let Some((obj, vs)) = run_one(pat)? {
                if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                    best = Some((obj, vs));
                }
            }
        }
        return Ok(best);
    }
    let next = AtomicUsize::new(0);
    let bound = Mutex::new(i64::MAX);
    let results: Mutex<Vec<(usize, i64, Vec<OccupancyVector>)>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<(usize, AovError)>> = Mutex::new(Vec::new());
    // Worker spans adopt the caller's span so the trace stays one tree.
    let ctx = aov_trace::current_context();
    std::thread::scope(|s| {
        for _ in 0..workers.min(patterns.len()) {
            s.spawn(|| {
                let _adopt = aov_trace::adopt(&ctx);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= patterns.len() || scoped.is_cancelled() {
                        break;
                    }
                    let pat = &patterns[i];
                    if pruning && prune(pat) > *lock(&bound) {
                        continue;
                    }
                    aov_support::static_counter!("core.fanout.patterns").add(1);
                    match run_one(pat) {
                        Ok(Some((obj, vs))) => {
                            let mut b = lock(&bound);
                            if obj < *b {
                                *b = obj;
                            }
                            drop(b);
                            lock(&results).push((i, obj, vs));
                        }
                        Ok(None) => {}
                        Err(e) => {
                            // First failure wins; cancel the siblings
                            // (losing orthants stop pivoting at their
                            // next budget checkpoint).
                            lock(&failures).push((i, e));
                            scoped.cancel();
                        }
                    }
                }
            });
        }
    });
    let failures = failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if !failures.is_empty() {
        // Deterministic reduction of concurrent failures: the primary
        // cause (lowest pattern index among non-cancellation errors)
        // beats the cancellations it triggered. Every real budget trip
        // carries the identical (resource, limit, site) payload, so the
        // reported error is worker-count-invariant.
        let cause = failures
            .into_iter()
            .min_by_key(|(i, e)| (e.is_cancellation(), *i))
            .map(|(_, e)| e);
        return Err(cause.unwrap_or(AovError::Internal {
            detail: "failure set emptied during reduction".to_string(),
        }));
    }
    Ok(results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .min_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)))
        .map(|(_, obj, vs)| (obj, vs)))
}

/// Poison-tolerant lock: orthant workers isolate panics via
/// `catch_unwind`, so a poisoned mutex still guards consistent data.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts an integral candidate and its exact objective from an ILP
/// outcome (the reduction key of [`fan_out_patterns`]).
fn candidate_of(ov_space: &OvSpace, outcome: LpOutcome) -> Option<(i64, Vec<OccupancyVector>)> {
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

/// Shortest occupancy vectors valid for the given schedule (Problem 1),
/// with the per-orthant subproblems fanned out over `workers` threads
/// (`<= 1` means sequential); see [`ov_for_schedule_budgeted`].
///
/// # Errors
///
/// As for [`ov_for_schedule_budgeted`], plus [`CoreError::Polyhedra`]
/// when the program's causality constraints cannot be linearized.
pub fn ov_for_schedule_with(
    p: &Program,
    sched: &Schedule,
    workers: usize,
) -> Result<OvResult, CoreError> {
    ov_for_schedule_budgeted(&Analysis::new(p)?, sched, workers, &Budget::unlimited())
}

/// Shortest occupancy vectors valid for the given schedule, by the
/// paper's LP method: substitute the schedule into the linearized
/// storage constraints and minimize the two-term objective, solving once
/// per sign orthant (closed orthants; exact `Z`-emptiness pruning per
/// orthant). The orthants fan out over `workers` threads with results
/// bit-identical to the sequential solver. Every simplex pivot and
/// branch-and-bound node charges `budget`.
///
/// # Errors
///
/// * [`CoreError::IllegalSchedule`] — the schedule violates dependences.
/// * [`CoreError::NoVectorFound`] — no orthant admits a valid vector.
/// * [`CoreError::Fault`] — budget exhaustion, cancellation, or an
///   isolated worker panic.
pub fn ov_for_schedule_budgeted(
    a: &Analysis,
    sched: &Schedule,
    workers: usize,
    budget: &Budget,
) -> Result<OvResult, CoreError> {
    if !a.is_legal(sched) {
        return Err(CoreError::IllegalSchedule);
    }
    let (p, space, deps) = (a.program(), a.space(), a.deps());
    let ov_space = OvSpace::new(p);
    let theta = legal::point_of(p, space, sched);
    // Pattern-independent rows, instantiated at the schedule point.
    let mut dep_rows: Vec<Vec<AffineExpr>> = Vec::with_capacity(deps.len());
    for (didx, dep) in deps.iter().enumerate() {
        let _span = aov_trace::span!("core.storage_forms_for_dep", dep = didx);
        let forms = storage_forms_for_dep(p, space, &ov_space, dep)?;
        dep_rows.push(forms.iter().map(|f| f.at_point(&theta)).collect());
    }
    let patterns: Vec<Orthant> = sign_patterns(ov_space.dim())
        .into_iter()
        .filter(|pat| !pattern_has_zero_array(p, &ov_space, pat))
        .collect();
    let solve = |pattern: &Orthant, b: &Budget| {
        let _span = aov_trace::span!("p1.orthant", pattern = pattern_label(pattern));
        let mut m = Model::new();
        for name in ov_space.vars().names() {
            let v = m.add_var(name.clone());
            m.set_integer(v);
        }
        for (dep, rows) in deps.iter().zip(&dep_rows) {
            if !dependence_active_in_pattern(p, &ov_space, dep, pattern) {
                continue;
            }
            for r in rows {
                m.constrain(r.clone(), Cmp::Ge);
            }
        }
        let obj = install_pattern_objective(&mut m, p, &ov_space, pattern);
        m.minimize(obj);
        Ok(candidate_of(&ov_space, m.solve_ilp_budgeted(b)?))
    };
    fan_out_patterns(
        &patterns,
        workers,
        budget,
        "p1.orthant",
        &|_| i64::MIN,
        &solve,
    )?
    .map(|(_, vs)| OvResult::new(p, vs))
    .ok_or(CoreError::NoVectorFound)
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

/// A pattern whose slice for some array is all zeros encodes the zero
/// vector for that array — never a realizable occupancy vector.
fn pattern_has_zero_array(p: &Program, ov_space: &OvSpace, pattern: &Orthant) -> bool {
    p.arrays().iter().enumerate().any(|(aidx, a)| {
        (0..a.dim()).all(|k| pattern[ov_space.component(aov_ir::ArrayId(aidx), k)] == 0)
    })
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
    let mut extra: Vec<AffineExpr> = Vec::new();
    for r in storage_rows_concrete(a.program(), a.space(), a.deps(), vectors)? {
        if !a.rows().contains(&r) && !extra.contains(&r) {
            extra.push(r);
        }
    }
    Ok(extra)
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

/// Shortest Affine Occupancy Vectors (Problem 3) with the per-orthant
/// Farkas ILPs fanned out over `workers` threads (`<= 1` means
/// sequential); see [`aov_budgeted`].
///
/// # Errors
///
/// As for [`aov_budgeted`], plus [`CoreError::Polyhedra`] when the
/// program's causality constraints cannot be linearized.
pub fn aov_with(p: &Program, workers: usize) -> Result<OvResult, CoreError> {
    aov_budgeted(&Analysis::new(p)?, workers, &Budget::unlimited())
}

/// Shortest Affine Occupancy Vectors by the paper's Farkas method: each
/// linearized storage constraint, affine in Θ with coefficients affine in
/// `v`, is equated to a nonnegative combination of the schedule
/// constraints; the resulting system is linear in `(v, λ)` and one ILP
/// per sign orthant minimizes the two-term objective. The orthants fan
/// out over `workers` threads; the reduction is deterministic, so results
/// are bit-identical to the sequential solver for any worker count.
/// Every simplex pivot and branch-and-bound node charges `budget`; a trip
/// cancels the sibling orthants (scoped to this call — the caller's
/// budget stays live) and surfaces with the deterministic trip site.
///
/// # Errors
///
/// * [`CoreError::Unschedulable`] — the program has no one-dimensional
///   affine schedule, so "valid for all legal schedules" is vacuous.
/// * [`CoreError::NoVectorFound`] — no orthant admits a vector.
/// * [`CoreError::Fault`] — budget exhaustion, cancellation, or an
///   isolated worker panic.
pub fn aov_budgeted(a: &Analysis, workers: usize, budget: &Budget) -> Result<OvResult, CoreError> {
    // Farkas needs ℛ nonempty; also drop redundant rows to shrink the
    // multiplier count.
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

    let (p, space, deps) = (a.program(), a.space(), a.deps());
    let ov_space = OvSpace::new(p);
    // Pattern-independent storage forms and Farkas systems, per dep.
    let mut dep_systems: Vec<Vec<aov_schedule::farkas::FarkasSystem>> =
        Vec::with_capacity(deps.len());
    for (didx, dep) in deps.iter().enumerate() {
        let _span = aov_trace::span!("core.storage_forms_for_dep", dep = didx);
        let forms = storage_forms_for_dep(p, space, &ov_space, dep)?;
        dep_systems.push(
            forms
                .iter()
                .map(|f| farkas_system(f, &sched_rows))
                .collect(),
        );
    }
    let patterns: Vec<Orthant> = sign_patterns(ov_space.dim())
        .into_iter()
        .filter(|pat| !pattern_has_zero_array(p, &ov_space, pat))
        .collect();
    // Bound: with |v| >= objective of the incumbent, skip the pattern
    // early by its minimum possible length.
    let prune = |pattern: &Orthant| -> i64 {
        let min_len: i64 = pattern.iter().map(|&s| i64::from(s != 0)).sum();
        LENGTH_WEIGHT * min_len
    };
    let solve = |pattern: &Orthant, b: &Budget| {
        let _span = aov_trace::span!("aov.orthant", pattern = pattern_label(pattern));
        let mut m = Model::new();
        {
            let _build = aov_trace::span!("farkas.model_build");
            for name in ov_space.vars().names() {
                let v = m.add_var(name.clone());
                m.set_integer(v);
            }
            let mut fi = 0usize;
            for (dep, systems) in deps.iter().zip(&dep_systems) {
                if !dependence_active_in_pattern(p, &ov_space, dep, pattern) {
                    continue;
                }
                for sys in systems {
                    // Fresh multipliers for this storage row.
                    let lambda_base = m.num_vars();
                    for j in 0..sys.num_multipliers {
                        m.add_nonneg_var(format!("lam_{fi}_{j}"));
                    }
                    fi += 1;
                    let total = m.num_vars();
                    for eq in &sys.equations {
                        // lhs(v) − Σ_j mult_j λ_j == 0, as one row.
                        let mut row = Vec::with_capacity(total);
                        row.extend_from_slice(eq.lhs.coeffs().as_slice());
                        row.resize(total, aov_numeric::Rational::zero());
                        for (j, c) in eq.multipliers.iter().enumerate() {
                            if !c.is_zero() {
                                row[lambda_base + j] = -c;
                            }
                        }
                        let e = AffineExpr::from_parts(row.into(), eq.lhs.constant_term().clone());
                        m.constrain(e, Cmp::Eq);
                    }
                }
            }
            let obj = install_pattern_objective(&mut m, p, &ov_space, pattern);
            m.minimize(obj);
        }
        Ok(candidate_of(&ov_space, m.solve_ilp_budgeted(b)?))
    };
    fan_out_patterns(&patterns, workers, budget, "aov.orthant", &prune, &solve)?
        .map(|(_, vs)| OvResult::new(p, vs))
        .ok_or(CoreError::NoVectorFound)
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
                    **lock(&slot_refs[aidx]) = Some(r);
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
/// `v_k == 0`) and the two-term objective; returns the objective
/// expression. Within a pattern `|v_k| = sign_k · v_k` exactly.
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

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn problem2_too_short_vector_unschedulable() {
        let p = example1();
        // v = (0, 0): values overwritten as produced; no affine schedule
        // can satisfy read-before-overwrite together with causality.
        let r = best_schedule_for_ov(&p, &[OccupancyVector::new(vec![0, 0])]);
        assert!(matches!(r, Err(CoreError::Unschedulable)));
    }
}
