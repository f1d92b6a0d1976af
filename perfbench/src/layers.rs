//! The traced solve: the stage ladder of `aov_engine::Pipeline`, called
//! layer by layer through each crate's public entry points, in the order
//! the ladder calls them. Every call is wrapped in a benchmark-side span
//! that times it from outside and records the solver-counter and
//! allocator deltas it caused; nothing is added inside the program.

use std::time::Instant;

use aov_core::problems;
use aov_core::transform::StorageTransform;
use aov_ir::{analysis, ArrayId, Program, StmtId};
use aov_schedule::{legal, scheduler};
use aov_support::{alloc, counters};

/// One public call, timed from outside.
pub struct Span {
    /// Layer metric name (`<crate>.<call>`), e.g. `core.aov`.
    pub layer: &'static str,
    pub secs: f64,
    /// `(counter, increment)` for every solver counter that moved.
    pub counters: Vec<(String, u64)>,
    /// Heap allocations and bytes during the call (global ledger delta).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// One traced solve of one program.
pub struct Solve {
    pub spans: Vec<Span>,
    /// Wall time of the whole ladder, spans and their bookkeeping
    /// included.
    pub wall: f64,
    /// `(array, AOV components)` in array order.
    pub aov: Vec<(String, Vec<i64>)>,
    /// Both `semantics_preserved` verdicts held.
    pub equivalent: bool,
}

impl Solve {
    /// Sum of one counter over every span.
    pub fn counter(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Runs `f` as one span: counter snapshots and allocator readings are
/// taken outside the timed region so they charge neither the time nor
/// the allocation delta.
fn span<T>(spans: &mut Vec<Span>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let before = counters::snapshot();
    let a0 = alloc::stats();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let a1 = alloc::stats();
    spans.push(Span {
        layer,
        secs,
        counters: counters::delta(&before, &counters::snapshot()),
        allocs: a1.allocs - a0.allocs,
        alloc_bytes: a1.bytes - a0.bytes,
    });
    out
}

/// The ladder of `Pipeline::run` for a healthy program, `workers` wide,
/// with the equivalence oracle at `check_params`. Any stage error is a
/// failed solve.
pub fn solve(p: &Program, workers: usize, check_params: &[i64]) -> Result<Solve, String> {
    let t0 = Instant::now();
    let mut spans = Vec::new();
    let s = &mut spans;
    span(s, "ir.validate", || p.validate()).map_err(|e| format!("invalid program: {e}"))?;
    span(s, "ir.dependences", || analysis::dependences(p));
    span(s, "schedule.legal_polyhedron", || {
        let (space, poly) =
            legal::legal_schedule_polyhedron(p).map_err(|e| format!("legal_schedule: {e}"))?;
        // Project away the parameter and constant coefficients, as the
        // ladder's `legal_schedule` stage does.
        let mut drop_dims = Vec::new();
        for st in 0..space.num_statements() {
            for j in 0..p.params().len() {
                drop_dims.push(space.param_coeff(StmtId(st), j));
            }
            drop_dims.push(space.const_coeff(StmtId(st)));
        }
        Ok::<_, String>(poly.eliminate_dims(&drop_dims))
    })?;
    let sched = span(s, "schedule.find_schedule", || {
        scheduler::find_schedule_with(p, &[])
    })
    .map_err(|e| format!("schedule: {e}"))?;
    span(s, "core.problem1", || {
        problems::ov_for_schedule_with(p, &sched, workers)
    })
    .map_err(|e| format!("problem1: {e}"))?;
    let aov =
        span(s, "core.aov", || problems::aov_with(p, workers)).map_err(|e| format!("aov: {e}"))?;
    let sched2 = span(s, "core.problem2", || {
        problems::best_schedule_for_ov(p, aov.vectors())
    })
    .map_err(|e| format!("problem2: {e}"))?;
    let transforms = span(s, "core.storage_transform", || {
        aov.vectors()
            .iter()
            .enumerate()
            .map(|(a, v)| StorageTransform::new(p, ArrayId(a), v))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("storage_transform: {e}"))?;
    let code = span(s, "core.codegen", || {
        aov_core::codegen::transformed_code(p, &transforms)
    });
    std::hint::black_box(code);
    let equivalent = span(s, "interp.equivalence", || {
        let under_found =
            aov_interp::validate::semantics_preserved(p, check_params, &sched, &transforms);
        let under_best =
            aov_interp::validate::semantics_preserved(p, check_params, &sched2, &transforms);
        under_found && under_best
    });
    let wall = t0.elapsed().as_secs_f64();
    let aov = p
        .arrays()
        .iter()
        .zip(aov.vectors())
        .map(|(a, v)| (a.name().to_string(), v.components().to_vec()))
        .collect();
    Ok(Solve {
        spans,
        wall,
        aov,
        equivalent,
    })
}
