//! Time-stepped execution under an affine schedule.

use crate::domain::{iteration_points, WrittenCells};
use crate::funcs;
use crate::store::{ArrayStore, StorageMode};
use aov_ir::{Expr, Program, StmtId};
use aov_numeric::Rational;
use aov_schedule::Schedule;
use std::collections::HashMap;

/// The values computed by every statement instance of a run.
pub type InstanceValues = HashMap<(StmtId, Vec<i64>), i64>;

/// Statistics of a scheduled run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Number of distinct time steps executed.
    pub time_steps: usize,
    /// Total statement instances.
    pub instances: usize,
    /// Cells used per array (observed storage footprint).
    pub cells_used: Vec<usize>,
    /// Maximum instances executed in one time step (ideal parallelism).
    pub max_width: usize,
}

/// Executes the program under `sched` with the given storage mode per
/// array, honoring the paper's §4.3 convention that *reads precede
/// writes within a time step*.
///
/// Returns the value computed by every statement instance plus run
/// statistics. Reads of data-space points never written by the program
/// resolve to deterministic [`funcs::initial`] values (input data);
/// reads of cells whose producing write has not happened yet resolve to
/// [`funcs::missing`] markers (only reachable under an illegal schedule
/// or an invalid occupancy vector).
pub fn run_scheduled(
    p: &Program,
    params: &[i64],
    sched: &Schedule,
    modes: &[StorageMode<'_>],
) -> (InstanceValues, RunStats) {
    assert_eq!(modes.len(), p.arrays().len(), "one storage mode per array");
    // Gather all instances with their times.
    let mut by_time: Vec<(Rational, StmtId, Vec<i64>)> = Vec::new();
    for s in p.stmt_ids() {
        for pt in iteration_points(p, s, params) {
            let t = sched.eval(s, &pt, params);
            by_time.push((t, s, pt));
        }
    }
    by_time.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| (a.1, &a.2).cmp(&(b.1, &b.2))));

    let written = WrittenCells::new(p, params);
    let mut stores: Vec<ArrayStore> = p.arrays().iter().map(|_| ArrayStore::new()).collect();
    let mut values: InstanceValues = HashMap::new();
    let mut stats = RunStats {
        instances: by_time.len(),
        ..RunStats::default()
    };

    let mut idx = 0;
    while idx < by_time.len() {
        // One time step: [idx, end).
        let t = by_time[idx].0.clone();
        let mut end = idx;
        while end < by_time.len() && by_time[end].0 == t {
            end += 1;
        }
        stats.time_steps += 1;
        stats.max_width = stats.max_width.max(end - idx);
        // Phase 1: evaluate all bodies (reads see the previous step).
        let mut writes: Vec<(usize, Vec<i64>, i64)> = Vec::with_capacity(end - idx);
        for (_, s, pt) in &by_time[idx..end] {
            let value = eval_instance(p, *s, pt, params, &written, &stores, modes);
            values.insert((*s, pt.clone()), value);
            let aid = p.statement(*s).writes();
            let cell = modes[aid.0].cell(pt, params);
            writes.push((aid.0, cell, value));
        }
        // Phase 2: apply all writes.
        for (a, cell, value) in writes {
            stores[a].write(cell, value);
        }
        idx = end;
    }
    stats.cells_used = stores.iter().map(ArrayStore::cells_used).collect();
    (values, stats)
}

fn eval_instance(
    p: &Program,
    s: StmtId,
    iter: &[i64],
    params: &[i64],
    written: &WrittenCells,
    stores: &[ArrayStore],
    modes: &[StorageMode<'_>],
) -> i64 {
    // Resolve reads first.
    let st = p.statement(s);
    let point: Vec<i64> = iter.iter().chain(params).copied().collect();
    let mut read_values = Vec::with_capacity(st.reads().len());
    for acc in st.reads() {
        let index: Vec<i64> = acc
            .index()
            .iter()
            .map(|e| e.eval_i64(&point).to_i64().expect("integer index"))
            .collect();
        let aid = acc.array();
        let name = p.array(aid).name();
        let v = if !written.contains(aid, &index) {
            funcs::initial(name, &index)
        } else {
            let cell = modes[aid.0].cell(&index, params);
            stores[aid.0]
                .read(&cell)
                .unwrap_or_else(|| funcs::missing(name, &index))
        };
        read_values.push(v);
    }
    eval_expr(st.body(), iter, params, &read_values)
}

fn eval_expr(e: &Expr, iter: &[i64], params: &[i64], reads: &[i64]) -> i64 {
    match e {
        Expr::Read(k) => reads[*k],
        Expr::Const(v) => *v,
        Expr::Iter(k) => iter[*k],
        Expr::Param(k) => params[*k],
        Expr::Call(name, args) => {
            let vals: Vec<i64> = args
                .iter()
                .map(|a| eval_expr(a, iter, params, reads))
                .collect();
            funcs::apply(name, &vals)
        }
    }
}

/// Per-instance values under `sched` with original storage. For any
/// legal schedule these are the reference values: single assignment
/// makes them schedule-independent.
pub fn original_values(p: &Program, params: &[i64], sched: &Schedule) -> InstanceValues {
    let modes: Vec<StorageMode<'_>> = p.arrays().iter().map(|_| StorageMode::Original).collect();
    run_scheduled(p, params, sched, &modes).0
}

/// Reference per-instance values: [`original_values`] under the
/// scheduler's legal schedule.
///
/// # Panics
///
/// Panics if the program has no one-dimensional affine schedule.
pub fn reference_values(p: &Program, params: &[i64]) -> InstanceValues {
    let sched = aov_schedule::scheduler::find_schedule_with(p, &[])
        .expect("reference execution needs a schedulable program");
    original_values(p, params, &sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples::{example1, example2, example3, prefix_sum};
    use aov_linalg::AffineExpr;

    fn original_modes(p: &Program) -> Vec<StorageMode<'static>> {
        p.arrays().iter().map(|_| StorageMode::Original).collect()
    }

    #[test]
    fn prefix_sum_computes_real_sums() {
        let p = prefix_sum();
        let vals = reference_values(&p, &[5]);
        // P[i] = add(P[i-1], i); P[0] is input data (initial hash).
        let p0 = crate::funcs::initial("P", &[0]);
        let s = p.stmt_by_name("S").unwrap();
        assert_eq!(vals[&(s, vec![1])], p0.wrapping_add(1));
        assert_eq!(vals[&(s, vec![3])], p0.wrapping_add(1 + 2 + 3));
        assert_eq!(vals.len(), 5);
    }

    #[test]
    fn reference_is_schedule_independent() {
        let p = example1();
        let ref_vals = reference_values(&p, &[5, 4]);
        // Run under a different legal schedule (Θ = i + 2j) with original
        // storage: identical instance values.
        let skew = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 2, 0, 0], 0)]);
        let (vals, _) = run_scheduled(&p, &[5, 4], &skew, &original_modes(&p));
        assert_eq!(ref_vals, vals);
    }

    #[test]
    fn two_phase_semantics_reads_precede_writes() {
        // Under Θ = j with v = (0,1), consumers at time t read values
        // produced at t−1 even though the same cells are overwritten at
        // t. This only works with the reads-then-writes convention.
        use aov_core::{transform::StorageTransform, OccupancyVector};
        let p = example1();
        let row = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
        let a = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![0, 1])).unwrap();
        let modes = vec![StorageMode::Transformed(&t)];
        let (vals, stats) = run_scheduled(&p, &[5, 4], &row, &modes);
        assert_eq!(vals, reference_values(&p, &[5, 4]));
        // Storage really is one row (n cells).
        assert_eq!(stats.cells_used, vec![5]);
        assert_eq!(stats.time_steps, 4);
        assert_eq!(stats.max_width, 5);
    }

    #[test]
    fn invalid_vector_breaks_semantics() {
        use aov_core::{transform::StorageTransform, OccupancyVector};
        let p = example1();
        // Θ = i + 2j is legal; v = (0,1) is NOT valid for it (the paper's
        // Fig. 4 analysis: (0,1) only works for flat schedules).
        let skew = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 2, 0, 0], 0)]);
        let a = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![0, 1])).unwrap();
        let modes = vec![StorageMode::Transformed(&t)];
        let (vals, _) = run_scheduled(&p, &[6, 5], &skew, &modes);
        assert_ne!(vals, reference_values(&p, &[6, 5]));
    }

    #[test]
    fn example2_runs_both_statements() {
        let p = example2();
        let vals = reference_values(&p, &[3, 3]);
        assert_eq!(vals.len(), 18); // 2 statements × 9 points
    }

    #[test]
    fn example3_min_plus_recurrence() {
        let p = example3();
        let vals = reference_values(&p, &[3, 3, 3]);
        assert_eq!(vals.len(), 27);
        // Interior values derive from min of sums — spot check that the
        // interior instance differs from boundary hashes.
        let s2 = p.stmt_by_name("S2").unwrap();
        assert!(vals.contains_key(&(s2, vec![2, 2, 2])));
    }
}
