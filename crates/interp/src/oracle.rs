//! The reference interpreter the lowered one replaced, kept as a test
//! oracle: rational schedule evaluation, polyhedron membership tests,
//! LP-bounded enumeration and one `HashMap` store per array, with the
//! reference values taken from a run under the scheduler's schedule.
//! The differential tests below hold the lowered interpreter to it.

use crate::domain::{fix_params, iteration_points};
use crate::exec::{Instances, RunStats, Values};
use crate::funcs;
use aov_core::check::lp_model;
use aov_core::transform::StorageTransform;
use aov_core::OccupancyVector;
use aov_ir::{ArrayId, Expr, Program, StmtId};
use aov_linalg::{AffineExpr, QVector};
use aov_numeric::Rational;
use aov_polyhedra::Polyhedron;
use aov_schedule::Schedule;
use std::collections::HashMap;

/// The values computed by every statement instance of a run.
type InstanceValues = HashMap<(StmtId, Vec<i64>), i64>;

/// How an array's data space maps to storage cells.
enum StorageMode<'a> {
    Original,
    Transformed(&'a StorageTransform),
}

impl StorageMode<'_> {
    fn cell(&self, index: &[i64], params: &[i64]) -> Vec<i64> {
        match self {
            StorageMode::Original => index.to_vec(),
            StorageMode::Transformed(t) => t.map_point(index, params),
        }
    }
}

/// All integer points of a statement's domain, over the bounding box two
/// LPs per dimension give.
fn lp_iteration_points(p: &Program, s: StmtId, params: &[i64]) -> Vec<Vec<i64>> {
    let st = p.statement(s);
    let fixed = fix_params(st.domain(), st.depth(), params);
    let lp = lp_model(&fixed);
    if lp.is_infeasible() {
        return Vec::new();
    }
    let depth = st.depth();
    let bound = |r: Option<Rational>, up: bool| {
        let r = r.expect("bounded domain");
        let b = if up { r.floor() } else { r.ceil() };
        b.to_i64().expect("small domain bound")
    };
    let lo: Vec<i64> = (0..depth)
        .map(|k| bound(lp.minimum(&AffineExpr::var(depth, k)), false))
        .collect();
    let hi: Vec<i64> = (0..depth)
        .map(|k| bound(lp.maximum(&AffineExpr::var(depth, k)), true))
        .collect();
    let mut out = Vec::new();
    let mut cur = lo.clone();
    'outer: loop {
        if fixed.contains(&QVector::from_i64(&cur)) {
            out.push(cur.clone());
        }
        for k in (0..depth).rev() {
            if cur[k] < hi[k] {
                cur[k] += 1;
                cur[k + 1..].copy_from_slice(&lo[k + 1..]);
                continue 'outer;
            }
        }
        break;
    }
    out
}

/// The scheduled run: all instances sorted by rational time, two phases
/// per time step, one sparse store per array.
fn run(
    p: &Program,
    params: &[i64],
    sched: &Schedule,
    modes: &[StorageMode<'_>],
) -> (InstanceValues, RunStats) {
    let writers: Vec<Vec<Polyhedron>> = (0..p.arrays().len())
        .map(|a| {
            p.writers_of(ArrayId(a))
                .into_iter()
                .map(|w| {
                    let st = p.statement(w);
                    fix_params(st.domain(), st.depth(), params)
                })
                .collect()
        })
        .collect();
    let written = |a: ArrayId, index: &[i64]| {
        let point = QVector::from_i64(index);
        writers[a.0]
            .iter()
            .any(|d| d.dim() == index.len() && d.contains(&point))
    };
    let points: Vec<(StmtId, Vec<i64>)> = p
        .stmt_ids()
        .flat_map(|s| {
            lp_iteration_points(p, s, params)
                .into_iter()
                .map(move |pt| (s, pt))
        })
        .collect();
    let mut by_time: Vec<(Rational, &(StmtId, Vec<i64>))> = points
        .iter()
        .map(|inst| (sched.eval(inst.0, &inst.1, params), inst))
        .collect();
    by_time.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));

    let mut stores: Vec<HashMap<Vec<i64>, i64>> = vec![HashMap::new(); p.arrays().len()];
    let mut values = InstanceValues::new();
    let mut stats = RunStats {
        instances: by_time.len(),
        ..RunStats::default()
    };
    let mut idx = 0;
    while idx < by_time.len() {
        let t = &by_time[idx].0;
        let mut end = idx;
        while end < by_time.len() && by_time[end].0 == *t {
            end += 1;
        }
        stats.time_steps += 1;
        stats.max_width = stats.max_width.max(end - idx);
        let mut writes = Vec::new();
        for (_, (s, pt)) in &by_time[idx..end] {
            let st = p.statement(*s);
            let point: Vec<i64> = pt.iter().chain(params).copied().collect();
            let reads: Vec<i64> = st
                .reads()
                .iter()
                .map(|acc| {
                    let index: Vec<i64> = acc
                        .index()
                        .iter()
                        .map(|e| e.eval_i64(&point).to_i64().expect("integer index"))
                        .collect();
                    let (aid, name) = (acc.array(), p.array(acc.array()).name());
                    if !written(aid, &index) {
                        funcs::initial(name, &index)
                    } else {
                        let cell = modes[aid.0].cell(&index, params);
                        stores[aid.0]
                            .get(&cell)
                            .copied()
                            .unwrap_or_else(|| funcs::missing(name, &index))
                    }
                })
                .collect();
            let value = eval_expr(st.body(), pt, params, &reads);
            values.insert((*s, pt.clone()), value);
            let aid = st.writes();
            writes.push((aid.0, modes[aid.0].cell(pt, params), value));
        }
        for (a, cell, value) in writes {
            stores[a].insert(cell, value);
        }
        idx = end;
    }
    stats.cells_used = stores.iter().map(HashMap::len).collect();
    (values, stats)
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

fn modes<'t>(p: &Program, transforms: &'t [StorageTransform]) -> Vec<StorageMode<'t>> {
    (0..p.arrays().len())
        .map(|a| {
            transforms
                .iter()
                .find(|t| t.array().0 == a)
                .map_or(StorageMode::Original, StorageMode::Transformed)
        })
        .collect()
}

/// The lowered values keyed like the oracle's.
fn keyed(instances: &Instances<'_>, values: &Values) -> InstanceValues {
    instances
        .points()
        .zip(values.as_slice())
        .map(|((s, pt), &v)| ((s, pt.to_vec()), v))
        .collect()
}

/// The engine's equivalence-check parameters of the paper examples.
fn example_params(p: &Program) -> Vec<i64> {
    match p.name() {
        "example3" => vec![4, 4, 4],
        "example4" => vec![6],
        _ => vec![8; p.num_params()],
    }
}

/// The paper examples at their check parameters, then 300 generated
/// programs (seeds `mix(42, i)`, default profile) at theirs.
fn corpus() -> Vec<(Program, Vec<i64>)> {
    use aov_ir::examples::{example1, example2, example3, example4};
    let mut out: Vec<(Program, Vec<i64>)> = [example1(), example2(), example3(), example4()]
        .into_iter()
        .map(|p| {
            let params = example_params(&p);
            (p, params)
        })
        .collect();
    let cfg = aov_gen::GenConfig::default();
    out.extend((0..300).map(|i| {
        let g = aov_gen::generate(aov_support::rng::mix(42, i), &cfg);
        (g.program, g.check_params)
    }));
    out
}

/// Storage transform sets to check: for each choice of vector, every
/// transformable array transformed by it.
fn transform_sets(p: &Program) -> Vec<Vec<StorageTransform>> {
    let choices: [fn(usize) -> Vec<i64>; 3] = [
        |d| (0..d).map(|k| i64::from(k + 1 == d)).collect(),
        |d| vec![1; d],
        |d| (0..d).map(|k| if k == 0 { 2 } else { 0 }).collect(),
    ];
    choices
        .iter()
        .map(|choice| {
            p.arrays()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.dim() > 0)
                .filter_map(|(a, arr)| {
                    let v = OccupancyVector::new(choice(arr.dim()));
                    StorageTransform::new(p, ArrayId(a), &v).ok()
                })
                .collect()
        })
        .collect()
}

/// Checks the lowered interpreter against the oracle on `p` at `params`
/// under `sched` for every transform set: values, statistics and
/// verdicts. Returns how many runs were inequivalent.
fn check_runs(
    p: &Program,
    params: &[i64],
    sched: &Schedule,
    sets: &[Vec<StorageTransform>],
) -> usize {
    let instances = Instances::new(p, params).expect("lowerable");
    let reference = instances.reference().expect("acyclic");
    let (oracle_reference, _) = run(p, params, sched, &modes(p, &[]));
    assert_eq!(
        keyed(&instances, &reference),
        oracle_reference,
        "{} reference",
        p.name()
    );
    let mut refuted = 0;
    for ts in std::iter::once(&Vec::new()).chain(sets) {
        let (vals, stats) = instances.run(sched, ts).expect("runs");
        let (oracle_vals, oracle_stats) = run(p, params, sched, &modes(p, ts));
        assert_eq!(keyed(&instances, &vals), oracle_vals, "{} values", p.name());
        assert_eq!(stats, oracle_stats, "{} stats", p.name());
        let verdict = crate::validate::matches_reference(&instances, &reference, sched, ts);
        assert_eq!(
            verdict,
            Ok(oracle_vals == oracle_reference),
            "{} verdict",
            p.name()
        );
        refuted += usize::from(vals != reference);
    }
    refuted
}

#[test]
fn lowered_enumeration_matches_lp_enumeration() {
    let mut points = 0;
    for (p, params) in corpus() {
        for s in p.stmt_ids() {
            let lowered = iteration_points(&p, s, &params);
            assert_eq!(lowered, lp_iteration_points(&p, s, &params), "{}", p.name());
            points += lowered.len();
        }
    }
    assert!(points > 3000, "{points} points");
}

#[test]
fn lowered_runs_match_oracle_on_examples() {
    use aov_ir::examples::{example1, example2, example3, example4};
    for p in [example1(), example2(), example3(), example4()] {
        let params = example_params(&p);
        let sched = aov_schedule::scheduler::find_schedule_with(&p, &[]).expect("schedulable");
        let aov = aov_core::problems::aov_with(&p, 1).expect("aov");
        let mut sets = transform_sets(&p);
        sets.push(
            aov.vectors()
                .iter()
                .enumerate()
                .map(|(a, v)| StorageTransform::new(&p, ArrayId(a), v).expect("transformable"))
                .collect(),
        );
        let best = aov_core::problems::best_schedule_for_ov(&p, aov.vectors()).expect("best");
        check_runs(&p, &params, &sched, &sets);
        check_runs(&p, &params, &best, &sets);
    }
    // Example 1 under the row and skewed schedules: (0,1) holds for the
    // first only.
    let p = example1();
    let sets = transform_sets(&p);
    for theta in [[0, 1, 0, 0], [1, 2, 0, 0], [-1, 3, 0, 0]] {
        let s = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&theta, 0)]);
        check_runs(&p, &[6, 5], &s, &sets);
    }
}

#[test]
fn lowered_runs_match_oracle_on_corpus() {
    let (mut checked, mut refuted) = (0, 0);
    for (p, params) in corpus() {
        let Ok(sched) = aov_schedule::scheduler::find_schedule_with(&p, &[]) else {
            // No one-dimensional schedule to run under; the reference
            // still exists wherever the dataflow is acyclic.
            let instances = Instances::new(&p, &params).expect("lowerable");
            if let Err(e) = instances.reference() {
                assert!(matches!(e, crate::InterpError::Cycle(_)), "{e}");
            }
            continue;
        };
        refuted += check_runs(&p, &params, &sched, &transform_sets(&p));
        checked += 1;
    }
    assert!(checked > 200, "{checked} schedulable programs");
    assert!(refuted > 50, "{refuted} refuted runs");
}
