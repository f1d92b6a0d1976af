//! The exact LP work of the paper's four examples, pinned.
//!
//! Each example runs through the full pipeline at `workers(1)` with the
//! LP memo off, and its run totals of `lp.simplex.pivots` (simplex
//! pivots, phase 1 and 2) and `lp.bb.nodes` (branch-and-bound nodes)
//! must equal the figures below exactly. Reports do not depend on the
//! worker count and counters are run-scoped, so the figures are
//! deterministic. A change to the simplex start, the pivoting rule, an
//! LP model or the number of LPs a stage solves moves them; such a
//! change updates these figures and says why.

use aov_engine::Pipeline;

fn lp_work(name: &str) -> (u64, u64) {
    let report = Pipeline::for_example(name)
        .unwrap()
        .workers(1)
        .memoize(false)
        .run()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(report.counter_total("lp.memo.hits"), 0, "{name}: memo off");
    (
        report.counter_total("lp.simplex.pivots"),
        report.counter_total("lp.bb.nodes"),
    )
}

#[test]
fn example1_lp_work() {
    assert_eq!(lp_work("example1"), (137, 14));
}

#[test]
fn example2_lp_work() {
    assert_eq!(lp_work("example2"), (121, 20));
}

#[test]
fn example3_lp_work() {
    assert_eq!(lp_work("example3"), (1_045, 40));
}

#[test]
fn example4_lp_work() {
    assert_eq!(lp_work("example4"), (91, 12));
}
