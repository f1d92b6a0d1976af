//! The exact LP and polyhedra work of the paper's four examples, pinned.
//!
//! Each example runs through the full pipeline at `workers(1)` with the
//! LP memo off, and its run totals of `lp.simplex.pivots` (simplex
//! pivots, phase 1 and 2) and `lp.bb.nodes` (branch-and-bound nodes)
//! must equal the figures below exactly, as must four polyhedra counts:
//! DD conversions, parameterized-vertex enumerations, validity domains
//! kept (`polyhedra.param.chambers`) and Fourier–Motzkin eliminations.
//! Reports do not depend on the worker count and counters are
//! run-scoped, so the figures are deterministic. A change to the simplex
//! start, the pivoting rule, an LP model or the number of LPs a stage
//! solves moves the LP figures; a change to how many projections,
//! conversions or enumerations a stage asks for moves the polyhedra
//! ones. A rewrite of a kernel that keeps its work moves neither. A
//! change that moves them updates these figures and says why. The DD
//! conversions include Problems 1 and 3's `v`-space pre-pass: one per
//! dependence of more than one row, reduced once, and at most one per
//! visited orthant; one per dependence and sign pattern of its source
//! array for the activity table; and one emptiness test per dependence
//! candidate and per pair of writers of one array: the `ir` and
//! `dependences` stages solve no LP. Fourier–Motzkin only projects each
//! dependence's overwriter image, once per run. A vertex enumeration runs
//! a recession-cone DD only when its rows do not box every eliminated
//! dimension, which none of these examples needs. Problem 2 certifies the
//! AOV with the storage forms Problems 1 and 3 built, fixed at the AOV
//! and tested at ℛ's generators, and reuses the `schedule` stage's ILP
//! answer: the `problem2` stage solves no LP, enumerates no vertices and
//! converts no DD, and the scheduler's ILP is solved once per run.

use aov_engine::{Pipeline, Report};
use aov_ir::{analysis, examples};

/// Pivots, branch-and-bound nodes, DD conversions, vertex enumerations,
/// validity domains and FM eliminations of one run.
fn work(name: &str) -> [u64; 6] {
    let report = run(name);
    [
        "lp.simplex.pivots",
        "lp.bb.nodes",
        "polyhedra.dd.conversions",
        "polyhedra.param.vertex_enums",
        "polyhedra.param.chambers",
        "polyhedra.fm.eliminations",
    ]
    .map(|counter| report.counter_total(counter))
}

/// One run of `name` at `workers(1)` with the LP memo off.
fn run(name: &str) -> Report {
    let report = Pipeline::for_example(name)
        .unwrap()
        .workers(1)
        .memoize(false)
        .run()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(report.counter_total("lp.memo.hits"), 0, "{name}: memo off");
    report
}

#[test]
fn example1_lp_work() {
    assert_eq!(work("example1"), [15, 5, 24, 4, 16, 12]);
}

#[test]
fn example2_lp_work() {
    assert_eq!(work("example2"), [25, 7, 29, 4, 16, 8]);
}

#[test]
fn example3_lp_work() {
    assert_eq!(work("example3"), [110, 3, 392, 23, 124, 114]);
}

#[test]
fn example4_lp_work() {
    assert_eq!(work("example4"), [14, 5, 22, 4, 12, 5]);
}

/// Fourier–Motzkin only projects: its one use in a run is each
/// dependence's overwriter image, which eliminates the target's
/// iterations and the parameters. Emptiness, sign orthants included, is
/// the DD's, so the run's eliminations are exactly those.
#[test]
fn fm_only_projects_overwriter_images() {
    let programs = [
        ("example1", examples::example1()),
        ("example2", examples::example2()),
        ("example3", examples::example3()),
        ("example4", examples::example4()),
    ];
    for (name, p) in programs {
        let projected: usize = analysis::dependences(&p)
            .iter()
            .map(|d| p.statement(d.target).depth() + p.num_params())
            .sum();
        let eliminations = run(name).counter_total("polyhedra.fm.eliminations");
        assert_eq!(eliminations, projected as u64, "{name}");
    }
}

/// Emptiness is decided by the DD, so validation and dependence
/// analysis solve no LP: no `lp.*` counter in either stage.
#[test]
fn ir_and_dependence_stages_solve_no_lp() {
    for name in ["example1", "example2", "example3", "example4"] {
        let report = run(name);
        for stage in ["ir", "dependences"] {
            let counters = &report.stage(stage).expect("stage ran").counters;
            let lp: Vec<_> = counters
                .iter()
                .filter(|(n, _)| n.starts_with("lp."))
                .collect();
            assert!(lp.is_empty(), "{name} {stage}: {lp:?}");
        }
    }
}

/// The AOV holds on all of ℛ, so Problem 2 certifies it with the
/// storage forms at ℛ's generators and returns the `schedule` stage's
/// answer: the `problem2` stage solves no LP and does no polyhedral work,
/// so no `lp.*` or `polyhedra.*` counter moves there.
#[test]
fn problem2_stage_solves_no_lp_at_the_aov() {
    for name in ["example1", "example2", "example3", "example4"] {
        let report = run(name);
        let counters = &report.stage("problem2").expect("stage ran").counters;
        let work: Vec<_> = counters
            .iter()
            .filter(|(n, _)| n.starts_with("lp.") || n.starts_with("polyhedra."))
            .collect();
        assert!(work.is_empty(), "{name} problem2: {work:?}");
    }
}

/// Problem 3 decides example3's orthants in `v`-space: 18 of the 19 it
/// visits hold no vector, and the one left is a small ILP.
#[test]
fn example3_aov_stage_solves_at_most_two_small_ilps() {
    let report = run("example3");
    let aov = report.stage("aov").expect("aov stage");
    let counter = |name: &str| {
        let found = aov.counters.iter().find(|(n, _)| n == name);
        found.map_or(0, |(_, count)| *count)
    };
    assert!(counter("core.orthant.ilps") <= 2, "{:?}", aov.counters);
    assert!(counter("lp.bb.nodes") <= 2, "{:?}", aov.counters);
    assert!(counter("lp.simplex.pivots") <= 20, "{:?}", aov.counters);
}
