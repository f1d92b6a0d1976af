//! Golden end-to-end tests: the paper's four examples through the full
//! instrumented pipeline, asserting the headline AOVs, the dynamic
//! equivalence verdict, and that the worker count changes no result.
//!
//! Headline vectors (paper §5 and Figures 5/8/11/14):
//!
//! * Example 1: `v_A = (1, 2)`
//! * Example 2: `v_A = v_B = (1, 1)`
//! * Example 3: `v_D = (1, 1, 1)`
//! * Example 4: `v_A = (1, 0)`, `v_B = (1)` — this implementation's
//!   objective admits the shorter `(1, 0)` for `A` where the paper
//!   quotes `(1, 1)`; both are valid AOVs and `(1, 0)` has the smaller
//!   two-term objective (see DESIGN.md).

use aov_engine::{Pipeline, Report};

/// The deterministic content of a report: everything except timings and
/// counter magnitudes.
fn fingerprint(r: &Report) -> (Vec<Vec<i64>>, Option<String>, Option<bool>, Vec<String>) {
    let vectors = r
        .aov
        .as_ref()
        .expect("complete run")
        .vectors()
        .iter()
        .map(|v| v.components().to_vec())
        .collect();
    let thetas = ["schedule", "problem2"]
        .iter()
        .map(|name| {
            r.stage(name)
                .and_then(|s| s.detail.get("theta"))
                .map(|j| format!("{j:?}"))
                .unwrap_or_default()
        })
        .collect();
    (vectors, r.code.clone(), r.equivalent, thetas)
}

fn run(name: &str, workers: usize) -> Report {
    Pipeline::for_example(name)
        .unwrap()
        .workers(workers)
        .run()
        .unwrap_or_else(|e| panic!("{name} with {workers} workers: {e}"))
}

#[test]
fn example1_golden() {
    let seq = run("example1", 1);
    assert_eq!(
        seq.aov
            .as_ref()
            .unwrap()
            .vector_for("A")
            .unwrap()
            .components(),
        [1, 2]
    );
    assert_eq!(seq.equivalent, Some(true), "dynamic equivalence must hold");
    // The instrumentation must see real solver work.
    assert!(seq.counter_total("lp.simplex.pivots") > 0);
    assert!(seq.counter_total("polyhedra.dd.conversions") > 0);
    assert!(seq.counter_total("polyhedra.fm.eliminations") > 0);
    // The worker count changes neither the answer nor the work: every
    // run and stage counter is equal.
    let par = run("example1", 4);
    assert_eq!(fingerprint(&seq), fingerprint(&par));
    assert_eq!(seq.counters, par.counters);
    let stage_counters = |r: &Report| {
        r.stages
            .iter()
            .map(|s| (s.name, s.counters.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(stage_counters(&seq), stage_counters(&par));
}

#[test]
fn example2_golden() {
    let seq = run("example2", 1);
    assert_eq!(
        seq.aov
            .as_ref()
            .unwrap()
            .vector_for("A")
            .unwrap()
            .components(),
        [1, 1]
    );
    assert_eq!(
        seq.aov
            .as_ref()
            .unwrap()
            .vector_for("B")
            .unwrap()
            .components(),
        [1, 1]
    );
    assert_eq!(seq.equivalent, Some(true));
    let par = run("example2", 4);
    assert_eq!(fingerprint(&seq), fingerprint(&par));
}

#[test]
fn example4_golden() {
    let seq = run("example4", 1);
    assert_eq!(
        seq.aov
            .as_ref()
            .unwrap()
            .vector_for("A")
            .unwrap()
            .components(),
        [1, 0]
    );
    assert_eq!(
        seq.aov
            .as_ref()
            .unwrap()
            .vector_for("B")
            .unwrap()
            .components(),
        [1]
    );
    assert_eq!(seq.equivalent, Some(true));
    let par = run("example4", 4);
    assert_eq!(fingerprint(&seq), fingerprint(&par));
}

/// Example 3 is by far the heaviest analysis (19 dependences, 27 sign
/// orthants); one parallel pipeline run asserts the headline vector.
#[test]
fn example3_golden() {
    let par = run("example3", 4);
    assert_eq!(
        par.aov
            .as_ref()
            .unwrap()
            .vector_for("D")
            .unwrap()
            .components(),
        [1, 1, 1]
    );
    assert_eq!(par.equivalent, Some(true));
    assert!(par.counter_total("lp.bb.nodes") > 0, "ILPs must branch");
}

/// The full sequential-vs-parallel comparison on Example 3 roughly
/// doubles the heaviest run; kept out of the default suite.
/// Run with `cargo test -p aov-engine -- --ignored`.
#[test]
#[ignore = "runs the heaviest analysis twice (several minutes)"]
fn example3_parallel_matches_sequential() {
    let seq = run("example3", 1);
    let par = run("example3", 4);
    assert_eq!(fingerprint(&seq), fingerprint(&par));
}

/// LP memoization must not change any result, and must actually hit.
#[test]
fn memoization_is_transparent() {
    let plain = run("example1", 2);
    let memo = Pipeline::for_example("example1")
        .unwrap()
        .workers(2)
        .memoize(true)
        .run()
        .unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&memo));
    assert!(memo.counter_total("lp.memo.misses") > 0);
}

/// The machine-model stage simulates §6 speedups for Example 2 and the
/// transformed storage must win.
#[test]
fn machine_stage_reports_speedups() {
    let report = Pipeline::for_example("example2")
        .unwrap()
        .workers(2)
        .machine(true)
        .run()
        .unwrap();
    let stage = report.stage("machine").expect("machine stage ran");
    let speedups = stage
        .detail
        .get("speedups")
        .expect("example2 has a machine model");
    let aov_support::Json::Arr(points) = speedups else {
        panic!("speedups must be an array")
    };
    assert_eq!(points.len(), 4);
    for pt in points {
        let orig = pt.get("original").unwrap();
        let trans = pt.get("transformed").unwrap();
        let (aov_support::Json::Float(o), aov_support::Json::Float(t)) = (orig, trans) else {
            panic!("speedup points must be floats: {pt:?}")
        };
        assert!(t > o, "transformed storage must win: {pt:?}");
    }
}

/// The machine stage's fan-out workers charge the stage: more workers
/// add only thread start-up to its allocations, never lose the
/// simulations' own, and leave the curve unchanged.
#[test]
fn machine_stage_charges_its_workers() {
    aov_support::alloc::set_counting(true);
    let machine = |workers: usize| {
        let report = Pipeline::for_example("example2")
            .unwrap()
            .workers(workers)
            .machine(true)
            .run()
            .unwrap();
        let stage = report.stage("machine").expect("machine stage ran");
        let speedups = stage.detail.get("speedups").expect("speedups").clone();
        (stage.allocs, stage.alloc_bytes, speedups)
    };
    let (seq_allocs, seq_bytes, seq_curve) = machine(1);
    let (par_allocs, par_bytes, par_curve) = machine(4);
    assert!(
        par_allocs >= seq_allocs && par_bytes >= seq_bytes,
        "4 workers charged {par_allocs} allocs / {par_bytes} B, 1 worker {seq_allocs} / {seq_bytes}"
    );
    assert_eq!(par_curve, seq_curve);
}
