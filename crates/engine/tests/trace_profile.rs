//! Tracing/profiling integration tests: golden flame table on
//! Example 1, Chrome-export round-trip, and per-run counter deltas.
//!
//! The tracing switch and the counter registry are process-global, so
//! these tests serialize on a mutex and live in their own test binary —
//! the other engine test binaries never enable tracing.

use std::sync::Mutex;

use aov_engine::{Pipeline, Report};
use aov_support::context::Context;
use aov_support::Json;
use aov_trace::flame::FlameTable;
use aov_trace::SpanRecord;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with tracing on and returns its result with the spans it
/// recorded. The spans are collected in a fresh context, not the
/// process root: while tracing is on, a test running unlocked code on
/// another thread (say, `dependences` for an expected count) records
/// spans too, and those land in the root.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let _guard = lock();
    let ctx = Context::child(None, None);
    let _entered = ctx.enter();
    aov_trace::set_enabled(true);
    let out = f();
    aov_trace::set_enabled(false);
    (out, aov_trace::drain())
}

/// Runs Example 1 with tracing on and returns its spans and report.
fn traced_example1(workers: usize) -> (Vec<SpanRecord>, Report) {
    let (report, records) = traced(|| {
        aov_lp::memo::clear(); // cold memo: the simplex must run
        Pipeline::for_example("example1")
            .unwrap()
            .workers(workers)
            .memoize(true)
            .run()
            .expect("example1 runs")
    });
    (records, report)
}

/// The stages every run executes, in order (machine stage off).
const STAGES: [&str; 10] = [
    "pipeline.ir",
    "pipeline.dependences",
    "pipeline.legal_schedule",
    "pipeline.schedule",
    "pipeline.problem1",
    "pipeline.aov",
    "pipeline.problem2",
    "pipeline.storage_transform",
    "pipeline.codegen",
    "pipeline.equivalence",
];

#[test]
fn example1_flame_table_golden() {
    let (records, report) = traced_example1(2);
    assert_eq!(report.equivalent, Some(true));
    let table = FlameTable::build(&records);
    // Every pipeline stage is exactly one span.
    for stage in STAGES {
        let row = table
            .row(stage)
            .unwrap_or_else(|| panic!("missing stage row {stage}"));
        assert_eq!(row.count, 1, "{stage} must run exactly once");
    }
    // The analysis builds the storage forms once per dependence, and
    // Problems 1 and 3 share them.
    let ndeps = aov_ir::analysis::dependences(&aov_ir::examples::example1()).len();
    let forms = table
        .row("core.storage_forms_for_dep")
        .expect("storage-form spans");
    assert_eq!(forms.count as usize, ndeps);
    // Example 1's vector space has 2 components: 3^2 sign patterns minus
    // the all-zero one survive the filter. Both problems visit them by
    // lower bound and stop once no pattern can beat the incumbent:
    // Problem 1's optimum (0, 1) leaves the 4 one-component patterns,
    // Problem 3's optimum (1, 2) exceeds every bound, so all 8 solve.
    assert_eq!(table.row("p1.orthant").expect("p1 spans").count, 4);
    assert_eq!(table.row("aov.orthant").expect("aov spans").count, 8);
    // Problem 3 builds a dependence's generator rows once, when an
    // orthant first reads them; on Example 1 every dependence is read.
    let rows = table
        .row("aov.generator_rows")
        .expect("generator-row spans");
    assert_eq!(rows.count as usize, ndeps);
    // Solver-cost attribution: the flame table separates LP solve from
    // memo lookup.
    for name in [
        "lp.solve",
        "lp.simplex",
        "lp.canonicalize",
        "lp.memo.lookup",
        "lp.ilp",
    ] {
        assert!(table.row(name).is_some(), "missing {name} row");
    }
    for row in table.rows() {
        assert!(row.self_ns <= row.total_ns, "{}: self > total", row.name);
        assert!(row.p50_ns <= row.p95_ns, "{}: p50 > p95", row.name);
    }
    // The rendered table carries every row name.
    let rendered = table.render();
    assert!(rendered.contains("pipeline.aov") && rendered.contains("lp.simplex"));
    // Deterministic tree shape: every root is a pipeline stage, and the
    // orthant spans attach below their stage.
    let tree = aov_trace::tree(&records);
    assert_eq!(
        tree.len(),
        STAGES.len(),
        "roots: {:?}",
        tree.iter().map(|n| &n.name).collect::<Vec<_>>()
    );
    for root in &tree {
        assert!(
            root.name.starts_with("pipeline."),
            "non-stage root {}",
            root.name
        );
    }
    let p1 = tree
        .iter()
        .find(|n| n.name == "pipeline.problem1")
        .expect("problem1 root");
    assert_eq!(
        p1.children
            .iter()
            .filter(|c| c.name == "p1.orthant")
            .count(),
        4,
        "orthant spans must parent to their stage"
    );
}

/// Example 2 writes two 2-d arrays, and Problems 1 and 3 search each
/// array's 8 nonzero sign patterns on their own, in array order. Problem
/// 1's optima (1, 0) leave the 4 one-component patterns of each array;
/// Problem 3's (1, 1) is found at the first two-component pattern after
/// the 4 one-component ones, so 5 per array.
#[test]
fn example2_orthants_are_searched_per_array() {
    let (report, records) = traced(|| {
        aov_lp::memo::clear();
        Pipeline::for_example("example2")
            .unwrap()
            .workers(1)
            .memoize(true)
            .run()
            .expect("example2 runs")
    });
    assert_eq!(report.equivalent, Some(true));
    // Each orthant span's sign pattern, in solve order: A's, then B's.
    let patterns = |name: &str| -> String {
        let labels: Vec<&str> = records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| {
                r.fields
                    .iter()
                    .find(|(k, _)| *k == "pattern")
                    .map_or("?", |(_, v)| v)
            })
            .collect();
        labels.join(" ")
    };
    assert_eq!(patterns("p1.orthant"), "+0 0+ 0- -0 +0 0+ 0- -0");
    assert_eq!(patterns("aov.orthant"), "+0 0+ 0- -0 ++ +0 0+ 0- -0 ++");
    let table = FlameTable::build(&records);
    assert_eq!(table.row("p1.orthant").expect("p1 spans").count, 8);
    assert_eq!(table.row("aov.orthant").expect("aov spans").count, 10);
}

/// The analysis (dependences, schedule constraints, ℛ) is built once
/// per run at any worker count, and the exact search builds none of its
/// own.
#[test]
fn analysis_is_built_once_per_run() {
    let count = |records: &[SpanRecord]| {
        records
            .iter()
            .filter(|r| r.name == "schedule.analysis")
            .count()
    };
    for example in ["example1", "example2"] {
        for workers in [1, 3] {
            let (report, records) = traced(|| {
                Pipeline::for_example(example)
                    .unwrap()
                    .workers(workers)
                    .memoize(true)
                    .run()
                    .expect("example runs")
            });
            assert_eq!(report.equivalent, Some(true));
            assert_eq!(count(&records), 1, "{example} at {workers} workers");
        }
    }
    let p = aov_ir::examples::example2();
    let (found, records) = traced(|| {
        let a = aov_schedule::Analysis::new(&p).expect("example2 linearizes");
        aov_core::problems::aov_search_with(&a, 6).expect("example2 has AOVs")
    });
    assert_eq!(found.vector_for("A").unwrap().components(), [1, 1]);
    assert_eq!(count(&records), 1, "aov_search_with");
}

/// Golden internal span tree of the problem2 stage: the stage body is
/// fully re-attributed to `p2.*` child spans, and the polyhedral
/// library underneath (vertex enumeration, DD conversion steps, FM
/// projections) shows up in the flame table with its own rows and
/// counters.
#[test]
fn example1_problem2_internal_span_tree_golden() {
    let (records, report) = traced_example1(1);
    let tree = aov_trace::tree(&records);
    let p2 = tree
        .iter()
        .find(|n| n.name == "pipeline.problem2")
        .expect("problem2 root");
    // The two phases of best_schedule_for_ov, each exactly once: the
    // storage rows, then their certificate on ℛ's generators.
    for phase in ["p2.storage_rows", "p2.certify"] {
        assert_eq!(
            p2.children.iter().filter(|c| c.name == phase).count(),
            1,
            "problem2 must run {phase} exactly once; children: {:?}",
            p2.children.iter().map(|c| &c.name).collect::<Vec<_>>()
        );
    }
    // The causality constraints and dependences come from the run's
    // shared analysis, and the AOV's rows hold on all of ℛ, so problem2
    // recomputes neither and solves no ILP of its own.
    for phase in ["p2.legal_constraints", "p2.dependences", "p2.solve"] {
        assert!(
            p2.children.iter().all(|c| c.name != phase),
            "problem2 must not run {phase}"
        );
    }
    // One storage-row derivation per dependence, nested under the
    // storage phase.
    let ndeps = aov_ir::analysis::dependences(&aov_ir::examples::example1()).len();
    let storage = p2
        .children
        .iter()
        .find(|c| c.name == "p2.storage_rows")
        .unwrap();
    assert_eq!(
        storage
            .children
            .iter()
            .filter(|c| c.name == "p2.storage_dep")
            .count(),
        ndeps,
        "one p2.storage_dep per dependence"
    );
    // The polyhedral internals surface as flame rows. Vertex enumeration
    // gives each vertex a validity domain without recursing through
    // chambers: there is no `p2.chamber` row, and the run's DD steps are
    // exactly its DD conversions.
    let table = FlameTable::build(&records);
    let enums = table.row("p2.vertex_enum").expect("vertex enumerations");
    let dd = table.row("p2.dd.step").expect("dd conversion steps");
    assert!(enums.count >= 1);
    assert!(table.row("p2.chamber").is_none(), "no chamber recursion");
    assert_eq!(
        dd.count,
        report.counter("polyhedra.dd.conversions"),
        "one p2.dd.step per DD conversion"
    );
    assert!(table.row("p2.fm.project").is_some(), "FM projections");
    // Re-attribution: the stage's own self time is residual glue. The
    // acceptance bar is ≥90% of self time moved into p2.* children;
    // assert the same with slack (≥80%) so scheduler jitter on a
    // millisecond-scale stage cannot flake the suite.
    let stage = table.row("pipeline.problem2").expect("problem2 row");
    assert!(
        stage.self_ns * 5 <= stage.total_ns,
        "problem2 self time {} ns must be a small residue of total {} ns",
        stage.self_ns,
        stage.total_ns
    );
    // The counters riding along with the spans moved this run.
    for counter in [
        "polyhedra.param.vertex_enums",
        "polyhedra.param.chambers",
        "polyhedra.dd.conversions",
    ] {
        assert!(
            report.counter(counter) > 0,
            "counter {counter} must move on example1"
        );
    }
}

/// A vector too short for every legal schedule fails the certificate,
/// so Problem 2 still solves its own ILP: example1 at `v = (0, 2)` runs
/// `p2.storage_rows`, `p2.certify` and `p2.solve` once each.
#[test]
fn problem2_below_the_aov_still_solves_its_ilp() {
    let p = aov_ir::examples::example1();
    let v = aov_core::OccupancyVector::new(vec![0, 2]);
    let (sched, records) =
        traced(|| aov_core::problems::best_schedule_for_ov(&p, std::slice::from_ref(&v)));
    sched.expect("(0, 2) admits a schedule");
    let table = FlameTable::build(&records);
    for phase in ["p2.storage_rows", "p2.certify", "p2.solve"] {
        let row = table
            .row(phase)
            .unwrap_or_else(|| panic!("missing {phase}"));
        assert_eq!(row.count, 1, "{phase} must run exactly once");
    }
}

/// The equivalence stage interprets each distinct schedule once. At
/// example1's certified AOV, Problem 2's schedule is the found one, so
/// it runs once for both verdicts. Under an overridden schedule Problem
/// 2 still returns the scheduler's own answer, a different schedule, and
/// both are interpreted.
#[test]
fn equivalence_interprets_each_distinct_schedule_once() {
    let interpretations = |pipeline: Pipeline| {
        let (report, records) = traced(|| pipeline.run().expect("example1 runs"));
        assert_eq!(report.equivalent, Some(true));
        let detail = &report.stage("equivalence").expect("equivalence ran").detail;
        for verdict in ["under_found_schedule", "under_best_schedule"] {
            assert_eq!(detail.get(verdict), Some(&Json::Bool(true)), "{verdict}");
        }
        let theta = |stage: &str| report.stage(stage).unwrap().detail.get("theta").cloned();
        let same = theta("schedule") == theta("problem2");
        let table = FlameTable::build(&records);
        let count = table.row("equivalence.interpret").map_or(0, |r| r.count);
        (count, same)
    };
    let found = Pipeline::for_example("example1").unwrap();
    assert_eq!(interpretations(found), (1, true));
    let p = aov_ir::examples::example1();
    let skew = aov_schedule::Schedule::uniform_for(
        &p,
        &[aov_linalg::AffineExpr::from_i64(&[1, 2, 0, 0], 0)],
    );
    let overridden = Pipeline::new(p).with_schedule(skew);
    assert_eq!(interpretations(overridden), (2, false));
}

/// Spans of Example 2's exact Problem 3 search: the analysis, then one
/// search span per array.
fn traced_search() -> Vec<SpanRecord> {
    let p = aov_ir::examples::example2();
    traced(|| {
        let a = aov_schedule::Analysis::new(&p).expect("example2 linearizes");
        aov_core::problems::aov_search_with(&a, 6).expect("example2 has AOVs");
    })
    .1
}

#[test]
fn chrome_export_round_trips() {
    let (mut records, _) = traced_example1(1);
    records.extend(traced_search());
    let doc = aov_trace::chrome::chrome_trace(&records);
    let parsed = Json::parse(&doc.to_pretty()).expect("chrome trace parses back");
    let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    let mut complete = 0usize;
    let mut meta = 0usize;
    for e in events {
        match e.get("ph") {
            Some(Json::Str(ph)) if ph == "X" => {
                complete += 1;
                assert!(matches!(e.get("name"), Some(Json::Str(_))));
                assert!(e.get("ts").is_some() && e.get("dur").is_some());
                assert!(e.get("tid").is_some() && e.get("pid").is_some());
            }
            Some(Json::Str(ph)) if ph == "M" => meta += 1,
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(complete, records.len());
    let threads: std::collections::BTreeSet<u64> = records.iter().map(|r| r.thread).collect();
    assert_eq!(
        meta,
        threads.len(),
        "one thread_name metadata event per track"
    );
}

/// Satellite check: `Report::counters` holds this run's increments, not
/// the process-cumulative registry values.
#[test]
fn report_counters_are_per_run_deltas() {
    let _guard = lock();
    aov_lp::memo::clear(); // cold memo
    let run = || {
        Pipeline::for_example("example1")
            .unwrap()
            .workers(1)
            .memoize(true)
            .run()
            .expect("example1 runs")
    };
    let first = run();
    let second = run();
    assert!(first.counter("lp.memo.misses") > 0, "cold run must miss");
    assert!(second.counter("lp.memo.hits") > 0, "warm run must hit");
    assert!(
        second.memo_hit_rate().expect("lookups happened") > first.memo_hit_rate().unwrap(),
        "warm run must hit more often than the cold one"
    );
    // The registry keeps process-cumulative values; the reports carry
    // per-run deltas strictly below them.
    let cumulative = aov_support::counters::snapshot()
        .iter()
        .find(|(n, _)| n == "lp.memo.misses")
        .map_or(0, |(_, v)| *v);
    assert!(cumulative >= first.counter("lp.memo.misses") + second.counter("lp.memo.misses"));
    assert!(second.counter("lp.memo.misses") < cumulative);
    // The JSON report exposes the same memo economics.
    use aov_support::ToJson;
    let json = second.to_json();
    let memo = json.get("memo").expect("memo sub-report");
    assert!(matches!(memo.get("hits"), Some(Json::Int(h)) if *h > 0));
    assert!(matches!(memo.get("hit_rate"), Some(Json::Float(r)) if *r > 0.0));
}
