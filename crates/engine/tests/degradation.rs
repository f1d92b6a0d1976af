//! Degradation-ladder integration tests: unschedulable inputs degrade
//! into structured reports, and budget trips are deterministic across
//! worker counts.

use aov_engine::{BudgetSpec, Health, Pipeline, Report};
use aov_support::Json;

/// Everything about a run that must be reproducible: the health verdict
/// and, per stage, its name, outcome class and reason. Timings are
/// deliberately excluded.
fn fingerprint(r: &Report) -> Vec<(String, String, String)> {
    r.stages
        .iter()
        .map(|s| {
            (
                s.name.to_string(),
                s.outcome.class().to_string(),
                s.outcome.reason().unwrap_or("").to_string(),
            )
        })
        .collect()
}

/// Satellite regression: a program with no one-dimensional affine
/// schedule must not abort the pipeline. The `schedule` stage degrades
/// with a diagnostic naming the violated dependence, the
/// schedule-independent stages are still attempted, and the report
/// stays structurally valid.
#[test]
fn unschedulable_program_degrades_with_named_dependence() {
    let report = Pipeline::new(aov_ir::examples::unschedulable())
        .run()
        .expect("unschedulable input degrades, it does not abort");
    assert_eq!(report.health(), Health::Degraded);

    let schedule = report.stage("schedule").expect("schedule stage ran");
    assert_eq!(schedule.outcome.class(), "degraded");
    let reason = schedule.outcome.reason().expect("degraded has a reason");
    assert!(
        reason.contains("no one-dimensional affine schedule exists"),
        "diagnostic: {reason}"
    );
    assert!(
        reason.contains("dependence #") && reason.contains("S -> S"),
        "diagnostic must name the violated dependence: {reason}"
    );

    // Schedule-dependent stages are skipped (with reasons), never
    // silently dropped; the schedule-independent AOV stage is attempted.
    assert_eq!(report.stage("problem1").unwrap().outcome.class(), "skipped");
    let aov = report.stage("aov").expect("aov stage attempted");
    assert_ne!(aov.outcome.class(), "failed");
    assert!(report.equivalent.is_none(), "no schedule to execute under");

    // The degraded report still serializes, parses back, and matches
    // the same schema a healthy report does.
    use aov_support::ToJson;
    let doc = report.to_json();
    assert_eq!(doc.get("health"), Some(&Json::Str("degraded".into())));
    Json::parse(&doc.to_pretty()).expect("degraded report round-trips");
    aov_support::schema::validate(&doc, &aov_engine::report_schema())
        .expect("degraded report matches the report schema");
}

/// Healthy reports match the same schema the chaos suite holds degraded
/// ones to (a schema loose enough to pass only broken documents would
/// make the CI smoke step meaningless).
#[test]
fn healthy_report_matches_schema() {
    use aov_support::ToJson;
    let report = Pipeline::for_example("example1").unwrap().run().unwrap();
    assert_eq!(report.health(), Health::Ok);
    aov_support::schema::validate(&report.to_json(), &aov_engine::report_schema())
        .expect("healthy report matches the report schema");
}

/// Satellite property: the same budget produces the same trip point —
/// the same degraded stages with the same reasons — regardless of the
/// worker count. The count reaches only the machine stage's fan-out,
/// so the runs are `--machine` runs of Example 2, which has a machine
/// model; its simulated speedups must not depend on the count either.
#[test]
fn budget_trip_point_is_deterministic_across_workers() {
    aov_support::prop::run("budget_determinism", 8, 0xB0D9_E7E5, |g| {
        let pivots = g.i64_in(1, 400) as u64;
        let nodes = if g.bool() {
            Some(g.i64_in(1, 50) as u64)
        } else {
            None
        };
        let run = |workers: usize| {
            let p = Pipeline::for_example("example2")
                .unwrap()
                .workers(workers)
                .memoize(false)
                .machine(true)
                .budget(BudgetSpec {
                    pivots: Some(pivots),
                    nodes,
                    ms: None,
                });
            p.run().expect("budget trips degrade, they do not abort")
        };
        let baseline = run(1);
        let base_print = fingerprint(&baseline);
        let speedups = |r: &aov_engine::Report| {
            let machine = r.stage("machine").expect("machine stage ran");
            machine.detail.get("speedups").cloned()
        };
        assert!(speedups(&baseline).is_some(), "pivots={pivots}");
        for workers in 2..=4 {
            let r = run(workers);
            assert_eq!(r.health(), baseline.health(), "workers {workers}");
            assert_eq!(
                fingerprint(&r),
                base_print,
                "pivots={pivots} nodes={nodes:?} workers={workers}"
            );
            assert_eq!(speedups(&r), speedups(&baseline), "workers {workers}");
        }
    });
}
