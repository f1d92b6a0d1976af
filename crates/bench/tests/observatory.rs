//! End-to-end observatory checks: a real (small) suite run produces a
//! schema-valid artifact, figure selection honors the example subset,
//! and the regression gate fires on an injected slowdown.

use aov_bench::observatory::{self, SuiteConfig};
use aov_bench::regress::{self, Status, Tolerance};
use aov_support::{Json, ToJson};

/// A suite's traced run turns the process-wide tracing switch on and
/// off; two suites racing in this binary would cut each other's traces
/// short, so they take turns.
static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn example1_suite(runs: usize) -> observatory::Artifact {
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    observatory::run_suite(&SuiteConfig {
        examples: vec!["example1".to_string()],
        runs,
        workers: 1,
        quick: true,
        figures: true,
        span_rows: 8,
        ..SuiteConfig::default()
    })
    .expect("suite runs")
}

#[test]
fn example1_suite_produces_schema_valid_artifact() {
    let artifact = example1_suite(2);
    let doc = artifact.to_json();
    observatory::validate(&doc).expect("artifact matches its own schema");
    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str(observatory::SCHEMA_VERSION.to_string()))
    );

    let e = &artifact.examples[0];
    assert_eq!(e.program, "example1");
    assert_eq!(e.runs, 2);
    assert!(e.wall_us.min <= e.wall_us.median);
    assert!(e.equivalent);
    assert_eq!(e.code_digest.len(), 16, "FNV-1a hex digest");
    assert_eq!(e.aov, vec![("A".to_string(), vec![1, 2])]);
    // The traced first run recorded pipeline root spans.
    let Json::Arr(spans) = &e.spans else {
        panic!("spans should be an array");
    };
    assert!(
        spans
            .iter()
            .any(|s| matches!(s.get("name"), Some(Json::Str(n)) if n.starts_with("pipeline."))),
        "no pipeline spans in {spans:?}"
    );

    // Figure selection: only figures satisfiable from example1 ran.
    let ids: Vec<&str> = artifact.figures.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(ids, ["fig03", "fig04", "fig05", "fig06", "storage"]);
    assert!(artifact.figures.iter().all(|f| f.reproduced));
    assert!(artifact.figures.iter().all(|f| f.digest.len() == 16));
}

#[test]
fn second_run_against_first_stays_clean_and_injected_slowdown_gates() {
    let baseline = example1_suite(1).to_json();
    let current = example1_suite(1).to_json();

    // Same binary, same inputs: results identical, timings within noise
    // (both runs are far below the 10 ms absolute floor per metric or
    // within the relative band — exact metrics must all match).
    let cmp = regress::compare(&baseline, &current, &Tolerance::default());
    assert!(
        !cmp.deltas
            .iter()
            .any(|d| d.status == Status::Regressed && d.note.contains("drifted")),
        "exact metrics drifted between identical runs:\n{}",
        cmp.render()
    );

    // Inject a 100× slowdown into the current wall time: the gate fires.
    let mut slowed = current.clone();
    inject_wall_us(&mut slowed, 100_000_000);
    let cmp = regress::compare(&baseline, &slowed, &Tolerance::default());
    assert!(cmp.has_regressions(), "{}", cmp.render());
    assert!(cmp.render().contains("REGRESSED"));
}

/// The v1→v2 upgrade shim: the repo's oldest committed baseline parses,
/// upgrades to a schema-valid v2 document with a neutral calibration
/// and a best-effort environment, and the upgraded document round-trips
/// (serialize → reparse → upgrade is the identity).
#[test]
fn v1_artifact_upgrades_to_v2_and_round_trips() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0.json");
    let text = std::fs::read_to_string(path).expect("BENCH_0.json readable");
    let doc = Json::parse(&text).expect("BENCH_0.json parses");
    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str(observatory::SCHEMA_VERSION_V1.into()))
    );

    let (up, upgraded) = observatory::upgrade(doc).expect("v1 upgrades");
    assert!(upgraded);
    observatory::validate(&up).expect("upgraded document is schema-valid v2");
    assert_eq!(
        up.get("schema"),
        Some(&Json::Str(observatory::SCHEMA_VERSION.into()))
    );
    assert_eq!(
        up.get("upgraded_from"),
        Some(&Json::Str(observatory::SCHEMA_VERSION_V1.into()))
    );
    // v1 never measured the machine: the shim must say so, not invent.
    let cal = aov_support::calibrate::Calibration::from_json(up.get("calibration"));
    assert!(!cal.is_measured());
    // The environment carries what v1 did record: the suite's worker
    // count and each measured program's code digest.
    let env = up.get("environment").expect("environment block");
    assert_eq!(env.get("workers"), up.get("suite").unwrap().get("workers"));
    let Some(Json::Arr(programs)) = env.get("programs") else {
        panic!("programs array missing");
    };
    assert_eq!(programs.len(), 4, "one digest per measured example");

    // Round-trip: an upgraded document re-reads as already current.
    let reparsed = Json::parse(&up.to_pretty()).expect("upgraded doc serializes");
    let (again, upgraded_again) = observatory::upgrade(reparsed.clone()).expect("reparses");
    assert!(!upgraded_again, "upgrade is idempotent");
    assert_eq!(again, reparsed);

    // Unrecognized versions are an error, not a silent pass-through.
    assert!(observatory::upgrade(Json::obj().field("schema", "aov-bench/99")).is_err());
    assert!(observatory::upgrade(Json::obj()).is_err());
}

/// The PR 7 false-positive episode, re-adjudicated: BENCH_3 vs BENCH_2
/// flagged every example3 wall-time movement as a regression because
/// the shared container ran ~45 % slower on recording day. Both
/// artifacts predate calibration, so the comparator's estimated-drift
/// fallback must clear the documented wall-clock false positives —
/// while the PR 6 counter drift (a genuine stale baseline, retired by
/// BENCH_4) keeps flagging: machine speed cannot move a pivot count.
#[test]
fn bench3_vs_bench2_wall_time_false_positives_clear_under_estimated_drift() {
    let load = |name: &str| {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (doc, upgraded) =
            observatory::upgrade(Json::parse(&text).expect("artifact parses")).expect("upgrades");
        assert!(upgraded, "{name} is a v1-era artifact");
        doc
    };
    let baseline = load("BENCH_2.json");
    let current = load("BENCH_3.json");
    let cmp = regress::compare(&baseline, &current, &Tolerance::default());

    // Neither side was calibrated, so the drift evidence is estimated.
    assert_eq!(cmp.drift.source, regress::DriftSource::Estimated);
    assert!(
        cmp.drift.factor > 1.0,
        "BENCH_3's recording day was slower: {:?}",
        cmp.drift
    );

    // The documented headline false positive — example3.wall_us
    // 59.5 s → 91.6 s (+53.9 %, just past the ±50 % band) — and every
    // other whole-pipeline wall time must clear once normalized.
    let wall_regressions: Vec<&str> = cmp
        .deltas
        .iter()
        .filter(|d| d.status == Status::Regressed && d.key.ends_with(".wall_us"))
        .map(|d| d.key.as_str())
        .collect();
    assert!(
        wall_regressions.is_empty(),
        "normalized comparator still gates wall times: {wall_regressions:?}\n{}",
        cmp.render()
    );

    // The PR 6 pivot-count drift is *not* laundered: counters are
    // machine-independent, so the stale counter baseline still flags
    // (that is what re-baselining on BENCH_4 is for).
    let d = cmp
        .deltas
        .iter()
        .find(|d| d.key == "example3.counter.lp.simplex.pivots")
        .expect("pivot counter compared");
    assert_eq!(d.status, Status::Regressed, "{}", d.note);
}

/// Overwrites `examples[0].wall_us.{min,median}` in a parsed artifact.
fn inject_wall_us(doc: &mut Json, us: i64) {
    let Json::Obj(fields) = doc else { panic!() };
    let examples = &mut fields.iter_mut().find(|(k, _)| k == "examples").unwrap().1;
    let Json::Arr(items) = examples else { panic!() };
    let Json::Obj(example) = &mut items[0] else {
        panic!()
    };
    let wall = &mut example.iter_mut().find(|(k, _)| k == "wall_us").unwrap().1;
    *wall = Json::obj().field("min", us).field("median", us);
}
