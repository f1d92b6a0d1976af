//! Per-request event attribution on the process-global flight
//! recorder: two session-attributed pipeline runs interleaving on the
//! same ring must each produce a crash bundle carrying **only their
//! own timeline** — the regression the `aovd` daemon depends on, since
//! its concurrent requests share one ring.

use std::path::PathBuf;
use std::sync::Barrier;

use aov_engine::{diag, BudgetSpec, Health, Pipeline};
use aov_support::{schema, Json};

/// Reads the single bundle in `dir`, parses and schema-validates it.
fn read_single_bundle(dir: &PathBuf, context: &str) -> Json {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{context}: no diag dir: {e}"))
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "{context}: want exactly one bundle");
    let path = entries.pop().unwrap();
    let text = std::fs::read_to_string(&path).expect("bundle readable");
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{context}: bad JSON: {e}"));
    if let Err(errors) = schema::validate(&doc, &diag::diag_schema()) {
        panic!("{context}: bundle schema violations: {errors:#?}");
    }
    doc
}

/// The `session` stamps of every ring event in a parsed bundle.
fn ring_sessions(doc: &Json) -> Vec<i64> {
    let events = doc.get("events").expect("events object");
    let Some(Json::Arr(ring)) = events.get("ring") else {
        panic!("bundle has no ring array");
    };
    ring.iter()
        .map(|e| match e.get("session") {
            Some(Json::Int(s)) => *s,
            other => panic!("event session: {other:?}"),
        })
        .collect()
}

/// Two budget-tripped runs, attributed to sessions 1 and 2, racing on
/// the shared ring: each bundle must carry its own (non-empty) event
/// tail and not one event of its neighbor's.
#[test]
fn interleaved_sessions_keep_their_bundles_disjoint() {
    let scratch = std::env::temp_dir().join(format!("aov-session-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let barrier = Barrier::new(2);
    let dirs: Vec<PathBuf> = (1..=2u64).map(|s| scratch.join(format!("s{s}"))).collect();
    std::thread::scope(|scope| {
        for (i, dir) in dirs.iter().enumerate() {
            let session = (i + 1) as u64;
            let barrier = &barrier;
            scope.spawn(move || {
                // Start the runs together so their ring events genuinely
                // interleave rather than landing in disjoint windows.
                barrier.wait();
                // 12 of example1's 15 pivots: the trip lands in the aov
                // stage's ILP.
                let report = Pipeline::for_example("example1")
                    .unwrap()
                    .workers(2)
                    .session(session)
                    .budget(BudgetSpec {
                        pivots: Some(12),
                        ..BudgetSpec::default()
                    })
                    .diag_dir(dir.clone())
                    .run()
                    .expect("budget trips degrade, not abort");
                assert_eq!(report.health(), Health::Degraded, "session {session}");
            });
        }
    });
    for (i, dir) in dirs.iter().enumerate() {
        let session = (i + 1) as i64;
        let context = format!("session {session}");
        let doc = read_single_bundle(dir, &context);
        let sessions = ring_sessions(&doc);
        assert!(
            !sessions.is_empty(),
            "{context}: bundle carries its own timeline"
        );
        assert!(
            sessions.iter().all(|&s| s == session),
            "{context}: bundle leaked a neighbor's events: {sessions:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A session-attributed run must not clear the shared ring: a
/// neighbor's events recorded before the run still snapshot afterwards.
#[test]
fn session_runs_do_not_clear_the_shared_ring() {
    use aov_trace::recorder::{self, EventKind};
    recorder::record(EventKind::BudgetTick, "test.session.neighbor", 7, 0);
    let report = Pipeline::for_example("example1")
        .unwrap()
        .session(99)
        .run()
        .expect("healthy run");
    assert_eq!(report.health(), Health::Ok);
    assert!(
        recorder::snapshot()
            .iter()
            .any(|e| e.label == "test.session.neighbor" && e.a == 7),
        "neighbor's event survived the session-attributed run"
    );
}
