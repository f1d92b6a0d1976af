//! Crash-diagnostic bundle suite: every injectable fault class at every
//! instrumented probe site must leave behind exactly one schema-valid
//! `aov-diag/1` bundle whose flight-recorder ring contains the faulting
//! span, and whose error chain names the fault.
//!
//! The chaos layer and the flight recorder are process-global, so the
//! tests serialize on a mutex and live in their own test binary.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use aov_engine::diag;
use aov_engine::{BudgetSpec, Health, Pipeline};
use aov_fault::chaos::{self, ChaosSpec, FaultKind};
use aov_support::{schema, Json};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fresh scratch directory per case, so "exactly one bundle" is a
/// meaningful assertion.
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aov-diag-test-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str(diag::SCHEMA.to_string())),
        "{context}"
    );
    if let Err(errors) = schema::validate(&doc, &diag::diag_schema()) {
        panic!("{context}: bundle schema violations: {errors:#?}");
    }
    doc
}

/// The ring events of a parsed bundle as `(kind, label)` pairs.
fn ring_events(doc: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(_)) = doc.get("events") else {
        panic!("bundle has no events object");
    };
    let events = doc.get("events").unwrap();
    let Some(Json::Arr(ring)) = events.get("ring") else {
        panic!("bundle has no ring array");
    };
    ring.iter()
        .map(|e| {
            let kind = match e.get("kind") {
                Some(Json::Str(k)) => k.clone(),
                other => panic!("event kind: {other:?}"),
            };
            let label = match e.get("label") {
                Some(Json::Str(l)) => l.clone(),
                other => panic!("event label: {other:?}"),
            };
            (kind, label)
        })
        .collect()
}

/// Ring labels are capped at the recorder's inline capacity; compare
/// against the same truncation.
fn ring_label(site: &str) -> &str {
    &site[..site.len().min(24)]
}

/// The full probe-site × fault-kind matrix: every combination must
/// produce one schema-valid bundle whose ring tail carries the faulting
/// site (the `chaos_fired` marker plus, for span sites, the span-enter
/// event recorded with tracing disabled) and whose error field names
/// the fault class.
#[test]
fn every_site_kind_pair_produces_a_valid_bundle() {
    let _guard = lock();
    // Each probe site with the ring evidence its fault must leave
    // behind: the enclosing span's enter event, or — for probes that
    // sit directly in a stage body — the stage's enter event. The
    // orthant fan-out gates tick *before* the worker opens its span, so
    // those fire on the second visit (`nth = 1`): the first orthant
    // then provably leaves its span in the ring before the fault lands.
    let sites = [
        ("lp.simplex", 0, "span_enter", "lp.simplex"), // pivot loop
        ("lp.ilp.node", 0, "span_enter", "lp.ilp"),    // branch-and-bound
        ("schedule.solve", 0, "stage_enter", "schedule"), // scheduler entry
        ("p1.orthant", 1, "span_enter", "p1.orthant"), // Problem 1 fan-out
        ("aov.orthant", 1, "span_enter", "aov.orthant"), // Problem 3 fan-out
        ("pipeline.schedule", 0, "stage_enter", "schedule"),
        ("pipeline.aov", 0, "stage_enter", "aov"),
        (
            "pipeline.storage_transform",
            0,
            "stage_enter",
            "storage_transform",
        ),
    ];
    let kinds = [FaultKind::Error, FaultKind::Panic, FaultKind::Budget];
    for (site, nth, evidence_kind, evidence_label) in sites {
        for kind in kinds {
            let context = format!("chaos {kind:?} at {site}");
            chaos::install(ChaosSpec {
                site: site.to_string(),
                kind,
                nth,
                seed: 0,
            });
            let dir = fresh_dir(&format!("{site}-{kind:?}"));
            let workers = if site.ends_with(".orthant") { 3 } else { 1 };
            let report = Pipeline::for_example("example1")
                .unwrap()
                .workers(workers)
                .diag_dir(dir.clone())
                .run()
                .unwrap_or_else(|e| panic!("{context}: must degrade, got hard error: {e}"));
            assert_eq!(report.health(), Health::Degraded, "{context}");
            let doc = read_single_bundle(&dir, &context);
            assert_eq!(
                report.diag_path.as_deref().map(PathBuf::from),
                std::fs::read_dir(&dir)
                    .unwrap()
                    .next()
                    .map(|e| e.unwrap().path()),
                "{context}: report points at the bundle it wrote"
            );

            // The ring must carry the faulting span: the one-shot
            // chaos marker is the ground truth for where it fired.
            let events = ring_events(&doc);
            assert!(
                events
                    .iter()
                    .any(|(k, l)| k == "chaos_fired" && l == ring_label(site)),
                "{context}: ring lacks the chaos_fired marker: {events:?}"
            );
            // The faulting span (or stage) leaves its enter event even
            // with full tracing disabled: lite spans feed the recorder.
            assert!(
                events
                    .iter()
                    .any(|(k, l)| k == evidence_kind && l == ring_label(evidence_label)),
                "{context}: ring lacks {evidence_kind} {evidence_label:?}"
            );

            // The error field is always populated on a faulty run —
            // even when the fault was absorbed inside a stage and only
            // its degraded reason survives. (How the fault is worded
            // depends on which stage first visits the site, so the
            // site itself is asserted via the ring above, not here.)
            let error = doc.get("error").expect("error field");
            match error.get("message") {
                Some(Json::Str(m)) => assert!(!m.is_empty(), "{context}"),
                other => panic!("{context}: error message: {other:?}"),
            }
            let Some(Json::Arr(chain)) = error.get("chain") else {
                panic!("{context}: error chain missing");
            };
            assert!(!chain.is_empty(), "{context}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    chaos::disarm();
}

/// A healthy run must not write anything: bundles are for faulty runs.
#[test]
fn healthy_runs_write_no_bundle() {
    let _guard = lock();
    chaos::disarm();
    let dir = fresh_dir("healthy");
    let report = Pipeline::for_example("example1")
        .unwrap()
        .diag_dir(dir.clone())
        .run()
        .expect("healthy run");
    assert_eq!(report.health(), Health::Ok);
    assert_eq!(report.diag_path, None);
    assert!(
        !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
        "healthy run must not write a bundle"
    );
}

/// A genuine budget trip (not an injected one) must produce a bundle
/// whose `budget_trip` ring event names the span that was active at the
/// trip — satellite wiring for "which solver was holding the budget".
#[test]
fn budget_trip_bundle_names_the_active_span() {
    let _guard = lock();
    chaos::disarm();
    let dir = fresh_dir("budget");
    // example1 spends 15 pivots (schedule 3, problem1 3, aov 9), so 12
    // trips inside Problem 3's ILP, at its 7th pivot.
    let report = Pipeline::for_example("example1")
        .unwrap()
        .budget(BudgetSpec {
            pivots: Some(12),
            ..BudgetSpec::default()
        })
        .diag_dir(dir.clone())
        .run()
        .expect("budget trips degrade, not abort");
    assert_eq!(report.health(), Health::Degraded);
    let doc = read_single_bundle(&dir, "budget trip");
    let events = ring_events(&doc);
    let trips: Vec<&(String, String)> = events.iter().filter(|(k, _)| k == "budget_trip").collect();
    assert!(
        !trips.is_empty(),
        "ring records the budget trip: {events:?}"
    );
    // The trip label names the active span (the lite label stack works
    // with tracing disabled); the tripping site is span-shaped, so the
    // same label must also appear as a span-enter event.
    for (_, label) in &trips {
        assert!(!label.is_empty(), "budget trip label must name a span");
        assert!(
            events.iter().any(|(k, l)| k == "span_enter" && l == label),
            "budget trip label {label:?} is an active span"
        );
    }
    // The degraded stage's error chain reaches the structured trip.
    let error = doc.get("error").expect("error field");
    let Some(Json::Arr(chain)) = error.get("chain") else {
        panic!("chain missing");
    };
    let chain_text = chain
        .iter()
        .map(|c| match c {
            Json::Str(s) => s.as_str(),
            _ => "",
        })
        .collect::<Vec<_>>()
        .join(" | ");
    assert!(
        chain_text.contains("budget"),
        "chain names the trip: {chain_text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hard failures (non-degradable errors) abort the run but still leave
/// a bundle carrying the partial stage ladder.
#[test]
fn hard_failure_still_writes_a_partial_bundle() {
    let _guard = lock();
    chaos::disarm();
    let dir = fresh_dir("hard");
    // An illegal schedule override fails the `schedule` stage hard.
    let program = aov_ir::examples::example1();
    let illegal = aov_schedule::Schedule::uniform_for(
        &program,
        &[aov_linalg::AffineExpr::from_i64(&[-1, 1, 0, 0], 0)],
    );
    let err = Pipeline::for_example("example1")
        .unwrap()
        .with_schedule(illegal)
        .diag_dir(dir.clone())
        .run()
        .expect_err("illegal override is a hard failure");
    assert!(matches!(err, aov_engine::EngineError::Schedule(_)), "{err}");
    let doc = read_single_bundle(&dir, "hard failure");
    assert_eq!(doc.get("health"), Some(&Json::Str("failed".into())));
    let Some(Json::Arr(stages)) = doc.get("stages") else {
        panic!("stages missing");
    };
    // The ladder ran up to and including the failing stage.
    assert!(!stages.is_empty(), "partial ladder present");
    let last = stages.last().unwrap();
    assert_eq!(last.get("name"), Some(&Json::Str("schedule".into())));
    assert_eq!(last.get("outcome"), Some(&Json::Str("failed".into())));
    let _ = std::fs::remove_dir_all(&dir);
}
