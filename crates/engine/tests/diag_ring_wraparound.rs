//! Wraparound coverage for the flight-recorder ring: a short pipeline
//! run never fills the ring on its own, so this binary fills it first,
//! under the run's session, and then runs a faulting session pipeline.
//! A session run does not clear the shared ring, so the run wraps it;
//! the bundle must still carry the fault evidence, filtered to the
//! session, after thousands of events have been evicted. It is its own
//! process so that no other test records into the ring meanwhile.

use std::path::PathBuf;

use aov_engine::diag;
use aov_engine::{Health, Pipeline};
use aov_fault::chaos::{self, ChaosSpec, FaultKind};
use aov_support::context::Context;
use aov_support::{schema, Json};
use aov_trace::recorder::{self, EventKind, RING_CAPACITY};

#[test]
fn wrapped_ring_still_carries_fault_evidence() {
    const SESSION: u64 = 5;
    const NEIGHBOR_EVENTS: usize = 8;
    let head_before = recorder::events_recorded();
    {
        let _s = Context::child(Some(SESSION), None).enter();
        for i in 0..RING_CAPACITY {
            recorder::record(EventKind::BudgetTick, "test.ring.filler", i as u64, 0);
        }
    }
    {
        let _n = Context::child(Some(SESSION + 1), None).enter();
        for i in 0..NEIGHBOR_EVENTS {
            recorder::record(EventKind::BudgetTick, "test.ring.neighbor", i as u64, 0);
        }
    }

    // A faulting run: chaos at the last pipeline stage, attributed to
    // the session that filled the ring.
    let site = "pipeline.storage_transform";
    chaos::install(ChaosSpec {
        site: site.to_string(),
        kind: FaultKind::Error,
        nth: 0,
        seed: 0,
    });
    let dir = std::env::temp_dir().join(format!("aov-diag-ring-wraparound-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = Pipeline::for_example("example1")
        .unwrap()
        .session(SESSION)
        .diag_dir(dir.clone())
        .run()
        .expect("chaos error degrades, not aborts");
    chaos::disarm();
    assert_eq!(report.health(), Health::Degraded);

    // The run provably wrapped the ring.
    let recorded = recorder::events_recorded() - head_before;
    assert!(
        recorded > (RING_CAPACITY + NEIGHBOR_EVENTS) as u64,
        "recorded {recorded} events, ring holds {RING_CAPACITY}"
    );

    // Exactly one schema-valid bundle, as in the chaos-matrix suite.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("diag dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "want exactly one bundle");
    let text = std::fs::read_to_string(entries.pop().unwrap()).expect("bundle readable");
    let doc = Json::parse(&text).expect("bundle parses");
    if let Err(errors) = schema::validate(&doc, &diag::diag_schema()) {
        panic!("bundle schema violations: {errors:#?}");
    }

    // The drained ring is the session's share of a full ring: bounded by
    // the capacity, full apart from the neighbor's events (and torn
    // slots), ordered, free of the neighbor, and — the point of eviction
    // keeping the *newest* events — still ends with the fault.
    let Some(Json::Arr(ring)) = doc.get("events").and_then(|e| e.get("ring")) else {
        panic!("bundle has no ring array");
    };
    assert!(
        ring.len() <= RING_CAPACITY - NEIGHBOR_EVENTS,
        "ring drained {} events from a {RING_CAPACITY}-slot ring",
        ring.len()
    );
    assert!(
        ring.len() >= RING_CAPACITY - NEIGHBOR_EVENTS - 4,
        "a wrapped ring drains full (minus torn slots), got {}",
        ring.len()
    );
    let int_field = |e: &Json, key: &str| match e.get(key) {
        Some(Json::Int(v)) => *v,
        other => panic!("event {key}: {other:?}"),
    };
    assert!(
        ring.iter()
            .all(|e| int_field(e, "session") == SESSION as i64),
        "bundle carries only its session's events"
    );
    let seqs: Vec<i64> = ring.iter().map(|e| int_field(e, "seq")).collect();
    assert!(
        seqs[0] > head_before as i64,
        "the oldest filler events were evicted"
    );
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "drained ring stays ordered across wraparound"
    );
    // Ring labels truncate to the recorder's inline capacity.
    let marker = &site[..site.len().min(recorder::LABEL_BYTES)];
    assert!(
        ring.iter().any(|e| {
            e.get("kind") == Some(&Json::Str("chaos_fired".into()))
                && e.get("label") == Some(&Json::Str(marker.into()))
        }),
        "fault marker survives in the ring tail"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
