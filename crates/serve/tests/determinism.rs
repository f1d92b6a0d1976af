//! Daemon-served determinism: for every corpus program, a report
//! served by `aovd` over the wire must be byte-identical to the report
//! the CLI path (`aov run`, i.e. a direct [`Pipeline`] run) produces —
//! once run-local noise (wall-clock micros, allocator columns,
//! watermark counters) is normalized away. The service layer may add
//! framing; it must never perturb a solve.

use aov_engine::{BudgetSpec, Pipeline};
use aov_serve::client::{self, ClientConfig};
use aov_serve::protocol::{self, SolveOptions};
use aov_serve::server::{Server, ServerConfig};
use aov_support::{Json, ToJson as _};

/// Same normalization as `tests/lang_roundtrip.rs`.
fn normalize(j: &Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| match k.as_str() {
                    "micros" | "total_micros" => (k.clone(), Json::Int(0)),
                    "alloc" => (k.clone(), Json::Null),
                    "counters" => (k.clone(), drop_watermarks(v)),
                    _ => (k.clone(), normalize(v)),
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(normalize).collect()),
        other => other.clone(),
    }
}

fn drop_watermarks(counters: &Json) -> Json {
    let Json::Arr(items) = counters else {
        return normalize(counters);
    };
    Json::Arr(
        items
            .iter()
            .filter(|item| match item {
                Json::Obj(fields) => !fields.iter().any(|(k, v)| {
                    k == "name" && matches!(v, Json::Str(s) if s.ends_with("_bits_max"))
                }),
                _ => true,
            })
            .map(normalize)
            .collect(),
    )
}

/// `example3` costs over a minute at full depth; the same deterministic
/// pivot budget `tests/lang_roundtrip.rs` uses keeps the parity check
/// fast (both paths degrade identically).
fn budget_for(name: &str) -> Option<u64> {
    (name == "example3").then_some(1_000)
}

#[test]
fn daemon_served_reports_match_the_cli_path_byte_for_byte() {
    // Memoization stays off on both paths: the tier is semantically
    // transparent but its counters are not, and this test is about
    // byte-level parity.
    let server = Server::start(ServerConfig {
        workers: 1,
        memo: false,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();
    let cfg = ClientConfig {
        addr,
        retries: 2,
        base_ms: 1,
        cap_ms: 10,
        seed: 3,
    };

    for (i, name) in aov_lang::corpus::names().enumerate() {
        let budget = BudgetSpec {
            pivots: budget_for(name),
            nodes: None,
            ms: None,
        };
        // The CLI path: parse + direct pipeline run in this process.
        let program =
            aov_lang::parse(aov_lang::corpus::source(name).expect("corpus source")).expect(name);
        let direct = Pipeline::new(program)
            .budget(budget)
            .run()
            .unwrap_or_else(|e| panic!("{name}: direct run failed: {e}"));
        let direct_text = normalize(&direct.to_json()).to_pretty();

        // The served path: same program, same budget, over the wire.
        let options = SolveOptions {
            budget,
            ..SolveOptions::default()
        };
        let frame = client::call(
            &cfg,
            &protocol::solve_frame(i as i64, (name, true), &options),
            None,
        )
        .expect("daemon answers")
        .frame;
        assert_eq!(
            frame.get("type"),
            Some(&Json::Str("report".to_string())),
            "{name}: {frame:?}"
        );
        let served_text = normalize(frame.get("report").expect("report body")).to_pretty();
        assert_eq!(
            served_text, direct_text,
            "{name}: served report differs from the CLI path"
        );
        // The frame's verdict mirrors the CLI exit-code contract.
        let expected_exit = match direct.health().name() {
            "ok" if direct.equivalent == Some(false) => 1,
            "ok" => 0,
            _ => 3,
        };
        assert_eq!(
            frame.get("exit_code"),
            Some(&Json::Int(expected_exit)),
            "{name}"
        );
    }
    server.shutdown();
}

/// `(stage, counters)` of every stage of a report, as JSON.
fn stage_counters(report: &Json) -> Vec<(Json, Json)> {
    let Some(Json::Arr(stages)) = report.get("stages") else {
        panic!("report has no stages: {report:?}");
    };
    stages
        .iter()
        .map(|s| {
            (
                s.get("name").unwrap().clone(),
                s.get("counters").unwrap().clone(),
            )
        })
        .collect()
}

/// Two requests solved at the same time by two daemon workers each get
/// stage counters identical to a solo run on the CLI path — every
/// counter, high-water marks included: a request's numbers are its own,
/// never a concurrent neighbor's.
#[test]
fn concurrent_requests_get_the_solo_stage_counters() {
    const NAMES: [&str; 2] = ["example1", "example4"];
    let server = Server::start(ServerConfig {
        workers: 2,
        memo: false,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let cfg = ClientConfig {
        addr: server.addr().to_string(),
        retries: 2,
        base_ms: 1,
        cap_ms: 10,
        seed: 5,
    };
    let solo: Vec<Vec<(Json, Json)>> = NAMES
        .iter()
        .map(|&name| {
            std::thread::spawn(move || {
                let program =
                    aov_lang::parse(aov_lang::corpus::source(name).expect("corpus")).expect(name);
                let report = Pipeline::new(program).run().expect("direct run");
                stage_counters(&report.to_json())
            })
            .join()
            .expect("solo run")
        })
        .collect();
    let barrier = std::sync::Barrier::new(NAMES.len());
    let served: Vec<Vec<(Json, Json)>> = std::thread::scope(|s| {
        let handles: Vec<_> = NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let (barrier, cfg) = (&barrier, &cfg);
                s.spawn(move || {
                    let frame =
                        protocol::solve_frame(i as i64, (name, true), &SolveOptions::default());
                    barrier.wait();
                    let frame = client::call(cfg, &frame, None)
                        .expect("daemon answers")
                        .frame;
                    stage_counters(frame.get("report").expect("report frame"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.shutdown();
    for ((name, solo), served) in NAMES.iter().zip(&solo).zip(&served) {
        assert_eq!(
            served, solo,
            "{name}: served stage counters differ from a solo run"
        );
    }
}
