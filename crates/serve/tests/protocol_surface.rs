//! The daemon's request surface: `solve`, `stats`, `health` and
//! `shutdown`. Any other frame type is refused as a `bad_request` that
//! names it, and the daemon keeps serving.

use aov_serve::client::{self, ClientConfig};
use aov_serve::protocol::{self, SolveOptions};
use aov_serve::server::{Server, ServerConfig};
use aov_support::Json;

fn call_one(addr: &str, frame: &Json) -> Json {
    let cfg = ClientConfig {
        addr: addr.to_string(),
        retries: 2,
        base_ms: 1,
        cap_ms: 10,
        seed: 11,
    };
    client::call(&cfg, frame, None)
        .expect("daemon answers")
        .frame
}

fn str_field<'a>(frame: &'a Json, key: &str) -> &'a str {
    match frame.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?} in {frame:?}"),
    }
}

fn keys(frame: &Json) -> Vec<&str> {
    match frame {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn unknown_verbs_are_bad_requests_and_the_daemon_keeps_serving() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();

    for verb in ["metrics", "watch"] {
        let frame = call_one(&addr, &protocol::plain_frame(verb, 3));
        assert_eq!(str_field(&frame, "type"), "error", "{verb}: {frame:?}");
        assert_eq!(
            str_field(&frame, "code"),
            protocol::code::BAD_REQUEST,
            "{verb}: {frame:?}"
        );
        let message = str_field(&frame, "message");
        assert!(message.contains(&format!("{verb:?}")), "{verb}: {message}");
    }

    // A solve still succeeds afterwards, and a `"watch": true` field on
    // a solve frame is ignored like any unknown field.
    let solve = protocol::solve_frame(4, ("example1", true), &SolveOptions::default());
    for frame in [solve.clone(), solve.field("watch", true)] {
        let answer = call_one(&addr, &frame);
        assert_eq!(str_field(&answer, "type"), "report", "{answer:?}");
        assert_eq!(answer.get("exit_code"), Some(&Json::Int(0)), "{answer:?}");
    }

    let stats = call_one(&addr, &protocol::plain_frame("stats", 5));
    assert_eq!(
        keys(&stats),
        [
            "schema",
            "type",
            "id",
            "queue_depth",
            "inflight",
            "served",
            "overloaded",
            "faults",
            "worker_restarts",
            "draining",
            "uptime_ms",
            "workers",
            "memo",
        ],
        "{stats:?}"
    );
    assert!(
        matches!(stats.get("uptime_ms"), Some(Json::Int(ms)) if *ms >= 0),
        "{stats:?}"
    );
    let Some(Json::Arr(workers)) = stats.get("workers") else {
        panic!("workers array missing: {stats:?}");
    };
    assert_eq!(workers.len(), 2, "one state per worker: {stats:?}");
    for (idx, worker) in workers.iter().enumerate() {
        assert_eq!(keys(worker), ["id", "state"], "{worker:?}");
        assert_eq!(worker.get("id"), Some(&Json::Int(idx as i64)));
        assert!(
            ["idle", "solving", "restarting"].contains(&str_field(worker, "state")),
            "{worker:?}"
        );
    }
    let memo = stats.get("memo").expect("memo block");
    assert_eq!(keys(memo), ["entries", "hits", "misses", "evictions"]);
    server.shutdown();
}
