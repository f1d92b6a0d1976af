//! The `aov-serve/1` wire protocol: newline-delimited JSON frames over
//! a plain TCP stream.
//!
//! Every frame — request or response — is one line of compact JSON
//! carrying a `schema` tag and a frame `type`. Requests additionally
//! carry a client-chosen `id` that the daemon echoes back, so a client
//! multiplexing frames can correlate responses. The daemon never
//! writes a partial line: each frame is a single buffered write, so a
//! client sees either a whole frame or (on daemon death) a clean EOF,
//! never a torn one.
//!
//! # Request frames
//!
//! * `solve` — `{"schema","type":"solve","id",("source"|"example"),
//!   "options":{memoize,budget:{pivots,nodes,ms},deadline_ms,chaos}}`. `source` is `.aov` program text; `example` names a
//!   corpus program. All options are optional.
//! * `stats` — queue depth, in-flight count, served/overloaded/restart
//!   counters, uptime, per-worker states, and the shared memo tier's
//!   economics.
//! * `health` — liveness probe (`ok` or `draining`).
//! * `shutdown` — asks the daemon to drain and exit.
//!
//! Unknown fields are ignored; an unknown `type` is a `bad_request`.
//!
//! # Response frames
//!
//! * `report` — a full pipeline report plus the request's `session`
//!   id, a CLI-compatible `exit_code`, and a memo-tier snapshot.
//! * `error` — structured rejection: a stable `code`
//!   (`overloaded`, `deadline`, `parse`, `bad_request`, `fault`,
//!   `shutting_down`), a human message, and — for `overloaded` — a
//!   `retry_after_ms` hint the client backoff honors.
//! * `stats`, `health`, `shutdown` — mirrors of their requests.
//!
//! Captured request/response transcripts are themselves documents
//! (`type":"transcript"`) validated by [`transcript_schema`] via
//! `aov inspect --check`.

use aov_engine::BudgetSpec;
use aov_support::schema::Schema;
use aov_support::Json;

/// The protocol identifier stamped into every frame and transcript.
pub const SCHEMA: &str = "aov-serve/1";

/// Stable error codes an `error` frame may carry.
pub mod code {
    /// Queue or admission pool exhausted; retry after `retry_after_ms`.
    pub const OVERLOADED: &str = "overloaded";
    /// The request's deadline passed before a worker picked it up.
    pub const DEADLINE: &str = "deadline";
    /// The program source failed to parse.
    pub const PARSE: &str = "parse";
    /// The frame itself is malformed (unknown type, bad field, …).
    pub const BAD_REQUEST: &str = "bad_request";
    /// The solve (or a `serve.*` probe) faulted; a diagnostic bundle
    /// was written when the daemon has a diag dir.
    pub const FAULT: &str = "fault";
    /// The daemon is draining and admits no new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
}

/// Per-request solve options (all optional on the wire).
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Request-level memoization opt-in (the daemon's shared tier must
    /// also be armed for it to matter).
    pub memoize: bool,
    /// Work/deadline budget enforced as admission policy.
    pub budget: BudgetSpec,
    /// Client deadline for the whole request, queue wait included.
    pub deadline_ms: Option<u64>,
    /// Request-scoped chaos spec (`serve.*` sites only — engine sites
    /// would be a cross-tenant side channel; arm those on the daemon).
    pub chaos: Option<String>,
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in every response.
    pub id: i64,
    pub kind: RequestKind,
}

/// What the client asked for.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// Run a program through the pipeline.
    Solve {
        /// `.aov` source text (resolved from `example` when given).
        source: String,
        /// Display name for diagnostics (`examples/<name>.aov` or
        /// `<request>`).
        display: String,
        options: SolveOptions,
    },
    Stats,
    Health,
    Shutdown,
}

fn get_u64(j: &Json, key: &str) -> Option<u64> {
    match j.get(key) {
        Some(Json::Int(v)) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

fn get_str<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    match j.get(key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Parses one request line. Errors are `(code, message)` pairs ready
/// for an `error` frame.
///
/// # Errors
///
/// `bad_request` for malformed JSON, a missing/unknown `type`, or an
/// unknown `example` name.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let bad = |m: String| (code::BAD_REQUEST.to_string(), m);
    let doc = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let id = match doc.get("id") {
        Some(Json::Int(v)) => *v,
        None => 0,
        other => return Err(bad(format!("id must be an integer, got {other:?}"))),
    };
    let kind = match get_str(&doc, "type") {
        Some("solve") => {
            let (source, display) = if let Some(src) = get_str(&doc, "source") {
                (src.to_string(), "<request>".to_string())
            } else if let Some(name) = get_str(&doc, "example") {
                match aov_lang::corpus::source(name) {
                    Some(src) => (src.to_string(), format!("examples/{name}.aov")),
                    None => {
                        return Err(bad(format!(
                            "unknown example {name:?} (expected one of {})",
                            aov_lang::corpus::names().collect::<Vec<_>>().join(", ")
                        )))
                    }
                }
            } else {
                return Err(bad("solve needs a \"source\" or \"example\" field".into()));
            };
            let mut options = SolveOptions::default();
            if let Some(opts) = doc.get("options") {
                options.memoize = matches!(opts.get("memoize"), Some(Json::Bool(true)));
                options.deadline_ms = get_u64(opts, "deadline_ms");
                options.chaos = get_str(opts, "chaos").map(str::to_string);
                if let Some(budget) = opts.get("budget") {
                    options.budget = BudgetSpec {
                        pivots: get_u64(budget, "pivots"),
                        nodes: get_u64(budget, "nodes"),
                        ms: get_u64(budget, "ms"),
                    };
                }
            }
            RequestKind::Solve {
                source,
                display,
                options,
            }
        }
        Some("stats") => RequestKind::Stats,
        Some("health") => RequestKind::Health,
        Some("shutdown") => RequestKind::Shutdown,
        Some(other) => return Err(bad(format!("unknown request type {other:?}"))),
        None => return Err(bad("missing \"type\" field".into())),
    };
    Ok(Request { id, kind })
}

/// Builds a solve request frame (the client side of
/// [`parse_request`]).
#[must_use]
pub fn solve_frame(id: i64, source_or_example: (&str, bool), options: &SolveOptions) -> Json {
    let (text, is_example) = source_or_example;
    let mut budget = Json::obj();
    if let Some(p) = options.budget.pivots {
        budget = budget.field("pivots", p);
    }
    if let Some(n) = options.budget.nodes {
        budget = budget.field("nodes", n);
    }
    if let Some(ms) = options.budget.ms {
        budget = budget.field("ms", ms);
    }
    let mut opts = Json::obj()
        .field("memoize", options.memoize)
        .field("budget", budget);
    if let Some(ms) = options.deadline_ms {
        opts = opts.field("deadline_ms", ms);
    }
    if let Some(chaos) = &options.chaos {
        opts = opts.field("chaos", chaos.as_str());
    }
    let frame = Json::obj()
        .field("schema", SCHEMA)
        .field("type", "solve")
        .field("id", id);
    let frame = if is_example {
        frame.field("example", text)
    } else {
        frame.field("source", text)
    };
    frame.field("options", opts)
}

/// A request frame with no body (`stats`, `health`, `shutdown`).
#[must_use]
pub fn plain_frame(kind: &str, id: i64) -> Json {
    Json::obj()
        .field("schema", SCHEMA)
        .field("type", kind)
        .field("id", id)
}

/// Builds an `error` response frame.
#[must_use]
pub fn error_frame(id: i64, code: &str, message: &str, retry_after_ms: Option<u64>) -> Json {
    let frame = Json::obj()
        .field("schema", SCHEMA)
        .field("type", "error")
        .field("id", id)
        .field("code", code)
        .field("message", message);
    match retry_after_ms {
        Some(ms) => frame.field("retry_after_ms", ms),
        None => frame,
    }
}

/// The memo-tier economics object embedded in `report` and `stats`
/// frames.
#[must_use]
pub fn memo_json(stats: &aov_lp::memo::MemoStats) -> Json {
    Json::obj()
        .field("entries", stats.entries)
        .field("hits", stats.hits)
        .field("misses", stats.misses)
        .field("evictions", stats.evictions)
}

/// Builds a `report` response frame around a pipeline report.
#[must_use]
pub fn report_frame(id: i64, session: u64, exit_code: i32, health: &str, report: Json) -> Json {
    Json::obj()
        .field("schema", SCHEMA)
        .field("type", "report")
        .field("id", id)
        .field("session", session)
        .field("exit_code", i64::from(exit_code))
        .field("health", health)
        .field("memo", memo_json(&aov_lp::memo::stats()))
        .field("report", report)
}

/// Structural schema of a captured request/response transcript
/// (`{"schema":"aov-serve/1","type":"transcript","frames":[{dir,
/// frame}]}`), registered with `aov inspect --check`. Frames stay
/// [`Schema::Any`]: the transcript format outlives individual frame
/// shapes, and unknown frame fields must never fail a capture.
#[must_use]
pub fn transcript_schema() -> Schema {
    Schema::object([
        ("schema", Schema::Str, true),
        ("type", Schema::Str, true),
        (
            "frames",
            Schema::array(Schema::object([
                ("dir", Schema::Str, true),
                ("frame", Schema::Any, true),
            ])),
            true,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_frame_roundtrips_through_parse() {
        let options = SolveOptions {
            memoize: true,
            budget: BudgetSpec {
                pivots: Some(500),
                nodes: None,
                ms: Some(2_000),
            },
            deadline_ms: Some(5_000),
            chaos: Some("site=serve.request,kind=error".to_string()),
        };
        let frame = solve_frame(42, ("example1", true), &options);
        let req = parse_request(&frame.to_compact()).expect("parses");
        assert_eq!(req.id, 42);
        let RequestKind::Solve {
            source,
            display,
            options,
        } = req.kind
        else {
            panic!("not a solve");
        };
        assert!(!source.is_empty());
        assert_eq!(display, "examples/example1.aov");
        assert!(options.memoize);
        assert_eq!(options.budget.pivots, Some(500));
        assert_eq!(options.budget.nodes, None);
        assert_eq!(options.budget.ms, Some(2_000));
        assert_eq!(options.deadline_ms, Some(5_000));
        assert_eq!(
            options.chaos.as_deref(),
            Some("site=serve.request,kind=error")
        );
    }

    #[test]
    fn malformed_requests_reject_with_bad_request() {
        for line in [
            "not json",
            "{\"type\":\"unknown\",\"id\":1}",
            "{\"id\":1}",
            "{\"type\":\"solve\",\"id\":1}",
            "{\"type\":\"solve\",\"id\":1,\"example\":\"nope\"}",
        ] {
            let (code, msg) = parse_request(line).expect_err(line);
            assert_eq!(code, code::BAD_REQUEST, "{line}: {msg}");
        }
    }

    #[test]
    fn error_frames_carry_retry_hint_only_when_given() {
        let with = error_frame(1, code::OVERLOADED, "queue full", Some(25));
        assert_eq!(with.get("retry_after_ms"), Some(&Json::Int(25)));
        let without = error_frame(1, code::FAULT, "boom", None);
        assert_eq!(without.get("retry_after_ms"), None);
    }

    #[test]
    fn transcripts_validate_against_their_schema() {
        let doc = Json::obj()
            .field("schema", SCHEMA)
            .field("type", "transcript")
            .field(
                "frames",
                vec![Json::obj()
                    .field("dir", "send")
                    .field("frame", plain_frame("health", 1))],
            );
        aov_support::schema::validate(&doc, &transcript_schema()).expect("valid transcript");
    }
}
