//! Crash-diagnostic bundles (`aov-diag/1`).
//!
//! When a pipeline run lands anywhere but [`Health::Ok`] and a
//! [`Pipeline::diag_dir`](crate::Pipeline::diag_dir) is configured, the
//! engine drains the [flight recorder](aov_trace::recorder) and writes
//! one self-contained JSON bundle describing the faulty run:
//!
//! * the stage ladder as executed (partial on hard failures), with
//!   per-stage counters, allocator traffic and error chains,
//! * the error behind the verdict, with its full `source()` chain
//!   (engine → core → fault → budget trip),
//! * the budget configuration and how much of it was spent,
//! * the run's counter deltas and a process allocator snapshot,
//! * the recorder ring tail — the last few thousand span/stage/
//!   budget/chaos events with nanosecond timestamps, captured even when
//!   full tracing was disabled,
//! * identity: crate version and an FNV-1a digest of the program IR, so
//!   a bundle can be matched to the exact input that produced it.
//!
//! Bundles are schema-versioned ([`SCHEMA`]) and validated by
//! `aov inspect --check` and the CI diag-smoke step against
//! [`diag_schema`]. The writer never clobbers: file names carry a
//! process-wide sequence number and creation is `create_new`, so
//! repeated faulty runs (and concurrent processes sharing a directory)
//! each keep their own bundle.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use aov_fault::Budget;
use aov_ir::Program;
use aov_support::schema::Schema;
use aov_support::{digest, Json, ToJson};
use aov_trace::recorder;

use crate::pipeline::{
    counters_schema, error_chain_of, stage_schema, BudgetSpec, EngineError, Health, StageOutcome,
    StageReport,
};

/// The bundle format identifier stored in every document's `schema`
/// field. Readers must reject other versions.
pub const SCHEMA: &str = "aov-diag/1";

/// Structural schema of one `aov-diag/1` bundle; `aov inspect --check`
/// validates candidate documents against this shape.
#[must_use]
pub fn diag_schema() -> Schema {
    let event = Schema::object([
        ("seq", Schema::Int, true),
        ("t_ns", Schema::Int, true),
        ("thread", Schema::Int, true),
        // Present since the daemon's per-request attribution landed;
        // optional so bundles written by older binaries still validate.
        ("session", Schema::Int, false),
        ("kind", Schema::Str, true),
        ("label", Schema::Str, true),
        ("a", Schema::Int, true),
        ("b", Schema::Int, true),
    ]);
    Schema::object([
        ("schema", Schema::Str, true),
        ("program", Schema::Str, true),
        ("workers", Schema::Int, true),
        ("health", Schema::Str, true),
        (
            "error",
            Schema::nullable(Schema::object([
                ("stage", Schema::nullable(Schema::Str), true),
                ("message", Schema::Str, true),
                ("chain", Schema::array(Schema::Str), true),
            ])),
            true,
        ),
        ("stages", Schema::array(stage_schema()), true),
        (
            "budget",
            Schema::object([
                (
                    "limits",
                    Schema::object([
                        ("pivots", Schema::nullable(Schema::Int), true),
                        ("nodes", Schema::nullable(Schema::Int), true),
                        ("ms", Schema::nullable(Schema::Int), true),
                    ]),
                    true,
                ),
                ("pivots_spent", Schema::Int, true),
                ("nodes_spent", Schema::Int, true),
            ]),
            true,
        ),
        ("counters", counters_schema(), true),
        (
            "alloc",
            Schema::object([
                ("allocs", Schema::Int, true),
                ("frees", Schema::Int, true),
                ("bytes", Schema::Int, true),
                ("freed_bytes", Schema::Int, true),
                ("live", Schema::Int, true),
                ("peak", Schema::Int, true),
                ("max_bits", Schema::Int, true),
            ]),
            true,
        ),
        (
            "events",
            Schema::object([
                ("recorded", Schema::Int, true),
                ("ring", Schema::array(event), true),
            ]),
            true,
        ),
        (
            "identity",
            Schema::object([
                ("version", Schema::Str, true),
                ("program_digest", Schema::Str, true),
            ]),
            true,
        ),
    ])
}

/// A `u64` as a [`Json::Int`], saturating at `i64::MAX`.
fn int(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Builds the bundle document. Split from the writer so tests can
/// validate the shape without touching the filesystem.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_bundle(
    program: &Program,
    workers: usize,
    health: Health,
    stages: &[StageReport],
    budget: &Budget,
    spec: BudgetSpec,
    run_counters: &[(String, u64)],
    error: Option<&EngineError>,
    session: u64,
) -> Json {
    // The error behind the verdict: a hard failure when one was passed
    // in, otherwise the last degraded/failed stage's captured chain
    // (budget trips and worker panics degrade rather than abort).
    let error_json = match error {
        Some(e) => {
            let stage = stages
                .iter()
                .rev()
                .find(|s| matches!(s.outcome, StageOutcome::Failed { .. }))
                .map(|s| s.name);
            let chain = error_chain_of(e);
            Json::obj()
                .field("stage", stage.map_or(Json::Null, Json::from))
                .field("message", chain[0].as_str())
                .field(
                    "chain",
                    chain
                        .iter()
                        .map(|c| Json::from(c.as_str()))
                        .collect::<Vec<_>>(),
                )
        }
        None => stages
            .iter()
            .rev()
            .find(|s| !s.error_chain.is_empty())
            .map(|s| (s, s.error_chain.clone()))
            .or_else(|| {
                // Some faults are absorbed inside a stage (a panic an
                // orthant loop isolated) and surface only as the
                // degraded outcome's reason — still worth naming.
                stages
                    .iter()
                    .rev()
                    .find(|s| {
                        matches!(s.outcome.class(), "degraded" | "failed")
                            && s.outcome.reason().is_some()
                    })
                    .map(|s| (s, vec![s.outcome.reason().unwrap().to_string()]))
            })
            .map_or(Json::Null, |(s, chain)| {
                Json::obj()
                    .field("stage", s.name)
                    .field("message", chain[0].as_str())
                    .field(
                        "chain",
                        chain
                            .iter()
                            .map(|c| Json::from(c.as_str()))
                            .collect::<Vec<_>>(),
                    )
            }),
    };
    // The ring is process-global. A run with a session id (a daemon
    // request) keeps only its own timeline, so a request's bundle never
    // carries a concurrent neighbor's events; session 0 (the CLI's
    // whole-process runs) keeps everything.
    let ring = recorder::snapshot()
        .into_iter()
        .filter(|e| session == 0 || e.session == session)
        .map(|e| {
            Json::obj()
                .field("seq", int(e.seq))
                .field("t_ns", int(e.t_ns))
                .field("thread", int(e.thread))
                .field("session", int(e.session))
                .field("kind", e.kind.name())
                .field("label", e.label.as_str())
                .field("a", int(e.a))
                .field("b", int(e.b))
        })
        .collect::<Vec<_>>();
    let alloc = aov_support::alloc::stats();
    Json::obj()
        .field("schema", SCHEMA)
        .field("program", program.name())
        .field("workers", workers)
        .field("health", health.name())
        .field("error", error_json)
        .field("stages", stages.to_json())
        .field(
            "budget",
            Json::obj()
                .field("limits", spec.to_json())
                .field("pivots_spent", int(budget.pivots_spent()))
                .field("nodes_spent", int(budget.nodes_spent())),
        )
        .field(
            "counters",
            run_counters
                .iter()
                .map(|(k, v)| {
                    Json::obj()
                        .field("name", k.as_str())
                        .field("count", int(*v))
                })
                .collect::<Vec<_>>(),
        )
        .field(
            "alloc",
            Json::obj()
                .field("allocs", int(alloc.allocs))
                .field("frees", int(alloc.frees))
                .field("bytes", int(alloc.bytes))
                .field("freed_bytes", int(alloc.freed_bytes))
                .field("live", Json::Int(alloc.live.clamp(i64::MIN, i64::MAX)))
                .field("peak", Json::Int(alloc.peak.max(0)))
                .field("max_bits", int(alloc.max_bits)),
        )
        .field(
            "events",
            Json::obj()
                .field("recorded", int(recorder::events_recorded()))
                .field("ring", Json::Arr(ring)),
        )
        .field(
            "identity",
            Json::obj()
                .field("version", env!("CARGO_PKG_VERSION"))
                .field(
                    "program_digest",
                    digest::fnv1a_hex(format!("{program:?}").as_bytes()).as_str(),
                ),
        )
}

/// Writes a bundle for a fault at the **service layer** — an `aovd`
/// request that died before (or outside) the pipeline ladder: a
/// `serve.*` chaos injection or a supervised worker panic. The stage
/// ladder is empty (no stage ran); the flight-recorder tail, filtered
/// to the request's `session`, is the evidence.
///
/// # Errors
///
/// Filesystem errors only, same contract as the pipeline's own hook.
pub fn write_service_bundle(
    dir: &Path,
    program: &Program,
    spec: BudgetSpec,
    message: &str,
    session: u64,
) -> std::io::Result<PathBuf> {
    let budget = Budget::new(spec.pivots, spec.nodes, spec.ms);
    let error = EngineError::Service(message.to_string());
    write_bundle(
        dir,
        program,
        1,
        Health::Failed,
        &[],
        &budget,
        spec,
        &[],
        Some(&error),
        session,
    )
}

/// Process-wide bundle sequence; combined with `create_new` below it
/// keeps repeated faulty runs from clobbering each other.
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Drains the recorder and writes one bundle into `dir` (creating it),
/// returning the bundle path.
///
/// # Errors
///
/// Filesystem errors only; the caller converts them into a counter —
/// diagnostics must never mask the run's own verdict.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_bundle(
    dir: &Path,
    program: &Program,
    workers: usize,
    health: Health,
    stages: &[StageReport],
    budget: &Budget,
    spec: BudgetSpec,
    run_counters: &[(String, u64)],
    error: Option<&EngineError>,
    session: u64,
) -> std::io::Result<PathBuf> {
    let bundle = build_bundle(
        program,
        workers,
        health,
        stages,
        budget,
        spec,
        run_counters,
        error,
        session,
    );
    std::fs::create_dir_all(dir)?;
    loop {
        let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("aov-diag-{}-{seq:03}.json", program.name()));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                writeln!(file, "{}", bundle.to_pretty())?;
                return Ok(path);
            }
            // A bundle from an earlier process already owns this
            // sequence number; move on to the next one.
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
}
