//! The benchmark observatory: one suite run → one versioned
//! `BENCH_<n>.json` artifact.
//!
//! A suite runs every requested example through the instrumented
//! [`Pipeline`] (LP memoization on). The *first* run per example is
//! traced — its `aov-trace` span aggregates, solver-counter deltas and
//! result digests go into the artifact — and the remaining `runs − 1`
//! repetitions run untraced, purely for timing. Wall and per-stage
//! times are summarized as min/median ([`Stat`]) across all runs, so a
//! baseline records the best observed time rather than one noisy
//! sample. The figure suite then reuses the traced reports through
//! [`FigureCtx::from_reports`] (Example 3's AOV is computed once per
//! suite) and each figure's rendered text is fingerprinted with FNV-1a,
//! turning the artifact into a correctness tripwire as well as a
//! performance record.
//!
//! The artifact shape is versioned ([`SCHEMA_VERSION`]) and structurally
//! checked ([`artifact_schema`]); `aov bench --check FILE` and the CI
//! smoke step validate written files against it. [`crate::regress`]
//! compares two artifacts.
//!
//! # Measurement integrity (`aov-bench/2`)
//!
//! Version 2 artifacts additionally record *how* the numbers were
//! taken: a [`Calibration`] block (machine-speed microprobes measured
//! right before the suite ran, so comparisons across artifacts can
//! normalize away container speed drift) and an `environment` block
//! (worker count, allocator/recorder arming, ring capacity, and the
//! digest of each program measured — the context a number is
//! meaningless without). Version 1 artifacts (`BENCH_0`–`BENCH_3`)
//! stay readable through [`upgrade`], which grafts a neutral
//! calibration and a best-effort environment onto the parsed document.

use std::time::Instant;

use crate::{default_workers, figure_specs, reject_degraded, FigureCtx, EXAMPLES};
use aov_engine::{BudgetSpec, EngineError, Pipeline, Report, Stat};
use aov_support::calibrate::Calibration;
use aov_support::digest::fnv1a_hex;
use aov_support::schema::{self, Schema};
use aov_support::{Json, ToJson};

/// Artifact format identifier; bump on breaking shape changes.
pub const SCHEMA_VERSION: &str = "aov-bench/2";

/// The previous artifact format, still accepted via [`upgrade`].
pub const SCHEMA_VERSION_V1: &str = "aov-bench/1";

/// What to run and how often.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Example programs to benchmark (subset of `example1..example4`).
    pub examples: Vec<String>,
    /// Pipeline repetitions per example (min/median over all of them).
    pub runs: usize,
    /// Pipeline worker threads (see `aov_engine::Pipeline::workers`).
    pub workers: usize,
    /// Run the machine-model figures at reduced problem sizes (the CI
    /// smoke setting); analysis figures are unaffected.
    pub quick: bool,
    /// Whether to run the figure suite at all.
    pub figures: bool,
    /// Span-aggregate rows kept per example (top by self time).
    pub span_rows: usize,
    /// Solver budget applied to every pipeline run. A tripped budget
    /// degrades the run, and [`run_suite`] rejects degraded runs rather
    /// than recording partial numbers.
    pub budget: BudgetSpec,
    /// When set, one `aov-profile/1` document per example
    /// (`profile_<example>.json`, built from the traced first run) is
    /// written into this directory for `aov pdiff` to consume.
    pub profile_dir: Option<std::path::PathBuf>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            examples: EXAMPLES.iter().map(|s| (*s).to_string()).collect(),
            runs: 1,
            workers: default_workers(),
            quick: false,
            figures: true,
            // Raised from 24 when the p2.* polyhedral spans landed:
            // ~15 new rows per example would otherwise crowd the
            // pipeline stage rows out of the top-by-self-time list and
            // break baseline continuity (spans present in an old
            // artifact going "missing" in the new one).
            span_rows: 48,
            budget: BudgetSpec::default(),
            profile_dir: None,
        }
    }
}

/// Everything the observatory records about one example's pipeline runs.
#[derive(Debug, Clone)]
pub struct ExampleBench {
    pub program: String,
    /// Repetitions aggregated into the timing stats.
    pub runs: usize,
    /// Whole-pipeline wall clock, microseconds.
    pub wall_us: Stat,
    /// Per-stage wall clock, microseconds, in stage order.
    pub stages: Vec<(String, Stat)>,
    /// Span aggregates of the traced first run (flame-table rows).
    pub spans: Json,
    /// Solver-counter increments of the traced first run.
    pub counters: Vec<(String, u64)>,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_hit_rate: Option<f64>,
    /// AOV per array, `(array, components)`.
    pub aov: Vec<(String, Vec<i64>)>,
    /// Dynamic equivalence verdict.
    pub equivalent: bool,
    /// FNV-1a fingerprint of the transformed code.
    pub code_digest: String,
    /// Allocator traffic of the traced first run (`allocs`, `bytes`,
    /// `peak`, `max_bits` object): telemetry-armed artifacts carry it,
    /// older `aov-bench/1` baselines simply lack the key.
    pub alloc: Json,
}

impl ExampleBench {
    /// Aggregates the traced first run and the untraced repetitions.
    /// The caller has already rejected degraded reports, so the result
    /// fields (`aov`, `equivalent`, `code`) are all present.
    fn collect(first: &Report, rest: &[Report], spans: Json, alloc: Json) -> ExampleBench {
        let all = || std::iter::once(first).chain(rest.iter());
        let wall_us = Stat::of(all().map(|r| r.total_micros).collect());
        let stages = first
            .stages
            .iter()
            .map(|s| {
                let sample = all()
                    .map(|r| r.stage(s.name).map_or(0, |x| x.micros))
                    .collect();
                (s.name.to_string(), Stat::of(sample))
            })
            .collect();
        let aov = first
            .arrays
            .iter()
            .cloned()
            .zip(
                first
                    .aov
                    .as_ref()
                    .expect("healthy run has an AOV")
                    .vectors()
                    .iter()
                    .map(|v| v.components().to_vec()),
            )
            .collect();
        ExampleBench {
            program: first.program.clone(),
            runs: 1 + rest.len(),
            wall_us,
            stages,
            spans,
            counters: first.counters.clone(),
            memo_hits: first.counter("lp.memo.hits"),
            memo_misses: first.counter("lp.memo.misses"),
            memo_hit_rate: first.memo_hit_rate(),
            aov,
            equivalent: first.equivalent.expect("healthy run ran equivalence"),
            code_digest: fnv1a_hex(
                first
                    .code
                    .as_ref()
                    .expect("healthy run generated code")
                    .as_bytes(),
            ),
            alloc,
        }
    }
}

impl ToJson for ExampleBench {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("program", self.program.as_str())
            .field("runs", self.runs)
            .field("wall_us", self.wall_us.to_json())
            .field(
                "stages",
                self.stages
                    .iter()
                    .map(|(name, stat)| {
                        Json::obj()
                            .field("name", name.as_str())
                            .field("us", stat.to_json())
                    })
                    .collect::<Vec<_>>(),
            )
            .field("spans", self.spans.clone())
            .field(
                "counters",
                self.counters
                    .iter()
                    .map(|(k, v)| Json::obj().field("name", k.as_str()).field("count", *v))
                    .collect::<Vec<_>>(),
            )
            .field(
                "memo",
                Json::obj()
                    .field("hits", self.memo_hits)
                    .field("misses", self.memo_misses)
                    .field(
                        "hit_rate",
                        self.memo_hit_rate.map_or(Json::Null, Json::Float),
                    ),
            )
            .field(
                "aov",
                self.aov
                    .iter()
                    .map(|(array, v)| {
                        Json::obj().field("array", array.as_str()).field(
                            "vector",
                            v.iter().map(|&c| Json::Int(c)).collect::<Vec<_>>(),
                        )
                    })
                    .collect::<Vec<_>>(),
            )
            .field("equivalent", self.equivalent)
            .field("code_digest", self.code_digest.as_str())
            .field("alloc", self.alloc.clone())
    }
}

/// One figure's cost and fingerprint within a suite run.
#[derive(Debug, Clone)]
pub struct FigureBench {
    pub id: String,
    /// Wall clock of regenerating the figure, microseconds.
    pub us: u128,
    pub reproduced: bool,
    /// FNV-1a fingerprint of the rendered report text.
    pub digest: String,
}

impl ToJson for FigureBench {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("id", self.id.as_str())
            .field("us", self.us as i64)
            .field("reproduced", self.reproduced)
            .field("digest", self.digest.as_str())
    }
}

/// One suite run's complete record — serialize with [`ToJson`] to get a
/// `BENCH_<n>.json` document.
#[derive(Debug, Clone)]
pub struct Artifact {
    pub runs: usize,
    pub workers: usize,
    pub quick: bool,
    pub figures_enabled: bool,
    /// Machine-speed microprobes measured right before the suite ran;
    /// [`Calibration::neutral`] on artifacts upgraded from v1.
    pub calibration: Calibration,
    /// Recording-time context: worker count, allocator/recorder arming,
    /// ring capacity, per-program digests. See [`environment_schema`].
    pub environment: Json,
    pub examples: Vec<ExampleBench>,
    pub figures: Vec<FigureBench>,
    /// Load-test summary from `aov bench --serve-clients N` (an
    /// `aov-serve/1` loadtest document). Gate-neutral: absent unless
    /// the flag was given, and no regression comparison reads it.
    pub serve: Option<Json>,
}

impl ToJson for Artifact {
    fn to_json(&self) -> Json {
        let serve = self.serve.clone();
        let doc = Json::obj()
            .field("schema", SCHEMA_VERSION)
            .field(
                "suite",
                Json::obj()
                    .field("runs", self.runs)
                    .field("workers", self.workers)
                    .field("quick", self.quick)
                    .field("figures", self.figures_enabled)
                    .field(
                        "examples",
                        self.examples
                            .iter()
                            .map(|e| Json::from(e.program.as_str()))
                            .collect::<Vec<_>>(),
                    ),
            )
            .field("calibration", self.calibration.to_json())
            .field("environment", self.environment.clone())
            .field("examples", self.examples.to_json())
            .field("figures", self.figures.to_json());
        match serve {
            Some(summary) => doc.field("serve", summary),
            None => doc,
        }
    }
}

/// Runs the configured suite and collects the artifact.
///
/// # Errors
///
/// The first pipeline failure, as [`EngineError`] — including runs that
/// merely *degraded* (tripped budget, injected fault, unschedulable
/// input): a baseline built from partial results would poison every
/// later regression comparison, so degraded runs are rejected outright.
pub fn run_suite(cfg: &SuiteConfig) -> Result<Artifact, EngineError> {
    // Calibrate before the suite: the microprobes cost a fraction of a
    // second and fingerprint the machine speed the timings below were
    // taken at.
    let calibration = Calibration::measure();
    let mut programs: Vec<Json> = Vec::new();
    let mut examples: Vec<ExampleBench> = Vec::new();
    let mut first_reports: Vec<Report> = Vec::new();
    for name in &cfg.examples {
        let pipeline = Pipeline::for_example(name)?
            .workers(cfg.workers)
            .memoize(true)
            .budget(cfg.budget);
        programs.push(
            Json::obj()
                .field("name", name.as_str())
                .field("digest", pipeline.program_digest().as_str()),
        );
        // Traced first run: span attribution, counters, digests, and
        // the allocator/numeric-growth telemetry of one full pass.
        aov_trace::clear();
        aov_trace::set_enabled(true);
        let alloc_before = aov_support::alloc::stats();
        aov_support::alloc::reset_peak();
        let outcome = pipeline.run();
        let alloc_after = aov_support::alloc::stats();
        aov_trace::set_enabled(false);
        let records = aov_trace::drain();
        let first = outcome?;
        reject_degraded(name, &first)?;
        if let Some(dir) = &cfg.profile_dir {
            let doc =
                aov_engine::profile::build_profile(&first, &records, &pipeline.program_digest());
            std::fs::create_dir_all(dir).map_err(|e| {
                EngineError::Unsupported(format!("cannot create profile dir {dir:?}: {e}"))
            })?;
            let path = dir.join(format!("profile_{name}.json"));
            std::fs::write(&path, format!("{}\n", doc.to_pretty())).map_err(|e| {
                EngineError::Unsupported(format!("cannot write profile {path:?}: {e}"))
            })?;
        }
        let spans = aov_trace::metrics::span_aggregates(&records, cfg.span_rows);
        let alloc = Json::obj()
            .field("allocs", alloc_after.allocs - alloc_before.allocs)
            .field("bytes", alloc_after.bytes - alloc_before.bytes)
            .field("peak", alloc_after.peak.max(0))
            .field("max_bits", alloc_after.max_bits)
            .field("recorder_events", aov_trace::recorder::events_recorded());
        // Untraced repetitions: timing only (tracing overhead excluded).
        let mut rest = Vec::new();
        for _ in 1..cfg.runs {
            rest.push(pipeline.run()?);
        }
        examples.push(ExampleBench::collect(&first, &rest, spans, alloc));
        first_reports.push(first);
    }

    let ctx = FigureCtx::from_reports(cfg.workers, first_reports);
    let mut figures = Vec::new();
    if cfg.figures {
        for spec in figure_specs() {
            if !spec.needs.iter().all(|n| ctx.has(n)) {
                continue;
            }
            let t0 = Instant::now();
            let report = (spec.run)(&ctx, !cfg.quick);
            figures.push(FigureBench {
                id: spec.id.to_string(),
                us: t0.elapsed().as_micros(),
                reproduced: report.reproduced,
                digest: fnv1a_hex(report.render().as_bytes()),
            });
        }
    }

    let environment = Json::obj()
        .field("workers", cfg.workers)
        .field("alloc_counting", aov_support::alloc::counting())
        .field("recorder_recording", aov_trace::recorder::recording())
        .field("recorder_slots", aov_trace::recorder::slots())
        .field("programs", programs);

    Ok(Artifact {
        runs: cfg.runs,
        workers: cfg.workers,
        quick: cfg.quick,
        figures_enabled: cfg.figures,
        calibration,
        environment,
        examples,
        figures,
        serve: None,
    })
}

/// The structural schema of a v2 artifact's `environment` block. The
/// arming flags and ring capacity are nullable because artifacts
/// upgraded from v1 never recorded them.
fn environment_schema() -> Schema {
    Schema::object([
        ("workers", Schema::Int, true),
        ("alloc_counting", Schema::nullable(Schema::Bool), true),
        ("recorder_recording", Schema::nullable(Schema::Bool), true),
        ("recorder_slots", Schema::nullable(Schema::Int), true),
        (
            "programs",
            Schema::array(Schema::object([
                ("name", Schema::Str, true),
                ("digest", Schema::Str, true),
            ])),
            true,
        ),
    ])
}

/// The structural schema of a v2 artifact's `calibration` block
/// (written by [`Calibration`]'s `ToJson`; probe fields are null when
/// neutral).
fn calibration_schema() -> Schema {
    Schema::object([
        ("measured", Schema::Bool, true),
        ("cpu_ns", Schema::nullable(Schema::Num), true),
        ("alloc_ns", Schema::nullable(Schema::Num), true),
        ("bigint_ns", Schema::nullable(Schema::Num), true),
        ("score", Schema::nullable(Schema::Num), true),
    ])
}

/// Upgrades a parsed artifact document to the current schema version.
///
/// `aov-bench/2` documents pass through unchanged. `aov-bench/1`
/// documents (the BENCH_0–BENCH_3 era) gain what v2 requires:
///
/// * a **neutral** `calibration` block — v1 never measured the machine,
///   and pretending otherwise would poison normalization, so consumers
///   see `measured: false` and fall back to data-derived estimates;
/// * a best-effort `environment` block — the worker count comes from
///   the recorded suite config, the per-program digests from each
///   example's `code_digest`, and the arming flags read null (unknown);
/// * an `upgraded_from` marker naming the original version.
///
/// # Errors
///
/// A message naming the offending schema tag when the document is not a
/// recognized artifact version (or has no schema tag at all).
pub fn upgrade(doc: Json) -> Result<(Json, bool), String> {
    match doc.get("schema") {
        Some(Json::Str(tag)) if tag == SCHEMA_VERSION => Ok((doc, false)),
        Some(Json::Str(tag)) if tag == SCHEMA_VERSION_V1 => {
            let workers = doc
                .get("suite")
                .and_then(|s| s.get("workers"))
                .cloned()
                .unwrap_or(Json::Null);
            let programs: Vec<Json> = match doc.get("examples") {
                Some(Json::Arr(examples)) => examples
                    .iter()
                    .filter_map(|e| {
                        let name = e.get("program")?.clone();
                        let digest = e.get("code_digest")?.clone();
                        Some(Json::obj().field("name", name).field("digest", digest))
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let environment = Json::obj()
                .field("workers", workers)
                .field("alloc_counting", Json::Null)
                .field("recorder_recording", Json::Null)
                .field("recorder_slots", Json::Null)
                .field("programs", programs);
            let Json::Obj(mut fields) = doc else {
                return Err("artifact document is not an object".to_string());
            };
            for (key, value) in &mut fields {
                if key == "schema" {
                    *value = Json::Str(SCHEMA_VERSION.to_string());
                }
            }
            fields.push((
                "calibration".to_string(),
                Calibration::neutral().to_json(),
            ));
            fields.push(("environment".to_string(), environment));
            fields.push((
                "upgraded_from".to_string(),
                Json::Str(SCHEMA_VERSION_V1.to_string()),
            ));
            Ok((Json::Obj(fields), true))
        }
        Some(Json::Str(tag)) => Err(format!(
            "unrecognized artifact schema {tag:?} (expected {SCHEMA_VERSION} or {SCHEMA_VERSION_V1})"
        )),
        _ => Err("artifact document has no schema tag".to_string()),
    }
}

/// The structural schema every `BENCH_*.json` document must satisfy.
pub fn artifact_schema() -> Schema {
    let stat = Schema::object([("min", Schema::Int, true), ("median", Schema::Int, true)]);
    Schema::object([
        ("schema", Schema::Str, true),
        (
            "suite",
            Schema::object([
                ("runs", Schema::Int, true),
                ("workers", Schema::Int, true),
                ("quick", Schema::Bool, true),
                ("figures", Schema::Bool, true),
                ("examples", Schema::array(Schema::Str), true),
            ]),
            true,
        ),
        ("calibration", calibration_schema(), true),
        ("environment", environment_schema(), true),
        // Present only on documents [`upgrade`]d from an older version.
        ("upgraded_from", Schema::Str, false),
        // Present only when `--serve-clients` ran a load-test campaign.
        // Kept open-shaped: the loadtest document is informational and
        // gate-neutral, and its fields may grow without a bench bump.
        ("serve", Schema::Any, false),
        (
            "examples",
            Schema::array(Schema::object([
                ("program", Schema::Str, true),
                ("runs", Schema::Int, true),
                ("wall_us", stat.clone(), true),
                (
                    "stages",
                    Schema::array(Schema::object([
                        ("name", Schema::Str, true),
                        ("us", stat, true),
                    ])),
                    true,
                ),
                (
                    "spans",
                    Schema::array(Schema::object([
                        ("name", Schema::Str, true),
                        ("count", Schema::Int, true),
                        ("total_ns", Schema::Int, true),
                        ("self_ns", Schema::Int, true),
                    ])),
                    true,
                ),
                (
                    "counters",
                    Schema::array(Schema::object([
                        ("name", Schema::Str, true),
                        ("count", Schema::Int, true),
                    ])),
                    true,
                ),
                (
                    "memo",
                    Schema::object([
                        ("hits", Schema::Int, true),
                        ("misses", Schema::Int, true),
                        ("hit_rate", Schema::nullable(Schema::Num), true),
                    ]),
                    true,
                ),
                (
                    "aov",
                    Schema::array(Schema::object([
                        ("array", Schema::Str, true),
                        ("vector", Schema::array(Schema::Int), true),
                    ])),
                    true,
                ),
                ("equivalent", Schema::Bool, true),
                ("code_digest", Schema::Str, true),
                // Optional: telemetry-armed artifacts carry allocator
                // traffic; pre-telemetry baselines (BENCH_1) lack it
                // and must keep validating.
                (
                    "alloc",
                    Schema::object([
                        ("allocs", Schema::Int, true),
                        ("bytes", Schema::Int, true),
                        ("peak", Schema::Int, true),
                        ("max_bits", Schema::Int, true),
                        ("recorder_events", Schema::Int, true),
                    ]),
                    false,
                ),
            ])),
            true,
        ),
        (
            "figures",
            Schema::array(Schema::object([
                ("id", Schema::Str, true),
                ("us", Schema::Int, true),
                ("reproduced", Schema::Bool, true),
                ("digest", Schema::Str, true),
            ])),
            true,
        ),
    ])
}

/// Validates a parsed artifact document against [`artifact_schema`].
///
/// # Errors
///
/// Every structural mismatch, with its JSON path.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    schema::validate(doc, &artifact_schema())
}
