//! Span-level profile artifacts (`aov-profile/1`).
//!
//! One traced pipeline run → one self-contained JSON document holding
//! the run's flame table (per-span call counts, self/total time,
//! percentile durations, allocator traffic and peak numeric bit-widths),
//! its whole-run counter deltas, and enough identity (program name,
//! digest, crate version) to tell two profiles apart. The CLI writes one
//! with `--profile-out FILE`, and `aov inspect` renders it.
//!
//! Documents are schema-versioned ([`SCHEMA`]) and structurally
//! validated ([`profile_schema`]) by `aov inspect --check` and the CI
//! profile-smoke step.

use aov_support::schema::Schema;
use aov_support::{digest, Json, ToJson};
use aov_trace::flame::FlameTable;
use aov_trace::SpanRecord;

use crate::pipeline::Report;

/// The profile format identifier stored in every document's `schema`
/// field. Readers must reject other versions.
pub const SCHEMA: &str = "aov-profile/1";

/// Structural schema of one `aov-profile/1` document.
#[must_use]
pub fn profile_schema() -> Schema {
    let flame_row = Schema::object([
        ("name", Schema::Str, true),
        ("count", Schema::Int, true),
        ("total_ns", Schema::Int, true),
        ("self_ns", Schema::Int, true),
        ("p50_ns", Schema::Int, true),
        ("p95_ns", Schema::Int, true),
        ("allocs", Schema::Int, true),
        ("alloc_bytes", Schema::Int, true),
        ("alloc_peak", Schema::Int, true),
        ("max_bits", Schema::Int, true),
    ]);
    Schema::object([
        ("schema", Schema::Str, true),
        ("program", Schema::Str, true),
        ("workers", Schema::Int, true),
        ("health", Schema::Str, true),
        ("wall_us", Schema::Int, true),
        ("flame", Schema::array(flame_row), true),
        (
            "counters",
            Schema::array(Schema::object([
                ("name", Schema::Str, true),
                ("count", Schema::Int, true),
            ])),
            true,
        ),
        (
            "identity",
            Schema::object([
                ("version", Schema::Str, true),
                ("program_digest", Schema::Str, true),
                ("flame_digest", Schema::Str, true),
            ]),
            true,
        ),
    ])
}

/// A `u64` as a [`Json::Int`], saturating at `i64::MAX`.
fn int(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Builds the profile document from a traced run's report and drained
/// span records. `program_digest` identifies the input program (FNV-1a
/// over its IR debug form, as in the diag bundles); callers without the
/// IR at hand may pass any stable identifier.
#[must_use]
pub fn build_profile(report: &Report, records: &[SpanRecord], program_digest: &str) -> Json {
    let flame = FlameTable::build(records);
    let flame_json = flame.to_json();
    let flame_digest = digest::fnv1a_hex(flame_json.to_compact().as_bytes());
    Json::obj()
        .field("schema", SCHEMA)
        .field("program", report.program.as_str())
        .field("workers", report.workers)
        .field("health", report.health().name())
        .field(
            "wall_us",
            Json::Int(i64::try_from(report.total_micros).unwrap_or(i64::MAX)),
        )
        .field("flame", flame_json)
        .field(
            "counters",
            report
                .counters
                .iter()
                .map(|(k, v)| {
                    Json::obj()
                        .field("name", k.as_str())
                        .field("count", int(*v))
                })
                .collect::<Vec<_>>(),
        )
        .field(
            "identity",
            Json::obj()
                .field("version", env!("CARGO_PKG_VERSION"))
                .field("program_digest", program_digest)
                .field("flame_digest", flame_digest.as_str()),
        )
}

/// Validates a parsed document against [`profile_schema`], first
/// checking the schema tag itself.
///
/// # Errors
///
/// Human-readable problems, one per line, `$`-rooted.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    match doc.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        other => {
            return Err(vec![format!(
                "$.schema: expected \"{SCHEMA}\", found {}",
                other.map_or_else(|| "nothing".to_string(), Json::to_compact)
            )])
        }
    }
    aov_support::schema::validate(doc, &profile_schema())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: Option<u64>, name: &str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            dur_ns,
            alloc_allocs: 2,
            alloc_bytes: 64,
            ..SpanRecord::default()
        }
    }

    fn sample_report() -> Report {
        let mut r = Report::empty_for_test("example1");
        r.counters = vec![("lp.simplex.pivots".to_string(), 777)];
        r.total_micros = 123_456;
        r
    }

    #[test]
    fn built_profile_matches_schema() {
        let records = vec![
            record(1, None, "pipeline.problem2", 1000),
            record(2, Some(1), "p2.vertex_enum", 600),
        ];
        let doc = build_profile(&sample_report(), &records, "deadbeef00000000");
        validate(&doc).expect("profile must satisfy its own schema");
        assert_eq!(doc.get("schema"), Some(&Json::Str(SCHEMA.into())));
        assert_eq!(doc.get("wall_us"), Some(&Json::Int(123_456)));
        let Some(Json::Arr(rows)) = doc.get("flame") else {
            panic!("flame must be an array");
        };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn wrong_schema_tag_rejected() {
        let doc = Json::obj().field("schema", "aov-diag/1");
        let errs = validate(&doc).unwrap_err();
        assert!(errs[0].contains("aov-profile/1"), "{errs:?}");
    }

    #[test]
    fn flame_digest_tracks_flame_content() {
        let report = sample_report();
        let a = build_profile(&report, &[record(1, None, "x", 10)], "d");
        let b = build_profile(&report, &[record(1, None, "x", 20)], "d");
        let dig = |j: &Json| {
            j.get("identity")
                .and_then(|i| i.get("flame_digest"))
                .cloned()
        };
        assert_ne!(dig(&a), dig(&b));
        let a2 = build_profile(&report, &[record(1, None, "x", 10)], "d");
        assert_eq!(dig(&a), dig(&a2));
    }
}
