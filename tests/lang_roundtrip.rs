//! The parser path is pipeline-equivalent to the hand-built path.
//!
//! For every corpus program, running the *parsed* `examples/NAME.aov`
//! file through the pipeline must produce a JSON report byte-identical
//! to the hand-built constructor's — once run-local noise (wall-clock
//! micros and allocator columns) is normalized away. Everything the
//! solvers decide — vectors, objectives, schedules, stage outcomes,
//! counters, code, equivalence — must match exactly, or the frontend
//! changed program semantics somewhere.

use aov::engine::Pipeline;
use aov::lang::{corpus, parse};
use aov::support::{Json, ToJson};

/// Replaces timing- and allocator-dependent values so two reports of
/// the same computation compare byte-equal: `micros`/`total_micros`
/// become 0, `alloc` objects are dropped (their `peak` column sees
/// process-wide allocator state, which other tests in the same process
/// perturb), and `*_bits_max` counters are removed (they are watermark
/// counters against process-wide maxima — only the first run of two
/// identical computations records them).
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

/// Filters watermark (`*_bits_max`) entries out of a counters array.
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

/// Runs one program through the pipeline and returns its normalized
/// report text.
fn report_text(program: aov::ir::Program) -> String {
    let report = Pipeline::new(program).run().expect("pipeline completes");
    normalize(&report.to_json()).to_pretty()
}

#[test]
fn parsed_corpus_reports_match_hand_built_reports() {
    for name in corpus::names() {
        let parsed = parse(corpus::source(name).expect("corpus source"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let hand = corpus::hand_built(name).expect("hand-built program");
        let from_parser = report_text(parsed);
        let from_hand = report_text(hand);
        assert_eq!(
            from_parser, from_hand,
            "{name}: parser-path report differs from hand-built report"
        );
    }
}
