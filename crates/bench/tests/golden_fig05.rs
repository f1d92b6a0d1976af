//! Golden text of the engine-driven fig05.
//!
//! The observatory rewired every figure through `aov_engine::Pipeline`;
//! fig05 exercises the AOV headline result, so its rendered text and
//! pretty JSON are pinned here byte for byte.

use aov_support::ToJson;

const RENDER: &str = "\
== fig05 — AOV of Example 1 vs the Strout et al. UOV
   paper:    AOV (1,2), shorter (Euclidean) than the UOV (0,3)
   measured: AOV (1, 2) (search agrees: true), UOV (0, 3); |AOV|₂² = 5 vs |UOV|₂² = 9
   reproduced: true
   | any legal affine schedule may run against the transformed storage
";

const JSON: &str = r#"{
  "id": "fig05",
  "title": "AOV of Example 1 vs the Strout et al. UOV",
  "paper": "AOV (1,2), shorter (Euclidean) than the UOV (0,3)",
  "measured": "AOV (1, 2) (search agrees: true), UOV (0, 3); |AOV|₂² = 5 vs |UOV|₂² = 9",
  "reproduced": true,
  "lines": [
    "any legal affine schedule may run against the transformed storage"
  ]
}
"#;

#[test]
fn engine_driven_fig05_matches_pinned_text() {
    let ctx = aov_bench::FigureCtx::build(&["example1"], 1).expect("pipeline runs");
    let engine = aov_bench::fig05(&ctx);
    assert_eq!(engine.render(), RENDER);
    assert_eq!(engine.to_json().to_pretty(), JSON);
    assert!(engine.reproduced);
}

#[test]
fn memoized_context_yields_identical_fig05() {
    // The observatory builds its contexts with memoization on; the LP
    // memo must be result-transparent all the way to the rendered text.
    let plain = aov_bench::FigureCtx::build(&["example1"], 1).expect("pipeline runs");
    let suite = aov_bench::observatory::run_suite(&aov_bench::observatory::SuiteConfig {
        examples: vec!["example1".to_string()],
        runs: 1,
        workers: 1,
        quick: true,
        figures: false,
        span_rows: 8,
        ..aov_bench::observatory::SuiteConfig::default()
    })
    .expect("suite runs");
    assert_eq!(suite.examples.len(), 1);
    assert_eq!(aov_bench::fig05(&plain).render(), RENDER);
}
