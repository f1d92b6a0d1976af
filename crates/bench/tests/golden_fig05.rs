//! Golden text of the engine-driven fig05.
//!
//! Every figure reads its analysis results from `aov_engine::Pipeline`
//! reports; fig05 exercises the AOV headline result, so its rendered
//! text and pretty JSON are pinned here byte for byte.

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
    let ctx = aov_bench::FigureCtx::build(&["example1"]).expect("pipeline runs");
    let engine = aov_bench::fig05(&ctx);
    assert_eq!(engine.render(), RENDER);
    assert_eq!(engine.to_json().to_pretty(), JSON);
    assert!(engine.reproduced);
}
