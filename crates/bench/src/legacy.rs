//! Direct-computation reference figures, predating the engine-driven
//! suite.
//!
//! Before the benchmark observatory, every figure recomputed its own
//! analyses by calling the solvers directly. The engine-driven paths in
//! the crate root must be drop-in replacements — same text, byte for
//! byte — so the representative reference (`fig05`, which exercises the
//! AOV headline result) is kept here and golden-compared against the
//! [`crate::fig05`] output in `tests/golden_fig05.rs`.

use crate::FigureReport;
use aov_core::{problems, uov};
use aov_ir::examples;
use aov_schedule::Analysis;

/// Figure 5 computed without the pipeline: solve Problem 3 from scratch
/// and compare against the exact search and the UOV baseline.
pub fn fig05() -> FigureReport {
    let p = examples::example1();
    let aov = problems::aov_with(&p, 1)
        .expect("solvable")
        .vector_for("A")
        .unwrap()
        .clone();
    let analysis = Analysis::new(&p).expect("example1 linearizes");
    let search = problems::aov_search_with(&analysis, 6, 1).expect("solvable");
    let uov = uov::shortest_uov(&p, analysis.deps(), aov_ir::ArrayId(0), 6).expect("stencil");
    FigureReport {
        id: "fig05".into(),
        title: "AOV of Example 1 vs the Strout et al. UOV".into(),
        paper: "AOV (1,2), shorter (Euclidean) than the UOV (0,3)".into(),
        measured: format!(
            "AOV {aov} (search agrees: {}), UOV {uov}; |AOV|₂² = {} vs |UOV|₂² = {}",
            search.vector_for("A") == Some(&aov),
            aov.euclidean_sq(),
            uov.euclidean_sq()
        ),
        reproduced: aov.components() == [1, 2]
            && uov.components() == [0, 3]
            && aov.euclidean_sq() < uov.euclidean_sq(),
        lines: vec!["any legal affine schedule may run against the transformed storage".into()],
    }
}
