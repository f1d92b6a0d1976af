//! The two-statement stencil pipeline (the paper's Example 2): find the
//! AOVs, check the zero-communication diagonal-strip decomposition, and
//! reproduce the Figure 15 speedup comparison.
//!
//! ```text
//! cargo run --example stencil_pipeline
//! ```

use aov::core::{problems, transform::StorageTransform};
use aov::interp::validate::semantics_preserved;
use aov::ir::examples::example2;
use aov::linalg::AffineExpr;
use aov::machine::{experiments, MachineConfig};
use aov::schedule::Schedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = example2();
    println!("== program ==\n{program}");

    // Problem 3 on a two-array program: each array gets its own AOV.
    let aov = problems::aov_with(&program, 1)?;
    println!("AOVs:\n{aov}");
    assert_eq!(aov.vector_for("A").unwrap().components(), [1, 1]);
    assert_eq!(aov.vector_for("B").unwrap().components(), [1, 1]);

    // Transform both arrays and validate dynamically under the
    // wavefront schedule Θ1 = Θ2 = i + j.
    let ts: Vec<StorageTransform> = program
        .arrays()
        .iter()
        .enumerate()
        .map(|(k, a)| {
            StorageTransform::new(
                &program,
                aov::ir::ArrayId(k),
                aov.vector_for(a.name()).unwrap(),
            )
            .expect("transformable")
        })
        .collect();
    let wave = Schedule::uniform_for(
        &program,
        &[
            AffineExpr::from_i64(&[1, 1, 0, 0], 0),
            AffineExpr::from_i64(&[1, 1, 0, 0], 0),
        ],
    );
    assert!(semantics_preserved(&program, &[8, 8], &wave, &ts));
    println!("dynamic check passed under the wavefront schedule");

    // Figure 15: diagonal strips on the simulated machine.
    let cfg = MachineConfig::scaled_down();
    println!("\nFigure 15 (speedup vs processors, 384x384):");
    for p in experiments::example2_speedup(&cfg, 384, 384, &[1, 2, 4, 8, 16, 32, 64]) {
        println!(
            "  P={:>2}  original {:>6.2}  transformed {:>6.2}",
            p.procs, p.original, p.transformed
        );
    }
    Ok(())
}
