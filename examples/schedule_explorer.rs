//! Problem 2 interactively: fix a storage budget (an occupancy vector)
//! and explore which affine schedules remain legal — the paper's
//! Figure 4, plus the "shrink storage until unschedulable" strategy of
//! §2.2.
//!
//! ```text
//! cargo run --example schedule_explorer
//! ```

use aov::core::{problems, CoreError, OccupancyVector};
use aov::ir::examples::example1;
use aov::linalg::{AffineExpr, QVector};
use aov::schedule::Analysis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = example1();

    // Sweep storage budgets from generous to impossible, mirroring the
    // §2.2 strategy: restrict the store until no schedule exists.
    for v in [vec![1, 2], vec![0, 2], vec![0, 1], vec![0, 0]] {
        let ov = OccupancyVector::new(v.clone());
        match problems::best_schedule_for_ov(&program, &[ov]) {
            Ok(s) => println!("v = {v:?}: schedulable, e.g.\n{}", s.display(&program)),
            Err(CoreError::Unschedulable) => {
                println!("v = {v:?}: NO affine schedule exists (storage too tight)")
            }
            Err(e) => return Err(e.into()),
        }
    }

    // Figure 4: the slope picture for v = (0, 2).
    let analysis = Analysis::new(&program)?;
    let space = analysis.space();
    let poly = problems::schedules_for_ov(&analysis, &[OccupancyVector::new(vec![0, 2])])?;
    let sid = aov::ir::StmtId(0);
    println!("\nschedules Θ = a·i + b·j valid for v = (0,2):");
    println!("      b = 1   2   3   4   5   6");
    for a in -3i64..=3 {
        print!("a = {a:>2}:");
        for b in 1i64..=6 {
            let mut pt = QVector::zeros(space.dim());
            pt[space.iter_coeff(sid, 0)] = a.into();
            pt[space.iter_coeff(sid, 1)] = b.into();
            print!("   {}", if poly.contains(&pt) { "+" } else { "." });
        }
        println!();
    }
    println!("(+ marks a valid schedule; the cone opens as b grows — slopes in (-1/2, 1/2])");

    // And the other direction (Problem 1): given the row schedule, the
    // storage can shrink to a single row.
    let row =
        aov::schedule::Schedule::uniform_for(&program, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
    let ov = problems::ov_for_schedule_with(&program, &row, 1)?;
    println!("\nshortest OV for Θ = j: {}", ov.vector_for("A").unwrap());
    Ok(())
}
