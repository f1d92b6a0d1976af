//! Multiple sequence alignment (the paper's Example 3): collapse the 3-D
//! dynamic-programming cube to a 2-D array with the AOV (1,1,1), run the
//! real min-plus recurrence through the interpreter under both storages,
//! and simulate the Figure 16 parallel speedups.
//!
//! ```text
//! cargo run --example sequence_alignment
//! ```

use aov::core::{problems, transform::StorageTransform};
use aov::interp::exec::Instances;
use aov::ir::examples::example3;
use aov::machine::{experiments, MachineConfig};
use aov::schedule::{scheduler, Analysis};
use aov_fault::Budget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = example3();
    println!("aligning three sequences via the Needleman-Wunsch DP cube");

    // The headline analysis: AOV (1,1,1) despite 19 dependences and the
    // boundary-writer pruning of §5.3.
    let analysis = Analysis::new(&program)?;
    let aov = problems::aov_budgeted(&analysis, &Budget::unlimited())?;
    let v = aov.vector_for("D").expect("array D");
    println!("AOV of the DP cube: v = {v}");

    let d = program.array_by_name("D").expect("array D");
    let t = StorageTransform::new(&program, d, v)?;
    let (x, y, z) = (10i64, 9, 8);
    println!(
        "storage at {x}x{y}x{z}: {} -> {} cells ({}-d -> {}-d)",
        t.original_size(&[x, y, z]),
        t.transformed_size(&[x, y, z]),
        3,
        t.transformed_dim()
    );

    // Execute the real recurrence (min/add interpreted, w hashed) once in
    // dataflow order with original storage, once under a legal schedule
    // with the collapsed storage, and compare every value.
    let sched = scheduler::find_schedule_with_budgeted(&analysis, &[], &Budget::unlimited())?;
    let instances = Instances::new(&program, &[x, y, z])?;
    let reference = instances.reference()?;
    let (vals, stats) = instances.run(&sched, std::slice::from_ref(&t))?;
    assert_eq!(
        vals, reference,
        "transformed DP must compute identical costs"
    );
    println!(
        "dynamic check passed: {} instances, {} time steps, {} cells used",
        stats.instances, stats.time_steps, stats.cells_used[0]
    );

    // Figure 16: parallel speedups on the simulated machine.
    let cfg = MachineConfig::memory_bound();
    println!("\nFigure 16 (speedup vs processors, 48x96x96):");
    for p in experiments::example3_speedup(&cfg, 48, 96, 96, &[1, 2, 4, 8, 16]) {
        println!(
            "  P={:>2}  original {:>6.2}  transformed {:>6.2}{}",
            p.procs,
            p.original,
            p.transformed,
            if p.transformed > p.procs as f64 {
                "  (superlinear)"
            } else {
                ""
            }
        );
    }
    Ok(())
}
