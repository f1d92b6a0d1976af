//! Quickstart: the full pipeline on the paper's Example 1 (Figure 1).
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the 3-point stencil, finds its AOV, derives the storage
//! transformation and transformed code, and validates the result both
//! statically (exact checker) and dynamically (interpreter).

use aov::core::{check::Checker, codegen, problems, transform::StorageTransform};
use aov::interp::validate::semantics_preserved;
use aov::ir::examples::example1;
use aov::linalg::AffineExpr;
use aov::schedule::{scheduler, Analysis, Schedule};
use aov_fault::Budget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = example1();
    program.validate()?;
    println!("== program ==\n{program}");
    println!("== original code ==\n{}", codegen::original_code(&program));

    // The shared analysis: dependences, schedule constraints and the
    // polyhedron ℛ of legal schedules, computed once.
    let analysis = Analysis::new(&program)?;

    // A maximally parallel schedule (the scheduler finds Θ = j).
    let sched = scheduler::find_schedule_with_budgeted(&analysis, &[], &Budget::unlimited())?;
    println!("== schedule ==\n{}", sched.display(&program));

    // Problem 3: the shortest occupancy vector valid for EVERY legal
    // affine schedule.
    let solution = problems::aov_budgeted(&analysis, &Budget::unlimited())?;
    println!("== AOV ==\n{solution}");
    let v = solution.vector_for("A").expect("array A");
    assert_eq!(v.components(), [1, 2], "the paper's Figure 5 result");

    // The storage transformation: project onto the hyperplane ⊥ v.
    let a = program.array_by_name("A").expect("array A");
    let t = StorageTransform::new(&program, a, v)?;
    let (n, m) = (100i64, 100i64);
    println!(
        "storage at (n, m) = ({n}, {m}): {} -> {} cells",
        t.original_size(&[n, m]),
        t.transformed_size(&[n, m])
    );
    println!(
        "== transformed code ==\n{}",
        codegen::transformed_code(&program, std::slice::from_ref(&t))
    );

    // Static validation: v is valid for every legal affine schedule.
    let checker = Checker::new(&analysis);
    assert!(checker.valid_for_all_schedules(a, v.components())?);

    // Dynamic validation: run original vs transformed under several
    // legal schedules and compare every computed value.
    for theta in [
        AffineExpr::from_i64(&[0, 1, 0, 0], 0),
        AffineExpr::from_i64(&[1, 2, 0, 0], 0),
        AffineExpr::from_i64(&[-1, 3, 0, 0], 7),
    ] {
        let s = Schedule::uniform_for(&program, &[theta]);
        assert!(semantics_preserved(
            &program,
            &[9, 8],
            &s,
            std::slice::from_ref(&t)
        ));
    }
    println!("static + dynamic validation passed");
    Ok(())
}
