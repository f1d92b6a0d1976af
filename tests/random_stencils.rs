//! Randomized end-to-end cross-validation: generate random uniform
//! stencil programs, solve the AOV problem with both independent engines
//! (Farkas LP and exact candidate enumeration), verify agreement, and
//! confirm the result dynamically with the interpreter.

use aov::core::{check::Checker, problems, transform::StorageTransform};
use aov::interp::validate::semantics_preserved;
use aov::ir::{Expr, Program, ProgramBuilder};
use aov::linalg::AffineExpr;
use aov::schedule::{scheduler, Analysis, Schedule};
use aov_support::{props, Rng};

/// 1–3 distinct read offsets in `[-2, 2]`, sorted (mirrors the original
/// ordered-set generator).
fn random_offsets(g: &mut Rng) -> Vec<i64> {
    let len = g.usize_in(1, 3);
    let mut out: Vec<i64> = Vec::new();
    while out.len() < len {
        let d = g.i64_in(-2, 2);
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out.sort_unstable();
    out
}

/// A random 2-D stencil `A[i][j] = f(A[i-d1][j-1], …)` with 1–3 distinct
/// reads, all carried by the `j` loop (so a schedule always exists).
fn stencil_program(offsets: &[i64]) -> Program {
    let mut b = ProgramBuilder::new("random_stencil");
    let n = b.param_min("n", 1);
    let m = b.param_min("m", 1);
    let a = b.array("A", 2);
    let mut s = b.statement("S", &["i", "j"]);
    s.bound(0, s.constant(1), s.param(n));
    s.bound(1, s.constant(1), s.param(m));
    s.writes(a);
    let mut reads = Vec::new();
    for &di in offsets {
        let idx = vec![&s.iter(0) - &s.constant(di), &s.iter(1) - &s.constant(1)];
        reads.push(Expr::Read(s.read(a, idx)));
    }
    s.body(Expr::call("f", reads));
    b.add_statement(s);
    b.build().expect("random stencil is well-formed")
}

props! {
    #![cases = 12, seed = 0x57E2_C115]

    fn solvers_agree_and_semantics_hold(g) {
        let offsets = random_offsets(g);
        let p = stencil_program(&offsets);

        // Both engines find vectors with the same (optimal) objective.
        let farkas = problems::aov_with(&p, 1).expect("AOV exists for j-carried stencils");
        let search = problems::aov_search(&p, 8).expect("search must find it too");
        assert_eq!(
            farkas.objective(),
            search.objective(),
            "objective mismatch for offsets {:?}: farkas {} vs search {}",
            &offsets,
            &farkas,
            &search
        );

        // Both answers pass the exact checker.
        let analysis = Analysis::new(&p).unwrap();
        let checker = Checker::new(&analysis);
        let a = p.array_by_name("A").unwrap();
        for r in [&farkas, &search] {
            let v = r.vector_for("A").unwrap();
            assert!(
                checker.valid_for_all_schedules(a, v.components()).unwrap(),
                "checker rejects {} for offsets {:?}",
                v,
                &offsets
            );
        }

        // Dynamic confirmation under the scheduler's pick and a skewed
        // legal schedule.
        let v = farkas.vector_for("A").unwrap();
        let t = StorageTransform::new(&p, a, v).expect("transformable");
        let sched = scheduler::find_schedule_with(&p, &[]).expect("schedulable");
        assert!(semantics_preserved(&p, &[7, 6], &sched, std::slice::from_ref(&t)));
        // A steep skew is legal for any j-carried stencil with |di| <= 2:
        // Θ = i + 4j satisfies 4 - di·1 >= 1.
        let skew = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 4, 0, 0], 0)]);
        assert!(Analysis::new(&p).unwrap().is_legal(&skew));
        assert!(semantics_preserved(&p, &[7, 6], &skew, std::slice::from_ref(&t)));
    }

    /// Schedule-specific vectors (Problem 1) are never longer than AOVs
    /// and always validate dynamically under their schedule.
    fn problem1_consistent_on_random_stencils(g) {
        let offsets = random_offsets(g);
        let p = stencil_program(&offsets);
        let row = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
        assert!(Analysis::new(&p).unwrap().is_legal(&row));
        let specific = problems::ov_for_schedule_with(&p, &row, 1).expect("solvable");
        let universal = problems::aov_with(&p, 1).expect("solvable");
        let sv = specific.vector_for("A").unwrap();
        let uv = universal.vector_for("A").unwrap();
        assert!(sv.manhattan() <= uv.manhattan());
        let a = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, a, sv).expect("transformable");
        assert!(semantics_preserved(&p, &[6, 6], &row, &[t]));
    }
}
