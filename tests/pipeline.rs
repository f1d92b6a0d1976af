//! Cross-crate integration tests: the full pipeline per example program
//! (IR → dependences → schedules → occupancy vectors → transform →
//! dynamic validation), plus agreement between independent solvers.

use aov::core::{check::Checker, problems, transform::StorageTransform, uov, OccupancyVector};
use aov::interp::validate::semantics_preserved;
use aov::ir::examples;
use aov::linalg::AffineExpr;
use aov::schedule::{scheduler, Analysis, Schedule};

/// End-to-end on Example 1: every stage feeds the next and the final
/// artifact is dynamically equivalent.
#[test]
fn example1_end_to_end() {
    let p = examples::example1();
    p.validate().expect("well-formed");
    let deps = aov::ir::analysis::dependences(&p);
    assert_eq!(deps.len(), 3);

    let sched = scheduler::find_schedule_with(&p, &[]).expect("schedulable");
    assert!(Analysis::new(&p).unwrap().is_legal(&sched));

    let aov = problems::aov_with(&p, 1).expect("AOV exists");
    let v = aov.vector_for("A").unwrap();
    assert_eq!(v.components(), [1, 2]);

    let a = p.array_by_name("A").unwrap();
    let t = StorageTransform::new(&p, a, v).expect("transformable");
    assert_eq!(t.transformed_size(&[40, 30]), 2 * 40 + 30 - 2);
    assert!(semantics_preserved(&p, &[10, 9], &sched, &[t]));
}

/// The Farkas LP solver and the exact enumeration solver agree on every
/// program where both run.
#[test]
fn farkas_and_search_agree() {
    for p in [
        examples::example1(),
        examples::example2(),
        examples::example4(),
        examples::prefix_sum(),
        examples::wavefront2d(),
        examples::heat1d(),
    ] {
        let lp = problems::aov_with(&p, 1).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        let search = problems::aov_search(&p, 6).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        assert_eq!(lp, search, "solver disagreement on {}", p.name());
    }
}

/// Problem 1 LP vs exact search across schedules on Example 1.
#[test]
fn problem1_methods_agree_across_schedules() {
    let p = examples::example1();
    for theta in [
        AffineExpr::from_i64(&[0, 1, 0, 0], 0),
        AffineExpr::from_i64(&[1, 2, 0, 0], 0),
        AffineExpr::from_i64(&[1, 3, 0, 0], 0),
        AffineExpr::from_i64(&[-1, 3, 0, 0], 0),
    ] {
        let s = Schedule::uniform_for(&p, &[theta]);
        let lp = problems::ov_for_schedule_with(&p, &s, 1).expect("solvable");
        let search =
            problems::ov_for_schedule_search(&Analysis::new(&p).unwrap(), &s, 6).expect("solvable");
        assert_eq!(
            lp.vector_for("A").unwrap().manhattan(),
            search.vector_for("A").unwrap().manhattan(),
            "objective mismatch under {}",
            s.display(&p)
        );
    }
}

/// The AOV is always valid for the specific best schedule, and the
/// schedule-specific OV is never longer than the AOV.
#[test]
fn aov_dominates_schedule_specific_ov() {
    for p in [
        examples::example1(),
        examples::example2(),
        examples::wavefront2d(),
    ] {
        let sched = scheduler::find_schedule_with(&p, &[]).expect("schedulable");
        let specific = problems::ov_for_schedule_with(&p, &sched, 1).expect("solvable");
        let universal = problems::aov_with(&p, 1).expect("solvable");
        let analysis = Analysis::new(&p).unwrap();
        let checker = Checker::new(&analysis);
        for (aidx, a) in p.arrays().iter().enumerate() {
            let aid = aov::ir::ArrayId(aidx);
            let sv = specific.vector_for(a.name()).unwrap();
            let uv = universal.vector_for(a.name()).unwrap();
            assert!(
                sv.manhattan() <= uv.manhattan(),
                "{}: specific {sv} longer than AOV {uv}",
                p.name()
            );
            assert!(checker.valid_for_schedule(aid, uv.components(), &sched));
        }
    }
}

/// UOV ⊆ AOV ⊆ schedule-specific, as the paper's §7 hierarchy demands.
#[test]
fn uov_is_also_an_aov() {
    let p = examples::example1();
    let u = uov::shortest_uov(
        &p,
        &aov::ir::analysis::dependences(&p),
        aov::ir::ArrayId(0),
        6,
    )
    .expect("stencil");
    assert_eq!(u.components(), [0, 3]);
    let analysis = Analysis::new(&p).unwrap();
    let checker = Checker::new(&analysis);
    assert!(checker
        .valid_for_all_schedules(aov::ir::ArrayId(0), u.components())
        .expect("checkable"));
}

/// Problem 2 round-trip: the schedule found for an OV validates both
/// statically and dynamically, and tightening storage eventually kills
/// schedulability.
#[test]
fn problem2_roundtrip_and_budget_cliff() {
    let p = examples::example1();
    let v = OccupancyVector::new(vec![0, 2]);
    let sched = problems::best_schedule_for_ov(&p, std::slice::from_ref(&v)).expect("schedulable");
    assert!(Analysis::new(&p).unwrap().is_legal(&sched));
    let a = p.array_by_name("A").unwrap();
    let t = StorageTransform::new(&p, a, &v).expect("transformable");
    assert!(semantics_preserved(&p, &[8, 8], &sched, &[t]));
    // v = (0,0) admits no schedule.
    assert!(matches!(
        problems::best_schedule_for_ov(&p, &[OccupancyVector::new(vec![0, 0])]),
        Err(aov::core::CoreError::Unschedulable)
    ));
}

/// Example 4's cross-array pipeline end to end (non-uniform h).
#[test]
fn example4_end_to_end() {
    let p = examples::example4();
    let aovs = problems::aov_with(&p, 1).expect("solvable");
    let ts: Vec<StorageTransform> = p
        .arrays()
        .iter()
        .enumerate()
        .map(|(k, a)| {
            StorageTransform::new(&p, aov::ir::ArrayId(k), aovs.vector_for(a.name()).unwrap())
                .expect("transformable")
        })
        .collect();
    let sched = problems::best_schedule_for_ov(&p, aovs.vectors()).expect("schedulable");
    assert!(semantics_preserved(&p, &[7], &sched, &ts));
}

/// The auxiliary programs survive the full pipeline too.
#[test]
fn auxiliary_programs_end_to_end() {
    for p in [
        examples::prefix_sum(),
        examples::wavefront2d(),
        examples::heat1d(),
    ] {
        let aovs = problems::aov_with(&p, 1).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        let ts: Vec<StorageTransform> = p
            .arrays()
            .iter()
            .enumerate()
            .map(|(k, a)| {
                StorageTransform::new(&p, aov::ir::ArrayId(k), aovs.vector_for(a.name()).unwrap())
                    .expect("transformable")
            })
            .collect();
        let sched = problems::best_schedule_for_ov(&p, aovs.vectors()).expect("schedulable");
        let params: Vec<i64> = (0..p.num_params()).map(|_| 6).collect();
        assert!(
            semantics_preserved(&p, &params, &sched, &ts),
            "{} transformed run diverged",
            p.name()
        );
    }
}

/// Dynamically confirm that vectors REJECTED by the static analysis
/// really do break semantics for some legal schedule (no false alarms in
/// the other direction for these witnesses).
#[test]
fn rejected_vectors_break_dynamically() {
    let p = examples::example1();
    let a = p.array_by_name("A").unwrap();
    // (0,1) is not an AOV; witness schedule Θ = i + 2j breaks it.
    let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![0, 1])).unwrap();
    let witness = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 2, 0, 0], 0)]);
    assert!(Analysis::new(&p).unwrap().is_legal(&witness));
    assert!(!semantics_preserved(&p, &[8, 7], &witness, &[t]));
}
