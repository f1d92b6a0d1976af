//! Benchmarks of the paper's analyses, one per evaluation artifact
//! (Figures 3–14). Example 3 is benched through its shared `Analysis`
//! (dependences and schedule constraints) and its dependence analysis;
//! `all_figures fig11` runs its full AOV end to end, a cold solve of
//! tens of milliseconds.

use aov_support::bench::Harness;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args();

    {
        let (p, s) = aov_bench::example1_row_schedule();
        h.bench("fig03/ov_for_schedule/example1", || {
            aov_core::problems::ov_for_schedule_with(black_box(&p), black_box(&s), 1).unwrap()
        });
    }

    {
        let p = aov_ir::examples::example1();
        let a = aov_schedule::Analysis::new(&p).unwrap();
        let v = aov_core::OccupancyVector::new(vec![0, 2]);
        h.bench("fig04/schedules_for_ov/example1", || {
            aov_core::problems::schedules_for_ov(black_box(&a), std::slice::from_ref(&v)).unwrap()
        });
    }

    {
        let p = aov_ir::examples::example1();
        h.bench("fig05/aov/example1", || {
            aov_core::problems::aov_with(black_box(&p), 1).unwrap()
        });
        h.bench("fig05/uov_baseline/example1", || {
            let deps = aov_ir::analysis::dependences(black_box(&p));
            aov_core::uov::shortest_uov(&p, &deps, aov_ir::ArrayId(0), 6).unwrap()
        });
    }

    {
        let p = aov_ir::examples::example1();
        let a = p.array_by_name("A").unwrap();
        let v = aov_core::OccupancyVector::new(vec![1, 2]);
        h.bench("fig06/storage_transform/example1", || {
            aov_core::transform::StorageTransform::new(black_box(&p), a, &v).unwrap()
        });
    }

    {
        let p = aov_ir::examples::example2();
        h.bench("fig09/aov/example2", || {
            aov_core::problems::aov_with(black_box(&p), 1).unwrap()
        });
    }

    {
        let p = aov_ir::examples::example3();
        h.bench("fig11/analysis/example3", || {
            aov_schedule::Analysis::new(black_box(&p)).unwrap()
        });
        h.bench("fig11/dependences/example3", || {
            aov_ir::analysis::dependences(black_box(&p))
        });
    }

    {
        let p = aov_ir::examples::example4();
        h.bench("fig14/aov/example4", || {
            aov_core::problems::aov_with(black_box(&p), 1).unwrap()
        });
    }

    {
        let p = aov_ir::examples::example2();
        h.bench("scheduler/find_schedule/example2", || {
            aov_schedule::scheduler::find_schedule_with(black_box(&p), &[]).unwrap()
        });
    }

    {
        let (p, s) = aov_bench::example1_row_schedule();
        let a = p.array_by_name("A").unwrap();
        let t = aov_core::transform::StorageTransform::new(
            &p,
            a,
            &aov_core::OccupancyVector::new(vec![0, 1]),
        )
        .unwrap();
        h.bench("oracle/semantics_preserved/example1_16x16", || {
            aov_interp::validate::semantics_preserved(
                black_box(&p),
                &[16, 16],
                &s,
                std::slice::from_ref(&t),
            )
        });
    }

    h.finish();
}
