//! Property tests for the dynamic oracle: valid occupancy vectors never
//! change semantics across random legal schedules and problem sizes;
//! stats are consistent.

use aov_core::{transform::StorageTransform, OccupancyVector};
use aov_interp::exec::Instances;
use aov_interp::validate::semantics_preserved;
use aov_ir::examples::{example1, heat1d};
use aov_linalg::AffineExpr;
use aov_schedule::{Analysis, Schedule};
use aov_support::{prop_assume, props};

props! {
    #![cases = 24, seed = 0x1A7E_0CA5]

    /// For Example 1's AOV (1,2): any legal random schedule plus any
    /// small problem size preserves semantics.
    fn aov_survives_random_legal_schedules(g) {
        let a = g.i64_in(-2, 2);
        let b = g.i64_in(1, 4);
        let c = g.i64_in(-3, 3);
        let n = g.i64_in(2, 7);
        let m = g.i64_in(2, 7);
        let p = example1();
        let s = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[a, b, 0, 0], c)]);
        prop_assume!(Analysis::new(&p).unwrap().is_legal(&s));
        let arr = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, arr, &OccupancyVector::new(vec![1, 2])).unwrap();
        assert!(semantics_preserved(&p, &[n, m], &s, &[t]));
    }

    /// Original-storage runs are schedule-independent (single
    /// assignment): any two legal schedules give identical values.
    fn original_storage_confluence(g) {
        let a1 = g.i64_in(-2, 2);
        let b1 = g.i64_in(1, 4);
        let a2 = g.i64_in(-2, 2);
        let b2 = g.i64_in(1, 4);
        let n = g.i64_in(2, 6);
        let m = g.i64_in(2, 6);
        let p = heat1d();
        let s1 = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[a1, b1, 0, 0], 0)]);
        let s2 = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[a2, b2, 0, 0], 0)]);
        prop_assume!(Analysis::new(&p).unwrap().is_legal(&s1) && Analysis::new(&p).unwrap().is_legal(&s2));
        let instances = Instances::new(&p, &[n, m]).unwrap();
        let (v1, _) = instances.run(&s1, &[]).unwrap();
        let (v2, _) = instances.run(&s2, &[]).unwrap();
        assert_eq!(v1, v2);
        // Both are the schedule-free reference values.
        assert_eq!(v1, instances.reference().unwrap());
    }

    /// Run statistics are structurally consistent: instance counts match
    /// the domain size; max_width * time_steps >= instances.
    fn run_stats_consistent(g) {
        let n = g.i64_in(1, 8);
        let m = g.i64_in(1, 8);
        let p = example1();
        let s = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
        let instances = Instances::new(&p, &[n, m]).unwrap();
        let (vals, stats) = instances.run(&s, &[]).unwrap();
        assert_eq!(stats.instances, (n * m) as usize);
        assert_eq!(vals.len(), stats.instances);
        assert_eq!(stats.time_steps, m as usize);
        assert_eq!(stats.max_width, n as usize);
        assert!(stats.max_width * stats.time_steps >= stats.instances);
        // Original storage uses exactly one cell per instance.
        assert_eq!(stats.cells_used, vec![(n * m) as usize]);
        // Reference agrees with itself (determinism).
        let again = Instances::new(&p, &[n, m]).unwrap();
        assert_eq!(instances.reference().unwrap(), again.reference().unwrap());
    }
}
