//! The dynamic equivalence oracle.

use crate::exec::{Instances, Values};
use crate::InterpError;
use aov_core::transform::StorageTransform;
use aov_ir::Program;
use aov_schedule::Schedule;

/// Whether executing `p` under `sched` with the given storage transforms
/// computes the same value for every statement instance as the original
/// program (arrays without a transform keep original storage).
///
/// This is the paper's §3.2 validity criterion, decided dynamically for
/// one concrete parameter vector against the schedule-free
/// [`Instances::reference`] values; it solves no LP. A program whose
/// dataflow has a cycle at `params` has no reference values, so nothing
/// preserves them: the answer is `false`.
///
/// # Panics
///
/// Panics with the [`InterpError`] when `p`, `sched` or a transform
/// cannot be executed at `params` (an index, key or cell leaves `i64`, an
/// unbounded domain, a schedule or transform of another program).
pub fn semantics_preserved(
    p: &Program,
    params: &[i64],
    sched: &Schedule,
    transforms: &[StorageTransform],
) -> bool {
    let verdict = Instances::new(p, params).and_then(|instances| {
        let reference = instances.reference()?;
        matches_reference(&instances, &reference, sched, transforms)
    });
    match verdict {
        Ok(same) => same,
        Err(InterpError::Cycle(_)) => false,
        Err(e) => panic!("interpreting {} at {params:?}: {e}", p.name()),
    }
}

/// [`semantics_preserved`] over instances and reference values the
/// caller already computed (see [`Instances::reference`]), so several
/// schedules share one lowering and one reference.
///
/// # Errors
///
/// The [`InterpError`] of [`Instances::run`].
pub fn matches_reference(
    instances: &Instances<'_>,
    reference: &Values,
    sched: &Schedule,
    transforms: &[StorageTransform],
) -> Result<bool, InterpError> {
    Ok(instances.run(sched, transforms)?.0 == *reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_core::{problems, transform::StorageTransform, OccupancyVector};
    use aov_ir::examples::{example1, example2, example4};
    use aov_linalg::AffineExpr;

    fn transforms_for(p: &Program, vectors: &[OccupancyVector]) -> Vec<StorageTransform> {
        vectors
            .iter()
            .enumerate()
            .map(|(aidx, v)| {
                StorageTransform::new(p, aov_ir::ArrayId(aidx), v).expect("transformable")
            })
            .collect()
    }

    /// The AOV must preserve semantics under *several* legal schedules.
    #[test]
    fn example1_aov_semantics_across_schedules() {
        let p = example1();
        let aov = problems::aov_with(&p, 1).unwrap();
        let ts = transforms_for(&p, aov.vectors());
        for theta in [
            AffineExpr::from_i64(&[0, 1, 0, 0], 0),  // rows
            AffineExpr::from_i64(&[1, 2, 0, 0], 0),  // skew right
            AffineExpr::from_i64(&[-1, 3, 0, 0], 5), // skew left + offset
            AffineExpr::from_i64(&[1, 3, 0, 0], 0),
        ] {
            let s = Schedule::uniform_for(&p, &[theta]);
            assert!(
                aov_schedule::Analysis::new(&p).unwrap().is_legal(&s),
                "test schedule legal"
            );
            assert!(
                semantics_preserved(&p, &[7, 6], &s, &ts),
                "AOV must survive every legal schedule"
            );
        }
    }

    /// A vector valid for one schedule only: works there, breaks
    /// elsewhere.
    #[test]
    fn example1_schedule_specific_vector() {
        let p = example1();
        let v = OccupancyVector::new(vec![0, 1]);
        let ts = transforms_for(&p, &[v]);
        let row = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
        assert!(semantics_preserved(&p, &[6, 5], &row, &ts));
        let skew = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 2, 0, 0], 0)]);
        assert!(!semantics_preserved(&p, &[6, 5], &skew, &ts));
    }

    #[test]
    fn example2_aov_semantics() {
        let p = example2();
        let aov = problems::aov_with(&p, 1).unwrap();
        let ts = transforms_for(&p, aov.vectors());
        for (t1, t2) in [
            (
                AffineExpr::from_i64(&[1, 1, 0, 0], 0),
                AffineExpr::from_i64(&[1, 1, 0, 0], 0),
            ),
            (
                AffineExpr::from_i64(&[2, 2, 0, 0], 0),
                AffineExpr::from_i64(&[2, 2, 0, 0], 1),
            ),
        ] {
            let s = Schedule::uniform_for(&p, &[t1, t2]);
            assert!(aov_schedule::Analysis::new(&p).unwrap().is_legal(&s));
            assert!(semantics_preserved(&p, &[5, 5], &s, &ts));
        }
    }

    /// Example 4 with our sharper AOV (1,0) for A: dynamically safe.
    #[test]
    fn example4_sharp_aov_semantics() {
        let p = example4();
        let aov = problems::aov_with(&p, 1).unwrap();
        assert_eq!(aov.vector_for("A").unwrap().components(), [1, 0]);
        let ts = transforms_for(&p, aov.vectors());
        let sched = problems::best_schedule_for_ov(&p, aov.vectors()).unwrap();
        assert!(semantics_preserved(&p, &[6], &sched, &ts));
    }

    /// Deciding a verdict solves no LP or ILP: the reference values need
    /// no schedule and the enumeration no bounding-box LPs.
    #[test]
    fn semantics_preserved_solves_no_lp() {
        use aov_support::context::Context;
        let p = example1();
        let ts = transforms_for(&p, &[OccupancyVector::new(vec![1, 2])]);
        let skew = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1, 2, 0, 0], 0)]);
        let ctx = Context::child(None, None);
        let entered = ctx.enter();
        assert!(semantics_preserved(&p, &[8, 8], &skew, &ts));
        drop(entered);
        let lp: Vec<_> = ctx
            .finish()
            .counters
            .into_iter()
            .filter(|(k, _)| k.starts_with("lp."))
            .collect();
        assert!(lp.is_empty(), "{lp:?}");
    }

    /// Problem-2 pipeline: storage first, then any schedule from the
    /// storage-constrained polyhedron works.
    #[test]
    fn problem2_schedules_respect_storage_dynamically() {
        let p = example1();
        let v = OccupancyVector::new(vec![0, 2]);
        let ts = transforms_for(&p, std::slice::from_ref(&v));
        let sched = problems::best_schedule_for_ov(&p, &[v]).unwrap();
        assert!(semantics_preserved(&p, &[6, 6], &sched, &ts));
    }
}
