//! Tilability preservation (§3.3 of the paper).
//!
//! "If tiling is legal in the original program, then tiling is legal
//! after transforming each array in the program under one of its AOVs":
//! two loops are tilable iff they can be permuted [Irigoin & Triolet],
//! each permutation corresponds to an affine schedule, and an AOV is
//! valid for *both* schedules.
//!
//! For loop nests with constant bounds the two interchange orders of a
//! depth-2 statement are realizable as one-dimensional affine schedules
//! `Θ = K·i + j` and `Θ = i + K·j` (with `K` larger than the inner
//! extent), so the claim becomes checkable with the machinery of this
//! crate — which is what this module does.

use crate::check::Checker;
use crate::OccupancyVector;
use aov_ir::Program;
use aov_linalg::AffineExpr;
use aov_schedule::{Analysis, Schedule};

/// The two loop-interchange schedules of a depth-2 statement with
/// constant bounds: `(outer-i, outer-j)` sequential orders, linearized
/// with stride `k` (pass `k >` the loop extents).
///
/// # Panics
///
/// Panics unless every statement of the program has depth 2.
pub fn interchange_schedules(p: &Program, k: i64) -> (Schedule, Schedule) {
    let np = p.num_params();
    let mut outer_i = Vec::new();
    let mut outer_j = Vec::new();
    for s in p.statements() {
        assert_eq!(s.depth(), 2, "interchange schedules need depth-2 nests");
        let dim = 2 + np;
        let mut ci = vec![0i64; dim];
        ci[0] = k;
        ci[1] = 1;
        outer_i.push(AffineExpr::from_i64(&ci, 0));
        let mut cj = vec![0i64; dim];
        cj[0] = 1;
        cj[1] = k;
        outer_j.push(AffineExpr::from_i64(&cj, 0));
    }
    (
        Schedule::uniform_for(p, &outer_i),
        Schedule::uniform_for(p, &outer_j),
    )
}

/// Whether the program's depth-2 loops are interchange-tilable:
/// both sequential orders are legal schedules.
pub fn loops_permutable(a: &Analysis, k: i64) -> bool {
    let (s1, s2) = interchange_schedules(a.program(), k);
    a.is_legal(&s1) && a.is_legal(&s2)
}

/// The paper's §3.3 claim, checked for a concrete program: if both loop
/// orders are legal originally, both remain valid after transforming
/// every array under the given vectors (i.e. tiling stays legal).
///
/// Returns `None` when the loops were not permutable to begin with
/// (the claim is vacuous), otherwise whether both orders accept the
/// storage mapping.
pub fn tiling_preserved(a: &Analysis, vectors: &[OccupancyVector], k: i64) -> Option<bool> {
    if !loops_permutable(a, k) {
        return None;
    }
    let p = a.program();
    let (s1, s2) = interchange_schedules(p, k);
    let checker = Checker::new(a);
    for (aidx, arr) in p.arrays().iter().enumerate() {
        let aid = aov_ir::ArrayId(aidx);
        let v = &vectors[aidx];
        assert_eq!(v.dim(), arr.dim(), "one vector per array");
        if !checker.valid_for_schedule(aid, v.components(), &s1)
            || !checker.valid_for_schedule(aid, v.components(), &s2)
        {
            return Some(false);
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;
    use aov_ir::examples::{example1_sized, wavefront2d_sized};

    /// Example 1 is NOT interchange-legal: the distance (-1, 1) makes
    /// the outer-i order read A[i+1][j-1] before it is written. The
    /// claim is vacuous there.
    #[test]
    fn example1_not_permutable() {
        let p = example1_sized(6, 6);
        let an = Analysis::new(&p).unwrap();
        assert!(!loops_permutable(&an, 100));
        let aov = problems::aov_with(&p, 1).expect("solvable");
        assert_eq!(tiling_preserved(&an, aov.vectors(), 100), None);
    }

    /// The wavefront nest is also permutable, and its AOV (1,1) keeps it
    /// so.
    #[test]
    fn wavefront_aov_preserves_tiling() {
        let p = wavefront2d_sized(6, 6);
        let an = Analysis::new(&p).unwrap();
        assert!(loops_permutable(&an, 100));
        let aov = problems::aov_with(&p, 1).expect("solvable");
        assert_eq!(tiling_preserved(&an, aov.vectors(), 100), Some(true));
    }

    /// A schedule-specific (non-AOV) vector need NOT preserve tiling:
    /// on the wavefront nest, (0,1) is valid for the outer-j order but
    /// not the outer-i order (the (1,0)-dependence's value is clobbered
    /// by (i-1, j+1) before row i reads it).
    #[test]
    fn schedule_specific_vector_can_break_tiling() {
        let p = wavefront2d_sized(6, 6);
        let an = Analysis::new(&p).unwrap();
        let short = vec![OccupancyVector::new(vec![0, 1])];
        assert_eq!(tiling_preserved(&an, &short, 100), Some(false));
    }
}
