//! The Universal Occupancy Vector baseline (Strout, Carter, Ferrante &
//! Simon, ASPLOS 1998) the paper compares AOVs against (§7).
//!
//! A UOV is valid for *every* legal execution order, not just affine
//! ones. For a single-statement stencil with dependence distance vectors
//! `d_1 … d_q` (value at `i` read by `i + d_k`), a vector `v` is a UOV
//! iff for every `k` the overwriting iteration `i + v` transitively
//! depends on the reader `i + d_k`, i.e. `v − d_k` is a nonnegative
//! integer combination of the distance vectors. The shortest UOV can
//! therefore be longer than the shortest AOV — the paper's Example 1 has
//! UOV `(0,3)` but AOV `(1,2)`.

use crate::objective::evenness;
use crate::{CoreError, OccupancyVector};
use aov_ir::{ArrayId, Dependence, Program};
use aov_linalg::AffineExpr;
use aov_lp::{Cmp, LpOutcome, Model};

/// Whether `v − d` is a nonnegative integer combination of `dists` for
/// every distance `d` in `dists` (the Strout et al. UOV condition),
/// decided by one ILP feasibility query per distance.
pub fn is_uov(v: &[i64], dists: &[Vec<i64>]) -> bool {
    if v.iter().all(|&c| c == 0) {
        return false;
    }
    dists.iter().all(|d| {
        let target: Vec<i64> = v.iter().zip(d).map(|(a, b)| a - b).collect();
        is_nonneg_combination(&target, dists)
    })
}

/// Whether `target = Σ m_k · dists[k]` for nonnegative integers `m_k`.
pub fn is_nonneg_combination(target: &[i64], dists: &[Vec<i64>]) -> bool {
    let dim = target.len();
    let mut m = Model::new();
    for k in 0..dists.len() {
        let var = m.add_nonneg_var(format!("m{k}"));
        m.set_integer(var);
    }
    for coord in 0..dim {
        let coeffs: Vec<i64> = dists.iter().map(|d| d[coord]).collect();
        m.constrain(AffineExpr::from_i64(&coeffs, -target[coord]), Cmp::Eq);
    }
    // `solve_ilp` panics on a fault rather than answer wrongly, which
    // would corrupt the UOV.
    matches!(m.solve_ilp(), LpOutcome::Optimal(_))
}

/// Shortest UOV (by the paper's two-term objective) for an array whose
/// dependences (`deps`, the program's `analysis::dependences`) are all
/// uniform self-dependences, searching Manhattan shells up to
/// `max_radius`.
///
/// # Errors
///
/// * [`CoreError::InvalidProgram`] — the array's dependences are not
///   uniform self-dependences (the UOV framework of Strout et al. does
///   not apply).
/// * [`CoreError::NoVectorFound`] — nothing within `max_radius`.
pub fn shortest_uov(
    p: &Program,
    deps: &[Dependence],
    array: ArrayId,
    max_radius: i64,
) -> Result<OccupancyVector, CoreError> {
    let mut dists: Vec<Vec<i64>> = Vec::new();
    for d in deps {
        if p.statement(d.source).writes() != array {
            continue;
        }
        if d.source != d.target {
            return Err(CoreError::InvalidProgram(
                "UOV analysis requires single-statement stencils".into(),
            ));
        }
        let dist = d.uniform_distance().ok_or_else(|| {
            CoreError::InvalidProgram("UOV analysis requires uniform dependences".into())
        })?;
        if !dists.contains(&dist) {
            dists.push(dist);
        }
    }
    if dists.is_empty() {
        return Err(CoreError::InvalidProgram(
            "array has no dependences to protect".into(),
        ));
    }
    let dim = dists[0].len();
    for r in 1..=max_radius {
        let mut shell = crate::problems::enumerate_shell_for_tests(dim, r);
        shell.sort_by_key(|v| (evenness(v), v.iter().filter(|&&c| c < 0).count(), v.clone()));
        for v in shell {
            if is_uov(&v, &dists) {
                return Ok(OccupancyVector::new(v));
            }
        }
    }
    Err(CoreError::NoVectorFound)
}

/// Shortest UOV for *every* array of the program (see [`shortest_uov`]).
/// This is the schedule-independent fallback the engine degrades to when
/// the Farkas AOV solver is unavailable (budget spent, injected fault,
/// failed linearization): it needs nothing but the dependences.
///
/// # Errors
///
/// As for [`shortest_uov`], for the first array that fails.
pub fn shortest_uov_all(
    p: &Program,
    deps: &[Dependence],
    max_radius: i64,
) -> Result<crate::problems::OvResult, CoreError> {
    let vectors = (0..p.arrays().len())
        .map(|aidx| shortest_uov(p, deps, ArrayId(aidx), max_radius))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(crate::problems::OvResult::new(p, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples::{example1, heat1d, prefix_sum};
    use aov_ir::{analysis, ArrayId};

    #[test]
    fn nonneg_combination_queries() {
        let dists = vec![vec![2, 1], vec![0, 1], vec![-1, 1]];
        assert!(is_nonneg_combination(&[0, 0], &dists)); // empty sum
        assert!(is_nonneg_combination(&[2, 1], &dists));
        assert!(is_nonneg_combination(&[1, 2], &dists)); // (2,1)+(−1,1)
        assert!(is_nonneg_combination(&[-2, 2], &dists)); // 2·(−1,1)
        assert!(!is_nonneg_combination(&[1, 0], &dists));
        assert!(!is_nonneg_combination(&[0, -1], &dists));
    }

    /// §5.1.4 / §7: Example 1's shortest UOV is (0, 3), longer
    /// (euclidean) than the AOV (1, 2).
    #[test]
    fn example1_uov_is_0_3() {
        let p = example1();
        let uov = shortest_uov(&p, &analysis::dependences(&p), ArrayId(0), 6).unwrap();
        assert_eq!(uov.components(), [0, 3]);
        // And (1,2) is NOT a UOV even though it is an AOV.
        let dists = vec![vec![2, 1], vec![0, 1], vec![-1, 1]];
        assert!(!is_uov(&[1, 2], &dists));
        assert!(is_uov(&[0, 3], &dists));
    }

    #[test]
    fn heat1d_uov() {
        let p = heat1d();
        let uov = shortest_uov(&p, &analysis::dependences(&p), ArrayId(0), 6).unwrap();
        // Distances (1,1), (0,1), (−1,1): v − d must decompose for all d;
        // try (0,2): (−1,1),(0,1),(1,1) ✓ each a single distance.
        assert_eq!(uov.components(), [0, 2]);
    }

    #[test]
    fn prefix_sum_uov_is_one() {
        let p = prefix_sum();
        let uov = shortest_uov(&p, &analysis::dependences(&p), ArrayId(0), 4).unwrap();
        assert_eq!(uov.components(), [1]);
    }

    #[test]
    fn non_stencil_rejected() {
        let p = aov_ir::examples::example2();
        // Cross-statement dependences: UOV framework does not apply.
        assert!(matches!(
            shortest_uov(&p, &analysis::dependences(&p), ArrayId(0), 4),
            Err(CoreError::InvalidProgram(_))
        ));
    }
}
