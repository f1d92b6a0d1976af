//! Multiple occupancy vectors (the paper's §8 future-work item).
//!
//! A single occupancy vector collapses one array dimension; the paper
//! asks whether *several* vectors could be applied at once, reusing
//! storage along a rank-≥2 lattice `L = ℤ·v₁ + ℤ·v₂`. Cells `x` and
//! `x + w` then share storage for every `w ∈ L`.
//!
//! Because `L` is a group (`w ∈ L ⟺ −w ∈ L`), validity needs an
//! *orientation*: writes along the lattice must be totally ordered in
//! time under every legal schedule. Splitting `L \ {0}` into a
//! "future" half `L⁺` (lexicographically positive generator
//! coefficients, after a sign choice per generator) and its negation,
//! the lattice is valid for all legal schedules if for every in-range
//! `w ∈ L⁺`:
//!
//! 1. **ordering** — `a_T·w ≥ 1` holds over the legal-schedule
//!    polyhedron ℛ for every writer `T` of the array (so `−w`-writes
//!    are strictly in the past and cannot clobber anything), and
//! 2. **reader protection** — the single-shift storage condition
//!    `Θ_T(h(i)+w, N) ≥ Θ_R(i, N)` holds over the shift's exact domain
//!    and all of ℛ (the same check as for a single occupancy vector).
//!
//! For a rank-1 lattice this degenerates exactly to the paper's single
//! occupancy vector condition (tested below). For rank 2 on *live* 2-d
//! arrays no valid lattice exists — the live set of values is
//! 1-dimensional under every schedule, and a rank-2 collapse would
//! leave less than that; the search below returns `None`, mechanizing
//! why the paper left multi-vector reuse as an open question (it needs
//! arrays of dimension ≥ 3, weaker schedule sets, or boundary effects).

use crate::check::{self, Checker};
use crate::CoreError;
use aov_ir::ArrayId;
use aov_linalg::AffineExpr;
use aov_schedule::Analysis;

/// All nonzero shifts `Σ k_j·v_j` with their coefficient vectors, whose
/// components stay within `±extents` (the only shifts that can relate
/// two cells of the data space).
pub fn lattice_shifts(gens: &[Vec<i64>], extents: &[i64]) -> Vec<(Vec<i64>, Vec<i64>)> {
    let dim = extents.len();
    for g in gens {
        assert_eq!(g.len(), dim, "generator dimension");
    }
    // Coefficient bound: |k_j| <= sum extents (loose but finite).
    let bound: i64 = extents.iter().sum();
    let mut out: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
    let mut ks = vec![-bound; gens.len()];
    'outer: loop {
        let w: Vec<i64> = (0..dim)
            .map(|d| gens.iter().zip(&ks).map(|(g, k)| g[d] * k).sum())
            .collect();
        let inside = w.iter().zip(extents).all(|(c, e)| c.abs() <= *e);
        if inside && w.iter().any(|&c| c != 0) && !out.iter().any(|(x, _)| *x == w) {
            out.push((w, ks.clone()));
        }
        for j in (0..ks.len()).rev() {
            if ks[j] < bound {
                ks[j] += 1;
                for kk in ks.iter_mut().skip(j + 1) {
                    *kk = -bound;
                }
                continue 'outer;
            }
        }
        break;
    }
    out
}

/// Whether the reuse lattice spanned by `gens` is valid for `array`
/// under **every** legal affine schedule, for *some* orientation of the
/// generators (see the module docs). Exact for programs with constant
/// loop bounds (pass the loop extents); for parameterized programs this
/// is a check at one concrete size.
///
/// # Errors
///
/// Propagates polyhedral failures from the per-shift checks.
pub fn lattice_valid_for_all_schedules(
    a: &Analysis,
    array: ArrayId,
    gens: &[Vec<i64>],
    extents: &[i64],
) -> Result<bool, CoreError> {
    let shifts = lattice_shifts(gens, extents);
    let checker = Checker::new(a);
    let (space, legal) = (a.space(), check::lp_model(a.legal()));
    let writers = a.program().writers_of(array);

    // Try every generator sign assignment.
    'orient: for mask in 0u32..(1 << gens.len()) {
        let sigma: Vec<i64> = (0..gens.len())
            .map(|j| if mask & (1 << j) != 0 { -1 } else { 1 })
            .collect();
        for (w, ks) in &shifts {
            // Lex sign of the oriented coefficient vector.
            let oriented: Vec<i64> = ks.iter().zip(&sigma).map(|(k, s)| k * s).collect();
            let lex_pos = oriented.iter().find(|&&k| k != 0).is_some_and(|&k| k > 0);
            if !lex_pos {
                continue; // handled as the negation of a positive shift
            }
            // (1) ordering: a_T · w >= 1 over ℛ for every writer.
            for &t in &writers {
                let dim = space.dim();
                let mut row = AffineExpr::constant(dim, (-1).into());
                for (k, &wk) in w.iter().enumerate() {
                    row = &row + &AffineExpr::var(dim, space.iter_coeff(t, k)).scale(&wk.into());
                }
                if !legal.implies_nonneg(&row) {
                    continue 'orient;
                }
            }
            // (2) reader protection: the single-shift storage condition.
            if !checker.valid_for_all_schedules(array, w)? {
                continue 'orient;
            }
        }
        return Ok(true);
    }
    Ok(false)
}

/// Searches for a second vector `v₂` (by increasing Manhattan length,
/// skipping multiples of `v₁`) such that the lattice `⟨v₁, v₂⟩` is valid
/// for all legal schedules. Returns `None` when no such vector exists
/// within `radius` — the expected outcome for live arrays, per the
/// module-level discussion.
///
/// # Errors
///
/// Propagates polyhedral failures from the validity checks.
pub fn second_vector_search(
    a: &Analysis,
    array: ArrayId,
    v1: &[i64],
    extents: &[i64],
    radius: i64,
) -> Result<Option<Vec<i64>>, CoreError> {
    let dim = v1.len();
    for r in 1..=radius {
        for v2 in crate::problems::enumerate_shell(dim, r) {
            if colinear(v1, &v2) {
                continue;
            }
            let gens = vec![v1.to_vec(), v2.clone()];
            if lattice_valid_for_all_schedules(a, array, &gens, extents)? {
                return Ok(Some(v2));
            }
        }
    }
    Ok(None)
}

fn colinear(a: &[i64], b: &[i64]) -> bool {
    // a, b colinear iff all 2x2 minors vanish.
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            if a[i] * b[j] - a[j] * b[i] != 0 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples::example1_sized;

    #[test]
    fn shift_enumeration() {
        let shifts = lattice_shifts(&[vec![1, 2], vec![0, 3]], &[2, 3]);
        let ws: Vec<&Vec<i64>> = shifts.iter().map(|(w, _)| w).collect();
        assert!(ws.contains(&&vec![1, 2]));
        assert!(ws.contains(&&vec![0, 3]));
        assert!(ws.contains(&&vec![1, -1])); // v1 - v2
        assert!(ws.contains(&&vec![-1, 1]));
        assert!(!ws.contains(&&vec![0, 0]));
        assert!(ws.iter().all(|w| w[0].abs() <= 2 && w[1].abs() <= 3));
        // Coefficients reported alongside.
        let (_, ks) = shifts.iter().find(|(w, _)| *w == vec![1, -1]).unwrap();
        assert_eq!(ks, &vec![1, -1]);
    }

    #[test]
    fn colinearity() {
        assert!(colinear(&[1, 2], &[2, 4]));
        assert!(colinear(&[1, 2], &[-1, -2]));
        assert!(!colinear(&[1, 2], &[2, 1]));
        assert!(colinear(&[0, 0], &[1, 1])); // degenerate zero vector
    }

    /// A rank-1 lattice degenerates to the single-OV condition: the AOV
    /// (1,2) of Example 1 validates, the non-AOV (0,1) does not.
    #[test]
    fn rank1_lattice_matches_single_ov() {
        let p = example1_sized(6, 6);
        let an = Analysis::new(&p).unwrap();
        let a = p.array_by_name("A").unwrap();
        assert!(
            lattice_valid_for_all_schedules(&an, a, &[vec![1, 2]], &[6, 6]).unwrap(),
            "the AOV's own lattice must validate"
        );
        assert!(
            lattice_valid_for_all_schedules(&an, a, &[vec![0, 3]], &[6, 6]).unwrap(),
            "the UOV's lattice must validate"
        );
        assert!(
            !lattice_valid_for_all_schedules(&an, a, &[vec![0, 1]], &[6, 6]).unwrap(),
            "(0,1) is not valid for all schedules"
        );
        // Orientation handling: the negated generator describes the same
        // lattice and must validate too.
        assert!(lattice_valid_for_all_schedules(&an, a, &[vec![-1, -2]], &[6, 6]).unwrap());
    }

    /// The paper's open question, answered negatively for live 2-d
    /// arrays: no second vector exists for Example 1 — a rank-2 collapse
    /// cannot preserve every legal schedule.
    #[test]
    fn no_second_vector_for_live_2d_array() {
        let p = example1_sized(5, 5);
        let an = Analysis::new(&p).unwrap();
        let a = p.array_by_name("A").unwrap();
        let v2 = second_vector_search(&an, a, &[1, 2], &[5, 5], 3).unwrap();
        assert_eq!(v2, None);
    }
}
