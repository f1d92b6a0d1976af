//! Enumeration of the integer points of statement domains for concrete
//! parameter values.

use aov_ir::{ArrayId, Program, StmtId};
use aov_linalg::{AffineExpr, QVector};
use aov_polyhedra::{Constraint, Polyhedron};

/// Fixes the parameter dimensions of a statement-space polyhedron,
/// returning a polyhedron over the iteration dimensions only.
pub fn fix_params(domain: &Polyhedron, depth: usize, params: &[i64]) -> Polyhedron {
    let np = params.len();
    assert_eq!(domain.dim(), depth + np, "domain space mismatch");
    // Substitution: iter_k -> iter_k (over depth dims), param_j -> const.
    let mut subs: Vec<AffineExpr> = (0..depth).map(|k| AffineExpr::var(depth, k)).collect();
    for &v in params {
        subs.push(AffineExpr::constant(depth, v.into()));
    }
    Polyhedron::from_constraints(
        depth,
        domain
            .constraints()
            .iter()
            .map(|c| {
                let e = c.expr().substitute(&subs);
                if c.is_equality() {
                    Constraint::eq0(e)
                } else {
                    Constraint::ge0(e)
                }
            })
            .collect(),
    )
}

/// All integer points of a statement's iteration domain for the given
/// parameter values, enumerated over the domain's bounding box.
///
/// # Panics
///
/// Panics if the domain is unbounded (statement domains in this IR are
/// polytopes once parameters are fixed).
pub fn iteration_points(p: &Program, s: StmtId, params: &[i64]) -> Vec<Vec<i64>> {
    let st = p.statement(s);
    let fixed = fix_params(st.domain(), st.depth(), params);
    if fixed.is_empty() {
        return Vec::new();
    }
    let depth = st.depth();
    let mut lo = Vec::with_capacity(depth);
    let mut hi = Vec::with_capacity(depth);
    for k in 0..depth {
        let x = AffineExpr::var(depth, k);
        let min = fixed
            .minimum(&x)
            .expect("statement domain bounded below")
            .ceil()
            .to_i64()
            .expect("small domain bound");
        let max = fixed
            .maximum(&x)
            .expect("statement domain bounded above")
            .floor()
            .to_i64()
            .expect("small domain bound");
        lo.push(min);
        hi.push(max);
    }
    let mut out = Vec::new();
    let mut cur = lo.clone();
    'outer: loop {
        let pt = QVector::from_i64(&cur);
        if fixed.contains(&pt) {
            out.push(cur.clone());
        }
        // Odometer increment.
        for k in (0..depth).rev() {
            if cur[k] < hi[k] {
                cur[k] += 1;
                for (j, c) in cur.iter_mut().enumerate().skip(k + 1) {
                    *c = lo[j];
                }
                continue 'outer;
            }
        }
        break;
    }
    out
}

/// The cells every array's writers produce for one parameter point: each
/// writer's domain with the parameters fixed once, so a run decides
/// whether a read hits program-written data with one membership test
/// per writer.
#[derive(Debug, Clone)]
pub(crate) struct WrittenCells {
    /// Per array, the parameter-fixed domain of each writer.
    writers: Vec<Vec<Polyhedron>>,
}

impl WrittenCells {
    /// Fixes `params` in the domain of every statement of `p`.
    pub(crate) fn new(p: &Program, params: &[i64]) -> Self {
        let mut writers = vec![Vec::new(); p.arrays().len()];
        for st in p.statements() {
            writers[st.writes().0].push(fix_params(st.domain(), st.depth(), params));
        }
        WrittenCells { writers }
    }

    /// Whether any writer of `array` covers `index` for the parameters
    /// given to [`WrittenCells::new`] (i.e. the cell is produced by the
    /// program rather than input data).
    pub(crate) fn contains(&self, array: ArrayId, index: &[i64]) -> bool {
        let point = QVector::from_i64(index);
        self.writers[array.0]
            .iter()
            .any(|d| d.dim() == index.len() && d.contains(&point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples::{example1, example2, example3, example4};

    /// Test oracle: whether any writer of `array` covers `index`, fixing
    /// each writer's parameters anew on every call.
    fn written_by_program(p: &Program, array: ArrayId, index: &[i64], params: &[i64]) -> bool {
        p.writers_of(array).into_iter().any(|w| {
            let st = p.statement(w);
            if st.depth() != index.len() {
                return false;
            }
            let fixed = fix_params(st.domain(), st.depth(), params);
            fixed.contains(&QVector::from_i64(index))
        })
    }

    #[test]
    fn rectangle_enumeration() {
        let p = example1();
        let pts = iteration_points(&p, StmtId(0), &[3, 2]);
        assert_eq!(pts.len(), 6); // 3 × 2
        assert!(pts.contains(&vec![1, 1]));
        assert!(pts.contains(&vec![3, 2]));
        assert!(!pts.contains(&vec![4, 1]));
    }

    #[test]
    fn boundary_statement_enumeration() {
        let p = example3();
        let s1a = p.stmt_by_name("S1a").unwrap();
        // i == 1 plane with jmax=3, kmax=4 (imax=5): 3 * 4 points.
        let pts = iteration_points(&p, s1a, &[5, 3, 4]);
        assert_eq!(pts.len(), 12);
        assert!(pts.iter().all(|pt| pt[0] == 1));
    }

    #[test]
    fn empty_domain() {
        let p = example3();
        let s2 = p.stmt_by_name("S2").unwrap();
        // imax = 1 < 2: interior empty.
        let pts = iteration_points(&p, s2, &[1, 5, 5]);
        assert!(pts.is_empty());
    }

    #[test]
    fn written_by_program_boundaries() {
        let p = example1();
        let a = p.array_by_name("A").unwrap();
        assert!(written_by_program(&p, a, &[1, 1], &[4, 4]));
        assert!(written_by_program(&p, a, &[4, 4], &[4, 4]));
        assert!(!written_by_program(&p, a, &[0, 1], &[4, 4])); // boundary read
        assert!(!written_by_program(&p, a, &[5, 1], &[4, 4]));
    }

    /// On ex1–4 at their check parameters, the cached membership equals
    /// [`written_by_program`] at every index of a box one cell wider than
    /// each array's data space (its written and read cells).
    #[test]
    fn written_cells_match_written_by_program() {
        let cases = [
            (example1(), vec![8, 8]),
            (example2(), vec![8, 8]),
            (example3(), vec![4, 4, 4]),
            (example4(), vec![6]),
        ];
        for (p, params) in cases {
            let cells = WrittenCells::new(&p, &params);
            // Per array, the bounding box of every written and read index.
            let mut boxes: Vec<Option<(Vec<i64>, Vec<i64>)>> = vec![None; p.arrays().len()];
            let mut widen = |array: ArrayId, index: &[i64]| {
                let (lo, hi) =
                    boxes[array.0].get_or_insert_with(|| (index.to_vec(), index.to_vec()));
                for (k, &x) in index.iter().enumerate() {
                    lo[k] = lo[k].min(x);
                    hi[k] = hi[k].max(x);
                }
            };
            for s in p.stmt_ids() {
                let st = p.statement(s);
                for pt in iteration_points(&p, s, &params) {
                    widen(st.writes(), &pt);
                    let point: Vec<i64> = pt.iter().chain(&params).copied().collect();
                    for acc in st.reads() {
                        let index: Vec<i64> = acc
                            .index()
                            .iter()
                            .map(|e| e.eval_i64(&point).to_i64().unwrap())
                            .collect();
                        widen(acc.array(), &index);
                    }
                }
            }
            let mut checked = 0;
            for (aidx, bounds) in boxes.into_iter().enumerate() {
                let (lo, hi) = bounds.expect("every array is accessed");
                let array = ArrayId(aidx);
                let mut cur: Vec<i64> = lo.iter().map(|x| x - 1).collect();
                'cells: loop {
                    assert_eq!(
                        cells.contains(array, &cur),
                        written_by_program(&p, array, &cur, &params),
                        "{} {cur:?}",
                        p.name()
                    );
                    checked += 1;
                    for k in (0..cur.len()).rev() {
                        if cur[k] <= hi[k] {
                            cur[k] += 1;
                            for j in k + 1..cur.len() {
                                cur[j] = lo[j] - 1;
                            }
                            continue 'cells;
                        }
                    }
                    break;
                }
            }
            assert!(checked > 50, "{}: {checked} cells", p.name());
        }
    }
}
