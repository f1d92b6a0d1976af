//! Statement domains and affine maps lowered to integer rows at one
//! parameter point, the integer points they enumerate, and the flat
//! tables indexed by those points.
//!
//! Lowering happens once per parameter point: every coefficient and the
//! folded parameter terms become `i64`s, evaluated in `i128` with checked
//! operations, so an index, bound or key outside `i64` is an
//! [`InterpError::Overflow`] rather than a wrapped value. Bounding boxes
//! come from a small Fourier–Motzkin projection over the integer rows;
//! no LP is solved.

use crate::InterpError;
use aov_ir::{ArrayId, Program, Statement, StmtId};
use aov_linalg::AffineExpr;
#[cfg(test)]
use aov_linalg::QVector;
use aov_numeric::{gcd, Rational};
#[cfg(test)]
use aov_polyhedra::{Constraint, Polyhedron};

/// Affine maps lowered at one parameter point: row `r` is
/// `(a_r · x + c_r) / d_r` with integer `a_r`, `c_r` and `d_r > 0`.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    dim: usize,
    /// Per row, `dim` coefficients and then the constant.
    cells: Vec<i64>,
    denoms: Vec<i64>,
}

impl Rows {
    /// No rows, over `dim` variables.
    pub(crate) fn new(dim: usize) -> Self {
        Rows {
            dim,
            cells: Vec::new(),
            denoms: Vec::new(),
        }
    }

    /// Appends `e` (over `dim` variables ++ `params`) with the parameters
    /// fixed, its denominators cleared by their lcm.
    pub(crate) fn push(&mut self, e: &AffineExpr, params: &[i64]) -> Result<(), InterpError> {
        let scale = denominator_lcm(std::iter::once(e))?;
        self.push_scaled(e, params, scale)
    }

    /// Appends `scale · e` with the parameters fixed and `scale` as the
    /// row's denominator; `scale` must clear every denominator of `e`.
    pub(crate) fn push_scaled(
        &mut self,
        e: &AffineExpr,
        params: &[i64],
        scale: i64,
    ) -> Result<(), InterpError> {
        if e.dim() != self.dim + params.len() {
            return Err(InterpError::Unsupported(format!(
                "affine map over {} variables, expected {} + {} parameters",
                e.dim(),
                self.dim,
                params.len()
            )));
        }
        let scaled = |c: &Rational| -> Result<i128, InterpError> {
            let (n, d) = small(c)?;
            Ok(i128::from(n) * i128::from(scale / d))
        };
        for c in &e.coeffs().as_slice()[..self.dim] {
            self.cells.push(narrow(scaled(c)?)?);
        }
        let mut constant = scaled(e.constant_term())?;
        for (c, &v) in e.coeffs().as_slice()[self.dim..].iter().zip(params) {
            let term = scaled(c)?.checked_mul(i128::from(v)).ok_or_else(overflow)?;
            constant = constant.checked_add(term).ok_or_else(overflow)?;
        }
        self.cells.push(narrow(constant)?);
        self.denoms.push(scale);
        Ok(())
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.denoms.len()
    }

    /// Row `r`'s coefficients and constant.
    fn row(&self, r: usize) -> &[i64] {
        &self.cells[r * (self.dim + 1)..(r + 1) * (self.dim + 1)]
    }

    /// Row `r`'s numerator `a_r · x + c_r`.
    pub(crate) fn numer(&self, r: usize, x: &[i64]) -> Result<i64, InterpError> {
        let row = self.row(r);
        let mut acc = i128::from(row[self.dim]);
        for (&a, &v) in row.iter().zip(x) {
            acc = acc
                .checked_add(i128::from(a) * i128::from(v))
                .ok_or_else(overflow)?;
        }
        narrow(acc)
    }

    /// Row `r`'s value, which must be an integer.
    pub(crate) fn eval(&self, r: usize, x: &[i64]) -> Result<i64, InterpError> {
        let (n, d) = (self.numer(r, x)?, self.denoms[r]);
        if n % d != 0 {
            return Err(InterpError::Unsupported(format!(
                "affine map takes the non-integer value {n}/{d} at {x:?}"
            )));
        }
        Ok(n / d)
    }
}

/// The lcm of every denominator in `exprs`.
pub(crate) fn denominator_lcm<'a>(
    exprs: impl IntoIterator<Item = &'a AffineExpr>,
) -> Result<i64, InterpError> {
    let mut l = 1i64;
    for e in exprs {
        for c in e.coeffs().iter().chain(std::iter::once(e.constant_term())) {
            let d = small(c)?.1;
            l = (l / gcd(l, d)).checked_mul(d).ok_or_else(overflow)?;
        }
    }
    Ok(l)
}

/// A rational's numerator and denominator as `i64`s.
fn small(c: &Rational) -> Result<(i64, i64), InterpError> {
    match (c.numer().to_i64(), c.denom().to_i64()) {
        (Some(n), Some(d)) => Ok((n, d)),
        _ => Err(InterpError::Overflow(format!(
            "coefficient {c} exceeds i64"
        ))),
    }
}

fn narrow(v: i128) -> Result<i64, InterpError> {
    i64::try_from(v).map_err(|_| InterpError::Overflow(format!("value {v} exceeds i64")))
}

fn overflow() -> InterpError {
    InterpError::Overflow("affine arithmetic exceeds i128".into())
}

/// A statement's iteration domain at one parameter point: its
/// constraints as integer rows and their inclusive bounding box.
#[derive(Debug, Clone)]
pub(crate) struct Domain {
    /// Rows that must be `>= 0`.
    ineqs: Rows,
    /// Rows that must be `== 0`.
    eqs: Rows,
    /// The bounding box, `None` when the domain is empty.
    bounds: Bounds,
}

impl Domain {
    /// Lowers `st`'s domain at `params` and bounds it.
    ///
    /// # Errors
    ///
    /// [`InterpError::Unsupported`] when the domain is unbounded once the
    /// parameters are fixed, [`InterpError::Overflow`] when a row leaves
    /// `i64`.
    pub(crate) fn new(st: &Statement, params: &[i64]) -> Result<Self, InterpError> {
        let depth = st.depth();
        let mut ineqs = Rows::new(depth);
        let mut eqs = Rows::new(depth);
        for c in st.domain().constraints() {
            let rows = if c.is_equality() {
                &mut eqs
            } else {
                &mut ineqs
            };
            rows.push(c.expr(), params)?;
        }
        let bounds = bounding_box(&ineqs, &eqs).and_then(|b| {
            b.ok_or_else(|| {
                InterpError::Unsupported(format!(
                    "the domain of {} is unbounded at parameters {params:?}",
                    st.name()
                ))
            })
        })?;
        Ok(Domain { ineqs, eqs, bounds })
    }

    /// The inclusive bounding box, `None` when the domain is empty.
    pub(crate) fn bounds(&self) -> Option<(&[i64], &[i64])> {
        self.bounds
            .as_ref()
            .map(|(lo, hi)| (lo.as_slice(), hi.as_slice()))
    }

    /// Whether the integer point `x` lies in the domain.
    pub(crate) fn contains(&self, x: &[i64]) -> Result<bool, InterpError> {
        for r in 0..self.ineqs.len() {
            if self.ineqs.numer(r, x)? < 0 {
                return Ok(false);
            }
        }
        for r in 0..self.eqs.len() {
            if self.eqs.numer(r, x)? != 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Appends every integer point of the domain to `out`, in
    /// lexicographic order and flattened; returns how many.
    pub(crate) fn points_into(&self, out: &mut Vec<i64>) -> Result<usize, InterpError> {
        let Some((lo, hi)) = &self.bounds else {
            return Ok(0);
        };
        let mut cur = lo.clone();
        let mut count = 0;
        loop {
            if self.contains(&cur)? {
                out.extend_from_slice(&cur);
                count += 1;
            }
            // Odometer increment.
            let mut k = cur.len();
            loop {
                if k == 0 {
                    return Ok(count);
                }
                k -= 1;
                if cur[k] < hi[k] {
                    cur[k] += 1;
                    cur[k + 1..].copy_from_slice(&lo[k + 1..]);
                    break;
                }
            }
        }
    }
}

/// An inclusive box `lo ..= hi`, or `None` for an empty set.
type Bounds = Option<(Vec<i64>, Vec<i64>)>;

/// The inclusive integer bounding box of `{x : ineqs(x) >= 0, eqs(x) = 0}`:
/// each coordinate's rational bounds by Fourier–Motzkin elimination of
/// every other coordinate, rounded inward. The inner `None` is an empty
/// set, the outer `None` an unbounded coordinate.
///
/// # Errors
///
/// [`InterpError::Overflow`] when a combined row leaves `i128`.
fn bounding_box(ineqs: &Rows, eqs: &Rows) -> Result<Option<Bounds>, InterpError> {
    let dim = ineqs.dim;
    let wide = |row: &[i64], sign: i128| row.iter().map(|&v| sign * i128::from(v)).collect();
    let mut system: Vec<Vec<i128>> = (0..ineqs.len()).map(|r| wide(ineqs.row(r), 1)).collect();
    for r in 0..eqs.len() {
        system.push(wide(eqs.row(r), 1));
        system.push(wide(eqs.row(r), -1));
    }
    let (mut lo, mut hi) = (Vec::with_capacity(dim), Vec::with_capacity(dim));
    for k in 0..dim {
        let mut rows = system.clone();
        for j in (0..dim).filter(|&j| j != k) {
            let (mut next, mut pos, mut neg) = (Vec::new(), Vec::new(), Vec::new());
            for row in rows {
                match row[j].signum() {
                    0 => next.push(row),
                    1 => pos.push(row),
                    _ => neg.push(row),
                }
            }
            for p in &pos {
                for n in &neg {
                    let combined = p
                        .iter()
                        .zip(n)
                        .map(|(&a, &b)| {
                            a.checked_mul(-n[j])
                                .zip(b.checked_mul(p[j]))
                                .and_then(|(x, y)| x.checked_add(y))
                        })
                        .collect::<Option<Vec<i128>>>()
                        .ok_or_else(overflow)?;
                    next.push(combined);
                }
            }
            for row in &mut next {
                let g = row.iter().fold(0i128, |g, &v| gcd_i128(g, v));
                if g > 1 {
                    row.iter_mut().for_each(|v| *v /= g);
                }
            }
            next.sort_unstable();
            next.dedup();
            rows = next;
        }
        let (mut low, mut high) = (None::<i128>, None::<i128>);
        for row in &rows {
            let (a, c) = (row[k], row[dim]);
            if a > 0 {
                // a·x + c >= 0  =>  x >= ceil(-c / a).
                let b = -c.div_euclid(a);
                low = Some(low.map_or(b, |l| l.max(b)));
            } else if a < 0 {
                // x <= floor(c / -a).
                let b = c.div_euclid(-a);
                high = Some(high.map_or(b, |h| h.min(b)));
            } else if c < 0 {
                return Ok(Some(None));
            }
        }
        let (Some(l), Some(h)) = (low, high) else {
            return Ok(None);
        };
        if l > h {
            return Ok(Some(None));
        }
        lo.push(narrow(l)?);
        hi.push(narrow(h)?);
    }
    if dim == 0 && system.iter().any(|row| row[0] < 0) {
        return Ok(Some(None));
    }
    Ok(Some(Some((lo, hi))))
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// All integer points of a statement's iteration domain for the given
/// parameter values, in lexicographic order.
///
/// # Panics
///
/// Panics if the domain is unbounded once the parameters are fixed or a
/// bound leaves `i64` (see [`InterpError`]).
pub fn iteration_points(p: &Program, s: StmtId, params: &[i64]) -> Vec<Vec<i64>> {
    let st = p.statement(s);
    let mut flat = Vec::new();
    let count = Domain::new(st, params)
        .and_then(|d| d.points_into(&mut flat))
        .unwrap_or_else(|e| panic!("enumerating {}: {e}", st.name()));
    let depth = st.depth();
    (0..count)
        .map(|k| flat[k * depth..(k + 1) * depth].to_vec())
        .collect()
}

/// Row-major offsets of the integer points of an inclusive box.
#[derive(Debug, Clone)]
pub(crate) struct BoxIndex {
    lo: Vec<i64>,
    extents: Vec<u64>,
    len: usize,
}

impl BoxIndex {
    /// The box `lo ..= hi`, empty when some `hi < lo`.
    ///
    /// # Errors
    ///
    /// [`InterpError::Overflow`] when the box has more than `usize` cells.
    pub(crate) fn new(lo: Vec<i64>, hi: &[i64]) -> Result<Self, InterpError> {
        let extents: Vec<u64> = lo
            .iter()
            .zip(hi)
            .map(|(&l, &h)| u64::try_from(i128::from(h) - i128::from(l) + 1).unwrap_or(0))
            .collect();
        let len = extents
            .iter()
            .try_fold(1usize, |n, &e| n.checked_mul(usize::try_from(e).ok()?))
            .ok_or_else(|| InterpError::Overflow(format!("a box of extents {extents:?}")))?;
        Ok(BoxIndex { lo, extents, len })
    }

    /// The box with no cells, in `dim` dimensions.
    pub(crate) fn empty(dim: usize) -> Self {
        BoxIndex {
            lo: vec![0; dim],
            extents: vec![0; dim],
            len: 0,
        }
    }

    /// The number of cells.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The offset of `x`, or `None` when it lies outside the box.
    pub(crate) fn offset(&self, x: &[i64]) -> Option<usize> {
        if x.len() != self.lo.len() {
            return None;
        }
        let mut off = 0usize;
        for ((&v, &l), &e) in x.iter().zip(&self.lo).zip(&self.extents) {
            let d = u64::try_from(i128::from(v) - i128::from(l)).ok()?;
            if d >= e {
                return None;
            }
            // In range: the product stays below `len`.
            off = off * e as usize + d as usize;
        }
        Some(off)
    }
}

/// Which instance writes each cell of each array at one parameter point:
/// per array, a flat table over its written box (the bounding box of its
/// writers' domains) holding the writing instance, so a read finds its
/// producer, or learns that it reads input data, with one lookup.
#[derive(Debug, Clone)]
pub(crate) struct WrittenCells {
    arrays: Vec<(BoxIndex, Vec<u32>)>,
    /// Per instance, the offset of its cell in its array's written box.
    offsets: Vec<usize>,
}

impl WrittenCells {
    /// No instance.
    const NONE: u32 = u32::MAX;

    /// The table of `p` at `params`.
    ///
    /// # Panics
    ///
    /// Panics where [`crate::exec::Instances::new`] fails.
    #[cfg(test)]
    pub(crate) fn new(p: &Program, params: &[i64]) -> Self {
        crate::exec::Instances::new(p, params)
            .expect("lowerable program")
            .written()
            .clone()
    }

    /// Builds the table from each statement's domain and its instances:
    /// statement `s` has instances `first[s]..first[s + 1]`, whose points
    /// `points[s]` holds flattened in that order.
    pub(crate) fn build(
        p: &Program,
        domains: &[Domain],
        first: &[u32],
        points: &[&[i64]],
    ) -> Result<Self, InterpError> {
        let mut arrays = Vec::with_capacity(p.arrays().len());
        let mut offsets = vec![0; first.last().map_or(0, |&n| n as usize)];
        for (aidx, array) in p.arrays().iter().enumerate() {
            let writers = p.writers_of(ArrayId(aidx));
            let mut bounds: Option<(Vec<i64>, Vec<i64>)> = None;
            for (lo, hi) in writers.iter().filter_map(|w| domains[w.0].bounds()) {
                let (blo, bhi) = bounds.get_or_insert_with(|| (lo.to_vec(), hi.to_vec()));
                for k in 0..lo.len() {
                    blo[k] = blo[k].min(lo[k]);
                    bhi[k] = bhi[k].max(hi[k]);
                }
            }
            let index = match bounds {
                Some((lo, hi)) => BoxIndex::new(lo, &hi)?,
                None => BoxIndex::empty(array.dim()),
            };
            let mut table = vec![Self::NONE; index.len()];
            for w in writers {
                let depth = p.statement(w).depth();
                for id in first[w.0]..first[w.0 + 1] {
                    let k = (id - first[w.0]) as usize;
                    let point = &points[w.0][k * depth..(k + 1) * depth];
                    let off = index.offset(point).expect("written box covers its writers");
                    if table[off] != Self::NONE {
                        return Err(InterpError::Unsupported(format!(
                            "cell {}{point:?} is written twice",
                            array.name()
                        )));
                    }
                    table[off] = id;
                    offsets[id as usize] = off;
                }
            }
            arrays.push((index, table));
        }
        Ok(WrittenCells { arrays, offsets })
    }

    /// The instance that writes `array`'s cell `index`, if any.
    pub(crate) fn producer(&self, array: ArrayId, index: &[i64]) -> Option<u32> {
        let (index_box, table) = &self.arrays[array.0];
        let id = table[index_box.offset(index)?];
        (id != Self::NONE).then_some(id)
    }

    /// Whether any writer of `array` covers `index` for the parameters
    /// the table was built at (i.e. the cell is produced by the program
    /// rather than input data).
    #[cfg(test)]
    pub(crate) fn contains(&self, array: ArrayId, index: &[i64]) -> bool {
        self.producer(array, index).is_some()
    }

    /// The number of cells in `array`'s written box.
    pub(crate) fn box_len(&self, array: ArrayId) -> usize {
        self.arrays[array.0].0.len()
    }

    /// The offset of instance `i`'s cell in its array's written box.
    pub(crate) fn offset_of(&self, i: u32) -> usize {
        self.offsets[i as usize]
    }
}

/// Fixes the parameter dimensions of a statement-space polyhedron,
/// returning a polyhedron over the iteration dimensions only.
#[cfg(test)]
pub(crate) fn fix_params(domain: &Polyhedron, depth: usize, params: &[i64]) -> Polyhedron {
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
