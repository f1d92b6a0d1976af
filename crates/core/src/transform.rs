//! The occupancy-vector storage transformation (§3.2, Strout et al.).
//!
//! Transforming array `A` under `v` projects its data space onto the
//! hyperplane perpendicular to `v`: complete `v` to a unimodular basis
//! `U` with `U·v = (g, 0, …, 0)ᵀ`, `g = gcd(v)`; the new cell of `x` is
//! `(rows 1… of U·x, (row 0 of U·x) mod g)` — the modulation coordinate
//! appears only when `v` crosses `g > 1` lattice points. Offsets make
//! every coordinate nonnegative (the paper's "+m" in `A[2i−j+m]`), and
//! extents give the transformed array size (e.g. `n·m → 2n+m` for
//! Example 1).
//!
//! Offsets and extents come from a parameter-uniform min and max of each
//! coordinate over the writers' parameterized vertices: each writer
//! domain is enumerated once per transform, and "`o − c >= 0` on the
//! parameter domain" is decided at that domain's generators (Theorem 1),
//! with no LP.

use crate::{CoreError, OccupancyVector};
use aov_ir::{ArrayId, Program};
use aov_linalg::{lattice, AffineExpr};
use aov_numeric::Rational;
use aov_polyhedra::param;

/// A computed storage mapping for one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageTransform {
    array: ArrayId,
    array_name: String,
    ov: OccupancyVector,
    modulation: i64,
    /// Projected coordinates with offsets: affine over (data dims ++
    /// params), always nonnegative on the data space.
    coords: Vec<AffineExpr>,
    /// `row0 · x` (taken mod `modulation`), present when `modulation > 1`.
    mod_coord: Option<AffineExpr>,
    /// Extent (max − min + 1) per projected coordinate, affine over the
    /// parameters.
    extents: Vec<AffineExpr>,
    /// Original per-dimension extents (for size comparison).
    original_extents: Vec<AffineExpr>,
}

impl StorageTransform {
    /// Computes the transformation of `array` under `ov`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidProgram`] — zero vector or dimension
    ///   mismatch.
    /// * [`CoreError::Unsupported`] — the data space has no
    ///   parameter-uniform bounding box (offsets/extents would differ
    ///   across parameter regions).
    pub fn new(p: &Program, array: ArrayId, ov: &OccupancyVector) -> Result<Self, CoreError> {
        let gens = p.param_domain().generator_rows();
        Self::build(p, array, ov, |e| gens.implies_nonneg(e))
    }

    /// The transformation, with `nonneg(e)` deciding whether the
    /// parameter-affine `e` is `>= 0` on the whole parameter domain.
    fn build(
        p: &Program,
        array: ArrayId,
        ov: &OccupancyVector,
        nonneg: impl Fn(&AffineExpr) -> bool,
    ) -> Result<Self, CoreError> {
        let arr = p.array(array);
        if ov.dim() != arr.dim() {
            return Err(CoreError::InvalidProgram(format!(
                "vector dimension {} vs array {} dimension {}",
                ov.dim(),
                arr.name(),
                arr.dim()
            )));
        }
        if ov.is_zero() {
            return Err(CoreError::InvalidProgram(
                "zero occupancy vector has no projection direction".into(),
            ));
        }
        let g = lattice::gcd_vec(ov.components());
        let u = lattice::unimodular_completion(ov.components());
        let d = arr.dim();
        let np = p.num_params();

        // Row expressions over (x ++ params).
        let row_expr = |row: &[i64]| -> AffineExpr {
            let mut coeffs = vec![Rational::zero(); d + np];
            for (k, &c) in row.iter().enumerate() {
                coeffs[k] = c.into();
            }
            AffineExpr::from_parts(coeffs.into_iter().collect(), Rational::zero())
        };

        // Data space = union of writer domains; compute a symbolic
        // min/max of each projected row over every writer's vertices.
        let mut vertices = Vec::new();
        for w in p.writers_of(array) {
            let st = p.statement(w);
            let vxs = param::parameterized_vertices(st.domain(), st.depth(), p.param_domain())?;
            vertices.extend(vxs.iter().map(param::ParamVertex::coords));
        }
        let range = |e: &AffineExpr| symbolic_range(&vertices, np, e, &nonneg);
        let mut coords = Vec::with_capacity(d - 1);
        let mut extents = Vec::with_capacity(d - 1);
        for row in u.iter().skip(1) {
            let e = row_expr(row);
            let (min, max) = range(&e)?;
            coords.push(&e - &embed_params(&min, d, np));
            extents.push(&(&max - &min) + &AffineExpr::constant(np, 1.into()));
        }
        let mut original_extents = Vec::with_capacity(d);
        for k in 0..d {
            let e = AffineExpr::var(d + np, k);
            let (min, max) = range(&e)?;
            original_extents.push(&(&max - &min) + &AffineExpr::constant(np, 1.into()));
        }
        let mod_coord = (g > 1).then(|| row_expr(&u[0]));
        Ok(StorageTransform {
            array,
            array_name: arr.name().to_string(),
            ov: ov.clone(),
            modulation: g,
            coords,
            mod_coord,
            extents,
            original_extents,
        })
    }

    /// The transformed array id.
    pub fn array(&self) -> ArrayId {
        self.array
    }

    /// The occupancy vector used.
    pub fn ov(&self) -> &OccupancyVector {
        &self.ov
    }

    /// The modulation factor `g = gcd(v)` (1 means no modulation).
    pub fn modulation(&self) -> i64 {
        self.modulation
    }

    /// Projected coordinate expressions (over data dims ++ params),
    /// offset to be nonnegative.
    pub fn coords(&self) -> &[AffineExpr] {
        &self.coords
    }

    /// The modulation coordinate expression, when `modulation > 1`.
    pub fn mod_coord(&self) -> Option<&AffineExpr> {
        self.mod_coord.as_ref()
    }

    /// Number of transformed dimensions (projected + modulation).
    pub fn transformed_dim(&self) -> usize {
        self.coords.len() + usize::from(self.modulation > 1)
    }

    /// Maps a concrete data-space point to its transformed cell.
    pub fn map_point(&self, x: &[i64], params: &[i64]) -> Vec<i64> {
        let point: Vec<i64> = x.iter().chain(params).copied().collect();
        let mut out: Vec<i64> = self
            .coords
            .iter()
            .map(|c| {
                c.eval_i64(&point)
                    .to_i64()
                    .expect("integer transform of integer point")
            })
            .collect();
        if let Some(mc) = &self.mod_coord {
            let raw = mc.eval_i64(&point).to_i64().expect("integer mod coord");
            out.push(raw.rem_euclid(self.modulation));
        }
        out
    }

    /// Substitutes access-index expressions (over some statement space)
    /// into the transformed coordinates, yielding transformed index
    /// expressions over that statement space. The modulation coordinate
    /// (if any) is returned last and must be taken `mod` the modulation
    /// factor by the consumer.
    pub fn map_access(&self, index: &[AffineExpr], num_params: usize) -> Vec<AffineExpr> {
        let stmt_dim = index.first().map_or(num_params, AffineExpr::dim);
        let mut subs: Vec<AffineExpr> = index.to_vec();
        for j in 0..num_params {
            subs.push(AffineExpr::var(stmt_dim, stmt_dim - num_params + j));
        }
        let mut out: Vec<AffineExpr> = self.coords.iter().map(|c| c.substitute(&subs)).collect();
        if let Some(mc) = &self.mod_coord {
            out.push(mc.substitute(&subs));
        }
        out
    }

    /// Transformed total size for concrete parameters (product of
    /// extents, times the modulation factor).
    pub fn transformed_size(&self, params: &[i64]) -> i64 {
        let mut acc = self.modulation.max(1);
        for e in &self.extents {
            acc *= e.eval_i64(params).to_i64().expect("integer extent").max(0);
        }
        acc
    }

    /// Original total size for concrete parameters.
    pub fn original_size(&self, params: &[i64]) -> i64 {
        let mut acc = 1i64;
        for e in &self.original_extents {
            acc *= e.eval_i64(params).to_i64().expect("integer extent").max(0);
        }
        acc
    }

    /// Extent expressions (affine over parameters) of the transformed
    /// dimensions, modulation last.
    pub fn extent_exprs(&self) -> Vec<AffineExpr> {
        let mut out = self.extents.clone();
        if self.modulation > 1 {
            let np = out.first().map_or(0, AffineExpr::dim);
            out.push(AffineExpr::constant(np, self.modulation.into()));
        }
        out
    }

    /// Array name.
    pub fn array_name(&self) -> &str {
        &self.array_name
    }
}

/// Lifts a parameter-space expression into (data dims ++ params).
fn embed_params(e: &AffineExpr, d: usize, np: usize) -> AffineExpr {
    let map: Vec<usize> = (d..d + np).collect();
    e.embed(d + np, &map)
}

/// Symbolic (parameter-affine) min and max of `e` (over data dims ++
/// params) across the data space's vertices (`coords` over the `np`
/// parameters): the first vertex value that every other one stays above
/// (below) on the whole parameter domain, by `nonneg`.
fn symbolic_range(
    vertices: &[Vec<AffineExpr>],
    np: usize,
    e: &AffineExpr,
    nonneg: impl Fn(&AffineExpr) -> bool,
) -> Result<(AffineExpr, AffineExpr), CoreError> {
    let mut candidates: Vec<AffineExpr> = Vec::new();
    for coords in vertices {
        // e at (Γ(N), N): substitute data dims by vertex coords.
        let mut subs = coords.clone();
        subs.extend((0..np).map(|j| AffineExpr::var(np, j)));
        let val = e.substitute(&subs);
        if !candidates.contains(&val) {
            candidates.push(val);
        }
    }
    if candidates.is_empty() {
        return Err(CoreError::Unsupported(
            "empty data space for transformed array".into(),
        ));
    }
    let minimum = candidates
        .iter()
        .find(|c| candidates.iter().all(|o| nonneg(&(o - *c))))
        .cloned()
        .ok_or_else(|| {
            CoreError::Unsupported("no parameter-uniform minimum for storage offset".into())
        })?;
    let maximum = candidates
        .iter()
        .find(|c| candidates.iter().all(|o| nonneg(&(&**c - o))))
        .cloned()
        .ok_or_else(|| {
            CoreError::Unsupported("no parameter-uniform maximum for storage extent".into())
        })?;
    Ok((minimum, maximum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples::{example1, example2, example3};

    /// §5.1.4 / Figure 6: Example 1 under AOV (1,2) maps A[i][j] to a
    /// 1-d array indexed by 2i − j (+ offset), size 2n + m − 2.
    #[test]
    fn example1_aov_transform() {
        let p = example1();
        let a = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![1, 2])).unwrap();
        assert_eq!(t.modulation(), 1);
        assert_eq!(t.transformed_dim(), 1);
        // Storage shrinks from n·m to 2n + m − 2 (paper: "2n + m").
        let (n, m) = (10i64, 20i64);
        assert_eq!(t.original_size(&[n, m]), n * m);
        assert_eq!(t.transformed_size(&[n, m]), 2 * n + m - 2);
        // Points x and x + k·(1,2) collide; non-multiples do not.
        let params = [n, m];
        let base = t.map_point(&[3, 4], &params);
        assert_eq!(t.map_point(&[4, 6], &params), base);
        assert_eq!(t.map_point(&[5, 8], &params), base);
        assert_ne!(t.map_point(&[4, 4], &params), base);
        assert_ne!(t.map_point(&[3, 5], &params), base);
        // Coordinates stay within [0, size).
        for i in 1..=n {
            for j in 1..=m {
                let c = t.map_point(&[i, j], &params);
                assert!(c[0] >= 0 && c[0] < t.transformed_size(&params));
            }
        }
    }

    /// Figure 4's vector (0,2) needs modulation: gcd = 2.
    #[test]
    fn modulation_for_non_primitive_vector() {
        let p = example1();
        let a = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![0, 2])).unwrap();
        assert_eq!(t.modulation(), 2);
        assert_eq!(t.transformed_dim(), 2);
        let params = [8, 8];
        // (i, j) and (i, j+2) collide; (i, j+1) differs in the mod coord.
        assert_eq!(t.map_point(&[3, 4], &params), t.map_point(&[3, 6], &params));
        assert_ne!(t.map_point(&[3, 4], &params), t.map_point(&[3, 5], &params));
        // Size: n rows × 2 modulation slots.
        assert_eq!(t.transformed_size(&params), 8 * 2);
    }

    /// Figure 9: Example 2's arrays under (1,1) collapse to i − j.
    #[test]
    fn example2_transform() {
        let p = example2();
        for name in ["A", "B"] {
            let a = p.array_by_name(name).unwrap();
            let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![1, 1])).unwrap();
            let (n, m) = (6i64, 9i64);
            assert_eq!(t.transformed_size(&[n, m]), n + m - 1);
            let base = t.map_point(&[2, 3], &[n, m]);
            assert_eq!(t.map_point(&[3, 4], &[n, m]), base);
            assert_ne!(t.map_point(&[3, 3], &[n, m]), base);
        }
    }

    /// Figure 11: Example 3 under (1,1,1) becomes 2-d with extents
    /// (imax + jmax − 1) × (imax + kmax − 1).
    #[test]
    fn example3_transform() {
        let p = example3();
        let d = p.array_by_name("D").unwrap();
        let t = StorageTransform::new(&p, d, &OccupancyVector::new(vec![1, 1, 1])).unwrap();
        assert_eq!(t.transformed_dim(), 2);
        let (x, y, z) = (5i64, 6, 7);
        assert_eq!(t.original_size(&[x, y, z]), x * y * z);
        // The paper's basis gives (imax+jmax-1)(imax+kmax-1) = 110; our
        // unimodular completion may pick a different (equally valid)
        // basis with a slightly different bounding box. The collapse
        // from 3-d to 2-d is what matters.
        let size = t.transformed_size(&[x, y, z]);
        assert!(size < x * y * z, "storage must shrink, got {size}");
        assert!(
            size >= (x + y - 1) * (x + z - 1).min(x + y - 1),
            "sane extent"
        );
        let base = t.map_point(&[2, 3, 4], &[x, y, z]);
        assert_eq!(t.map_point(&[3, 4, 5], &[x, y, z]), base);
        assert_ne!(t.map_point(&[3, 4, 4], &[x, y, z]), base);
    }

    /// Oracle for deciding offsets and extents without an LP: on ex1–4
    /// and every corpus program, the transform of each array under its
    /// AOV equals, field by field, the one whose min and max are chosen
    /// by implication LPs over the parameter domain (or both fail alike).
    #[test]
    fn generator_test_matches_implication_lps() {
        let (mut compared, mut built) = (0, 0);
        for p in crate::oracle_corpus() {
            let Ok(aov) = crate::problems::aov_with(&p, 1) else {
                continue;
            };
            for (aidx, v) in aov.vectors().iter().enumerate() {
                let a = ArrayId(aidx);
                let params = crate::check::lp_model(p.param_domain());
                let by_lp = StorageTransform::build(&p, a, v, |e| params.implies_nonneg(e));
                match (StorageTransform::new(&p, a, v), by_lp) {
                    (Ok(t), Ok(lp)) => {
                        assert_eq!(t, lp, "{} array {aidx}", p.name());
                        built += 1;
                    }
                    (t, lp) => assert_eq!(
                        t.err().map(|e| e.to_string()),
                        lp.err().map(|e| e.to_string()),
                        "{} array {aidx}",
                        p.name()
                    ),
                }
                compared += 1;
            }
        }
        assert!(
            compared >= 260 && built > 0,
            "{compared} transforms compared, {built} built"
        );
    }

    #[test]
    fn zero_vector_rejected() {
        let p = example1();
        let a = p.array_by_name("A").unwrap();
        assert!(matches!(
            StorageTransform::new(&p, a, &OccupancyVector::new(vec![0, 0])),
            Err(CoreError::InvalidProgram(_))
        ));
    }

    #[test]
    fn map_access_substitution() {
        let p = example1();
        let a = p.array_by_name("A").unwrap();
        let t = StorageTransform::new(&p, a, &OccupancyVector::new(vec![1, 2])).unwrap();
        // Access A[i-2][j-1] from the statement space (i, j, n, m).
        let idx = vec![
            AffineExpr::from_i64(&[1, 0, 0, 0], -2),
            AffineExpr::from_i64(&[0, 1, 0, 0], -1),
        ];
        let mapped = t.map_access(&idx, 2);
        assert_eq!(mapped.len(), 1);
        // Must equal coords evaluated at (i-2, j-1): check numerically.
        let direct = t.map_point(&[5 - 2, 7 - 1], &[10, 20]);
        let via_access = mapped[0].eval_i64(&[5, 7, 10, 20]).to_i64().unwrap();
        assert_eq!(via_access, direct[0]);
    }
}
