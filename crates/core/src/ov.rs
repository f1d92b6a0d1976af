//! Occupancy vectors, and (for the test oracles) the joint per-array
//! coordinate space.

#[cfg(test)]
use aov_ir::{ArrayId, Program};
#[cfg(test)]
use aov_linalg::VarSet;
use std::fmt;

/// An integer occupancy vector for one array (§3.2 of the paper).
///
/// Transforming the array under `v` maps data-space points `x` and
/// `x + k·v` (k ∈ ℤ) to the same storage cell.
///
/// # Examples
///
/// ```
/// use aov_core::OccupancyVector;
///
/// let v = OccupancyVector::new(vec![1, 2]);
/// assert_eq!(v.components(), [1, 2]);
/// assert_eq!(v.manhattan(), 3);
/// assert_eq!(v.to_string(), "(1, 2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OccupancyVector {
    components: Vec<i64>,
}

impl OccupancyVector {
    /// Builds from components.
    pub fn new(components: Vec<i64>) -> Self {
        OccupancyVector { components }
    }

    /// The components.
    pub fn components(&self) -> &[i64] {
        &self.components
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// Whether all components are zero (never a useful OV).
    pub fn is_zero(&self) -> bool {
        self.components.iter().all(|&c| c == 0)
    }

    /// Manhattan length `Σ|v_k|` — the paper's primary objective.
    pub fn manhattan(&self) -> i64 {
        self.components.iter().map(|c| c.abs()).sum()
    }

    /// Squared Euclidean length (reporting only).
    pub fn euclidean_sq(&self) -> i64 {
        self.components.iter().map(|c| c * c).sum()
    }
}

impl fmt::Display for OccupancyVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.len() == 1 {
            return write!(f, "{}", self.components[0]);
        }
        write!(f, "(")?;
        for (k, c) in self.components.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// The joint coordinate space of all arrays' occupancy-vector components,
/// one array-contiguous slice per array in array order: the unknowns of
/// the joint search the test oracles keep. The solvers search each
/// array's own components.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct OvSpace {
    offsets: Vec<usize>,
    dims: Vec<usize>,
    total: usize,
    vars: VarSet,
}

#[cfg(test)]
impl OvSpace {
    /// Builds the space for a program (one slice per array, in array
    /// order).
    pub fn new(p: &Program) -> Self {
        let mut offsets = Vec::new();
        let mut dims = Vec::new();
        let mut vars = VarSet::new();
        let mut total = 0usize;
        for a in p.arrays() {
            offsets.push(total);
            dims.push(a.dim());
            for k in 0..a.dim() {
                vars.add(format!("v_{}_{}", a.name(), k));
            }
            total += a.dim();
        }
        OvSpace {
            offsets,
            dims,
            total,
            vars,
        }
    }

    /// Total dimension (sum of array dims).
    pub fn dim(&self) -> usize {
        self.total
    }

    /// Index of component `k` of `array`'s vector.
    pub fn component(&self, array: ArrayId, k: usize) -> usize {
        assert!(k < self.dims[array.0], "component out of range");
        self.offsets[array.0] + k
    }

    /// Named variables (for LP display).
    pub fn vars(&self) -> &VarSet {
        &self.vars
    }

    /// Splits a joint integer point into per-array vectors.
    pub fn split(&self, point: &[i64]) -> Vec<OccupancyVector> {
        assert_eq!(point.len(), self.total, "joint point dimension");
        self.offsets
            .iter()
            .zip(&self.dims)
            .map(|(&off, &d)| OccupancyVector::new(point[off..off + d].to_vec()))
            .collect()
    }

    /// Concatenates per-array vectors into a joint point.
    pub fn join(&self, vectors: &[OccupancyVector]) -> Vec<i64> {
        assert_eq!(vectors.len(), self.offsets.len(), "one vector per array");
        let mut out = Vec::with_capacity(self.total);
        for (v, &d) in vectors.iter().zip(&self.dims) {
            assert_eq!(v.dim(), d, "vector dimension mismatch");
            out.extend_from_slice(v.components());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples::{example2, example4};
    use aov_ir::ArrayId;

    #[test]
    fn vector_basics() {
        let v = OccupancyVector::new(vec![0, -2, 1]);
        assert_eq!(v.manhattan(), 3);
        assert_eq!(v.euclidean_sq(), 5);
        assert!(!v.is_zero());
        assert!(OccupancyVector::new(vec![0, 0]).is_zero());
        assert_eq!(OccupancyVector::new(vec![5]).to_string(), "5");
        assert_eq!(v.to_string(), "(0, -2, 1)");
    }

    #[test]
    fn space_layout_example2() {
        let p = example2();
        let s = OvSpace::new(&p);
        assert_eq!(s.dim(), 4);
        assert_eq!(s.component(ArrayId(0), 1), 1);
        assert_eq!(s.component(ArrayId(1), 0), 2);
        assert_eq!(s.vars().name(3), "v_B_1");
    }

    #[test]
    fn split_join_roundtrip() {
        let p = example4();
        let s = OvSpace::new(&p);
        let joint = vec![1, 1, 1];
        let parts = s.split(&joint);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].components(), [1, 1]);
        assert_eq!(parts[1].components(), [1]);
        assert_eq!(s.join(&parts), joint);
    }
}
