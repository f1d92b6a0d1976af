//! Convex polyhedra for the `aov` workspace.
//!
//! The linearization step of Thies et al. (PLDI 2001, §4.4) rests on
//! Theorem 1: an affine form is nonnegative on a polyhedron `D = P + C`
//! iff it is nonnegative on the vertices of the polytope `P` and its
//! linear part is nonnegative (resp. null) on the rays (resp. lines) of
//! the cone `C`. This crate supplies everything that theorem needs,
//! with one kernel per question:
//!
//! * [`Polyhedron`] — H-representation over named-free rational dims,
//!   with containment and intersection;
//! * the double description (Chernikova's method) decides every
//!   emptiness and face question: emptiness ([`Polyhedron::is_empty`]),
//!   which sign orthants a polyhedron meets
//!   ([`Polyhedron::meets_orthants`]), redundancy removal
//!   ([`Polyhedron::irredundant`]), and vertices, rays and lines
//!   ([`Polyhedron::generator_rows`]);
//! * Theorem 1's test on those generators —
//!   [`int::Generators::implies_nonneg`], whether a form is `>= 0` on
//!   the whole polyhedron;
//! * Fourier–Motzkin only projects ([`Polyhedron::eliminate_dims`]);
//! * [`param`] — vertices of a polytope whose right-hand sides depend
//!   affinely on symbolic parameters, each with the generators of its
//!   validity domain, read off the faces of one DD of the lifted
//!   polyhedron over iterations and parameters (Loechner–Wilde), needed
//!   when iteration-domain vertices depend on loop bounds or on the
//!   unknown occupancy vector.
//!
//! The crate solves no LP: callers that need one (implication, extrema)
//! build it from a polyhedron's rows with `aov_lp::Model::over_rows`,
//! and the crate's tests hold the DD's verdicts to those LPs.
//!
//! The DD, Fourier–Motzkin and vertex kernels compute on primitive
//! integer rows of [`BigInt`](aov_numeric::BigInt) ([`int`]); values
//! become rationals only where they leave the crate as constraints or
//! parameter-affine vertex coordinates. Generators leave it as integer
//! rows ([`int::Generators`]): a polyhedron's, and each parameterized
//! vertex's validity domain's, the form the linearization of
//! `aov-schedule` consumes.
//!
//! # Examples
//!
//! ```
//! use aov_polyhedra::{Constraint, Polyhedron};
//! use aov_linalg::{AffineExpr, QVector};
//!
//! // The triangle 0 <= x, 0 <= y, x + y <= 3.
//! let tri = Polyhedron::from_constraints(2, vec![
//!     Constraint::ge0(AffineExpr::from_i64(&[1, 0], 0)),
//!     Constraint::ge0(AffineExpr::from_i64(&[0, 1], 0)),
//!     Constraint::ge0(AffineExpr::from_i64(&[-1, -1], 3)),
//! ]);
//! let gens = tri.generator_rows();
//! assert_eq!(gens.vertices.len(), 3);
//! assert!(gens.rays.is_empty() && gens.lines.is_empty());
//! // Theorem 1: x + y <= 3 holds at every vertex, x <= 2 does not.
//! assert!(gens.implies_nonneg(&AffineExpr::from_i64(&[-1, -1], 3)));
//! assert!(!gens.implies_nonneg(&AffineExpr::from_i64(&[-1, 0], 2)));
//! assert!(tri.contains(&QVector::from_i64(&[1, 1])));
//! assert!(!tri.contains(&QVector::from_i64(&[3, 1])));
//! ```

mod bits;
mod constraint;
mod dd;
mod fm;
#[cfg(test)]
mod forms_reference;
pub mod int;
pub mod param;
mod polyhedron;

pub use constraint::{Constraint, ConstraintKind};
#[cfg(test)]
use dd::GeneratorSet;
pub use polyhedron::Polyhedron;

/// Errors from polyhedral computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyhedraError {
    /// The eliminated sub-polytope is unbounded for some parameter values,
    /// so vertex evaluation (Theorem 1) does not apply.
    UnboundedDirection,
    /// A candidate basis system was singular (internal invariant).
    SingularBasis,
}

impl std::fmt::Display for PolyhedraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolyhedraError::UnboundedDirection => {
                write!(f, "polytope is unbounded in an eliminated direction")
            }
            PolyhedraError::SingularBasis => write!(f, "singular candidate basis"),
        }
    }
}

impl std::error::Error for PolyhedraError {}
