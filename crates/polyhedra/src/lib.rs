//! Convex polyhedra for the `aov` workspace.
//!
//! The linearization step of Thies et al. (PLDI 2001, §4.4) rests on
//! Theorem 1: an affine form is nonnegative on a polyhedron `D = P + C`
//! iff it is nonnegative on the vertices of the polytope `P` and its
//! linear part is nonnegative (resp. null) on the rays (resp. lines) of
//! the cone `C`. This crate supplies everything that theorem needs:
//!
//! * [`Polyhedron`] — H-representation over named-free rational dims,
//!   with emptiness ([`Polyhedron::is_empty`]) and redundancy removal
//!   ([`Polyhedron::irredundant`]), each read off one DD, containment
//!   and intersection,
//! * [`GeneratorSet`] / [`Polyhedron::generators`] — vertices, rays and
//!   lines via Chernikova's double-description method,
//! * [`Polyhedron::eliminate_dims`] — Fourier–Motzkin projection,
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
//! become rationals only where they leave the crate. Parameterized
//! vertices leave it as integer numerators over one denominator, with
//! their validity domains' generators as integer rows
//! ([`int::Generators`]), the form the linearization of `aov-schedule`
//! consumes.
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
//! let gens = tri.generators();
//! assert_eq!(gens.vertices.len(), 3);
//! assert!(gens.rays.is_empty() && gens.lines.is_empty());
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
pub use dd::GeneratorSet;
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
