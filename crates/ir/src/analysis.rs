//! Value-based dependence analysis.
//!
//! For the paper's program class (single assignment, data space =
//! iteration space) the producer of a read `A[g(i, N)]` is exactly the
//! writer statement `T` of `A` whose domain contains `g(i, N)` — so the
//! dependences `(R, T, h, P)` of §4.1 are computed by intersecting access
//! relations with writer domains. This matches what a full array
//! dataflow analysis (Feautrier [6], the Omega test [15]) produces on
//! this class.

use crate::{Program, StmtId};
use aov_linalg::AffineExpr;
use aov_polyhedra::{Constraint, Polyhedron};

/// A flow dependence: `target(i)` reads the value produced by
/// `source(h(i, N))`, for every `i` in `domain`.
///
/// This is the paper's 4-tuple `P_j = (R_j, T_j, P_j, h_j)` with
/// `target = R`, `source = T`.
#[derive(Debug, Clone)]
pub struct Dependence {
    /// Producer statement `T`.
    pub source: StmtId,
    /// Consumer statement `R`.
    pub target: StmtId,
    /// Iteration of `T` read by `R(i)`: one affine expression per source
    /// loop dimension, over the target space (iters ++ params).
    pub h: Vec<AffineExpr>,
    /// Subset of the target's iteration space where the dependence is
    /// active (over target iters ++ params).
    pub domain: Polyhedron,
    /// Which read access of `target` induces the dependence.
    pub access: usize,
}

impl Dependence {
    /// `true` when source and target have equal depth and `h` is a
    /// constant-distance translation `h(i) = i - d`; returns `d`.
    pub fn uniform_distance(&self) -> Option<Vec<i64>> {
        let dim = self.h.first()?.dim();
        let depth = self.h.len();
        let mut dist = Vec::with_capacity(depth);
        for (k, e) in self.h.iter().enumerate() {
            // Expect e = i_k + c.
            for (j, c) in e.coeffs().iter().enumerate() {
                let expect = if j == k {
                    aov_numeric::Rational::one()
                } else {
                    aov_numeric::Rational::zero()
                };
                if *c != expect {
                    return None;
                }
            }
            if !e.constant_term().is_integer() {
                return None;
            }
            dist.push(-(e.constant_term().to_i64()?));
            let _ = dim;
        }
        Some(dist)
    }
}

/// Computes all flow dependences of the program: the [`candidates`]
/// whose joint domain is nonempty.
pub fn dependences(p: &Program) -> Vec<Dependence> {
    candidates(p)
        .into_iter()
        .filter(|(_, joint)| !joint.is_empty())
        .map(|(dep, _)| dep)
        .collect()
}

/// For each read access `A[g(i, N)]` of a statement `R` and each writer
/// `T` of `A`, the dependence with `domain = D_R ∩ {i | g(i, N) ∈ D_T}`,
/// paired with its joint domain: `domain` within the parameter domain.
pub fn candidates(p: &Program) -> Vec<(Dependence, Polyhedron)> {
    let mut out = Vec::new();
    for target in p.stmt_ids() {
        let r = p.statement(target);
        let r_dim = r.depth() + p.num_params();
        for (acc_idx, acc) in r.reads().iter().enumerate() {
            for source in p.writers_of(acc.array()) {
                let t = p.statement(source);
                // Substitution mapping the source space (t_iters ++ params)
                // into the target space: t_iter_k -> g_k, param_j -> param_j.
                let mut subs: Vec<AffineExpr> = acc.index().to_vec();
                for j in 0..p.num_params() {
                    subs.push(AffineExpr::var(r_dim, r.depth() + j));
                }
                let mut domain = r.domain().clone();
                for c in t.domain().constraints() {
                    let e = c.expr().substitute(&subs);
                    domain.add_constraint(if c.is_equality() {
                        Constraint::eq0(e)
                    } else {
                        Constraint::ge0(e)
                    });
                }
                let joint = domain.intersect(&p.embed_param_domain(r.depth()));
                let dep = Dependence {
                    source,
                    target,
                    h: acc.index().to_vec(),
                    domain,
                    access: acc_idx,
                };
                out.push((dep, joint));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{example1, example2, example3, example4};

    #[test]
    fn example1_has_three_uniform_self_dependences() {
        let p = example1();
        let deps = dependences(&p);
        assert_eq!(deps.len(), 3);
        let mut dists: Vec<Vec<i64>> = deps
            .iter()
            .map(|d| {
                assert_eq!(d.source, d.target);
                d.uniform_distance().expect("stencil deps are uniform")
            })
            .collect();
        dists.sort();
        // h1 = (i-2, j-1), h2 = (i, j-1), h3 = (i+1, j-1): distances
        // d = i - h(i).
        assert_eq!(dists, vec![vec![-1, 1], vec![0, 1], vec![2, 1]]);
    }

    #[test]
    fn example2_cross_statement_dependences() {
        let p = example2();
        let deps = dependences(&p);
        assert_eq!(deps.len(), 2);
        let s1 = p.stmt_by_name("S1").unwrap();
        let s2 = p.stmt_by_name("S2").unwrap();
        // S1 reads B[i-1][j] produced by S2; S2 reads A[i][j-1] from S1.
        assert!(deps
            .iter()
            .any(|d| d.target == s1 && d.source == s2 && d.uniform_distance() == Some(vec![1, 0])));
        assert!(deps
            .iter()
            .any(|d| d.target == s2 && d.source == s1 && d.uniform_distance() == Some(vec![0, 1])));
    }

    #[test]
    fn example3_dependences_split_by_writer() {
        let p = example3();
        let deps = dependences(&p);
        let s2 = p.stmt_by_name("S2").unwrap();
        // All 7 interior (S2 -> S2) dependences must be present.
        let from_s2 = deps
            .iter()
            .filter(|d| d.target == s2 && d.source == s2)
            .count();
        assert_eq!(from_s2, 7);
        // Boundary dependences: a read with offset o can come from the
        // i==1 plane only when o_i == -1 (4 of 7 offsets), and likewise
        // for j and k: 4 + 4 + 4 = 12.
        for name in ["S1a", "S1b", "S1c"] {
            let sb = p.stmt_by_name(name).unwrap();
            let cnt = deps
                .iter()
                .filter(|d| d.target == s2 && d.source == sb)
                .count();
            assert_eq!(cnt, 4, "boundary deps from {name}");
            // Boundary statements have no reads.
            assert!(deps.iter().all(|d| d.target != sb));
        }
        assert_eq!(deps.len(), 19);
    }

    #[test]
    fn example4_non_uniform_dependence() {
        let p = example4();
        let deps = dependences(&p);
        assert_eq!(deps.len(), 2);
        let s2 = p.stmt_by_name("S2").unwrap();
        // S2 reads A[i][n-i]: h = (i, n-i), not uniform.
        let d = deps.iter().find(|d| d.target == s2).unwrap();
        assert!(d.uniform_distance().is_none());
    }

    #[test]
    fn inactive_dependences_are_pruned() {
        // A read whose producer domain can never contain the index.
        use crate::{Expr, ProgramBuilder};
        let mut b = ProgramBuilder::new("pruned");
        let n = b.param_min("n", 1);
        let a = b.array("A", 1);
        let bb = b.array("B", 1);
        let mut s1 = b.statement("S1", &["i"]);
        s1.bound(0, s1.constant(1), s1.param(n));
        s1.writes(a);
        s1.body(Expr::Const(1));
        b.add_statement(s1);
        let mut s2 = b.statement("S2", &["i"]);
        s2.bound(0, s2.constant(1), s2.param(n));
        s2.writes(bb);
        // reads A[i + n]: outside A's domain [1, n] whenever i >= 1.
        let idx = &s2.iter(0) + &s2.param(n);
        let r = s2.read(a, vec![idx]);
        s2.body(Expr::call("f", vec![Expr::Read(r)]));
        b.add_statement(s2);
        let p = b.build().unwrap();
        assert!(dependences(&p).is_empty());
    }
}
