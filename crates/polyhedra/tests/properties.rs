//! Property tests for the polyhedral substrate: the double-description
//! generators, emptiness, Fourier–Motzkin projection and the DD
//! redundancy reduction agree with brute-force or LP ground truth on
//! random systems.

use aov_core::check::lp_model;
use aov_linalg::{AffineExpr, QVector};
use aov_numeric::Rational;
use aov_polyhedra::int::{Generators, Row};
use aov_polyhedra::{Constraint, Polyhedron};
use aov_support::{props, Rng};

/// A random polytope: a box `[-4, 4]^d` intersected with random cuts
/// (always bounded, possibly empty).
fn boxed_polytope(g: &mut Rng, d: usize) -> Polyhedron {
    let mut cs = Vec::new();
    for k in 0..d {
        let mut lo = vec![0i64; d];
        lo[k] = 1;
        cs.push(Constraint::ge0(AffineExpr::from_i64(&lo, 4)));
        let mut hi = vec![0i64; d];
        hi[k] = -1;
        cs.push(Constraint::ge0(AffineExpr::from_i64(&hi, 4)));
    }
    for _ in 0..g.usize_in(0, 4) {
        let coeffs = g.vec_i64(-3, 3, d);
        let c = g.i64_in(-5, 6);
        cs.push(Constraint::ge0(AffineExpr::from_i64(&coeffs, c)));
    }
    Polyhedron::from_constraints(d, cs)
}

/// A random system in 2 or 3 dimensions: a box half the time, random
/// cuts (often several on one facet or through one vertex), and an
/// equality now and then; bounded or not, possibly empty.
fn random_system(g: &mut Rng) -> Polyhedron {
    let d = g.usize_in(2, 3);
    let mut p = if g.u64_below(2) == 0 {
        boxed_polytope(g, d)
    } else {
        Polyhedron::universe(d)
    };
    for _ in 0..g.usize_in(1, 6) {
        let e = AffineExpr::from_i64(&g.vec_i64(-2, 2, d), g.i64_in(-3, 3));
        let c = if g.u64_below(6) == 0 {
            Constraint::eq0(e)
        } else {
            Constraint::ge0(e)
        };
        p.add_constraint(c);
    }
    p
}

/// Whether `c` holds everywhere on `p` (exact LP).
fn implied(p: &Polyhedron, c: &Constraint) -> bool {
    let m = lp_model(p);
    m.implies_nonneg(c.expr()) && (!c.is_equality() || m.implies_nonneg(&-c.expr()))
}

/// Whether `p` is empty, as a phase-1 LP sees it.
fn empty_by_lp(p: &Polyhedron) -> bool {
    lp_model(p).is_infeasible()
}

/// The DD's vertex rows `(λ, λ·x)` as the points `x`.
fn vertices(gens: &Generators) -> Vec<QVector> {
    let point = |v: &Row| -> QVector {
        v[1..]
            .iter()
            .map(|x| Rational::from_big(x.clone(), v[0].clone()))
            .collect()
    };
    gens.vertices.iter().map(point).collect()
}

/// Ray or line rows `(0, r)` as the directions `r`.
fn directions(rows: &[Row]) -> Vec<QVector> {
    let direction = |r: &Row| -> QVector { r[1..].iter().cloned().map(Rational::from).collect() };
    rows.iter().map(direction).collect()
}

fn sorted(vs: &[QVector]) -> Vec<String> {
    let mut out: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
    out.sort();
    out
}

fn integer_points(p: &Polyhedron, d: usize) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut cur = vec![-4i64; d];
    loop {
        if p.contains(&QVector::from_i64(&cur)) {
            out.push(cur.clone());
        }
        let mut k = d;
        loop {
            if k == 0 {
                return out;
            }
            k -= 1;
            if cur[k] < 4 {
                cur[k] += 1;
                for c in cur.iter_mut().skip(k + 1) {
                    *c = -4;
                }
                break;
            }
        }
    }
}

props! {
    #![cases = 48, seed = 0xDD17_0B2E]

    /// Every DD vertex satisfies all constraints, and emptiness agrees
    /// with the LP test.
    fn dd_vertices_feasible_and_emptiness_agrees(g) {
        let p = boxed_polytope(g, 2);
        let gens = p.generator_rows();
        assert!(gens.rays.is_empty() && gens.lines.is_empty(), "boxed polytopes have no rays");
        assert_eq!(gens.is_empty(), empty_by_lp(&p));
        assert_eq!(p.is_empty(), empty_by_lp(&p));
        for v in &vertices(&gens) {
            assert!(p.contains(v), "vertex {v:?} infeasible");
        }
    }

    /// Every integer point is a convex combination certificate: it
    /// cannot be outside the bounding box of the vertices.
    fn dd_vertices_bound_integer_points(g) {
        let p = boxed_polytope(g, 2);
        let points = vertices(&p.generator_rows());
        for pt in integer_points(&p, 2) {
            for k in 0..2 {
                let x = Rational::from(pt[k]);
                let min = points.iter().map(|v| v[k].clone()).min();
                let max = points.iter().map(|v| v[k].clone()).max();
                assert!(min.clone().is_some_and(|m| m <= x));
                assert!(max.clone().is_some_and(|m| m >= x));
            }
        }
    }

    /// Fourier–Motzkin projection = shadow of the integer points
    /// (soundness and, over the rationals, completeness at integer
    /// shadows).
    fn fm_projection_is_shadow(g) {
        let p = boxed_polytope(g, 2);
        let proj = p.eliminate_dims(&[1]);
        let pts = integer_points(&p, 2);
        // Soundness: every point's shadow is in the projection.
        for pt in &pts {
            assert!(proj.contains(&QVector::from_i64(&[pt[0]])));
        }
        // Exactness over Q: a projected integer x must extend to some
        // rational y — check via emptiness of the fiber.
        for x in -4i64..=4 {
            if proj.contains(&QVector::from_i64(&[x])) {
                let mut fiber = p.clone();
                fiber.add_constraint(Constraint::eq0(
                    &AffineExpr::var(2, 0) - &AffineExpr::constant(2, x.into()),
                ));
                assert!(!fiber.is_empty(), "x = {x} has empty fiber");
            }
        }
    }

    /// The DD reduction keeps the set: an empty input is reported empty
    /// (as the LP sees it), and otherwise the kept rows, a subset of the
    /// input's in order, have the input's generators, imply every
    /// dropped row, and none of them is implied by the others.
    fn irredundant_preserves_generators(g) {
        let p = random_system(g);
        let Some(r) = p.irredundant() else {
            assert!(empty_by_lp(&p), "{p:?} reported empty");
            return;
        };
        assert!(!empty_by_lp(&p), "{p:?} is not empty");
        let (before, after) = (p.generator_rows(), r.generator_rows());
        assert_eq!(sorted(&vertices(&before)), sorted(&vertices(&after)), "{p:?}");
        assert_eq!(sorted(&directions(&before.rays)), sorted(&directions(&after.rays)), "{p:?}");
        assert_eq!(before.lines.len(), after.lines.len(), "{p:?}");
        for l in &directions(&after.lines) {
            assert!(p.constraints().iter().all(|c| c.expr().coeffs().dot(l).is_zero()));
        }
        let mut rest = p.constraints().iter();
        for c in r.constraints() {
            let same = |d: &&Constraint| d.expr() == c.expr();
            assert!(rest.any(|d| same(&d)), "{c:?} is not an input row in order");
        }
        for c in p.constraints() {
            assert!(implied(&r, c), "{c:?} dropped but not implied");
        }
        for (k, c) in r.constraints().iter().enumerate() {
            let mut others = r.constraints().to_vec();
            others.remove(k);
            let others = Polyhedron::from_constraints(p.dim(), others);
            assert!(!implied(&others, c), "{c:?} kept but implied in {r:?}");
        }
    }

    /// LP implication agrees with evaluating at all integer points for
    /// full-dimensional sets (rational minima at vertices are rational).
    fn implies_nonneg_sound(g) {
        let p = boxed_polytope(g, 2);
        let coeffs = g.vec_i64(-3, 3, 2);
        let c = g.i64_in(-6, 6);
        let e = AffineExpr::from_i64(&coeffs, c);
        let m = lp_model(&p);
        if m.implies_nonneg(&e) {
            for pt in integer_points(&p, 2) {
                assert!(
                    !e.eval_i64(&pt).is_negative(),
                    "claimed implied but negative at {pt:?}"
                );
            }
        } else {
            // There is a rational witness; confirm via LP minimum.
            let min = m.minimum(&e).expect("bounded");
            assert!(min.is_negative());
        }
    }

    /// Intersection is commutative and monotone.
    fn intersection_properties(g) {
        let a = boxed_polytope(g, 2);
        let b = boxed_polytope(g, 2);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        for x in -5i64..=5 {
            for y in -5i64..=5 {
                let q = QVector::from_i64(&[x, y]);
                let v = ab.contains(&q);
                assert_eq!(v, ba.contains(&q));
                assert_eq!(v, a.contains(&q) && b.contains(&q));
            }
        }
        for c in a.constraints().iter().chain(b.constraints()) {
            assert!(implied(&ab, c), "{c:?}");
        }
    }
}
