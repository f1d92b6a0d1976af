//! Benchmarks of the substrate layers (exact arithmetic, LP, polyhedra)
//! — the knobs that dominate analysis time.

use aov_support::bench::Harness;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args();

    {
        use aov_numeric::BigInt;
        let a = BigInt::from(0x1234_5678_9abc_def0i64).pow(8);
        let b = BigInt::from(0x0fed_cba9_8765_4321i64).pow(5);
        h.bench("numeric/bigint_mul_512bit", || {
            black_box(&a) * black_box(&b)
        });
        h.bench("numeric/bigint_divrem_512bit", || {
            black_box(&a).div_rem(black_box(&b))
        });
    }

    {
        use aov_numeric::Rational;
        let terms: Vec<Rational> = (1..=60).map(|k| Rational::new(1, k)).collect();
        h.bench("numeric/harmonic_sum_60", || {
            terms.iter().cloned().sum::<Rational>()
        });

        // The simplex row update `v -= f·p` over a 64-entry row of
        // rationals of at most 8 bits, the paper examples' shape.
        let small = |k: i64, salt: i64| {
            Rational::new((k * 37 + salt) % 255 - 127, (k * 53 + salt) % 200 + 1)
        };
        let row: Vec<Rational> = (0..64).map(|k| small(k, 11)).collect();
        let pivot: Vec<Rational> = (0..64).map(|k| small(k, 29)).collect();
        let f = small(5, 3);
        h.bench("numeric/rational_pivot_update_8bit", || {
            black_box(&row)
                .iter()
                .zip(black_box(&pivot))
                .map(|(v, p)| v - &(black_box(&f) * p))
                .collect::<Vec<Rational>>()
        });

        // Operands straddling `i64`: each result crosses between the
        // inline and the heap representation.
        let max = Rational::from(i64::MAX);
        let min_third = Rational::new(i64::MIN, 3);
        let heap = &max + &Rational::one();
        let two = Rational::from(2);
        h.bench("numeric/rational_promote_boundary", || {
            let up = black_box(&max) + black_box(&two);
            let down = &up - black_box(&heap);
            let wide = black_box(&min_third) * black_box(&min_third);
            let back = &wide / black_box(&min_third);
            (down, back)
        });
    }

    {
        use aov_linalg::AffineExpr;
        use aov_lp::{Cmp, Model};
        // A 12-var assignment-like LP.
        let mut m = Model::new();
        for k in 0..12 {
            m.add_nonneg_var(format!("x{k}"));
        }
        for r in 0..8 {
            let coeffs: Vec<i64> = (0..12).map(|k| ((k * 7 + r * 3) % 5) as i64 - 2).collect();
            m.constrain(AffineExpr::from_i64(&coeffs, -(r as i64 + 3)), Cmp::Le);
            m.constrain(AffineExpr::from_i64(&coeffs, 20), Cmp::Ge);
        }
        m.minimize(AffineExpr::from_i64(
            &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
            0,
        ));
        h.bench("lp/simplex_12v_16c", || black_box(&m).solve_lp());
    }

    {
        use aov_linalg::AffineExpr;
        use aov_polyhedra::{Constraint, Polyhedron};
        // A 4-d hypercube with two cuts: 10 constraints.
        let mut cs = Vec::new();
        for k in 0..4 {
            let mut lo = vec![0i64; 4];
            lo[k] = 1;
            cs.push(Constraint::ge0(AffineExpr::from_i64(&lo, 0)));
            let mut hi = vec![0i64; 4];
            hi[k] = -1;
            cs.push(Constraint::ge0(AffineExpr::from_i64(&hi, 3)));
        }
        cs.push(Constraint::ge0(AffineExpr::from_i64(&[-1, -1, -1, -1], 9)));
        cs.push(Constraint::ge0(AffineExpr::from_i64(&[1, -1, 1, -1], 2)));
        let p = Polyhedron::from_constraints(4, cs);
        h.bench("polyhedra/dd_4cube_cut", || black_box(&p).generator_rows());
        h.bench("polyhedra/fm_eliminate_2", || {
            black_box(&p).eliminate_dims(&[1, 3])
        });
    }

    {
        use aov_linalg::AffineExpr;
        use aov_polyhedra::{param, Constraint, Polyhedron};
        // The paper's rectangle 1<=i<=n, 1<=j<=m over n, m >= 1.
        let system = Polyhedron::from_constraints(
            4,
            vec![
                Constraint::ge0(AffineExpr::from_i64(&[1, 0, 0, 0], -1)),
                Constraint::ge0(AffineExpr::from_i64(&[-1, 0, 1, 0], 0)),
                Constraint::ge0(AffineExpr::from_i64(&[0, 1, 0, 0], -1)),
                Constraint::ge0(AffineExpr::from_i64(&[0, -1, 0, 1], 0)),
            ],
        );
        let params = Polyhedron::from_constraints(
            2,
            vec![
                Constraint::ge0(AffineExpr::from_i64(&[1, 0], -1)),
                Constraint::ge0(AffineExpr::from_i64(&[0, 1], -1)),
            ],
        );
        h.bench("polyhedra/param_vertices_rect", || {
            param::parameterized_vertices(black_box(&system), 2, &params).unwrap()
        });

        // The shape the pipeline enumerates: example1's first dependence
        // domain, 8 rows over (i, j, n, m).
        let p = aov_ir::examples::example1();
        let dep = aov_ir::analysis::dependences(&p).swap_remove(0);
        let depth = p.statement(dep.target).depth();
        assert_eq!((dep.domain.constraints().len(), dep.domain.dim()), (8, 4));
        h.bench("polyhedra/param_vertices_example1_dep", || {
            param::parameterized_vertices(black_box(&dep.domain), depth, p.param_domain()).unwrap()
        });
    }

    {
        let p = aov_ir::examples::example2();
        h.bench("ir/dependences/example2", || {
            aov_ir::analysis::dependences(black_box(&p))
        });
    }

    h.finish();
}
