//! Test oracle: the rational form layer that `aov_schedule::BilinearForm`'s
//! integer matrices replaced — a form as one `AffineExpr` per unknown plus
//! a constant, built from `AffineExpr` sums, substituted at the rational
//! coordinates of each parameterized vertex and evaluated at the rational
//! generators of its validity domain (the vertex's integer generator rows,
//! converted). It yields the same rows in the same order, so the
//! production path must reproduce its output exactly.

use crate::param::{dedup_in_order, ParamVertex};
use aov_ir::{Dependence, Program};
use aov_linalg::{AffineExpr, QVector};
use aov_schedule::ScheduleSpace;

/// `F(u, x) = Σ_e coeffs[e](x) · u_e + constant(x)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Form {
    pub coeffs: Vec<AffineExpr>,
    pub constant: AffineExpr,
}

impl Form {
    /// The production form's rational coefficients.
    pub fn of(f: &aov_schedule::BilinearForm) -> Form {
        Form {
            coeffs: (0..f.num_unknowns()).map(|e| f.coeff(e)).collect(),
            constant: f.constant(),
        }
    }

    fn zero(n_unknowns: usize, domain_dim: usize) -> Form {
        Form {
            coeffs: vec![AffineExpr::zero(domain_dim); n_unknowns],
            constant: AffineExpr::zero(domain_dim),
        }
    }

    fn add_to_coeff(&mut self, e: usize, w: &AffineExpr) {
        self.coeffs[e] = &self.coeffs[e] + w;
    }

    pub fn negated(&self) -> Form {
        Form {
            coeffs: self.coeffs.iter().map(|c| -c).collect(),
            constant: -&self.constant,
        }
    }

    /// `x_k := subs[k](y)`.
    pub fn substitute_domain(&self, subs: &[AffineExpr]) -> Form {
        Form {
            coeffs: self.coeffs.iter().map(|c| c.substitute(subs)).collect(),
            constant: self.constant.substitute(subs),
        }
    }

    pub fn at_point(&self, x: &QVector) -> AffineExpr {
        let coeffs: QVector = self.coeffs.iter().map(|c| c.eval(x)).collect();
        AffineExpr::from_parts(coeffs, self.constant.eval(x))
    }

    pub fn linear_part_along(&self, r: &QVector) -> AffineExpr {
        let coeffs: QVector = self.coeffs.iter().map(|c| c.coeffs().dot(r)).collect();
        AffineExpr::from_parts(coeffs, self.constant.coeffs().dot(r))
    }
}

/// `Θ_target(i, N) − Θ_source(src_iter(i, N), N) − slack`, by sums of
/// affine expressions.
pub fn difference_form(
    p: &Program,
    space: &ScheduleSpace,
    dep: &Dependence,
    src_iter: &[AffineExpr],
    slack: i64,
) -> Form {
    let r = p.statement(dep.target);
    let dim = r.depth() + p.num_params();
    let mut f = Form::zero(space.dim(), dim);
    for k in 0..r.depth() {
        f.add_to_coeff(space.iter_coeff(dep.target, k), &AffineExpr::var(dim, k));
    }
    for j in 0..p.num_params() {
        let n = AffineExpr::var(dim, r.depth() + j);
        f.add_to_coeff(space.param_coeff(dep.target, j), &n);
        f.add_to_coeff(space.param_coeff(dep.source, j), &-&n);
    }
    f.add_to_coeff(
        space.const_coeff(dep.target),
        &AffineExpr::constant(dim, 1.into()),
    );
    f.add_to_coeff(
        space.const_coeff(dep.source),
        &AffineExpr::constant(dim, (-1).into()),
    );
    for (k, hk) in src_iter.iter().enumerate() {
        f.add_to_coeff(space.iter_coeff(dep.source, k), &-hk);
    }
    f.constant = &f.constant + &AffineExpr::constant(dim, (-slack).into());
    f
}

/// `form >= 0` linearized over `vertices`: at each vertex's rational
/// coordinates, each domain vertex (`true`), ray and both signs of each
/// line (`false`); trivially true rows and repeats dropped.
pub fn linearize_at_vertices(form: &Form, vertices: &[ParamVertex]) -> Vec<(AffineExpr, bool)> {
    let mut out = Vec::new();
    for vertex in vertices {
        let n_params = vertex.n_params;
        let mut subs = vertex.coords();
        subs.extend((0..n_params).map(|j| AffineExpr::var(n_params, j)));
        let over_params = form.substitute_domain(&subs);
        let gens = vertex.generators.to_rational();
        out.extend(
            gens.vertices
                .iter()
                .map(|w| (over_params.at_point(w), true)),
        );
        out.extend(
            gens.rays
                .iter()
                .map(|r| (over_params.linear_part_along(r), false)),
        );
        for l in &gens.lines {
            let lin = over_params.linear_part_along(l);
            let neg = -&lin;
            out.push((lin, false));
            out.push((neg, false));
        }
    }
    out.retain(|(e, _)| !e.is_constant() || e.constant_term().is_negative());
    dedup_in_order(out)
}

/// The storage forms of `dep` over its source array's components: the
/// negated slack-0 difference form linearized at `vertices`, with the
/// `v·Θ` coupling on point rows, repeats dropped.
pub fn storage_forms(
    p: &Program,
    space: &ScheduleSpace,
    dep: &Dependence,
    vertices: &[ParamVertex],
) -> Vec<Form> {
    let source_depth = p.statement(dep.source).depth();
    let f0 = difference_form(p, space, dep, &dep.h, 0).negated();
    let forms = linearize_at_vertices(&f0, vertices)
        .into_iter()
        .map(|(row, point)| {
            let mut f = Form {
                coeffs: vec![AffineExpr::zero(space.dim()); source_depth],
                constant: row,
            };
            if point {
                for k in 0..source_depth {
                    let a = AffineExpr::var(space.dim(), space.iter_coeff(dep.source, k));
                    f.add_to_coeff(k, &a);
                }
            }
            f
        });
    dedup_in_order(forms.collect())
}
