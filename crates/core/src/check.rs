//! Exact validity checkers for concrete occupancy vectors.
//!
//! These are independent of the LP/Farkas solvers: validity of a *fixed*
//! integer vector is decided by exact polyhedral reasoning (vertex
//! elimination over the exact domain `Z`, then an emptiness/implication
//! LP per row). The solvers' results are cross-checked against these in
//! tests, and the `_search` solver variants in [`crate::problems`] are
//! built directly on them. Their LPs, and those of the test oracles
//! downstream, are [`lp_model`]'s.

use crate::storage::{exact_z, mirror_guard_row};
use aov_ir::{ArrayId, Dependence};
use aov_linalg::AffineExpr;
use aov_lp::{Cmp, Model};
use aov_polyhedra::{PolyhedraError, Polyhedron};
use aov_schedule::linearize::eliminate_to_linear;
use aov_schedule::{legal, Analysis, Schedule};

/// `p` as an LP model ([`Model::over_rows`]): the exact emptiness,
/// implication and extremum queries that stay LPs.
pub fn lp_model(p: &Polyhedron) -> Model {
    let rows = p.constraints().iter().map(|c| {
        let cmp = if c.is_equality() { Cmp::Eq } else { Cmp::Ge };
        (c.expr(), cmp)
    });
    Model::over_rows(p.dim(), rows)
}

/// Validity checks of concrete vectors over one program's [`Analysis`]
/// (its dependences, schedule space and ℛ).
pub struct Checker<'a> {
    a: &'a Analysis<'a>,
}

impl<'a> Checker<'a> {
    /// A checker over the shared analysis.
    pub fn new(a: &'a Analysis<'a>) -> Self {
        Checker { a }
    }

    /// Dependences whose source writes `array` (those constrain the
    /// array's occupancy vector).
    pub fn deps_on_array(&self, array: ArrayId) -> Vec<&'a Dependence> {
        let p = self.a.program();
        self.a
            .deps()
            .iter()
            .filter(|d| p.statement(d.source).writes() == array)
            .collect()
    }

    /// Whether `v` is a valid occupancy vector for `array` under the
    /// concrete schedule `sched` (Eq. 3, exact `Z`).
    pub fn valid_for_schedule(&self, array: ArrayId, v: &[i64], sched: &Schedule) -> bool {
        let (p, space) = (self.a.program(), self.a.space());
        let point = legal::point_of(p, space, sched);
        for dep in self.deps_on_array(array) {
            let t = p.statement(dep.source);
            let r = p.statement(dep.target);
            let dim = r.depth() + p.num_params();
            assert_eq!(v.len(), t.depth(), "vector dimension");
            let z = exact_z(p, dep, v);
            let region = lp_model(&z.intersect(&p.embed_param_domain(r.depth())));
            if !region.is_infeasible() {
                let h_plus_v: Vec<AffineExpr> = dep
                    .h
                    .iter()
                    .zip(v)
                    .map(|(hk, &vk)| hk + &AffineExpr::constant(dim, vk.into()))
                    .collect();
                let form = legal::difference_form(p, space, dep, &h_plus_v, 0).negated();
                let over_domain = form.fix_unknowns(&point);
                if !region.implies_nonneg(&over_domain) {
                    return false;
                }
            }
            // Sign-symmetric storage class: a reachable mirror
            // overwriter h - v demands a_T·v >= 1 (see `exact_z`).
            let neg_v: Vec<i64> = v.iter().map(|&c| -c).collect();
            let z_minus = exact_z(p, dep, &neg_v);
            if !lp_model(&z_minus.intersect(&p.embed_param_domain(r.depth()))).is_infeasible()
                && mirror_guard_row(space, dep, v).eval(&point).is_negative()
            {
                return false;
            }
        }
        true
    }

    /// Whether `v` is an AOV for `array`: valid for *every* legal affine
    /// schedule (Definition 1 of the paper). Exact `Z` per dependence;
    /// each linearized row must hold over all of ℛ.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyhedraError`] from vertex elimination.
    pub fn valid_for_all_schedules(
        &self,
        array: ArrayId,
        v: &[i64],
    ) -> Result<bool, PolyhedraError> {
        let (p, space) = (self.a.program(), self.a.space());
        let legal_poly = lp_model(self.a.legal());
        for dep in self.deps_on_array(array) {
            let t = p.statement(dep.source);
            let r = p.statement(dep.target);
            let dim = r.depth() + p.num_params();
            assert_eq!(v.len(), t.depth(), "vector dimension");
            let z = exact_z(p, dep, v);
            if !lp_model(&z.intersect(&p.embed_param_domain(r.depth()))).is_infeasible() {
                let h_plus_v: Vec<AffineExpr> = dep
                    .h
                    .iter()
                    .zip(v)
                    .map(|(hk, &vk)| hk + &AffineExpr::constant(dim, vk.into()))
                    .collect();
                let form = legal::difference_form(p, space, dep, &h_plus_v, 0).negated();
                let rows = eliminate_to_linear(&form, &z, r.depth(), p.param_domain())?;
                for row in rows {
                    if !legal_poly.implies_nonneg(&row) {
                        return Ok(false);
                    }
                }
            }
            // Sign-symmetric storage class: a reachable mirror
            // overwriter h - v demands a_T·v >= 1 (see `exact_z`).
            let neg_v: Vec<i64> = v.iter().map(|&c| -c).collect();
            let z_minus = exact_z(p, dep, &neg_v);
            if !lp_model(&z_minus.intersect(&p.embed_param_domain(r.depth()))).is_infeasible()
                && !legal_poly.implies_nonneg(&mirror_guard_row(space, dep, v))
            {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples::{example1, example2};
    use aov_ir::{ArrayId, StmtId};

    #[test]
    fn example1_fig3_ov_for_row_schedule() {
        let p = example1();
        let an = Analysis::new(&p).unwrap();
        let checker = Checker::new(&an);
        let row = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[0, 1, 0, 0], 0)]);
        let a = ArrayId(0);
        // Figure 3: (0,1) is valid for the row-parallel schedule.
        assert!(checker.valid_for_schedule(a, &[0, 1], &row));
        assert!(checker.valid_for_schedule(a, &[0, 2], &row));
        // Immediate reuse is not.
        assert!(!checker.valid_for_schedule(a, &[0, 0], &row));
        // A vector pointing against time is not.
        assert!(!checker.valid_for_schedule(a, &[0, -1], &row));
    }

    #[test]
    fn example1_fig5_aov_validity() {
        let p = example1();
        let an = Analysis::new(&p).unwrap();
        let checker = Checker::new(&an);
        let a = ArrayId(0);
        // Figure 5 / §5.1.4: (1,2) is an AOV, (0,3) (the UOV) too.
        assert!(checker.valid_for_all_schedules(a, &[1, 2]).unwrap());
        assert!(checker.valid_for_all_schedules(a, &[0, 3]).unwrap());
        // (0,1) is valid for Θ=j but NOT for all schedules.
        assert!(!checker.valid_for_all_schedules(a, &[0, 1]).unwrap());
        assert!(!checker.valid_for_all_schedules(a, &[0, 2]).unwrap());
        assert!(!checker.valid_for_all_schedules(a, &[1, 1]).unwrap());
    }

    #[test]
    fn example2_fig9_aovs() {
        let p = example2();
        let an = Analysis::new(&p).unwrap();
        let checker = Checker::new(&an);
        let a = p.array_by_name("A").unwrap();
        let b = p.array_by_name("B").unwrap();
        assert!(checker.valid_for_all_schedules(a, &[1, 1]).unwrap());
        assert!(checker.valid_for_all_schedules(b, &[1, 1]).unwrap());
        assert!(!checker.valid_for_all_schedules(a, &[0, 1]).unwrap());
        assert!(!checker.valid_for_all_schedules(a, &[1, 0]).unwrap());
    }

    /// Found by the differential fuzzer (seed 42): with the read offset
    /// larger than half the constant trip count, `h + v` for `v = -1`
    /// falls outside the writer's domain, but the mirror overwriter
    /// `h - v` is in-domain and clobbers the live value. The one-sided
    /// `Z` pruning used to accept `(-1)` (modulation 1 — a single cell)
    /// as an AOV; the dynamic equivalence stage refuted it.
    #[test]
    fn mirror_overwriter_rejects_unit_vectors() {
        // array A[1]; stmt S1(i) { 1 <= i <= 3; A[i] = f(A[i-2], i); }
        let mut b = aov_ir::ProgramBuilder::new("clipped_self_read");
        let a = b.array("A", 1);
        let mut s = b.statement("S1", &["i"]);
        s.bound(0, s.constant(1), s.constant(3));
        s.writes(a);
        let r = s.read(a, vec![&s.iter(0) - &s.constant(2)]);
        s.body(aov_ir::Expr::call(
            "f",
            vec![aov_ir::Expr::Read(r), aov_ir::Expr::Iter(0)],
        ));
        b.add_statement(s);
        let p = b.build().unwrap();

        let an = Analysis::new(&p).unwrap();
        let checker = Checker::new(&an);
        // The value written at i=1 is read at i=3. With v = -1, cell
        // class {x - k} makes the i=2 write clobber it; with v = +1 the
        // i=2 write is the h+v overwriter directly. Both are illegal for
        // the (only legal) forward schedule, hence for all schedules.
        assert!(!checker.valid_for_all_schedules(a, &[-1]).unwrap());
        assert!(!checker.valid_for_all_schedules(a, &[1]).unwrap());
        // v = 2 maps the overwriter onto the value's own writer: legal.
        assert!(checker.valid_for_all_schedules(a, &[2]).unwrap());

        // Same story under the concrete sequential schedule Θ = i.
        let seq = Schedule::uniform_for(&p, &[AffineExpr::from_i64(&[1], 0)]);
        assert!(!checker.valid_for_schedule(a, &[-1], &seq));
        assert!(!checker.valid_for_schedule(a, &[1], &seq));
        assert!(checker.valid_for_schedule(a, &[2], &seq));
    }

    /// Oracle for [`aov_polyhedra::Polyhedron::is_empty`], the DD
    /// verdict that drops a dependence candidate and rejects
    /// overlapping writers: the LP agrees on every candidate's joint
    /// domain and every pair of writers of one array in the corpus.
    #[test]
    fn emptiness_verdicts_match_lp() {
        // [empty, nonempty] for dependence candidates, then writer pairs.
        let mut counts = [[0usize; 2]; 2];
        for p in crate::oracle_corpus() {
            let candidates = aov_ir::analysis::candidates(&p).into_iter();
            let mut joints: Vec<(usize, Polyhedron)> = candidates.map(|(_, j)| (0, j)).collect();
            for a in 0..p.arrays().len() {
                let writers = p.writers_of(ArrayId(a));
                for (x, &w1) in writers.iter().enumerate() {
                    for &w2 in &writers[x + 1..] {
                        joints.push((1, p.writer_joint(w1, w2)));
                    }
                }
            }
            for (kind, joint) in joints {
                let empty = joint.is_empty();
                assert_eq!(
                    empty,
                    lp_model(&joint).is_infeasible(),
                    "{}: {joint:?}",
                    p.name()
                );
                counts[kind][usize::from(!empty)] += 1;
            }
        }
        let [[dropped, kept], [disjoint, overlapping]] = counts;
        println!(
            "dependence candidates: {kept} nonempty, {dropped} empty; \
             writer pairs: {disjoint} disjoint, {overlapping} overlapping"
        );
        assert!(kept > 0 && dropped > 0 && disjoint > 0, "{counts:?}");
    }

    #[test]
    fn deps_on_array_filters_by_writer() {
        let p = example2();
        let an = Analysis::new(&p).unwrap();
        let checker = Checker::new(&an);
        let a = p.array_by_name("A").unwrap();
        let on_a = checker.deps_on_array(a);
        assert_eq!(on_a.len(), 1);
        assert_eq!(on_a[0].source, StmtId(0)); // S1 writes A
    }
}
