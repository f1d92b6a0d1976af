//! Oracles for the scheduler's tie rule, for the corpus test below.
//!
//! [`abs_rows_model`] is the scheduler's model before `|x|` cost terms:
//! one auxiliary `a ≥ x`, `a ≥ −x` per coefficient, whose weighted sum
//! is the objective. It reaches the same optimal weighted norm, but
//! which tied optimum it returns was left to Bland's rule on its
//! tableau. [`sequential_lexmin`] defines the tie the slow way: fix the
//! optimal norm, then minimize each `ScheduleSpace` coordinate in turn
//! by one ILP each, fixing it before the next.

use crate::Analysis;
use aov_linalg::{AffineExpr, QVector};
use aov_lp::{Cmp, LpOutcome, Model, VarId};
use aov_numeric::Rational;

/// The model over ℛ with one auxiliary per coefficient, and the
/// auxiliaries' weighted sum as an expression (not yet the objective).
fn abs_rows_model(a: &Analysis) -> (Model, AffineExpr) {
    let (p, space) = (a.program(), a.space());
    let mut m = Model::new();
    for name in space.vars().names() {
        let v = m.add_var(name.clone());
        m.set_integer(v);
    }
    for r in a.rows() {
        m.constrain(r.clone(), Cmp::Ge);
    }
    let mut weighted = Vec::new();
    for s in p.stmt_ids() {
        for k in 0..p.statement(s).depth() {
            weighted.push((space.iter_coeff(s, k), 100));
        }
        for j in 0..p.num_params() {
            weighted.push((space.param_coeff(s, j), 10));
        }
        weighted.push((space.const_coeff(s), 1));
    }
    let mut terms = Vec::new();
    for (x, w) in weighted {
        let aux = m.add_var(format!("abs_{x}"));
        let n = m.num_vars();
        let (a, x) = (AffineExpr::var(n, aux.index()), AffineExpr::var(n, x));
        m.constrain(&a - &x, Cmp::Ge);
        m.constrain(&a + &x, Cmp::Ge);
        terms.push((aux.index(), w));
    }
    let n = m.num_vars();
    let mut norm = AffineExpr::zero(n);
    for (aux, w) in terms {
        norm = &norm + &AffineExpr::var(n, aux).scale(&w.into());
    }
    (m, norm)
}

/// The schedule point and optimal norm of the auxiliary-row model, or
/// `None` when ℛ has no integer point.
pub(crate) fn abs_rows_optimum(a: &Analysis) -> Option<(QVector, Rational)> {
    let (mut m, norm) = abs_rows_model(a);
    m.minimize(norm);
    let sol = m.solve_ilp().optimal()?;
    let point = sol.values.iter().take(a.space().dim()).cloned().collect();
    Some((point, sol.objective))
}

/// The lexicographic minimum, in `ScheduleSpace` order, of the integer
/// points of ℛ whose weighted norm is `norm`: one ILP per coordinate.
pub(crate) fn sequential_lexmin(a: &Analysis, norm: &Rational) -> QVector {
    let (mut m, weighted) = abs_rows_model(a);
    m.constrain(
        &weighted - &AffineExpr::constant(weighted.dim(), norm.clone()),
        Cmp::Eq,
    );
    let mut point = Vec::with_capacity(a.space().dim());
    for k in 0..a.space().dim() {
        m.minimize(AffineExpr::var(m.num_vars(), k));
        let x = match m.solve_ilp() {
            LpOutcome::Optimal(sol) => sol.value(VarId::from_index(k)).clone(),
            other => panic!("coordinate {k} on the optimal face: {other:?}"),
        };
        let n = m.num_vars();
        m.constrain(
            &AffineExpr::var(n, k) - &AffineExpr::constant(n, x.clone()),
            Cmp::Eq,
        );
        point.push(x);
    }
    point.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::{abs_rows_optimum, sequential_lexmin};
    use crate::{scheduler, Analysis};
    use aov_fault::Budget;
    use aov_linalg::QVector;
    use aov_support::context::Context;

    /// The schedulable corpus programs whose auxiliary-row answer was not
    /// the lexicographic minimum: ties of equal norm that the rule moves.
    const MOVED: [&str; 23] = [
        "gen_d76644209d4e4678",
        "gen_7637d6e657005861",
        "gen_c1881b1bb605b0a7",
        "gen_e34917752ccf1fd1",
        "gen_a63aca53c370f35b",
        "gen_c5641958e993914b",
        "gen_c994d3a4504aefae",
        "gen_13854df7834e02d9",
        "gen_07faf4b46e62e15e",
        "gen_db5fffc8d4912e50",
        "gen_909e229935e9e247",
        "gen_ab41de9f2a6a7dd7",
        "gen_7229aca420059b60",
        "gen_0cfdfb864e556310",
        "gen_91e0e51d28942077",
        "gen_e40551946038ccf1",
        "gen_c9ede4398c27be0e",
        "gen_0154eb7ccc942b74",
        "gen_3e1b62fce7e5f618",
        "gen_1d5d589ed46c9ff3",
        "gen_5f568bbdcad1a517",
        "gen_8bf3141cfd157919",
        "gen_e31e0ff241cc3363",
    ];

    /// Runs `f` in its own telemetry context and returns its
    /// branch-and-bound nodes.
    fn nodes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let ctx = Context::child(None, Some(false));
        let out = {
            let _entered = ctx.enter();
            f()
        };
        let nodes = ctx.counters().into_iter().find(|(n, _)| n == "lp.bb.nodes");
        (out, nodes.map_or(0, |(_, v)| v))
    }

    fn show(x: &QVector) -> String {
        let parts: Vec<String> = x.iter().map(ToString::to_string).collect();
        format!("({})", parts.join(","))
    }

    /// On the paper examples and every generated program of the corpus
    /// (seeds `mix(42, i)`, `i < 304`, default profile) that has a
    /// schedule: the scheduler reaches the auxiliary-row model's norm,
    /// its point is the sequential lexicographic minimum, and it needs no
    /// more nodes than the auxiliary-row model wherever that model's
    /// answer already was the minimum. The moved answers are exactly
    /// [`MOVED`].
    #[test]
    fn tie_rule_matches_sequential_lexmin_on_corpus() {
        use aov_ir::examples::{example1, example2, example3, example4};
        let cfg = aov_gen::GenConfig::default();
        let programs = [example1(), example2(), example3(), example4()]
            .into_iter()
            .chain((0..304).map(|i| aov_gen::generate(aov_support::rng::mix(42, i), &cfg).program));
        let (mut schedulable, mut moved) = (0, Vec::new());
        for p in programs {
            let Ok(a) = Analysis::new(&p) else { continue };
            let (ours, nodes) =
                nodes_of(|| scheduler::find_schedule_with_budgeted(&a, &[], &Budget::unlimited()));
            let (reference, ref_nodes) = nodes_of(|| abs_rows_optimum(&a));
            let Some((old, norm)) = reference else {
                assert!(ours.is_err(), "{}: {ours:?}", p.name());
                continue;
            };
            schedulable += 1;
            let ours = ours.unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            let lexmin = sequential_lexmin(&a, &norm);
            assert_eq!(ours, a.space().schedule_at(&lexmin), "{}", p.name());
            if old == lexmin {
                assert!(
                    nodes <= ref_nodes,
                    "{}: {nodes} > {ref_nodes} nodes",
                    p.name()
                );
            } else {
                println!(
                    "{}: {} -> {} at norm {norm}, nodes {ref_nodes} -> {nodes}",
                    p.name(),
                    show(&old),
                    show(&lexmin)
                );
                moved.push(p.name().to_string());
            }
            if p.name() == "gen_b4833b1f5db167c7" {
                assert!(nodes <= 5, "{}: {nodes} nodes", p.name());
            }
        }
        assert_eq!(
            schedulable,
            4 + 253,
            "the examples and 253 generated programs"
        );
        moved.sort();
        let mut want = MOVED.map(String::from).to_vec();
        want.sort();
        assert_eq!(moved, want);
    }
}
