//! Lowering from the spanned [`Ast`] to an [`aov_ir::Program`].
//!
//! Lowering is where name resolution and structural checks happen; every
//! failure is reported as a caret [`Diagnostic`], never a panic. The
//! produced builder calls mirror the hand-built examples exactly
//! (`param_min`, `bound`-shaped constraint pairs, reads added in body
//! order), so a parsed example is structurally identical to its
//! hand-built twin.

use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use aov_ir::{ArrayId, Expr, Program, ProgramBuilder, StatementBuilder};
use aov_linalg::AffineExpr;
use aov_numeric::Rational;
use aov_polyhedra::Constraint;
use std::collections::HashMap;

/// Lowers a parsed file to a validated [`Program`].
///
/// # Errors
///
/// Returns a [`Diagnostic`] for unknown names, duplicate declarations,
/// malformed writes, or any [`Program::validate`] violation.
pub fn lower(src: &str, ast: &Ast) -> Result<Program, Diagnostic> {
    let mut b = ProgramBuilder::new(ast.name.clone());
    let mut params: Vec<String> = Vec::new();
    let mut arrays: HashMap<String, (ArrayId, usize)> = HashMap::new();
    let mut stmt_names: Vec<String> = Vec::new();
    let mut saw_stmt = false;

    for item in &ast.items {
        match item {
            Item::Param { name, span, min } => {
                if saw_stmt {
                    return fail(src, *span, "parameters must be declared before statements");
                }
                if params.iter().any(|p| p == name) {
                    return fail(src, *span, format!("duplicate parameter `{name}`"));
                }
                match min {
                    Some(m) => {
                        b.param_min(name.clone(), *m);
                    }
                    None => {
                        b.param(name.clone());
                    }
                }
                params.push(name.clone());
            }
            Item::Assume(chain) => {
                // Assumptions range over the parameters declared so far;
                // the builder pads them to the final parameter count.
                let scope = Scope::params_only(&params);
                for c in lower_chain(src, chain, &scope)? {
                    b.param_constraint(c);
                }
            }
            Item::Array {
                name, span, dim, ..
            } => {
                if arrays.contains_key(name) {
                    return fail(src, *span, format!("duplicate array `{name}`"));
                }
                let id = b.array(name.clone(), *dim);
                arrays.insert(name.clone(), (id, *dim));
            }
            Item::Stmt(s) => {
                saw_stmt = true;
                if stmt_names.iter().any(|n| n == &s.name) {
                    return fail(src, s.span, format!("duplicate statement `{}`", s.name));
                }
                stmt_names.push(s.name.clone());
                lower_stmt(src, s, &params, &arrays, &mut b)?;
            }
        }
    }

    b.build()
        .map_err(|e| Diagnostic::at(src, ast.name_span, format!("invalid program: {e}")))
}

fn fail<T, S: Into<String>>(src: &str, span: Span, msg: S) -> Result<T, Diagnostic> {
    Err(Diagnostic::at(src, span, msg.into()))
}

/// A variable scope mapping names to coordinates of an affine space.
struct Scope<'a> {
    iters: &'a [(String, Span)],
    params: &'a [String],
}

impl<'a> Scope<'a> {
    fn params_only(params: &'a [String]) -> Self {
        Scope { iters: &[], params }
    }

    fn dim(&self) -> usize {
        self.iters.len() + self.params.len()
    }

    fn resolve(&self, name: &str) -> Option<usize> {
        if let Some(k) = self.iters.iter().position(|(n, _)| n == name) {
            return Some(k);
        }
        self.params
            .iter()
            .position(|p| p == name)
            .map(|k| self.iters.len() + k)
    }
}

/// Lowers a syntactic affine expression over `scope`.
fn lower_aff(src: &str, aff: &Aff, scope: &Scope) -> Result<AffineExpr, Diagnostic> {
    let mut coeffs = vec![0i64; scope.dim()];
    let mut constant = 0i64;
    for t in &aff.terms {
        match &t.var {
            None => constant = constant.saturating_add(t.coeff),
            Some((name, span)) => match scope.resolve(name) {
                Some(k) => coeffs[k] = coeffs[k].saturating_add(t.coeff),
                None => {
                    return fail(src, *span, format!("unknown variable `{name}`"));
                }
            },
        }
    }
    Ok(AffineExpr::from_i64(&coeffs, constant))
}

/// Lowers a relation chain to one constraint per adjacent pair.
fn lower_chain(src: &str, chain: &RelChain, scope: &Scope) -> Result<Vec<Constraint>, Diagnostic> {
    let exprs: Vec<AffineExpr> = chain
        .exprs
        .iter()
        .map(|a| lower_aff(src, a, scope))
        .collect::<Result<_, _>>()?;
    let minus_one = Rational::from(-1);
    let mut out = Vec::with_capacity(chain.ops.len());
    for (k, (op, _)) in chain.ops.iter().enumerate() {
        let (a, b) = (&exprs[k], &exprs[k + 1]);
        // Integer points: `a < b` is `b - a - 1 >= 0`.
        out.push(match op {
            RelOp::Le => Constraint::ge0(b - a),
            RelOp::Lt => Constraint::ge0((b - a).plus_constant(&minus_one)),
            RelOp::Ge => Constraint::ge0(a - b),
            RelOp::Gt => Constraint::ge0((a - b).plus_constant(&minus_one)),
            RelOp::Eq => Constraint::eq0(a - b),
        });
    }
    Ok(out)
}

fn lower_stmt(
    src: &str,
    s: &StmtAst,
    params: &[String],
    arrays: &HashMap<String, (ArrayId, usize)>,
    b: &mut ProgramBuilder,
) -> Result<(), Diagnostic> {
    // Iterator names must be unique and disjoint from parameter names
    // (the statement space `iters ++ params` is a single VarSet).
    for (k, (name, span)) in s.iters.iter().enumerate() {
        if s.iters[..k].iter().any(|(n, _)| n == name) {
            return fail(src, *span, format!("duplicate loop iterator `{name}`"));
        }
        if params.iter().any(|p| p == name) {
            return fail(
                src,
                *span,
                format!("loop iterator `{name}` shadows a structural parameter"),
            );
        }
    }
    let iter_names: Vec<&str> = s.iters.iter().map(|(n, _)| n.as_str()).collect();
    let mut sb = b.statement(s.name.clone(), &iter_names);
    let scope = Scope {
        iters: &s.iters,
        params,
    };

    for chain in &s.constraints {
        for c in lower_chain(src, chain, &scope)? {
            sb.constraint(c);
        }
    }

    // The write: indices must be exactly the iteration vector (the IR's
    // single-assignment form has data space = iteration space).
    let Some(&(aid, adim)) = arrays.get(&s.write.array) else {
        return fail(
            src,
            s.write.span,
            format!("unknown array `{}`", s.write.array),
        );
    };
    if s.write.indices.len() != adim {
        return fail(
            src,
            s.write.span,
            format!(
                "write to `{}` has {} indices, array is {}-dimensional",
                s.write.array,
                s.write.indices.len(),
                adim
            ),
        );
    }
    for (r, idx) in s.write.indices.iter().enumerate() {
        let e = lower_aff(src, idx, &scope)?;
        if r >= s.iters.len() || e != AffineExpr::var(scope.dim(), r) {
            let want = s
                .iters
                .get(r)
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| "?".into());
            return fail(
                src,
                idx.span,
                format!(
                    "write index {} of `{}` must be the loop iterator `{want}`",
                    r + 1,
                    s.write.array
                ),
            );
        }
    }
    sb.writes(aid);

    let body = lower_bexpr(src, &s.body, &scope, arrays, &mut sb)?;
    sb.body(body);
    b.add_statement(sb);
    Ok(())
}

/// Lowers a body expression, registering array reads on `sb` in source
/// order (so `Expr::Read` indices match textual appearance).
fn lower_bexpr(
    src: &str,
    e: &Bexpr,
    scope: &Scope,
    arrays: &HashMap<String, (ArrayId, usize)>,
    sb: &mut StatementBuilder,
) -> Result<Expr, Diagnostic> {
    match e {
        Bexpr::Int(v, _) => Ok(Expr::Const(*v)),
        Bexpr::Var(name, span) => {
            let Some(k) = scope.resolve(name) else {
                return fail(src, *span, format!("unknown variable `{name}`"));
            };
            if k < scope.iters.len() {
                Ok(Expr::Iter(k))
            } else {
                Ok(Expr::Param(k - scope.iters.len()))
            }
        }
        Bexpr::Call(name, _, args) => {
            let mut lowered = Vec::with_capacity(args.len());
            for a in args {
                lowered.push(lower_bexpr(src, a, scope, arrays, sb)?);
            }
            Ok(Expr::call(name.clone(), lowered))
        }
        Bexpr::Read(name, span, indices) => {
            let Some(&(aid, adim)) = arrays.get(name) else {
                return fail(src, *span, format!("unknown array `{name}`"));
            };
            if indices.len() != adim {
                return fail(
                    src,
                    *span,
                    format!(
                        "read of `{name}` has {} indices, array is {adim}-dimensional",
                        indices.len()
                    ),
                );
            }
            let idx: Vec<AffineExpr> = indices
                .iter()
                .map(|a| lower_aff(src, a, scope))
                .collect::<Result<_, _>>()?;
            Ok(Expr::Read(sb.read(aid, idx)))
        }
        Bexpr::Binop(op, a, b) => {
            let la = lower_bexpr(src, a, scope, arrays, sb)?;
            let lb = lower_bexpr(src, b, scope, arrays, sb)?;
            let name = match op {
                BinOp::Add => "add",
                BinOp::Sub => "sub",
            };
            Ok(Expr::call(name, vec![la, lb]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ast;

    fn lower_src(src: &str) -> Result<Program, Diagnostic> {
        lower(src, &parse_ast(src)?)
    }

    #[test]
    fn lowers_prefix_sum_identically() {
        let src = "program prefix_sum;\nparam n >= 1;\narray P[1];\nstmt S(i) {\n  1 <= i <= n;\n  P[i] = add(P[i - 1], i);\n}\n";
        let p = lower_src(src).unwrap();
        let hand = aov_ir::examples::prefix_sum();
        assert_eq!(p.name(), hand.name());
        assert_eq!(p.param_domain(), hand.param_domain());
        assert_eq!(p.statements()[0].domain(), hand.statements()[0].domain());
        assert_eq!(p.statements()[0].body(), hand.statements()[0].body());
        assert_eq!(p.statements()[0].reads(), hand.statements()[0].reads());
    }

    #[test]
    fn plus_sugar_lowers_to_add_call() {
        let src = "program p;\nparam n >= 1;\narray A[1];\nstmt S(i) {\n  1 <= i <= n;\n  A[i] = A[i - 1] + i;\n}\n";
        let p = lower_src(src).unwrap();
        assert_eq!(
            p.statements()[0].body(),
            &Expr::call("add", vec![Expr::Read(0), Expr::Iter(0)])
        );
    }

    #[test]
    fn unknown_variable_is_diagnosed() {
        let src = "program p;\narray A[1];\nstmt S(i) {\n  1 <= i <= q;\n  A[i] = 0;\n}\n";
        let err = lower_src(src).unwrap_err();
        assert!(
            err.message.contains("unknown variable `q`"),
            "{}",
            err.message
        );
        assert_eq!(err.line, 4);
    }

    #[test]
    fn write_index_must_be_iteration_vector() {
        let src = "program p;\nparam n >= 1;\narray A[1];\nstmt S(i) {\n  1 <= i <= n;\n  A[i - 1] = 0;\n}\n";
        let err = lower_src(src).unwrap_err();
        assert!(
            err.message.contains("must be the loop iterator"),
            "{}",
            err.message
        );
    }

    #[test]
    fn iterator_shadowing_param_is_diagnosed() {
        let src =
            "program p;\nparam n >= 1;\narray A[1];\nstmt S(n) {\n  1 <= n <= 4;\n  A[n] = 0;\n}\n";
        let err = lower_src(src).unwrap_err();
        assert!(err.message.contains("shadows"), "{}", err.message);
    }

    #[test]
    fn build_violations_become_diagnostics() {
        // 2-d array written by a 1-d statement.
        let src = "program p;\narray A[2];\nstmt S(i) {\n  1 <= i <= 4;\n  A[i] = 0;\n}\n";
        let err = lower_src(src).unwrap_err();
        assert!(err.message.contains("indices"), "{}", err.message);
    }
}
