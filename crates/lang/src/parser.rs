//! Recursive-descent parser for the `.aov` surface language.
//!
//! Grammar (EBNF; `#` comments and whitespace are skipped by the lexer):
//!
//! ```text
//! file      := "program" IDENT ";" item* EOF
//! item      := "param" IDENT (">=" int)? ";"
//!            | "assume" relchain ";"
//!            | "array" IDENT "[" INT "]" ";"
//!            | "stmt" IDENT "(" IDENT ("," IDENT)* ")" "{" line* "}"
//! line      := IDENT "[" aff "]" ("[" aff "]")* "=" bexpr ";"   -- the write
//!            | relchain ";"                                     -- a constraint
//! relchain  := aff (relop aff)+          relop := "<=" | "<" | ">=" | ">" | "=="
//! aff       := ["-"] aterm (("+" | "-") aterm)*
//! aterm     := INT ("*" IDENT)? | IDENT
//! bexpr     := bterm (("+" | "-") bterm)*
//! bterm     := int
//!            | IDENT "(" [bexpr ("," bexpr)*] ")"               -- call
//!            | IDENT ("[" aff "]")+                             -- array read
//!            | IDENT                                            -- iter/param
//! int       := ["-"] INT
//! ```

use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use crate::lexer::{lex, Tok, Token};

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
}

/// Parses source text into a spanned [`Ast`].
///
/// # Errors
///
/// Returns a caret [`Diagnostic`] describing the first syntax error.
pub fn parse_ast(src: &str) -> Result<Ast, Diagnostic> {
    let toks = lex(src)?;
    Parser { src, toks, pos: 0 }.file()
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    /// Consumes the current token, an identifier, moving its text out.
    fn take_ident(&mut self) -> String {
        let text = match &mut self.toks[self.pos].tok {
            Tok::Ident(s) => std::mem::take(s),
            _ => String::new(),
        };
        self.bump();
        text
    }

    fn err<T>(&self, span: Span, msg: String) -> Result<T, Diagnostic> {
        Err(Diagnostic::at(self.src, span, msg))
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), Diagnostic> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            self.err(
                self.span(),
                format!("expected {what}, found {}", self.peek().describe()),
            )
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), Diagnostic> {
        let span = self.span();
        match self.peek() {
            Tok::Ident(_) => Ok((self.take_ident(), span)),
            other => self.err(span, format!("expected {what}, found {}", other.describe())),
        }
    }

    /// A possibly negated integer literal.
    fn int(&mut self, what: &str) -> Result<(i64, Span), Diagnostic> {
        let span = self.span();
        let neg = if *self.peek() == Tok::Minus {
            self.bump();
            true
        } else {
            false
        };
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok((if neg { -v } else { v }, span))
            }
            ref other => self.err(span, format!("expected {what}, found {}", other.describe())),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<Span, Diagnostic> {
        let span = self.span();
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(span)
            }
            other => self.err(
                span,
                format!("expected keyword `{kw}`, found {}", other.describe()),
            ),
        }
    }

    fn file(mut self) -> Result<Ast, Diagnostic> {
        self.keyword("program")?;
        let (name, name_span) = self.ident("program name")?;
        self.expect(&Tok::Semi, "`;` after program name")?;
        let mut items = Vec::new();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(kw) if kw == "param" => items.push(self.param()?),
                Tok::Ident(kw) if kw == "assume" => items.push(self.assume()?),
                Tok::Ident(kw) if kw == "array" => items.push(self.array()?),
                Tok::Ident(kw) if kw == "stmt" => items.push(Item::Stmt(self.stmt()?)),
                Tok::Ident(other) => {
                    return self.err(
                        self.span(),
                        format!("expected `param`, `assume`, `array` or `stmt`, found `{other}`"),
                    )
                }
                other => {
                    return self.err(
                        self.span(),
                        format!("expected a declaration, found {}", other.describe()),
                    )
                }
            }
        }
        Ok(Ast {
            name,
            name_span,
            items,
        })
    }

    fn param(&mut self) -> Result<Item, Diagnostic> {
        self.keyword("param")?;
        let (name, span) = self.ident("parameter name")?;
        let min = if *self.peek() == Tok::Ge {
            self.bump();
            Some(self.int("parameter lower bound")?.0)
        } else {
            None
        };
        self.expect(&Tok::Semi, "`;` after parameter declaration")?;
        Ok(Item::Param { name, span, min })
    }

    fn assume(&mut self) -> Result<Item, Diagnostic> {
        self.keyword("assume")?;
        let chain = self.relchain()?;
        self.expect(&Tok::Semi, "`;` after assumption")?;
        Ok(Item::Assume(chain))
    }

    fn array(&mut self) -> Result<Item, Diagnostic> {
        self.keyword("array")?;
        let (name, span) = self.ident("array name")?;
        self.expect(&Tok::LBracket, "`[` after array name")?;
        let dim_span = self.span();
        let (dim, _) = self.int("array dimensionality")?;
        if dim < 1 {
            return self.err(
                dim_span,
                format!("array dimensionality must be >= 1, got {dim}"),
            );
        }
        self.expect(&Tok::RBracket, "`]` after array dimensionality")?;
        self.expect(&Tok::Semi, "`;` after array declaration")?;
        Ok(Item::Array {
            name,
            span,
            dim: dim as usize,
            dim_span,
        })
    }

    fn stmt(&mut self) -> Result<StmtAst, Diagnostic> {
        self.keyword("stmt")?;
        let (name, span) = self.ident("statement name")?;
        self.expect(&Tok::LParen, "`(` after statement name")?;
        let mut iters = vec![self.ident("loop iterator name")?];
        while *self.peek() == Tok::Comma {
            self.bump();
            iters.push(self.ident("loop iterator name")?);
        }
        self.expect(&Tok::RParen, "`)` after loop iterators")?;
        self.expect(&Tok::LBrace, "`{` to open the statement body")?;

        let mut constraints = Vec::new();
        let mut write: Option<(WriteAst, Bexpr)> = None;
        loop {
            match self.peek() {
                Tok::RBrace => {
                    self.bump();
                    break;
                }
                Tok::Eof => {
                    return self.err(self.span(), "unclosed statement block (missing `}`)".into())
                }
                Tok::Ident(_) if *self.peek2() == Tok::LBracket => {
                    // The write access: `A[i][j] = body;`
                    let wspan = self.span();
                    if write.is_some() {
                        return self
                            .err(wspan, format!("statement `{name}` has more than one write"));
                    }
                    let (array, aspan) = self.ident("array name")?;
                    let mut indices = Vec::new();
                    while *self.peek() == Tok::LBracket {
                        self.bump();
                        indices.push(self.aff()?);
                        self.expect(&Tok::RBracket, "`]` after index expression")?;
                    }
                    self.expect(&Tok::Assign, "`=` after write access")?;
                    let body = self.bexpr()?;
                    self.expect(&Tok::Semi, "`;` after statement body")?;
                    write = Some((
                        WriteAst {
                            array,
                            span: aspan,
                            indices,
                        },
                        body,
                    ));
                }
                _ => {
                    let chain = self.relchain()?;
                    self.expect(&Tok::Semi, "`;` after constraint")?;
                    constraints.push(chain);
                }
            }
        }
        let Some((write, body)) = write else {
            return self.err(
                span,
                format!("statement `{name}` has no write (`A[...] = ...;`)"),
            );
        };
        Ok(StmtAst {
            name,
            span,
            iters,
            constraints,
            write,
            body,
        })
    }

    fn relchain(&mut self) -> Result<RelChain, Diagnostic> {
        let mut exprs = vec![self.aff()?];
        let mut ops = Vec::new();
        loop {
            let span = self.span();
            let op = match self.peek() {
                Tok::Le => RelOp::Le,
                Tok::Lt => RelOp::Lt,
                Tok::Ge => RelOp::Ge,
                Tok::Gt => RelOp::Gt,
                Tok::EqEq => RelOp::Eq,
                _ => break,
            };
            self.bump();
            ops.push((op, span));
            exprs.push(self.aff()?);
        }
        if ops.is_empty() {
            return self.err(
                self.span(),
                format!(
                    "expected a relational operator (`<=`, `<`, `>=`, `>`, `==`), found {}",
                    self.peek().describe()
                ),
            );
        }
        Ok(RelChain { exprs, ops })
    }

    /// `["-"] aterm (("+"|"-") aterm)*`
    fn aff(&mut self) -> Result<Aff, Diagnostic> {
        let span = self.span();
        let mut terms = Vec::new();
        let mut sign: i64 = if *self.peek() == Tok::Minus {
            self.bump();
            -1
        } else {
            1
        };
        loop {
            terms.push(self.aterm(sign)?);
            sign = match self.peek() {
                Tok::Plus => 1,
                Tok::Minus => -1,
                _ => break,
            };
            self.bump();
        }
        Ok(Aff { terms, span })
    }

    /// `INT ("*" IDENT)? | IDENT`, with `sign` folded into the coefficient.
    fn aterm(&mut self, sign: i64) -> Result<AffTerm, Diagnostic> {
        let span = self.span();
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                let coeff = sign.checked_mul(v).ok_or_else(|| {
                    Diagnostic::at(self.src, span, "coefficient out of range".to_string())
                })?;
                if *self.peek() == Tok::Star {
                    self.bump();
                    let var = self.ident("variable after `*`")?;
                    Ok(AffTerm {
                        coeff,
                        var: Some(var),
                    })
                } else {
                    Ok(AffTerm { coeff, var: None })
                }
            }
            Tok::Ident(_) => Ok(AffTerm {
                coeff: sign,
                var: Some((self.take_ident(), span)),
            }),
            ref other => self.err(
                span,
                format!(
                    "expected an affine term (integer or variable), found {}",
                    other.describe()
                ),
            ),
        }
    }

    /// `bterm (("+"|"-") bterm)*` — sugar lowering to `add`/`sub` happens
    /// in the lowering pass.
    fn bexpr(&mut self) -> Result<Bexpr, Diagnostic> {
        let mut e = self.bterm()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.bterm()?;
            e = Bexpr::Binop(op, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn bterm(&mut self) -> Result<Bexpr, Diagnostic> {
        let span = self.span();
        match self.peek() {
            Tok::Int(_) | Tok::Minus => {
                let (v, span) = self.int("integer literal")?;
                Ok(Bexpr::Int(v, span))
            }
            Tok::Ident(_) => {
                let name = self.take_ident();
                match self.peek() {
                    Tok::LParen => {
                        self.bump();
                        let mut args = Vec::new();
                        if *self.peek() != Tok::RParen {
                            args.push(self.bexpr()?);
                            while *self.peek() == Tok::Comma {
                                self.bump();
                                args.push(self.bexpr()?);
                            }
                        }
                        self.expect(&Tok::RParen, "`)` after call arguments")?;
                        Ok(Bexpr::Call(name, span, args))
                    }
                    Tok::LBracket => {
                        let mut indices = Vec::new();
                        while *self.peek() == Tok::LBracket {
                            self.bump();
                            indices.push(self.aff()?);
                            self.expect(&Tok::RBracket, "`]` after index expression")?;
                        }
                        Ok(Bexpr::Read(name, span, indices))
                    }
                    _ => Ok(Bexpr::Var(name, span)),
                }
            }
            other => self.err(
                span,
                format!("expected an expression, found {}", other.describe()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let ast = parse_ast(
            "program p;\nparam n >= 1;\narray A[1];\nstmt S(i) {\n  1 <= i <= n;\n  A[i] = f(A[i - 1]);\n}\n",
        )
        .unwrap();
        assert_eq!(ast.name, "p");
        assert_eq!(ast.items.len(), 3);
        let Item::Stmt(s) = &ast.items[2] else {
            panic!("expected stmt")
        };
        assert_eq!(s.iters.len(), 1);
        assert_eq!(s.constraints.len(), 1);
        assert_eq!(s.constraints[0].exprs.len(), 3);
        assert_eq!(s.write.array, "A");
    }

    #[test]
    fn rejects_missing_semicolon() {
        let err = parse_ast("program p\n").unwrap_err();
        assert!(err.message.contains("expected `;`"), "{}", err.message);
        assert!(err.message.contains("end of input"), "{}", err.message);
    }

    #[test]
    fn rejects_double_write() {
        let err = parse_ast("program p;\narray A[1];\nstmt S(i) {\n  A[i] = 1;\n  A[i] = 2;\n}\n")
            .unwrap_err();
        assert!(
            err.message.contains("more than one write"),
            "{}",
            err.message
        );
        assert_eq!(err.line, 5);
    }

    #[test]
    fn rejects_constraint_without_relation() {
        let err = parse_ast("program p;\nstmt S(i) {\n  i + 1;\n}\n").unwrap_err();
        assert!(
            err.message.contains("relational operator"),
            "{}",
            err.message
        );
    }
}
